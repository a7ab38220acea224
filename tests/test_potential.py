import numpy as np
import pytest

from stochnls.grid import SpatialGrid
from stochnls.markov import MarkovModel
from stochnls.potential import (
    HartreeKernel,
    PotentialFamily,
    a_of_hv,
    check_nontriviality,
    make_amplitude_family,
    make_translate_family,
    shape_field,
    split,
)


@pytest.fixture
def grid():
    return SpatialGrid(1, 64, 16.0)


def bump(grid, center=None):
    return shape_field(grid, "gaussian", amplitude=1.0, width=1.5, center=center)


class TestConstructors:
    def test_translate_zero_shift(self, grid):
        base = bump(grid)
        fam = make_translate_family(base, grid, shifts=[0])
        np.testing.assert_array_equal(fam.V[0], base)

    def test_translate_full_period(self, grid):
        base = bump(grid)
        fam = make_translate_family(base, grid, shifts=[grid.points_per_axis])
        np.testing.assert_array_equal(fam.V[0], base)

    def test_translate_mirror_pair(self, grid):
        base = bump(grid)  # symmetric about the box center
        fam = make_translate_family(base, grid, shifts=[5, -5])
        np.testing.assert_allclose(fam.V[0], grid.reflect(fam.V[1]), atol=1e-14)

    def test_amplitude_family(self, grid):
        V2 = bump(grid)
        fam = make_amplitude_family(np.zeros(grid.size), V2, [-1.0, 1.0], grid)
        np.testing.assert_array_equal(fam.V[0], -V2)
        np.testing.assert_array_equal(fam.V[1], V2)

    def test_amplitude_y_independent(self, grid):
        fam = make_amplitude_family(bump(grid), bump(grid), [2.0, 2.0, 2.0], grid)
        assert np.ptp(fam.V, axis=0).max() == 0.0
        fam0 = make_amplitude_family(bump(grid), np.zeros(grid.size), [0.1, 5.0], grid)
        assert np.ptp(fam0.V, axis=0).max() == 0.0

    def test_nonfinite_rejected(self, grid):
        with pytest.raises(ValueError):
            PotentialFamily(grid, np.full((1, grid.size), np.inf))


class TestNontriviality:
    def h(self, m):
        return np.full(m, 1.0 / m)

    def test_deterministic_family(self, grid):
        fam = make_amplitude_family(bump(grid), np.zeros(grid.size), [0.0, 1.0], grid)
        report = check_nontriviality(fam, self.h(2))
        assert report.verdict == "trivial_case_1"
        assert not report.condition1

    def test_pure_gauge_family(self, grid):
        # V(x, y) = V(x) + f(y): condition 1 passes, two-point differences do not
        const = np.ones(grid.size)
        fam = make_amplitude_family(bump(grid), const, [-0.5, 1.5], grid)
        report = check_nontriviality(fam, self.h(2))
        assert report.verdict == "trivial_case_2"
        assert report.condition1 and not report.condition2

    def test_amplitude_bump_nontrivial(self, grid):
        fam = make_amplitude_family(np.zeros(grid.size), bump(grid), [-1, 1], grid)
        report = check_nontriviality(fam, self.h(2))
        assert report.verdict == "nontrivial"
        assert report.witness_cells_2.size > 0

    def test_invariant_under_y_independent_shift(self, grid):
        fam = make_amplitude_family(np.zeros(grid.size), bump(grid), [-1, 1], grid)
        shifted = PotentialFamily(grid, fam.V + 3.7 * bump(grid, center=2.0)[None, :])
        r1 = check_nontriviality(fam, self.h(2), tol=1e-9)
        r2 = check_nontriviality(shifted, self.h(2), tol=1e-9)
        assert r1.condition1 == r2.condition1
        assert r1.condition2 == r2.condition2

    def test_support_restriction(self, grid):
        # family varies only on a state outside supp h -> trivial
        fam = make_amplitude_family(np.zeros(grid.size), bump(grid), [0, 0, 1], grid)
        report = check_nontriviality(fam, np.array([0.5, 0.5, 0.0]))
        assert report.verdict == "trivial_case_1"

    def test_tol_validation(self, grid):
        fam = PotentialFamily(grid, bump(grid)[None, :])
        with pytest.raises(ValueError):
            check_nontriviality(fam, np.array([1.0]), tol=0.0)


class TestAOfHV:
    def model2(self, a=1.0):
        return MarkovModel(np.array([[a, -a], [-a, a]]))

    def test_y_independent_vanishes(self, grid):
        fam = make_amplitude_family(bump(grid), np.zeros(grid.size), [1.0, 1.0], grid)
        fields, norm = a_of_hv(fam, self.model2())
        assert np.max(np.abs(fields)) < 1e-14
        assert norm < 1e-14
        report = check_nontriviality(fam, np.array([0.5, 0.5]))
        assert report.verdict == "trivial_case_1"

    def test_two_state_pattern(self, grid):
        # V = +-W with A = [[a,-a],[-a,a]], h = (1/2, 1/2): A[hV] = (aW, -aW)
        a = 1.4
        W = bump(grid)
        fam = make_amplitude_family(np.zeros(grid.size), W, [1.0, -1.0], grid)
        fields, norm = a_of_hv(fam, self.model2(a))
        np.testing.assert_allclose(fields[0], 2 * a * 0.5 * W, atol=1e-13)
        np.testing.assert_allclose(fields[1], -2 * a * 0.5 * W, atol=1e-13)
        assert norm > 0

    def test_zero_potential(self, grid):
        fam = PotentialFamily(grid, np.zeros((2, grid.size)))
        fields, norm = a_of_hv(fam, self.model2())
        assert np.max(np.abs(fields)) == 0.0 and norm == 0.0


class TestSplit:
    def test_nonnegative_potential(self, grid):
        fam = PotentialFamily(grid, bump(grid)[None, :])
        w = split(fam)
        np.testing.assert_allclose(w.v1, w.v2)
        np.testing.assert_allclose(w.v1, np.sqrt(fam.V))

    def test_negative_constant(self, grid):
        fam = PotentialFamily(grid, -np.ones((1, grid.size)))
        w = split(fam)
        np.testing.assert_array_equal(w.v1, np.ones((1, grid.size)))
        np.testing.assert_array_equal(w.v2, -np.ones((1, grid.size)))

    def test_reconstruction_random(self, grid):
        rng = np.random.default_rng(3)
        fam = PotentialFamily(grid, rng.standard_normal((3, grid.size)))
        w = split(fam)
        assert np.max(np.abs(w.v1 * w.v2 - fam.V)) <= 1e-12 * np.max(np.abs(fam.V))
        assert np.min(w.v1) >= 0.0

    def test_failed_reconstruction_raises(self, grid):
        fam = PotentialFamily(grid, bump(grid)[None, :])
        fam.V[0, 3] = np.nan  # set past the family's finiteness check
        with pytest.raises(RuntimeError, match="reconstruct"):
            split(fam)


class TestHartreeKernel:
    def test_even_accepted(self, grid):
        chi = bump(grid, center=0.0)  # centered at the origin -> even
        HartreeKernel(grid, chi, epsilon=0.1)

    def test_odd_rejected(self, grid):
        x = grid.centered_coordinates()[0]
        with pytest.raises(ValueError):
            HartreeKernel(grid, np.sin(2 * np.pi * x / grid.box_length), epsilon=0.1)
