import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from stochnls import spectral
from stochnls.diagnostics import write_csv
from stochnls.grid import SpatialGrid, dense_laplacian, laplacian_symbol, reflection_blocks
from stochnls.markov import MarkovModel
from stochnls.potential import (
    PotentialFamily,
    make_amplitude_family,
    make_translate_family,
    shape_field,
)
from stochnls.spectral import (
    _KB_CHUNK,
    _KB_GRAM_KAPPA,
    _min_singular_values,
    _neg_laplacian,
    assemble_h,
    assemble_kb,
    default_lambda_grid,
    eigen_analysis,
    kb_scan,
    resolvent_identity_residual,
)


def two_state_model(rate=1.0):
    return MarkovModel(rate * np.array([[1.0, -1.0], [-1.0, 1.0]]))


def well_levels(report):
    """Localized eigenvalues below -0.5: the well's level, once per
    eigenvalue of A when the blocks decouple."""
    bound = report.discrete_subset()
    return bound[bound.real < -0.5]


def sech_family(grid, m=2, contrast=1.0, depth=-2.0):
    well = shape_field(grid, "sech2", amplitude=depth, width=1.0)
    if m == 1:
        return PotentialFamily(grid, well[None, :])
    return make_amplitude_family(well, -0.5 * depth * shape_field(
        grid, "sech2", amplitude=1.0, width=1.0),
        np.linspace(-contrast, contrast, m), grid)


class TestAssemble:
    def test_free_spectrum_is_laplacian_symbols(self):
        grid = SpatialGrid(1, 32, 10.0)
        fam = PotentialFamily(grid, np.zeros((1, grid.size)))
        model = MarkovModel(np.zeros((1, 1)))
        ham = assemble_h(fam, model)
        eigvals = np.sort(np.linalg.eigvals(ham.H).real)
        np.testing.assert_allclose(eigvals, np.sort(laplacian_symbol(grid)),
                                   atol=1e-9)

    def test_commuting_sum_spectrum(self):
        # V=0, A nonzero: spectrum is exactly {|k|^2 + i mu}
        grid = SpatialGrid(1, 16, 8.0)
        model = two_state_model(1.7)
        fam = PotentialFamily(grid, np.zeros((2, grid.size)))
        ham = assemble_h(fam, model)
        eigvals = np.linalg.eigvals(ham.H)
        mus = np.linalg.eigvalsh(model.A)
        expected = (laplacian_symbol(grid)[:, None] + 1j * mus[None, :]).reshape(-1)
        got = np.sort_complex(np.round(eigvals, 9))
        want = np.sort_complex(np.round(expected, 9))
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_poschl_teller_level(self):
        # -2 sech^2 well holds a single level at -1 on the line; the doubled
        # resolution solve is the oracle for the box value
        levels = []
        for n in (128, 256):
            grid = SpatialGrid(1, n, 40.0)
            fam = sech_family(grid, m=1)
            ham = assemble_h(fam, MarkovModel(np.zeros((1, 1))))
            report = eigen_analysis(ham)
            bound = report.discrete_subset()
            levels.append(float(bound.real.min()))
        assert abs(levels[0] - levels[1]) <= 1e-6  # resolved well
        assert abs(levels[1] - (-1.0)) <= 1e-3     # box/line discrepancy only

    def test_size_cap(self):
        grid = SpatialGrid(1, 4096, 100.0)
        fam = PotentialFamily(grid, np.zeros((2, grid.size)))
        with pytest.raises(ValueError):
            assemble_h(fam, two_state_model())


class TestEigenAnalysis:
    def test_selfadjoint_case_real_spectrum(self):
        grid = SpatialGrid(1, 64, 20.0)
        fam = sech_family(grid, m=1)
        ham = assemble_h(fam, MarkovModel(np.zeros((1, 1))))
        report = eigen_analysis(ham)
        assert np.max(np.abs(report.eigenvalues.imag)) <= 1e-10

    def test_trivial_randomness_keeps_real_bound_state(self):
        # V independent of y, A nonzero: H block-diagonalizes over spec(A);
        # the ground block is self-adjoint, so the bound state stays real.
        # Each level E appears as E + i mu for every mu in spec(A), with real
        # parts tied up to roundoff, so the real one is picked by |Im|.
        grid = SpatialGrid(1, 128, 40.0)
        well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
        fam = PotentialFamily(grid, np.vstack([well, well]))
        model = two_state_model()
        ham = assemble_h(fam, model)
        report = eigen_analysis(ham)
        levels = well_levels(report)
        assert levels.size > 0
        best = levels[np.argmin(np.abs(levels.imag))]
        assert best.real < -0.5
        assert abs(best.imag) <= 1e-8 * report.norm
        for mu in np.linalg.eigvalsh(model.A):
            assert np.min(np.abs(levels - (best.real + 1j * mu))) <= 1e-8 * report.norm

    def test_nontrivial_randomness_creates_resonance(self):
        grid = SpatialGrid(1, 128, 40.0)
        fam = sech_family(grid, m=2, contrast=1.0)
        ham = assemble_h(fam, two_state_model())
        report = eigen_analysis(ham)
        levels = well_levels(report)
        assert levels.size > 0
        best = levels[np.argmin(levels.imag)]  # least-damped resonance, as in C8
        assert best.imag >= 1e-6 * report.norm  # strictly decaying resonance

    def test_dissipativity_on_random_families(self):
        # quadratic-form argument: Im<Hf,f> = <Af,f> >= 0 for every family
        rng = np.random.default_rng(0)
        grid = SpatialGrid(1, 16, 8.0)
        for _ in range(200):
            V = rng.standard_normal((3, grid.size))
            fam = PotentialFamily(grid, V)
            A = -np.abs(rng.standard_normal((3, 3)))
            A = 0.5 * (A + A.T)
            np.fill_diagonal(A, 0.0)
            np.fill_diagonal(A, -A.sum(axis=1))
            model = MarkovModel(A)
            report = eigen_analysis(assemble_h(fam, model))
            assert report.min_imag >= -1e-8 * report.norm


class TestKatoBirman:
    def test_zero_potential_gives_identity(self):
        grid = SpatialGrid(1, 16, 8.0)
        fam = PotentialFamily(grid, np.zeros((2, grid.size)))
        kb = assemble_kb(fam, two_state_model(), lam=-1.0 - 1.0j)
        np.testing.assert_allclose(kb, np.eye(32), atol=1e-12)

    def test_large_lambda_approaches_identity(self):
        grid = SpatialGrid(1, 32, 12.0)
        fam = sech_family(grid, m=2, contrast=1.0)
        kb = assemble_kb(fam, two_state_model(), lam=-1e4j)
        assert np.linalg.norm(kb - np.eye(64), 2) <= 1e-2

    def test_upper_half_plane_rejected(self):
        grid = SpatialGrid(1, 16, 8.0)
        fam = sech_family(grid, m=2)
        with pytest.raises(ValueError):
            assemble_kb(fam, two_state_model(), lam=1.0 + 0.5j)

    @pytest.mark.parametrize("lam", [complex(np.nan, 0.0), complex(np.inf, -1.0),
                                     complex(1.0, -np.inf)])
    def test_non_finite_lambda_rejected(self, lam):
        # R0 has no value there: a NaN lambda would give an all-NaN KB
        fam, model = c9_setting()
        with pytest.raises(ValueError, match="finite"):
            assemble_kb(fam, model, lam)
        with pytest.raises(ValueError, match="finite"):
            resolvent_identity_residual(fam, model, lam)
        with pytest.raises(ValueError, match="finite"):
            kb_scan(fam, model, [lam, -1.0 - 1.0j])

    def test_scan_positive_min_singular_values(self):
        grid = SpatialGrid(1, 32, 12.0)
        fam = sech_family(grid, m=2, contrast=1.0)
        scan = kb_scan(fam, two_state_model(), default_lambda_grid(n_re=7, n_im=3))
        assert scan["min_singular_values"].size == 21
        assert scan["global_min"] > 0.0

    def test_kb_inverse_consistency(self):
        # (I - v2 R_V v1) must invert KB
        grid = SpatialGrid(1, 16, 8.0)
        fam = sech_family(grid, m=2, contrast=0.7)
        model = two_state_model()
        lam = -2.0 - 1.5j
        kb = assemble_kb(fam, model, lam)
        inv = np.linalg.inv(kb)
        from stochnls.grid import dense_laplacian as dl
        from stochnls.potential import split

        H0 = np.kron(np.eye(2), dl(grid)).astype(complex) \
            + 1j * np.kron(model.A, np.eye(grid.size))
        w = split(fam)
        RV = np.linalg.inv(H0 + np.diag(fam.V.reshape(-1)) - lam * np.eye(32))
        direct = np.eye(32) - w.v2.reshape(-1)[:, None] * RV * w.v1.reshape(-1)[None, :]
        assert np.max(np.abs(direct - inv)) <= 1e-6


def dense_kb(fam, model, lam):
    """I + v2 (H0 - lambda)^{-1} v1 with H0 assembled and inverted densely."""
    from stochnls.potential import split

    grid = fam.grid
    H0 = np.kron(np.eye(model.m), dense_laplacian(grid)).astype(complex) \
        + 1j * np.kron(model.A, np.eye(grid.size))
    eye = np.eye(H0.shape[0])
    w = split(fam)
    R0 = np.linalg.inv(H0 - lam * eye)
    return eye + w.v2.reshape(-1)[:, None] * R0 * w.v1.reshape(-1)[None, :]


def c9_setting(n=64):
    grid = SpatialGrid(1, n, 20.0)
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    mod = shape_field(grid, "sech2", amplitude=1.0, width=1.0)
    return make_amplitude_family(well, mod, [-1.0, 1.0], grid), two_state_model()


class TestKBEigenbasis:
    """KB built from H0's eigenbasis against the dense inverse of H0 - lambda."""

    LAMBDAS = (-1.0 - 1.0j, 3.3 - 0.5j, -7.5 + 0.0j, 2.0 - 4.0j, -0.3 - 0.01j, 10.0 + 0.0j)

    def cases(self):
        g1 = SpatialGrid(1, 32, 12.0)
        g2 = SpatialGrid(2, 8, 6.0)
        bump = -np.exp(-sum((c - 3.0) ** 2 for c in g2.coordinates()))
        g3 = SpatialGrid(1, 16, 8.0)
        # no symmetry under reversing the states, so Q's row order matters
        A3 = np.array([[1.3, -1.0, -0.3], [-1.0, 1.7, -0.7], [-0.3, -0.7, 1.0]])
        return [
            (sech_family(g1, m=2, contrast=0.8), two_state_model(1.4)),
            (PotentialFamily(g2, np.vstack([bump, 0.4 * bump])), two_state_model(0.8)),
            (sech_family(g3, m=3, contrast=1.0), MarkovModel(A3)),
        ]

    def test_matches_dense_inverse(self):
        # measured: at most 4.7e-14 over these cases
        for fam, model in self.cases():
            for lam in self.LAMBDAS:
                diff = np.max(np.abs(assemble_kb(fam, model, lam)
                                     - dense_kb(fam, model, lam)))
                assert diff <= 1e-12, (fam.grid.dim, model.m, lam, diff)

    def test_matches_dense_inverse_on_c9_grid(self):
        # measured: at most 3.2e-12 over C9's grid (lambda = 0 excluded); the
        # real points near |k|^2 make R0 large
        fam, model = c9_setting()
        for lam in default_lambda_grid():
            if lam != 0:
                diff = np.max(np.abs(assemble_kb(fam, model, lam)
                                     - dense_kb(fam, model, lam)))
                assert diff <= 1e-10, (lam, diff)

    def test_lambda_in_free_spectrum(self):
        fam, model = c9_setting()
        with pytest.raises(ValueError, match="spectrum of H0"):
            assemble_kb(fam, model, 0.0 + 0.0j)
        lams = default_lambda_grid()
        scan = kb_scan(fam, model, lams)
        excluded = np.isnan(scan["min_singular_values"])
        assert np.array_equal(lams[excluded], [0.0])
        assert scan["global_min"] == np.nanmin(scan["min_singular_values"]) > 0.0
        assert scan["global_min_lambda"] == -1.0
        with pytest.raises(ValueError, match="every lambda"):
            kb_scan(fam, model, [0.0])


class TestMinSingularValues:
    """sigma_min read from KB^H KB where kappa <= _KB_GRAM_KAPPA and as
    1 / sigma_max(KB^{-1}) from stacked inverses elsewhere, against the SVD,
    on well conditioned, singular and near-singular KB."""

    EPS = np.finfo(float).eps

    def assert_within_svd_error(self, kbs, mins):
        # the SVD's own error bound for sigma_min: a few eps sigma_max absolute
        sv = np.linalg.svd(kbs, compute_uv=False)
        assert np.all(np.abs(mins - sv[:, -1]) <= 10 * self.EPS * sv[:, 0]), \
            (mins, sv[:, -1], sv[:, 0])

    def test_singular_member_reads_zero(self):
        rng = np.random.default_rng(3)
        kbs = rng.standard_normal((5, 12, 12)) + 1j * rng.standard_normal((5, 12, 12))
        kbs[2, :, 4] = 0.0  # exactly singular: LU meets a zero pivot
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(kbs)
        mins = _min_singular_values(kbs)
        assert mins[2] == 0.0
        regular = np.delete(kbs, 2, axis=0)
        assert np.array_equal(np.delete(mins, 2), _min_singular_values(regular))
        np.testing.assert_allclose(np.delete(mins, 2),
                                   np.linalg.svd(regular, compute_uv=False)[:, -1], rtol=1e-12)

    @pytest.mark.parametrize("kind", ["trivial", "switching", "uneven"])
    def test_near_singular_lambdas_keep_the_svd_accuracy(self, kind):
        # lambda at and next to an eigenvalue of H: the trivial family's real
        # bound level (sigma_min down to roundoff), else the real point
        # below a resonance, the closest one on the closed lower half-plane
        grid = SpatialGrid(1, 64, 20.0)
        model = two_state_model()
        well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
        fam = {"trivial": PotentialFamily(grid, np.vstack([well, well])),
               "switching": sech_family(grid, m=2, contrast=0.2),
               "uneven": make_translate_family(well, grid, [(0,), (3,)])}[kind]
        loc = eigen_analysis(assemble_h(fam, model)).discrete_subset()
        level = min(loc[loc.real < -0.5], key=lambda e: e.imag)
        lams = level.real + np.array([0.0, -1e-9j, -1e-6j, 1e-3, -1e-3j])
        kbs = np.stack([assemble_kb(fam, model, lam) for lam in lams])
        mins = _min_singular_values(kbs)
        self.assert_within_svd_error(kbs, mins)
        self.assert_within_svd_error(kbs, kb_scan(fam, model, lams)["min_singular_values"])
        if kind == "trivial":
            assert mins[1] < 1e-8  # the bound level is a real eigenvalue

    def test_mixed_stack_keeps_each_value_alone(self):
        rng = np.random.default_rng(11)
        n = 12

        def with_singular_values(s):
            u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            return (u * s) @ v.conj().T

        kappas = [1.0, 1.5, 1.99, 2.01, 10.0, 1e6, 1.3]
        kbs = np.stack([with_singular_values(np.linspace(3.0, 3.0 / k, n)) for k in kappas]
                       + [with_singular_values(np.linspace(2.0, 0.5, n))])
        kbs[-1, :, 5] = 0.0  # exactly singular
        sv = np.linalg.svd(kbs, compute_uv=False)
        kappa = sv[:, 0] / sv[:, -1]
        assert np.any(kappa < _KB_GRAM_KAPPA) and np.sum(kappa[:-1] > _KB_GRAM_KAPPA) >= 3
        mins = _min_singular_values(kbs)
        assert mins[-1] == 0.0
        for i, kb in enumerate(kbs):
            assert mins[i] == _min_singular_values(kb[None])[0], i
        self.assert_within_svd_error(kbs, mins)

    @pytest.mark.parametrize("n, im_min", [(64, -5.0), (128, -1.0)], ids=["64", "128"])
    def test_c9_grid_takes_both_reads_within_the_svd_error(self, n, im_min, monkeypatch):
        # at n = 128 only the two rows of C9's grid nearest the real axis,
        # to keep the SVDs cheap: they hold every member with kappa > 2
        # and the largest Gram-read error of the whole grid (0.65 of the bound)
        fam, model = c9_setting(n)
        lams = default_lambda_grid()
        lams = lams[(lams.imag >= im_min) & (lams != 0)]
        stacks, inverted = [], []

        def record(kb, read=spectral._min_singular_values):
            stacks.append((kb, read(kb)))
            return stacks[-1][1]

        def count(kb, invert=spectral._inverse_min_singular_values):
            inverted.append(len(kb))
            return invert(kb)

        monkeypatch.setattr(spectral, "_min_singular_values", record)
        monkeypatch.setattr(spectral, "_inverse_min_singular_values", count)
        kb_scan(fam, model, lams)
        assert sum(len(kb) for kb, _ in stacks) == 2 * lams.size  # both parity blocks
        assert 0 < sum(inverted) < 2 * lams.size, inverted
        for kb, mins in stacks:
            self.assert_within_svd_error(kb, mins)

    def test_value_does_not_depend_on_the_chunk(self):
        # 2.5 - 0.7j is read from the inverse in the even block and from
        # KB^H KB in the odd; -5 - 1j from KB^H KB in both (kappa 1.56 and
        # 1.25); 8 from the inverse in both (kappa 43).  6 (kappa 3.6 and
        # 3.1) puts one more inverse-read member in the first stack.
        fam, model = c9_setting()
        others = default_lambda_grid()[1:2 * _KB_CHUNK + 1]
        others[3] = 6.0
        lams = np.array([2.5 - 0.7j, -5.0 - 1.0j, 8.0])
        alone = [kb_scan(fam, model, [lam])["min_singular_values"][0] for lam in lams]
        for pos in range(_KB_CHUNK + 1):
            grid = np.insert(others, [pos] * lams.size, lams)
            mins = kb_scan(fam, model, grid)["min_singular_values"]
            assert np.array_equal(mins[pos:pos + lams.size], alone), pos


def graph_model(weights, m):
    """The weighted graph Laplacian on m states with the given edge weights."""
    A = np.zeros((m, m))
    A[np.triu_indices(m, 1)] = weights
    A = -(A + A.T)
    np.fill_diagonal(A, -A.sum(axis=1))
    return MarkovModel(A)


GRIDS = [SpatialGrid(1, 16, 8.0), SpatialGrid(1, 32, 12.0),
         SpatialGrid(2, 4, 4.0), SpatialGrid(2, 8, 6.0)]
SPLIT_LAMBDAS = default_lambda_grid(re_span=(-6.0, 6.0), n_re=4, im_span=(-2.0, -0.5),
                                    n_im=2)


@st.composite
def families(draw, states=st.integers(1, 3)):
    """A grid, a weighted-graph generator on m states and a seed for V."""
    grid = draw(st.sampled_from(GRIDS))
    m = draw(states)
    weights = draw(st.lists(st.floats(0.1, 3.0), min_size=m * (m - 1) // 2,
                            max_size=m * (m - 1) // 2))
    seed = draw(st.integers(0, 2**32 - 1))
    V = np.random.default_rng(seed).standard_normal((m, grid.size))
    return grid, graph_model(weights, m), V


def unsplit_eigen(ham):
    """The whole-space eigensolve and localization, as before the split."""
    eigvals, eigvecs = np.linalg.eig(ham.H)
    mass = np.abs(eigvecs) ** 2
    window = np.tile(ham.well_window, ham.m)
    return eigvals, mass[window].sum(axis=0) / mass.sum(axis=0)


def real_unsplit_eigen(ham):
    """The whole-space solve of a two-state H with equal holding rates
    gamma: i gamma + spec(R), R = Re(D^{-1} H D) with D = diag(I, i I), and
    the localization of R's eigenvectors, whose |.|^2 are H's."""
    d = np.repeat([1.0, 1j], ham.grid.size)
    eigvals, eigvecs = np.linalg.eig((d.conj()[:, None] * ham.H * d[None, :]).real)
    mass = np.abs(eigvecs) ** 2
    window = np.tile(ham.well_window, ham.m)
    return eigvals + 1j * ham.A[0, 0], mass[window].sum(axis=0) / mass.sum(axis=0)


def unsplit_kb_mins(fam, model):
    return np.array([np.linalg.svd(assemble_kb(fam, model, lam), compute_uv=False)[-1]
                     for lam in SPLIT_LAMBDAS])


split_settings = settings(max_examples=12, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])


def assert_matches_unsplit(report, ham):
    """The report's eigenvalues are the whole-space solve's to 1e-10 ||H||,
    matched one to one, and a well separated level's localization is the
    same in either basis (its eigenvector is unique up to phase)."""
    want, want_loc = unsplit_eigen(ham)
    assert report.eigenvalues.size == want.size
    rows, cols = linear_sum_assignment(np.abs(report.eigenvalues[:, None] - want[None, :]))
    assert np.max(np.abs(report.eigenvalues[rows] - want[cols])) <= 1e-10 * report.norm
    gaps = np.abs(want[:, None] - want[None, :]) + np.eye(want.size) * report.norm
    simple = np.min(gaps, axis=1)[cols] > 1e-3 * report.norm
    np.testing.assert_allclose(report.localization[rows][simple],
                               want_loc[cols][simple], rtol=0, atol=1e-8)


class TestParitySplit:
    """For an even V the eigensolve and the KB scan run on the even and odd
    blocks; their union must be the whole operator's spectrum, and an
    uneven V must take the unsplit path unchanged."""

    @split_settings
    @given(families())
    def test_even_family_splits_and_keeps_the_spectrum(self, drawn):
        grid, model, V = drawn
        fam = PotentialFamily(grid, V + np.array([grid.reflect(v) for v in V]))
        blocks = reflection_blocks(grid, (fam.V,), fam.m)
        fixed = 2 ** grid.dim  # the origin and the half-box points, per axis
        assert [b.index.size for b in blocks] == [
            model.m * (grid.size + fixed) // 2, model.m * (grid.size - fixed) // 2]
        ham = assemble_h(fam, model)
        assert_matches_unsplit(eigen_analysis(ham), ham)
        mins = kb_scan(fam, model, SPLIT_LAMBDAS)["min_singular_values"]
        np.testing.assert_allclose(mins, unsplit_kb_mins(fam, model), rtol=1e-12)

    @split_settings
    @given(families(), st.sampled_from([1, 3]))
    def test_uneven_family_takes_the_unsplit_path(self, drawn, shift):
        grid, model, V = drawn
        # base is even; a shift by 1 or 3 cells (never 0 or n/2, which keep
        # it even) breaks the symmetry of state 0
        base = V[0] + grid.reflect(V[0])
        shifts = [(shift + y,) + (0,) * (grid.dim - 1) for y in range(model.m)]
        fam = make_translate_family(base, grid, shifts)
        assert len(reflection_blocks(grid, (fam.V,), fam.m)) == 1
        if not np.all(fam.V == fam.V[0]):  # one state takes the chain modes
            ham = assemble_h(fam, model)
            report = eigen_analysis(ham)
            # two states solve the real R, three the complex H
            want, want_loc = (real_unsplit_eigen if model.m == 2 else unsplit_eigen)(ham)
            assert np.array_equal(report.eigenvalues, want)
            assert np.array_equal(report.localization, want_loc)
            assert_matches_unsplit(report, ham)
        mins = kb_scan(fam, model, SPLIT_LAMBDAS)["min_singular_values"]
        kbs = np.stack([assemble_kb(fam, model, lam) for lam in SPLIT_LAMBDAS])
        assert np.array_equal(mins, _min_singular_values(kbs))
        np.testing.assert_allclose(mins, unsplit_kb_mins(fam, model), rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_two_point_grid_has_no_odd_block(self, m):
        # n = 2 has no pair j != -j: both points are fixed, so every V is
        # even, the odd block is empty and the even block is the whole space
        grid = SpatialGrid(1, 2, 20.0)
        fam = sech_family(grid, m=m)
        hops = np.eye(m, k=1) + np.eye(m, k=-1)  # the path graph on m states
        model = MarkovModel(np.diag(hops.sum(axis=1)) - hops)
        assert [b.index.size for b in reflection_blocks(grid, (fam.V,), fam.m)] == [m * grid.size]
        ham = assemble_h(fam, model)
        assert_matches_unsplit(eigen_analysis(ham), ham)
        mins = kb_scan(fam, model, SPLIT_LAMBDAS)["min_singular_values"]
        np.testing.assert_allclose(mins, unsplit_kb_mins(fam, model), rtol=1e-12)

    def test_blocks_decouple_the_c8_operator(self):
        # the coupling between the blocks is the dense Laplacian's roundoff
        grid = SpatialGrid(1, 64, 40.0)
        fam = sech_family(grid, m=2, contrast=1.0)
        ham = assemble_h(fam, two_state_model())
        even, odd = reflection_blocks(grid, (fam.V,), fam.m)
        B = np.zeros((ham.size, even.index.size))
        cols = np.arange(even.index.size)
        B[even.index, cols] = even.weight
        B[even.mirror, cols] += even.weight
        np.testing.assert_allclose(B.T @ B, np.eye(cols.size), atol=1e-15)
        P = B @ B.T  # projector onto the even functions
        assert np.max(np.abs(P @ ham.H - ham.H @ P)) <= 1e-12 * np.max(np.abs(ham.H))


class TestChainModes:
    """When every row of V is equal, H splits over the eigenvectors of A into
    h + i mu_j; its spectrum must be the whole operator's, with imaginary
    parts exactly the mu_j."""

    @split_settings
    @given(families(), st.booleans())
    def test_equal_rows_split_into_chain_modes(self, drawn, even):
        grid, model, V = drawn
        v = V[0] + grid.reflect(V[0]) if even else V[0]
        fam = PotentialFamily(grid, np.tile(v, (model.m, 1)))
        ham = assemble_h(fam, model)
        report = eigen_analysis(ham)
        assert_matches_unsplit(report, ham)
        mu = np.linalg.eigvalsh(model.A)
        assert np.all(np.any(report.eigenvalues.imag[:, None] == mu[None, :], axis=1))
        levels = report.eigenvalues.real.reshape(model.m, grid.size)
        assert np.all(levels == levels[0])  # each level once per mu_j, exactly

    def test_one_state_family_is_real(self):
        grid = SpatialGrid(1, 64, 40.0)
        ham = assemble_h(sech_family(grid, m=1), MarkovModel(np.zeros((1, 1))))
        report = eigen_analysis(ham)
        assert np.all(report.eigenvalues.imag == 0.0)
        assert_matches_unsplit(report, ham)


class TestTwoStateSimilarity:
    """A two-state H is i gamma plus D R D^{-1} with R real: the real solve
    must give the whole operator's spectrum and localized levels, reflected
    about Im = gamma; a three-state chain keeps the complex solve."""

    @split_settings
    @given(families(states=st.just(2)), st.booleans())
    def test_real_solve_keeps_the_spectrum(self, drawn, even):
        grid, model, V = drawn
        if even:
            V = V + np.array([grid.reflect(v) for v in V])
        fam = PotentialFamily(grid, V)
        assert len(reflection_blocks(grid, (fam.V,), fam.m)) == (2 if even else 1)
        ham = assemble_h(fam, model)
        report = eigen_analysis(ham)
        assert_matches_unsplit(report, ham)
        want, want_loc = unsplit_eigen(ham)
        got, ref = report.discrete_subset(), want[want_loc > 0.5]
        assert got.size == ref.size
        rows, cols = linear_sum_assignment(np.abs(got[:, None] - ref[None, :]))
        assert np.max(np.abs(got[rows] - ref[cols]), initial=0.0) <= 1e-10 * report.norm
        # each eigenvalue's reflection conj(lambda) + 2 i gamma is in the
        # spectrum, with exactly the same real part
        lam, gamma = report.eigenvalues, model.A[0, 0]
        same_re = lam.real[:, None] == lam.real[None, :]
        mirrored = np.abs(lam.imag[:, None] + lam.imag[None, :] - 2 * gamma) \
            <= 1e-12 * report.norm
        assert np.all(np.any(same_re & mirrored, axis=1))

    @pytest.mark.parametrize("even", [False, True])
    def test_three_state_chain_keeps_the_complex_solve(self, even):
        grid = SpatialGrid(1, 16, 8.0)
        A3 = np.array([[1.3, -1.0, -0.3], [-1.0, 1.7, -0.7], [-0.3, -0.7, 1.0]])
        V = np.random.default_rng(5).standard_normal((3, grid.size))
        if even:
            V = V + np.array([grid.reflect(v) for v in V])
        ham = assemble_h(PotentialFamily(grid, V), MarkovModel(A3))
        report = eigen_analysis(ham)
        window = np.tile(ham.well_window, ham.m)
        want, want_loc = [], []
        for block in reflection_blocks(grid, (V,), len(V)):
            vals, vecs = np.linalg.eig(block.restrict(ham.H))
            mass = np.abs(block.extend(vecs)) ** 2
            want.append(vals)
            want_loc.append(mass[window].sum(axis=0) / mass.sum(axis=0))
        assert np.array_equal(report.eigenvalues, np.concatenate(want))
        assert np.array_equal(report.localization, np.concatenate(want_loc))


def dense_path_eigen(ham):
    """:func:`eigen_analysis` as it ran on the dense H: the chain modes from
    h = Re H[:n, :n], the two-state real solve of Re(D^{-1} M D) for each
    block M = restrict(H), and the complex solve of M otherwise."""
    n, m, H = ham.grid.size, ham.m, ham.H
    if np.all(ham.V == ham.V[0]):
        levels, loc = [], []
        for block in reflection_blocks(ham.grid, (ham.V[:1],)):
            E, U = np.linalg.eigh(block.restrict(H[:n, :n].real))
            mass = block.extend(U) ** 2
            levels.append(E)
            loc.append(mass[ham.well_window].sum(axis=0) / mass.sum(axis=0))
        levels, loc = np.concatenate(levels), np.concatenate(loc)
        mu = np.linalg.eigvalsh(ham.A)
        return (levels[None, :] + 1j * mu[:, None]).reshape(-1), np.tile(loc, m)
    real = m == 2 and ham.A[0, 0] == ham.A[1, 1]
    window = np.tile(ham.well_window, m)
    eigvals, loc = [], []
    for block in reflection_blocks(ham.grid, (ham.V,), ham.m):
        M = block.restrict(H)
        if real:
            k = len(M) // 2
            R = M.real.copy()
            R[:k, k:] = -M.imag[:k, k:]
            R[k:, :k] = M.imag[k:, :k]
            vals, vecs = np.linalg.eig(R)
            vals = vals + 1j * ham.A[0, 0]
        else:
            vals, vecs = np.linalg.eig(M)
        mass = np.abs(block.extend(vecs)) ** 2
        eigvals.append(vals)
        loc.append(mass[window].sum(axis=0) / mass.sum(axis=0))
    return np.concatenate(eigvals), np.concatenate(loc)


def assert_same_bytes_as_dense_path(ham):
    report = eigen_analysis(ham)
    want, want_loc = dense_path_eigen(ham)
    assert report.eigenvalues.tobytes() == want.tobytes()
    assert report.localization.tobytes() == want_loc.tobytes()


class TestBlockAssembly:
    """eigen_analysis assembles each block from the cached -Lap, V and A; its
    reports must be the dense path's byte for byte, and assemble_h must not
    form H."""

    @split_settings
    @given(families(), st.sampled_from(["even", "uneven", "equal"]))
    def test_blocks_match_the_dense_path(self, drawn, kind):
        grid, model, V = drawn
        if kind == "even":
            V = V + np.array([grid.reflect(v) for v in V])
        elif kind == "equal":
            V = np.tile(V[0], (model.m, 1))
        assert_same_bytes_as_dense_path(assemble_h(PotentialFamily(grid, V), model))

    @pytest.mark.parametrize("family", ["trivial", "resonant"])
    def test_c8_families_match_the_dense_path(self, family):
        grid = SpatialGrid(1, 256, 40.0)
        well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
        fam = {"trivial": PotentialFamily(grid, np.vstack([well, well])),
               "resonant": sech_family(grid, m=2, contrast=1.0)}[family]
        assert_same_bytes_as_dense_path(assemble_h(fam, two_state_model()))

    def test_h_is_formed_only_when_read(self, monkeypatch):
        grid = SpatialGrid(1, 256, 40.0)
        fam, model = sech_family(grid, m=2, contrast=1.0), two_state_model()
        tracemalloc.start()
        try:
            ham = assemble_h(fam, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # the dense H alone is (2 * 256)^2 * 16 B = 4 MiB
        eager = np.kron(np.eye(2), dense_laplacian(grid)).astype(complex) \
            + 1j * np.kron(model.A, np.eye(grid.size))
        eager += np.diag(fam.V.reshape(-1).astype(complex))
        assert ham.H.tobytes() == eager.tobytes()
        monkeypatch.setattr(spectral.DiscreteHamiltonian, "H",
                            property(lambda self: pytest.fail("H was formed")))
        assert ham.size == 2 * grid.size
        eigen_analysis(ham)
        eigen_analysis(assemble_h(PotentialFamily(grid, np.vstack([fam.V[0]] * 2)), model))

    def test_cached_laplacian_is_read_only(self):
        grid = SpatialGrid(1, 32, 12.0)
        L = _neg_laplacian(grid)
        assert L is _neg_laplacian(grid)
        assert L.tobytes() == dense_laplacian(grid).tobytes()
        with pytest.raises(ValueError):
            L[0, 0] = 1.0
        with pytest.raises(ValueError):
            L.real[0, 0] = 1.0


def dense_residual(fam, model, lam):
    """The resolvent identity's max-norm defect as it was formed on the whole
    space: assemble_kb times I - v2 inv(H - lambda) v1, H the dense matrix."""
    from stochnls.potential import split

    kb = assemble_kb(fam, model, lam)
    eye = np.eye(kb.shape[0])
    w = split(fam)
    RV = np.linalg.inv(assemble_h(fam, model).H - lam * eye)
    right = eye - w.v2.reshape(-1)[:, None] * RV * w.v1.reshape(-1)[None, :]
    return float(np.max(np.abs(kb @ right - eye)))


class TestResolventIdentity:
    """The residual is formed on the parity blocks of v1 and v2 and read in
    the spatial basis: it must agree with the whole-space formula and form
    no dense H."""

    @split_settings
    @given(families(), st.sampled_from(["even", "uneven", "equal"]))
    def test_matches_the_dense_formula(self, drawn, kind):
        grid, model, V = drawn
        if kind == "even":
            V = V + np.array([grid.reflect(v) for v in V])
        elif kind == "equal":
            V = np.tile(V[0], (model.m, 1))
        fam = PotentialFamily(grid, V)
        assert len(reflection_blocks(grid, (fam.V,), fam.m)) == (2 if kind == "even" else 1)
        got = [resolvent_identity_residual(fam, model, lam) for lam in SPLIT_LAMBDAS]
        want = [dense_residual(fam, model, lam) for lam in SPLIT_LAMBDAS]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_c9_shape_matches_the_dense_formula(self, m):
        fam = sech_family(SpatialGrid(1, 64, 20.0), m=m)
        hops = np.eye(m, k=1) + np.eye(m, k=-1)  # the path graph on m states
        model = MarkovModel(np.diag(hops.sum(axis=1)) - hops)
        assert len(reflection_blocks(fam.grid, (fam.V,), fam.m)) == 2
        rng = np.random.default_rng(7)
        lams = [complex(rng.uniform(-8, 8), rng.uniform(-4, -0.1)) for _ in range(5)]
        got = [resolvent_identity_residual(fam, model, lam) for lam in lams]
        np.testing.assert_allclose(got, [dense_residual(fam, model, lam) for lam in lams],
                                   rtol=0, atol=1e-13)

    def test_each_block_reaches_the_max_norm(self):
        # near a level of one block, H - lambda is near singular there and the
        # defect grows like eps cond(H - lambda): the value must follow the
        # whole-space formula's for a level of either block
        grid = SpatialGrid(1, 32, 12.0)
        fam, model = sech_family(grid, m=1), MarkovModel(np.zeros((1, 1)))
        ham = assemble_h(fam, model)
        for block in reflection_blocks(grid, (fam.V,), fam.m):
            level = np.linalg.eigvalsh(spectral._block_matrix(ham, block, real=True))[0]
            lam = complex(level + 1e-6, 0.0)
            got = resolvent_identity_residual(fam, model, lam)
            want = dense_residual(fam, model, lam)
            assert got > 1e-11 and want / 3 <= got <= 3 * want

    def test_runs_without_the_dense_h(self, monkeypatch):
        fam, model = c9_setting()
        want = resolvent_identity_residual(fam, model, -1.0 - 1.0j)
        spectral._kb_blocks.cache_clear()
        monkeypatch.setattr(spectral.DiscreteHamiltonian, "H",
                            property(lambda self: pytest.fail("H was formed")))
        assert resolvent_identity_residual(fam, model, -1.0 - 1.0j) == want

    def test_lambda_in_free_spectrum_rejected(self):
        fam, model = c9_setting()
        lam = complex(laplacian_symbol(fam.grid)[3], 0.0)  # |k|^2 + i mu with mu = 0
        with pytest.raises(ValueError, match="spectrum of H0"):
            resolvent_identity_residual(fam, model, lam)

    def test_zero_potential_machine_zero(self):
        grid = SpatialGrid(1, 16, 8.0)
        fam = PotentialFamily(grid, np.zeros((2, grid.size)))
        assert resolvent_identity_residual(fam, two_state_model(), -1.0 - 1.0j) <= 1e-13

    def test_random_family(self):
        rng = np.random.default_rng(1)
        grid = SpatialGrid(1, 16, 8.0)
        fam = PotentialFamily(grid, 0.5 * rng.standard_normal((2, grid.size)))
        res = resolvent_identity_residual(fam, two_state_model(), -1.0 - 1.0j)
        assert res <= 1e-8

    def test_embedded_real_lambda_with_dissipation(self):
        grid = SpatialGrid(1, 32, 12.0)
        fam = sech_family(grid, m=2, contrast=0.5)
        res = resolvent_identity_residual(fam, two_state_model(), 10.0 + 0.0j)
        assert res <= 1e-6


class TestCsvWriters:
    @staticmethod
    def write_scan(path, scan):
        lam = scan["lambdas"]
        write_csv(path, ["re_lambda", "im_lambda", "min_singular_value"],
                  zip(lam.real, lam.imag, scan["min_singular_values"]))

    def test_spectrum_and_scan_files(self, tmp_path):
        grid = SpatialGrid(1, 16, 8.0)
        fam = sech_family(grid, m=2, contrast=1.0)
        model = two_state_model()
        report = eigen_analysis(assemble_h(fam, model))
        spath = tmp_path / "spectrum.csv"
        ev = report.eigenvalues
        write_csv(spath, ["re", "im", "localization"],
                  zip(ev.real, ev.imag, report.localization))
        lines = spath.read_text().strip().split("\n")
        assert lines[0] == "re,im,localization"
        assert len(lines) == 1 + 32
        scan = kb_scan(fam, model, default_lambda_grid(n_re=3, n_im=2))
        kpath = tmp_path / "scan.csv"
        self.write_scan(kpath, scan)
        klines = kpath.read_text().strip().split("\n")
        assert klines[0] == "re_lambda,im_lambda,min_singular_value"
        assert len(klines) == 7
        # lambda = 0 lies in spec(H0): its row carries nan
        scan = kb_scan(fam, model, [0.0, -1.0])
        self.write_scan(kpath, scan)
        rows = kpath.read_text().strip().split("\n")[1:]
        assert rows[0] == "0,0,nan" and "nan" not in rows[1]
