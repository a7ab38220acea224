import dataclasses

import numpy as np
import pytest

from stochnls import propagator
from stochnls.grid import (
    SpatialGrid,
    WaveField,
    dense_laplacian,
    free_flow,
    laplacian_symbol,
    lebesgue_norm,
    lebesgue_norm_rows,
)
from stochnls.diagnostics import write_csv
from stochnls.markov import MarkovModel, PathSample, sample_path
from stochnls.potential import (
    HartreeKernel,
    PotentialFamily,
    make_amplitude_family,
    make_translate_family,
    shape_field,
)
from stochnls.propagator import (
    SNAPSHOT_HEADER,
    SolverConfig,
    dump_snapshot,
    duhamel_residual,
    evolve_path,
    evolve_paths,
    hartree_potential,
    load_snapshot,
    picard_sequence,
    wave_operator_estimate,
)
# the per-path march, an engine spy, one path's state at one time and a
# family of two spatially constant states
from test_batch import constant_family, march_interval, record_engines, state_at


def free_gaussian(grid, a, t, center=None):
    """Closed-form free evolution of exp(-a x^2 / 2) data (L2-normalized),
    under the convention i psi_t - Lap psi = 0 (spectral phase e^{+i t k^2}).
    Centered at the box middle by default, where the test wells sit."""
    L = grid.box_length
    if center is None:
        center = L / 2.0
    x = grid.coordinates()[0] - center
    x = ((x + L / 2.0) % L) - L / 2.0
    z = 1.0 - 2.0j * a * t
    return (a / np.pi) ** 0.25 * z ** -0.5 * np.exp(-a * x**2 / (2.0 * z))


def single_state_model():
    return MarkovModel(np.zeros((1, 1)))


def constant_path(T=10.0):
    return sample_path(single_state_model(), T, seed=0)


def zero_family(grid, m=1):
    return PotentialFamily(grid, np.zeros((m, grid.size)))


class TestFreeEvolution:
    def test_initial_time_unchanged(self):
        grid = SpatialGrid(1, 256, 40.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        cfg = SolverConfig(dt=0.1, sample_times=np.array([0.0]))
        out = evolve_path(psi0, zero_family(grid), constant_path(), None, cfg)
        np.testing.assert_array_equal(out.fields[0], psi0.values)

    def test_gaussian_oracle(self, monkeypatch):
        """Both engines: evolve_path takes a zero family to the eigenbasis
        engine at any grid size, and the march, which it no longer reaches
        for one, is called directly."""
        used = record_engines(monkeypatch)
        grid = SpatialGrid(1, 1024, 80.0)
        a = 1.0
        psi0 = WaveField(grid, free_gaussian(grid, a, 0.0))
        cfg = SolverConfig(dt=1e-3, sample_times=np.array([1.0]))
        engine = evolve_path(psi0, zero_family(grid), constant_path(), None, cfg).fields[0]
        ((_, marched),) = propagator._march(grid, psi0.values[None].copy(), [constant_path()],
                                            cfg, zero_family(grid).V)
        assert used == ["_march_eigenbasis", "_march"]
        exact = free_gaussian(grid, a, 1.0)
        for field in (engine, marched[0]):
            assert np.max(np.abs(field - exact)) <= 1e-6

    def test_constant_potential_is_pure_gauge(self):
        # V = c: solution is e^{+ict} times the free one; norms agree to 1e-10
        grid = SpatialGrid(1, 256, 40.0)
        c = 0.7
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        times = np.linspace(0.0, 2.0, 5)
        cfg = SolverConfig(dt=0.01, sample_times=times[1:])
        fam_c = PotentialFamily(grid, np.full((1, grid.size), c))
        out_c = evolve_path(psi0, fam_c, constant_path(), None, cfg)
        out_0 = evolve_path(psi0, zero_family(grid), constant_path(), None, cfg)
        for j, t in enumerate(times[1:]):
            gauge = np.exp(1j * c * t)
            diff = np.max(np.abs(out_c.fields[j] - gauge * out_0.fields[j]))
            assert diff <= 1e-10
            assert abs(out_c.scalars["l2"][j] - out_0.scalars["l2"][j]) <= 1e-10
            assert abs(out_c.scalars["suml2linf"][j]
                       - out_0.scalars["suml2linf"][j]) <= 1e-10


class TestGaugeTriviality:
    def test_additive_state_constant_changes_phase_only(self):
        # V(x, y) = well(x) + f(y): along any jumpy path every norm series
        # must coincide with the f = 0 run over the same path (the
        # randomness is a global phase, so |psi| is path-independent)
        grid = SpatialGrid(1, 128, 30.0)
        well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
        gauge = make_amplitude_family(well, np.ones(grid.size), [-0.7, 0.7], grid)
        static = PotentialFamily(grid, np.vstack([well, well]))  # f = 0
        model = MarkovModel(np.array([[2.0, -2.0], [-2.0, 2.0]]),
                            initial_law=np.array([0.5, 0.5]))
        path = sample_path(model, 2.0, seed=41)
        assert path.jump_times.size > 0
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        times = np.linspace(0.25, 2.0, 8)
        cfg = SolverConfig(dt=0.01, sample_times=times)
        random_run = evolve_path(psi0, gauge, path, None, cfg)
        static_run = evolve_path(psi0, static, path, None, cfg)
        for key in ("l2", "suml2linf"):
            np.testing.assert_allclose(random_run.scalars[key],
                                       static_run.scalars[key], atol=1e-11)
        np.testing.assert_allclose(np.abs(random_run.fields), np.abs(static_run.fields),
                                   atol=1e-11)


class TestUnitarity:
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_norm_drift_over_thousand_steps(self, epsilon):
        grid = SpatialGrid(1, 256, 40.0)
        well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
        fam = make_amplitude_family(well, -0.5 * well, [-1.0, 1.0], grid)
        model = MarkovModel(np.array([[1.0, -1.0], [-1.0, 1.0]]),
                            initial_law=np.array([0.5, 0.5]))
        path = sample_path(model, 2.0, seed=11)
        chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
        kernel = HartreeKernel(grid, chi, epsilon=epsilon)
        cfg = SolverConfig(dt=1e-3, sample_times=np.linspace(0.2, 1.0, 5),
                           epsilon=epsilon)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        out = evolve_path(psi0, fam, path, kernel, cfg)
        n0 = lebesgue_norm(psi0, 2)
        assert np.max(np.abs(out.scalars["l2"] - n0)) <= 1e-10 * n0

    def test_strang_reversibility(self):
        grid = SpatialGrid(1, 128, 30.0)
        W = shape_field(grid, "sech2", amplitude=-1.5, width=1.2).reshape(grid.shape)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        # the potential switches between substep midpoints, like a jump
        def kick(tau, t, v):
            return v * np.exp(1j * tau * (W if t < 0.09 else -0.5 * W))
        # unequal substeps, so every fused half-step hop has its own length
        edges = np.array([0.0, 0.05, 0.08, 0.1, 0.13, 0.2])
        fwd = march_interval(grid, 2, vals, edges, kick)
        back = march_interval(grid, 2, fwd, edges[::-1], kick)
        assert np.max(np.abs(fwd - vals)) > 1e-3 * np.max(np.abs(vals))
        assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))


class TestConvergenceOrder:
    def test_strang_global_order_two(self):
        grid = SpatialGrid(1, 128, 30.0)
        well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
        fam = PotentialFamily(grid, well[None, :])
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        T = 0.5
        dts = [0.05, 0.025, 0.0125]

        def run(dt):
            cfg = SolverConfig(dt=dt, sample_times=np.array([T]))
            out = evolve_path(psi0, fam, constant_path(), None, cfg)
            return out.fields[0]

        ref = run(dts[-1] / 4.0)
        errs = [np.sqrt(grid.cell_volume) * np.linalg.norm(run(dt) - ref)
                for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3


class TestDuhamelResidual:
    def test_free_flow_residual_tiny(self):
        grid = SpatialGrid(1, 128, 30.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        times = np.linspace(0.0, 1.0, 11)
        cfg = SolverConfig(dt=0.1, sample_times=times)
        out = evolve_path(psi0, zero_family(grid), constant_path(), None, cfg)
        res = duhamel_residual(out, zero_family(grid), None, cfg, 1.0)
        assert res <= 1e-10

    def test_zero_time_residual(self):
        grid = SpatialGrid(1, 64, 20.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        well = shape_field(grid, "sech2", amplitude=-1.0, width=1.0)
        fam = PotentialFamily(grid, well[None, :])
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.0, 0.5]))
        out = evolve_path(psi0, fam, constant_path(), None, cfg)
        assert duhamel_residual(out, fam, None, cfg, 0.0) <= 1e-14

    def test_second_order_shrink_on_smooth_run(self):
        grid = SpatialGrid(1, 64, 20.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        well = shape_field(grid, "sech2", amplitude=-1.5, width=1.0)
        fam = PotentialFamily(grid, well[None, :])
        chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
        T = 0.5

        def residual(dt):
            kernel = HartreeKernel(grid, chi, epsilon=0.3)
            times = dt * np.arange(int(round(T / dt)) + 1)
            cfg = SolverConfig(dt=dt, sample_times=times, epsilon=0.3)
            out = evolve_path(psi0, fam, constant_path(), kernel, cfg)
            return duhamel_residual(out, fam, kernel, cfg, T)

        r1, r2 = residual(0.02), residual(0.01)
        assert 3.5 <= r1 / r2 <= 4.5


class TestHartreePotential:
    def test_delta_kernel_gives_density(self):
        grid = SpatialGrid(1, 64, 16.0)
        chi = np.zeros(grid.size)
        chi[0] = 1.0 / grid.cell_volume  # grid delta at the origin
        kernel = HartreeKernel(grid, chi, epsilon=0.8)
        psi = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        hart = hartree_potential(psi, kernel)
        np.testing.assert_allclose(hart, 0.8 * np.abs(psi.values) ** 2, atol=1e-10)

    def test_gaussian_convolution_closed_form(self):
        grid = SpatialGrid(1, 256, 40.0)
        s1, s2 = 1.2, 0.8
        x = grid.offsets(0.0)[0]  # chi must be even about index 0
        chi = np.exp(-(x**2) / (2 * s1**2))
        kernel = HartreeKernel(grid, chi, epsilon=1.0)
        psi = WaveField(grid, np.exp(-(x**2) / (4 * s2**2)))  # |psi|^2 gaussian
        hart = hartree_potential(psi, kernel)
        s = np.sqrt(s1**2 + s2**2)
        expected = np.sqrt(2 * np.pi) * s1 * s2 / s * np.exp(-(x**2) / (2 * s**2))
        assert np.max(np.abs(hart - expected)) <= 1e-10

    def test_zero_coupling(self):
        grid = SpatialGrid(1, 64, 16.0)
        chi = shape_field(grid, "gaussian", center=0.0)
        kernel = HartreeKernel(grid, chi, epsilon=0.0)
        psi = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        assert np.count_nonzero(hartree_potential(psi, kernel)) == 0

    def test_kernel_chi_is_a_read_only_copy(self):
        grid = SpatialGrid(1, 64, 16.0)
        chi = shape_field(grid, "gaussian", center=0.0)
        kernel = HartreeKernel(grid, chi, epsilon=0.5)
        chi[1] += 1.0  # the caller's array stays the caller's
        assert kernel.chi[1] != chi[1]
        with pytest.raises(ValueError):
            kernel.chi[1] = 5.0  # would break the evenness checked at construction
        with pytest.raises(ValueError, match="even"):
            HartreeKernel(grid, chi, epsilon=0.5)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_chi_spectrum_is_kept_read_only_and_bitwise_fresh(self, dim, n):
        grid = SpatialGrid(dim, n, 16.0)
        kernel = HartreeKernel(grid, shape_field(grid, "gaussian", center=0.0), 0.5)
        spectrum = kernel.chi_spectrum
        assert kernel.chi_spectrum is spectrum
        fresh = np.fft.rfftn(kernel.chi.reshape(grid.shape))
        if dim == 1:
            assert np.fft.rfft(kernel.chi).tobytes() == fresh.tobytes()
        assert spectrum.shape == (*grid.shape[:-1], n // 2 + 1)
        assert spectrum.dtype == np.complex128 and spectrum.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            spectrum[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.chi = shape_field(grid, "gaussian", width=2.0, center=0.0)
        wider = HartreeKernel(grid, shape_field(grid, "gaussian", width=2.0, center=0.0), 0.5)
        fresh = np.fft.rfftn(wider.chi.reshape(grid.shape))
        assert wider.chi_spectrum.tobytes() == fresh.tobytes() != spectrum.tobytes()

    def test_imaginary_part_still_checked(self):
        grid = SpatialGrid(1, 64, 16.0)
        chi = shape_field(grid, "gaussian", center=0.0)
        kernel = HartreeKernel(grid, chi, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.chi = 1j * kernel.chi  # nothing is set past construction
        with pytest.raises(ValueError, match="imaginary"):
            HartreeKernel(grid, 1j * chi, 0.5)
        with pytest.raises(ValueError, match="imaginary"):
            HartreeKernel(grid, chi + 0j, 0.5)  # even a zero imaginary part
        odd = np.sin(2 * np.pi * grid.offsets(0.0)[0] / grid.box_length)
        bad = chi.copy()
        bad[0] = np.nan
        for value, message in ((odd, "even"), (bad, "finite"), (chi[:-1], "length")):
            with pytest.raises(ValueError, match=message):
                HartreeKernel(grid, value, 0.5)
        assert kernel.chi.tobytes() == chi.tobytes()


class TestPicard:
    def setup_case(self, epsilon, n=128):
        grid = SpatialGrid(1, n, 30.0)
        well = shape_field(grid, "sech2", amplitude=-1.0, width=1.0)
        fam = PotentialFamily(grid, well[None, :])
        chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
        kernel = HartreeKernel(grid, chi, epsilon=epsilon)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        cfg = SolverConfig(dt=0.02, sample_times=np.linspace(0.1, 1.0, 10),
                           epsilon=epsilon)
        return grid, psi0, fam, kernel, cfg

    def test_linear_problem_converges_immediately(self):
        _, psi0, fam, kernel, cfg = self.setup_case(0.0)
        result = picard_sequence(psi0, fam, constant_path(), kernel, cfg, n_iters=4)
        assert result.deltas[0] > 0
        assert np.all(result.deltas[1:] == 0.0)
        assert not result.diverged

    def test_contraction_ratios(self):
        _, psi0, fam, kernel, cfg = self.setup_case(0.2)
        result = picard_sequence(psi0, fam, constant_path(), kernel, cfg, n_iters=5)
        ratios = result.deltas[2:] / result.deltas[1:-1]
        assert np.all(ratios < 1.0)
        assert not result.diverged

    def test_first_ratio_scales_with_epsilon(self):
        _, psi0, fam, kernel, cfg1 = self.setup_case(0.1)
        r1 = picard_sequence(psi0, fam, constant_path(), kernel, cfg1, n_iters=3)
        _, _, _, kernel2, cfg2 = self.setup_case(0.2)
        r2 = picard_sequence(psi0, fam, constant_path(), kernel2, cfg2, n_iters=3)
        ratio1 = r1.deltas[1] / r1.deltas[0]
        ratio2 = r2.deltas[1] / r2.deltas[0]
        assert 1.5 <= ratio2 / ratio1 <= 2.5

    def test_first_iterate_at_zero_coupling_is_evolve_path(self):
        # iterate 1 freezes no Hartree field, so it is the linear path solve
        grid, psi0, _, kernel, cfg = self.setup_case(0.0)
        well = shape_field(grid, "sech2", amplitude=-1.0, width=1.0)
        fam = make_amplitude_family(well, well, [-1.0, 1.0], grid)
        model = MarkovModel(np.array([[2.0, -2.0], [-2.0, 2.0]]),
                            initial_law=np.array([0.5, 0.5]))
        path = sample_path(model, 1.0, seed=3)
        assert path.jump_times.size > 0
        first = picard_sequence(psi0, fam, path, kernel, cfg, n_iters=2).fields[0]
        ref = evolve_path(psi0, fam, path, None, cfg)
        assert first.shape == ref.fields.shape
        assert np.all(lebesgue_norm_rows(grid, first - ref.fields, 2)
                      <= 1e-12 * lebesgue_norm_rows(grid, ref.fields, 2))

    def test_epsilon_threshold_enforced(self):
        _, psi0, fam, kernel, cfg = self.setup_case(1.5)
        with pytest.raises(ValueError, match="smallness threshold"):
            picard_sequence(psi0, fam, constant_path(), kernel, cfg, n_iters=3)


class TestWaveOperator:
    def test_free_flow_increments_vanish(self):
        grid = SpatialGrid(1, 256, 60.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        times = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
        cfg = SolverConfig(dt=0.05, sample_times=times)
        out = evolve_path(psi0, zero_family(grid), constant_path(), None, cfg)
        incs = wave_operator_estimate(out, times)
        assert np.max(incs) <= 1e-10

    def test_bound_state_blocks_scattering(self):
        # autonomous well holding its own bound state: increments stay large
        grid = SpatialGrid(1, 256, 60.0)
        well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
        fam = PotentialFamily(grid, well[None, :])
        from stochnls.grid import dense_laplacian

        H = dense_laplacian(grid) + np.diag(well)
        eigvals, eigvecs = np.linalg.eigh(H)
        ground = eigvecs[:, 0] / np.sqrt(grid.cell_volume)
        assert eigvals[0] < -0.5  # genuine bound state
        psi0 = WaveField(grid, ground.astype(complex))
        times = np.array([0.0, 2.0, 4.0, 6.0, 8.0])
        cfg = SolverConfig(dt=0.02, sample_times=times)
        out = evolve_path(psi0, fam, constant_path(), None, cfg)
        incs = wave_operator_estimate(out, times)
        assert incs[-1] > 0.1  # no Cauchy decay for a stationary state


def switching_family(grid):
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    mod = shape_field(grid, "sech2", amplitude=1.0, width=1.0)
    return make_amplitude_family(well, mod, [-1.0, 1.0], grid)


def translate_family(grid):
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    return make_translate_family(well, grid, [0, grid.points_per_axis // 8])


def sampled_paths(T, count, rate=1.0, seed=11):
    model = MarkovModel(rate * np.array([[1.0, -1.0], [-1.0, 1.0]]),
                        initial_law=np.array([0.5, 0.5]))
    return [sample_path(model, T, seed=(seed, i)) for i in range(count)]


def gaussian_rows(grid, count):
    x = grid.offsets(0.0)[0]
    return np.array([np.pi ** -0.25 * np.exp(-(x - 0.2 * b) ** 2 / 2.0)
                     for b in range(count)], dtype=complex)


class TestEigenbasisEngine:
    def test_basis_diagonalises_the_discrete_step(self):
        grid, dt = SpatialGrid(1, 32, 12.0), 0.02
        for v in switching_family(grid).V:
            O, theta = propagator._step_basis(grid, dt, v.tobytes())
            # the Strang step S applied to the identity's columns
            half = free_flow(grid, np.eye(grid.size, dtype=complex), 0.5 * dt)
            S = free_flow(grid, half * np.exp(1j * dt * v), 0.5 * dt).T
            assert np.max(np.abs(O.T @ O - np.eye(grid.size))) <= 1e-13
            assert np.max(np.abs((O * np.exp(1j * theta)) @ O.T - S)) <= 1e-13
            # the phases lie in the arc [dt min v, dt (max |k|^2 + max v)]
            lo = dt * v.min()
            arc = np.mod(theta - lo + 1e-12, 2 * np.pi) - 1e-12
            assert np.all(arc >= -1e-12)
            assert np.all(arc <= dt * (laplacian_symbol(grid).max() + np.ptp(v)) + 1e-12)

    def march_rows(self, fam, psi0, paths, cfg):
        return np.array([v.copy() for _, v in propagator._march(
            fam.grid, psi0.copy(), paths, cfg, fam.V)]).transpose(1, 0, 2)

    @pytest.mark.parametrize("n,L,times,count", [
        (64, 20.0, np.arange(0.0, 2.001, 0.25), 100),  # the mc-ensemble shape
        (256, 120.0, np.array([20.0]), 30),             # the long-paths shape
    ])
    def test_rows_agree_with_the_march(self, monkeypatch, n, L, times, count):
        """The same scheme to roundoff: each row within 1e-10 ||psi0|| of
        the march's, in L2 at every sample time."""
        used = record_engines(monkeypatch)
        grid = SpatialGrid(1, n, L)
        fam = switching_family(grid)
        paths = sampled_paths(times[-1], count)
        assert sum(p.jump_times.size for p in paths) >= count
        psi0 = gaussian_rows(grid, count)
        cfg = SolverConfig(dt=0.01, sample_times=times)
        fields, _, _ = evolve_paths(psi0, fam, paths, None, cfg)
        assert used == ["_march_eigenbasis"]
        marched = self.march_rows(fam, psi0, paths, cfg)
        n0 = lebesgue_norm_rows(grid, psi0, 2)
        for j in range(times.size):
            gap = lebesgue_norm_rows(grid, fields[:, j] - marched[:, j], 2)
            assert np.all(gap <= 1e-10 * n0)

    def test_dispatch(self, monkeypatch):
        used = record_engines(monkeypatch)
        times = np.array([0.1, 0.2])
        grid = SpatialGrid(1, 64, 20.0)
        chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
        cases = {
            "linear Strang": (grid, None, SolverConfig(dt=0.01, sample_times=times)),
            "zero coupling": (grid, HartreeKernel(grid, chi, epsilon=0.05),
                              SolverConfig(dt=0.01, sample_times=times)),
            "Hartree": (grid, HartreeKernel(grid, chi, epsilon=0.05),
                        SolverConfig(dt=0.01, sample_times=times, epsilon=0.05)),
            "Lie": (grid, None, SolverConfig(dt=0.01, sample_times=times, order=1)),
            "wide arc": (grid, None, SolverConfig(dt=0.05, sample_times=times)),
            "over the size cap": (SpatialGrid(1, 2 * propagator._EIGEN_N_CAP, 400.0), None,
                                  SolverConfig(dt=0.01, sample_times=times)),
            "two axes": (SpatialGrid(2, 16, 12.0), None,
                         SolverConfig(dt=0.01, sample_times=times)),
            # constant rows have the DFT as their basis: no size cap, no arc limit
            "constant, over the size cap, wide arc": (
                SpatialGrid(1, 2 * propagator._EIGEN_N_CAP, 400.0), None,
                SolverConfig(dt=0.05, sample_times=times)),
            "constant, Lie": (SpatialGrid(1, 2 * propagator._EIGEN_N_CAP, 400.0), None,
                              SolverConfig(dt=0.05, sample_times=times, order=1)),
            "constant, two axes": (SpatialGrid(2, 16, 12.0), None,
                                   SolverConfig(dt=0.01, sample_times=times)),
        }
        engines = {}
        for label, (g, kernel, cfg) in cases.items():
            used.clear()
            fam = (constant_family if label.startswith("constant") else switching_family)(g)
            evolve_paths(gaussian_rows(g, 2), fam, sampled_paths(0.2, 2, rate=5.0), kernel, cfg)
            engines[label] = used[0]
            if label == "over the size cap":  # the arc alone would admit it
                assert propagator._step_arc(g, fam.V, cfg.dt) < propagator._ARC_LIMIT
            if label == "constant, over the size cap, wide arc":  # neither would admit it
                assert propagator._step_arc(g, fam.V, cfg.dt) > propagator._ARC_LIMIT
        engine_cases = ("linear Strang", "zero coupling", "constant, over the size cap, wide arc")
        assert engines == {label: "_march_eigenbasis" if label in engine_cases else "_march"
                           for label in cases}

    @pytest.mark.parametrize("engine", ["_march_eigenbasis", "_march"])
    def test_constant_levels_are_a_path_phase(self, monkeypatch, engine):
        """V_y = c_y along paths with jumps: psi(t) = exp(i int_0^t c_y(s) ds)
        U(t) psi0, on a grid over the size cap at a step arc over the limit."""
        used = record_engines(monkeypatch)
        grid = SpatialGrid(1, 2 * propagator._EIGEN_N_CAP, 80.0)
        fam = constant_family(grid)
        times = np.array([0.25, 0.5, 1.0])
        paths = sampled_paths(1.0, 4, rate=4.0)
        assert all(p.jump_times.size for p in paths)
        psi0 = gaussian_rows(grid, len(paths))
        cfg = SolverConfig(dt=0.01, sample_times=times)
        assert propagator._step_arc(grid, fam.V, cfg.dt) > propagator._ARC_LIMIT
        if engine == "_march":
            fields = self.march_rows(fam, psi0, paths, cfg)
        else:
            fields, _, _ = evolve_paths(psi0, fam, paths, None, cfg)
        assert used == [engine]
        levels = fam.V[:, 0]
        for b, path in enumerate(paths):
            for j, t in enumerate(times):
                cuts = np.concatenate(([0.0], path.jump_times[path.jump_times < t], [t]))
                held = levels[[state_at(path, 0.5 * (s + e)) for s, e in zip(cuts[:-1], cuts[1:])]]
                exact = np.exp(1j * np.sum(held * np.diff(cuts))) * free_flow(grid, psi0[b], t)
                assert np.max(np.abs(fields[b, j] - exact)) <= 1e-12

    def test_mixed_family_builds_one_dense_basis(self, monkeypatch):
        """A constant row takes the DFT basis inside a family that also has a
        well row: one _step_basis for the well, and the march's rows to
        roundoff."""
        used = record_engines(monkeypatch)
        built = []
        step_basis = propagator._step_basis

        def spy(grid, dt, v_bytes):
            built.append(v_bytes)
            return step_basis(grid, dt, v_bytes)
        monkeypatch.setattr(propagator, "_step_basis", spy)
        grid = SpatialGrid(1, 64, 20.0)
        well = switching_family(grid).V[0]
        fam = PotentialFamily(grid, np.vstack([np.full(grid.size, 0.4), well]))
        paths = sampled_paths(1.0, 6, rate=3.0)
        assert {int(y) for p in paths for y in p.states} == {0, 1}
        psi0 = gaussian_rows(grid, len(paths))
        cfg = SolverConfig(dt=0.01, sample_times=np.array([0.5, 1.0]))
        fields, _, _ = evolve_paths(psi0, fam, paths, None, cfg)
        assert used == ["_march_eigenbasis"]
        assert built == [well.tobytes()]
        marched = self.march_rows(fam, psi0, paths, cfg)
        n0 = lebesgue_norm_rows(grid, psi0, 2)
        for j in range(cfg.sample_times.size):
            assert np.all(lebesgue_norm_rows(grid, fields[:, j] - marched[:, j], 2) <= 1e-10 * n0)

    @pytest.mark.parametrize("engine", ["_march_eigenbasis", "_march"])
    def test_lost_finiteness_names_the_first_marched_time(self, monkeypatch, engine):
        """A non-finite row is an error at the first sample time past t = 0."""
        used = record_engines(monkeypatch)
        if engine == "_march":
            monkeypatch.setattr(propagator, "_EIGEN_N_CAP", 0)
        grid = SpatialGrid(1, 64, 20.0)
        psi0 = gaussian_rows(grid, 3)
        psi0[1, 5] = np.nan
        cfg = SolverConfig(dt=0.01, sample_times=np.array([0.0, 0.1, 0.2]))
        with pytest.raises(RuntimeError, match=r"finiteness at t=0\.1$"):
            evolve_paths(psi0, switching_family(grid), sampled_paths(0.2, 3, rate=5.0), None, cfg)
        assert used == [engine]


class TestExactPropagator:
    """Both engines against the exact flow along sampled paths with jumps:
    between jumps psi evolves by exp(i tau H_y), H_y = -Lap_h + V_y with
    Lap_h the spectral Laplacian of grid.dense_laplacian, so each segment
    is one product with Q_y exp(i tau lambda_y) Q_y^T."""

    grid = SpatialGrid(1, 64, 20.0)
    times = np.array([0.2, 0.4, 0.6, 0.8, 1.0])

    def exact_rows(self, fam, paths, psi0):
        eigen = [np.linalg.eigh(dense_laplacian(self.grid).real + np.diag(v)) for v in fam.V]
        out = []
        for path, psi in zip(paths, psi0):
            rows, t = [], 0.0
            for target in self.times:
                inside = path.jump_times[(path.jump_times > t) & (path.jump_times < target)]
                cuts = np.concatenate(([t], inside, [target]))
                for s, e in zip(cuts[:-1], cuts[1:]):
                    lam, Q = eigen[state_at(path, 0.5 * (s + e))]
                    psi = Q @ (np.exp(1j * (e - s) * lam) * (Q.T @ psi))
                rows.append(psi)
                t = target
            out.append(rows)
        return np.array(out)

    def errors(self, fam, order, dts):
        paths = sampled_paths(1.0, 6, rate=2.0, seed=5)
        assert sum(p.jump_times.size for p in paths) >= 6
        psi0 = gaussian_rows(self.grid, len(paths))
        exact = self.exact_rows(fam, paths, psi0)
        errs = []
        for dt in dts:
            cfg = SolverConfig(dt=dt, sample_times=self.times, order=order)
            fields, _, _ = evolve_paths(psi0, fam, paths, None, cfg)
            errs.append(lebesgue_norm_rows(self.grid, (fields - exact).reshape(-1, self.grid.size),
                                           2).max())
        return np.array(errs)

    @pytest.mark.parametrize("make_family", [switching_family, translate_family])
    @pytest.mark.parametrize("engine", ["_march_eigenbasis", "_march"])
    def test_strang_converges_at_order_two(self, monkeypatch, make_family, engine):
        used = record_engines(monkeypatch)
        if engine == "_march":
            monkeypatch.setattr(propagator, "_EIGEN_N_CAP", 0)
        errs = self.errors(make_family(self.grid), 2, [0.02, 0.01, 0.005])
        assert set(used) == {engine}
        assert errs[-1] > 1e-10  # the splitting error, not roundoff
        assert np.all((3.7 <= errs[:-1] / errs[1:]) & (errs[:-1] / errs[1:] <= 4.3))

    @pytest.mark.parametrize("make_family", [switching_family, translate_family])
    def test_lie_converges_at_order_one(self, monkeypatch, make_family):
        used = record_engines(monkeypatch)
        errs = self.errors(make_family(self.grid), 1, [0.01, 0.005, 0.0025])
        assert set(used) == {"_march"}
        assert np.all((1.85 <= errs[:-1] / errs[1:]) & (errs[:-1] / errs[1:] <= 2.15))


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        grid = SpatialGrid(1, 64, 12.0)
        psi = WaveField(grid, free_gaussian(grid, 2.0, 0.3))
        f = tmp_path / "snap.bin"
        dump_snapshot(f, psi, time=0.3)
        loaded, t = load_snapshot(f)
        assert t == 0.3
        assert loaded.grid == grid
        np.testing.assert_array_equal(loaded.values, psi.values)
        assert f.stat().st_size == 32 + 16 * grid.size

    def test_header_is_32_bytes(self, tmp_path):
        assert SNAPSHOT_HEADER.size == 32
        grid = SpatialGrid(2, 8, 6.0)
        f = tmp_path / "snap.bin"
        dump_snapshot(f, WaveField(grid, np.ones(grid.size)), time=1.5, precision=64)
        assert f.stat().st_size == 32 + 8 * grid.size
        loaded, t = load_snapshot(f)
        assert (loaded.grid, t) == (grid, 1.5)

    def test_bad_precision_rejected(self, tmp_path):
        grid = SpatialGrid(1, 16, 4.0)
        psi = WaveField(grid, np.ones(grid.size))
        f = tmp_path / "snap.bin"
        with pytest.raises(ValueError, match="precision"):
            dump_snapshot(f, psi, time=0.0, precision=32)
        dump_snapshot(f, psi, time=0.0)
        raw = bytearray(f.read_bytes())
        raw[12:16] = (96).to_bytes(4, "little")  # the precision field
        f.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="precision 96"):
            load_snapshot(f)

    def test_truncated_file_rejected(self, tmp_path):
        grid = SpatialGrid(1, 16, 4.0)
        f = tmp_path / "snap.bin"
        dump_snapshot(f, WaveField(grid, np.ones(grid.size)), time=0.0)
        raw = f.read_bytes()
        for cut in (raw[:-16], raw[:-1], raw + b"\0" * 16):
            f.write_bytes(cut)
            with pytest.raises(ValueError, match="payload"):
                load_snapshot(f)
        f.write_bytes(raw[:20])
        with pytest.raises(ValueError, match="header"):
            load_snapshot(f)

    def test_scalars_csv(self, tmp_path):
        grid = SpatialGrid(1, 64, 20.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        cfg = SolverConfig(dt=0.1, sample_times=np.array([0.0, 0.5, 1.0]))
        out = evolve_path(psi0, zero_family(grid), constant_path(), None, cfg)
        f = tmp_path / "scalars.csv"
        write_csv(f, ["t", *out.scalars], zip(out.sample_times, *out.scalars.values()))
        lines = f.read_text().strip().split("\n")
        assert lines[0] == "t,l2,suml2linf,energy_kinetic,energy_potential,energy_hartree"
        assert len(lines) == 4
        # every value reads back bitwise
        back = np.loadtxt(f, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], out.sample_times)
        assert np.array_equal(back[:, 1], out.scalars["l2"])


class TestConfigValidation:
    def test_dt_must_divide_gaps(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.3, sample_times=np.array([1.0]))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, sample_times=np.array([1.0]), order=4)

    def test_horizon_check(self):
        grid = SpatialGrid(1, 64, 20.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        cfg = SolverConfig(dt=0.5, sample_times=np.array([5.0]))
        with pytest.raises(ValueError):
            evolve_path(psi0, zero_family(grid), constant_path(T=2.0), None, cfg)

    def test_family_grid_must_match_field_grid(self):
        # same number of points, different box: the wavenumbers differ
        grid = SpatialGrid(1, 64, 20.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        cfg = SolverConfig(dt=0.5, sample_times=np.array([1.0]))
        other = zero_family(SpatialGrid(1, 64, 40.0))
        with pytest.raises(ValueError, match="different grid"):
            evolve_path(psi0, other, constant_path(T=2.0), None, cfg)
        kernel = HartreeKernel(grid, shape_field(grid, "gaussian", center=0.0), epsilon=0.05)
        with pytest.raises(ValueError, match="different grid"):
            picard_sequence(psi0, other, constant_path(T=2.0), kernel, cfg, n_iters=2)

    def test_picard_horizon_check(self):
        grid = SpatialGrid(1, 64, 20.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        chi = shape_field(grid, "gaussian", center=0.0)
        kernel = HartreeKernel(grid, chi, epsilon=0.05)
        cfg = SolverConfig(dt=0.1, sample_times=np.array([1.0]), epsilon=0.05)
        with pytest.raises(ValueError, match="horizon"):
            picard_sequence(psi0, zero_family(grid), constant_path(T=0.3), kernel, cfg,
                            n_iters=2)
