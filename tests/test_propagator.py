import numpy as np
import pytest

from stochnls.grid import SpatialGrid, WaveField, lebesgue_norm
from stochnls.markov import MarkovModel, PathSample, sample_path
from stochnls.potential import (
    HartreeKernel,
    PotentialFamily,
    make_amplitude_family,
    shape_field,
)
from stochnls.propagator import (
    SolverConfig,
    dump_snapshot,
    duhamel_residual,
    evolve_path,
    hartree_potential,
    load_snapshot,
    picard_sequence,
    wave_operator_estimate,
    write_scalars_csv,
)
from test_batch import march_interval  # the per-path reference march


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
        np.testing.assert_array_equal(out.snapshots[0].values, psi0.values)

    def test_gaussian_oracle(self):
        grid = SpatialGrid(1, 1024, 80.0)
        a = 1.0
        psi0 = WaveField(grid, free_gaussian(grid, a, 0.0))
        cfg = SolverConfig(dt=1e-3, sample_times=np.array([1.0]))
        out = evolve_path(psi0, zero_family(grid), constant_path(), None, cfg)
        exact = free_gaussian(grid, a, 1.0)
        err = np.max(np.abs(out.snapshots[0].values - exact))
        assert err <= 1e-6

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
            diff = np.max(np.abs(out_c.snapshots[j].values
                                 - gauge * out_0.snapshots[j].values))
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
        for a, b in zip(random_run.snapshots, static_run.snapshots):
            np.testing.assert_allclose(np.abs(a.values), np.abs(b.values),
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
            return out.snapshots[0].values

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
        res = duhamel_residual(out, zero_family(grid), constant_path(), None, cfg, 1.0)
        assert res <= 1e-10

    def test_zero_time_residual(self):
        grid = SpatialGrid(1, 64, 20.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        well = shape_field(grid, "sech2", amplitude=-1.0, width=1.0)
        fam = PotentialFamily(grid, well[None, :])
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.0, 0.5]))
        out = evolve_path(psi0, fam, constant_path(), None, cfg)
        assert duhamel_residual(out, fam, constant_path(), None, cfg, 0.0) <= 1e-14

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
            return duhamel_residual(out, fam, constant_path(), kernel, cfg, T)

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
        x = grid.centered_coordinates()[0]  # chi must be even about index 0
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
        fresh = np.fft.fftn(kernel.chi.reshape(grid.shape))
        if dim == 1:
            assert np.fft.fft(kernel.chi).tobytes() == fresh.tobytes()
        assert spectrum.shape == fresh.shape and spectrum.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            spectrum[0] = 0.0

    def test_imaginary_part_still_checked(self):
        grid = SpatialGrid(1, 64, 16.0)
        kernel = HartreeKernel(grid, shape_field(grid, "gaussian", center=0.0), 0.5)
        kernel.chi = 1j * kernel.chi  # a complex kernel, set past construction
        psi = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        with pytest.raises(ValueError, match="imaginary"):
            hartree_potential(psi, kernel)


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
        first = picard_sequence(psi0, fam, path, kernel, cfg, n_iters=2).trajectories[0]
        ref = evolve_path(psi0, fam, path, None, cfg)
        for t, snap in zip(cfg.sample_times, ref.snapshots):
            diff = WaveField(grid, first.snapshot_at(t).values - snap.values)
            assert lebesgue_norm(diff, 2) <= 1e-12 * lebesgue_norm(snap, 2)

    def test_epsilon_threshold_enforced(self):
        _, psi0, fam, kernel, cfg = self.setup_case(0.2)
        with pytest.raises(ValueError):
            picard_sequence(psi0, fam, constant_path(), kernel, cfg,
                            n_iters=3, epsilon_max=0.1)


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


class TestSourceAdaptedness:
    def test_callback_sees_only_the_past(self):
        grid = SpatialGrid(1, 64, 20.0)
        seen = []

        def source(g, t, prefix):
            seen.append((t, prefix.horizon, prefix.jump_times.size))
            assert prefix.horizon == t
            assert np.all(prefix.jump_times < t)
            x = g.centered_coordinates()[0]
            return 0.01 * np.exp(-(x**2)) * np.exp(1j * t)

        model = MarkovModel(np.array([[2.0, -2.0], [-2.0, 2.0]]),
                            initial_law=np.array([0.5, 0.5]))
        path = sample_path(model, 2.0, seed=3)
        fam = make_amplitude_family(
            np.zeros(grid.size), shape_field(grid, "gaussian", width=1.0),
            [-1.0, 1.0], grid)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([1.0, 2.0]), source=source)
        out = evolve_path(psi0, fam, path, None, cfg)
        assert len(seen) >= 40
        # the source breaks unitarity, so it demonstrably entered the flow
        assert abs(out.scalars["l2"][-1] - out.scalars["l2"][0]) > 1e-6


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

    def test_scalars_csv(self, tmp_path):
        grid = SpatialGrid(1, 64, 20.0)
        psi0 = WaveField(grid, free_gaussian(grid, 1.0, 0.0))
        cfg = SolverConfig(dt=0.1, sample_times=np.array([0.0, 0.5, 1.0]))
        out = evolve_path(psi0, zero_family(grid), constant_path(), None, cfg)
        f = tmp_path / "scalars.csv"
        write_scalars_csv(f, out)
        lines = f.read_text().strip().split("\n")
        assert lines[0] == "t,l2,suml2linf,energy_kinetic,energy_potential,energy_hartree"
        assert len(lines) == 4


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
