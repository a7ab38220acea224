import numpy as np
import pytest

from stochnls.averaged import AveragedDensityMatrix, AveragedField, density, \
    solve_liouville_averaged, solve_scalar_averaged, trace
from stochnls.ensemble import (
    EnsembleConfig,
    estimate_f,
    estimate_g,
    feynman_kac_lhs,
    run_ensemble,
    weighted_energy_average,
    write_summary_json,
)
from stochnls.grid import SpatialGrid, WaveField, laplacian_symbol
from stochnls.markov import MarkovModel, sample_path
from stochnls.potential import PotentialFamily, make_amplitude_family, shape_field
from stochnls.propagator import SolverConfig, evolve_path


def gaussian(grid, a=1.0):
    L = grid.box_length
    x = ((grid.coordinates()[0] - L / 2 + L / 2) % L) - L / 2
    return (a / np.pi) ** 0.25 * np.exp(-a * x**2 / 2.0).astype(complex)


def two_state_model(rate=1.0, law=None):
    A = rate * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return MarkovModel(A, initial_law=np.array([0.5, 0.5]) if law is None else law)


def switching_family(grid, contrast=0.5):
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    return make_amplitude_family(well, well, [-contrast, contrast], grid)


class TestRunEnsemble:
    def test_single_state_reduces_to_one_trajectory(self):
        grid = SpatialGrid(1, 64, 20.0)
        fam = PotentialFamily(grid, shape_field(grid, "sech2", amplitude=-1.0)[None, :])
        model = MarkovModel(np.zeros((1, 1)))
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.0, 0.5, 1.0]))
        ecfg = EnsembleConfig(N=7, master_seed=1, horizon=1.0)
        avg, _ = run_ensemble(psi0, fam, model, None, cfg, ecfg)
        path = sample_path(model, 1.0, seed=(1, 0))
        ref = evolve_path(psi0, fam, path, None, cfg)
        for ti in range(3):
            np.testing.assert_allclose(avg.conditional_mean(ti)[0],
                                       ref.fields[ti], atol=1e-14)
            assert avg.counts[ti, 0] == 7

    def test_single_path_occupies_one_bin(self):
        grid = SpatialGrid(1, 32, 10.0)
        fam = switching_family(grid)
        model = two_state_model(2.0)
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.0, 1.0]))
        ecfg = EnsembleConfig(N=1, master_seed=3, horizon=1.0)
        avg, _ = run_ensemble(psi0, fam, model, None, cfg, ecfg)
        for ti in range(2):
            assert avg.counts[ti].sum() == 1
            occupied = int(np.flatnonzero(avg.counts[ti])[0])
            empty = 1 - occupied
            assert (ti, empty) in avg.missing_bins()
            assert np.all(np.isnan(avg.conditional_mean(ti)[empty]))

    def test_counts_sum_to_N(self):
        grid = SpatialGrid(1, 32, 10.0)
        fam = switching_family(grid)
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.linspace(0.0, 1.0, 5))
        ecfg = EnsembleConfig(N=40, master_seed=5, horizon=1.0)
        avg, _ = run_ensemble(psi0, fam, model, None, cfg, ecfg)
        np.testing.assert_array_equal(avg.counts.sum(axis=1), 40)

    def test_determinism_bit_identical(self):
        grid = SpatialGrid(1, 32, 10.0)
        fam = switching_family(grid)
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.5, 1.0]))
        ecfg = EnsembleConfig(N=25, master_seed=9, horizon=1.0)
        avg1, s1 = run_ensemble(psi0, fam, model, None, cfg, ecfg)
        avg2, s2 = run_ensemble(psi0, fam, model, None, cfg, ecfg)
        assert np.array_equal(avg1.sums, avg2.sums)
        assert np.array_equal(avg1.counts, avg2.counts)
        assert np.array_equal(s1.weighted_mass, s2.weighted_mass)

    def test_free_case_conditional_means_match_free_flow(self):
        # V = 0 decouples psi from the chain: every bin mean is the free flow
        grid = SpatialGrid(1, 64, 20.0)
        fam = PotentialFamily(grid, np.zeros((2, grid.size)))
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        t = 1.0
        cfg = SolverConfig(dt=0.05, sample_times=np.array([t]))
        ecfg = EnsembleConfig(N=50, master_seed=4, horizon=t)
        avg, _ = run_ensemble(psi0, fam, model, None, cfg, ecfg)
        free = np.fft.ifft(np.exp(1j * t * laplacian_symbol(grid))
                           * np.fft.fft(psi0.values))
        for y in range(2):
            np.testing.assert_allclose(avg.conditional_mean(0)[y], free, atol=1e-10)


class TestEstimates:
    def small_run(self, N=80, store=False):
        grid = SpatialGrid(1, 32, 12.0)
        fam = switching_family(grid)
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.5, 1.0]))
        ecfg = EnsembleConfig(N=N, master_seed=11, horizon=1.0,
                              store_density_matrix=store)
        return grid, run_ensemble(psi0, fam, model, None, cfg, ecfg)

    def test_m1_joint_equals_conditional(self):
        grid = SpatialGrid(1, 32, 12.0)
        fam = PotentialFamily(grid, np.zeros((1, grid.size)))
        model = MarkovModel(np.zeros((1, 1)))
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([1.0]))
        avg, _ = run_ensemble(psi0, fam, model, None, cfg,
                              EnsembleConfig(N=5, master_seed=0, horizon=1.0))
        joint = estimate_g(avg, "joint")
        cond = estimate_g(avg, "conditional")
        np.testing.assert_allclose(joint.fields[0].g, cond.fields[0].g, atol=1e-15)

    def test_clt_scaling_of_stderr(self):
        grid = SpatialGrid(1, 32, 12.0)
        fam = switching_family(grid)
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([1.0]))
        ses = []
        for N in (100, 400):
            avg, _ = run_ensemble(psi0, fam, model, None, cfg,
                                  EnsembleConfig(N=N, master_seed=21, horizon=1.0))
            est = estimate_g(avg, "joint")
            ses.append(np.linalg.norm(est.stderr[0]))
        ratio = ses[1] / ses[0]
        assert abs(ratio - 0.5) <= 0.1  # within 20% of the CLT halving

    def test_estimate_f_diagonal_nonnegative(self):
        _, (avg, _) = self.small_run(N=40, store=True)
        est = estimate_f(avg, "joint")
        for ti, snap in enumerate(est.matrices):
            rho = density(snap)
            assert np.min(rho) >= -np.max(est.stderr[ti])

    @pytest.mark.parametrize("weighting", ["joint", "conditional"])
    def test_estimate_f_matrices_hermitian_bit_for_bit(self, weighting):
        """estimate_f builds its matrices without the constructor's check, so
        they must equal the validating constructor's and be exactly Hermitian."""
        _, (avg, _) = self.small_run(N=40, store=True)
        assert not avg.missing_bins()
        est = estimate_f(avg, weighting)
        for ti, snap in enumerate(est.matrices):
            denom = (avg.N if weighting == "joint"
                     else np.maximum(avg.counts[ti], 1).astype(float)[:, None, None])
            f = avg.outer_sums[ti] / denom
            checked = AveragedDensityMatrix(avg.grid, 0.5 * (f + f.conj().transpose(0, 2, 1)),
                                            t=float(avg.sample_times[ti]))
            assert snap.f.dtype == checked.f.dtype and snap.f.shape == checked.f.shape
            assert snap.f.tobytes() == checked.f.tobytes()
            assert snap.t == checked.t and snap.grid is checked.grid
            assert snap.hermiticity_residual() == 0.0

    def test_estimate_f_requires_outer_sums(self):
        _, (avg, _) = self.small_run(N=10, store=False)
        with pytest.raises(ValueError):
            estimate_f(avg)

    def test_insufficient_bin_flagging(self):
        _, (avg, _) = self.small_run(N=12)
        est = estimate_g(avg, "joint")
        assert isinstance(est.flags, list)  # counts of 12 split two ways -> flags

    def test_conditional_with_empty_bin_raises(self):
        grid = SpatialGrid(1, 32, 12.0)
        fam = switching_family(grid)
        # Dirac start, tiny horizon: the other bin stays empty at t=0
        model = two_state_model(law=None)
        model = MarkovModel(model.A, initial_law=0)
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.01, sample_times=np.array([0.0]))
        avg, _ = run_ensemble(psi0, fam, model, None, cfg,
                              EnsembleConfig(N=5, master_seed=1, horizon=0.1))
        with pytest.raises(ValueError):
            estimate_g(avg, "conditional")
        est = estimate_g(avg, "joint")  # joint weighting stays defined
        assert any("missing-data" in f for f in est.flags)


class TestMCvsPDE:
    def test_joint_estimate_tracks_scalar_averaged(self):
        grid = SpatialGrid(1, 64, 20.0)
        fam = switching_family(grid, contrast=0.5)
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        times = np.array([0.5, 1.0])
        cfg = SolverConfig(dt=0.02, sample_times=times)
        ecfg = EnsembleConfig(N=600, master_seed=33, horizon=1.0)
        avg, _ = run_ensemble(psi0, fam, model, None, cfg, ecfg)
        est = estimate_g(avg, "joint")
        g0 = AveragedField(grid, 0.5 * np.vstack([psi0.values, psi0.values]))
        pde = solve_scalar_averaged(g0, fam, model, cfg)
        vol = grid.cell_volume
        for ti in range(times.size):
            diff = est.fields[ti].g - pde[ti].g
            err = np.sqrt(vol * np.sum(np.abs(diff) ** 2))
            se_l2 = np.sqrt(vol * np.sum(est.stderr[ti] ** 2))
            assert err <= 3.0 * se_l2


class TestFeynmanKac:
    def test_zero_potential_exact_zero(self):
        grid = SpatialGrid(1, 32, 12.0)
        fam = PotentialFamily(grid, np.zeros((2, grid.size)))
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.0, 1.0]))
        _, series = run_ensemble(psi0, fam, model, None, cfg,
                                 EnsembleConfig(N=10, master_seed=2, horizon=1.0))
        mean, se = feynman_kac_lhs(series)
        assert np.all(mean == 0.0) and np.all(se == 0.0)

    def test_dirac_start_t0_identity_exact(self):
        # at t=0 with a Dirac initial law both sides are the same finite sum
        grid = SpatialGrid(1, 64, 20.0)
        fam = switching_family(grid, contrast=0.5)
        model = MarkovModel(two_state_model().A, initial_law=0)
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.0, 0.5]))
        avg, series = run_ensemble(psi0, fam, model, None, cfg,
                                   EnsembleConfig(N=20, master_seed=7, horizon=0.5))
        mean, _ = feynman_kac_lhs(series)
        f0 = np.zeros((2, grid.size, grid.size), dtype=complex)
        f0[0] = np.outer(psi0.values, psi0.values.conj())
        rhs0 = sum(grid.cell_volume
                   * np.sum(np.abs(fam.V[y]) * f0[y].diagonal().real)
                   for y in range(2))
        assert abs(mean[0] - rhs0) <= 1e-10 * abs(rhs0)

    def test_matches_liouville_within_three_se(self):
        grid = SpatialGrid(1, 64, 20.0)
        fam = switching_family(grid, contrast=0.5)
        model = MarkovModel(two_state_model().A, initial_law=0)
        psi0 = WaveField(grid, gaussian(grid))
        times = np.array([0.0, 0.5, 1.0])
        cfg = SolverConfig(dt=0.02, sample_times=times)
        avg, series = run_ensemble(psi0, fam, model, None, cfg,
                                   EnsembleConfig(N=800, master_seed=13, horizon=1.0))
        mean, se = feynman_kac_lhs(series)
        f0 = np.zeros((2, grid.size, grid.size), dtype=complex)
        f0[0] = np.outer(psi0.values, psi0.values.conj())
        f_series = solve_liouville_averaged(
            AveragedDensityMatrix(grid, f0), fam, model, cfg)
        vol = grid.cell_volume
        for ti in range(1, times.size):
            rhs = sum(vol * np.sum(np.abs(fam.V[y])
                                   * f_series[ti].f[y].diagonal().real)
                      for y in range(2))
            assert abs(mean[ti] - rhs) <= 3.0 * se[ti]


class TestWeightedEnergy:
    def test_autonomous_conservation(self):
        grid = SpatialGrid(1, 64, 20.0)
        fam = PotentialFamily(grid, shape_field(grid, "sech2", amplitude=-1.5)[None, :])
        model = MarkovModel(np.zeros((1, 1)))
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=5e-4, sample_times=np.linspace(0.02, 0.2, 10))
        _, series = run_ensemble(psi0, fam, model, None, cfg,
                                 EnsembleConfig(N=3, master_seed=1, horizon=0.2))
        mean, _ = weighted_energy_average(series, model)
        assert np.max(np.abs(mean - mean[0])) <= 1e-8

    def test_nontrivial_randomness_energy_average_settles(self):
        # the weighted energy average approaches a limit: its increments
        # over the last quarter of the run stay below the first quarter's
        grid = SpatialGrid(1, 256, 120.0)
        well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
        mod = shape_field(grid, "sech2", amplitude=1.0, width=1.0)
        fam = make_amplitude_family(well, mod, [-1.0, 1.0], grid)
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        times = np.arange(0.0, 24.001, 2.0)
        cfg = SolverConfig(dt=0.04, sample_times=times)
        _, series = run_ensemble(psi0, fam, model, None, cfg,
                                 EnsembleConfig(N=400, master_seed=7, horizon=24.0))
        mean, _ = weighted_energy_average(series, model)
        inc = np.abs(np.diff(mean))
        q = len(inc) // 4
        assert inc[-q:].sum() < inc[:q].sum()

    def test_free_kinetic_exactly_constant(self):
        grid = SpatialGrid(1, 64, 20.0)
        fam = PotentialFamily(grid, np.zeros((2, grid.size)))
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.linspace(0.0, 1.0, 5))
        _, series = run_ensemble(psi0, fam, model, None, cfg,
                                 EnsembleConfig(N=5, master_seed=8, horizon=1.0))
        kin = series.energy_kinetic
        assert np.max(np.abs(kin - kin[:, :1])) <= 1e-12 * np.max(kin)


class TestSummaryJson:
    def test_round_trip(self, tmp_path):
        import json

        grid = SpatialGrid(1, 32, 12.0)
        fam = switching_family(grid)
        model = two_state_model()
        psi0 = WaveField(grid, gaussian(grid))
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.5, 1.0]))
        ecfg = EnsembleConfig(N=15, master_seed=19, horizon=1.0)
        avg, series = run_ensemble(psi0, fam, model, None, cfg, ecfg)
        out = tmp_path / "summary.json"
        write_summary_json(out, avg, series, ecfg, residuals={"demo": np.array([0.1, 0.2])})
        doc = json.loads(out.read_text())
        assert doc["N"] == 15 and doc["seed"] == 19
        assert len(doc["per_time"]) == 2
        assert sum(doc["per_time"][0]["counts"]) == 15
        assert "weighted_mass" in doc["per_time"][0]["scalars"]
