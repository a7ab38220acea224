from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochnls.averaged import (
    AveragedDensityMatrix,
    AveragedField,
    _pair_flow,
    _pair_phase,
    density,
    psd_check,
    solve_liouville_averaged,
    solve_scalar_averaged,
    structure_table,
    trace,
    write_density_csv,
    write_trace_csv,
)
from stochnls.grid import SpatialGrid, WaveField, apply_multiplier, laplacian_symbol
from stochnls.markov import MarkovModel, heat_kernel, sample_path
from stochnls.potential import PotentialFamily, make_amplitude_family, shape_field
from stochnls.propagator import SolverConfig, evolve_path


def gaussian(grid, a=1.0):
    L = grid.box_length
    x = grid.coordinates()[0] - L / 2.0
    x = ((x + L / 2.0) % L) - L / 2.0
    return (a / np.pi) ** 0.25 * np.exp(-a * x**2 / 2.0).astype(complex)


def two_state_model(rate=1.0):
    A = rate * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return MarkovModel(A, initial_law=np.array([0.5, 0.5]))


def three_state_model():
    A = np.array([[1.4, -1.0, -0.4], [-1.0, 1.7, -0.7], [-0.4, -0.7, 1.1]])
    return MarkovModel(A, initial_law=np.array([0.2, 0.3, 0.5]))


def hermitian_kernels(grid, m, seed):
    rng = np.random.default_rng(seed)
    n = grid.points_per_axis
    a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return a + a.conj().transpose(0, 2, 1)


def well_family(grid, m=2, contrast=0.5):
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    if m == 1:
        return PotentialFamily(grid, well[None, :])
    amps = np.linspace(-contrast, contrast, m)
    return make_amplitude_family(well, well, amps, grid)


class TestScalarAveraged:
    def test_single_state_matches_path_solver(self):
        grid = SpatialGrid(1, 64, 20.0)
        fam = well_family(grid, m=1)
        model = MarkovModel(np.zeros((1, 1)))
        path = sample_path(model, 5.0, seed=0)
        times = np.linspace(0.0, 1.0, 6)
        cfg = SolverConfig(dt=0.01, sample_times=times)
        psi0 = WaveField(grid, gaussian(grid))
        path_out = evolve_path(psi0, fam, path, None, cfg)
        avg_out = solve_scalar_averaged(AveragedField(grid, psi0.values[None, :]),
                                        fam, model, cfg)
        for snap_path, snap_avg in zip(path_out.fields, avg_out):
            assert np.max(np.abs(snap_path - snap_avg.g[0])) <= 1e-10

    def test_free_case_factorizes_exactly(self):
        # V = 0: the solver must equal e^{-tA} composed with the free flow
        grid = SpatialGrid(1, 64, 20.0)
        model = two_state_model(1.3)
        fam = PotentialFamily(grid, np.zeros((2, grid.size)))
        T = 1.0
        cfg = SolverConfig(dt=0.05, sample_times=np.array([T]))
        rng = np.random.default_rng(8)
        g0 = rng.standard_normal((2, grid.size)) + 1j * rng.standard_normal((2, grid.size))
        out = solve_scalar_averaged(AveragedField(grid, g0), fam, model, cfg)

        from stochnls.grid import laplacian_symbol
        phase = np.exp(1j * T * laplacian_symbol(grid))
        free = np.fft.ifft(phase * np.fft.fft(g0, axis=1), axis=1)
        expected = heat_kernel(model, T).K @ free
        assert np.max(np.abs(out[0].g - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_time_zero_returns_initial(self):
        grid = SpatialGrid(1, 32, 10.0)
        model = two_state_model()
        fam = well_family(grid)
        cfg = SolverConfig(dt=0.1, sample_times=np.array([0.0]))
        g0 = AveragedField(grid, np.vstack([gaussian(grid), gaussian(grid, 2.0)]))
        out = solve_scalar_averaged(g0, fam, model, cfg)
        np.testing.assert_array_equal(out[0].g, g0.g)

    def test_commutation_with_y_independent_potential(self):
        # V independent of y: mixing commutes through; the full solve equals
        # (dissipative mixing) applied to the single-potential flow
        grid = SpatialGrid(1, 64, 20.0)
        model = two_state_model(0.9)
        well = shape_field(grid, "sech2", amplitude=-1.5, width=1.0)
        fam = PotentialFamily(grid, np.vstack([well, well]))
        T = 1.0
        cfg = SolverConfig(dt=0.02, sample_times=np.array([T]))
        g0 = np.vstack([gaussian(grid), 0.5 * gaussian(grid, 2.0)])
        out = solve_scalar_averaged(AveragedField(grid, g0), fam, model, cfg)

        single = PotentialFamily(grid, well[None, :])
        m1 = MarkovModel(np.zeros((1, 1)))
        flows = [
            solve_scalar_averaged(AveragedField(grid, g0[y][None, :]), single, m1, cfg)[0].g[0]
            for y in range(2)
        ]
        expected = heat_kernel(model, T).K @ np.vstack(flows)
        assert np.max(np.abs(out[0].g - expected)) <= 1e-9 * np.max(np.abs(expected))


class TestLiouvilleAveraged:
    def test_rank_one_tensor_factorization(self):
        grid = SpatialGrid(1, 64, 20.0)
        fam = well_family(grid, m=1)
        model = MarkovModel(np.zeros((1, 1)))
        path = sample_path(model, 5.0, seed=0)
        times = np.linspace(0.0, 1.0, 11)
        cfg = SolverConfig(dt=0.01, sample_times=times)
        psi0 = WaveField(grid, gaussian(grid))
        path_out = evolve_path(psi0, fam, path, None, cfg)
        f0 = AveragedDensityMatrix(grid, np.outer(psi0.values, psi0.values.conj()))
        series = solve_liouville_averaged(f0, fam, model, cfg)
        for snap_f, snap_psi in zip(series, path_out.fields):
            outer = np.outer(snap_psi, snap_psi.conj())
            assert np.max(np.abs(snap_f.f[0] - outer)) <= 1e-9

    def test_trace_conserved_and_positivity(self):
        grid = SpatialGrid(1, 64, 20.0)
        model = two_state_model()
        fam = well_family(grid)
        times = np.linspace(0.0, 1.0, 6)
        cfg = SolverConfig(dt=1e-3, sample_times=times)
        psi = gaussian(grid)
        f0 = AveragedDensityMatrix(
            grid, 0.5 * np.array([np.outer(psi, psi.conj())] * 2))
        series = solve_liouville_averaged(f0, fam, model, cfg)
        _, total0 = trace(series[0])
        for snap in series:
            _, total = trace(snap)
            assert abs(total - total0) <= 1e-8 * abs(total0)
            assert snap.hermiticity_residual() <= 1e-12 * np.max(np.abs(snap.f))
            mins = psd_check(snap)
            assert np.min(mins) >= -1e-8 * total

    def test_pure_kinetic_conjugation_preserves_spectrum(self):
        grid = SpatialGrid(1, 32, 10.0)
        model = MarkovModel(np.zeros((1, 1)))
        fam = PotentialFamily(grid, np.zeros((1, grid.size)))
        rng = np.random.default_rng(4)
        B = rng.standard_normal((grid.size, grid.size)) \
            + 1j * rng.standard_normal((grid.size, grid.size))
        f0 = AveragedDensityMatrix(grid, B @ B.conj().T)
        cfg = SolverConfig(dt=0.05, sample_times=np.array([2.0]))
        series = solve_liouville_averaged(f0, fam, model, cfg)
        before = np.linalg.eigvalsh(f0.f[0])
        after = np.linalg.eigvalsh(series[0].f[0])
        assert np.max(np.abs(before - after)) <= 1e-9 * np.max(np.abs(before))

    def test_diagonal_consistency_with_scalar_solver(self):
        grid = SpatialGrid(1, 64, 20.0)
        fam = well_family(grid, m=1)
        model = MarkovModel(np.zeros((1, 1)))
        times = np.linspace(0.0, 0.5, 6)
        cfg = SolverConfig(dt=0.01, sample_times=times)
        g0 = gaussian(grid)
        scalar = solve_scalar_averaged(AveragedField(grid, g0[None, :]), fam, model, cfg)
        f0 = AveragedDensityMatrix(grid, np.outer(g0, g0.conj()))
        liouville = solve_liouville_averaged(f0, fam, model, cfg)
        for s, l in zip(scalar, liouville):
            assert np.max(np.abs(density(l)[0] - np.abs(s.g[0]) ** 2)) <= 1e-9

    def test_caps_enforced(self):
        grid = SpatialGrid(1, 256, 20.0)
        fam = well_family(grid, m=1)
        model = MarkovModel(np.zeros((1, 1)))
        f0 = AveragedDensityMatrix(grid, np.eye(grid.size, dtype=complex))
        cfg = SolverConfig(dt=0.1, sample_times=np.array([0.1]))
        with pytest.raises(ValueError):
            solve_liouville_averaged(f0, fam, model, cfg)

    def test_hermiticity_enforced_on_input(self):
        grid = SpatialGrid(1, 32, 10.0)
        bad = np.zeros((32, 32), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            AveragedDensityMatrix(grid, bad)


def stepwise(values, family, model, cfg, source, pair):
    """The unfused per-step composition: every step applies both of its
    half-kinetic factors (Strang) or its full one (Lie)."""
    grid = family.grid
    dt = cfg.dt
    k2 = laplacian_symbol(grid)

    def kin(v, tau):
        p = np.exp(1j * tau * k2)
        if pair:
            return np.fft.ifft2(np.outer(p, p.conj()) * np.fft.fft2(v))
        return np.fft.ifft(p * np.fft.fft(v))

    pot = np.exp(1j * dt * family.V)

    def potential(v):
        return pot[:, :, None] * v * pot.conj()[:, None, :] if pair else pot * v

    strang = cfg.order == 2
    mix = heat_kernel(model, 0.5 * dt if strang else dt).K
    out, t = [], 0.0
    for target in cfg.sample_times:
        n_steps = 0 if target <= 1e-15 else int(round((target - t) / dt))
        for j in range(n_steps):
            t_mid = t + 0.5 * dt
            v = kin(values, 0.5 * dt if strang else dt)
            v = potential(np.tensordot(mix, v, axes=(1, 0)))
            if source is not None:
                v = v + 1j * dt * source(grid, t_mid)
            if strang:
                v = kin(np.tensordot(mix, v, axes=(1, 0)), 0.5 * dt)
            values = v
            t = target if j == n_steps - 1 else t + dt
        out.append(values.copy())
    return out


class TestFusedMarch:
    """The fused march against the unfused per-step composition."""

    dt = 0.01

    def setup(self, gap_steps, order, with_source, pair):
        # pair=3: the Liouville case with three states, one kernel unpaired
        grid = SpatialGrid(1, 32, 10.0)
        m = 3 if pair == 3 else 2
        model = two_state_model(1.1) if m == 2 else three_state_model()
        fam = well_family(grid, m=m, contrast=0.7)
        times = np.round(np.arange(0.0, 11 * gap_steps) * self.dt, 10)[::gap_steps]
        cfg = SolverConfig(dt=self.dt, sample_times=times, order=order)
        psi = gaussian(grid)
        bump = gaussian(grid, 3.0)
        if pair:
            values = np.array([0.3 * np.outer(psi, psi.conj()),
                               0.7 * np.outer(bump, bump.conj()),
                               0.2 * np.outer(psi + bump, (psi + bump).conj())][:m])

            def source(grid, t):
                # anti-Hermitian, so the injected i*dt*F keeps f Hermitian
                w = np.cos(3.0 * t) * bump
                return 0.1j * np.array([np.outer(w, w.conj())] * m)
        else:
            values = np.vstack([psi, 0.5 * bump])

            def source(grid, t):
                return 0.1 * np.vstack([np.sin(2.0 * t) * bump, np.cos(t) * psi])
        return grid, model, fam, cfg, values, source if with_source else None

    @pytest.mark.parametrize("pair", [False, True, 3])
    @pytest.mark.parametrize("with_source", [False, True])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("gap_steps", [1, 5])
    def test_matches_per_step_composition(self, gap_steps, order, with_source, pair):
        grid, model, fam, cfg, values, source = self.setup(
            gap_steps, order, with_source, pair)
        if pair:
            got = [s.f for s in solve_liouville_averaged(
                AveragedDensityMatrix(grid, values), fam, model, cfg, source)]
        else:
            got = [s.g for s in solve_scalar_averaged(
                AveragedField(grid, values), fam, model, cfg, source)]
        want = stepwise(values, fam, model, cfg, source, pair)
        assert len(got) == len(want) == cfg.sample_times.size
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("pair", [False, True, 3])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("gap_steps", [1, 5])
    def test_multiplier_calls_per_interval(self, monkeypatch, gap_steps, order, pair):
        import stochnls.averaged as averaged

        calls = []

        def counting(values, phase, out=None):
            calls.append(1)
            return apply_multiplier(values, phase, out=out)

        monkeypatch.setattr(averaged, "apply_multiplier", counting)
        grid, model, fam, cfg, values, _ = self.setup(gap_steps, order, False, pair)
        if pair:
            solve_liouville_averaged(AveragedDensityMatrix(grid, values), fam, model, cfg)
        else:
            solve_scalar_averaged(AveragedField(grid, values), fam, model, cfg)
        intervals = cfg.sample_times.size - 1  # the first sample is t = 0
        per_interval = gap_steps + 1 if order == 2 else gap_steps
        assert len(calls) == intervals * per_interval


class TestPairFlow:
    """The packed kinetic factor by itself: two Hermitian kernels per complex
    transform, unpacked on the float views."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_state_conjugation(self, m):
        grid = SpatialGrid(1, 32, 10.0)
        f = hermitian_kernels(grid, m, seed=m)
        p = np.exp(0.37j * laplacian_symbol(grid))
        want = np.array([apply_multiplier(k, np.outer(p, p.conj())) for k in f])
        got, spare = f.copy(), np.empty_like(f)
        _pair_flow(got, spare, _pair_phase(grid, 0.37))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got, got.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("order", [1, 2])
    def test_snapshots_after_time_zero_are_hermitian_bit_for_bit(self, order):
        grid = SpatialGrid(1, 32, 10.0)
        f0 = AveragedDensityMatrix(grid, 1e-3 * hermitian_kernels(grid, 3, seed=9))
        cfg = SolverConfig(dt=0.01, sample_times=np.array([0.0, 0.03, 0.1]), order=order)
        series = solve_liouville_averaged(f0, well_family(grid, m=3), three_state_model(),
                                          cfg)
        for snap in series[1:]:
            assert np.array_equal(snap.f, snap.f.conj().transpose(0, 2, 1))


@st.composite
def liouville_cases(draw):
    """A weighted graph-Laplacian generator on m = 2..4 states (a path of
    positive weights plus any other edges), an initial law, n, order and dt."""
    m = draw(st.integers(2, 4))
    weights = np.zeros((m, m))
    for a in range(m):
        for b in range(a + 1, m):
            low = 0.1 if b == a + 1 else 0.0
            weights[a, b] = weights[b, a] = draw(st.floats(low, 3.0))
    law = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    return (np.diag(weights.sum(axis=1)) - weights, law / law.sum(),
            draw(st.sampled_from([32, 64])), draw(st.sampled_from([1, 2])),
            draw(st.sampled_from([1e-3, 5e-3, 0.02])), draw(st.floats(0.0, 1.0)))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(liouville_cases())
def test_liouville_structure_holds_at_c6_gates(case):
    """Total trace, Hermiticity and positivity of the Liouville solve at C6's
    gates, for drawn generators, initial laws, grids, orders and steps."""
    A, law, n, order, dt, contrast = case
    m = law.size
    grid = SpatialGrid(1, n, 20.0)
    model = MarkovModel(A, initial_law=law)
    kernels = [law[y] * np.outer(psi, psi.conj())
               for y, psi in enumerate(gaussian(grid, 0.5 + y) for y in range(m))]
    f0 = AveragedDensityMatrix(grid, np.array(kernels))
    cfg = SolverConfig(dt=dt, sample_times=dt * np.array([0, 1, 6, 20, 40]), order=order)
    series = solve_liouville_averaged(f0, well_family(grid, m=m, contrast=contrast),
                                      model, cfg)
    table = structure_table(series)
    totals, herms, min_eigs = table[:, -3:].T
    assert np.max(np.abs(totals - totals[0])) <= 1e-8 * abs(totals[0])
    assert herms.max() <= 1e-12 * max(float(np.max(np.abs(s.f))) for s in series)
    assert min_eigs.min() >= -1e-8 * totals[0]


class TestDensityTracePsd:
    def rank_one(self, grid, psi):
        return AveragedDensityMatrix(grid, np.outer(psi, psi.conj()))

    def test_rank_one_density(self):
        grid = SpatialGrid(1, 64, 16.0)
        psi = gaussian(grid)
        f = self.rank_one(grid, psi)
        np.testing.assert_allclose(density(f)[0], np.abs(psi) ** 2, atol=1e-12)

    def test_rank_one_trace_is_l2_squared(self):
        grid = SpatialGrid(1, 64, 16.0)
        psi = gaussian(grid)
        f = self.rank_one(grid, psi)
        _, total = trace(f)
        l2sq = grid.cell_volume * np.sum(np.abs(psi) ** 2)
        assert total == pytest.approx(l2sq, rel=1e-12)

    def test_orthonormal_mixture_trace_one(self):
        grid = SpatialGrid(1, 64, 16.0)
        x = grid.coordinates()[0]
        k = 2 * np.pi / grid.box_length
        psi = np.exp(1j * k * x) / np.sqrt(grid.box_length)
        phi = np.exp(2j * k * x) / np.sqrt(grid.box_length)
        f = AveragedDensityMatrix(
            grid, 0.5 * (np.outer(psi, psi.conj()) + np.outer(phi, phi.conj())))
        _, total = trace(f)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_psd_detects_negative_input(self):
        grid = SpatialGrid(1, 32, 8.0)
        f = AveragedDensityMatrix(grid, -np.eye(32, dtype=complex))
        assert psd_check(f)[0] == pytest.approx(-1.0)

    def test_rank_one_psd(self):
        grid = SpatialGrid(1, 32, 8.0)
        f = self.rank_one(grid, gaussian(grid))
        assert psd_check(f)[0] >= -1e-12

    def test_odd_negative_direction_is_reported(self):
        # an even kernel whose one negative eigenvector is odd: the odd half
        # alone holds the least eigenvalue
        grid = SpatialGrid(1, 32, 8.0)
        rng = np.random.default_rng(6)
        u, w = rng.standard_normal((2, grid.size))
        mirror = grid.reflect(np.arange(grid.size))
        odd, even = u - u[mirror], w + w[mirror]
        f = (0.5 * np.eye(grid.size) + np.outer(even, even)
             - np.outer(odd, odd) / (odd @ odd)).astype(complex)
        assert np.array_equal(reflected(grid, f[None]), f[None])
        assert psd_check(AveragedDensityMatrix(grid, f))[0] == pytest.approx(-0.5, abs=1e-12)

    def test_stacked_solve_matches_per_state_loop(self):
        grid = SpatialGrid(1, 32, 8.0)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 32, 32)) + 1j * rng.standard_normal((3, 32, 32))
        f = AveragedDensityMatrix(grid, a + a.conj().transpose(0, 2, 1))
        hermitized = 0.5 * (f.f + f.f.conj().transpose(0, 2, 1))
        loop = [np.linalg.eigvalsh(hermitized[y])[0] for y in range(f.m)]
        assert np.array_equal(psd_check(f), loop)


def reflected(grid, f):
    """R f R for kernels f of shape (m, n, n), R the grid reflection x -> -x."""
    mirror = grid.reflect(np.arange(grid.size))
    return f[:, mirror][:, :, mirror]


def full_min_eigenvalues(f):
    """The least eigenvalues of the whole hermitized kernels, one stacked solve."""
    return np.linalg.eigvalsh(0.5 * (f + f.conj().transpose(0, 2, 1)))[:, 0]


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([4, 8, 16, 32, 64]), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.integers(0, 3))
def test_psd_check_solves_even_kernels_on_their_halves(n, m, seed, rank):
    """Kernels made even under the reflection are solved on their even and
    odd halves, to 1e-12 of the whole solve; uneven ones on the whole kernel,
    bitwise.  Rank 0 draws a Hermitian kernel, rank r > 0 a PSD one of rank r,
    whose least eigenvalue is a roundoff-size zero."""
    grid = SpatialGrid(1, n, 8.0)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    f = (a + a.conj().transpose(0, 2, 1) if rank == 0
         else a[:, :, :rank] @ a[:, :, :rank].conj().transpose(0, 2, 1))
    even = 0.5 * (f + reflected(grid, f))
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        got = psd_check(AveragedDensityMatrix(grid, even))
    assert [c.args[0].shape for c in spy.call_args_list] == [
        (m, n // 2 + 1, n // 2 + 1), (m, n // 2 - 1, n // 2 - 1)]
    scale = np.max(np.abs(even), axis=(1, 2))
    assert np.all(np.abs(got - full_min_eigenvalues(even)) <= 1e-12 * scale)
    assert np.array_equal(psd_check(AveragedDensityMatrix(grid, f)), full_min_eigenvalues(f))


class TestCsvOutput:
    def series(self):
        grid = SpatialGrid(1, 32, 10.0)
        cfg = SolverConfig(dt=0.05, sample_times=np.array([0.0, 0.5]))
        psi = gaussian(grid)
        f0 = AveragedDensityMatrix(grid, 0.5 * np.array([np.outer(psi, psi.conj())] * 2))
        return solve_liouville_averaged(f0, well_family(grid), two_state_model(), cfg)

    def test_structure_table_is_the_per_snapshot_audit(self):
        series = self.series()
        table = structure_table(series)
        assert table.shape == (2, 2 + 4)
        for row, snap in zip(table, series, strict=True):
            per_state, total = trace(snap)
            audit = [snap.t, *per_state, total, snap.hermiticity_residual(),
                     psd_check(snap).min()]
            assert np.array_equal(row, audit)

    def test_writers(self, tmp_path):
        series = self.series()
        dpath, tpath = tmp_path / "density.csv", tmp_path / "trace.csv"
        write_density_csv(dpath, series)
        write_trace_csv(tpath, structure_table(series))
        dlines = dpath.read_text().strip().split("\n")
        assert dlines[0].startswith("t,y,rho0")
        assert len(dlines) == 1 + 2 * 2  # two times, two states
        tlines = tpath.read_text().strip().split("\n")
        assert tlines[0] == "t,trace0,trace1,trace_total,hermiticity_residual,min_eigenvalue"
        assert len(tlines) == 3
