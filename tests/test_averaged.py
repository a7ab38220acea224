import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stochnls
from stochnls.averaged import (
    AveragedDensityMatrix,
    AveragedField,
    _conjugate,
    _pack,
    _reflection_blocks,
    _unpack,
    density,
    psd_check,
    solve_liouville_averaged,
    solve_scalar_averaged,
    structure_table,
    trace,
    write_trace_csv,
)
from stochnls.grid import (
    SpatialGrid,
    WaveField,
    apply_multiplier,
    dense_laplacian,
    free_flow,
    laplacian_symbol,
)
from stochnls.markov import MarkovModel, heat_kernel, sample_path
from stochnls.potential import (
    PotentialFamily,
    make_amplitude_family,
    make_translate_family,
    shape_field,
)
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


def mirror(grid):
    """The reflected index of each grid point: v[mirror(grid)] is v(-x)."""
    return grid.reflect(np.arange(grid.size))


def even_kernels(grid, m, seed):
    """Hermitian kernels that commute with the reflection bit for bit."""
    a = hermitian_kernels(grid, m, seed)
    r = mirror(grid)
    return a + a[:, r][:, :, r]


def commutes_with_reflection(f, grid):
    r = mirror(grid)
    return np.array_equal(f, f[..., r, :][..., r])


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

    def test_non_finite_kernel_refused(self):
        # NaN fails every comparison of the Hermiticity check, so it needs its own
        grid = SpatialGrid(1, 8, 4.0)
        bad = np.eye(8, dtype=complex)
        bad[2, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            AveragedDensityMatrix(grid, bad)


def stepwise(values, family, model, cfg, pair):
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
            v = kin(values, 0.5 * dt if strang else dt)
            v = potential(np.tensordot(mix, v, axes=(1, 0)))
            if strang:
                v = kin(np.tensordot(mix, v, axes=(1, 0)), 0.5 * dt)
            values = v
            t = target if j == n_steps - 1 else t + dt
        out.append(values.copy())
    return out


class TestFusedMarch:
    """The fused march against the unfused per-step composition."""

    dt = 0.01

    def setup(self, gap_steps, order, pair):
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
        else:
            values = np.vstack([psi, 0.5 * bump])
        return grid, model, fam, cfg, values

    @pytest.mark.parametrize("pair", [False, True, 3])
    # a slot kept so the case ids stay stable; the solvers take no source
    @pytest.mark.parametrize("with_source", [False])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("gap_steps", [1, 5])
    def test_matches_per_step_composition(self, gap_steps, order, with_source, pair):
        grid, model, fam, cfg, values = self.setup(gap_steps, order, pair)
        if pair:
            got = [s.f for s in solve_liouville_averaged(
                AveragedDensityMatrix(grid, values), fam, model, cfg)]
        else:
            got = [s.g for s in solve_scalar_averaged(
                AveragedField(grid, values), fam, model, cfg)]
        want = stepwise(values, fam, model, cfg, pair)
        assert len(got) == len(want) == cfg.sample_times.size
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("pair", [False, True])
    def test_source_must_be_none(self, pair):
        grid, model, fam, cfg, values = self.setup(1, 2, pair)
        solve = solve_liouville_averaged if pair else solve_scalar_averaged
        start = (AveragedDensityMatrix if pair else AveragedField)(grid, values)
        assert len(solve(start, fam, model, cfg, source=None)) == cfg.sample_times.size
        with pytest.raises(ValueError, match="no source term"):
            solve(start, fam, model, cfg, source=lambda grid, t: 0.0)

    @pytest.mark.parametrize("pair", [False, True, 3])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("gap_steps", [1, 5])
    def test_multiplier_calls_per_interval(self, monkeypatch, gap_steps, order, pair):
        """One kinetic call a hop: a multiplier call of the scalar march, a
        block conjugation of the Liouville march for each marched block.
        The Liouville kernels here are even, so only the even block marches."""
        import stochnls.averaged as averaged

        calls = []

        def counting(values, phase, out=None):
            calls.append(values.shape[-1])
            return apply_multiplier(values, phase, out=out)

        def conjugating(g, half, adj, tmp, out):
            calls.append(g.shape[-1])
            return _conjugate(g, half, adj, tmp, out)

        monkeypatch.setattr(averaged, "apply_multiplier", counting)
        monkeypatch.setattr(averaged, "_conjugate", conjugating)
        grid, model, fam, cfg, values = self.setup(gap_steps, order, pair)
        if pair:
            solve_liouville_averaged(AveragedDensityMatrix(grid, values), fam, model, cfg)
        else:
            solve_scalar_averaged(AveragedField(grid, values), fam, model, cfg)
        intervals = cfg.sample_times.size - 1  # the first sample is t = 0
        per_interval = gap_steps + 1 if order == 2 else gap_steps
        assert len(calls) == intervals * per_interval
        assert set(calls) == {grid.size // 2 + 1 if pair else grid.size}


class TestPairFlow:
    """The packed kinetic factor by itself: two Hermitian kernels per block
    conjugation, X = K G K^H / 2 of G = F[2s] + i F[2s+1] on each block of
    basis B (F = B^H f B, K = B^H U B), unpacked from [X; X^H] and extended
    back by B."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_state_conjugation(self, m):
        grid = SpatialGrid(1, 32, 10.0)
        p = np.exp(0.37j * laplacian_symbol(grid))
        U = free_flow(grid, np.eye(grid.size), 0.37).T
        for even, f in [(True, even_kernels(grid, m, seed=m)),
                        (False, hermitian_kernels(grid, m, seed=m))]:
            want = np.array([apply_multiplier(k, np.outer(p, p.conj())) for k in f])
            blocks = _reflection_blocks(AveragedDensityMatrix(grid, f))
            assert [b.restrict(f).shape[-1] for b in blocks] == ([17, 15] if even else [32])
            got = np.zeros_like(want)
            for b in blocks:
                K = b.restrict(U)
                G = _pack(b.restrict(f))
                x = _conjugate(G, 0.5 * K, K.conj().T, np.empty_like(G), np.empty_like(G))
                x = np.concatenate([x, x.conj().transpose(0, 2, 1)])
                got += b.extend_kernels(_unpack(x, m))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.array_equal(got, got.conj().transpose(0, 2, 1))
            assert commutes_with_reflection(got, grid) == even

    @pytest.mark.parametrize("order", [1, 2])
    def test_snapshots_after_time_zero_are_hermitian_bit_for_bit(self, order):
        grid = SpatialGrid(1, 32, 10.0)
        f0 = AveragedDensityMatrix(grid, 1e-3 * hermitian_kernels(grid, 3, seed=9))
        cfg = SolverConfig(dt=0.01, sample_times=np.array([0.0, 0.03, 0.1]), order=order)
        series = solve_liouville_averaged(f0, well_family(grid, m=3), three_state_model(),
                                          cfg)
        for snap in series[1:]:
            assert np.array_equal(snap.f, snap.f.conj().transpose(0, 2, 1))


THREADS_SCRIPT = """
import hashlib
import numpy as np
from stochnls.averaged import AveragedDensityMatrix, solve_liouville_averaged, structure_table
from stochnls.diagnostics import energy_derivative_identity
from stochnls.grid import SpatialGrid
from stochnls.markov import MarkovModel
from stochnls.potential import make_amplitude_family, make_translate_family, shape_field
from stochnls.propagator import SolverConfig

model = MarkovModel(np.array([[1.0, -1.0], [-1.0, 1.0]]), initial_law=np.array([0.5, 0.5]))
cfg = SolverConfig(dt=0.01, sample_times=np.linspace(0.0, 0.2, 5))
for n, translate in ((64, False), (128, True)):
    grid = SpatialGrid(1, n, 20.0)
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    fam = (make_translate_family(well, grid, [[0], [3]]) if translate
           else make_amplitude_family(well, well, [-0.5, 0.5], grid))
    psi = np.exp(-(grid.coordinates()[0] - 10.0) ** 2 / 2).astype(complex)
    f0 = AveragedDensityMatrix(grid, np.array([0.5 * np.outer(psi, psi.conj())] * 2))
    series = solve_liouville_averaged(f0, fam, model, cfg)
    ident = energy_derivative_identity(series, fam, model)
    digest = hashlib.sha256(structure_table(series).tobytes() + ident.lhs.tobytes()
                            + ident.rhs.tobytes())
    for snap in series:
        digest.update(snap.f.tobytes())
    print(n, digest.hexdigest())
"""


def test_liouville_bytes_do_not_depend_on_blas_threads():
    """The Liouville march's dense block products give the same bytes at one
    and two BLAS threads, and so do the structure table and the energy
    identity, which solve and pair the march's own blocks: an even solve
    (n = 64, its even block of 33 rows) and an uneven one (n = 128, the
    whole space), each in its own process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochnls.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]


def graph_laplacian(draw, m):
    """A weighted graph-Laplacian generator on m states: a path of positive
    weights plus any other edges."""
    weights = np.zeros((m, m))
    for a in range(m):
        for b in range(a + 1, m):
            low = 0.1 if b == a + 1 else 0.0
            weights[a, b] = weights[b, a] = draw(st.floats(low, 3.0))
    return np.diag(weights.sum(axis=1)) - weights


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_folded_march_matches_per_step_composition(data):
    """The folded Liouville march (kick, mixing and packing as multipliers of
    the packed transform) against the unfused per-step composition, for drawn
    state counts (a lone slot at m = 1 and 3), generators, orders, sampling
    gaps and contrasts (0 gives a y-independent V)."""
    draw = data.draw
    m = draw(st.integers(1, 4), label="m")
    order = draw(st.sampled_from([1, 2]), label="order")
    gap = draw(st.sampled_from([1, 5]), label="gap_steps")
    contrast = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), label="contrast")
    A = graph_laplacian(draw, m)
    grid = SpatialGrid(1, 32, 10.0)
    model = MarkovModel(A, initial_law=np.full(m, 1.0 / m))
    fam = well_family(grid, m=m, contrast=contrast)
    cfg = SolverConfig(dt=0.01, sample_times=0.01 * gap * np.arange(5), order=order)
    values = hermitian_kernels(grid, m, seed=10 * m + gap)
    got = solve_liouville_averaged(AveragedDensityMatrix(grid, values), fam, model, cfg)
    want = stepwise(values, fam, model, cfg, True)
    for g, w in zip(got, want):
        assert np.max(np.abs(g.f - w)) <= 1e-12 * np.max(np.abs(w))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_block_split_matches_per_step_composition(data):
    """The Liouville march on its parity blocks.  Even amplitude families
    with f0 a mixture of even and odd pure states, and at will each one's
    parity projector (I +- R)/2, so that 0, 1 or 2 blocks start non-zero,
    and uneven inputs (a translate family, or an off-centre f0), which march
    the whole space as one block.  The snapshots match the per-step
    composition; an even input's are Hermitian and commute with the
    reflection bit for bit; each hop conjugates each block that starts
    non-zero once, and no other.  Read from the snapshot's parts, density,
    trace and Hermiticity residual equal those of its dense kernels bit for
    bit, and positivity and the pairing with the Laplacian or a drawn
    uneven Hermitian matrix agree to roundoff; an even input's snapshots
    hold no whole-space array."""
    import stochnls.averaged as averaged

    draw = data.draw
    m = draw(st.integers(1, 3), label="m")
    order = draw(st.sampled_from([1, 2]), label="order")
    gap = draw(st.sampled_from([1, 4]), label="gap_steps")
    uneven = draw(st.sampled_from([None, "translate", "off-centre"]), label="uneven")
    parts = draw(st.sampled_from([(), ("even",), ("odd",), ("even", "odd")]), label="parts")
    full = draw(st.booleans(), label="full_rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    grid = SpatialGrid(1, 32, 10.0)
    r = mirror(grid)
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    if uneven == "translate":
        shifts = [draw(st.integers(1, 6))] + [draw(st.integers(-6, 6)) for _ in range(m - 1)]
        fam = make_translate_family(well, grid, [[s] for s in shifts])
    else:
        amps = draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m), label="amps")
        fam = make_amplitude_family(well, shape_field(grid, "gaussian", width=1.5), amps,
                                    grid)
    shift = draw(st.integers(1, 6)) if uneven == "off-centre" else 0
    kernels = np.zeros((m, grid.size, grid.size), dtype=complex)
    for y in range(m):
        for parity in parts:
            v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
            psi = np.roll(v + v[r] if parity == "even" else v - v[r], shift)
            kernels[y] += rng.uniform(0.1, 1.0) * np.outer(psi, psi.conj())
            if full:
                R = np.eye(grid.size)[r] * (1 if parity == "even" else -1)
                P = np.roll(0.5 * (np.eye(grid.size) + R), (shift, shift), axis=(0, 1))
                kernels[y] += rng.uniform(0.1, 1.0) * P
    model = MarkovModel(graph_laplacian(draw, m), initial_law=np.full(m, 1.0 / m))
    cfg = SolverConfig(dt=0.01, sample_times=0.01 * gap * np.arange(4), order=order)
    M = (dense_laplacian(grid) if draw(st.booleans(), label="laplacian")
         else hermitian_kernels(grid, 1, seed=m)[0])

    calls = []

    def conjugating(g, half, adj, tmp, out):
        calls.append(g.shape[-1])
        return _conjugate(g, half, adj, tmp, out)

    with mock.patch.object(averaged, "_conjugate", conjugating):
        got = solve_liouville_averaged(AveragedDensityMatrix(grid, kernels), fam, model, cfg)
    want = stepwise(kernels, fam, model, cfg, True)
    for g, w in zip(got, want):
        assert np.max(np.abs(g.f - w)) <= 1e-12 * np.max(np.abs(w))
        if not uneven:
            assert np.array_equal(g.f, g.f.conj().transpose(0, 2, 1))
            assert commutes_with_reflection(g.f, grid)
            assert all(F.shape[-1] < grid.size for _, F in g.parts)
        dense = AveragedDensityMatrix(grid, g.f, t=g.t)
        assert np.array_equal(density(g), density(dense))
        assert np.array_equal(trace(g)[0], trace(dense)[0]) and trace(g)[1] == trace(dense)[1]
        assert g.hermiticity_residual() == dense.hermiticity_residual()
        assert np.all(np.abs(psd_check(g) - psd_check(dense)) <= 1e-14 * trace(dense)[1])
        want = np.einsum("ij,yji->y", M, dense.f).real
        bound = np.einsum("ij,yji->y", np.abs(M), np.abs(dense.f))
        assert np.all(np.abs(g.pairing(M) - want) <= 1e-12 * bound)
    sizes = ({grid.size} if uneven else
             {{"even": 17, "odd": 15}[p] for p in parts}) if parts else set()
    hops = 3 * (gap + 1 if order == 2 else gap)
    assert calls == sorted(sizes, reverse=True) * hops  # per hop: even, then odd


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_scalar_l2_never_grows(data):
    """The `average` kind's gate: the total ||g||_2 of the scalar solve does
    not increase from one sample to the next (the flows are unitary and the
    mixing contracts), for drawn amplitude and translate families on m = 1..3
    states, grids, orders and steps."""
    draw = data.draw
    m = draw(st.integers(1, 3), label="m")
    d = draw(st.sampled_from([1, 2]), label="d")
    n = draw(st.sampled_from([32, 64]), label="n")
    dt = draw(st.sampled_from([0.005, 0.05, 0.4]), label="dt")
    order = draw(st.sampled_from([1, 2]), label="order")
    grid = SpatialGrid(d, n, 16.0)
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    if draw(st.booleans(), label="translate"):
        shift = st.lists(st.integers(-n // 4, n // 4), min_size=d, max_size=d)
        fam = make_translate_family(well, grid, [draw(shift) for _ in range(m)])
    else:
        amps = draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m), label="amps")
        fam = make_amplitude_family(well, shape_field(grid, "gaussian", width=1.5), amps,
                                    grid)
    model = MarkovModel(graph_laplacian(draw, m), initial_law=np.full(m, 1.0 / m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    g0 = rng.standard_normal((m, grid.size)) + 1j * rng.standard_normal((m, grid.size))
    cfg = SolverConfig(dt=dt, sample_times=dt * np.arange(0, 16, 3), order=order)
    series = solve_scalar_averaged(AveragedField(grid, g0), fam, model, cfg)
    norms = np.array([np.sqrt(grid.cell_volume * np.sum(np.abs(s.g) ** 2))
                      for s in series])
    assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))


@st.composite
def liouville_cases(draw):
    """A weighted graph-Laplacian generator on m = 2..4 states (a path of
    positive weights plus any other edges), an initial law, n, order and dt."""
    m = draw(st.integers(2, 4))
    A = graph_laplacian(draw, m)
    law = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    return (A, law / law.sum(),
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

    def test_trace_csv(self, tmp_path):
        tpath = tmp_path / "trace.csv"
        write_trace_csv(tpath, structure_table(self.series()))
        tlines = tpath.read_text().strip().split("\n")
        assert tlines[0] == "t,trace0,trace1,trace_total,hermiticity_residual,min_eigenvalue"
        assert len(tlines) == 3
