"""Batch invariance: a path marched in a lockstep batch, an ensemble reduced
from batches of any size, and a diagnostic taken along the row axis must
each be bitwise what the one-row computation gives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochnls import ensemble
from stochnls.ensemble import EnsembleConfig, run_ensemble, write_summary_json
from stochnls.grid import (
    SpatialGrid,
    WaveField,
    convolution_spectrum,
    free_flow,
    lebesgue_norm,
    lebesgue_norm_rows,
    lorentz_norm,
    lorentz_norm_rows,
    spectral_convolution,
    sum_norm,
    sum_norm_rows,
)
from stochnls.markov import MarkovModel, PathSample, state_at
from stochnls.potential import HartreeKernel, make_amplitude_family, shape_field
from stochnls.propagator import (
    SolverConfig,
    _interval_edges,
    evolve_path,
    evolve_paths,
    hartree_potential,
)

GRID = SpatialGrid(1, 32, 12.0)
DT = 0.05
SAMPLE_TIMES = np.array([0.0, 0.5, 0.75, 1.0])
# base steps of [0, 0.5] are [0, 0.05], ..., [0.45, 0.5]
JUMPS = {
    "none": [],
    "first-step": [0.01],
    "last-step": [0.48],
    "two-in-one-step": [0.61, 0.63],
    "on-sample-time": [0.5],
    "many": [0.01, 0.26, 0.49, 0.52, 0.97],
    # the base edges 0 + 3 dt and 0.5 + 2 dt, as the march computes them
    "on-base-edge": [DT * 3, 0.5 + DT * 2],
    # step 1 is cut, step 0 not: under Strang, step 0's hop reaches into it
    "next-step-cut": [0.07],
    # the last step of one interval and the first step of the next
    "across-intervals": [0.47, 0.53],
}


def two_state_path(jumps, horizon=1.0):
    jumps = np.asarray(jumps, dtype=float)
    return PathSample(horizon=horizon, jump_times=jumps,
                      states=np.arange(jumps.size + 1) % 2, seed=(0,))


def family(grid=GRID):
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    return make_amplitude_family(well, well, [-1.0, 1.0], grid)


def initial_field(shift=0.0, grid=GRID):
    x = grid.centered_coordinates()[0]
    return np.exp(-((x - shift) ** 2) / 2).astype(complex)


def adapted_source(grid, t, prefix):
    assert prefix.horizon == t and np.all(prefix.jump_times < t)
    x = grid.centered_coordinates()[0]
    return 0.01 * np.exp(-(x**2)) * (1 + prefix.states[-1]) * np.exp(1j * t)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def march_interval(grid, order, values, edges, kick):
    """Advance one path across the substeps delimited by `edges`, each
    kicked by kick(tau, t_mid, values) at its midpoint.  For Strang order
    the trailing half-kinetic factor of each substep is fused with the
    leading one of the next."""
    taus = np.diff(edges)
    if order == 2:
        values = free_flow(grid, values, 0.5 * taus[0])
        for k, tau in enumerate(taus):
            values = kick(tau, edges[k] + 0.5 * tau, values)
            hop = 0.5 * (tau + taus[k + 1]) if k + 1 < taus.size else 0.5 * tau
            values = free_flow(grid, values, hop)
        return values
    for k, tau in enumerate(taus):
        values = kick(tau, edges[k] + 0.5 * tau, free_flow(grid, values, tau))
    return values


def plain_march(psi0, fam, path, kernel, cfg):
    """One path marched by itself over each interval's own jump-cut edges:
    the per-path scheme the lockstep march must reproduce bit for bit."""
    grid = fam.grid

    def kick(tau, t_mid, vals):
        pot = fam.V[[state_at(path, t_mid)]]
        if kernel is not None:
            pot = pot + hartree_potential(WaveField(grid, vals[0]), kernel)
        vals = vals * np.exp(1j * tau * pot.reshape(vals.shape))
        if cfg.source is not None:
            src = cfg.source(grid, t_mid, path.restricted(t_mid))
            vals = vals + 1j * tau * np.reshape(src, vals.shape)
        return vals

    vals, t, out = psi0.reshape(1, *grid.shape).copy(), 0.0, []
    for target in cfg.sample_times:
        if target > 0:
            jumps = path.jump_times[(path.jump_times > t) & (path.jump_times < target)]
            edges = np.unique(np.concatenate((_interval_edges(t, target, cfg.dt), jumps)))
            vals = march_interval(grid, cfg.order, vals, edges, kick)
            t = target
        out.append(vals.reshape(-1))
    return np.array(out)


def assert_rows_match_single(paths, psi0, cfg, kernel, fam=None):
    """Each row of one batched march against evolve_path on that row alone,
    and against the plain per-path march."""
    fam = family() if fam is None else fam
    fields, states, scalars = evolve_paths(psi0, fam, paths, kernel, cfg)
    for b, path in enumerate(paths):
        alone = evolve_path(WaveField(fam.grid, psi0[b]), fam, path, kernel, cfg)
        assert same_bits(fields[b], np.array([s.values for s in alone.snapshots]))
        assert same_bits(fields[b], plain_march(psi0[b], fam, path, kernel, cfg))
        assert same_bits(states[b], alone.states)
        for name, series in scalars.items():
            assert same_bits(series[b], alone.scalars[name]), name


def test_edge_cases_are_what_they_say():
    edges = [_interval_edges(t0, t1, DT) for t0, t1 in zip(SAMPLE_TIMES, SAMPLE_TIMES[1:])]
    on_edge = JUMPS["on-base-edge"]
    assert on_edge[0] in edges[0][1:-1] and on_edge[1] in edges[1][1:-1]
    assert edges[0][1] < JUMPS["next-step-cut"][0] < edges[0][2]
    late, early = JUMPS["across-intervals"]
    assert edges[0][-2] < late < edges[0][-1] and edges[1][0] < early < edges[1][1]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("epsilon", [0.0, 0.3])
@pytest.mark.parametrize("source", [None, adapted_source])
def test_batched_rows_match_single_path_march(order, epsilon, source):
    chi = shape_field(GRID, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(GRID, chi, epsilon=epsilon) if epsilon else None
    cfg = SolverConfig(dt=DT, sample_times=SAMPLE_TIMES,
                       order=order, epsilon=epsilon, source=source)
    paths = [two_state_path(j) for j in JUMPS.values()]
    psi0 = np.array([initial_field(0.3 * b) for b in range(len(paths))])
    for rows in ([[b] for b in range(len(paths))],                       # 1 row
                 [[b, (b + 1) % len(paths)] for b in range(len(paths))],  # 2 rows
                 [list(range(len(paths)))]):                              # all rows
        for batch in rows:
            assert_rows_match_single([paths[b] for b in batch], psi0[batch], cfg, kernel)


def test_rows_of_a_large_batch_match_single_path_march():
    """At 256 KiB per operand numpy may evaluate x * temporary as
    temporary * x in place, and complex products are not bitwise
    commutative: a batch of that size must still give each row's bits."""
    grid = SpatialGrid(1, 64, 20.0)
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    fam = make_amplitude_family(well, well, [-1.0, 1.0], grid)
    chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(grid, chi, epsilon=0.3)
    cfg = SolverConfig(dt=DT, sample_times=np.array([0.1, 0.2]), epsilon=0.3)
    B = 260  # 260 rows of 64 complex values: 266 KB
    paths = [two_state_path(JUMPS["none"] if b % 2 else [0.12])
             for b in range(B)]
    x = grid.centered_coordinates()[0]
    psi0 = np.array([np.exp(-((x - 0.01 * b) ** 2)) for b in range(B)], dtype=complex)
    fields, _, _ = evolve_paths(psi0, fam, paths, kernel, cfg)
    for b in (0, 1, B - 1):
        alone = evolve_path(WaveField(grid, psi0[b]), fam, paths[b], kernel, cfg)
        assert same_bits(fields[b], np.array([s.values for s in alone.snapshots]))


def rounds_onto_end(start, end):
    return start + 0.5 * (end - start) == end


@pytest.mark.parametrize("order", [1, 2])
def test_substeps_shorter_than_an_ulp_follow_state_at(order):
    """A substep one ulp long has its midpoint rounded onto its end, where
    state_at already counts the jump there: the march must see that
    state too, whether the end is another jump, a base edge holding a jump,
    or a sample time holding one."""
    a = 0.31  # inside the base step [6 dt, 7 dt]
    edge = DT * 4
    # a base edge of [0.5, 0.75] whose substep up to a jump one ulp later rounds
    later = next(e for e in 0.5 + DT * np.arange(1, 5) if rounds_onto_end(e, np.nextafter(e, 1)))
    ends = [(a, np.nextafter(a, 1.0)), (np.nextafter(edge, 0.0), edge),
            (np.nextafter(0.5, 0.0), 0.5), (later, np.nextafter(later, 1.0))]
    assert all(rounds_onto_end(start, end) for start, end in ends)
    paths = [two_state_path(jumps) for jumps in ends[:3]] + [two_state_path(ends[3][1:])]
    psi0 = np.array([initial_field(0.3 * b) for b in range(len(paths))])
    cfg = SolverConfig(dt=DT, sample_times=SAMPLE_TIMES, order=order)
    assert_rows_match_single(paths, psi0, cfg, None)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("epsilon,source", [(0.0, None), (0.3, adapted_source)])
def test_two_dimensional_batch_matches_single_path_march(order, epsilon, source):
    """A per-row kinetic phase on a d = 2 grid is transformed over each
    row's own two axes, never across the row axis."""
    grid = SpatialGrid(2, 16, 12.0)
    chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(grid, chi, epsilon=epsilon) if epsilon else None
    cfg = SolverConfig(dt=DT, sample_times=SAMPLE_TIMES, order=order,
                       epsilon=epsilon, source=source)
    paths = [two_state_path(j) for j in JUMPS.values()]
    psi0 = np.array([initial_field(0.3 * b, grid) for b in range(len(paths))])
    assert_rows_match_single(paths, psi0, cfg, kernel, family(grid))


# jump times anywhere in (0, 1), or on a base edge k dt, as the march computes it
JUMP_TIMES = st.one_of(st.floats(min_value=1e-3, max_value=0.999, allow_nan=False),
                       st.integers(min_value=1, max_value=19).map(lambda k: DT * k))


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.lists(JUMP_TIMES, max_size=6, unique=True), min_size=1, max_size=4),
       st.sampled_from([1, 2]), st.booleans())
def test_random_jump_sets_batch_invariant(jump_sets, order, hartree):
    paths = [two_state_path(sorted(j)) for j in jump_sets]
    psi0 = np.array([initial_field(0.5 * b) for b in range(len(paths))])
    epsilon = 0.3 if hartree else 0.0
    chi = shape_field(GRID, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(GRID, chi, epsilon=epsilon) if hartree else None
    cfg = SolverConfig(dt=DT, sample_times=np.array([0.25, 1.0]), order=order,
                       epsilon=epsilon)
    assert_rows_match_single(paths, psi0, cfg, kernel)


def ensemble_setup():
    well = shape_field(GRID, "sech2", amplitude=-2.0, width=1.0)
    fam = make_amplitude_family(well, well, [-1.0, 1.0], GRID)
    model = MarkovModel(np.array([[2.0, -2.0], [-2.0, 2.0]]),
                        initial_law=np.array([0.5, 0.5]))
    chi = shape_field(GRID, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(GRID, chi, epsilon=0.2)
    cfg = SolverConfig(dt=DT, sample_times=np.array([0.0, 0.5, 1.0]), epsilon=0.2)
    ecfg = EnsembleConfig(N=70, master_seed=9, horizon=1.0, store_density_matrix=True)
    return WaveField(GRID, initial_field()), fam, model, kernel, cfg, ecfg


def ensemble_outputs(tmp_path, name, workers=1):
    psi0, fam, model, kernel, cfg, ecfg = ensemble_setup()
    avg, series = run_ensemble(psi0, fam, model, kernel, cfg, ecfg, workers=workers)
    write_summary_json(tmp_path / name, avg, series, ecfg)
    arrays = {k: getattr(avg, k) for k in ("sums", "sums_sq", "counts", "outer_sums")}
    arrays.update({f.name: getattr(series, f.name) for f in dataclasses.fields(series)})
    return arrays, (tmp_path / name).read_bytes()


@pytest.mark.parametrize("rows,workers", [(1, 1), (64, 1), (70, 1), (1, 2), (64, 2)])
def test_ensemble_independent_of_batch_size_and_workers(tmp_path, monkeypatch,
                                                        rows, workers):
    reference, ref_summary = ensemble_outputs(tmp_path, "reference.json")
    monkeypatch.setattr(ensemble, "_BATCH_ROWS", rows)
    try:
        arrays, summary = ensemble_outputs(tmp_path, "batched.json", workers)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"process pool unavailable in this environment: {exc}")
    assert summary == ref_summary
    for name, value in reference.items():
        assert same_bits(arrays[name], value), name


def one_field_lorentz(values, p, q):
    """The Lorentz norm of one field, summed over its nonzero cells only."""
    mags = np.sort(np.abs(values))[::-1]
    t = GRID.cell_volume * np.arange(mags.size + 1, dtype=float)
    nz = mags > 0
    if not np.any(nz):
        return 0.0
    if q == np.inf:
        return float(np.max(t[1:][nz] ** (1.0 / p) * mags[nz]))
    increments = t[1:] ** (q / p) - t[:-1] ** (q / p)
    return float(((p / q) * np.sum(mags[nz] ** q * increments[nz])) ** (1.0 / q))


def test_row_norms_match_one_field_forms():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((40, GRID.size)) + 1j * rng.standard_normal((40, GRID.size))
    for b in range(1, GRID.size):
        rows[b, :b] = 0.0        # zero cells: the Lorentz sum skips them
    rows[-1] = 0.0               # an all-zero row
    rows[0, :16] = rows[0, 16:]  # ties in the rearrangement
    fields = [WaveField(GRID, r) for r in rows]
    for p in (1, 2, 3.5, np.inf):
        assert same_bits(lebesgue_norm_rows(GRID, rows, p),
                         [lebesgue_norm(f, p) for f in fields])
    assert same_bits(sum_norm_rows(GRID, rows), [sum_norm(f) for f in fields])
    for p, q in ((6.0, 2.0), (2.5, 1.5), (2.0, np.inf), (0.5, np.inf)):
        batched = lorentz_norm_rows(GRID, rows, p, q)
        assert same_bits(batched, [lorentz_norm(f, p, q) for f in fields])
        assert same_bits(batched, [one_field_lorentz(r, p, q) for r in rows])
        assert same_bits(batched[3:5], lorentz_norm_rows(GRID, rows[3:5], p, q))


def test_spectral_convolution_rows_and_one_axis_fast_path():
    rng = np.random.default_rng(4)
    chi = shape_field(GRID, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    dens = rng.random((5, GRID.size))
    chi_hat = convolution_spectrum(GRID, chi)
    batched = spectral_convolution(GRID, chi_hat, dens)
    for row, out in zip(dens, batched):
        assert same_bits(out, spectral_convolution(GRID, chi_hat, row))
        fftn_form = GRID.cell_volume * np.fft.ifftn(np.fft.fftn(chi) * np.fft.fftn(row))
        assert same_bits(out, fftn_form)
