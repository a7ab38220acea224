"""Batch invariance: a path marched in a lockstep batch, an ensemble reduced
from batches of any size, and a diagnostic taken along the row axis must
each be bitwise what the one-row computation gives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochnls import ensemble, propagator
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
from stochnls.markov import MarkovModel, PathSample, states_at
from stochnls.potential import (
    HartreeKernel,
    PotentialFamily,
    make_amplitude_family,
    make_translate_family,
    shape_field,
)
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


def state_at(path, t):
    """One path's state at one time."""
    return states_at([path], [t])[0, 0]


def two_state_path(jumps, horizon=1.0):
    jumps = np.asarray(jumps, dtype=float)
    return PathSample(horizon=horizon, jump_times=jumps,
                      states=np.arange(jumps.size + 1) % 2, seed=(0,))


def family(grid=GRID):
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    return make_amplitude_family(well, well, [-1.0, 1.0], grid)


def translate_family(grid=GRID):
    """The well and its shift by a quarter of the box along every axis."""
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    return make_translate_family(well, grid, [(0,) * grid.dim,
                                              (grid.points_per_axis // 4,) * grid.dim])


def initial_field(shift=0.0, grid=GRID):
    x = grid.offsets(0.0)[0]
    return np.exp(-((x - shift) ** 2) / 2).astype(complex)


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


def plain_march(psi0, fam, path, kernel, cfg, frozen=None):
    """One path marched by itself over each interval's own jump-cut edges:
    the per-path scheme the lockstep march must reproduce bit for bit.
    frozen(t_mid), if given, is a field added to the potential, as Picard's
    frozen Hartree field is.  A row that marches on the even half takes the
    Hartree field of its even half, as the march gives it."""
    grid = fam.grid
    even = propagator._even_rows(grid, fam.V, psi0.reshape(1, -1))

    def kick(tau, t_mid, vals):
        pot = fam.V[[state_at(path, t_mid)]]
        if kernel is not None:
            pot = pot + propagator._hartree_rows(grid, vals, kernel, even=even)
        if frozen is not None:
            pot = pot + frozen(t_mid)
        return vals * np.exp(1j * tau * pot.reshape(vals.shape))

    vals, t, out = psi0.reshape(1, *grid.shape).copy(), 0.0, []
    for target in cfg.sample_times:
        if target > 0:
            jumps = path.jump_times[(path.jump_times > t) & (path.jump_times < target)]
            edges = np.unique(np.concatenate((_interval_edges(t, target, cfg.dt), jumps)))
            vals = march_interval(grid, cfg.order, vals, edges, kick)
            t = target
        out.append(vals.reshape(-1))
    return np.array(out)


def assert_rows_match_alone(paths, psi0, cfg, kernel, fam):
    """Each row of one batched solve against evolve_path on that row alone."""
    fields, states, scalars = evolve_paths(psi0, fam, paths, kernel, cfg)
    for b, path in enumerate(paths):
        alone = evolve_path(WaveField(fam.grid, psi0[b]), fam, path, kernel, cfg)
        assert same_bits(fields[b], alone.fields)
        assert same_bits(states[b], alone.states)
        for name, series in scalars.items():
            assert same_bits(series[b], alone.scalars[name]), name
    return fields


def assert_rows_match_single(paths, psi0, cfg, kernel, fam=None):
    """Each row of one batched march against evolve_path on that row alone,
    and against the plain per-path march."""
    fam = family() if fam is None else fam
    fields = assert_rows_match_alone(paths, psi0, cfg, kernel, fam)
    for b, path in enumerate(paths):
        assert same_bits(fields[b], plain_march(psi0[b], fam, path, kernel, cfg))


def test_edge_cases_are_what_they_say():
    edges = [_interval_edges(t0, t1, DT) for t0, t1 in zip(SAMPLE_TIMES, SAMPLE_TIMES[1:])]
    on_edge = JUMPS["on-base-edge"]
    assert on_edge[0] in edges[0][1:-1] and on_edge[1] in edges[1][1:-1]
    assert edges[0][1] < JUMPS["next-step-cut"][0] < edges[0][2]
    late, early = JUMPS["across-intervals"]
    assert edges[0][-2] < late < edges[0][-1] and edges[1][0] < early < edges[1][1]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("epsilon", [0.0, 0.3])
@pytest.mark.parametrize("make_family", [None, translate_family])
def test_batched_rows_match_single_path_march(order, epsilon, make_family):
    """make_family None marches the amplitude family."""
    fam = None if make_family is None else make_family(GRID)
    chi = shape_field(GRID, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(GRID, chi, epsilon=epsilon) if epsilon else None
    cfg = SolverConfig(dt=DT, sample_times=SAMPLE_TIMES, order=order, epsilon=epsilon)
    paths = [two_state_path(j) for j in JUMPS.values()]
    psi0 = np.array([initial_field(0.3 * b) for b in range(len(paths))])
    for rows in ([[b] for b in range(len(paths))],                       # 1 row
                 [[b, (b + 1) % len(paths)] for b in range(len(paths))],  # 2 rows
                 [list(range(len(paths)))]):                              # all rows
        for batch in rows:
            assert_rows_match_single([paths[b] for b in batch], psi0[batch], cfg, kernel, fam)


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
    x = grid.offsets(0.0)[0]
    psi0 = np.array([np.exp(-((x - 0.01 * b) ** 2)) for b in range(B)], dtype=complex)
    fields, _, _ = evolve_paths(psi0, fam, paths, kernel, cfg)
    for b in (0, 1, B - 1):
        alone = evolve_path(WaveField(grid, psi0[b]), fam, paths[b], kernel, cfg)
        assert same_bits(fields[b], alone.fields)


def rounds_onto_end(start, end):
    return start + 0.5 * (end - start) == end


@pytest.mark.parametrize("order", [1, 2])
def test_substeps_shorter_than_an_ulp_follow_state_at(order):
    """A substep one ulp long has its midpoint rounded onto its end, where
    the state lookup already counts the jump there: the march must see that
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
@pytest.mark.parametrize("epsilon,make_family", [(0.0, None), (0.3, translate_family)])
def test_two_dimensional_batch_matches_single_path_march(order, epsilon, make_family):
    """A per-row kinetic phase on a d = 2 grid is transformed over each
    row's own two axes, never across the row axis.  make_family None
    marches the amplitude family."""
    grid = SpatialGrid(2, 16, 12.0)
    chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(grid, chi, epsilon=epsilon) if epsilon else None
    cfg = SolverConfig(dt=DT, sample_times=SAMPLE_TIMES, order=order, epsilon=epsilon)
    paths = [two_state_path(j) for j in JUMPS.values()]
    psi0 = np.array([initial_field(0.3 * b, grid) for b in range(len(paths))])
    assert_rows_match_single(paths, psi0, cfg, kernel, (make_family or family)(grid))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("hartree", [False, True])
def test_every_base_edge_a_sample_time(order, hartree):
    """Picard's dense schedule: each interval is one base step, so a jump on
    a base edge ends an interval, and a cut step is a whole interval."""
    epsilon = 0.3 if hartree else 0.0
    chi = shape_field(GRID, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(GRID, chi, epsilon=epsilon) if hartree else None
    dense = DT * np.arange(21)
    dense[-1] = 1.0
    cfg = SolverConfig(dt=DT, sample_times=dense, order=order, epsilon=epsilon)
    jump_sets = [*JUMPS.values(), [dense[4], dense[5], 0.33, dense[13]]]
    paths = [two_state_path(j) for j in jump_sets]
    assert any(set(j) & set(dense) for j in jump_sets)
    psi0 = np.array([initial_field(0.3 * b) for b in range(len(paths))])
    assert_rows_match_single(paths, psi0, cfg, kernel)


@pytest.mark.parametrize("order", [1, 2])
def test_picard_iterates_match_plain_frozen_march(order):
    """Iterates 2 and 3 of picard_sequence, bit for bit, against the plain
    march of the dense schedule kicked with the previous iterate's Hartree
    field, interpolated linearly in time between its per-step fields.  Every
    interval of the dense schedule is one base step: a path that jumps inside
    some of them takes the cut schedule there, and a path without jumps takes
    the empty schedule, and its shared midpoints, everywhere."""
    n_total = int(round(SAMPLE_TIMES[-1] / DT))
    dense = DT * np.arange(n_total + 1)
    dense[-1] = SAMPLE_TIMES[-1]
    assert not set(JUMPS["many"]) & set(dense)  # every jump inside an interval
    for jumps in (JUMPS["many"], JUMPS["none"]):
        assert_picard_matches_plain_march(two_state_path(jumps), order, dense)


def assert_picard_matches_plain_march(path, order, dense):
    epsilon = 0.3
    chi = shape_field(GRID, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(GRID, chi, epsilon=epsilon)
    cfg = SolverConfig(dt=DT, sample_times=SAMPLE_TIMES, order=order, epsilon=epsilon)
    psi0 = initial_field()
    result = propagator.picard_sequence(WaveField(GRID, psi0), family(), path, kernel, cfg,
                                        n_iters=3)
    n_total = dense.size - 1
    dense_cfg = SolverConfig(dt=DT, sample_times=dense, order=order)
    sample_idx = np.rint(SAMPLE_TIMES / DT).astype(int)
    prev = plain_march(psi0, family(), path, None, dense_cfg)  # iterate 1: nothing frozen
    assert same_bits(result.fields[0], prev[sample_idx])
    for n in (1, 2):
        fields = [hartree_potential(WaveField(GRID, row), kernel) for row in prev]

        def frozen(t_mid):
            x = min(max(t_mid / DT, 0.0), n_total - 1e-9)
            j = int(x)
            w = x - j
            return (1.0 - w) * fields[j] + w * fields[min(j + 1, n_total)]
        prev = plain_march(psi0, family(), path, None, dense_cfg, frozen)
        assert same_bits(result.fields[n], prev[sample_idx])
    assert not np.array_equal(result.fields[1], result.fields[0])


# jump times anywhere in (0, 1), or on a base edge k dt, as the march computes it
JUMP_TIMES = st.one_of(st.floats(min_value=1e-3, max_value=0.999, allow_nan=False),
                       st.integers(min_value=1, max_value=19).map(lambda k: DT * k))


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([32, 64]), st.floats(min_value=-1.0, max_value=1.0).filter(bool),
       st.sampled_from([0.02, 0.05, 0.1]), st.sampled_from([1, 2]),
       st.lists(JUMP_TIMES, max_size=4, unique=True), st.integers(min_value=2, max_value=4))
def test_hartree_rows_on_one_path_batch_invariant(n, epsilon, dt, order, jumps, B):
    """Copies of one path with different initial rows, as C10's Lipschitz
    solves march them: each row of the batch is bitwise the row alone."""
    grid = SpatialGrid(1, n, 20.0)
    chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(grid, chi, epsilon=epsilon)
    cfg = SolverConfig(dt=dt, sample_times=np.array([0.5, 1.0]), order=order, epsilon=epsilon)
    bump = shape_field(grid, "gaussian", amplitude=1.0, width=1.5, center=2.0)
    psi0 = np.array([initial_field(grid=grid) + delta * bump
                     for delta in (0.0, 1e-2, 1e-3, 0.5)[:B]])
    assert_rows_match_alone([two_state_path(sorted(jumps))] * B, psi0, cfg, kernel,
                            family(grid))


def test_c10_lipschitz_constants_match_serial_solves():
    """C10 marches its base and perturbed solves as one batch: its constants
    must be those of the three solves run one at a time, byte for byte."""
    from stochnls import verify
    from stochnls.diagnostics import strichartz_norm
    from stochnls.markov import sample_path

    seed = 7
    entry = verify.c10_picard(verify.DEFAULT_SCALE, seed)
    grid = SpatialGrid(1, 128, 30.0)
    fam, path = verify._switching_family(grid), sample_path(verify._two_state_model(), 1.0,
                                                            seed=(seed, 0))
    psi0 = verify._centered_gaussian(grid)
    chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(grid, chi, epsilon=verify.EPSILON_SMALL)
    cfg = SolverConfig(dt=0.02, sample_times=np.linspace(0.1, 1.0, 10),
                       epsilon=verify.EPSILON_SMALL)
    bump = shape_field(grid, "gaussian", amplitude=1.0, width=1.5,
                       center=grid.box_length / 2 + 2.0).astype(complex)
    bump /= np.sqrt(grid.cell_volume * np.sum(np.abs(bump) ** 2))
    base = evolve_path(psi0, fam, path, kernel, cfg)
    want = {}
    for delta in (1e-2, 1e-3):
        out = evolve_path(WaveField(grid, psi0.values + delta * bump), fam, path, kernel, cfg)
        want[str(delta)] = strichartz_norm(grid, out.fields - base.fields, dt=0.1, p_t=2,
                                           space_exponents=(6.0, 2.0)) / delta
    assert list(entry["lipschitz_constants"]) == list(want)
    for key, value in want.items():
        assert same_bits(entry["lipschitz_constants"][key], value), key


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


# The eigenbasis engine's regime: at this grid and dt the Strang step's
# phases span 1.05 rad, under propagator._ARC_LIMIT, where GRID at DT spans
# 3.71 rad, so every test above stays on the march.
ENGINE_GRID = SpatialGrid(1, 64, 20.0)
ENGINE_DT = 0.01
# base steps of [0, 0.5] are [0, 0.01], ..., [0.49, 0.5]
ENGINE_JUMPS = {
    "none": [],
    "first-step": [0.003],
    "last-step": [0.497],
    "two-in-one-step": [0.613, 0.617],
    "on-sample-time": [0.5],
    "many": [0.003, 0.26, 0.493, 0.52, 0.97],
    # the base edges 0 + 30 dt and 0.5 + 12 dt, as the march computes them
    "on-base-edge": [ENGINE_DT * 30, 0.5 + ENGINE_DT * 12],
    "next-step-cut": [0.013],
    "across-intervals": [0.497, 0.503],
    "round-per-step": [0.203, 0.213, 0.226, 0.234],
}


def sub_ulp_jump_sets():
    """Substeps one ulp long whose midpoints round onto their ends: inside a
    base step, onto a base edge and onto a sample time, each end a jump."""
    inside = next(a for a in 0.311 + 1e-4 * np.arange(20)
                  if rounds_onto_end(a, np.nextafter(a, 1.0)))
    edge = next(e for e in ENGINE_DT * np.arange(31, 49)
                if rounds_onto_end(np.nextafter(e, 0.0), e))
    sets = [[inside, np.nextafter(inside, 1.0)], [np.nextafter(edge, 0.0), edge],
            [np.nextafter(0.5, 0.0), 0.5]]
    assert all(rounds_onto_end(*pair) for pair in sets)
    return sets


def record_engines(monkeypatch):
    """A list that names the engine each evolve_paths call marches on."""
    used = []
    for name in ("_march", "_march_eigenbasis"):
        engine = getattr(propagator, name)

        def spy(*args, _engine=engine, _name=name):
            used.append(_name)
            return _engine(*args)
        monkeypatch.setattr(propagator, name, spy)
    return used


def test_engine_edge_cases_are_what_they_say():
    edges = [_interval_edges(t0, t1, ENGINE_DT) for t0, t1 in zip(SAMPLE_TIMES, SAMPLE_TIMES[1:])]
    on_edge = ENGINE_JUMPS["on-base-edge"]
    assert on_edge[0] in edges[0][1:-1] and on_edge[1] in edges[1][1:-1]
    late, early = ENGINE_JUMPS["across-intervals"]
    assert edges[0][-2] < late < edges[0][-1] and edges[1][0] < early < edges[1][1]
    first, second = ENGINE_JUMPS["two-in-one-step"]
    assert np.searchsorted(edges[2], first) == np.searchsorted(edges[2], second)
    rounds = np.searchsorted(edges[0], ENGINE_JUMPS["round-per-step"])
    assert np.all(np.diff(rounds) == 1)  # one jump in each of consecutive steps
    assert propagator._step_arc(ENGINE_GRID, family(ENGINE_GRID).V, ENGINE_DT) \
        < propagator._ARC_LIMIT < propagator._step_arc(GRID, family().V, DT)


def constant_family(grid=GRID):
    """Two spatially constant states V_y = c_y: the engine's DFT basis."""
    return PotentialFamily(grid, np.outer([0.4, -0.9], np.ones(grid.size)))


def test_eigenbasis_rows_match_single_path(monkeypatch):
    """The engine's jump rounds, head and tail substeps and per-state runs
    (dgemms, or FFT multiplies for constant rows) on 1, 2, 3 and all rows
    of one batch, each row against itself alone."""
    used = record_engines(monkeypatch)
    jump_sets = [*ENGINE_JUMPS.values(), *sub_ulp_jump_sets()]
    paths = [two_state_path(j) for j in jump_sets]
    psi0 = np.array([initial_field(0.3 * b, ENGINE_GRID) for b in range(len(paths))])
    cfg = SolverConfig(dt=ENGINE_DT, sample_times=SAMPLE_TIMES)
    B = len(paths)
    for fam in (family(ENGINE_GRID), constant_family(ENGINE_GRID)):
        for batches in ([[b, (b + 1) % B] for b in range(B)],
                        [[b, (b + 5) % B, (b + 9) % B] for b in range(B)],
                        [list(range(B))]):
            for batch in batches:
                assert_rows_match_alone([paths[b] for b in batch], psi0[batch], cfg, None, fam)
    assert set(used) == {"_march_eigenbasis"}


def test_eigenbasis_rows_of_a_large_batch_match_single_path(monkeypatch):
    """260 rows, 520 stacked real rows in a dgemm and operands over 256 KiB,
    with jumps that cut the rows into runs of different lengths."""
    used = record_engines(monkeypatch)
    fam = family(ENGINE_GRID)
    cfg = SolverConfig(dt=ENGINE_DT, sample_times=np.array([0.1, 0.2]))
    B = 260
    paths = [two_state_path([] if b % 3 else [0.0123 + 1e-3 * (b % 7)]) for b in range(B)]
    x = ENGINE_GRID.offsets(0.0)[0]
    psi0 = np.array([np.exp(-((x - 0.01 * b) ** 2)) for b in range(B)], dtype=complex)
    fields, _, _ = evolve_paths(psi0, fam, paths, None, cfg)
    for b in (0, 1, 3, B - 1):
        alone = evolve_path(WaveField(ENGINE_GRID, psi0[b]), fam, paths[b], None, cfg)
        assert same_bits(fields[b], alone.fields)
    assert used == ["_march_eigenbasis"] * 5


def test_eigenbasis_rows_at_the_size_cap_match_single_path(monkeypatch):
    """At n = 512 a dgemm of two or three rows differs from the same rows
    inside a larger one: one row alone, two rows and three rows in one
    state must still give each row's bits."""
    used = record_engines(monkeypatch)
    grid = SpatialGrid(1, propagator._EIGEN_N_CAP, 120.0)
    cfg = SolverConfig(dt=ENGINE_DT, sample_times=np.array([0.05, 0.1]))
    paths = [two_state_path([], horizon=0.1), two_state_path([], horizon=0.1),
             two_state_path([0.073], horizon=0.1)]
    psi0 = np.array([initial_field(0.3 * b, grid) for b in range(len(paths))])
    for batch in ([0, 1], [0, 1, 2]):
        assert_rows_match_alone([paths[b] for b in batch], psi0[batch], cfg, None, family(grid))
    assert set(used) == {"_march_eigenbasis"}


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


def engine_ensemble_setup():
    """Linear rows in the eigenbasis engine's regime."""
    fam = family(ENGINE_GRID)
    model = MarkovModel(np.array([[2.0, -2.0], [-2.0, 2.0]]),
                        initial_law=np.array([0.5, 0.5]))
    cfg = SolverConfig(dt=ENGINE_DT, sample_times=np.array([0.0, 0.25, 0.5]))
    ecfg = EnsembleConfig(N=40, master_seed=9, horizon=0.5, store_density_matrix=True)
    return WaveField(ENGINE_GRID, initial_field(grid=ENGINE_GRID)), fam, model, None, cfg, ecfg


def ensemble_outputs(tmp_path, name, workers=1, setup=ensemble_setup):
    psi0, fam, model, kernel, cfg, ecfg = setup()
    avg, series = run_ensemble(psi0, fam, model, kernel, cfg, ecfg, workers=workers)
    write_summary_json(tmp_path / name, avg, series, ecfg)
    arrays = {k: getattr(avg, k) for k in ("sums", "sums_sq", "counts", "outer_sums")}
    arrays.update({f.name: getattr(series, f.name) for f in dataclasses.fields(series)})
    return arrays, (tmp_path / name).read_bytes()


@pytest.mark.parametrize("rows,workers", [(1, 1), (64, 1), (70, 1), (1, 2), (64, 2)])
def test_ensemble_independent_of_batch_size_and_workers(tmp_path, monkeypatch,
                                                        rows, workers):
    monkeypatch.setattr(ensemble, "_CHUNK", 16)  # chunks that straddle batches
    reference, ref_summary = ensemble_outputs(tmp_path, "reference.json")
    monkeypatch.setattr(ensemble, "_BATCH_ROWS", rows)
    try:
        arrays, summary = ensemble_outputs(tmp_path, "batched.json", workers)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"process pool unavailable in this environment: {exc}")
    assert summary == ref_summary
    for name, value in reference.items():
        assert same_bits(arrays[name], value), name


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [1, 2, 7, 40])
def test_eigenbasis_ensemble_independent_of_batch_size_and_workers(tmp_path, monkeypatch,
                                                                   rows, workers):
    monkeypatch.setattr(ensemble, "_CHUNK", 16)
    reference, ref_summary = ensemble_outputs(tmp_path, "reference.json",
                                              setup=engine_ensemble_setup)
    monkeypatch.setattr(ensemble, "_BATCH_ROWS", rows)
    try:
        arrays, summary = ensemble_outputs(tmp_path, "batched.json", workers,
                                           setup=engine_ensemble_setup)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"process pool unavailable in this environment: {exc}")
    assert summary == ref_summary
    for name, value in reference.items():
        assert same_bits(arrays[name], value), name


def reduce_one_sample_at_a_time(states, fields, m):
    """The path-order reference: each (path, sample) added on its own.  Also
    returns sum_i |psi_i(a)| |psi_i(b)| per bin, the scale of the outer
    sums' rounding."""
    T, size = fields.shape[1:]
    sums = np.zeros((T, m, size), dtype=complex)
    sums_sq = np.zeros((T, m, size))
    counts = np.zeros((T, m), dtype=np.int64)
    outer = np.zeros((T, m, size, size), dtype=complex)
    outer_abs = np.zeros((T, m, size, size))
    for path_states, path_fields in zip(states, fields):
        for j, (y, vals) in enumerate(zip(path_states, path_fields)):
            sums[j, y] += vals
            sums_sq[j, y] += np.abs(vals) ** 2
            counts[j, y] += 1
            outer[j, y] += np.outer(vals, vals.conj())
            outer_abs[j, y] += np.outer(np.abs(vals), np.abs(vals))
    return sums, sums_sq, counts, outer, outer_abs


def check_reduce(N, rows):
    """sums, sums_sq, counts, states and scalars bitwise as the path-order
    reference; outer_sums within the forward error bound of any order of
    the k terms of a bin, 2 (k + 2) eps sum_i |psi_i(a)| |psi_i(b)|."""
    rng = np.random.default_rng(8)
    T, m, size = 5, 3, GRID.size
    states = rng.integers(0, m, size=(N, T))
    scale = 10.0 ** rng.uniform(-3, 3, size=(N, T, 1))  # sums that round
    fields = scale * (rng.standard_normal((N, T, size))
                      + 1j * rng.standard_normal((N, T, size)))
    scalar = rng.standard_normal((N, T))
    sums = np.zeros((T, m, size), dtype=complex)
    sums_sq = np.zeros((T, m, size))
    counts = np.zeros((T, m), dtype=np.int64)
    outer = np.zeros((T, m, size, size), dtype=complex)
    out_states, out_scalar = np.empty_like(states), np.empty_like(scalar)
    batches = [(lo, (states[lo:lo + rows], fields[lo:lo + rows], {"x": scalar[lo:lo + rows]}))
               for lo in range(0, N, rows)]
    ensemble._reduce(batches, sums, sums_sq, counts, outer, out_states, {"x": out_scalar})
    *want, want_outer, outer_abs = reduce_one_sample_at_a_time(states, fields, m)
    for got, expected in zip((sums, sums_sq, counts), want):
        assert same_bits(got, expected)
    assert same_bits(out_states, states) and same_bits(out_scalar, scalar)
    k = counts[:, :, None, None]
    bound = 2 * (k + 2) * np.finfo(float).eps * outer_abs
    assert np.all(np.abs(outer - want_outer) <= bound)
    return outer


@pytest.mark.parametrize("rows", [1, 3, 23])
def test_reduce_matches_one_sample_at_a_time(rows):
    check_reduce(23, rows)


def test_outer_sums_over_chunks_independent_of_row_cap():
    # 300 paths are chunks [0, 128), [128, 256), [256, 300); row caps 7 and
    # 100 cut chunks across batches, and 1 cuts every chunk into 1-row pieces
    outers = [check_reduce(300, rows) for rows in (300, 1, 7, 100, 256)]
    assert all(same_bits(outer, outers[0]) for outer in outers[1:])


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


def one_field_sum_norm(values):
    """The sum norm of one field threshold by threshold: the min over lam in
    {0} and the |f_i| of ||f 1_{|f| > lam}||_2 + lam, each kept set's
    squares summed in decreasing order."""
    mags = np.sort(np.abs(values))[::-1]
    prefix = np.concatenate(([0.0], np.cumsum(mags**2) * GRID.cell_volume))
    return min(np.sqrt(prefix[np.count_nonzero(mags > lam)]) + lam for lam in [0.0, *mags])


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
    # moduli tied in groups of eight, besides rows[0]'s pairs and the zero cells
    ties = np.vstack((rows, np.repeat(rng.random(4), 8) * np.tile([1, -1, 1j, -1j], 8)))
    assert same_bits(sum_norm_rows(GRID, ties), [one_field_sum_norm(r) for r in ties])
    for p, q in ((6.0, 2.0), (2.5, 1.5), (2.0, np.inf), (0.5, np.inf)):
        batched = lorentz_norm_rows(GRID, rows, p, q)
        assert same_bits(batched, [lorentz_norm(f, p, q) for f in fields])
        assert same_bits(batched, [one_field_lorentz(r, p, q) for r in rows])
        assert same_bits(batched[3:5], lorentz_norm_rows(GRID, rows[3:5], p, q))


def direct_convolution(grid, a, b):
    """h^d sum_y a(x - y) b(y) of flat fields on a grid of one or two axes,
    summed directly, O(n^2d): along the last axis by a circulant matrix,
    and (two axes) over the first axis's n offsets."""
    n = grid.points_per_axis
    circulant = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    a, b = a.reshape(-1, n), b.reshape(-1, n)
    conv = sum(np.roll(b, s, axis=0) @ a[s][circulant].T for s in range(len(a)))
    return grid.cell_volume * conv.reshape(-1)


def test_spectral_convolution_rows_and_one_axis_fast_path():
    rng = np.random.default_rng(4)
    for grid in (GRID, SpatialGrid(2, 8, 6.0)):
        chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
        skew = rng.random(grid.size)  # not even: the half spectrum keeps its phase
        dens = rng.random((5, grid.size))
        for a in (chi, skew):
            a_hat = convolution_spectrum(grid, a)
            batched = spectral_convolution(grid, a_hat, dens)
            assert batched.dtype == np.float64 and batched.shape == dens.shape
            for row, out in zip(dens, batched):
                assert same_bits(out, spectral_convolution(grid, a_hat, row))
                oracle = direct_convolution(grid, a, row)
                assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(np.abs(oracle))
                # one axis takes the plain pair, bitwise the rfftn/irfftn form
                a_grid, row_grid = a.reshape(grid.shape), row.reshape(grid.shape)
                rfftn_form = grid.cell_volume * np.fft.irfftn(
                    np.fft.rfftn(a_grid) * np.fft.rfftn(row_grid), s=grid.shape,
                    axes=tuple(range(grid.dim)))
                assert same_bits(out, rfftn_form.reshape(-1))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([32, 64]), st.sampled_from([1, 2]), st.sampled_from([1, 2]),
       st.sampled_from([0.01, 0.02, 0.05]), st.sampled_from([0.0, 0.05, 0.3]))
def test_hartree_rows_keep_their_norm_and_energy(n, dim, order, dt, epsilon):
    """Unitarity with the Hartree term on or off, row by row in a batch that
    mixes shared and jump-cut steps; the sampled Hartree energy against the
    direct double sum (eps/4) h^d sum_x (chi * rho)(x) rho(x), exactly 0
    with the term off."""
    grid = SpatialGrid(dim, n, 12.0)
    chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(grid, chi, epsilon=epsilon)
    cfg = SolverConfig(dt=dt, sample_times=np.array([0.0, 0.1, 0.2]), order=order,
                       epsilon=epsilon)
    paths = [two_state_path(j) for j in ([], [0.03], [0.07, 0.15])]
    r2 = sum(c**2 for c in grid.offsets(0.0))
    x = grid.offsets(0.0)[0]
    psi0 = np.array([np.exp(-r2 / (2 + b) + 1j * b * x) for b in range(len(paths))])
    fields, _, scalars = evolve_paths(psi0, family(grid), paths, kernel, cfg)
    l2 = scalars["l2"]
    assert np.all(np.abs(l2 - l2[:, :1]) <= 1e-10 * l2[:, :1])
    for row, energy in zip(np.abs(fields[:, -1]) ** 2, scalars["energy_hartree"][:, -1]):
        oracle = 0.25 * epsilon * grid.cell_volume * np.sum(
            direct_convolution(grid, chi, row) * row)
        assert abs(energy - oracle) <= 1e-12 * oracle
    assert np.all(scalars["energy_hartree"] == 0.0) == (epsilon == 0.0)


def even_or_shifted_row(grid, where):
    """A Gaussian about 0 or about L/2, both even under the reflection, or
    (any other where) a bump shifted off both, which is not."""
    centers = {"0": 0.0, "L/2": grid.box_length / 2}
    x = grid.offsets(centers.get(where, 0.0))[0]
    return np.exp(-((x - (0.0 if where in centers else 0.7)) ** 2) / 2).astype(complex)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([32, 64]), st.sampled_from([1, 2]), st.sampled_from([0.0, 0.3]),
       st.lists(st.sampled_from(["0", "L/2", "shifted"]), min_size=2, max_size=5),
       st.lists(st.lists(JUMP_TIMES, max_size=3, unique=True), min_size=5, max_size=5),
       st.sampled_from([family, translate_family]))
def test_mixed_even_and_uneven_rows_batch_invariant(n, order, epsilon, rows, jump_sets,
                                                    make_family):
    """A batch that mixes rows on the even half (an even family and even
    rows: the even step basis, or the even Hartree field) with uneven rows
    (the full basis, or the transform pair): each row is bitwise its lone
    march, and run_ensemble's bytes do not depend on the row cap (7 against
    256) or the worker count.  In the translate family, which is not even,
    every row is uneven.  At dt = 0.01 linear Strang rows take the
    eigenbasis engine, Lie and Hartree rows the march."""
    grid = SpatialGrid(1, n, 20.0)
    chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(grid, chi, epsilon=epsilon) if epsilon else None
    cfg = SolverConfig(dt=ENGINE_DT, sample_times=np.array([0.25, 1.0]), order=order,
                       epsilon=epsilon)
    fam = make_family(grid)
    psi0 = np.array([even_or_shifted_row(grid, where) for where in rows])
    even = propagator._even_rows(grid, fam.V, psi0)
    assert list(even) == [where != "shifted" and make_family is family for where in rows]
    paths = [two_state_path(sorted(jump_sets[b])) for b in range(len(rows))]
    assert_rows_match_alone(paths, psi0, cfg, kernel, fam)

    model = MarkovModel(np.array([[2.0, -2.0], [-2.0, 2.0]]), initial_law=np.array([0.5, 0.5]))
    ecfg = EnsembleConfig(N=16, master_seed=3, horizon=1.0, store_density_matrix=True)
    law = WaveField(grid, psi0[0])

    def ensemble_bytes(batch_rows, workers):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ensemble, "_BATCH_ROWS", batch_rows)
            avg, series = run_ensemble(law, fam, model, kernel, cfg, ecfg, workers=workers)
        arrays = [avg.sums, avg.sums_sq, avg.counts, avg.outer_sums]
        return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays) + b"".join(
            getattr(series, f.name).tobytes() for f in dataclasses.fields(series))

    reference = ensemble_bytes(256, 1)
    assert ensemble_bytes(7, 1) == reference
    try:
        assert ensemble_bytes(7, 2) == reference
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"process pool unavailable in this environment: {exc}")
