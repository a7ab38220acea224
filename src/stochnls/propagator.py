"""Per-path mild-solution solver for the random Schrodinger equation.

The equation solved along a fixed Markov path omega is

    i psi_t - Lap psi + V(x, omega(t)) psi + eps (chi * |psi|^2) psi + Src = 0,

whose Duhamel form is

    psi(t) = U(t) psi0 + i int_0^t U(t-s) [V psi + eps (chi*|psi|^2) psi + Src] ds,

with U(t) the free flow, a spectral multiplier exp(+i t |k|^2).  Note the
sign convention: the Laplacian enters with a minus sign on the left, so
the kinetic phase is exp(+i dt |k|^2) and the potential phase is
exp(+i dt V).  Getting either sign wrong flips the direction of dispersion
and is caught by the free-Gaussian oracle test.

Stepping is split-step spectral (Lie or Strang).  Steps are subdivided
exactly at the path's jump times, so within every substep the potential is
autonomous and each factor is an exact phase; the evolution is therefore
exactly unitary (up to roundoff) whenever no source is present.  Many paths
march together as the rows of one array (:func:`evolve_paths`): all rows
take each base step at once, a row cut by a jump with its own substep
lengths, and the later substeps of cut steps march as sub-batches.  Each
row is bitwise what marching its path alone gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .diagnostics import energy_rows
from .grid import SpatialGrid, WaveField, apply_multiplier, free_flow, kinetic_phase, \
    laplacian_symbol, lebesgue_norm, lebesgue_norm_rows, spectral_convolution, sum_norm_rows
from .markov import PathSample, state_at
from .potential import HartreeKernel, PotentialFamily, realize

# Not used here: the benchmark's tracer (perfbench/layers.py) wraps these
# one-field diagnostics under this module's names.
from .diagnostics import energy_breakdown  # noqa: F401
from .grid import sum_norm  # noqa: F401

__all__ = [
    "SolverConfig",
    "TrajectoryOutput",
    "evolve_path",
    "evolve_paths",
    "duhamel_residual",
    "hartree_potential",
    "picard_sequence",
    "PicardResult",
    "wave_operator_estimate",
    "dump_snapshot",
    "load_snapshot",
    "write_scalars_csv",
]

SNAPSHOT_MAGIC = b"WFLD"


@dataclass
class SolverConfig:
    """Step size, splitting order, coupling, source and output times.

    `source(grid, t, path_prefix)` must return the inhomogeneity evaluated
    at time t; the solver hands it only the path restricted to [0, t], so
    an adapted source cannot peek at future jumps.
    """

    dt: float
    sample_times: np.ndarray
    order: int = 2
    epsilon: float = 0.0
    source: Callable[[SpatialGrid, float, PathSample], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 (Lie) or 2 (Strang)")
        self.sample_times = np.asarray(self.sample_times, dtype=float)
        if self.sample_times.size == 0 or np.any(np.diff(self.sample_times) <= 0):
            raise ValueError("sample_times must be a nonempty increasing list")
        if self.sample_times[0] < 0:
            raise ValueError("sample_times must start at t >= 0")
        gaps = np.diff(np.concatenate(([0.0], self.sample_times)))
        steps = np.rint(gaps / self.dt)
        if np.max(np.abs(gaps - steps * self.dt), initial=0.0) > 1e-12 * max(1.0, self.dt):
            raise ValueError("dt must divide the gaps between sample times")


@dataclass
class TrajectoryOutput:
    """Snapshots at the sample times plus per-time scalar series."""

    grid: SpatialGrid
    sample_times: np.ndarray
    snapshots: list[WaveField]
    states: np.ndarray
    scalars: dict[str, np.ndarray] = field(repr=False)

    def snapshot_at(self, t: float) -> WaveField:
        idx = np.flatnonzero(np.abs(self.sample_times - t) <= 1e-12)
        if idx.size != 1:
            raise ValueError(f"t={t} is not a sample time")
        return self.snapshots[int(idx[0])]


def hartree_potential(psi: WaveField, kernel: HartreeKernel) -> np.ndarray:
    """eps * (chi convolved with |psi|^2) as a real field.

    chi is even (checked once, to 1e-12, when the kernel is built); the
    convolution of real even chi with the real density has vanishing
    imaginary part, which is verified and then discarded.
    """
    if kernel.epsilon == 0.0:
        return np.zeros(psi.grid.size)
    return _hartree_rows(psi.grid, psi.values[None], kernel)[0]


def _hartree_rows(grid: SpatialGrid, values: np.ndarray, kernel: HartreeKernel) -> np.ndarray:
    """:func:`hartree_potential` of each row of values, shape (B, ...), as
    (B, grid.size); one row-wise convolution, the imaginary part checked
    per row."""
    conv = spectral_convolution(grid, kernel.chi_spectrum,
                                np.abs(values.reshape(len(values), -1)) ** 2)
    bound = 1e-12 * np.maximum(1.0, np.max(np.abs(conv.real), axis=-1))
    if np.any(np.max(np.abs(conv.imag), axis=-1) > bound):
        raise ValueError("hartree potential has unexpected imaginary part")
    return kernel.epsilon * conv.real


def _interval_edges(t0: float, t1: float, dt: float) -> np.ndarray:
    """The base step boundaries over [t0, t1]: t0, t0 + dt, ..., t1."""
    n_steps = int(round((t1 - t0) / dt))
    return np.concatenate(([t0], t0 + dt * np.arange(1, max(n_steps, 1)), [t1]))


def _cut_schedule(edges: np.ndarray, order: int, y_start: np.ndarray, r: np.ndarray,
                  tj: np.ndarray, y_entered: np.ndarray):
    """The substeps of an interval's base steps, cut at the rows' jumps.

    y_start holds each row's state at the interval's start; r, tj and
    y_entered the row, time and entered state of each jump in (start, end],
    by row and then time.  Returns over (rows, base steps): substep 0's
    state (and the state at the end), length and Strang hop (else None);
    the rows a jump cuts; the rows whose free flow after substep 0 is their
    own (for Strang, also rows cut in the next step); and per cut step its
    later substeps, slot by slot, as (rows, tau, mid, state, hop) arrays.
    """
    B, S = y_start.size, edges.size - 1
    j = edges.searchsorted(tj, side="right") - 1  # the base step of each jump, S at the end
    inside = tj != edges[j]  # a jump on a base edge only switches the state
    switched = np.bincount(r * (S + 1) + j + inside, minlength=B * (S + 1))
    y0 = y_start[:, None] + np.cumsum(switched.reshape(B, S + 1), axis=1)
    r, j, tj, y = r[inside], j[inside], tj[inside], y_entered[inside]
    new = np.ones(tj.size, dtype=bool)  # the first cut of its row's step
    new[1:] = (r[1:] != r[:-1]) | (j[1:] != j[:-1])
    last = np.append(new[1:], True)
    end = np.where(last, edges[j + 1], np.append(tj[1:], 0.0))
    tau, first = end - tj, np.zeros((B, S + 1))  # substep 0 of each row's steps, 0 past the end
    first[:, :S], cell = np.diff(edges), (r[new], j[new])
    first[cell] = tj[new] - edges[j[new]]
    # a midpoint rounded onto the substep's end sees the state from there, as state_at does
    y0[cell] = np.where(edges[j[new]] + 0.5 * first[cell] < tj[new], y0[cell], y[new])
    y = np.where(tj + 0.5 * tau < end, y, np.where(last, y0[r, j + 1], np.append(y[1:], 0)))
    cut = np.zeros((B, S + 1), dtype=bool)
    cut[r, j] = True
    hop0 = hop = None
    if order == 2:  # a fused hop reaches into the row's next substep (0 past the end)
        following = first[:, 1:].copy()
        following[cell] = tau[new]
        hop0 = 0.5 * (first[:, :S] + following)
        hop = 0.5 * (tau + np.where(last, first[r, j + 1], np.append(tau[1:], 0.0)))
    index = np.arange(tj.size)
    slot = index - np.maximum.accumulate(np.where(new, index, 0))
    by_slot = np.lexsort((slot, j))
    bounds = np.flatnonzero((np.diff(j[by_slot]) != 0) | (np.diff(slot[by_slot]) != 0)) + 1
    later: dict[int, list] = {}
    for e in np.split(by_slot, bounds) if tj.size else ():
        later.setdefault(int(j[e[0]]), []).append(
            (r[e], tau[e], tj[e] + 0.5 * tau[e], y[e], None if hop is None else hop[e]))
    alone = cut[:, :S] | cut[:, 1:] if order == 2 else cut[:, :S]
    return y0, first[:, :S], hop0, cut[:, :S], alone, later


def _march(grid: SpatialGrid, values: np.ndarray, paths: list[PathSample],
           cfg: SolverConfig, V: np.ndarray,
           extra=None) -> Iterator[tuple[float, np.ndarray]]:
    """Yield (t, values) at each of cfg.sample_times, marching the rows of
    values, shape (B, *grid.shape), along their paths in lockstep.

    Every interval between sample times is cut into common base steps of
    length about dt, and a row's base step further at its jump times
    (:func:`_cut_schedule`; an interval without jumps builds none).
    Substep 0 of a base step marches all B rows together: the potential
    phase exp(i tau V[y]) is cached per step length, a cut row's is its
    own, and the free flow is one batched transform pair, with the step's
    phase on all rows but those whose substep (for Strang, or next
    substep) differs.  Substep k >= 1 marches the rows cut at least k
    times in that step as one sub-batch.  Each row is bitwise what
    marching it alone gives.

    V is the (m, *grid.shape) potential table; extra(mid, values) returns a
    real potential added for those rows at the substep midpoint, shared or
    one per row (a Hartree field, a frozen Picard field), or extra is None.
    cfg.source is injected at substep midpoints and sees each row's path
    only up to then; a field that loses finiteness is an error.  The
    yielded array is the march's own state: copy it to keep it.
    """
    order, B = cfg.order, len(paths)
    every, none = np.arange(B), np.arange(0)
    col = (-1,) + (1,) * grid.dim  # one scalar per row
    symbol = laplacian_symbol(grid).reshape(grid.shape)

    @lru_cache(maxsize=None)
    def potential_phase(tau):
        """exp(i tau V) for all states, once per step length for the march."""
        return np.exp(1j * tau * V)

    def kick(vals, rows, tau, mid, y, phase=None):
        """One substep's potential phase (unless given) and source for the
        given rows, at length tau and midpoint mid: shared, or one per row."""
        tau = tau if np.isscalar(tau) else tau.reshape(col)
        if phase is None:
            pot = V[y] if extra is None else V[y] + extra(mid, vals)
            phase = np.exp(1j * tau * pot)
        # an explicit product, as in grid.apply_multiplier
        vals = np.multiply(vals, phase, out=phase)
        if cfg.source is not None:
            src = np.array([np.asarray(cfg.source(grid, m, paths[r].restricted(m)),
                                       dtype=complex).reshape(grid.shape)
                            for r, m in zip(rows, np.broadcast_to(mid, rows.size))])
            vals = vals + 1j * tau * src
        return vals

    def flow(vals, tau, base=None, own=none):
        """Free flow by tau per row: the cached phase of the shared length
        base on all rows but own, or every row's own when base is None."""
        if base is not None and not own.size:
            return free_flow(grid, vals, base)
        if base is None:
            phase = np.exp(1j * tau.reshape(col) * symbol)
        else:
            phase = np.repeat(kinetic_phase(grid, base)[None], len(vals), axis=0)
            phase[own] = np.exp(1j * tau[own].reshape(col) * symbol)
        return apply_multiplier(vals, phase, ndim=grid.dim)

    # every row's jumps in one flat array, row by row: jump g of row r
    # enters state g + r + 1 of the flat state array
    counts = np.array([p.jump_times.size for p in paths])
    jump_times = np.concatenate([p.jump_times for p in paths])
    owner = np.repeat(every, counts)
    states = np.concatenate([p.states for p in paths])
    in_time = np.argsort(jump_times, kind="stable")
    sorted_times = jump_times[in_time]
    y_now = np.cumsum(counts) - counts + every  # each row's state at t
    t = 0.0
    for target in cfg.sample_times:
        if target > 1e-15:
            edges = _interval_edges(t, target, cfg.dt)
            taus = np.diff(edges)
            mids = edges[:-1] + 0.5 * taus
            hops = np.append(0.5 * (taus[:-1] + taus[1:]), 0.5 * taus[-1])

            def step(vals, j, y, tau=None, hop=None, cut=none, own=none):
                """Substep 0 of base step j for all rows: the shared step, or
                with per-row tau and hop, which differ on the rows cut and own."""
                if order == 1:
                    vals = flow(vals, tau, taus[j], cut)
                phase = None if extra is not None else potential_phase(taus[j])[y]
                if phase is not None and cut.size:
                    phase[cut] = np.exp(1j * tau[cut].reshape(col) * V[y[cut]])
                vals = kick(vals, every, taus[j] if tau is None else tau,
                            mids[j] if tau is None else edges[j] + 0.5 * tau, y, phase)
                return flow(vals, hop, hops[j], own) if order == 2 else vals

            lo, past = sorted_times.searchsorted([t, target], side="right")
            shared, lead = np.ones(taus.size, dtype=bool), none
            if lo == past:  # no jump: every step is shared
                y0 = np.repeat(y_now[:, None], taus.size + 1, axis=1)
            else:
                g = np.sort(in_time[lo:past])
                y0, tau0, hop0, cut, alone, later = _cut_schedule(
                    edges, order, y_now, owner[g], jump_times[g], g + owner[g] + 1)
                shared, lead = ~alone.any(axis=0), np.flatnonzero(cut[:, 0])
            if order == 2:
                values = flow(values, 0.5 * tau0[:, 0] if lead.size else None, 0.5 * taus[0], lead)
            for j in range(taus.size):
                if shared[j]:
                    values = step(values, j, states[y0[:, j]])
                    continue
                values = step(values, j, states[y0[:, j]], tau0[:, j],
                              None if hop0 is None else hop0[:, j],
                              np.flatnonzero(cut[:, j]), np.flatnonzero(alone[:, j]))
                for rows, tau, mid, y, hop in later.get(j, ()):
                    sub = values[rows]
                    if order == 1:
                        sub = flow(sub, tau)
                    sub = kick(sub, rows, tau, mid, states[y])
                    values[rows] = flow(sub, hop) if order == 2 else sub
            y_now = y0[:, -1]
            t = target
            if not np.all(np.isfinite(values.view(float))):
                raise RuntimeError(f"solution lost finiteness at t={t}")
        yield target, values


def evolve_paths(psi0: np.ndarray, family: PotentialFamily, paths: list[PathSample],
                 kernel: HartreeKernel | None, cfg: SolverConfig) \
        -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Propagate the initial rows psi0, shape (B, grid.size), along B Markov
    paths in one lockstep march, sampling at cfg.sample_times.

    Returns (fields, states, scalars): the fields (B, T, grid.size), the
    path states at the sample times (B, T), and the scalar series of
    :func:`evolve_path` other than "t" as (B, T) arrays.  Row b is bitwise
    what evolve_path gives for row b alone, whatever the other rows are.
    """
    grid = family.grid
    B, T = len(paths), cfg.sample_times.size
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (B, grid.size):
        raise ValueError("psi0 needs one row of the family's grid size per path")
    if np.any(lebesgue_norm_rows(grid, psi0, 2) == 0.0):
        raise ValueError("initial data must have positive L2 norm")
    if any(p.horizon < cfg.sample_times[-1] - 1e-12 for p in paths):
        raise ValueError("path horizon is shorter than the last sample time")

    eps = cfg.epsilon
    if kernel is None or eps == 0.0:
        kernel = extra = None
    else:
        if kernel.epsilon != eps:
            kernel = HartreeKernel(grid, kernel.chi, epsilon=eps)

        def extra(mid, vals):
            return _hartree_rows(grid, vals, kernel).reshape(vals.shape)

    states = np.array([p.states[np.searchsorted(
        p.jump_times, np.minimum(cfg.sample_times, p.horizon), side="right")]
        for p in paths], dtype=np.int64).reshape(B, T)
    names = ("l2", "suml2linf", "energy_kinetic", "energy_potential", "energy_hartree")
    scalars = {k: np.empty((B, T)) for k in names}
    fields = np.empty((B, T, grid.size), dtype=complex)
    marched = _march(grid, psi0.reshape(B, *grid.shape).copy(), paths, cfg,
                     family.V.reshape(family.m, *grid.shape), extra)
    for j, (_, values) in enumerate(marched):
        rows = values.reshape(B, grid.size)
        fields[:, j] = rows
        columns = (lebesgue_norm_rows(grid, rows, 2), sum_norm_rows(grid, rows),
                   *energy_rows(grid, rows, family.V[states[:, j]], kernel))
        for name, column in zip(names, columns):
            scalars[name][:, j] = column
    return fields, states, scalars


def evolve_path(psi0: WaveField, family: PotentialFamily, path: PathSample,
                kernel: HartreeKernel | None, cfg: SolverConfig) -> TrajectoryOutput:
    """Propagate psi0 along one Markov path, sampling at cfg.sample_times."""
    if family.grid != psi0.grid:
        raise ValueError("potential family lives on a different grid")
    fields, states, scalars = evolve_paths(psi0.values[None], family, [path], kernel, cfg)
    columns = {"t": cfg.sample_times.copy()}
    columns.update({k: v[0] for k, v in scalars.items()})
    return TrajectoryOutput(grid=psi0.grid, sample_times=cfg.sample_times.copy(),
                            snapshots=[WaveField(psi0.grid, f) for f in fields[0]],
                            states=states[0], scalars=columns)


def duhamel_residual(output: TrajectoryOutput, family: PotentialFamily,
                     path: PathSample, kernel: HartreeKernel | None,
                     cfg: SolverConfig, t: float) -> float:
    """L2 norm of psi(t) minus its Duhamel reconstruction from snapshots.

    The integral term is evaluated by the trapezoid rule over the stored
    sample times in [0, t]; for a Strang run with a smooth-in-time
    integrand the residual is O(dt^2).
    """
    times = output.sample_times
    if abs(times[0]) > 1e-12:
        raise ValueError("duhamel residual needs t=0 among the sample times")
    idx = np.flatnonzero(np.abs(times - t) <= 1e-12)
    if idx.size != 1:
        raise ValueError(f"t={t} is not a sample time")
    idx = int(idx[0])
    grid = output.grid
    eps = cfg.epsilon
    psi0 = output.snapshots[0].values.reshape(grid.shape)
    acc = free_flow(grid, psi0, t)
    if kernel is not None and eps != 0.0:
        kernel = HartreeKernel(grid, kernel.chi, eps)
    if idx > 0:
        integrand = []
        for j in range(idx + 1):
            s = times[j]
            snap = output.snapshots[j]
            V = realize(family, path, s)
            G = V * snap.values
            if kernel is not None and eps != 0.0:
                G = G + hartree_potential(snap, kernel) * snap.values
            if cfg.source is not None:
                G = G + np.asarray(cfg.source(grid, s, path.restricted(s))).reshape(-1)
            integrand.append(free_flow(grid, G.reshape(grid.shape), t - s))
        integrand = np.array(integrand)
        acc = acc + 1j * np.trapezoid(integrand, times[: idx + 1], axis=0)
    diff = WaveField(grid, (output.snapshots[idx].values - acc.reshape(-1)))
    return lebesgue_norm(diff, 2)


@dataclass
class PicardResult:
    trajectories: list[TrajectoryOutput]
    deltas: np.ndarray  # deltas[n-1] = sup_t ||psi_n - psi_{n-1}||_2
    diverged: bool


def picard_sequence(psi0: WaveField, family: PotentialFamily, path: PathSample,
                    kernel: HartreeKernel, cfg: SolverConfig, n_iters: int,
                    epsilon_max: float = 1.0) -> PicardResult:
    """Contraction iterates with the Hartree potential frozen per iterate.

    Iterate 0 is identically zero; iterate n solves the linear equation
    with potential V_omega + eps (chi * |psi_{n-1}|^2), the previous
    iterate's Hartree field interpolated linearly in time between its
    per-step snapshots.  Returns Delta_n = sup over sample times of the L2
    difference of consecutive iterates; divergence (three consecutive
    increases) is reported, not silently accepted.
    """
    if n_iters < 2:
        raise ValueError("n_iters must be >= 2")
    if abs(cfg.epsilon) > epsilon_max:
        raise ValueError(f"epsilon={cfg.epsilon} above the smallness threshold")
    if path.horizon < cfg.sample_times[-1] - 1e-12:
        raise ValueError("path horizon is shorter than the last sample time")
    if family.grid != psi0.grid:
        raise ValueError("potential family lives on a different grid")
    grid = psi0.grid
    # dense schedule for freezing: every base step is a sample time
    T = float(cfg.sample_times[-1])
    n_total = int(round(T / cfg.dt))
    dense_times = cfg.dt * np.arange(n_total + 1)
    dense_times[-1] = T
    dense_cfg = SolverConfig(dt=cfg.dt, sample_times=dense_times, order=cfg.order,
                             epsilon=0.0, source=cfg.source)
    states = np.array([state_at(path, min(s, path.horizon)) for s in dense_times])
    V = family.V.reshape(family.m, *grid.shape)

    def frozen_field(prev: TrajectoryOutput | None):
        """The previous iterate's Hartree field, interpolated in time, or None."""
        if prev is None or cfg.epsilon == 0.0:
            return None
        frozen_kernel = HartreeKernel(grid, kernel.chi, cfg.epsilon)
        fields = _hartree_rows(grid, np.array([snap.values for snap in prev.snapshots]),
                               frozen_kernel)

        def extra(mid, _values: np.ndarray) -> np.ndarray:
            x = np.clip(np.atleast_1d(mid) / cfg.dt, 0.0, n_total - 1e-9)
            j = x.astype(int)
            w = (x - j)[:, None]
            return ((1.0 - w) * fields[j] + w * fields[np.minimum(j + 1, n_total)]) \
                .reshape(x.size, *grid.shape)
        return extra

    trajectories: list[TrajectoryOutput] = []
    deltas = []
    prev = None  # iterate 0 is the zero field
    sample_idx = np.rint(np.asarray(cfg.sample_times) / cfg.dt).astype(int)
    for n in range(1, n_iters + 1):
        marched = _march(grid, psi0.values.reshape(1, *grid.shape).copy(), [path],
                         dense_cfg, V, frozen_field(prev))
        snapshots = [WaveField(grid, values.reshape(-1).copy()) for _, values in marched]
        out = TrajectoryOutput(grid=grid, sample_times=dense_times.copy(),
                               snapshots=snapshots, states=states.copy(),
                               scalars={"t": dense_times.copy()})
        sup = 0.0
        for k in sample_idx:
            ref = prev.snapshots[k].values if prev is not None else 0.0
            diff = WaveField(grid, snapshots[k].values - ref)
            sup = max(sup, lebesgue_norm(diff, 2))
        deltas.append(sup)
        trajectories.append(out)
        prev = out
    deltas = np.array(deltas)
    increases = np.diff(deltas) > 0
    diverged = any(np.all(increases[i:i + 3]) for i in range(len(increases) - 2))
    return PicardResult(trajectories=trajectories, deltas=deltas, diverged=diverged)


def wave_operator_estimate(output: TrajectoryOutput, times: np.ndarray) -> np.ndarray:
    """Cauchy increments of e^{+i t Lap} psi(t) at the given sample times.

    The free flow is undone spectrally; decreasing increments mean the
    filtered solution is settling toward a scattering limit, while a
    surviving bound state keeps the increments from decaying.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("need at least two increasing times")
    grid = output.grid
    filtered = []
    for t in times:
        snap = output.snapshot_at(t)
        filtered.append(free_flow(grid, snap.values.reshape(grid.shape), -t).reshape(-1))
    increments = [
        lebesgue_norm(WaveField(grid, b - a), 2)
        for a, b in zip(filtered[:-1], filtered[1:])
    ]
    return np.array(increments)


def dump_snapshot(path, psi: WaveField, time: float, precision: int = 128) -> None:
    """Write one field: 32-byte header (magic, d, n, precision, L, time)
    followed by little-endian complex values."""
    import struct

    if precision not in (64, 128):
        raise ValueError("precision must be 64 or 128 (bits per complex value)")
    header = struct.pack(
        "<4sIII d d",
        SNAPSHOT_MAGIC, psi.grid.dim, psi.grid.points_per_axis, precision,
        psi.grid.box_length, float(time),
    )
    assert len(header) == 32
    dtype = "<c8" if precision == 64 else "<c16"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(psi.values.astype(dtype)).tobytes())


def load_snapshot(path) -> tuple[WaveField, float]:
    import struct

    with open(path, "rb") as fh:
        header = fh.read(32)
        magic, dim, n, precision, L, time = struct.unpack("<4sIII d d", header)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError("not a snapshot file")
        dtype = "<c8" if precision == 64 else "<c16"
        vals = np.frombuffer(fh.read(), dtype=dtype)
    grid = SpatialGrid(int(dim), int(n), float(L))
    return WaveField(grid, vals.astype(np.complex128)), float(time)


def write_scalars_csv(path, output: TrajectoryOutput) -> None:
    """Per-time scalars: t, l2, suml2linf, energy_kinetic, energy_potential,
    energy_hartree."""
    cols = ["t", "l2", "suml2linf", "energy_kinetic", "energy_potential",
            "energy_hartree"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(output.sample_times.size):
            fh.write(",".join(f"{output.scalars[c][i]:.17g}" for c in cols) + "\n")
