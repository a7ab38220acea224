"""Per-path mild-solution solver for the random Schrodinger equation.

The equation solved along a fixed Markov path omega is

    i psi_t - Lap psi + V(x, omega(t)) psi + eps (chi * |psi|^2) psi = 0,

whose Duhamel form is

    psi(t) = U(t) psi0 + i int_0^t U(t-s) [V psi + eps (chi*|psi|^2) psi] ds,

with U(t) the free flow, a spectral multiplier exp(+i t |k|^2).  Note the
sign convention: the Laplacian enters with a minus sign on the left, so
the kinetic phase is exp(+i dt |k|^2) and the potential phase is
exp(+i dt V).  Getting either sign wrong flips the direction of dispersion
and is caught by the free-Gaussian oracle test.

Stepping is split-step spectral (Lie or Strang).  Steps are subdivided
exactly at the path's jump times, so within every substep the potential is
autonomous and each factor is an exact phase; the evolution is therefore
exactly unitary (up to roundoff).  Many paths march together as the rows
of one array (:func:`evolve_paths`), on one of two engines that take the
same substeps:

* the march (:func:`_march`), each interval by one schedule that builds
  its substeps' own phases up front: all rows take each base step at once,
  and the later substeps of cut steps march as sub-batches;
* the eigenbasis engine (:func:`_march_eigenbasis`), for linear Strang
  rows on a one-axis grid.  Between two jumps every base step applies the
  same unitary Strang step S_y, so the engine diagonalises S_y once,
  O_y diag(exp(i theta_y)) O_y^T with O_y real, and takes an uncut run of
  k steps as one phase multiply in that basis; the substeps cut at jumps
  go by FFT phases.  A spatially constant V_y = c makes S_y diagonal in
  the Fourier basis, theta_y = dt (|k|^2 + c), so its run is one FFT
  multiply and builds no dense basis.  A dense basis takes a grid of at
  most 512 points whose step phases span less than 0.9 pi (dt (max |k|^2
  + max V_y - min V_y), every state y); a family whose rows are all
  constant takes the engine at any grid size and arc.  It marches whole
  paths in rounds, the rows' segments between consecutive jumps and
  sample times taken one per row per round, and fills the sample-time
  fields itself.  It is the same scheme as the march to roundoff, so dt
  and order keep their meaning.

Hartree rows, Picard's frozen fields, Lie rows, d = 2, and otherwise
larger grids and wider arcs go to the march.  On either engine each row
is bitwise what marching it alone gives.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

from .diagnostics import energy_rows
from .grid import SpatialGrid, WaveField, apply_multiplier, free_flow, kinetic_phase, \
    laplacian_symbol, lebesgue_norm, lebesgue_norm_rows, spectral_convolution, sum_norm_rows
from .markov import PathSample, _flat_paths, states_at
from .potential import HartreeKernel, PotentialFamily

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
# magic, d, n, precision (bits per complex value), L, time: 32 bytes, no padding
SNAPSHOT_HEADER = struct.Struct("<4sIII d d")
_SNAPSHOT_DTYPES = {64: np.dtype("<c8"), 128: np.dtype("<c16")}


@dataclass
class SolverConfig:
    """Step size, splitting order, coupling and output times."""

    dt: float
    sample_times: np.ndarray
    order: int = 2
    epsilon: float = 0.0

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
    """One path's fields at the sample times, shape (T, grid.size), its
    states there (T,) and the scalar series of :func:`evolve_paths`."""

    grid: SpatialGrid
    sample_times: np.ndarray
    fields: np.ndarray = field(repr=False)
    states: np.ndarray
    scalars: dict[str, np.ndarray] = field(repr=False)

    def index(self, t: float) -> int:
        """The row of sample time t."""
        idx = np.flatnonzero(np.abs(self.sample_times - t) <= 1e-12)
        if idx.size != 1:
            raise ValueError(f"t={t} is not a sample time")
        return int(idx[0])


def hartree_potential(psi: WaveField, kernel: HartreeKernel) -> np.ndarray:
    """eps * (chi convolved with |psi|^2): chi (see :class:`HartreeKernel`)
    and the density are real, so the field is real by construction."""
    return _hartree_rows(psi.grid, psi.values[None], kernel)[0]


def _hartree_rows(grid: SpatialGrid, values: np.ndarray, kernel: HartreeKernel) -> np.ndarray:
    """:func:`hartree_potential` of each row of values, shape (B, ...), as
    (B, grid.size); one row-wise convolution."""
    density = np.abs(values.reshape(len(values), -1)) ** 2
    return kernel.epsilon * spectral_convolution(grid, kernel.chi_spectrum, density)


def _interval_edges(t0: float, t1: float, dt: float) -> np.ndarray:
    """The base step boundaries over [t0, t1]: t0, t0 + dt, ..., t1."""
    n_steps = int(round((t1 - t0) / dt))
    return np.concatenate(([t0], t0 + dt * np.arange(1, max(n_steps, 1)), [t1]))


class _Schedule:
    """One interval's substeps for B rows, cut at the rows' jumps, and the
    phases they take besides the cached shared ones: one exp per kind, over
    cells in step-major order, for the cut rows' substep-0 potential, the
    flows whose length is the row's own, and each later substep.

    edges are the base edges; y_now holds each row's flat state index at
    the start, and r, tj and y_entered the row, time and entered flat state
    index of each jump in (start, end], by row and then time; without jumps
    the schedule is empty.  Flow f is the free flow before substep 0 of
    step f (Lie), or the leading half step (f = 0) and the hop after
    substep 0 of step f - 1 (Strang).
    """

    def __init__(self, grid: SpatialGrid, V: np.ndarray, states: np.ndarray, order: int,
                 edges: np.ndarray, y_now: np.ndarray, r, tj, y_entered) -> None:
        B, S = y_now.size, edges.size - 1
        self.grid, self.B, self.order = grid, B, order
        self.taus = taus = np.diff(edges)
        self.mids = edges[:-1] + 0.5 * taus
        self.flows = taus if order == 1 else np.concatenate(
            ([0.5 * taus[0]], 0.5 * (taus[:-1] + taus[1:]), [0.5 * taus[-1]]))
        self.y, self.y_end, self.later = np.broadcast_to(states[y_now], (S, B)), y_now, {}
        self.shared, self.cut_at = np.ones(S, dtype=bool), [0] * (S + 1)
        self.own_at = [0] * (self.flows.size + 1)
        if not tj.size:  # the empty schedule: every step is shared
            return
        col = (-1,) + (1,) * grid.dim  # one scalar per cell
        symbol = laplacian_symbol(grid).reshape(grid.shape)
        j = edges.searchsorted(tj, side="right") - 1  # the base step of each jump, S at the end
        inside = tj != edges[j]  # a jump on a base edge only switches the state
        switched = np.bincount(r * (S + 1) + j + inside, minlength=B * (S + 1))
        y0 = y_now[:, None] + np.cumsum(switched.reshape(B, S + 1), axis=1)
        r, j, tj, y = r[inside], j[inside], tj[inside], y_entered[inside]
        new = np.ones(tj.size, dtype=bool)  # the first cut of its row's step
        new[1:] = (r[1:] != r[:-1]) | (j[1:] != j[:-1])
        last = np.append(new[1:], True)
        end = np.where(last, edges[j + 1], np.append(tj[1:], 0.0))
        tau, first = end - tj, np.zeros((B, S + 1))  # substep 0 of each row's steps, 0 past the end
        first[:, :S], cell = taus, (r[new], j[new])
        first[cell] = tj[new] - edges[j[new]]
        # a midpoint rounded onto the substep's end sees the state from there, as states_at does
        y0[cell] = np.where(edges[j[new]] + 0.5 * first[cell] < tj[new], y0[cell], y[new])
        y = np.where(tj + 0.5 * tau < end, y, np.where(last, y0[r, j + 1], np.append(y[1:], 0)))
        cut = np.zeros((B, S + 1), dtype=bool)
        cut[r, j] = True
        if order == 1:
            own, length, hop = cut[:, :S], first[:, :S], tau
        else:  # a fused hop reaches into the row's next substep (0 past the end)
            following = first[:, 1:].copy()
            following[cell] = tau[new]
            own = np.concatenate((cut[:, :1], cut[:, :S] | cut[:, 1:]), axis=1)
            length = np.concatenate((0.5 * first[:, :1], 0.5 * (first[:, :S] + following)), axis=1)
            hop = 0.5 * (tau + np.where(last, first[r, j + 1], np.append(tau[1:], 0.0)))
        self.y, self.y_end = states[y0[:, :S].T], y0[:, -1]
        self.tau0, self.mid0 = first[:, :S].T.reshape(S, *col), (edges[:-1] + 0.5 * first[:, :S]).T
        self.shared = ~own[:, order - 1:].any(axis=0)
        steps, self.cut_rows = np.nonzero(cut[:, :S].T)
        self.cut_pot = np.exp(1j * first[self.cut_rows, steps].reshape(col)
                              * V[states[y0[self.cut_rows, steps]]])
        self.cut_at = steps.searchsorted(np.arange(S + 1)).tolist()
        f, self.own_rows = np.nonzero(own.T)  # each own cell's flow
        self.own_kin = np.exp(1j * length[self.own_rows, f].reshape(col) * symbol)
        self.own_at = f.searchsorted(np.arange(self.flows.size + 1)).tolist()
        index = np.arange(tj.size)
        slot = index - np.maximum.accumulate(np.where(new, index, 0))
        by_slot = np.lexsort((slot, j))
        j, slot, r, tj, tau, y, hop = (a[by_slot] for a in (j, slot, r, tj, tau, y, hop))
        kin = np.exp(1j * hop.reshape(col) * symbol)
        # the march multiplies into the potential phases: a schedule is marched once
        later = (r, tau.reshape(col), tj + 0.5 * tau, states[y],
                 *((kin, None) if order == 1 else (None, kin)),
                 np.exp(1j * tau.reshape(col) * V[states[y]]))
        bounds = [0, *(np.flatnonzero((np.diff(j) != 0) | (np.diff(slot) != 0)) + 1), j.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]) if j.size else ():
            self.later.setdefault(int(j[lo]), []).append(
                tuple(None if a is None else a[lo:hi] for a in later))

    def kinetic(self, f: int) -> np.ndarray:
        """Flow f's phase: the cached shared one, with the own rows' written in."""
        phase = kinetic_phase(self.grid, self.flows[f])
        lo, hi = self.own_at[f], self.own_at[f + 1]
        if lo < hi:
            phase = np.repeat(phase[None], self.B, axis=0)
            phase[self.own_rows[lo:hi]] = self.own_kin[lo:hi]
        return phase

    def substeps(self, potential_phase) -> Iterator[tuple]:
        """The substeps in order as (rows, tau, midpoint, states, flows before
        and after the kick, potential phase), None where there is none: each
        base step's substep 0 on all rows (rows None), with potential_phase
        (tau)[y] and the cut rows' own written in, then its sub-batches."""
        for j, (y, tau, mid) in enumerate(zip(self.y, self.taus, self.mids)):
            pot = None if potential_phase is None else potential_phase(tau)[y]
            lo, hi = self.cut_at[j], self.cut_at[j + 1]
            if pot is not None and lo < hi:
                pot[self.cut_rows[lo:hi]] = self.cut_pot[lo:hi]
            flows = (self.kinetic(j), None) if self.order == 1 else \
                (self.kinetic(0) if j == 0 else None, self.kinetic(j + 1))
            if not self.shared[j]:
                tau, mid = self.tau0[j], self.mid0[j]
            yield None, tau, mid, y, *flows, pot
            yield from self.later.get(j, ())


def _march(grid: SpatialGrid, values: np.ndarray, paths: list[PathSample], cfg: SolverConfig,
           V: np.ndarray, extra=None) -> Iterator[tuple[float, np.ndarray]]:
    """Yield (t, values) at each of cfg.sample_times, marching the rows of
    values, shape (B, *grid.shape), along their paths in lockstep.

    Each interval between sample times is cut into base steps of length
    about dt, and each row's steps at its jumps, by its :class:`_Schedule`.
    Every substep takes one loop body: substep 0 of a base step on all B
    rows, a later one on the rows cut that often in the step.  Each row is
    bitwise what marching it alone gives.

    V is the (m, *grid.shape) potential table; extra(mid, values) returns a
    real potential added for those rows at the substep midpoint, shared or
    one per row (a Hartree field, a frozen Picard field), or extra is None.
    It depends on the field, so its phase is taken per substep.  A field
    that loses finiteness is an error.  The yielded array is the march's
    own state: copy it to keep it.
    """
    # exp(i tau V) for all states, once per step length; extra's phase is per substep
    potential_phase = None if extra is not None else \
        lru_cache(maxsize=None)(lambda tau: np.exp(1j * tau * V))

    jump_times, owner, states, y_now = _flat_paths(paths)
    in_time = np.argsort(jump_times, kind="stable")
    sorted_times = jump_times[in_time]
    t = 0.0
    for target in cfg.sample_times:
        if target > 1e-15:
            lo, past = sorted_times.searchsorted([t, target], side="right")
            g = np.sort(in_time[lo:past])
            plan = _Schedule(grid, V, states, cfg.order, _interval_edges(t, target, cfg.dt),
                             y_now, owner[g], jump_times[g], g + owner[g] + 1)
            for rows, tau, mid, y, before, after, potential in plan.substeps(potential_phase):
                sub = values if rows is None else values[rows]
                if before is not None:
                    sub = apply_multiplier(sub, before, ndim=grid.dim)
                # explicit products in this order, as in grid.apply_multiplier
                phase = potential if extra is None else np.exp(1j * tau * (V[y] + extra(mid, sub)))
                sub = np.multiply(sub, phase, out=phase)
                if after is not None:
                    sub = apply_multiplier(sub, after, ndim=grid.dim)
                if rows is None:
                    values = sub
                else:
                    values[rows] = sub
            y_now, t = plan.y_end, target
            if not np.all(np.isfinite(values.view(float))):
                raise RuntimeError(f"solution lost finiteness at t={t}")
        yield target, values


# The eigenbasis engine (_march_eigenbasis) takes linear Strang rows on one-axis
# grids of at most this many points, whose step phases span less than this arc
# (see _step_basis); the march takes the rest.  Both limits are those of a
# dense basis: a family whose rows are all constant has the DFT as its basis
# and takes the engine at any size and arc.
_EIGEN_N_CAP = 512
_ARC_LIMIT = 0.9 * np.pi
# Rows per FFT block while a basis is built.
_BASIS_ROWS = 64
# Step bases kept across calls, one per (grid, dt, state): a family of two
# states takes two, and eight hold at most 16 MiB, at the size cap.
_BASES_KEPT = 8


def _step_arc(grid: SpatialGrid, V: np.ndarray, dt: float) -> float:
    """The widest arc dt (max |k|^2 + max V_y - min V_y) over the states y of
    V, shape (m, grid.size), that a Strang step's eigenphases lie in."""
    return dt * (float(laplacian_symbol(grid).max()) + float(np.ptp(V, axis=1).max()))


@lru_cache(maxsize=_BASES_KEPT)
def _step_basis(grid: SpatialGrid, dt: float, v_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(O, theta) with S = O diag(exp(i theta)) O^T, O real orthogonal, for
    the Strang step S = K(dt/2) P(dt) K(dt/2) in the potential v (its
    float64 bytes) on a one-axis grid: the discrete step, not the exact
    flow of -Lap + v.

    K is a circulant with an even symbol and P diagonal, so S is complex
    symmetric as well as unitary: its real and imaginary parts commute and
    share a real orthogonal eigenbasis.  S's eigenphases lie in the arc
    [dt min v, dt (max |k|^2 + max v)]; below a half turn, sin(theta - phi)
    with phi the arc's middle is increasing on it, so the real symmetric
    Im(exp(-i phi) S) has S's eigenvectors.  Its rows are S applied to the
    identity's rows by FFTs, a block at a time, and theta is read from
    D_j = o_j^T S o_j = sum_x (K o_j)(x)^2 P(x), so no complex n x n array
    is ever held.  Cached per key, as a kinetic phase is, and read-only.
    """
    v = np.frombuffer(v_bytes)
    n = v.size
    half, pot = kinetic_phase(grid, 0.5 * dt), np.exp(1j * dt * v)
    tilt = np.exp(-0.5j * dt * (float(laplacian_symbol(grid).max()) + v.max() + v.min()))
    im = np.empty((n, n))
    for lo in range(0, n, _BASIS_ROWS):
        block = np.eye(min(_BASIS_ROWS, n - lo), n, lo, dtype=complex)
        block = apply_multiplier(block, half)
        block = apply_multiplier(np.multiply(block, pot, out=block), half)
        im[lo:lo + len(block)] = np.multiply(block, tilt, out=block).imag
    O = np.ascontiguousarray(np.linalg.eigh(im)[1])
    del im
    D = np.empty(n, dtype=complex)
    for lo in range(0, n, _BASIS_ROWS):
        kinetic = apply_multiplier(O.T[lo:lo + _BASIS_ROWS].astype(complex), half)
        D[lo:lo + len(kinetic)] = np.multiply(kinetic, kinetic, out=kinetic) @ pot
    theta = np.angle(D)
    O.flags.writeable = theta.flags.writeable = False
    return O, theta


def _phase_run(values: np.ndarray, O: np.ndarray, Ot: np.ndarray, theta: np.ndarray,
               k: np.ndarray) -> np.ndarray:
    """S^k_b applied to each row b of values, shape (r, n): O (exp(i k_b
    theta) * (O^T psi_b)), as two real dgemms on the stacked real and
    imaginary parts, padded with zero rows to at least four, each with a
    C-contiguous right operand (Ot is O^T's contiguous copy).  A row of
    such a product is bitwise independent of the row count from four rows
    on; a one-row product takes gemv, two or three rows differ too, and so
    do rows of a product whose right operand is a transposed view."""
    r, n = values.shape
    stacked = np.zeros((max(2 * r, 4), n))
    stacked[:r], stacked[r:2 * r] = values.real, values.imag
    coeffs = stacked @ O  # rows: (O^T psi_b)^T, real then imaginary parts
    ks = np.unique(k)  # rows often share their k
    turn = np.exp(1j * (ks[:, None] * theta))
    which = ks.searchsorted(k)
    cos, sin = turn.real[which], turn.imag[which]
    re, im = coeffs[:r], coeffs[r:2 * r]
    np.subtract(re * cos, im * sin, out=stacked[:r])
    np.add(re * sin, im * cos, out=stacked[r:2 * r])
    back = stacked @ Ot
    out = np.empty((r, n), dtype=complex)
    out.real, out.imag = back[:r], back[r:2 * r]
    return out


def _march_eigenbasis(grid: SpatialGrid, values: np.ndarray, paths: list[PathSample],
                      cfg: SolverConfig, V: np.ndarray, fields: np.ndarray) -> None:
    """:func:`_march` for linear Strang rows on a one-axis grid, values of
    shape (B, n) and V of shape (m, n): the same substeps, with each row's
    uncut run of k base steps in state y as one multiply by exp(i k
    theta_y) in the eigenbasis of the step: the DFT, theta_y = dt (|k|^2
    + c), for a constant row V_y = c, and :func:`_step_basis` otherwise.
    It fills fields, shape (B, T, n), with each row at each sample time.

    A table built up front cuts every row's path into segments at its jumps
    and at the sample times; a segment takes its interval's base edges.
    Round sigma marches the sigma-th segment of every row that has one: a
    head substep by FFT phases up to the first base edge, for a segment
    that starts off one; then the run of whole base steps, one
    :func:`_phase_run` per state; then a tail substep from the last base
    edge, for a segment that ends off one.  A segment that ends at a sample
    time then copies its row into fields.  Two events inside one base step
    make one substep between them.  Each substep takes the state at its
    midpoint, as :func:`_march` does, so a sub-ulp substep whose midpoint
    rounds onto a jump takes the state entered there.  A run takes each
    base step as dt, where the march takes the difference of its edges.
    Rows meet only in the dgemms, so each row is bitwise what marching it
    alone gives.
    """
    B, T = fields.shape[:2]
    M = np.count_nonzero(cfg.sample_times > 1e-15)  # the earlier sample times hold psi0
    fields[:, :T - M] = values[:, None]
    if not M:
        return
    targets = cfg.sample_times[T - M:]
    starts = np.append(0.0, targets[:-1])
    edges = [_interval_edges(t0, t1, cfg.dt) for t0, t1 in zip(starts, targets)]
    flat_edges, past = np.concatenate(edges), np.cumsum([e.size for e in edges])
    first = np.append(0, past[:-1])  # each interval's edges are flat_edges[first:past]

    jump_times, owner, states, y0 = _flat_paths(paths)
    after = np.append(jump_times, np.inf)  # index -1: no jump left
    row_end = np.bincount(owner, minlength=B).cumsum()  # past each row's last jump
    # each jump's interval, M past the last sample time: a jump on a sample
    # time closes its interval, one inside the interval starts a segment
    ivl = targets.searchsorted(jump_times)
    closed = np.bincount(owner * (M + 1) + ivl, minlength=B * (M + 1)).reshape(B, M + 1)[:, :M]
    inside = np.flatnonzero(jump_times < np.append(targets, 0.0)[ivl])
    # the segments, by row and then time, from each interval's start and each inside jump
    row = np.concatenate((np.repeat(np.arange(B), M), owner[inside]))
    ivl = np.concatenate((np.tile(np.arange(M), B), ivl[inside]))
    start = np.concatenate((np.tile(starts, B), jump_times[inside]))
    y = np.concatenate(((y0[:, None] + closed.cumsum(axis=1) - closed).ravel(),
                        inside + owner[inside] + 1))  # the flat state a segment starts in
    by_row = np.lexsort((start, row))
    row, ivl, start, y = row[by_row], ivl[by_row], start[by_row], y[by_row]
    last = np.append((row[1:] != row[:-1]) | (ivl[1:] != ivl[:-1]), True)  # ends its interval
    end = np.where(last, targets[ivl], np.append(start[1:], 0.0))
    nxt = after[np.where(y - row < row_end[row], y - row, -1)]  # the row's next jump
    ih = np.maximum(flat_edges.searchsorted(start, side="left"), first[ivl])
    il = np.minimum(flat_edges.searchsorted(end, side="right"), past[ivl]) - 1
    single = ih > il  # both ends inside one base step
    tail_start = flat_edges[il]
    head = np.where(single, end, flat_edges[ih]) - start
    tail = np.where(single, 0.0, end - tail_start)
    k = np.where(single, 0, il - ih)
    # a substep's flat state: the one at its midpoint
    y_head, y_tail = y + (start + 0.5 * head >= nxt), y + (tail_start + 0.5 * tail >= nxt)
    round_of = np.arange(row.size) - row.searchsorted(row)  # the segment's place in its row
    by_round = np.argsort(round_of, kind="stable")  # by round, then row
    row, head, y_head, tail, y_tail, k, in_state, column = (a[by_round] for a in (
        row, head, y_head, tail, y_tail, k, np.where(k > 0, states[y], -1),
        np.where(last, T - M + ivl, -1)))
    bounds = np.append(0, np.bincount(round_of).cumsum())
    symbol, bases, flat = laplacian_symbol(grid), {}, np.all(V == V[:, :1], axis=1)

    def substeps(rows, tau, y):
        """Strang substeps of length tau in the flat states y, on the rows with tau > 0."""
        cut = tau > 0
        if cut.any():
            rows, tau = rows[cut], tau[cut]
            half = np.exp(1j * (0.5 * tau)[:, None] * symbol)
            pot = np.exp(1j * tau[:, None] * V[states[y[cut]]])
            sub = apply_multiplier(values[rows], half, ndim=1)
            values[rows] = apply_multiplier(np.multiply(sub, pot, out=pot), half, ndim=1)

    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = row[lo:hi]
        substeps(rows, head[lo:hi], y_head[lo:hi])
        for state in range(len(V)):
            run = np.flatnonzero(in_state[lo:hi] == state)
            if not run.size:
                continue
            if flat[state]:  # the DFT diagonalises the step: theta = dt (|k|^2 + c)
                phase = np.exp(1j * k[lo:hi][run, None] * (cfg.dt * (symbol + V[state, 0])))
                values[rows[run]] = apply_multiplier(values[rows[run]], phase, ndim=1)
                continue
            if state not in bases:
                O, theta = _step_basis(grid, cfg.dt, V[state].tobytes())
                bases[state] = O, np.ascontiguousarray(O.T), theta
            values[rows[run]] = _phase_run(values[rows[run]], *bases[state], k[lo:hi][run])
        substeps(rows, tail[lo:hi], y_tail[lo:hi])
        done = column[lo:hi] >= 0
        fields[rows[done], column[lo:hi][done]] = values[rows[done]]
    lost = ~np.isfinite(fields[:, T - M:].view(float)).all(axis=(0, 2))
    if lost.any():
        raise RuntimeError(f"solution lost finiteness at t={targets[lost.argmax()]}")


def evolve_paths(psi0: np.ndarray, family: PotentialFamily, paths: list[PathSample],
                 kernel: HartreeKernel | None, cfg: SolverConfig) \
        -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Propagate the initial rows psi0, shape (B, grid.size), along B Markov
    paths in one lockstep march, sampling at cfg.sample_times.

    Returns (fields, states, scalars): the fields (B, T, grid.size), the
    path states at the sample times (B, T), and the scalar series l2,
    suml2linf, energy_kinetic, energy_potential and energy_hartree, in that
    order, as (B, T) arrays.  Row b is bitwise what evolve_path gives for
    row b alone, whatever the other rows are.  Linear Strang rows on a
    one-axis grid take the eigenbasis engine when the family's rows are
    all spatially constant, or when the grid has at most _EIGEN_N_CAP
    points and the step phases span less than _ARC_LIMIT; the rest take
    the march (see the module docstring).
    """
    grid = family.grid
    B, T = len(paths), cfg.sample_times.size
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (B, grid.size):
        raise ValueError("psi0 needs one row of the family's grid size per path")
    if np.any(lebesgue_norm_rows(grid, psi0, 2) == 0.0):
        raise ValueError("initial data must have positive L2 norm")
    horizons = np.array([p.horizon for p in paths])
    if np.any(horizons < cfg.sample_times[-1] - 1e-12):
        raise ValueError("path horizon is shorter than the last sample time")

    eps = cfg.epsilon
    if kernel is None or eps == 0.0:
        kernel = extra = None
    else:
        if kernel.epsilon != eps:
            kernel = HartreeKernel(grid, kernel.chi, epsilon=eps)

        def extra(mid, vals):
            return _hartree_rows(grid, vals, kernel).reshape(vals.shape)

    states = states_at(paths, np.minimum(cfg.sample_times, horizons[:, None]))
    names = ("l2", "suml2linf", "energy_kinetic", "energy_potential", "energy_hartree")
    scalars = {k: np.empty((B, T)) for k in names}
    fields = np.empty((B, T, grid.size), dtype=complex)
    constant = np.all(family.V == family.V[:, :1])  # the DFT is every state's step basis
    if extra is None and grid.dim == 1 and cfg.order == 2 and (constant or (
            grid.size <= _EIGEN_N_CAP and _step_arc(grid, family.V, cfg.dt) < _ARC_LIMIT)):
        _march_eigenbasis(grid, psi0.copy(), paths, cfg, family.V, fields)
    else:
        for j, (_, values) in enumerate(_march(grid, psi0.reshape(B, *grid.shape).copy(), paths,
                                               cfg, family.V.reshape(family.m, *grid.shape),
                                               extra)):
            fields[:, j] = values.reshape(B, grid.size)
    for j in range(T):
        rows = np.ascontiguousarray(fields[:, j])
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
    return TrajectoryOutput(grid=psi0.grid, sample_times=cfg.sample_times.copy(),
                            fields=fields[0], states=states[0],
                            scalars={k: v[0] for k, v in scalars.items()})


def duhamel_residual(output: TrajectoryOutput, family: PotentialFamily,
                     kernel: HartreeKernel | None, cfg: SolverConfig, t: float) -> float:
    """L2 norm of psi(t) minus its Duhamel reconstruction from the fields.

    The integral term is evaluated by the trapezoid rule over the stored
    sample times in [0, t]; for a Strang run with a smooth-in-time
    integrand the residual is O(dt^2).
    """
    times = output.sample_times
    if abs(times[0]) > 1e-12:
        raise ValueError("duhamel residual needs t=0 among the sample times")
    idx = output.index(t)
    grid, rows = output.grid, output.fields[: idx + 1]
    acc = free_flow(grid, rows[0].reshape(grid.shape), t)
    if idx > 0:
        G = family.V[output.states[: idx + 1]] * rows
        if kernel is not None and cfg.epsilon != 0.0:
            G = G + _hartree_rows(grid, rows, HartreeKernel(grid, kernel.chi, cfg.epsilon)) * rows
        integrand = np.array([free_flow(grid, g.reshape(grid.shape), t - s)
                              for g, s in zip(G, times)])
        acc = acc + 1j * np.trapezoid(integrand, times[: idx + 1], axis=0)
    return lebesgue_norm(WaveField(grid, rows[idx] - acc.reshape(-1)), 2)


@dataclass
class PicardResult:
    fields: np.ndarray  # fields[n-1]: iterate n at cfg.sample_times, (T, grid.size)
    deltas: np.ndarray  # deltas[n-1] = sup_t ||psi_n - psi_{n-1}||_2
    diverged: bool


# Largest |epsilon| picard_sequence accepts as small enough to contract.
_PICARD_EPSILON_MAX = 1.0


def picard_sequence(psi0: WaveField, family: PotentialFamily, path: PathSample,
                    kernel: HartreeKernel, cfg: SolverConfig, n_iters: int) -> PicardResult:
    """Contraction iterates with the Hartree potential frozen per iterate.

    Iterate 0 is identically zero; iterate n solves the linear equation
    with potential V_omega + eps (chi * |psi_{n-1}|^2), the previous
    iterate's Hartree field interpolated linearly in time between its
    per-step fields.  Returns Delta_n = sup over sample times of the L2
    difference of consecutive iterates; divergence (three consecutive
    increases) is reported, not silently accepted.
    """
    if n_iters < 2:
        raise ValueError("n_iters must be >= 2")
    if abs(cfg.epsilon) > _PICARD_EPSILON_MAX:
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
                             epsilon=0.0)
    V = family.V.reshape(family.m, *grid.shape)
    frozen = None if cfg.epsilon == 0.0 else HartreeKernel(grid, kernel.chi, cfg.epsilon)

    def frozen_field(prev: np.ndarray | None):
        """The previous iterate's Hartree field, interpolated in time, or None."""
        if prev is None or frozen is None:
            return None
        fields = _hartree_rows(grid, prev, frozen)

        def extra(mid, _values: np.ndarray) -> np.ndarray:
            x = np.clip(np.atleast_1d(mid) / cfg.dt, 0.0, n_total - 1e-9)
            j = x.astype(int)
            w = (x - j)[:, None]
            return ((1.0 - w) * fields[j] + w * fields[np.minimum(j + 1, n_total)]) \
                .reshape(x.size, *grid.shape)
        return extra

    sample_idx = np.rint(cfg.sample_times / cfg.dt).astype(int)
    iterates = np.empty((n_iters, sample_idx.size, grid.size), dtype=complex)
    deltas = np.empty(n_iters)
    prev = None  # iterate 0 is the zero field
    for n in range(n_iters):
        dense = np.empty((dense_times.size, grid.size), dtype=complex)
        for j, (_, values) in enumerate(_march(grid, psi0.values.reshape(1, *grid.shape).copy(),
                                               [path], dense_cfg, V, frozen_field(prev))):
            dense[j] = values.reshape(-1)
        iterates[n] = dense[sample_idx]
        step = iterates[n] if prev is None else iterates[n] - prev[sample_idx]
        deltas[n] = lebesgue_norm_rows(grid, step, 2).max()
        prev = dense
    increases = np.diff(deltas) > 0
    diverged = any(np.all(increases[i:i + 3]) for i in range(len(increases) - 2))
    return PicardResult(fields=iterates, deltas=deltas, diverged=diverged)


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
    filtered = np.array([free_flow(grid, output.fields[output.index(t)].reshape(grid.shape), -t)
                         .reshape(-1) for t in times])
    return lebesgue_norm_rows(grid, np.diff(filtered, axis=0), 2)


def dump_snapshot(path, psi: WaveField, time: float, precision: int = 128) -> None:
    """Write one field: the :data:`SNAPSHOT_HEADER` followed by
    little-endian complex values."""
    if precision not in _SNAPSHOT_DTYPES:
        raise ValueError("precision must be 64 or 128 (bits per complex value)")
    header = SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, psi.grid.dim, psi.grid.points_per_axis,
                                  precision, psi.grid.box_length, float(time))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(psi.values.astype(_SNAPSHOT_DTYPES[precision])).tobytes())


def load_snapshot(path) -> tuple[WaveField, float]:
    """Read a file :func:`dump_snapshot` wrote; anything else is refused."""
    with open(path, "rb") as fh:
        header, payload = fh.read(SNAPSHOT_HEADER.size), fh.read()
    if len(header) != SNAPSHOT_HEADER.size:
        raise ValueError("not a snapshot file: the header is cut short")
    magic, dim, n, precision, L, time = SNAPSHOT_HEADER.unpack(header)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError("not a snapshot file")
    if precision not in _SNAPSHOT_DTYPES:
        raise ValueError(f"precision {precision} is neither 64 nor 128")
    grid = SpatialGrid(int(dim), int(n), float(L))
    dtype = _SNAPSHOT_DTYPES[precision]
    if len(payload) != grid.size * dtype.itemsize:
        raise ValueError(f"payload of {len(payload)} bytes is not n^d = {grid.size} values")
    vals = np.frombuffer(payload, dtype=dtype)
    return WaveField(grid, vals.astype(np.complex128)), float(time)


def write_scalars_csv(path, output: TrajectoryOutput) -> None:
    """Per-time scalars: t, then the series in :func:`evolve_paths`' order."""
    with open(path, "w") as fh:
        fh.write(",".join(["t", *output.scalars]) + "\n")
        for i, t in enumerate(output.sample_times):
            fh.write(",".join(f"{v:.17g}" for v in (t, *(c[i] for c in output.scalars.values())))
                     + "\n")
