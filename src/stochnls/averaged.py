"""Deterministic solvers for the averaged dynamics.

The per-path stochastic flow averages, conditionally on the driving
chain's position, into two deterministic equations:

* scalar:    i g_t - Lap g + i A g + V g + G = 0,   g = g(x, y, t)
* Liouville: i f_t - Lap_{x1} f + Lap_{x2} f + i A f
                + (V(x1,y) - V(x2,y)) f + F = 0,    f = f(x1, x2, y, t)

with A acting on the state index y.  Here g and f carry the joint
(probability-weighted) bookkeeping: summing tr f(y) over states gives the
conserved total mass.  Neither equation has an inhomogeneity.

Both solvers drive one march of the symmetric splitting
    K(dt/2) M(dt/2) P(dt) M(dt/2) K(dt/2)
(K the free flow, M the mixing e^{-tA}, P the potential phase), so that for a
single state they reduce factor-for-factor to the per-path stepping
(tensor-factorization oracle), and for V = 0 the composition collapses
exactly to e^{-tA} composed with the free flow.  K acts per state and M
pointwise in x, so they commute, and the march joins a step's trailing
M(dt/2) K(dt/2) to the next step's leading pair: one kick, one mixing and
one kinetic call per step.  M is nonnegative with unit column sums, so
Hermiticity, positivity and total trace survive every step.  The Liouville
march runs on the even and odd parity blocks (basis B, F = B^H f B) when V
and f0 are even, else on the whole space, and skips a block that starts at
zero.  Between sample times it keeps, per block, X_s = K G_s K^H / 2 of the
packed kernels G_s = F[2s] + i F[2s+1] (an odd last kernel alone), K = B^H U B,
and folds kick, mixing and packing into G_t = sum_s A_ts X_s + B_ts X_s^H, with
A_ts (B_ts) = c_{t,2s} w_{2s} - (+) i c_{t,2s+1} w_{2s+1}, c_{t,z} = M_{2t,z} +
i M_{2t+1,z} and w_z the potential weight (A = B = c_{t,2s} w_{2s} for a lone
slot), pointwise on a block.  Its records unpack X into a snapshot that keeps
the marched blocks as they are, each kernel Hermitian bit for bit; the dense
kernels, Hermitian and commuting with the reflection bit for bit, are formed
only when read (:class:`AveragedDensityMatrix`).

The Liouville solver stores dense kernels per state, one per marched block
(n x n on the whole space), and is restricted to one space dimension; the
identities it feeds (trace conservation, positivity, tensor factorization,
Feynman-Kac) are dimension independent, so desk-scale d = 1 exercises them
fully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import write_csv
from .grid import (ParityBlock, SpatialGrid, apply_multiplier, free_flow, is_even,
                   kinetic_phase, parity_blocks)
from .markov import MarkovModel, heat_kernel
from .potential import PotentialFamily
from .propagator import SolverConfig

__all__ = [
    "AveragedField",
    "AveragedDensityMatrix",
    "solve_scalar_averaged",
    "solve_liouville_averaged",
    "density",
    "trace",
    "psd_check",
    "structure_table",
    "write_trace_csv",
]

LIOUVILLE_N_CAP = 128
LIOUVILLE_M_CAP = 8


@dataclass
class AveragedField:
    """One complex field per Markov state: g(., y) at a fixed time."""

    grid: SpatialGrid
    g: np.ndarray = field(repr=False)  # shape (m, grid.size)
    t: float = 0.0

    def __post_init__(self) -> None:
        self.g = np.asarray(self.g, dtype=np.complex128)
        if self.g.ndim != 2 or self.g.shape[1] != self.grid.size:
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(self.g.view(np.float64))):
            raise ValueError("averaged field contains non-finite entries")

    @property
    def m(self) -> int:
        return self.g.shape[0]


class AveragedDensityMatrix:
    """Per-state kernels f(x1, x2, y) at a fixed time (one dimension only),
    held as parts [(B, F)] with f = sum B F B^H (:class:`stochnls.grid.ParityBlock`):
    a march snapshot's marched blocks, outside which f is zero, or, built from
    an (m, n, n) array, one whole-space part.  `f` is formed when read (a
    whole-space part's own array), so it is for reading only."""

    def __init__(self, grid: SpatialGrid, f: np.ndarray, t: float = 0.0) -> None:
        if grid.dim != 1:
            raise ValueError("density-matrix solves are restricted to d = 1")
        f = np.asarray(f, dtype=np.complex128)
        if f.ndim == 2:
            f = f[None, :, :]
        n = grid.points_per_axis
        if f.shape[1:] != (n, n):
            raise ValueError("kernel shape does not match grid")
        if not np.all(np.isfinite(f.view(np.float64))):
            raise ValueError("averaged kernel contains non-finite entries")
        self.grid, self.t, self.m, self.parts = grid, t, f.shape[0], [(ParityBlock(n), f)]
        scale = float(np.max(np.abs(f), initial=0.0))
        herm = self.hermiticity_residual()
        if scale > 0 and herm > 1e-10 * scale:
            raise ValueError(f"kernel is not Hermitian (residual {herm:.3e})")

    @classmethod
    def _marched(cls, grid: SpatialGrid, parts: list, m: int, t: float) -> "AveragedDensityMatrix":
        """Parts built Hermitian bit for bit, so not checked again: a march
        snapshot (f0's at t = 0) or an ensemble estimate 0.5 (f + f^H)."""
        snap = object.__new__(cls)
        snap.grid, snap.t, snap.m, snap.parts = grid, t, m, parts
        return snap

    def _whole(self) -> np.ndarray | None:
        """The kernels of a whole-space part, else None."""
        whole = len(self.parts) == 1 and self.parts[0][0].index is None
        return self.parts[0][1] if whole else None

    @property
    def f(self) -> np.ndarray:
        """The dense kernels, shape (m, n, n)."""
        if (whole := self._whole()) is not None:
            return whole
        n = self.grid.points_per_axis
        return sum((b.extend_kernels(F) for b, F in self.parts),
                   np.zeros((self.m, n, n), dtype=np.complex128))

    def diagonal(self) -> np.ndarray:
        """f(x, x, y), shape (m, n): the diagonal of `f` bit for bit."""
        return sum((b.extend_diagonal(F) for b, F in self.parts),
                   np.zeros((self.m, self.grid.points_per_axis), dtype=np.complex128))

    def hermiticity_residual(self) -> float:
        """max |F - F^H| over the parts' kernels."""
        return max((float(np.max(np.abs(F - F.conj().transpose(0, 2, 1)), initial=0.0))
                    for _, F in self.parts), default=0.0)

    def pairing(self, M: np.ndarray, restricted: dict | None = None) -> np.ndarray:
        """Re tr(M f_y) for each state y, M an (n, n) matrix, summed over the
        parts as tr((B^H M B) F).  `restricted` keeps each block's B^H M B for
        the other snapshots of a series that pair with the same M."""
        restricted = {} if restricted is None else restricted
        for b, _ in self.parts:
            if b not in restricted:
                restricted[b] = b.restrict(M)
        return sum((np.einsum("ij,yji->y", restricted[b], F).real for b, F in self.parts),
                   np.zeros(self.m))


def _march(values: np.ndarray, cfg: SolverConfig, prepare, hop, leave):
    """Yield (t, values) at each of cfg.sample_times.

    hop(state, prepare(tau), kick) applies P (when kick) M(tau) K(tau) and
    returns the new state, where a hop that does not kick takes the last
    sample's values as its state; prepare runs once per step length tau.
    leave(state, kick) returns the values to yield, after P when kick.
    As M and K commute, k Strang steps between sample times run, in order of
    application, as
        M(dt/2) K(dt/2) [P M(dt) K(dt)]^(k-1) P M(dt/2) K(dt/2),
    and k Lie steps K(dt) M(dt) P as M(dt) K(dt) [P M(dt) K(dt)]^(k-1) P:
    k + 1 hops (Lie: k) an interval.  Hops reuse buffers, so the yielded
    array is the march's own: copy it to keep it.
    """
    dt, strang = cfg.dt, cfg.order == 2
    lead = 0.5 * dt if strang else dt
    factors = {tau: prepare(tau) for tau in (lead, dt)}
    t = 0.0
    for target in cfg.sample_times:
        n_steps = 0 if target <= 1e-15 else int(round((target - t) / dt))
        if n_steps:
            state = hop(values, factors[lead], False)
            for _ in range(n_steps - 1):
                state = hop(state, factors[dt], True)
            values = (leave(hop(state, factors[lead], True), False) if strang
                      else leave(state, True))
            t = target
        if not all(np.isfinite(v).all() for v in values):
            raise RuntimeError(f"averaged solve lost finiteness at t={target}")
        yield target, values


def solve_scalar_averaged(g0: AveragedField, family: PotentialFamily,
                          model: MarkovModel, cfg: SolverConfig,
                          source=None) -> list[AveragedField]:
    """March the scalar averaged equation, sampling at cfg.sample_times.

    `source` must be None: the equation has no inhomogeneity.
    """
    # Not read: the benchmark's count probes (perfbench/layers.py) bind
    # `source` by name, here and in solve_liouville_averaged.
    if source is not None:
        raise ValueError("the averaged equations take no source term")
    grid = g0.grid
    m = model.m
    if g0.m != m or family.m != m:
        raise ValueError("state counts of g0, family and model disagree")
    shape = (m,) + grid.shape
    pot = np.exp(1j * cfg.dt * family.V).reshape(shape)
    spare = np.empty(shape, dtype=np.complex128)

    def leave(g, kick):  # P in place
        return np.multiply(pot, g, out=g) if kick else g

    def hop(g, factors, kick):  # M is one real np.dot on the float view
        nonlocal spare
        mix, flow = factors
        np.dot(mix, leave(g, kick).view(np.float64).reshape(m, -1),
               out=spare.view(np.float64).reshape(m, -1))
        g, spare = apply_multiplier(spare, flow, out=spare), g
        return g

    # the state axis is the multiplier's batch axis
    marched = _march(g0.g.reshape(shape).copy(), cfg,
                     lambda tau: (heat_kernel(model, tau).K, kinetic_phase(grid, tau)),
                     hop, leave)
    return [AveragedField(grid, g.reshape(m, -1).copy(), t=t) for t, g in marched]


def solve_liouville_averaged(f0: AveragedDensityMatrix, family: PotentialFamily,
                             model: MarkovModel, cfg: SolverConfig,
                             source=None, n_cap: int = LIOUVILLE_N_CAP,
                             m_cap: int = LIOUVILLE_M_CAP) -> list[AveragedDensityMatrix]:
    """March the dissipative Liouville equation for the averaged kernels.

    All factors act as conjugations (kinetic, potential commutator) or as
    mixings with nonnegative weights, so Hermiticity and positive
    semidefiniteness are preserved structurally and the total trace is
    conserved.  `source` must be None, as for :func:`solve_scalar_averaged`.
    The march state is x = [X; X^H] on each block of :func:`_reflection_blocks`
    whose initial kernels are not all zero (module docstring), and each
    snapshot holds those blocks' kernels as its parts.
    """
    if source is not None:  # bound by name only (see solve_scalar_averaged)
        raise ValueError("the averaged equations take no source term")
    grid = f0.grid
    n = grid.points_per_axis
    m = model.m
    if n > n_cap or m > m_cap:
        raise ValueError(f"liouville solve capped at n <= {n_cap}, m <= {m_cap}")
    if f0.m != m or family.m != m:
        raise ValueError("state counts of f0, family and model disagree")

    # a block whose kernels start at zero stays zero: it is not marched
    marched = [(b, F) for b in _reflection_blocks(f0, family.V)
               for F in [_hermitized(b.restrict(f0.f))] if F.any()]
    blocks, start = [b for b, _ in marched], [F for _, F in marched]
    # e^{i dt V(x1)} e^{-i dt V(x2)} of the antisymmetric difference, so that
    # weights * f is Hermitian bit for bit; an even V takes one value on a
    # basis vector's {x, -x}, so the kick stays pointwise on a block
    weights = [np.exp(1j * cfg.dt * (v[:, :, None] - v[:, None, :]))
               for v in (b.restrict_diagonal(family.V) for b in blocks)]
    q = (m + 1) // 2
    x = [np.empty((2 * q,) + F.shape[1:], dtype=np.complex128) for F in start]
    g = [np.empty((2, q) + F.shape[1:], dtype=np.complex128) for F in start]

    def prepare(tau):  # c[z, t] = M[2t, z] + i M[2t+1, z]; per block A and B, K/2, K^H
        c = _pack(heat_kernel(model, tau).K).T[:, :, None, None]
        U = free_flow(grid, np.eye(n), tau).T  # column j is U e_j
        K = [b.restrict(U) for b in blocks]
        cw = [c * w[:, None] for w in weights]
        return c, [(np.concatenate([_pack(a, -1j), _pack(a)]), 0.5 * k,
                    np.ascontiguousarray(k.conj().T)) for a, k in zip(cw, K)]

    def hop(src, factors, kick):  # G_t = sum_k coef[k, t] src[k] in g, then X
        c, folds = factors
        for s, (fold, half, adj), xb, (gb, term) in zip(src, folds, x, g):
            coef = fold if kick else c
            np.multiply(coef[0], s[0], out=gb)
            for k in range(1, len(s)):
                np.add(gb, np.multiply(coef[k], s[k], out=term), out=gb)
            _conjugate(gb, half, adj, term, out=xb[:q])
            np.conjugate(xb[:q].transpose(0, 2, 1), out=xb[q:])
        return x

    def leave(x, kick):  # P in place on the unpacked kernels
        fs = [_unpack(xb, m) for xb in x]
        return [np.multiply(w, f, out=f) for w, f in zip(weights, fs)] if kick else fs

    return [AveragedDensityMatrix._marched(grid, list(zip(blocks, kernels)), m, t)
            for t, kernels in _march(start, cfg, prepare, hop, leave)]


def _conjugate(g: np.ndarray, half: np.ndarray, adj: np.ndarray, tmp: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """The kinetic factor on one block: half @ g @ adj = (K/2) G K^H for each
    packed kernel of the stack g, through tmp into out."""
    return np.matmul(np.matmul(half, g, out=tmp), adj, out=out)


def _reflection_blocks(f: AveragedDensityMatrix, *fields) -> list[ParityBlock]:
    """The non-empty blocks of :func:`stochnls.grid.parity_blocks` when every
    field is even (:func:`stochnls.grid.is_even`) and each kernel's even-odd
    coupling is at most 1e-12 of its max |f|; else the whole space."""
    even, odd = parity_blocks(f.grid)
    scale = np.abs(f.f).reshape(f.m, -1).max(axis=1)
    coupling = np.abs(even.restrict(f.f, odd)).reshape(f.m, -1).max(axis=1, initial=0.0)
    if is_even(f.grid, fields) and np.all(coupling <= 1e-12 * scale):
        return [b for b in (even, odd) if b.index.size]
    return [ParityBlock(f.grid.size)]


def _pack(a: np.ndarray, unit: complex = 1j) -> np.ndarray:
    """a[2s] + unit a[2s+1] along the first axis, an odd last row alone."""
    q = a.shape[0] // 2
    return np.concatenate([a[0:2 * q:2] + unit * a[1::2], a[2 * q:]])


def _unpack(x: np.ndarray, m: int) -> np.ndarray:
    """The m kernels of x = [X; X^H]: f[2s] = X_s + X_s^H and f[2s+1] =
    (X_s - X_s^H)/i (an odd last kernel X + X^H), each Hermitian bit for bit."""
    q, h = m // 2, x.shape[0] // 2
    f = np.empty((m,) + x.shape[1:], dtype=np.complex128)
    np.add(x[:h], x[h:], out=f[0::2])
    np.multiply(np.subtract(x[:q], x[h:h + q], out=f[1::2]), -1j, out=f[1::2])
    return f


def density(f: AveragedDensityMatrix) -> np.ndarray:
    """Diagonal rho(x, y) = f(x, x, y) as real per-state fields."""
    diag = f.diagonal()
    scale = max(1.0, float(np.max(np.abs(diag), initial=0.0)))
    if np.max(np.abs(diag.imag), initial=0.0) > 1e-10 * scale:
        raise ValueError("density has a non-negligible imaginary part")
    return diag.real


def trace(f: AveragedDensityMatrix) -> tuple[np.ndarray, float]:
    """Cell-weighted per-state traces and their total."""
    per_state = f.grid.cell_volume * density(f).sum(axis=1)
    return per_state, float(per_state.sum())


def _hermitized(f: np.ndarray) -> np.ndarray:
    return 0.5 * (f + f.conj().swapaxes(-1, -2))


def psd_check(f: AveragedDensityMatrix) -> np.ndarray:
    """Minimum eigenvalue of each state's kernel (dense Hermitian solves).

    A march snapshot's parts are solved as they are; where they do not cover
    the space the kernel is zero, which adds the eigenvalue 0.  A whole-space
    part that commutes with the grid reflection x -> -x
    (:func:`_reflection_blocks`) is solved on its even and odd halves, and
    each state's least eigenvalue is the smaller of its two halves'; any
    other takes one stacked solve.
    """
    whole = f._whole()
    parts = (f.parts if whole is None else
             [(b, _hermitized(b.restrict(whole))) for b in _reflection_blocks(f)])
    least = [np.linalg.eigvalsh(F)[:, 0] for _, F in parts]
    if sum(F.shape[-1] for _, F in parts) < f.grid.size:
        least.append(np.zeros(f.m))
    return np.min(least, axis=0)


def structure_table(series: list[AveragedDensityMatrix]) -> np.ndarray:
    """The trace / Hermiticity / positivity audit of a Liouville solve, one
    row per snapshot: t, each state's trace, their total, the Hermiticity
    residual and the least eigenvalue over the states, shape (len(series),
    m + 4).  Each snapshot's parts are solved once, by :func:`psd_check`, and
    read without forming the dense kernels."""
    rows = []
    for snap in series:
        per_state, total = trace(snap)
        rows.append([snap.t, *per_state, total, snap.hermiticity_residual(),
                     float(psd_check(snap).min())])
    return np.array(rows)


def write_trace_csv(path, table: np.ndarray) -> None:
    """The rows of a :func:`structure_table` under their column names."""
    m = table.shape[1] - 4
    write_csv(path, ["t", *(f"trace{y}" for y in range(m)), "trace_total",
                     "hermiticity_residual", "min_eigenvalue"], table)
