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
Hermiticity, positivity and total trace survive every step.  Between sample
times the Liouville march keeps X_s = U G_s U^H / 2 of the packed kernels
G_s = f[2s] + i f[2s+1] (an odd last kernel alone) and folds kick, mixing and
packing into G_t = sum_s A_ts X_s + B_ts X_s^H, with A_ts (B_ts) = c_{t,2s} w_{2s}
- (+) i c_{t,2s+1} w_{2s+1}, c_{t,z} = M_{2t,z} + i M_{2t+1,z} and w_z the
potential weight (A = B = c_{t,2s} w_{2s} for a lone slot): no BLAS call a
step.  Its records unpack X, each kernel Hermitian bit for bit.

The Liouville solver stores dense (n x n) kernels per state and is
restricted to one space dimension; the identities it feeds (trace
conservation, positivity, tensor factorization, Feynman-Kac) are dimension
independent, so desk-scale d = 1 exercises them fully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SpatialGrid, apply_multiplier, kinetic_phase, parity_blocks
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
    "write_density_csv",
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
        if self.g.ndim == 1:
            self.g = self.g[None, :]
        if self.g.shape[1] != self.grid.size:
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(self.g.view(np.float64))):
            raise ValueError("averaged field contains non-finite entries")

    @property
    def m(self) -> int:
        return self.g.shape[0]


@dataclass
class AveragedDensityMatrix:
    """Per-state kernels f(x1, x2, y) at a fixed time (one dimension only)."""

    grid: SpatialGrid
    f: np.ndarray = field(repr=False)  # shape (m, n, n)
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.grid.dim != 1:
            raise ValueError("density-matrix solves are restricted to d = 1")
        self.f = np.asarray(self.f, dtype=np.complex128)
        if self.f.ndim == 2:
            self.f = self.f[None, :, :]
        n = self.grid.points_per_axis
        if self.f.shape[1:] != (n, n):
            raise ValueError("kernel shape does not match grid")
        scale = float(np.max(np.abs(self.f), initial=0.0))
        herm = self.hermiticity_residual()
        if scale > 0 and herm > 1e-10 * scale:
            raise ValueError(f"kernel is not Hermitian (residual {herm:.3e})")

    @classmethod
    def _marched(cls, grid: SpatialGrid, f: np.ndarray, t: float) -> "AveragedDensityMatrix":
        """A kernel built Hermitian bit for bit, so not checked again: a march
        snapshot (f0's at t = 0) or an ensemble estimate 0.5 (f + f^H)."""
        snap = object.__new__(cls)
        snap.grid, snap.f, snap.t = grid, f, t
        return snap

    @property
    def m(self) -> int:
        return self.f.shape[0]

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.f - self.f.conj().transpose(0, 2, 1)),
                            initial=0.0))


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
        if not np.all(np.isfinite(values.view(np.float64))):
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
    The march state is x = [X; X^H] (module docstring).
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

    # e^{i dt V(x1)} e^{-i dt V(x2)} of the antisymmetric difference, so that
    # weights * f is Hermitian bit for bit
    weights = np.exp(1j * cfg.dt * (family.V[:, :, None] - family.V[:, None, :]))
    q = (m + 1) // 2
    x = np.empty((2 * q, n, n), dtype=np.complex128)
    g, term = np.empty((2, q, n, n), dtype=np.complex128)

    def prepare(tau):  # c[z, t] = M[2t, z] + i M[2t+1, z], and the fold's A and B
        c = _pack(heat_kernel(model, tau).K).T[:, :, None, None]
        cw = c * weights[:, None]
        return c, np.concatenate([_pack(cw, -1j), _pack(cw)]), _pair_phase(grid, tau)

    def hop(src, factors, kick):  # G_t = sum_k coef[k, t] src[k] in g, then X
        c, fold, flow = factors
        coef = fold if kick else c
        np.multiply(coef[0], src[0], out=g)
        for k in range(1, len(src)):
            np.add(g, np.multiply(coef[k], src[k], out=term), out=g)
        apply_multiplier(g, flow, out=x[:q])
        np.conjugate(x[:q].transpose(0, 2, 1), out=x[q:])
        return x

    def leave(x, kick):  # P in place on the unpacked kernels
        f = _unpack(x, m)
        return np.multiply(weights, f, out=f) if kick else f

    return [AveragedDensityMatrix._marched(grid, f, t)
            for t, f in _march(f0.f.copy(), cfg, prepare, hop, leave)]


def _pair_phase(grid: SpatialGrid, tau: float) -> np.ndarray:
    """Half the multiplier exp(i tau (|k1|^2 - |k2|^2)) of U f U^H; the 1/2
    belongs to :func:`_unpack`."""
    p = kinetic_phase(grid, tau)
    return 0.5 * p[:, None] * p.conj()[None, :]


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
    diag = np.ascontiguousarray(np.diagonal(f.f, axis1=1, axis2=2))
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
    """Minimum eigenvalue of each state's kernel (dense Hermitian solve).

    When every kernel commutes with the grid reflection x -> -x, its even-odd
    coupling block at most 1e-12 times its max |f|, the kernels are solved
    on their even and odd halves (:func:`stochnls.grid.parity_blocks`), and
    each state's least eigenvalue is the smaller of its two halves'.
    Otherwise the whole kernels take one stacked solve.
    """
    even, odd = parity_blocks(f.grid)
    scale = np.abs(f.f).reshape(f.m, -1).max(axis=1)
    coupling = np.abs(even.restrict(f.f, odd)).reshape(f.m, -1).max(axis=1, initial=0.0)
    if not np.all(coupling <= 1e-12 * scale):
        return np.linalg.eigvalsh(_hermitized(f.f))[:, 0]
    return np.min([np.linalg.eigvalsh(_hermitized(b.restrict(f.f)))[:, 0]
                   for b in (even, odd) if b.index.size], axis=0)


def structure_table(series: list[AveragedDensityMatrix]) -> np.ndarray:
    """The trace / Hermiticity / positivity audit of a Liouville solve, one
    row per snapshot: t, each state's trace, their total, the Hermiticity
    residual and the least eigenvalue over the states, shape (len(series),
    m + 4).  Each snapshot's kernels are solved once, by :func:`psd_check`."""
    rows = []
    for snap in series:
        per_state, total = trace(snap)
        rows.append([snap.t, *per_state, total, snap.hermiticity_residual(),
                     float(psd_check(snap).min())])
    return np.array(rows)


def write_density_csv(path, series: list[AveragedDensityMatrix]) -> None:
    """Rows (t, y, rho(x_0), ..., rho(x_{n-1})) for every state and time."""
    n = series[0].grid.points_per_axis
    with open(path, "w") as fh:
        fh.write("t,y," + ",".join(f"rho{i}" for i in range(n)) + "\n")
        for snap in series:
            rho = density(snap)
            for y in range(snap.m):
                row = ",".join(f"{v:.17g}" for v in rho[y])
                fh.write(f"{snap.t:.17g},{y},{row}\n")


def write_trace_csv(path, table: np.ndarray) -> None:
    """The rows of a :func:`structure_table` under their column names."""
    m = table.shape[1] - 4
    header = ["t"] + [f"trace{y}" for y in range(m)] + [
        "trace_total", "hermiticity_residual", "min_eigenvalue"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
