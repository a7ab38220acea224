"""Deterministic solvers for the averaged dynamics.

The per-path stochastic flow averages, conditionally on the driving
chain's position, into two deterministic equations:

* scalar:    i g_t - Lap g + i A g + V g + G = 0,   g = g(x, y, t)
* Liouville: i f_t - Lap_{x1} f + Lap_{x2} f + i A f
                + (V(x1,y) - V(x2,y)) f + F = 0,    f = f(x1, x2, y, t)

with A acting on the state index y.  Here g and f carry the joint
(probability-weighted) bookkeeping: summing tr f(y) over states gives the
conserved total mass.  Sources enter on the left-hand side, matching the
per-path solver's Duhamel convention.

Both solvers drive one march with the same symmetric splitting
    kinetic(dt/2) mixing(dt/2) potential(dt) mixing(dt/2) kinetic(dt/2)
so that for a single state they reduce factor-for-factor to the per-path
stepping (tensor-factorization oracle), and for V = 0 the composition
collapses exactly to e^{-tA} composed with the free flow.  Between sample
times the march fuses each step's trailing kinetic(dt/2) with the next
step's leading one, as the per-path march does.  The mixing factor is the
exact matrix exponential e^{-dt A/2}, precomputed once; its entries are
nonnegative with unit column sums, so Hermiticity, positivity and total
trace survive every step.

The Liouville solver stores dense (n x n) kernels per state and is
restricted to one space dimension; the identities it feeds (trace
conservation, positivity, tensor factorization, Feynman-Kac) are dimension
independent, so desk-scale d = 1 exercises them fully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SpatialGrid, apply_multiplier, kinetic_phase
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

    @property
    def m(self) -> int:
        return self.f.shape[0]

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.f - self.f.conj().transpose(0, 2, 1)),
                            initial=0.0))


def _kick(model: MarkovModel, cfg: SolverConfig, potential, source, grid):
    """A step's middle factors at its midpoint: mixing(dt/2) potential
    source mixing(dt/2) for Strang order, mixing(dt) potential source for
    Lie.  The state axis leads; potential(values) multiplies in place, and
    source(grid, t) is injected with weight i*dt.

    kick(values, spare, t_mid) mixes from one buffer into the other and
    returns (result, free buffer); the mixing is np.dot over the state
    axis, as np.tensordot computes it."""
    strang = cfg.order == 2
    mix = heat_kernel(model, 0.5 * cfg.dt if strang else cfg.dt).K
    m = mix.shape[0]

    def mixed(src, dst):
        np.dot(mix, src.reshape(m, -1), out=dst.reshape(m, -1))
        return dst

    def kick(values, spare, t_mid):
        kicked = potential(mixed(values, spare))
        if source is not None:
            inject = np.asarray(source(grid, t_mid)).reshape(kicked.shape)
            np.add(kicked, 1j * cfg.dt * inject, out=kicked)
        return (mixed(kicked, values), kicked) if strang else (kicked, values)
    return kick


def _march(values: np.ndarray, cfg: SolverConfig, flow, kick, record) -> None:
    """March values over cfg.sample_times, calling record(t, values) at each.

    A step is flow(dt/2) kick flow(dt/2) (Strang) or flow(dt) kick (Lie);
    flow(tau) is the free flow's Fourier multiplier and kick(values, spare,
    t_mid) applies the step's middle factors.  A Strang step's trailing
    half-flow is fused with the next step's leading one (the multipliers
    compose exactly), so k steps between sample times cost k + 1 multiplier
    calls.  The march owns `values` and swaps it with one spare buffer, so
    it allocates nothing per step; record must copy what it keeps.
    """
    dt = cfg.dt
    half, full = flow(0.5 * dt), flow(dt)
    strang = cfg.order == 2
    spare = np.empty_like(values)
    t = 0.0
    for target in cfg.sample_times:
        n_steps = 0 if target <= 1e-15 else int(round((target - t) / dt))
        if strang and n_steps:
            values, spare = apply_multiplier(values, half, out=spare), values
        for j in range(n_steps):
            last = j == n_steps - 1
            if strang:
                values, spare = kick(values, spare, t + 0.5 * dt)
                values, spare = apply_multiplier(values, half if last else full,
                                                 out=spare), values
            else:
                values, spare = apply_multiplier(values, full, out=spare), values
                values, spare = kick(values, spare, t + 0.5 * dt)
            t = target if last else t + dt
        if not np.all(np.isfinite(values.view(np.float64))):
            raise RuntimeError(f"averaged solve lost finiteness at t={target}")
        record(target, values)


def solve_scalar_averaged(g0: AveragedField, family: PotentialFamily,
                          model: MarkovModel, cfg: SolverConfig,
                          source=None) -> list[AveragedField]:
    """March the scalar averaged equation, sampling at cfg.sample_times.

    `source(grid, t)` returns the (m, n^d) inhomogeneity; it is injected at
    step midpoints with weight i*dt.  No caller in the package passes one;
    the parameter stays because the benchmark's count probes
    (perfbench/layers.py) bind it by name.
    """
    grid = g0.grid
    m = model.m
    if g0.m != m or family.m != m:
        raise ValueError("state counts of g0, family and model disagree")
    shape = (m,) + grid.shape
    pot = np.exp(1j * cfg.dt * family.V).reshape(shape)
    out: list[AveragedField] = []
    # the state axis is the multiplier's batch axis
    _march(g0.g.reshape(shape).copy(), cfg, lambda tau: kinetic_phase(grid, tau),
           _kick(model, cfg, lambda g: np.multiply(pot, g, out=g), source, grid),
           lambda t, g: out.append(AveragedField(grid, g.reshape(m, -1).copy(), t=t)))
    return out


def solve_liouville_averaged(f0: AveragedDensityMatrix, family: PotentialFamily,
                             model: MarkovModel, cfg: SolverConfig,
                             source=None, n_cap: int = LIOUVILLE_N_CAP,
                             m_cap: int = LIOUVILLE_M_CAP) -> list[AveragedDensityMatrix]:
    """March the dissipative Liouville equation for the averaged kernels.

    All factors act as conjugations (kinetic, potential commutator) or as
    mixings with nonnegative weights, so Hermiticity and positive
    semidefiniteness are preserved structurally and the total trace is
    conserved.  `source(grid, t)` returns (m, n, n) kernels.
    """
    grid = f0.grid
    n = grid.points_per_axis
    m = model.m
    if n > n_cap or m > m_cap:
        raise ValueError(f"liouville solve capped at n <= {n_cap}, m <= {m_cap}")
    if f0.m != m or family.m != m:
        raise ValueError("state counts of f0, family and model disagree")

    def pair_phase(tau):
        # U f U^H is the multiplier exp(i tau (|k1|^2 - |k2|^2)) on the kernel
        # (-Lap_{x1} + Lap_{x2}); the state axis is its batch axis
        p = kinetic_phase(grid, tau)
        return p[:, None] * p.conj()[None, :]

    pot = np.exp(1j * cfg.dt * family.V)  # (m, n) phases
    pot_left, pot_right = pot[:, :, None], pot.conj()[:, None, :]
    out: list[AveragedDensityMatrix] = []

    def potential(f):
        np.multiply(pot_left, f, out=f)
        return np.multiply(f, pot_right, out=f)

    _march(f0.f.copy(), cfg, pair_phase, _kick(model, cfg, potential, source, grid),
           lambda t, f: out.append(AveragedDensityMatrix(grid, f.copy(), t=t)))
    return out


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


def psd_check(f: AveragedDensityMatrix) -> np.ndarray:
    """Minimum eigenvalue of each state's kernel (dense Hermitian solve)."""
    hermitized = 0.5 * (f.f + f.f.conj().transpose(0, 2, 1))
    return np.linalg.eigvalsh(hermitized)[:, 0]


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
