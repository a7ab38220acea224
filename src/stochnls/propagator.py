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
exactly unitary (up to roundoff) whenever no source is present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .diagnostics import energy_breakdown
from .grid import SpatialGrid, WaveField, free_flow, lebesgue_norm, \
    spectral_convolution, sum_norm
from .markov import PathSample, state_at
from .potential import HartreeKernel, PotentialFamily, realize

__all__ = [
    "SolverConfig",
    "TrajectoryOutput",
    "evolve_path",
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

    chi must be even (checked to 1e-8 here, 1e-12 at kernel construction);
    the convolution of real even chi with the real density has vanishing
    imaginary part, which is verified and then discarded.
    """
    grid = psi.grid
    if kernel.epsilon == 0.0:
        return np.zeros(grid.size)
    scale = max(1.0, float(np.max(np.abs(kernel.chi), initial=0.0)))
    if np.max(np.abs(kernel.chi - grid.reflect(kernel.chi))) > 1e-8 * scale:
        raise ValueError("chi violates evenness beyond 1e-8")
    conv = spectral_convolution(grid, kernel.chi, np.abs(psi.values) ** 2)
    if np.max(np.abs(conv.imag)) > 1e-12 * max(1.0, np.max(np.abs(conv.real))):
        raise ValueError("hartree potential has unexpected imaginary part")
    return kernel.epsilon * conv.real


def _interval_edges(t0: float, t1: float, dt: float, path: PathSample) -> np.ndarray:
    """All substep boundaries over [t0, t1]: base steps plus jump times."""
    n_steps = int(round((t1 - t0) / dt))
    base = t0 + dt * np.arange(1, max(n_steps, 1))
    jumps = path.jump_times[(path.jump_times > t0) & (path.jump_times < t1)]
    edges = np.unique(np.concatenate(([t0], base, jumps, [t1])))
    if np.any(np.diff(edges) <= 0):
        raise RuntimeError("jump-time subdivision produced a degenerate substep")
    return edges


def _march_interval(grid: SpatialGrid, order: int, values: np.ndarray,
                    edges: np.ndarray, potential_at, source_at=None) -> np.ndarray:
    """Advance across the substeps delimited by `edges`.

    potential_at(t_mid, values) returns the real potential frozen for one
    substep; the source is injected at the midpoint with weight i*tau.
    For Strang order the trailing half-kinetic factor of each substep is
    fused with the leading one of the next (the multipliers compose
    exactly), halving the transform count; the potential still sees the
    true midpoint state of every substep.
    """
    taus = np.diff(edges)
    if order == 2:
        values = free_flow(grid, values, 0.5 * taus[0])
        last = taus.size - 1
        for k in range(taus.size):
            tau = taus[k]
            t_mid = edges[k] + 0.5 * tau
            values = values * np.exp(1j * tau * potential_at(t_mid, values))
            if source_at is not None:
                values = values + 1j * tau * source_at(t_mid)
            hop = 0.5 * tau if k == last else 0.5 * (tau + taus[k + 1])
            values = free_flow(grid, values, hop)
        return values
    for k in range(taus.size):
        tau = taus[k]
        values = free_flow(grid, values, tau)
        t_mid = edges[k] + 0.5 * tau
        values = values * np.exp(1j * tau * potential_at(t_mid, values))
        if source_at is not None:
            values = values + 1j * tau * source_at(t_mid)
    return values


def _march(psi0: WaveField, path: PathSample, cfg: SolverConfig,
           potential_at) -> Iterator[tuple[float, np.ndarray]]:
    """Yield (t, values) at each of cfg.sample_times, marching psi0 along path.

    Steps are cut at the path's jump times, cfg.source is injected at
    substep midpoints, and a field that loses finiteness is an error.  The
    yielded array is the march's own state: copy it to keep it.
    """
    grid = psi0.grid
    source_at = None
    if cfg.source is not None:
        def source_at(t_mid: float) -> np.ndarray:
            chunk = cfg.source(grid, t_mid, path.restricted(t_mid))
            return np.asarray(chunk, dtype=complex).reshape(grid.shape)

    values = psi0.values.reshape(grid.shape).copy()
    t = 0.0
    for target in cfg.sample_times:
        if target > 1e-15:
            edges = _interval_edges(t, target, cfg.dt, path)
            values = _march_interval(grid, cfg.order, values, edges, potential_at,
                                     source_at)
            t = target
            if not np.all(np.isfinite(values.view(float))):
                raise RuntimeError(f"solution lost finiteness at t={t}")
        yield target, values


def evolve_path(psi0: WaveField, family: PotentialFamily, path: PathSample,
                kernel: HartreeKernel | None, cfg: SolverConfig) -> TrajectoryOutput:
    """Propagate psi0 along one Markov path, sampling at cfg.sample_times."""
    grid = psi0.grid
    if lebesgue_norm(psi0, 2) == 0.0:
        raise ValueError("initial data must have positive L2 norm")
    if path.horizon < cfg.sample_times[-1] - 1e-12:
        raise ValueError("path horizon is shorter than the last sample time")
    if family.grid.size != grid.size:
        raise ValueError("potential family lives on a different grid")

    eps = cfg.epsilon
    use_hartree = kernel is not None and eps != 0.0
    if use_hartree and kernel.epsilon != eps:
        kernel = HartreeKernel(grid, kernel.chi, epsilon=eps)

    def potential_at(t_mid: float, values: np.ndarray) -> np.ndarray:
        V = family.V[state_at(path, t_mid)].reshape(grid.shape)
        if use_hartree:
            mid = WaveField(grid, values.reshape(-1))
            return V + hartree_potential(mid, kernel).reshape(grid.shape)
        return V

    snapshots: list[WaveField] = []
    states: list[int] = []
    scalar_rows: list[tuple] = []
    for time, values in _march(psi0, path, cfg, potential_at):
        f = WaveField(grid, values.reshape(-1).copy())
        snapshots.append(f)
        states.append(state_at(path, min(time, path.horizon)))
        e = energy_breakdown(f, realize(family, path, min(time, path.horizon)),
                             kernel if use_hartree else None, t=time)
        scalar_rows.append((time, lebesgue_norm(f, 2), sum_norm(f),
                            e.kinetic, e.potential, e.hartree))

    names = ("t", "l2", "suml2linf", "energy_kinetic", "energy_potential",
             "energy_hartree")
    columns = {k: np.array(col) for k, col in zip(names, zip(*scalar_rows))}
    return TrajectoryOutput(grid=grid, sample_times=cfg.sample_times.copy(),
                            snapshots=snapshots, states=np.array(states),
                            scalars=columns)


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
    if idx > 0:
        integrand = []
        for j in range(idx + 1):
            s = times[j]
            snap = output.snapshots[j]
            V = realize(family, path, s)
            G = V * snap.values
            if kernel is not None and eps != 0.0:
                G = G + hartree_potential(snap, HartreeKernel(grid, kernel.chi, eps)) \
                    * snap.values
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
    grid = psi0.grid
    # dense schedule for freezing: every base step is a sample time
    T = float(cfg.sample_times[-1])
    n_total = int(round(T / cfg.dt))
    dense_times = cfg.dt * np.arange(n_total + 1)
    dense_times[-1] = T
    dense_cfg = SolverConfig(dt=cfg.dt, sample_times=dense_times, order=cfg.order,
                             epsilon=0.0, source=cfg.source)
    states = np.array([state_at(path, min(s, path.horizon)) for s in dense_times])

    def frozen_potential(prev: TrajectoryOutput | None):
        """V_omega plus the previous iterate's Hartree field, if any."""
        fields = None
        if prev is not None and cfg.epsilon != 0.0:
            frozen_kernel = HartreeKernel(grid, kernel.chi, cfg.epsilon)
            fields = np.array([hartree_potential(snap, frozen_kernel)
                               for snap in prev.snapshots])

        def potential_at(t_mid: float, _values: np.ndarray) -> np.ndarray:
            V = family.V[state_at(path, min(t_mid, path.horizon))]
            if fields is not None:
                x = min(max(t_mid / cfg.dt, 0.0), n_total - 1e-9)
                j = int(x)
                w = x - j
                V = V + ((1.0 - w) * fields[j] + w * fields[min(j + 1, n_total)])
            return V.reshape(grid.shape)
        return potential_at

    trajectories: list[TrajectoryOutput] = []
    deltas = []
    prev = None  # iterate 0 is the zero field
    sample_idx = np.rint(np.asarray(cfg.sample_times) / cfg.dt).astype(int)
    for n in range(1, n_iters + 1):
        snapshots = [WaveField(grid, values.reshape(-1).copy()) for _, values
                     in _march(psi0, path, dense_cfg, frozen_potential(prev))]
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
