"""Monte Carlo driver: many per-path solves, binned sums, and the
stochastic sides of the identities.

Conditioning on the chain's position is exact set-membership binning per
sample time (the state space is finite).  The estimates weight jointly:
bin sum / N, i.e. the conditional mean E{psi | X_t = y} multiplied by the
empirical bin probability.  This matches the bookkeeping of the
deterministic averaged equations, whose unknowns carry the state
probability, so an empty bin reads zero, not missing data.

Path i of an ensemble uses the seed pair (master_seed, i); paths are
marched in lockstep batches, each path bitwise as if alone.  The sums of
the fields, their squared moduli and the counts take one add per path in
path order, per (sample time, state) bin; the outer products take one
matrix product per bin over fixed chunks of paths, in chunk order.
Chunk boundaries are fixed path indices, not batch boundaries, so a
(configs, master_seed) pair reproduces the reduction bit-for-bit
regardless of worker count and batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .averaged import AveragedDensityMatrix, AveragedField
from .grid import ParityBlock, WaveField, lorentz_norm_rows
from .markov import MarkovModel, sample_paths
from .potential import HartreeKernel, PotentialFamily
from .propagator import SolverConfig, TrajectoryOutput, evolve_paths

# Not used here: the benchmark's tracer (perfbench/layers.py) wraps them under
# this module's name.
from .markov import sample_path  # noqa: F401
from .propagator import evolve_path  # noqa: F401

__all__ = [
    "EnsembleConfig",
    "ConditionalAverage",
    "PathScalarSeries",
    "FieldEstimate",
    "DensityMatrixEstimate",
    "run_ensemble",
    "estimate_g",
    "estimate_f",
    "feynman_kac_lhs",
    "weighted_mass_series",
    "weighted_energy_average",
    "strichartz_orders",
    "write_summary_json",
]


@dataclass
class EnsembleConfig:
    N: int
    master_seed: int
    horizon: float
    store_density_matrix: bool = False

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be >= 1")


@dataclass
class ConditionalAverage:
    """Per-(time, state) sums of the fields, their squared moduli, counts,
    and optionally outer products, over an ensemble of N paths."""

    grid: object
    sample_times: np.ndarray
    m: int
    N: int
    sums: np.ndarray = field(repr=False)          # (T, m, size) complex
    sums_sq: np.ndarray = field(repr=False)       # (T, m, size) real
    counts: np.ndarray = field(repr=False)        # (T, m) int
    outer_sums: np.ndarray | None = field(repr=False, default=None)

    @staticmethod
    def merged(parts: list["ConditionalAverage"]) -> "ConditionalAverage":
        """Union of disjoint sub-ensembles: the sums simply add."""
        first = parts[0]
        outer = None
        if all(p.outer_sums is not None for p in parts):
            outer = np.sum([p.outer_sums for p in parts], axis=0)
        return ConditionalAverage(
            grid=first.grid, sample_times=first.sample_times.copy(),
            m=first.m, N=sum(p.N for p in parts),
            sums=np.sum([p.sums for p in parts], axis=0),
            sums_sq=np.sum([p.sums_sq for p in parts], axis=0),
            counts=np.sum([p.counts for p in parts], axis=0),
            outer_sums=outer,
        )


@dataclass
class PathScalarSeries:
    """Per-path scalar series, shape (N, T) each, in path order."""

    sample_times: np.ndarray
    state: np.ndarray
    l2: np.ndarray
    suml2linf: np.ndarray
    energy_kinetic: np.ndarray
    energy_potential: np.ndarray
    energy_hartree: np.ndarray
    weighted_mass: np.ndarray  # int |V_omega(x,t)| |psi|^2 dx
    lorentz62: np.ndarray      # spatial L^{6,2} norm per path and time


def weighted_mass_series(output: TrajectoryOutput, family: PotentialFamily) -> np.ndarray:
    """int |V(x, X_t)| |psi(x,t)|^2 dx along one trajectory."""
    return _weighted_mass(family, output.states, output.fields)


def _weighted_mass(family: PotentialFamily, states: np.ndarray,
                   fields: np.ndarray) -> np.ndarray:
    """int |V(x, y)| |psi(x)|^2 dx for fields (..., size) in states (...)."""
    return family.grid.cell_volume * np.sum(np.abs(family.V)[states]
                                            * np.abs(fields) ** 2, axis=-1)


# Paths marched together at most; memory grows as rows * sample times * grid size.
_BATCH_ROWS = 256
# Paths per chunk of the outer-product sums (see _reduce).
_CHUNK = 128


def _solve_batch(lo: int, hi: int, psi0_law, family, model, kernel, cfg, ecfg):
    """Map phase: everything paths lo..hi-1 contribute to the reduction."""
    grid = psi0_law.grid
    paths = sample_paths(model, ecfg.horizon, ecfg.master_seed, range(lo, hi))
    psi0 = np.array([psi0_law.values for _ in paths])
    fields, states, scalars = evolve_paths(psi0, family, paths, kernel, cfg)
    scalars["weighted_mass"] = _weighted_mass(family, states, fields)
    scalars["lorentz62"] = lorentz_norm_rows(
        grid, fields.reshape(-1, grid.size), 6.0, 2.0).reshape(states.shape)
    return states, fields, scalars


def run_ensemble(psi0_law: WaveField, family: PotentialFamily, model: MarkovModel,
                 kernel: HartreeKernel | None, cfg: SolverConfig,
                 ecfg: EnsembleConfig,
                 workers: int = 1) -> tuple[ConditionalAverage, PathScalarSeries]:
    """Run N path solves from the one initial field psi0_law and reduce them
    into per-(sample time, state) bin sums.

    Paths are marched together in lockstep batches; with workers > 1 the
    batches run in a process pool.  The reduce phase always consumes paths
    in index order, and each path's march is independent of its batch, so
    the output is identical bit for bit for any worker count.
    """
    grid = psi0_law.grid
    T_axis = cfg.sample_times.size
    m = model.m
    sums = np.zeros((T_axis, m, grid.size), dtype=np.complex128)
    sums_sq = np.zeros((T_axis, m, grid.size))
    counts = np.zeros((T_axis, m), dtype=np.int64)
    outer = None
    if ecfg.store_density_matrix:
        if grid.dim != 1:
            raise ValueError("density-matrix accumulation is restricted to d = 1")
        outer = np.zeros((T_axis, m, grid.size, grid.size), dtype=np.complex128)

    scalar_names = ("l2", "suml2linf", "energy_kinetic", "energy_potential",
                    "energy_hartree", "weighted_mass", "lorentz62")
    scalars = {k: np.empty((ecfg.N, T_axis)) for k in scalar_names}
    states = np.empty((ecfg.N, T_axis), dtype=np.int64)

    rows = min(_BATCH_ROWS, -(-ecfg.N // max(workers, 1)))
    starts = range(0, ecfg.N, rows)
    ends = [min(lo + rows, ecfg.N) for lo in starts]
    job = partial(_solve_batch, psi0_law=psi0_law, family=family, model=model,
                  kernel=kernel, cfg=cfg, ecfg=ecfg)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            _reduce(zip(starts, pool.map(job, starts, ends)), sums, sums_sq, counts,
                    outer, states, scalars)
    else:
        _reduce(zip(starts, map(job, starts, ends)), sums, sums_sq, counts, outer,
                states, scalars)

    avg = ConditionalAverage(
        grid=grid, sample_times=cfg.sample_times.copy(), m=m, N=ecfg.N,
        sums=sums, sums_sq=sums_sq, counts=counts, outer_sums=outer,
    )
    series = PathScalarSeries(sample_times=cfg.sample_times.copy(), state=states,
                              **scalars)
    return avg, series


def _reduce(batches, sums, sums_sq, counts, outer, states, scalars) -> None:
    """Fixed-order reduction over (first path index, batch payload) pairs.

    Per (sample time, state) bin, a batch's rows in it are added to sums
    and sums_sq as one axis-0 reduction of the entry stacked on them, a
    sequential left fold: every entry takes one add per path, in path
    order, across batches.  The outer products are
    added per chunk of _CHUNK paths, chunk c holding paths
    [c * _CHUNK, (c + 1) * _CHUNK): one matrix product per (sample time,
    state) bin, the chunks in order.  A chunk inside one batch is read
    from the batch in place; the rows of a chunk that goes on into the
    next batch are copied until that batch arrives.
    """
    pending = []  # (states, fields) pieces of the chunk not yet complete
    for lo, (batch_states, fields, batch_scalars) in batches:
        moduli = np.abs(fields) ** 2
        for j, y in np.ndindex(counts.shape):
            in_bin = batch_states[:, j] == y
            for acc, rows in ((sums, fields), (sums_sq, moduli)):
                acc[j, y] = np.add.reduce(np.concatenate((acc[j, y][None], rows[in_bin, j])),
                                          axis=0)
            counts[j, y] += np.count_nonzero(in_bin)
        hi = lo + len(batch_states)
        states[lo:hi] = batch_states
        for k, table in scalars.items():
            table[lo:hi] = batch_scalars[k]
        if outer is None:
            continue
        if pending:  # the previous batch's piece: keep a copy, not the batch
            pending[-1] = tuple(a.copy() for a in pending[-1])
        start = lo
        while start < hi:
            end = min(hi, (start // _CHUNK + 1) * _CHUNK)
            pending.append((batch_states[start - lo:end - lo], fields[start - lo:end - lo]))
            if end % _CHUNK == 0:
                _add_outer(outer, pending)
                pending = []
            start = end
    if pending:
        _add_outer(outer, pending)


def _add_outer(outer, pieces) -> None:
    """Add one chunk's outer products, given as (states, fields) pieces in
    path order: per (sample time, state) bin, the rows psi_i of the chunk's
    paths in that bin add sum_i psi_i psi_i^* as one product."""
    for j in range(outer.shape[0]):
        for y in range(outer.shape[1]):
            rows = [f[s[:, j] == y, j] for s, f in pieces]
            rows = rows[0] if len(rows) == 1 else np.concatenate(rows)
            if len(rows):
                outer[j, y] += rows.T @ rows.conj()


@dataclass
class FieldEstimate:
    fields: list[AveragedField]
    stderr: np.ndarray = field(repr=False)  # (T, m, size)


@dataclass
class DensityMatrixEstimate:
    matrices: list[AveragedDensityMatrix]


def estimate_g(avg: ConditionalAverage, weighting: str = "joint") -> FieldEstimate:
    """Package the joint ensemble mean of psi as per-time averaged fields.

    The binned variable is psi * indicator(X_t = y), whose moments are
    exactly the bin sums over N; the per-entry standard errors come from
    its sample variance.
    """
    # Only "joint" is accepted: the name stays because the benchmark
    # (perfbench/workloads.py) passes it positionally, here and to estimate_f.
    if weighting != "joint":
        raise ValueError("weighting must be 'joint'")
    fields = []
    stderr = np.empty((avg.sample_times.size, avg.m, avg.sums.shape[2]))
    for ti, t in enumerate(avg.sample_times):
        mean = avg.sums[ti] / avg.N
        var = np.maximum(avg.sums_sq[ti] / avg.N - np.abs(mean) ** 2, 0.0)
        stderr[ti] = np.sqrt(var / avg.N)
        fields.append(AveragedField(avg.grid, mean, t=float(t)))
    return FieldEstimate(fields=fields, stderr=stderr)


def estimate_f(avg: ConditionalAverage, weighting: str = "joint") -> DensityMatrixEstimate:
    """Joint ensemble estimate of the averaged density matrix (needs the
    outer products accumulated; d = 1)."""
    if avg.outer_sums is None:
        raise ValueError("run the ensemble with store_density_matrix=True")
    if weighting != "joint":  # bound by name only (see estimate_g)
        raise ValueError("weighting must be 'joint'")
    matrices = []
    for ti, t in enumerate(avg.sample_times):
        f = avg.outer_sums[ti] / avg.N
        f = 0.5 * (f + f.conj().transpose(0, 2, 1))  # Hermitian bit for bit
        matrices.append(AveragedDensityMatrix._marched(
            avg.grid, [(ParityBlock(avg.grid.size), f)], avg.m, float(t)))
    return DensityMatrixEstimate(matrices=matrices)


def feynman_kac_lhs(series: PathScalarSeries) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and standard error of int |V_omega| |psi|^2 dx."""
    table = series.weighted_mass
    mean = table.mean(axis=0)
    n = table.shape[0]
    se = table.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, se


def strichartz_orders(series: PathScalarSeries) -> dict:
    """Both orderings of the mixed space-time norm, labeled.

    The ensemble-outside order sqrt(E ||psi||^2_{L2_t L^{6,2}_x}) and the
    mean of the per-path norms differ in general; identity checks at desk
    scale use per-path quantities, so both are reported side by side.
    """
    t = series.sample_times
    if t.size < 2:
        raise ValueError("need at least two sample times")
    dt = float(t[1] - t[0])
    if np.max(np.abs(np.diff(t) - dt)) > 1e-10 * dt:
        raise ValueError("strichartz orders need uniform sample times")
    w = np.full(t.size, dt)
    w[0] = w[-1] = 0.5 * dt
    per_path_sq = series.lorentz62**2 @ w  # (N,) squared L2_t L^{6,2}_x norms
    return {
        "l2_omega_l2_t_l62": float(np.sqrt(per_path_sq.mean())),
        "per_path_mean_l2_t_l62": float(np.mean(np.sqrt(per_path_sq))),
        "per_path_std_l2_t_l62": float(np.std(np.sqrt(per_path_sq))),
    }


def weighted_energy_average(series: PathScalarSeries, model: MarkovModel) \
        -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of h(X_t) * E[psi](t) over the ensemble."""
    h = model.ground_state()
    weights = h[series.state]
    energy = series.energy_kinetic + series.energy_potential + series.energy_hartree
    vals = weights * energy
    mean = vals.mean(axis=0)
    n = vals.shape[0]
    se = vals.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, se


def write_summary_json(path, avg: ConditionalAverage, series: PathScalarSeries,
                       ecfg: EnsembleConfig, residuals: dict | None = None) -> None:
    """{N, seed, per-time: {counts, scalar means, standard errors, ...}}."""
    import json

    n = series.l2.shape[0]
    moments = {}  # name: (means, standard errors) per time, over each time's contiguous row
    for name in ("l2", "suml2linf", "energy_kinetic", "energy_potential",
                 "energy_hartree", "weighted_mass"):
        table = np.ascontiguousarray(getattr(series, name).T)
        moments[name] = (table.mean(axis=1), table.std(axis=1, ddof=1) / np.sqrt(n) if n > 1
                         else np.zeros(len(table)))
    per_time = []
    for j, t in enumerate(avg.sample_times):
        entry = {
            "t": float(t),
            "counts": avg.counts[j].tolist(),
            "scalars": {name: {"mean": float(mean[j]), "stderr": float(se[j])}
                        for name, (mean, se) in moments.items()},
        }
        if residuals is not None:
            entry["identity_residuals"] = {
                k: (float(v[j]) if np.ndim(v) else float(v))
                for k, v in residuals.items()
            }
        per_time.append(entry)
    doc = {"N": ecfg.N, "seed": ecfg.master_seed, "horizon": ecfg.horizon,
           "per_time": per_time}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True))  # one write, the same encoder
