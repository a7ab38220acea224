"""Finite-state stationary Markov driver.

Generators are restricted to weighted-graph Laplacians: real symmetric,
positive semidefinite, zero row sums, non-positive off-diagonal entries,
one-dimensional kernel (connected graph).  That class guarantees that
e^{-tA} is a genuine symmetric stochastic transition kernel and that the
ground state of A is the flat distribution.

Path sampling is exact (jump-chain): hold in state y for an Exp(A_yy)
time, then jump to y' with probability -A[y,y']/A[y,y].  Randomness comes
from numpy's default PCG64 generator keyed by ``SeedSequence([seed])`` or,
for ensemble member i, ``SeedSequence([master_seed, i])``; this is fixed
and platform-independent, so a (model, horizon, seed) triple always
reproduces the same path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeneratorReport",
    "MarkovModel",
    "HeatKernel",
    "PathSample",
    "validate_generator",
    "ground_state",
    "heat_kernel",
    "sample_path",
    "state_at",
    "path_rng",
]

KERNEL_TOL = 1e-10


@dataclass
class GeneratorReport:
    """Checks mirroring the semigroup conditions for a candidate generator."""

    symmetry_residual: float
    min_eigenvalue: float
    row_sum_residual: float
    offdiag_sign_violations: int
    kernel_dimension: int

    @property
    def passes(self) -> bool:
        scale = max(abs(self.min_eigenvalue), self.row_sum_residual, 1.0)
        return (
            self.symmetry_residual <= KERNEL_TOL * scale
            and self.min_eigenvalue >= -KERNEL_TOL * scale
            and self.row_sum_residual <= KERNEL_TOL * scale
            and self.offdiag_sign_violations == 0
            and self.kernel_dimension == 1
        )


def validate_generator(A: np.ndarray) -> GeneratorReport:
    """Run the generator checks and return the full report."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("generator must be a square matrix")
    m = A.shape[0]
    sym_res = float(np.max(np.abs(A - A.T), initial=0.0))
    eigvals = np.linalg.eigvalsh(0.5 * (A + A.T))
    norm = float(np.max(np.abs(eigvals), initial=0.0))
    row_res = float(np.max(np.abs(A.sum(axis=1)), initial=0.0))
    off = A - np.diag(np.diag(A))
    violations = int(np.count_nonzero(off > KERNEL_TOL * max(norm, 1.0)))
    kernel_dim = int(np.count_nonzero(eigvals <= KERNEL_TOL * norm))
    return GeneratorReport(
        symmetry_residual=sym_res,
        min_eigenvalue=float(eigvals[0]) if m else 0.0,
        row_sum_residual=row_res,
        offdiag_sign_violations=violations,
        kernel_dimension=kernel_dim,
    )


def ground_state(A: np.ndarray) -> np.ndarray:
    """Unique positive zero-energy eigenvector of A, normalized to sum 1."""
    report = validate_generator(A)
    if report.kernel_dimension != 1:
        raise ValueError(
            f"kernel dimension is {report.kernel_dimension}, expected 1 "
            "(generator must correspond to a connected graph)"
        )
    A = np.asarray(A, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (A + A.T))
    h = eigvecs[:, 0]
    if h.sum() < 0:
        h = -h
    if np.any(h <= 0):
        raise ValueError("ground state is not strictly positive")
    h = h / h.sum()
    norm = float(np.max(np.abs(eigvals)))
    if np.max(np.abs(A @ h)) > KERNEL_TOL * max(norm, 1.0):
        raise ValueError("ground state residual too large")
    return h


@dataclass(frozen=True)
class MarkovModel:
    """Validated generator plus an initial law (vector or Dirac state index).

    Both are checked once, at construction, and kept as read-only arrays
    (the law as a vector); the model cannot be changed afterwards, so its
    eigendecomposition and jump laws always belong to its A.
    """

    A: np.ndarray
    initial_law: np.ndarray | int = 0

    def __post_init__(self) -> None:
        A = np.array(self.A, dtype=float)
        report = validate_generator(A)
        if not report.passes:
            raise ValueError(f"generator fails validation: {report}")
        m = A.shape[0]
        if isinstance(self.initial_law, (int, np.integer)):
            if not 0 <= self.initial_law < m:
                raise ValueError("Dirac initial state out of range")
            law = np.zeros(m)
            law[self.initial_law] = 1.0
        else:
            law = np.array(self.initial_law, dtype=float)
            if law.shape != (m,) or np.any(law < 0) or abs(law.sum() - 1.0) > 1e-12:
                raise ValueError("initial law must be a probability vector of length m")
        rates = np.diag(A).copy()
        off = np.diag(rates) - A  # the off-diagonal jump rates
        if np.any((rates <= 0.0) & np.any(off > 0, axis=1)):
            raise ValueError("a state with zero holding rate has off-diagonal mass")
        # (holding rates, each state's jump cdf or None when absorbing, the
        # initial-law cdf), for every path sample_path draws
        jump_laws = (rates, [_cdf(off[y] / rate, f"jump law of state {y}") if rate > 0.0
                             else None for y, rate in enumerate(rates)],
                     _cdf(law, "initial law"))
        A.flags.writeable = law.flags.writeable = False
        for name, value in (("A", A), ("initial_law", law), ("_jump_laws", jump_laws),
                            ("_eigh", np.linalg.eigh(A))):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def ground_state(self) -> np.ndarray:
        return ground_state(self.A)


@dataclass
class HeatKernel:
    """Transition matrix K[y1, y2] = P(X_t = y1 | X_0 = y2) = e^{-tA}(y1, y2)."""

    t: float
    K: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        K = np.asarray(self.K, dtype=float)
        if np.min(K) < -1e-12:
            raise ValueError("heat kernel has a negative entry")
        if np.max(np.abs(K.sum(axis=0) - 1.0)) > 1e-10:
            raise ValueError("heat kernel columns do not sum to 1")
        if np.max(np.abs(K - K.T)) > 1e-10 * max(1.0, np.max(np.abs(K))):
            raise ValueError("heat kernel is not symmetric")
        self.K = K


def heat_kernel(model: MarkovModel, t: float) -> HeatKernel:
    """e^{-tA} from the model's symmetric eigendecomposition."""
    if t < 0:
        raise ValueError("t must be >= 0")
    eigvals, eigvecs = model._eigh
    K = (eigvecs * np.exp(-t * eigvals)) @ eigvecs.T
    return HeatKernel(t=float(t), K=K)


@dataclass
class PathSample:
    """Piecewise-constant right-continuous realization of the chain on [0, T]."""

    horizon: float
    jump_times: np.ndarray
    states: np.ndarray
    seed: tuple[int, ...]

    def __post_init__(self) -> None:
        self.jump_times = np.asarray(self.jump_times, dtype=float)
        self.states = np.asarray(self.states, dtype=np.int64)
        if self.states.size != self.jump_times.size + 1:
            raise ValueError("states must have one more entry than jump_times")
        if self.jump_times.size:
            if self.jump_times[0] <= 0 or self.jump_times[-1] >= self.horizon:
                raise ValueError("jump times must lie strictly inside (0, T)")
            if np.any(np.diff(self.jump_times) <= 0):
                raise ValueError("jump times must be strictly increasing")
            if np.any(self.states[1:] == self.states[:-1]):
                raise ValueError("consecutive states must differ")

    @classmethod
    def _sampled(cls, horizon: float, jump_times: np.ndarray, states: np.ndarray,
                 seed: tuple[int, ...]) -> "PathSample":
        """A path as :func:`sample_path` builds it, whose invariants hold by
        construction (see there), so they are not checked again."""
        path = object.__new__(cls)
        path.horizon, path.jump_times, path.states, path.seed = horizon, jump_times, states, seed
        return path


def path_rng(seed: int | tuple[int, ...]) -> np.random.Generator:
    """PCG64 generator keyed by the documented seed-splitting scheme."""
    entropy = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _cdf(p: np.ndarray, what: str) -> np.ndarray:
    """Normalized cdf of a probability vector, built as rng.choice builds it,
    so cdf.searchsorted(rng.random(), side="right") draws what it draws."""
    if np.any(p < 0) or abs(p.sum() - 1.0) > np.sqrt(np.finfo(float).eps):
        raise ValueError(f"{what} is not a probability vector: {p}")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_path(model: MarkovModel, T: float, seed: int | tuple[int, ...]) -> PathSample:
    """Exact jump-chain sample of the chain with rate matrix Q = -A on [0, T].

    The path is built valid: a jump law puts no mass on its own state, so
    consecutive states differ; a jump is kept only before T; and a jump
    time that does not exceed the one before (a holding time of 0, or one
    lost to rounding) is rejected here with PathSample's own errors.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    rates, jump_cdfs, initial_cdf = model._jump_laws
    rng = path_rng(seed)
    y = int(initial_cdf.searchsorted(rng.random(), side="right"))
    jump_times: list[float] = []
    states = [y]
    t = 0.0
    while jump_cdfs[y] is not None:  # None: an absorbing state
        previous, t = t, t + rng.exponential(1.0 / rates[y])
        if t >= T:
            break
        if t <= previous:
            raise ValueError("jump times must be strictly increasing" if jump_times
                             else "jump times must lie strictly inside (0, T)")
        y = int(jump_cdfs[y].searchsorted(rng.random(), side="right"))
        jump_times.append(t)
        states.append(y)
    seed_tuple = (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
    return PathSample._sampled(float(T), np.array(jump_times, dtype=float),
                               np.array(states, dtype=np.int64), seed_tuple)


def state_at(path: PathSample, t: float | np.ndarray) -> int | np.ndarray:
    """Right-continuous evaluation: at a jump time the post-jump state counts.

    For an array of times, the states at each of them as an array."""
    t = np.asarray(t, dtype=float)
    if t.min() < 0 or t.max() > path.horizon:
        raise ValueError(f"t={t} outside [0, {path.horizon}]")
    states = path.states[np.searchsorted(path.jump_times, t, side="right")]
    return int(states) if t.ndim == 0 else states
