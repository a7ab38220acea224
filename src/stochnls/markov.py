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

:func:`sample_path` keys each path through numpy's own ``SeedSequence``
(:func:`path_rng`).  :func:`sample_paths` draws a batch of ensemble members
under the same contract, bit for bit: it runs SeedSequence's documented
hash (pool size 4) on every member's entropy ``[master_seed, i]`` at once
as uint32 arrays, then PCG64's seeding in Python ints, and hands each
member's state in turn to one reused PCG64.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache

import numpy as np

__all__ = [
    "GeneratorReport",
    "MarkovModel",
    "HeatKernel",
    "PathSample",
    "validate_generator",
    "heat_kernel",
    "sample_path",
    "sample_paths",
    "states_at",
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
        # (each state's (mean holding time, jump cdf), or None when absorbing;
        # the initial-law cdf), for every path _draw_path draws
        jump_laws = ([(1.0 / rate, _cdf(off[y] / rate, f"jump law of state {y}"))
                      if rate > 0.0 else None for y, rate in enumerate(rates.tolist())],
                     _cdf(law, "initial law"))
        A.flags.writeable = law.flags.writeable = False
        for name, value in (("A", A), ("initial_law", law), ("_jump_laws", jump_laws),
                            ("_eigh", np.linalg.eigh(A))):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def ground_state(self) -> np.ndarray:
        """The flat law: a validated A is symmetric with zero row sums and a
        one-dimensional kernel, so the constants span it."""
        return np.full(self.m, 1.0 / self.m)


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


def _cdf(p: np.ndarray, what: str) -> list[float]:
    """Normalized cdf of a probability vector, built as rng.choice builds it,
    so bisect_right(cdf, rng.random()) draws what it draws."""
    if np.any(p < 0) or abs(p.sum() - 1.0) > np.sqrt(np.finfo(float).eps):
        raise ValueError(f"{what} is not a probability vector: {p}")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw_path(model: MarkovModel, T: float, rng, seed: tuple[int, ...]) -> PathSample:
    """The jump chain of model on [0, T], drawn from rng.

    The path is built valid: a jump law puts no mass on its own state, so
    consecutive states differ; a jump is kept only before T; and a jump
    time that does not exceed the one before (a holding time of 0, or one
    lost to rounding) is rejected here with PathSample's own errors.
    """
    jump_laws, initial_cdf = model._jump_laws
    y = bisect_right(initial_cdf, rng.random())
    jump_times: list[float] = []
    states = [y]
    t = 0.0
    while (law := jump_laws[y]) is not None:  # None: an absorbing state
        previous, t = t, t + rng.exponential(law[0])
        if t >= T:
            break
        if t <= previous:
            raise ValueError("jump times must be strictly increasing" if jump_times
                             else "jump times must lie strictly inside (0, T)")
        y = bisect_right(law[1], rng.random())
        jump_times.append(t)
        states.append(y)
    return PathSample._sampled(float(T), np.array(jump_times, dtype=float),
                               np.array(states, dtype=np.int64), seed)


def sample_path(model: MarkovModel, T: float, seed: int | tuple[int, ...]) -> PathSample:
    """Exact jump-chain sample of the chain with rate matrix Q = -A on [0, T],
    drawn from :func:`path_rng` (seed); see :func:`_draw_path`."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    rng = path_rng(seed)
    seed_tuple = (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
    return _draw_path(model, T, rng, seed_tuple)


def sample_paths(model: MarkovModel, T: float, master_seed: int, indices) -> list[PathSample]:
    """``sample_path(model, T, seed=(master_seed, i))`` for each i of indices,
    bit for bit.  The batch's PCG64 states come from one vectorized pass
    (:func:`_pcg64_states`), and one PCG64 takes each state in turn."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    master_seed = operator.index(master_seed)
    indices = [operator.index(i) for i in indices]
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    paths = []
    for i, (state, inc) in zip(indices, _pcg64_states(master_seed, indices)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        paths.append(_draw_path(model, T, rng, (master_seed, i)))
    return paths


# numpy's SeedSequence hash (numpy.random.bit_generator) and PCG64's seeding
# (pcg64.h), constant for constant.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix, while mixing entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the same hash, while generating state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_calls(init: int, mult: int, calls: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) constants of a hash's first calls: the constant
    advances by the same product whatever the data, and call n multiplies
    by call n + 1's xor constant."""
    xors = [init]
    for _ in range(calls):
        xors.append(xors[-1] * mult & _MASK32)
    return list(zip(xors[:-1], xors[1:]))


def _columns(rows: list[list[tuple[int, int]]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row of (xor, multiplier) pairs as two read-only uint32 columns."""
    table = np.array(rows, dtype=np.uint32)  # (stages, slots, 2)
    table.flags.writeable = False
    return [(stage[:, :1], stage[:, 1:]) for stage in table]


@cache
def _mixing_stages(words: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """hashmix's (xor, multiplier) columns, one row per pool slot, for each
    stage of mixing `words` entropy words into the pool: the first words
    into their slots; slot s into every other slot, for s = 0..3 (slot s's
    own row is unused, 0); then each word past the pool into every slot."""
    calls = _hash_calls(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(words - _POOL, 0))
    stages = [calls[:_POOL]]
    for s in range(_POOL):
        into = calls[_POOL + (_POOL - 1) * s:_POOL + (_POOL - 1) * (s + 1)]
        stages.append(into[:s] + [(0, 0)] + into[s:])
    stages += [calls[c:c + _POOL] for c in range(_POOL * _POOL, len(calls), _POOL)]
    return _columns(stages)


# generate_state(4, uint64): eight words, cycling through the pool twice
_GENERATE = _columns([_hash_calls(_INIT_B, _MULT_B, 2 * _POOL)])[0]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def _entropy_words(n: int) -> list[int]:
    """n's uint32 words, least significant first, as SeedSequence splits an
    entropy int (0 is one word)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_states(master_seed: int, indices: list[int]) -> list[tuple[int, int]]:
    """(state, inc) of ``PCG64(SeedSequence([master_seed, i]))`` for each i.

    The entropy of member i is master_seed's words followed by i's.  The
    hash of each group of indices with the same word count runs once, on
    uint32 arrays with one column per index; master_seed's words enter as
    one shared column.
    """
    master = [np.array([w], dtype=np.uint32) for w in _entropy_words(master_seed)]
    words = [_entropy_words(i) for i in indices]
    states: list = [None] * len(indices)
    for count in sorted(set(map(len, words))):
        at = [k for k, w in enumerate(words) if len(w) == count]
        rows = np.array([words[k] for k in at], dtype=np.uint32).T
        for k, state in zip(at, _pcg64_group(master + list(rows))):
            states[k] = state
    return states


def _pcg64_group(entropy: list[np.ndarray]) -> list[tuple[int, int]]:
    """PCG64's (state, inc) for entropy given word by word, each word a
    shared (1,) column or one entry per member."""
    stages = _mixing_stages(len(entropy))
    # the first words, zeros past the end, each hashed into its slot
    pool = np.zeros((_POOL, max(w.size for w in entropy[:_POOL])), dtype=np.uint32)
    for slot, word in zip(pool, entropy):
        slot[:] = word
    pool = _hashmix(pool, *stages[0])
    for s in range(_POOL):  # slot s into every other slot
        mixed = _mix(pool, _hashmix(pool[s], *stages[1 + s]))
        mixed[s] = pool[s]  # slot s itself is left as it was
        pool = mixed
    for word, stage in zip(entropy[_POOL:], stages[1 + _POOL:]):
        pool = _mix(pool, _hashmix(word, *stage))  # a word past the pool, into every slot
    # four uint64 from the eight uint32 words in little-endian pairs:
    # initstate's high and low halves, then initseq's
    out = _hashmix(np.concatenate((pool, pool)), *_GENERATE).astype(np.uint64)
    seed = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1, then two LCG steps
    # from 0 with initstate added between them
    states = []
    for hi, lo, inc_hi, inc_lo in zip(*seed):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        states.append(((((hi << 64 | lo) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _flat_paths(paths: list[PathSample]) -> tuple[np.ndarray, ...]:
    """Every row's jumps in one flat array, row by row, as (jump_times,
    owner, states, y0): jump g of row r enters state g + r + 1 of the flat
    state array, and y0 holds each row's flat state index at t = 0."""
    counts = np.array([p.jump_times.size for p in paths])
    y0 = np.cumsum(counts) - counts + np.arange(len(paths))
    return (np.concatenate([p.jump_times for p in paths]),
            np.repeat(np.arange(len(paths)), counts),
            np.concatenate([p.states for p in paths]), y0)


def states_at(paths: list[PathSample], t: np.ndarray) -> np.ndarray:
    """Right-continuous evaluation of B paths at T times t, shape (T,) or
    (B, T): at a jump time the post-jump state counts.  The (B, T) states
    come from one count of each row's jumps at or before each time."""
    jump_times, owner, states, y0 = _flat_paths(paths)
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(paths), np.shape(t)[-1]))
    horizons = np.array([p.horizon for p in paths])
    if t.min() < 0 or np.any(t > horizons[:, None]):
        raise ValueError("a time lies outside [0, horizon] of its path")
    passed = np.zeros((jump_times.size + 1, t.shape[1]), dtype=np.int64)
    np.cumsum(jump_times[:, None] <= t[owner], axis=0, out=passed[1:])
    first = y0 - np.arange(len(paths))  # each row's first jump in jump_times
    return states[y0[:, None] + passed[np.append(first[1:], jump_times.size)] - passed[first]]
