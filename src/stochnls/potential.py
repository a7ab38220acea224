"""Potential families V(x, y) over the Markov states.

A family holds one real field per state.  Besides constructors for the two
standard shapes of randomness (translated wells, amplitude modulation) this
module provides the symmetric square-root split V = v1*v2, the
degenerate-randomness checker, and the averaged field A[hV] that enters the
energy-flux hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import SpatialGrid, WaveField, blas_padded, convolution_spectrum, is_even, \
    lorentz_norm, spectral_convolution
from .markov import MarkovModel

__all__ = [
    "PotentialFamily",
    "SplitWeights",
    "HartreeKernel",
    "NontrivialityReport",
    "shape_field",
    "make_translate_family",
    "make_amplitude_family",
    "check_nontriviality",
    "a_of_hv",
    "split",
]


@dataclass
class PotentialFamily:
    """Real fields V(., y), one per Markov state, stored as an (m, n^d) array."""

    grid: SpatialGrid
    V: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.V = np.asarray(self.V, dtype=float)
        if self.V.ndim != 2 or self.V.shape[1] != self.grid.size:
            raise ValueError("V must have shape (m, grid.size)")
        if not np.all(np.isfinite(self.V)):
            raise ValueError("potential contains non-finite entries")

    @property
    def m(self) -> int:
        return self.V.shape[0]


@dataclass
class SplitWeights:
    """Symmetric decomposition v1 = |V|^{1/2}, v2 = |V|^{1/2} sgn V."""

    v1: np.ndarray = field(repr=False)
    v2: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class HartreeKernel:
    """Even convolution kernel chi and coupling constant for the Hartree term.

    chi is checked to be real, finite and even (to 1e-12) at construction
    and kept as a read-only copy; the kernel cannot be changed afterwards.
    Its half spectrum, :attr:`chi_spectrum`, is taken once and is read-only
    too.
    """

    grid: SpatialGrid
    chi: np.ndarray = field(repr=False)
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.chi):
            raise ValueError("chi must be real: a complex kernel has an imaginary part")
        chi = np.array(self.chi, dtype=float).reshape(-1)
        if chi.size != self.grid.size:
            raise ValueError("chi length must match grid")
        if not np.all(np.isfinite(chi)):
            raise ValueError("chi contains non-finite entries")
        if not is_even(self.grid, (chi,)):
            raise ValueError("chi must be even under the grid reflection")
        chi.flags.writeable = False
        object.__setattr__(self, "chi", chi)

    @cached_property
    def chi_spectrum(self) -> np.ndarray:
        """chi's half spectrum, as :func:`grid.spectral_convolution` takes it."""
        spectrum = convolution_spectrum(self.grid, self.chi)
        spectrum.flags.writeable = False
        return spectrum

    @cached_property
    def even_fold(self) -> np.ndarray:
        """M (k x k, k = :func:`grid.blas_padded` (n/2 + 1, n), one axis): an
        even rho's field is even, rho[:k] @ M on its first k points.  Row
        a <= n/2 is the field of e_a + e_-a; the others are 0."""
        n, a = self.grid.size, np.arange(self.grid.size // 2 + 1)
        fold = np.zeros((blas_padded(a.size, n), n))
        fold[a, a] = fold[a, -a] = 1.0
        field = spectral_convolution(self.grid, self.chi_spectrum, fold, out=fold)
        fold = self.epsilon * field[:, :len(field)]
        fold.flags.writeable = False
        return fold


def shape_field(grid: SpatialGrid, kind: str, amplitude: float = 1.0,
                width: float = 1.0, center: float | tuple | None = None) -> np.ndarray:
    """Named potential shapes selected by config keys.

    kind: "gaussian" (bump exp(-r^2/(2w^2))), "square_well" (indicator of
    r <= w), "sech2" (Poschl-Teller sech^2(r/w)), or "constant".
    """
    if kind == "constant":
        return np.full(grid.size, amplitude)
    r2 = np.zeros(grid.size)  # torus distance squared from the center
    for dx in grid.offsets(center):
        r2 += dx**2
    if kind == "gaussian":
        return amplitude * np.exp(-r2 / (2.0 * width**2))
    if kind == "square_well":
        return amplitude * (r2 <= width**2).astype(float)
    if kind == "sech2":
        return amplitude / np.cosh(np.sqrt(r2) / width) ** 2
    raise ValueError(f"unknown potential shape {kind!r}")


def make_translate_family(base: np.ndarray, grid: SpatialGrid,
                          shifts: list) -> PotentialFamily:
    """State y holds the circular lattice shift of `base` by shifts[y]."""
    cube = np.asarray(base, float).reshape(grid.shape)
    fields = []
    for s in shifts:
        offsets = (int(s),) if np.isscalar(s) else tuple(int(v) for v in s)
        if len(offsets) != grid.dim:
            raise ValueError("shift dimensionality mismatch")
        fields.append(np.roll(cube, offsets, axis=tuple(range(grid.dim))).reshape(-1))
    return PotentialFamily(grid, np.array(fields))


def make_amplitude_family(V1: np.ndarray, V2: np.ndarray, amplitudes,
                          grid: SpatialGrid) -> PotentialFamily:
    """State y holds V1 + amplitudes[y] * V2."""
    V1 = np.asarray(V1, dtype=float).reshape(-1)
    V2 = np.asarray(V2, dtype=float).reshape(-1)
    amps = np.asarray(amplitudes, dtype=float)
    return PotentialFamily(grid, V1[None, :] + amps[:, None] * V2[None, :])


@dataclass
class NontrivialityReport:
    verdict: str  # "trivial_case_1" | "trivial_case_2" | "nontrivial"
    condition1: bool
    condition2: bool
    witness_cells_2: np.ndarray = field(repr=False)


def check_nontriviality(family: PotentialFamily, h: np.ndarray,
                        tol: float | None = None) -> NontrivialityReport:
    """Classify the family against the two degenerate randomness cases.

    Condition 1 (the family actually depends on y over supp h) fails for
    V(x, y) = V(x): the equation is deterministic.  Condition 2 (two-point
    differences depend on y) additionally fails for V(x, y) = V(x) + f(y),
    where only the solution's phase is random.  On the grid "open set" is
    read as: at least one cell for condition 1, and a cell x1 together with
    at least 1% of cells x2 for condition 2.
    """
    if tol is None:
        tol = 1e-8 * max(np.max(np.abs(family.V)), 1e-300)
    if tol <= 0:
        raise ValueError("tol must be positive")
    h = np.asarray(h, dtype=float)
    support = np.flatnonzero(h > 0)
    if support.size == 0:
        raise ValueError("ground state support is empty")
    Vs = family.V[support]

    spread = Vs.max(axis=0) - Vs.min(axis=0)
    if not np.any(spread > tol):
        return NontrivialityReport("trivial_case_1", False, False, np.array([], dtype=int))

    # condition 2: the differences D(x; y1, y2) = V(x,y1) - V(x,y2) must vary
    # in x for some state pair.  A cell x1 qualifies when, for at least
    # 1% of cells x2, some pair has |D(x1) - D(x2)| > tol.
    n = family.grid.size
    diffs = []
    for i in range(support.size):
        for j in range(i + 1, support.size):
            D = Vs[i] - Vs[j]
            if D.max() - D.min() > tol:
                diffs.append(D)
    witness2 = []
    if diffs:
        chunk = max(1, min(n, 2**22 // n))
        for start in range(0, n, chunk):
            block = slice(start, min(start + chunk, n))
            mask = np.zeros((block.stop - block.start, n), dtype=bool)
            for D in diffs:
                mask |= np.abs(D[block, None] - D[None, :]) > tol
            frac = mask.sum(axis=1) / n
            witness2.extend(start + k for k in np.flatnonzero(frac >= 0.01))
    witness2 = np.asarray(witness2, dtype=int)
    cond2 = witness2.size > 0
    verdict = "nontrivial" if cond2 else "trivial_case_2"
    return NontrivialityReport(verdict, True, cond2, witness2)


def a_of_hv(family: PotentialFamily, model: MarkovModel) -> tuple[np.ndarray, float]:
    """The fields A[hV](x, y) = sum_y' A(y,y') h(y') V(x,y') and their
    L^inf_y L^{d/2,inf}_x norm.  Vanishes identically when V does not
    depend on y, since A annihilates h."""
    h = model.ground_state()
    fields = model.A @ (h[:, None] * family.V)
    d = family.grid.dim
    norm = max(
        lorentz_norm(WaveField(family.grid, fields[y].astype(complex)), d / 2.0, np.inf)
        for y in range(model.m)
    )
    return fields, norm


def split(family: PotentialFamily) -> SplitWeights:
    """V = v1 * v2 with v1 = |V|^{1/2} >= 0 and v2 carrying the sign.

    sgn(0) = 0 keeps the reconstruction exact."""
    root = np.sqrt(np.abs(family.V))
    weights = SplitWeights(v1=root, v2=root * np.sign(family.V))
    recon = weights.v1 * weights.v2
    scale = max(1.0, float(np.max(np.abs(family.V), initial=0.0)))
    if not np.max(np.abs(recon - family.V)) <= 1e-12 * scale:
        raise RuntimeError("v1 * v2 does not reconstruct V")
    return weights
