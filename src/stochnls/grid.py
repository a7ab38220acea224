"""Periodic spatial grid, spectral transforms and the norm zoo.

Conventions used throughout the package:

* The spatial domain is the periodic box [0, L)^d sampled on n points per
  axis (n a power of two), spacing h = L/n.  Fields are stored as flat
  complex arrays of length n**d, row-major over axes.
* Discrete Fourier transforms are unitary (norm="ortho"), so Parseval is
  an exact statement up to roundoff.
* Every solver's free flow U(t) = exp(+i t |k|^2) goes through one
  spectral-multiplier primitive, :func:`apply_multiplier`, with kinetic
  phases from a small per-(grid, t) cache (:func:`free_flow`).
* The one convolution, :func:`spectral_convolution`, is of real fields on
  the real-to-complex transform pair, so its result is real by construction.
* All integral norms carry the cell-volume weight h**d so that values
  converge to their continuum counterparts under refinement.
* The reflection x -> -x splits the index into even and odd blocks
  (:func:`parity_blocks`), the one parity basis of the dense solves and the
  Liouville march, taken when the fields are even (:func:`is_even`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "SpatialGrid",
    "WaveField",
    "laplacian_symbol",
    "kinetic_phase",
    "cis",
    "apply_multiplier",
    "free_flow",
    "transform_rows",
    "convolution_spectrum",
    "spectral_convolution",
    "dft_matrix",
    "dense_laplacian",
    "ParityBlock",
    "parity_blocks",
    "is_even",
    "lebesgue_norm",
    "lebesgue_norm_rows",
    "lorentz_norm",
    "lorentz_norm_rows",
    "sum_norm",
    "sum_norm_rows",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on [0, L)^d.

    Parameters
    ----------
    dim : int
        Spatial dimension d >= 1.
    points_per_axis : int
        Points n per axis; must be a power of two.
    box_length : float
        Side length L > 0 of the periodic box.
    """

    dim: int
    points_per_axis: int
    box_length: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not _is_power_of_two(self.points_per_axis):
            raise ValueError("points_per_axis must be a power of two")
        if not self.box_length > 0:
            raise ValueError("box_length must be positive")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Sample points 0, h, ..., L-h along one axis."""
        return self.spacing * np.arange(self.points_per_axis)

    def coordinates(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays broadcast over the full grid (flattened)."""
        axes = np.meshgrid(*([self.axis_coordinates()] * self.dim), indexing="ij")
        return [a.reshape(-1) for a in axes]

    def offsets(self, center: float | tuple | None = None) -> list[np.ndarray]:
        """Per-axis torus displacements x - c wrapped to [-L/2, L/2), flattened
        like :meth:`coordinates`; the center c defaults to the box middle."""
        L = self.box_length
        if center is None:
            center = L / 2.0
        if np.isscalar(center):
            center = (float(center),) * self.dim
        return [((x - c + L / 2.0) % L) - L / 2.0 for x, c in zip(self.coordinates(), center)]

    def axis_frequencies(self) -> np.ndarray:
        """Signed angular frequencies 2*pi*m/L in FFT layout along one axis."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def reflect(self, values: np.ndarray) -> np.ndarray:
        """Evaluate a flat field at -x (index j -> -j mod n per axis)."""
        a = np.asarray(values).reshape(self.shape)
        for ax in range(self.dim):
            a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
        return a.reshape(-1)


@dataclass
class WaveField:
    """Complex field on a :class:`SpatialGrid`, flat row-major storage."""

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if self.values.size != self.grid.size:
            raise ValueError(
                f"field length {self.values.size} != grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise ValueError("field contains non-finite entries")

    def copy(self) -> "WaveField":
        return WaveField(self.grid, self.values.copy())


@lru_cache(maxsize=8)
def laplacian_symbol(grid: SpatialGrid) -> np.ndarray:
    """Multiplier |k|^2 of -Laplacian in the FFT frequency layout, flattened.

    Entry for multi-index j is sum_a (2*pi*m_a/L)^2 with m_a the signed
    frequency of index j_a; ordering matches :func:`transform_rows`.
    Cached per grid and read-only, as :func:`kinetic_phase` is.
    """
    k = grid.axis_frequencies()
    sym = np.zeros(grid.shape)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.points_per_axis
        sym = sym + (k**2).reshape(shape)
    sym = sym.reshape(-1)
    sym.flags.writeable = False
    return sym


@lru_cache(maxsize=8)
def kinetic_phase(grid: SpatialGrid, tau: float) -> np.ndarray:
    """The free-flow multiplier exp(+i tau |k|^2), shaped like the grid.

    Cached per (grid, tau) and read-only: a phase is a pure function of
    its key, so a cached phase and a fresh one are bitwise equal.
    """
    phase = np.exp(1j * tau * laplacian_symbol(grid).reshape(grid.shape))
    phase.flags.writeable = False
    return phase


def cis(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i x) of real x as cos x + i sin x, into out (complex, shaped like
    x, not holding x) if given.  On numpy 2.4.6 with glibc 2.36 it is bitwise
    np.exp(1j * x) at about 2/3 of the cost, but for the sign of sin(-0.0)."""
    out = np.empty(x.shape, dtype=complex) if out is None else out
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def apply_multiplier(values: np.ndarray, phase: np.ndarray,
                     out: np.ndarray | None = None, ndim: int | None = None) -> np.ndarray:
    """ifft(phase * fft(values)) over the trailing `ndim` axes (phase.ndim
    by default).

    Leading axes of `values` are batch axes.  A phase with more axes than
    `ndim` carries its own batch axes, one multiplier per row: a (B, n)
    phase on a one-axis grid takes ndim=1, or its rows would be transformed
    into each other.  A one-axis transform takes the plain fft/ifft pair,
    which costs about half an fftn/ifftn pair at desk-scale lengths, where
    a transform is mostly call overhead.  Given `out` (complex, shaped like
    `values`, or `values` itself), both transforms write into it and it is
    returned; the result is bitwise the same.

    Complex products here and in the march are explicit np.multiply calls
    into the temporary: for an operand of 256 KiB or more, `x * temporary`
    may be evaluated as `temporary * x` in place (numpy's temporary
    elision), and a complex product is not bitwise commutative, so a row's
    result would depend on the batch size.
    """
    ndim = phase.ndim if ndim is None else ndim
    if ndim == 1:
        spectrum = np.fft.fft(values, out=out)
        return np.fft.ifft(np.multiply(phase, spectrum, out=spectrum), out=out)
    axes = tuple(range(-ndim, 0))
    spectrum = np.fft.fftn(values, axes=axes, out=out)
    return np.fft.ifftn(np.multiply(phase, spectrum, out=spectrum), axes=axes, out=out)


def free_flow(grid: SpatialGrid, values: np.ndarray, tau: float) -> np.ndarray:
    """U(tau) = exp(+i tau |k|^2) applied to fields of shape (..., *grid.shape)."""
    return apply_multiplier(values, kinetic_phase(grid, tau))


def transform_rows(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Unitary discrete Fourier transform of each row of values, shape
    (B, grid.size), as flat spectral rows."""
    axes = tuple(range(-grid.dim, 0))
    spectra = np.fft.fftn(values.reshape(-1, *grid.shape), axes=axes, norm="ortho")
    return spectra.reshape(values.shape)


def convolution_spectrum(grid: SpatialGrid, a: np.ndarray) -> np.ndarray:
    """The (unnormalized, complex) half spectrum of one real flat field `a`:
    the multiplier :func:`spectral_convolution` convolves with."""
    return np.fft.rfftn(np.asarray(a).reshape(grid.shape))


def spectral_convolution(grid: SpatialGrid, a_spectrum: np.ndarray, b: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Periodic convolution (a*b)(x) ~ int a(x-y) b(y) dy of real fields,
    via the real-to-complex FFT pair, as a real array.

    `a_spectrum` is :func:`convolution_spectrum` of one flat field a, so a
    kernel used many times is transformed once; `b` is flat, shape
    (..., grid.size), and its leading axes are batch axes, each row
    convolved with a.  Carries the cell-volume weight so it approximates
    the continuum convolution of the sampled functions, scaled in place
    into `out` (real, shaped like b, or b itself) if given, bitwise the same.
    """
    b = np.asarray(b)
    if grid.dim == 1:  # the plain pair: an rfftn/irfftn pair costs more call overhead
        spectrum = np.fft.rfft(b)
        conv = np.fft.irfft(np.multiply(a_spectrum, spectrum, out=spectrum), b.shape[-1], out=out)
    else:
        lead, axes = b.shape[:-1], tuple(range(-grid.dim, 0))
        spectrum = np.fft.rfftn(b.reshape(*lead, *grid.shape), axes=axes)
        conv = np.fft.irfftn(np.multiply(a_spectrum, spectrum, out=spectrum), grid.shape, axes,
                             out=None if out is None else out.reshape(*lead, *grid.shape))
        conv = conv.reshape(b.shape)
    return np.multiply(conv, grid.cell_volume, out=conv)


def dft_matrix(grid: SpatialGrid) -> np.ndarray:
    """The unitary DFT F as a dense matrix, so -Lap = F^H diag(|k|^2) F
    with |k|^2 = laplacian_symbol(grid); for desk-scale dense work."""
    F1 = np.fft.fft(np.eye(grid.points_per_axis), axis=0, norm="ortho")
    F = F1
    for _ in range(grid.dim - 1):
        F = np.kron(F, F1)
    return F


def dense_laplacian(grid: SpatialGrid) -> np.ndarray:
    """The -Laplacian as a dense Hermitian matrix, F^H diag(|k|^2) F,
    exactly consistent with the propagators' kinetic multiplier."""
    F = dft_matrix(grid)
    L = F.conj().T @ (laplacian_symbol(grid)[:, None] * F)
    return 0.5 * (L + L.conj().T)


@dataclass(frozen=True, eq=False)
class ParityBlock:
    """An invariant subspace of the reflection x -> -x with the orthonormal
    basis b_a = weight_a (e_{index_a} + sign e_{mirror_a}), mirror_a the
    reflected index_a on the same state; index None is the whole space in
    its own basis, on which every map below is the identity.  A block is
    equal only to itself, so it can key a dict."""

    size: int
    index: np.ndarray | None = None
    mirror: np.ndarray | None = None
    weight: np.ndarray | None = None
    sign: float = 1.0

    @cached_property
    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """(pos, coef): row i of B holds its one entry coef[i] in column
        pos[i], coef[i] = 0 (pos[i] = 0) on a row the block does not reach."""
        pos, coef = np.zeros(self.size, dtype=np.intp), np.zeros(self.size)
        pos[self.index] = pos[self.mirror] = np.arange(self.index.size)
        coef[self.index] = self.weight
        coef[self.mirror] += self.sign * self.weight
        return pos, coef

    def restrict(self, M: np.ndarray, right: ParityBlock | None = None) -> np.ndarray:
        """B^H M C on the last two axes, C the basis of `right` (default: this
        block): a diagonal block of M, or the coupling between two blocks,
        which vanishes when M commutes with the reflection."""
        right = self if right is None else right
        if self.index is None:
            return M
        rows = M[..., self.index, :] + self.sign * M[..., self.mirror, :]
        both = rows[..., right.index] + right.sign * rows[..., right.mirror]
        return self.weight[:, None] * both * right.weight[None, :]

    def restrict_diagonal(self, d: np.ndarray) -> np.ndarray:
        """The diagonal of B^H diag(d) B for an even d, on the last axis."""
        return d if self.index is None else d[..., self.index]

    def extend(self, X: np.ndarray) -> np.ndarray:
        """B X: columns in block coordinates back on the full index."""
        if self.index is None:
            return X
        pos, coef = self.gather
        return coef[:, None] * X[pos]

    def extend_kernels(self, F: np.ndarray) -> np.ndarray:
        """B F B^H on the last two axes, as B's one entry in row i times its
        one in row j times F's: Hermitian and commuting with the reflection
        bit for bit when F is Hermitian bit for bit."""
        if self.index is None:
            return F
        pos, coef = self.gather
        return np.multiply.outer(coef, coef) * F[..., pos[:, None], pos[None, :]]

    def extend_diagonal(self, F: np.ndarray) -> np.ndarray:
        """The diagonal of :meth:`extend_kernels`, bit for bit, on the last axis."""
        if self.index is None:
            return np.diagonal(F, axis1=-2, axis2=-1)
        pos, coef = self.gather
        return coef * coef * F[..., pos, pos]


def parity_blocks(grid: SpatialGrid, m: int = 1) -> list[ParityBlock]:
    """The even and odd blocks of the state-major index over m states
    (index = y * grid.size + x), reflecting x on each state.

    Even basis: (e_j + e_-j)/sqrt 2 for each pair j != -j, and e_j for the
    fixed points j = -j (the origin and the half-box points).  Odd basis:
    (e_j - e_-j)/sqrt 2 for each pair.  Both list their indices ascending.
    """
    mirror_x = grid.reflect(np.arange(grid.size))
    size = m * grid.size
    index = np.arange(size)
    mirror = (index // grid.size) * grid.size + mirror_x[index % grid.size]
    even, odd = index <= mirror, index < mirror
    fixed = index[even] == mirror[even]
    return [ParityBlock(size, index[even], mirror[even],
                        np.where(fixed, 0.5, np.sqrt(0.5)), 1.0),
            ParityBlock(size, index[odd], mirror[odd],
                        np.full(int(odd.sum()), np.sqrt(0.5)), -1.0)]


def is_even(grid: SpatialGrid, fields) -> bool:
    """Whether every field (last axis grid.size) is even under
    :meth:`SpatialGrid.reflect` to 1e-12 max(1, max |field|): the one
    evenness test that sends a solve to its parity blocks."""
    mirror_x = grid.reflect(np.arange(grid.size))
    return not any(np.max(np.abs(f - f[..., mirror_x]), initial=0.0)
                   > 1e-12 * max(1.0, float(np.max(np.abs(f), initial=0.0))) for f in fields)


def lebesgue_norm(psi: WaveField, p: float) -> float:
    """Discrete L^p norm with cell-volume weight; max norm for p = inf."""
    return float(lebesgue_norm_rows(psi.grid, psi.values[None], p)[0])


def lebesgue_norm_rows(grid: SpatialGrid, values: np.ndarray, p: float) -> np.ndarray:
    """:func:`lebesgue_norm` of each row of values, shape (B, grid.size)."""
    if p != np.inf and p < 1:
        raise ValueError("p must be >= 1 or inf")
    mags = np.abs(values)
    if p == np.inf:
        return mags.max(axis=-1, initial=0.0)
    # roots per row on scalars: an array's ** 0.5 is a sqrt, a scalar's is a
    # pow, and the two differ in the last bit now and then
    return np.array([x ** (1.0 / p) for x in np.sum(mags**p, axis=-1) * grid.cell_volume])


def _rearrangement(grid: SpatialGrid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decreasing rearrangement of |f| over weighted cells, per row.

    Returns (values, breakpoints): row b of the rearrangement equals
    values[b, i] on the measure interval [breakpoints[i], breakpoints[i+1]).
    """
    mags = np.ascontiguousarray(np.sort(np.abs(values), axis=-1)[:, ::-1])
    t = grid.cell_volume * np.arange(mags.shape[-1] + 1, dtype=float)
    return mags, t


def lorentz_norm(psi: WaveField, p: float, q: float) -> float:
    """Lorentz L^{p,q} norm from the decreasing rearrangement.

    Evaluates (int_0^inf (t^{1/p} f*(t))^q dt/t)^{1/q} exactly on the
    piecewise-constant rearrangement; for q = inf, sup_t t^{1/p} f*(t).

    The standard range is p > 1.  For q = inf only, quasi-norm exponents
    0 < p <= 1 are also accepted: the weak L^{d/2} norm of the averaged
    potential needs p = d/2 in low dimension.
    """
    return float(lorentz_norm_rows(psi.grid, psi.values[None], p, q)[0])


def lorentz_norm_rows(grid: SpatialGrid, values: np.ndarray, p: float,
                      q: float) -> np.ndarray:
    """:func:`lorentz_norm` of each row of values, shape (B, grid.size).

    A row with zero cells sums its nonzero cells only: the zeros add
    nothing, but a longer sum rounds differently.  A row's value never
    depends on the other rows.
    """
    if q != np.inf and q < 1:
        raise ValueError("q must be >= 1 or inf")
    if p <= (0.0 if q == np.inf else 1.0):
        raise ValueError("p must be > 1 (or > 0 when q = inf)")
    mags, t = _rearrangement(grid, values)
    if q == np.inf:
        # sup over each constancy interval is attained at its right end
        weight = t[1:] ** (1.0 / p)
        full = np.max(weight * mags, axis=-1)
    else:
        expo = q / p
        weight = t[1:] ** expo - t[:-1] ** expo
        full = np.sum(mags**q * weight, axis=-1)
    for b in np.flatnonzero(mags[:, -1] == 0.0):
        row = mags[b]
        nz = row > 0
        full[b] = 0.0 if not nz.any() else (np.max(weight[nz] * row[nz]) if q == np.inf
                                            else np.sum(row[nz] ** q * weight[nz]))
    if q == np.inf:
        return full
    # roots per row on scalars, as in lebesgue_norm_rows
    return np.array([x ** (1.0 / q) for x in (p / q) * full])


def sum_norm(psi: WaveField) -> float:
    """Computable surrogate for the L^2 + L^inf splitting norm.

    Minimizes ||f 1_{|f|>lam}||_2 + lam over thresholds lam in
    {0} union {|f_i|}.  This is a two-sided equivalent of the infimal
    splitting norm inf_{f=a+b} ||a||_2 + ||b||_inf: every threshold gives
    an admissible splitting, and it is bounded by min(||f||_2, ||f||_inf).
    """
    return float(sum_norm_rows(psi.grid, psi.values[None])[0])


def sum_norm_rows(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """:func:`sum_norm` of each row of values, shape (B, grid.size)."""
    mags, _ = _rearrangement(grid, values)
    sq = np.zeros((mags.shape[0], mags.shape[1] + 1))
    sq[:, 1:] = np.cumsum(mags**2, axis=-1) * grid.cell_volume
    # threshold lam = mags[i] keeps the cells before the first one tied with
    # cell i; sq is nondecreasing, so a later tied cell's sqrt(sq[i]) + mags[i]
    # is no smaller than the first's and the min needs no tie bookkeeping
    candidates = np.sqrt(sq[:, :-1]) + mags
    return np.minimum(np.sqrt(sq[:, -1]), candidates.min(axis=-1))

