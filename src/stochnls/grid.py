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
* All integral norms carry the cell-volume weight h**d so that values
  converge to their continuum counterparts under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "SpatialGrid",
    "WaveField",
    "laplacian_symbol",
    "kinetic_phase",
    "apply_multiplier",
    "free_flow",
    "transform",
    "transform_rows",
    "inverse_transform",
    "convolution_spectrum",
    "spectral_convolution",
    "dft_matrix",
    "dense_laplacian",
    "lebesgue_norm",
    "lebesgue_norm_rows",
    "lorentz_norm",
    "lorentz_norm_rows",
    "sum_norm",
    "sum_norm_rows",
    "intersection_norm",
    "v_norm",
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

    def centered_coordinates(self) -> list[np.ndarray]:
        """Coordinates wrapped to [-L/2, L/2), so the box center is at 0."""
        half = self.box_length / 2.0
        return [((a + half) % self.box_length) - half for a in self.coordinates()]

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


def laplacian_symbol(grid: SpatialGrid) -> np.ndarray:
    """Multiplier |k|^2 of -Laplacian in the FFT frequency layout, flattened.

    Entry for multi-index j is sum_a (2*pi*m_a/L)^2 with m_a the signed
    frequency of index j_a; ordering matches :func:`transform`.
    """
    k = grid.axis_frequencies()
    sym = np.zeros(grid.shape)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.points_per_axis
        sym = sym + (k**2).reshape(shape)
    return sym.reshape(-1)


@lru_cache(maxsize=8)
def kinetic_phase(grid: SpatialGrid, tau: float) -> np.ndarray:
    """The free-flow multiplier exp(+i tau |k|^2), shaped like the grid.

    Cached per (grid, tau) and read-only: a phase is a pure function of
    its key, so a cached phase and a fresh one are bitwise equal.
    """
    phase = np.exp(1j * tau * laplacian_symbol(grid).reshape(grid.shape))
    phase.flags.writeable = False
    return phase


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
    `values`, not `values` itself), both transforms write into it and it is
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


def transform(psi: WaveField) -> np.ndarray:
    """Unitary discrete Fourier transform of a field, flat spectral array."""
    return transform_rows(psi.grid, psi.values[None])[0]


def transform_rows(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """:func:`transform` of each row of values, shape (B, grid.size)."""
    axes = tuple(range(-grid.dim, 0))
    spectra = np.fft.fftn(values.reshape(-1, *grid.shape), axes=axes, norm="ortho")
    return spectra.reshape(values.shape)


def inverse_transform(grid: SpatialGrid, spectrum: np.ndarray) -> WaveField:
    """Inverse of :func:`transform`."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.size != grid.size:
        raise ValueError("spectral array length does not match grid")
    a = np.fft.ifftn(spectrum.reshape(grid.shape), norm="ortho")
    return WaveField(grid, a.reshape(-1))


def convolution_spectrum(grid: SpatialGrid, a: np.ndarray) -> np.ndarray:
    """The (unnormalized) transform of one flat field `a`, shaped like the
    grid: the multiplier :func:`spectral_convolution` convolves with."""
    return np.fft.fftn(np.asarray(a).reshape(grid.shape))


def spectral_convolution(grid: SpatialGrid, a_spectrum: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Periodic convolution (a*b)(x) ~ int a(x-y) b(y) dy via FFT.

    `a_spectrum` is :func:`convolution_spectrum` of one flat field a, so a
    kernel used many times is transformed once; `b` is flat, shape
    (..., grid.size), and its leading axes are batch axes, each row
    convolved with a.  Carries the cell-volume weight so it approximates
    the continuum convolution of the sampled functions.
    """
    b = np.asarray(b)
    lead = b.shape[:-1]
    conv = apply_multiplier(b.reshape(*lead, *grid.shape), a_spectrum)
    return grid.cell_volume * conv.reshape(*lead, grid.size)


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
    out = np.empty(mags.shape[0])
    for b, row in enumerate(mags):
        s = full[b]
        if row[-1] == 0.0:
            nz = row > 0
            if not np.any(nz):
                out[b] = 0.0
                continue
            s = (np.max(weight[nz] * row[nz]) if q == np.inf
                 else np.sum(row[nz] ** q * weight[nz]))
        out[b] = s if q == np.inf else ((p / q) * s) ** (1.0 / q)
    return out


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
    # threshold lam = mags[i] keeps cells with |f| > mags[i]: the cells
    # before the first one tied with cell i
    index = np.arange(mags.shape[1])
    first = np.ones(mags.shape, dtype=bool)
    first[:, 1:] = mags[:, 1:] != mags[:, :-1]
    keep = np.maximum.accumulate(np.where(first, index, 0), axis=-1)
    candidates = np.sqrt(np.take_along_axis(sq, keep, axis=-1)) + mags
    return np.minimum(np.sqrt(sq[:, -1]), candidates.min(axis=-1))


def intersection_norm(psi: WaveField) -> float:
    """The L^1 cap L^2 norm, max(||f||_1, ||f||_2)."""
    return max(lebesgue_norm(psi, 1), lebesgue_norm(psi, 2))


def v_norm(fields: list[WaveField] | list[np.ndarray], d: int,
           grid: SpatialGrid | None = None) -> float:
    """Dyadic shell norm sum_n sup_y ||1_{|v| in [2^n, 2^{n+1})} v||_{L^d}.

    `fields` is one real field per Markov state; the sup runs over states
    and the sum over the (finitely many) nonempty dyadic shells.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    arrays = []
    for f in fields:
        if isinstance(f, WaveField):
            grid = f.grid
            arrays.append(np.abs(f.values))
        else:
            arrays.append(np.abs(np.asarray(f, dtype=float)).reshape(-1))
    if grid is None:
        raise ValueError("grid required when passing raw arrays")
    vol = grid.cell_volume
    positive = [a[a > 0] for a in arrays]
    if all(a.size == 0 for a in positive):
        return 0.0
    lo = min(a.min() for a in positive if a.size)
    hi = max(a.max() for a in positive if a.size)
    n_lo = int(np.floor(np.log2(lo)))
    n_hi = int(np.floor(np.log2(hi)))
    total = 0.0
    for n in range(n_lo, n_hi + 1):
        shell_lo, shell_hi = 2.0**n, 2.0 ** (n + 1)
        best = 0.0
        for a in arrays:
            mask = (a >= shell_lo) & (a < shell_hi)
            if np.any(mask):
                best = max(best, float((np.sum(a[mask] ** d) * vol) ** (1.0 / d)))
        total += best
    return total
