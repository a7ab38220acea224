"""Dense spectral objects for the averaged scalar dynamics.

The evolution operator of the scalar averaged equation is

    H = -Lap + i A + V(x, y),

acting on functions of (x, y); the dissipative term iA pushes every
eigenvalue into the closed upper half-plane (Im<Hf, f> = <Af, f> >= 0),
and modes evolve like e^{i t lambda}, so an eigenvalue with Im lambda > 0
is an exponentially decaying resonance.  With trivial randomness the well's
bound state survives with a real eigenvalue; genuine randomness moves it
strictly off the real axis.  Resolvent quantities are studied in the
closed lower half-plane, where the Kato-Birman operator

    KB(lambda) = I + v2 (-Lap + iA - lambda)^{-1} v1,     V = v1 v2,

stays invertible and tends to the identity as |lambda| grows.

Matrices are assembled in state-major layout (index = y * n^d + x), with
the Laplacian realized exactly as the Fourier conjugation of diag(|k|^2),
so spectra here and dynamics in the propagators share one discretization.
The free resolvent R0 is applied in the exact eigenbasis of H0 (DFT
tensor eigenvectors of A), so KB costs no inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SpatialGrid, dense_laplacian, dft_matrix, laplacian_symbol
from .markov import MarkovModel
from .potential import PotentialFamily, split

__all__ = [
    "DiscreteHamiltonian",
    "KBOperator",
    "EigenReport",
    "assemble_h",
    "eigen_analysis",
    "assemble_kb",
    "kb_scan",
    "resolvent_identity_residual",
    "default_lambda_grid",
    "write_spectrum_csv",
    "write_scan_csv",
]

SIZE_CAP = 4096


@dataclass
class DiscreteHamiltonian:
    grid: SpatialGrid
    m: int
    H: np.ndarray = field(repr=False)
    well_window: np.ndarray = field(repr=False)  # boolean mask over cells

    @property
    def size(self) -> int:
        return self.H.shape[0]


def _well_window(family: PotentialFamily, threshold: float = 0.05) -> np.ndarray:
    """Cells where the family has appreciable weight in any state."""
    profile = np.max(np.abs(family.V), axis=0)
    peak = float(profile.max(initial=0.0))
    if peak == 0.0:
        return np.zeros(family.grid.size, dtype=bool)
    return profile > threshold * peak


def assemble_h(family: PotentialFamily, model: MarkovModel,
               grid: SpatialGrid | None = None, cap: int = SIZE_CAP) -> DiscreteHamiltonian:
    """Dense H = (-Lap x I_y) + i (I_x x A) + diag V in state-major layout."""
    grid = grid or family.grid
    m = model.m
    size = grid.size * m
    if size > cap:
        raise ValueError(f"matrix size {size} exceeds the cap {cap}")
    if family.m != m:
        raise ValueError("family and model state counts disagree")
    H = np.kron(np.eye(m), dense_laplacian(grid)).astype(complex) \
        + 1j * np.kron(model.A, np.eye(grid.size))
    H += np.diag(family.V.reshape(-1).astype(complex))
    return DiscreteHamiltonian(grid=grid, m=m, H=H, well_window=_well_window(family))


@dataclass
class EigenReport:
    eigenvalues: np.ndarray
    localization: np.ndarray  # fraction of each eigenvector's mass in the window
    min_imag: float
    norm: float

    def discrete_subset(self, threshold: float = 0.5) -> np.ndarray:
        """Eigenvalues whose eigenvectors localize in the well window.

        When V does not depend on y, H block-diagonalizes over spec(A), so
        each level E of -Lap + V appears here as E + i mu for every mu in
        spec(A), with real parts equal only up to roundoff.  The bound
        state is then the localized eigenvalue with the least |Im|, not
        the one with the lowest real part.
        """
        return self.eigenvalues[self.localization > threshold]


def eigen_analysis(ham: DiscreteHamiltonian) -> EigenReport:
    """Dense nonsymmetric eigensolve with localization bookkeeping.

    Dissipativity puts the spectrum in the (numerically closed) upper
    half-plane; a violation beyond 1e-8 * ||H|| is a hard error.
    """
    eigvals, eigvecs = np.linalg.eig(ham.H)
    norm = float(np.max(np.abs(eigvals)))
    min_imag = float(np.min(eigvals.imag))
    if min_imag < -1e-8 * max(norm, 1.0):
        raise RuntimeError(
            f"spectrum leaked into the lower half-plane: min Im = {min_imag:.3e}")
    mass = np.abs(eigvecs) ** 2
    window = np.tile(ham.well_window, ham.m)
    loc = mass[window].sum(axis=0) / mass.sum(axis=0)
    return EigenReport(eigenvalues=eigvals, localization=loc,
                       min_imag=min_imag, norm=norm)


@dataclass
class KBOperator:
    lam: complex
    KB: np.ndarray = field(repr=False)

    def min_singular_value(self) -> float:
        return float(np.linalg.svd(self.KB, compute_uv=False)[-1])


def _kb_setup(family: PotentialFamily, model: MarkovModel):
    """The factors of KB(lambda) = I + (v2 W) diag(1/(d - lambda)) (W^H v1).

    H0 = W diag(d) W^H exactly, with W = Q x F^H (Q the orthonormal
    eigenvectors of the symmetric A, F the unitary DFT) and d = |k|^2 + i mu
    in state-major order; so R0 needs no inverse.
    """
    grid = family.grid
    mu, Q = np.linalg.eigh(model.A)
    W = np.kron(Q, dft_matrix(grid).conj().T)
    d = (laplacian_symbol(grid)[None, :] + 1j * mu[:, None]).reshape(-1)
    w = split(family)
    return w.v2.reshape(-1)[:, None] * W, W.conj().T * w.v1.reshape(-1)[None, :], d


def _kb_matrix(left, right, d, lam: complex) -> np.ndarray | None:
    """I + v2 R0(lambda) v1, or None when lambda lies in spec(H0), where
    min |d - lambda| <= 1e-12 max(1, max |d|) and R0 does not exist."""
    if lam.imag > 0:
        raise ValueError("KB is defined on the closed lower half-plane only")
    gap = d - lam
    if np.min(np.abs(gap)) <= 1e-12 * max(1.0, float(np.max(np.abs(d)))):
        return None
    KB = left @ (right / gap[:, None])
    KB.flat[::KB.shape[0] + 1] += 1.0
    return KB


def assemble_kb(family: PotentialFamily, model: MarkovModel,
                lam: complex) -> KBOperator:
    """KB(lambda) = I + v2 R0(lambda) v1 on the state-major index."""
    KB = _kb_matrix(*_kb_setup(family, model), lam)
    if KB is None:
        raise ValueError(f"lambda = {lam} lies in the spectrum of H0")
    return KBOperator(lam=lam, KB=KB)


def default_lambda_grid(re_span: tuple[float, float] = (-10.0, 10.0),
                        n_re: int = 21, im_span: tuple[float, float] = (-5.0, 0.0),
                        n_im: int = 6) -> np.ndarray:
    """The default 21 x 6 grid straddling the discretized continuous
    spectrum and the well depth, in the closed lower half-plane."""
    re = np.linspace(*re_span, n_re)
    im = np.linspace(*im_span, n_im)
    return (re[:, None] + 1j * im[None, :]).reshape(-1)


def kb_scan(family: PotentialFamily, model: MarkovModel,
            lam_grid: np.ndarray | None = None) -> dict:
    """Min singular value of KB over a lambda grid, plus the global minimum."""
    if lam_grid is None:
        lam_grid = default_lambda_grid()
    lam_grid = np.asarray(lam_grid, dtype=complex).reshape(-1)
    parts = _kb_setup(family, model)
    mins = np.full(lam_grid.size, np.nan)  # NaN where lambda lies in spec(H0)
    for i, lam in enumerate(lam_grid):
        KB = _kb_matrix(*parts, lam)
        if KB is not None:
            mins[i] = float(np.linalg.svd(KB, compute_uv=False)[-1])
    if np.all(np.isnan(mins)):
        raise ValueError("every lambda of the scan lies in the spectrum of H0")
    gmin = int(np.nanargmin(mins))
    return {"lambdas": lam_grid, "min_singular_values": mins,
            "global_min": float(mins[gmin]), "global_min_lambda": complex(lam_grid[gmin])}


def resolvent_identity_residual(family: PotentialFamily, model: MarkovModel,
                                lam: complex) -> float:
    """Max-norm defect of (I + v2 R0 v1)(I - v2 R_V v1) = I."""
    left = assemble_kb(family, model, lam).KB
    eye = np.eye(left.shape[0])
    w = split(family)
    RV = np.linalg.inv(assemble_h(family, model).H - lam * eye)
    right = eye - w.v2.reshape(-1)[:, None] * RV * w.v1.reshape(-1)[None, :]
    return float(np.max(np.abs(left @ right - eye)))


def write_spectrum_csv(path, report: EigenReport) -> None:
    """Rows (Re, Im, localization fraction), sorted by real part."""
    order = np.argsort(report.eigenvalues.real, kind="stable")
    with open(path, "w") as fh:
        fh.write("re,im,localization\n")
        for i in order:
            ev = report.eigenvalues[i]
            fh.write(f"{ev.real:.17g},{ev.imag:.17g},{report.localization[i]:.17g}\n")


def write_scan_csv(path, scan: dict) -> None:
    """Rows (Re, Im, min singular value); nan where lambda is in spec(H0)."""
    with open(path, "w") as fh:
        fh.write("re_lambda,im_lambda,min_singular_value\n")
        for lam, sv in zip(scan["lambdas"], scan["min_singular_values"]):
            fh.write(f"{lam.real:.17g},{lam.imag:.17g},{sv:.17g}\n")
