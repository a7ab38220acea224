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
the Laplacian built exactly as the Fourier conjugation of diag(|k|^2),
so spectra here and dynamics in the propagators share one discretization.
The free resolvent R0 is applied in the exact eigenbasis of H0 (DFT
tensor eigenvectors of A), so assembling KB costs no inverse.  An SVD's
sigma_min has absolute error O(eps sigma_max), eps kappa relative, and the
scan matches it in two reads.  The least and largest eigenvalues of
P = KB^H KB are sigma_min^2 and sigma_max^2, and sqrt(lambda_min(P)) is good
to O(eps kappa^2) relative (the normal-equations loss), so it is taken only
where kappa <= 2, within twice the SVD's bound.  Elsewhere, and where KB is
near singular (the members whose accuracy C9 rests on), sigma_min is read as
1 / sigma_max(X), X = KB^{-1}, from the largest eigenvalue of X^H X (exact
to eps relative) and an inverse good to O(eps kappa) relative.

Three exact symmetries split or simplify the dense solves:

* When V does not depend on y (every row equal, every one-state family
  among them), H is block-diagonal in the basis q_j x e_x, q_j the
  eigenvectors of the symmetric A, with blocks h + i mu_j, h = -Lap + V
  real symmetric.  The eigensolve is then one real symmetric solve of h:
  each level E gives E + i mu_j for every eigenvalue mu_j of A, with real
  parts exactly equal across j.
* -Lap and iA commute with the grid reflection x -> -x on each state, so
  when every state's V is even, H, h and every KB(lambda) are
  block-diagonal in the orthonormal basis of even and odd functions
  (:func:`stochnls.grid.parity_blocks`): the eigensolves and the KB scan
  run on the two half-size blocks, and their spectra and singular values
  together are the whole operator's.
* A two-state chain with equal holding rates, A = gamma [[1, -1], [-1, 1]]
  (the form of every symmetric two-state generator), gives
  H - i gamma = D R D^{-1} with D = diag(I, i I) and the real
  R = [[h_0, gamma], [-gamma, h_1]], h_y = -Lap + V_y.  So the resonant
  eigensolve runs in real arithmetic (per parity block when V is even):
  the spectrum is i gamma + spec(R), closed under the reflection
  lambda -> conj(lambda) + 2 i gamma about Im lambda = gamma, each
  reflected pair with exactly equal real parts, and D has unit modulus, so
  every eigenvector's |.|^2, and with it its localization, is R's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    ParityBlock,
    SpatialGrid,
    dense_laplacian,
    dft_matrix,
    is_even,
    laplacian_symbol,
    parity_blocks,
)
from .markov import MarkovModel
from .potential import PotentialFamily, split

__all__ = [
    "DiscreteHamiltonian",
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
# Lambdas per KB stack in kb_scan.  8 was the fastest at C9's blocks (66, 62)
# when every member was inverted; with the Gram read it is untuned.  The whole
# 125-point grid as one stack is slower and adds ~30 MiB of peak RSS.
_KB_CHUNK = 8
# Largest condition number at which sigma_min(KB) is read from KB^H KB, whose
# relative error O(eps kappa^2) is then within twice the SVD's eps kappa.
_KB_GRAM_KAPPA = 2.0


@dataclass
class DiscreteHamiltonian:
    grid: SpatialGrid
    m: int
    H: np.ndarray = field(repr=False)
    well_window: np.ndarray = field(repr=False)  # boolean mask over cells
    V: np.ndarray = field(repr=False)  # (m, grid.size), the diagonal of H - H0
    A: np.ndarray = field(repr=False)  # (m, m), the chain's symmetric generator

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
               cap: int = SIZE_CAP) -> DiscreteHamiltonian:
    """Dense H = (-Lap x I_y) + i (I_x x A) + diag V in state-major layout,
    on the family's grid."""
    grid = family.grid
    m = model.m
    size = grid.size * m
    if size > cap:
        raise ValueError(f"matrix size {size} exceeds the cap {cap}")
    if family.m != m:
        raise ValueError("family and model state counts disagree")
    H = np.kron(np.eye(m), dense_laplacian(grid)).astype(complex) \
        + 1j * np.kron(model.A, np.eye(grid.size))
    H += np.diag(family.V.reshape(-1).astype(complex))
    return DiscreteHamiltonian(grid=grid, m=m, H=H, well_window=_well_window(family),
                               V=family.V, A=model.A)


def _parity_blocks(grid: SpatialGrid, fields) -> list[ParityBlock]:
    """The even and odd blocks of the state-major index when every field
    (each (m, grid.size), one row per state) is even by
    :func:`stochnls.grid.is_even`; the whole space as one block otherwise."""
    m = fields[0].shape[0]
    return parity_blocks(grid, m) if is_even(grid, fields) else [ParityBlock(m * grid.size)]


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
        spec(A), with exactly equal real parts and the same localization
        (:func:`eigen_analysis` solves the chain modes apart).  The bound
        state is then the localized eigenvalue with the least |Im|, not
        the one with the lowest real part.
        """
        return self.eigenvalues[self.localization > threshold]


def _chain_modes(ham: DiscreteHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and localizations of H for a y-independent V, from the
    real symmetric h = -Lap + V alone.

    With A = Q diag(mu) Q^T, H = (Q x I)(I x h + i diag(mu) x I)(Q x I)^T,
    so q_j x u is an eigenvector for each eigenpair (E, u) of h, with
    eigenvalue E + i mu_j and the window fraction of u.  h is the real part
    of H's first diagonal block (the chain enters H only through i A), and
    is solved per parity block of V.  The eigenvalues come mu-major, each
    mu_j's levels even block first.
    """
    n = ham.grid.size
    h = ham.H[:n, :n].real
    levels, loc = [], []
    for block in _parity_blocks(ham.grid, (ham.V[:1],)):
        E, U = np.linalg.eigh(block.restrict(h))
        mass = block.extend(U) ** 2
        levels.append(E)
        loc.append(mass[ham.well_window].sum(axis=0) / mass.sum(axis=0))
    levels, loc = np.concatenate(levels), np.concatenate(loc)
    mu = np.linalg.eigvalsh(ham.A)
    return (levels[None, :] + 1j * mu[:, None]).reshape(-1), np.tile(loc, ham.m)


def _real_similar(M: np.ndarray) -> np.ndarray:
    """Re(D^{-1} M D), D = diag(I, i I) on M's halves: a two-state H on a
    parity block (its first half of coordinates on state 0) as the real R
    of the module docstring.  The off-diagonal state blocks i A_01 and
    i A_10 turn into -A_01 and A_10 exactly; only the diagonal blocks'
    imaginary parts are dropped, i A_yy and the dense Laplacian's
    antisymmetric roundoff (which :func:`_chain_modes` drops too)."""
    k = len(M) // 2
    R = M.real.copy()
    R[:k, k:] = -M.imag[:k, k:]
    R[k:, :k] = M.imag[k:, :k]
    return R


def eigen_analysis(ham: DiscreteHamiltonian) -> EigenReport:
    """Dense eigensolve with localization bookkeeping.

    Dissipativity puts the spectrum in the (numerically closed) upper
    half-plane; a violation beyond 1e-8 * ||H|| is a hard error.

    When every row of V is equal (every one-state family among them), H
    splits into the chain modes h + i mu_j (:func:`_chain_modes`), and one
    real symmetric solve per parity block of h gives the whole spectrum.
    The rows are compared exactly, not to a tolerance: when they differ H
    is not normal, and a dropped coupling of any size has no bound on its
    effect on the spectrum.

    Otherwise the solve is nonsymmetric; for an even V it runs per parity
    block, and the eigenvalues come even block first.  A two-state chain
    with A[0, 0] == A[1, 1] exactly (C8's resonant family) solves the real
    R = Re(D^{-1} H D) of each block (:func:`_real_similar`) and returns
    i gamma + spec(R), gamma = A[0, 0]; its eigenvalues then come in
    reflected pairs about Im = gamma, in LAPACK's order of conjugate pairs.
    Larger chains take the complex solve.  An eigenvalue shared by both
    blocks gets pure-parity eigenvectors, so its localization can differ
    from that of an unsplit solve's mixed eigenvectors; only simple
    localized levels enter C8's gates.
    """
    if np.all(ham.V == ham.V[0]):
        eigvals, loc = _chain_modes(ham)
    else:
        real = ham.m == 2 and ham.A[0, 0] == ham.A[1, 1]
        window = np.tile(ham.well_window, ham.m)
        eigvals, loc = [], []
        for block in _parity_blocks(ham.grid, (ham.V,)):
            if real:
                vals, vecs = np.linalg.eig(_real_similar(block.restrict(ham.H)))
                vals = vals + 1j * ham.A[0, 0]
            else:
                vals, vecs = np.linalg.eig(block.restrict(ham.H))
            mass = np.abs(block.extend(vecs)) ** 2
            eigvals.append(vals)
            loc.append(mass[window].sum(axis=0) / mass.sum(axis=0))
        eigvals, loc = np.concatenate(eigvals), np.concatenate(loc)
    norm = float(np.max(np.abs(eigvals)))
    min_imag = float(np.min(eigvals.imag))
    if min_imag < -1e-8 * max(norm, 1.0):
        raise RuntimeError(
            f"spectrum leaked into the lower half-plane: min Im = {min_imag:.3e}")
    return EigenReport(eigenvalues=eigvals, localization=loc,
                       min_imag=min_imag, norm=norm)


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


def _in_free_spectrum(d: np.ndarray, lam) -> np.ndarray:
    """Whether each lambda lies in spec(H0), min |d - lambda| <= 1e-12 max(1, max |d|),
    where R0 does not exist."""
    lam = np.asarray(lam)
    if not np.all(np.isfinite(lam)):
        raise ValueError("lambda must be finite")
    if np.any(lam.imag > 0):
        raise ValueError("KB is defined on the closed lower half-plane only")
    tol = 1e-12 * max(1.0, float(np.max(np.abs(d))))
    return np.min(np.abs(d - lam[..., None]), axis=-1) <= tol


def _kb_matrices(left, right, d, lams: np.ndarray) -> np.ndarray:
    """I + left diag(1/(d - lambda)) right for each lambda of `lams`, all
    outside spec(H0), stacked (len(lams), N, N)."""
    KB = left @ (right / (d - lams[:, None])[:, :, None])
    KB.reshape(len(lams), -1)[:, ::KB.shape[-1] + 1] += 1.0
    return KB


def _min_singular_values(KB: np.ndarray) -> np.ndarray:
    """sigma_min of each matrix of a (c, N, N) stack, each from that matrix
    alone.

    One stacked eigvalsh of P = KB^H KB gives each member's sigma_min^2 and
    sigma_max^2 as P's least and largest eigenvalues.  A member with
    kappa <= _KB_GRAM_KAPPA reads sqrt(lambda_min(P)); every other one
    (kappa larger, lambda_min(P) <= 0 or not finite) is read by
    :func:`_inverse_min_singular_values`, the others of its stack inverted
    with it.  Accuracy: see the module docstring.
    """
    eig = np.linalg.eigvalsh(KB.conj().transpose(0, 2, 1) @ KB)
    least, largest = eig[:, 0], eig[:, -1]
    gram = (least > 0) & (largest <= _KB_GRAM_KAPPA ** 2 * least)
    mins = np.empty(len(KB))
    mins[gram] = np.sqrt(least[gram])
    if not gram.all():
        mins[~gram] = _inverse_min_singular_values(KB[~gram])
    return mins


def _inverse_min_singular_values(KB: np.ndarray) -> np.ndarray:
    """sigma_min of each matrix of a (c, N, N) stack as 1 / sigma_max(KB^{-1}),
    each from that matrix alone; an exactly singular matrix reads 0."""
    try:
        X = np.linalg.inv(KB)
    except np.linalg.LinAlgError:  # a singular member: take them one at a time
        return np.concatenate([_inverse_min_singular_values(k[None]) for k in KB]) \
            if len(KB) > 1 else np.zeros(1)
    return 1.0 / np.sqrt(np.linalg.eigvalsh(X.conj().transpose(0, 2, 1) @ X)[:, -1])


def assemble_kb(family: PotentialFamily, model: MarkovModel,
                lam: complex) -> np.ndarray:
    """The dense matrix KB(lambda) = I + v2 R0(lambda) v1 on the
    state-major index."""
    parts = _kb_setup(family, model)
    if _in_free_spectrum(parts[2], lam):
        raise ValueError(f"lambda = {lam} lies in the spectrum of H0")
    return _kb_matrices(*parts, np.array([lam], dtype=complex))[0]


def default_lambda_grid(re_span: tuple[float, float] = (-10.0, 10.0),
                        n_re: int = 21, im_span: tuple[float, float] = (-5.0, 0.0),
                        n_im: int = 6) -> np.ndarray:
    """The default 21 x 6 grid straddling the discretized continuous
    spectrum and the well depth, in the closed lower half-plane."""
    re = np.linspace(*re_span, n_re)
    im = np.linspace(*im_span, n_im)
    return (re[:, None] + 1j * im[None, :]).reshape(-1)


def kb_scan(family: PotentialFamily, model: MarkovModel, lam_grid: np.ndarray) -> dict:
    """Min singular value of KB over a lambda grid, plus the global minimum.

    For even v1 and v2 the spatial and the spectral index split alike (the
    DFT maps even to even and |k|^2 is even), so each KB block is assembled
    at half size, `_KB_CHUNK` lambdas to a stack.  Each stack's sigma_min
    comes from one stacked eigvalsh of KB^H KB where kappa <= 2 and from one
    stacked inverse of its other members (:func:`_min_singular_values`;
    accuracy: see the module docstring); a lambda's value does not depend
    on its stack.  A lambda in spec(H0) reads NaN; a non-finite lambda or
    one in the upper half-plane raises ValueError.
    """
    lam_grid = np.asarray(lam_grid, dtype=complex).reshape(-1)
    left, right, d = _kb_setup(family, model)
    w = split(family)
    blocks = [(b.restrict(left), b.restrict(right), b.restrict_diagonal(d))
              for b in _parity_blocks(family.grid, (w.v1, w.v2))]
    mins = np.full(lam_grid.size, np.nan)  # NaN where lambda lies in spec(H0)
    todo = np.flatnonzero(~_in_free_spectrum(d, lam_grid))
    if todo.size == 0:
        raise ValueError("every lambda of the scan lies in the spectrum of H0")
    for lo in range(0, todo.size, _KB_CHUNK):
        chunk = todo[lo:lo + _KB_CHUNK]
        mins[chunk] = np.min([_min_singular_values(_kb_matrices(*parts, lam_grid[chunk]))
                              for parts in blocks], axis=0)
    gmin = int(np.nanargmin(mins))
    return {"lambdas": lam_grid, "min_singular_values": mins,
            "global_min": float(mins[gmin]), "global_min_lambda": complex(lam_grid[gmin])}


def resolvent_identity_residual(family: PotentialFamily, model: MarkovModel,
                                lam: complex) -> float:
    """Max-norm defect of (I + v2 R0 v1)(I - v2 R_V v1) = I."""
    left = assemble_kb(family, model, lam)
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
