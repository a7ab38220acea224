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
No solve forms the dense H, nor the resolvent identity: each assembles its
parity block from -Lap, V and A, with -Lap cached per grid here, so C8's two
solves share one n^3 build (grid.dense_laplacian stays uncached for its
one-time callers), and C9's probes share one set of half-size block factors.
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
  (:func:`stochnls.grid.reflection_blocks`): the eigensolves and the KB scan
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
from functools import lru_cache

import numpy as np

from .grid import (
    ParityBlock,
    SpatialGrid,
    dense_laplacian,
    dft_matrix,
    laplacian_symbol,
    reflection_blocks,
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
    """H = (-Lap x I_y) + i (I_x x A) + diag V, held as its parts: the
    solves and the resolvent identity assemble their blocks from them, and
    the dense (m n)^2 matrix is formed only when :attr:`H` is read (by the
    tests and the benchmark's traced flop count), from the cached -Lap."""

    grid: SpatialGrid
    m: int
    well_window: np.ndarray = field(repr=False)  # boolean mask over cells
    V: np.ndarray = field(repr=False)  # (m, grid.size), the diagonal of H - H0
    A: np.ndarray = field(repr=False)  # (m, m), the chain's symmetric generator

    @property
    def size(self) -> int:
        return self.m * self.grid.size

    @property
    def H(self) -> np.ndarray:
        """The dense H in state-major layout, formed anew on each read."""
        H = np.kron(np.eye(self.m), _neg_laplacian(self.grid)).astype(complex) \
            + 1j * np.kron(self.A, np.eye(self.grid.size))
        return H + np.diag(self.V.reshape(-1).astype(complex))


@lru_cache(maxsize=2)
def _neg_laplacian(grid: SpatialGrid) -> np.ndarray:
    """-Lap, cached per grid and read-only like laplacian_symbol; complex,
    since the complex solve keeps its roundoff imaginary part."""
    L = dense_laplacian(grid)
    L.flags.writeable = False
    return L


def _well_window(family: PotentialFamily, threshold: float = 0.05) -> np.ndarray:
    """Cells where the family has appreciable weight in any state."""
    profile = np.max(np.abs(family.V), axis=0)
    peak = float(profile.max(initial=0.0))
    if peak == 0.0:
        return np.zeros(family.grid.size, dtype=bool)
    return profile > threshold * peak


def assemble_h(family: PotentialFamily, model: MarkovModel,
               cap: int = SIZE_CAP) -> DiscreteHamiltonian:
    """H = (-Lap x I_y) + i (I_x x A) + diag V in state-major layout, on the
    family's grid; no matrix is formed here."""
    grid = family.grid
    m = model.m
    size = grid.size * m
    if size > cap:
        raise ValueError(f"matrix size {size} exceeds the cap {cap}")
    if family.m != m:
        raise ValueError("family and model state counts disagree")
    return DiscreteHamiltonian(grid=grid, m=m, well_window=_well_window(family),
                               V=family.V, A=model.A)


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
    eigenvalue E + i mu_j and the window fraction of u.  h is assembled
    from the cached -Lap and V (the chain enters H only through i A), and
    is solved per parity block of V.  The eigenvalues come mu-major, each
    mu_j's levels even block first.
    """
    h = _neg_laplacian(ham.grid).real + np.diag(ham.V[0])
    levels, loc = [], []
    for block in reflection_blocks(ham.grid, (ham.V[:1],)):
        E, U = np.linalg.eigh(block.restrict(h))
        mass = block.extend(U) ** 2
        levels.append(E)
        loc.append(mass[ham.well_window].sum(axis=0) / mass.sum(axis=0))
    levels, loc = np.concatenate(levels), np.concatenate(loc)
    mu = np.linalg.eigvalsh(ham.A)
    return (levels[None, :] + 1j * mu[:, None]).reshape(-1), np.tile(loc, ham.m)


def _block_matrix(ham: DiscreteHamiltonian, block: ParityBlock, real: bool) -> np.ndarray:
    """B^H H B, B = I_y x b for a one-state parity block b, assembled state
    block by state block from the cached -Lap, V and A, bit for bit the
    restriction of the dense H: a diagonal block restricts (-Lap + i A_yy)
    + V, V added before restricting, a coupling restricts A_yz I (on pair
    rows (w 2 A_yz) w, not A_yz).  With `real`, the two-state R =
    Re(D^{-1} H D): i A_yy and -Lap's roundoff imaginary part (which
    :func:`_chain_modes` drops too) dropped, i A_01 and i A_10 turned into
    -A_01 and A_10 exactly."""
    n, A, L = ham.grid.size, ham.A, _neg_laplacian(ham.grid)
    k = n if block.index is None else block.index.size
    M = np.zeros((ham.m * k, ham.m * k), float if real else complex)
    for y, z in np.ndindex(ham.m, ham.m):
        part = M[y * k:(y + 1) * k, z * k:(z + 1) * k]
        if y == z:
            diag = L.real if real else L + 1j * A[y, y] * np.eye(n)
            part[...] = block.restrict(diag + np.diag(ham.V[y]))
            continue
        coupling = block.restrict(np.diag(np.full(n, A[y, z])))
        if real:
            part[...] = -coupling if y < z else coupling
        else:
            part.imag = coupling
    return M


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
    block (:func:`_block_matrix`), and the eigenvalues come even block
    first.  A two-state chain with A[0, 0] == A[1, 1] exactly (C8's resonant
    family) solves the real R = Re(D^{-1} H D) of each block and returns
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
        for block in reflection_blocks(ham.grid, (ham.V,)):
            vals, vecs = np.linalg.eig(_block_matrix(ham, block, real))
            vals = vals + 1j * ham.A[0, 0] if real else vals
            mass = np.abs(np.concatenate([block.extend(v) for v in np.split(vecs, ham.m)])) ** 2
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


@lru_cache(maxsize=2)
def _kb_blocks(grid: SpatialGrid, m: int, v_bytes: bytes, a_bytes: bytes):
    """(d, blocks) for V (its float64 bytes) on grid and the chain A on m
    states: H0's diagonal and, per parity block B of v1 and v2 (the whole
    space when they are not even), the KB factors, v1 and v2 on B and
    H_b = B^H H B.  Cached per key, like the -Lap they come from; nothing
    of size (m n)^2 is kept; the cap and state counts of assemble_h hold."""
    family = PotentialFamily(grid, np.frombuffer(v_bytes).reshape(-1, grid.size))
    model = MarkovModel(np.frombuffer(a_bytes).reshape(m, m))
    ham, w = assemble_h(family, model), split(family)
    left, right, d = _kb_setup(family, model)
    v1, v2, fields = w.v1.reshape(-1), w.v2.reshape(-1), (w.v1, w.v2)
    return d, [(b, b.restrict(left), b.restrict(right), b.restrict_diagonal(d),
                b.restrict_diagonal(v1), b.restrict_diagonal(v2),
                _block_matrix(ham, one, real=False))
               for b, one in zip(reflection_blocks(grid, fields, m),
                                 reflection_blocks(grid, fields))]


def kb_scan(family: PotentialFamily, model: MarkovModel, lam_grid: np.ndarray) -> dict:
    """Min singular value of KB over a lambda grid, plus the global minimum.

    For even v1 and v2 the spatial and the spectral index split alike (the
    DFT maps even to even and |k|^2 is even), so each KB block is assembled
    at half size, `_KB_CHUNK` lambdas to a stack.  Each stack's sigma_min
    comes from one stacked eigvalsh of KB^H KB where kappa <= 2 and from one
    stacked inverse of its other members (:func:`_min_singular_values`;
    accuracy: see the module docstring); a lambda's value does not depend
    on its stack.  The blocks' factors are cached per family
    (:func:`_kb_blocks`, shared with the resolvent identity).  A lambda in
    spec(H0) reads NaN; a non-finite lambda or one in the upper half-plane
    raises ValueError.
    """
    lam_grid = np.asarray(lam_grid, dtype=complex).reshape(-1)
    d, blocks = _kb_blocks(family.grid, model.m, family.V.tobytes(), model.A.tobytes())
    mins = np.full(lam_grid.size, np.nan)  # NaN where lambda lies in spec(H0)
    todo = np.flatnonzero(~_in_free_spectrum(d, lam_grid))
    if todo.size == 0:
        raise ValueError("every lambda of the scan lies in the spectrum of H0")
    for lo in range(0, todo.size, _KB_CHUNK):
        chunk = todo[lo:lo + _KB_CHUNK]
        mins[chunk] = np.min([_min_singular_values(_kb_matrices(left, right, db, lam_grid[chunk]))
                              for _, left, right, db, *_ in blocks], axis=0)
    gmin = int(np.nanargmin(mins))
    return {"lambdas": lam_grid, "min_singular_values": mins,
            "global_min": float(mins[gmin]), "global_min_lambda": complex(lam_grid[gmin])}


def resolvent_identity_residual(family: PotentialFamily, model: MarkovModel,
                                lam: complex) -> float:
    """Max-norm defect of (I + v2 R0 v1)(I - v2 R_V v1) = I.  Each parity
    block's defect KB_b (I - v2 (H_b - lambda)^{-1} v1) - I is formed at
    half size, from kb_scan's factors and an H_b assembled like
    eigen_analysis's, and extended back to the spatial basis, where the max
    is read.  A lambda in spec(H0) raises ValueError."""
    d, blocks = _kb_blocks(family.grid, model.m, family.V.tobytes(), model.A.tobytes())
    if _in_free_spectrum(d, lam):
        raise ValueError(f"lambda = {lam} lies in the spectrum of H0")
    defect, lam = 0.0, complex(lam)
    for block, left, right, db, v1, v2, H in blocks:
        eye = np.eye(len(H))
        KB = _kb_matrices(left, right, db, np.array([lam]))[0]
        RV = np.linalg.inv(H - lam * eye)
        defect = defect + block.extend_kernels(KB @ (eye - v2[:, None] * RV * v1[None, :]) - eye)
    return float(np.max(np.abs(defect)))
