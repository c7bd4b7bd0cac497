"""Low-rank approximation of symmetric, possibly indefinite kernel matrices
from a landmark subset, plus the one-shot approximate eigendecomposition and
the squared-matrix baseline it replaces.

The landmark block is always inverted through its signed eigensystem with a
spectral cutoff; an LU or Cholesky solve would silently misbehave on
indefinite or rank-deficient blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput, ShapeError, SingularLandmarkBlock
from .linalg import SignedEigenSystem, SymMatrix, sym_eigen, tril_inverse

__all__ = [
    "LandmarkSet",
    "NystroemFactor",
    "OneShotEigen",
    "fit",
    "approximate",
    "one_shot_eigen",
    "sgt_one_shot",
    "truncate_factor",
    "truncate_eigen",
    "reconstruct",
    "flop_count",
    "frobenius_error",
]

# Largest bound on cond(G) at which one_shot_eigen orthonormalizes the
# features through the Cholesky factor of their Gram G; CholeskyQR loses
# orthogonality as eps * cond(G), so above it G's eigensystem is used.
_CHOLESKY_COND_LIMIT = 1e10


@dataclass(frozen=True)
class LandmarkSet:
    """Selected landmarks: dataset indices, or explicit out-of-dataset rows.

    ``multiplicity`` records draw counts when sampling with replacement
    collapsed duplicates; ``requested`` keeps the original budget so callers
    can report the effective size next to it.
    """

    indices: np.ndarray | None = None
    points: np.ndarray | None = None
    multiplicity: np.ndarray | None = None
    requested: int | None = None

    def __post_init__(self):
        if (self.indices is None) == (self.points is None):
            raise InvalidInput("landmarks are either indices or explicit points")
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=int)
            if idx.ndim != 1 or idx.size < 1:
                raise InvalidInput("landmark indices must form a non-empty vector")
            if np.unique(idx).size != idx.size:
                raise InvalidInput("landmark indices must be distinct")
            if idx.min() < 0:
                raise InvalidInput("landmark indices must be non-negative")
            idx.setflags(write=False)
            object.__setattr__(self, "indices", idx)
        if self.multiplicity is not None:
            mult = np.asarray(self.multiplicity, dtype=int)
            if mult.shape != (self.m,) or mult.min() < 1:
                raise InvalidInput("multiplicity must hold a positive count per landmark")
            mult.setflags(write=False)
            object.__setattr__(self, "multiplicity", mult)

    @property
    def m(self) -> int:
        return self.indices.size if self.indices is not None else self.points.shape[0]


@dataclass(frozen=True)
class NystroemFactor:
    """Signed eigensystem of a landmark block with a pseudo-inverse cutoff.

    Retained eigenpairs are the leading ``effective_rank`` entries of ``eig``
    (the ordering is by decreasing magnitude, so the cutoff keeps a prefix).
    ``warning`` is set when the block was rank deficient.
    """

    eig: SignedEigenSystem
    pinv_tol: float
    effective_rank: int
    landmarks: LandmarkSet | None = None
    warning: str | None = None

    @property
    def m(self) -> int:
        return self.eig.n

    @property
    def U_r(self) -> np.ndarray:
        return self.eig.U[:, : self.effective_rank]

    @property
    def d_r(self) -> np.ndarray:
        return self.eig.d[: self.effective_rank]

    @property
    def s_r(self) -> np.ndarray:
        return self.eig.s[: self.effective_rank]

    @functools.cached_property
    def projection(self) -> np.ndarray:
        """The m x r map U_r |d_r|^{-1/2} diag(s_r) from kernel rows to signed
        features, formed on first use and shared by every later one."""
        proj = self.U_r / np.sqrt(np.abs(self.d_r)) * self.s_r
        proj.setflags(write=False)
        return proj


@dataclass(frozen=True)
class OneShotEigen:
    """Approximate eigenpairs of the full low-rank matrix.

    Columns of ``U`` are orthonormal over the whole dataset; ``lam`` is sorted
    by decreasing magnitude and may carry either sign.
    """

    U: np.ndarray
    lam: np.ndarray
    warning: str | None = None

    @property
    def rank(self) -> int:
        return self.lam.shape[0]


def fit(K_ZZ: SymMatrix, pinv_tol: float | None = None,
        landmarks: LandmarkSet | None = None) -> NystroemFactor:
    """Eigendecompose a landmark block and fix the pseudo-inverse cutoff.

    ``pinv_tol`` defaults to 1e-10 times the largest eigenvalue magnitude.
    Raises SingularLandmarkBlock when nothing survives the cutoff.
    """
    eig = sym_eigen(K_ZZ)
    scale = float(np.abs(eig.d).max()) if eig.d.size else 0.0
    if pinv_tol is None:
        pinv_tol = 1e-10 * scale
    elif not (pinv_tol >= 0.0 and math.isfinite(pinv_tol)):
        raise InvalidInput("pinv_tol must be a finite non-negative number")
    effective = int(np.sum(np.abs(eig.d) > pinv_tol))
    if effective == 0:
        raise SingularLandmarkBlock(
            f"no landmark eigenvalue exceeds the cutoff {pinv_tol:.3e}"
        )
    warning = None
    if effective < eig.n:
        warning = (
            f"landmark block is rank deficient: kept {effective} of {eig.n} "
            f"eigenvalues above {pinv_tol:.3e}"
        )
    return NystroemFactor(
        eig=eig,
        pinv_tol=float(pinv_tol),
        effective_rank=effective,
        landmarks=landmarks,
        warning=warning,
    )


def _check_cross(factor: NystroemFactor, K_XZ) -> np.ndarray:
    k = np.asarray(K_XZ, dtype=float)
    if k.ndim != 2 or k.shape[1] != factor.m:
        raise ShapeError(
            f"cross block must have {factor.m} columns, got shape {k.shape}"
        )
    if not np.all(np.isfinite(k)):
        raise InvalidInput("cross block entries must be finite")
    return k


def approximate(factor: NystroemFactor, K_XZ) -> SymMatrix:
    """Low-rank approximation K_XZ pinv(K_ZZ) K_ZX of the full matrix."""
    k = _check_cross(factor, K_XZ)
    c = k @ factor.U_r
    return SymMatrix((c / factor.d_r) @ c.T)


def one_shot_eigen(factor: NystroemFactor, phi, rank: int | None = None) -> OneShotEigen:
    """Approximate eigendecomposition in a single pass over the n x r signed
    features Phi = K_XZ U_r |d_r|^{-1/2} diag(s_r) of ``factor``, which
    `learners.build_feature_map` fills.

    Phi is orthonormalized through its Gram matrix G = Phi'Phi = LL', the
    Cholesky factor of which gives the orthonormal Q = Phi L^{-T}
    (CholeskyQR).  In that basis the approximation Phi diag(s_r) Phi' is
    M = L' diag(s_r) L; eigendecomposing M = V diag(lam) V' and lifting
    U = Phi W with W = L^{-T} V gives U'U = I and U diag(lam) U' equal to the
    approximation up to round-off.  L^{-1} comes from `linalg.tril_inverse`,
    and G, L, M and L^{-1} are released before the lift.  Forming Phi, G and
    the lift are the 3 m^2 n of the flop model.

    Q loses orthogonality as eps * cond(G), so the route is taken only when
    the bound cond(G) <= trace(G) ||L^{-1}||_F^2, read before the rotation,
    stays within `_CHOLESKY_COND_LIMIT`.  Otherwise, or when G is
    singular and the Cholesky factorization fails, G's eigensystem yields T
    with T'GT = I on the directions above 1e-12 of its largest eigenvalue,
    one Cholesky polish restores T'GT = I to machine precision, and M is
    formed in the basis Phi T.  Directions of sign zero have zero feature
    columns, make G singular and drop out of the rank there.

    ``rank`` lifts only the leading ``rank`` eigenpairs (by |lam|), the n x
    rank product Phi W[:, :rank], for callers that read no more; the r x r
    work is unchanged.  None, or a rank of at least r, lifts them all.
    """
    if rank is not None and rank < 1:
        raise InvalidInput("rank must be at least 1")
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[1] != factor.effective_rank:
        raise ShapeError(f"features must have {factor.effective_rank} columns, got {phi.shape}")
    G = phi.T @ phi
    if not np.all(np.isfinite(G)):
        raise InvalidInput("feature entries must be finite")
    G = 0.5 * (G + G.T)
    try:
        chol = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return _one_shot_by_eigh(factor, phi, G, rank)
    inv = tril_inverse(chol)
    # cond(G) <= trace(G) ||L^{-1}||_F^2
    if not np.trace(G) * np.vdot(inv, inv) <= _CHOLESKY_COND_LIMIT:  # NaN included
        return _one_shot_by_eigh(factor, phi, G, rank)
    del G
    M = (chol.T * factor.s_r) @ chol
    del chol
    rot = sym_eigen(SymMatrix(0.5 * (M + M.T)))
    del M
    # a slice to None or past the end is the whole array, so the bits stay
    W, lam = inv.T @ rot.U[:, :rank], rot.d[:rank]
    del inv, rot  # the lift holds Phi, W and its result, no other order-r array
    return OneShotEigen(U=phi @ W, lam=lam, warning=factor.warning)


def _one_shot_by_eigh(factor: NystroemFactor, phi: np.ndarray, G: np.ndarray,
                      rank: int | None) -> OneShotEigen:
    """`one_shot_eigen` through the eigensystem of G, for singular or
    ill-conditioned Grams."""
    w, V = np.linalg.eigh(G)
    wmax = w[-1] if w.size else 0.0
    if wmax <= 0.0:
        raise SingularLandmarkBlock("feature block collapsed to rank zero")
    # directions below the cutoff contribute O(1e-12) relative error to the
    # reconstruction but would poison the orthonormalization
    keep = w > 1e-12 * wmax
    sig = np.sqrt(w[keep][::-1])
    T = V[:, keep][:, ::-1] / sig
    # one Cholesky polish: restore T'GT = I to machine precision, which the
    # eigensystem alone only achieves up to eps * cond(G)
    C = T.T @ (G @ T)
    C = 0.5 * (C + C.T)
    warning = factor.warning
    try:
        chol = np.linalg.cholesky(C)
        T = np.linalg.solve(chol, T.T).T
    except np.linalg.LinAlgError:
        note = "Cholesky polish failed: U'U = I holds only to eps * cond(G)"
        warning = note if warning is None else f"{warning}; {note}"
    H = G @ T
    M = H.T @ (factor.s_r[:, None] * H)
    rot = sym_eigen(SymMatrix(0.5 * (M + M.T)))
    return OneShotEigen(U=phi @ (T @ rot.U[:, :rank]), lam=rot.d[:rank], warning=warning)


def sgt_one_shot(factor: NystroemFactor, K_XZ) -> OneShotEigen:
    """Squared-matrix baseline for the same approximate eigendecomposition.

    Eigendecomposes pinv(K_ZZ) K_ZX K_XZ pinv(K_ZZ), lifts the eigenvectors
    through K_XZ, orthonormalizes them via a second small eigendecomposition,
    and reads eigenvalues off the projected approximation.  Costs roughly
    7 m^2 n against 3 m^2 n for one_shot_eigen; at full effective rank both
    produce the same approximation.
    """
    k = _check_cross(factor, K_XZ)
    winv = (factor.U_r / factor.d_r) @ factor.U_r.T
    squared = SymMatrix(winv @ (k.T @ k) @ winv)
    inner = sym_eigen(squared)
    # the squared matrix is PSD by construction; clip tiny negatives
    gamma = np.maximum(inner.d, 0.0)
    keep = gamma > 1e-14 * (gamma.max() if gamma.size else 0.0)
    warning = factor.warning
    if not np.any(keep):
        raise SingularLandmarkBlock("squared landmark system has an empty spectrum")
    lifted = k @ (inner.U[:, keep] * np.sqrt(gamma[keep]))
    gram_small = sym_eigen(SymMatrix(lifted.T @ lifted))
    delta = np.maximum(gram_small.d, 0.0)
    keep2 = delta > 1e-10 * (delta.max() if delta.size else 0.0)
    if not np.any(keep2):
        raise SingularLandmarkBlock("lifted eigenvector system collapsed to rank zero")
    if keep2.sum() < keep.sum():
        warning = (
            f"rank collapse while orthonormalizing: kept {int(keep2.sum())} "
            f"of {int(keep.sum())} directions"
        )
    u = lifted @ (gram_small.U[:, keep2] / np.sqrt(delta[keep2]))
    # eigenvalues of the approximation in the orthonormal basis
    t = u.T @ k
    diag = np.einsum("ij,ij->i", t @ winv, t)
    order = np.lexsort((-diag, -np.abs(diag)))
    return OneShotEigen(U=u[:, order], lam=diag[order], warning=warning)


def truncate_factor(factor: NystroemFactor, rank: int) -> NystroemFactor:
    """Keep at most ``rank`` leading eigenpairs of the landmark block."""
    if rank < 1:
        raise InvalidInput("rank must be at least 1")
    return replace(factor, effective_rank=min(rank, factor.effective_rank))


def truncate_eigen(eig: OneShotEigen, rank: int) -> OneShotEigen:
    """Keep at most ``rank`` leading approximate eigenpairs, copied so that
    the dropped columns can be freed."""
    if rank < 1:
        raise InvalidInput("rank must be at least 1")
    if rank >= eig.rank:
        return eig
    return OneShotEigen(U=eig.U[:, :rank].copy(), lam=eig.lam[:rank], warning=eig.warning)


def reconstruct(eig: OneShotEigen) -> SymMatrix:
    """Dense matrix U diag(lam) U' of an approximate eigendecomposition."""
    return SymMatrix((eig.U * eig.lam) @ eig.U.T)


def flop_count(method: str, n: int, m: int) -> int:
    """Closed-form multiplication counts of the two eigendecomposition routes.

    one_shot costs 3 m^2 n + 3 m^3; the squared-matrix baseline costs
    7 m^2 n + 2 m^3.  Exact integers, no rounding.
    """
    if not (isinstance(n, (int, np.integer)) and isinstance(m, (int, np.integer))):
        raise InvalidInput("n and m must be integers")
    if not n >= m >= 1:
        raise InvalidInput(f"need n >= m >= 1, got n={n}, m={m}")
    n = int(n)
    m = int(m)
    if method == "one_shot":
        return 3 * m * m * n + 3 * m**3
    if method == "sgt":
        return 7 * m * m * n + 2 * m**3
    raise InvalidInput(f"unknown method {method!r}")


def frobenius_error(K: SymMatrix, K_approx: SymMatrix) -> float:
    """Frobenius norm of the approximation residual."""
    if K.order != K_approx.order:
        raise ShapeError(
            f"matrix orders differ: {K.order} vs {K_approx.order}"
        )
    return float(np.linalg.norm(K.values - K_approx.values, "fro"))
