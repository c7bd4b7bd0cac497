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
    `learners.build_feature_map` fills: the r x r core `_one_shot_core` takes
    G = Phi'Phi to W and lam, and the lift U = Phi W has U'U = I and
    U diag(lam) U' equal to Phi diag(s_r) Phi' up to round-off.  Forming Phi,
    G and the lift are the 3 m^2 n of the flop model.

    ``rank`` lifts only the leading ``rank`` eigenpairs (by |lam|), the n x
    rank product Phi W[:, :rank]; the r x r work is unchanged.  None, or a
    rank of at least r, lifts them all.
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
    W, lam, warning = _one_shot_core(G, factor.s_r, rank, factor.warning)
    del G  # the lift holds Phi, W and its result, no other order-r array
    return OneShotEigen(U=phi @ W, lam=lam, warning=warning)


def _one_shot_core(G: np.ndarray, s: np.ndarray, rank: int | None,
                   warning: str | None):
    """W, lam and the warning of `one_shot_eigen` from the Gram G of the
    features and their signs s.

    A basis B with B'GB = I makes Phi B orthonormal, and in it the
    approximation is M = (GB)' diag(s) (GB) = V diag(lam) V', so W = B V.
    B is L^{-T} for the Cholesky factor G = LL' (CholeskyQR, with GB = L),
    from `linalg.tril_inverse`.  Phi B loses orthogonality as eps * cond(G),
    so that basis is taken only while the bound cond(G) <= trace(G)
    ||L^{-1}||_F^2 stays within `_CHOLESKY_COND_LIMIT`.  Otherwise, or when
    G is singular and has no Cholesky factor, B comes from G's eigensystem on
    the directions above 1e-12 of its largest eigenvalue, and one Cholesky
    polish restores B'GB = I to machine precision.  Directions of sign zero
    have zero feature columns, make G singular and drop out of the rank there.
    """
    try:
        GB = np.linalg.cholesky(G)  # L, as G L^{-T} = L
        B = tril_inverse(GB).T
        # cond(G) <= trace(G) ||L^{-1}||_F^2; NaN fails it too
        cholesky = np.trace(G) * np.vdot(B.T, B.T) <= _CHOLESKY_COND_LIMIT
    except np.linalg.LinAlgError:
        cholesky = False
    if not cholesky:
        w, V = np.linalg.eigh(G)
        if not (w.size and w[-1] > 0.0):
            raise SingularLandmarkBlock("feature block collapsed to rank zero")
        # directions below the cutoff contribute O(1e-12) relative error to
        # the reconstruction but would poison the orthonormalization
        keep = w > 1e-12 * w[-1]
        B = V[:, keep][:, ::-1] / np.sqrt(w[keep][::-1])
        # one Cholesky polish: restore B'GB = I to machine precision, which
        # the eigensystem alone only achieves up to eps * cond(G)
        C = B.T @ (G @ B)
        try:
            B = np.linalg.solve(np.linalg.cholesky(0.5 * (C + C.T)), B.T).T
        except np.linalg.LinAlgError:
            note = "Cholesky polish failed: U'U = I holds only to eps * cond(G)"
            warning = note if warning is None else f"{warning}; {note}"
        GB = G @ B
    M = (GB.T * s) @ GB
    del GB
    rot = sym_eigen(SymMatrix(0.5 * (M + M.T)))
    # a slice to None or past the end is the whole array, so the bits stay
    return B @ rot.U[:, :rank], rot.d[:rank], warning


def sgt_one_shot(factor: NystroemFactor, K_XZ) -> OneShotEigen:
    """Squared-matrix baseline for the same approximate eigendecomposition.

    Eigendecomposes pinv(K_ZZ) K_ZX K_XZ pinv(K_ZZ), lifts the eigenvectors
    through K_XZ, orthonormalizes them via a second small eigendecomposition,
    and reads eigenvalues off the projected approximation.  Costs roughly
    7 m^2 n against 3 m^2 n for one_shot_eigen; at full effective rank both
    produce the same approximation.  K'K scales as max|d_r|^2; when that is
    not a normal, finite float, the route runs on the blocks scaled by a power
    of two that brings max|d_r| into [1/2, 1) and scales lam back, exactly.
    """
    k = _check_cross(factor, K_XZ)
    d = factor.d_r
    top = float(np.abs(d).max())
    e = 0 if np.finfo(float).tiny <= top * top < math.inf else math.frexp(top)[1]
    if e:
        d, k = np.ldexp(d, -e), np.ldexp(k, -e)
    winv = (factor.U_r / d) @ factor.U_r.T
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
    return OneShotEigen(U=u[:, order], lam=np.ldexp(diag[order], e), warning=warning)


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
