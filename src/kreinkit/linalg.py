"""Dense symmetric-matrix numerics shared across the package.

Eigendecompositions carry an explicit sign vector so that indefinite matrices
can be inverted, spectrum-flipped, and projected without losing track of the
negative directions.  The module also houses a thin-SVD wrapper, the
globally optimal sphere-constrained quadratic solver of the variance-
constrained least squares learner (whose SVD is `learners.FeatureMap.svd`),
the grid of row blocks that the passes over n rows walk, and the blocked
triangular inverse of the one-shot route's Cholesky factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, InvalidInput, ShapeError, SolverError

__all__ = [
    "ASYM_TOL",
    "SymMatrix",
    "SignedEigenSystem",
    "SVDFactors",
    "SphereQP",
    "sym_eigen",
    "thin_svd",
    "indefiniteness",
    "SphereQPFactor",
    "factor_sphere_qp",
    "solve_sphere_qp",
    "sphere_constrained_qp",
    "sphere_qp_objective",
]

# asymmetry tolerated at construction, relative to max(1, |M|_max)
ASYM_TOL = 1e-8

# The passes over n rows (the feature fill, which also feeds the one-shot
# eigen routes, the feature map's Gram, the Newton Hessian, and approx's
# residual scoring) walk blocks of this many elements over the row width,
# rounded down to a multiple of 64 rows and at least 64: 4 MiB of scratch per
# block at any n, for rows of up to 8192 elements.  The blocks also fix the
# order of every row-blocked sum, so changing the budget moves the features,
# the Gram and the lsm weights, the Newton iterates and the scored errors at
# round-off level.  Since every feature product is taken on this grid, a
# row's features are the same bits whichever array it arrives in.
_ROW_BLOCK_ELEMENTS = 1 << 19


def row_blocks(n: int, width: int):
    """(start, stop) of the blocks of n rows of ``width`` elements each."""
    step = max(64, _ROW_BLOCK_ELEMENTS // max(1, width) // 64 * 64)
    for start in range(0, n, step):
        yield start, min(n, start + step)


# order up to which `tril_inverse` substitutes row by row instead of
# splitting further
_TRIL_BASE = 64


def tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, with exact zeros
    above the diagonal.

    The 2 x 2 block form [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0],
    [-C^{-1} B A^{-1}, C^{-1}]] is applied recursively, so nearly all the
    work is matrix products (Elmroth, Gustavson, Jonsson & Kagstrom, SIAM
    Review 2004); a block of order at most `_TRIL_BASE` is inverted by
    forward substitution.  The residual is of order eps cond(L) (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 14).
    """
    L = np.asarray(L, dtype=float)
    out = np.zeros_like(L)
    _tril_inverse_into(L, out)
    return out


def _tril_inverse_into(L: np.ndarray, out: np.ndarray) -> None:
    n = L.shape[0]
    if n <= _TRIL_BASE:
        for i in range(n):
            out[i, :i] = -(L[i, :i] @ out[:i, :i]) / L[i, i]
            out[i, i] = 1.0 / L[i, i]
        return
    h = n // 2
    _tril_inverse_into(L[:h, :h], out[:h, :h])
    _tril_inverse_into(L[h:, h:], out[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (L[h:, :h] @ out[:h, :h])


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=float)
    out.setflags(write=False)
    return out


def _fix_column_signs(u: np.ndarray, *also: np.ndarray) -> None:
    """Flip columns of ``u`` (and matching columns of ``also``) in place so the
    entry of largest magnitude in each column is positive.  argmax resolves
    magnitude ties at the lowest row index, which makes the convention total.
    """
    if u.shape[1] == 0:
        return
    lead = np.argmax(np.abs(u), axis=0)
    flip = u[lead, np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    for other in also:
        other[:, flip] = -other[:, flip]


class SymMatrix:
    """Dense real symmetric matrix.

    Input is symmetrized to ``(M + M.T) / 2`` at construction so downstream
    code can rely on exact symmetry.  Asymmetry beyond ``ASYM_TOL`` relative
    to ``max(1, |M|_max)`` is rejected rather than silently averaged away.
    Exactly symmetric input is stored as a copy, which is what the average
    would give, without its temporaries or its overflow near the largest
    float.  The stored array is read-only.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        a = np.asarray(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInput("matrix entries must be finite")
        if np.array_equal(a, a.T):  # empty input included
            a = a.copy()
        else:
            scale = max(1.0, float(np.abs(a).max()))
            asym = float(np.abs(a - a.T).max())
            if asym > ASYM_TOL * scale:
                raise InvalidInput(
                    "matrix is asymmetric beyond tolerance: "
                    f"max |M - M.T| = {asym:.3e} with scale {scale:.3e}"
                )
            a = (a + a.T) / 2.0
        self.values = _frozen(a)

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)

    def __repr__(self) -> str:
        return f"SymMatrix(order={self.order})"


@dataclass(frozen=True)
class SignedEigenSystem:
    """Eigendecomposition M = U diag(d) U.T with a zero-thresholded sign vector.

    Columns of ``U`` are orthonormal; ``d`` is sorted by decreasing |d| with
    ties broken by decreasing signed value; ``s[i]`` is sign(d[i]) with exact
    zeros for |d[i]| <= tau_zero.  Eigenvector signs follow the deterministic
    largest-entry-positive convention.
    """

    U: np.ndarray
    d: np.ndarray
    s: np.ndarray
    tau_zero: float

    @property
    def n(self) -> int:
        return self.U.shape[0]


def sym_eigen(M) -> SignedEigenSystem:
    """Signed eigendecomposition of a symmetric matrix (a SymMatrix, or an
    array that is validated and symmetrized first).  Eigenvalues with
    magnitude at most ``tau_zero = 1e-12 * max|d|`` get sign zero."""
    if not isinstance(M, SymMatrix):
        M = SymMatrix(M)
    w, v = np.linalg.eigh(M.values)
    order = np.lexsort((-w, -np.abs(w)))
    d = w[order]
    u = np.array(v[:, order])
    _fix_column_signs(u)
    tau_zero = 1e-12 * (float(np.abs(d).max()) if d.size else 0.0)
    s = np.sign(d)
    s[np.abs(d) <= tau_zero] = 0.0
    return SignedEigenSystem(U=_frozen(u), d=_frozen(d), s=_frozen(s), tau_zero=float(tau_zero))


def indefiniteness(eig: SignedEigenSystem) -> float:
    """Share of total spectral mass carried by negative eigenvalues.

    Returns sum(|d| over s < 0) / sum(|d| over s != 0), a value in [0, 1].
    Raises DegenerateSpectrum when every eigenvalue is zero.
    """
    mass = np.abs(eig.d)
    total = float(mass[eig.s != 0].sum())
    if total <= 0.0:
        raise DegenerateSpectrum("all eigenvalues are zero")
    return float(mass[eig.s < 0].sum() / total)


@dataclass(frozen=True)
class SVDFactors:
    """Thin SVD L = A diag(sigma) B.T with sigma descending and the same
    deterministic column-sign convention as the eigendecompositions."""

    A: np.ndarray
    sigma: np.ndarray
    B: np.ndarray


def thin_svd(L) -> SVDFactors:
    """Thin SVD of an n x m matrix with n >= m."""
    a = np.asarray(L, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {a.shape}")
    n, m = a.shape
    if n < m:
        raise ShapeError(f"thin SVD needs n >= m, got {n} x {m}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix entries must be finite")
    u, sig, vt = np.linalg.svd(a, full_matrices=False)
    u = np.array(u)
    b = np.array(vt.T)
    _fix_column_signs(u, b)
    return SVDFactors(A=_frozen(u), sigma=_frozen(sig), B=_frozen(b))


@dataclass(frozen=True)
class SphereQP:
    """Quadratic program min gamma' W gamma - 2 b' gamma over ||gamma|| = r."""

    W: np.ndarray
    b: np.ndarray
    r: float

    def __post_init__(self):
        w, b = _qp_arrays(self.W, self.b)
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise InvalidInput("radius r must be positive and finite")
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", float(self.r))

    @property
    def m(self) -> int:
        return self.b.shape[0]


def _qp_arrays(W, b) -> tuple[np.ndarray, np.ndarray]:
    w = SymMatrix(W).values
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] != w.shape[0]:
        raise ShapeError(
            f"b must be a vector of length {w.shape[0]}, got shape {b.shape}"
        )
    if not np.all(np.isfinite(b)):
        raise InvalidInput("b entries must be finite")
    return w, _frozen(b)


def sphere_qp_objective(q: SphereQP, gamma) -> float:
    g = np.asarray(gamma, dtype=float)
    return float(g @ q.W @ g - 2.0 * (q.b @ g))


@dataclass(frozen=True)
class SphereQPFactor:
    """Eigensystem W = Q diag(lam) Q' (ascending lam, largest-entry-positive
    columns) with beta = Q' b: all a secular solve needs, for any radius."""

    lam: np.ndarray
    Q: np.ndarray
    beta: np.ndarray
    bnorm: float


def factor_sphere_qp(W, b) -> SphereQPFactor:
    """The radius-free part of the sphere QP: one eigendecomposition of W."""
    w, b = _qp_arrays(W, b)
    lam, Q = np.linalg.eigh(w)
    Q = np.array(Q)
    _fix_column_signs(Q)
    return SphereQPFactor(lam=lam, Q=Q, beta=Q.T @ b, bnorm=float(np.linalg.norm(b)))


def sphere_constrained_qp(q: SphereQP, tol: float = 1e-12) -> np.ndarray:
    """Global minimizer of a quadratic over the sphere ||gamma|| = r.

    Factors W once and runs the secular solve of `solve_sphere_qp`; callers
    that need several radii for one (W, b) factor once with
    `factor_sphere_qp` and solve them together.
    """
    return solve_sphere_qp(factor_sphere_qp(q.W, q.b), q.r, tol)


def solve_sphere_qp(f: SphereQPFactor, r, tol: float = 1e-12, scale=1.0) -> np.ndarray:
    """Global minimizers of gamma' (c W) gamma - 2 b' gamma over ||gamma|| = r,
    given the factorisation of (W, b), for radii ``r`` and eigenvalue scales
    c = ``scale``, which broadcast against each other: one problem per entry,
    all solved by one vectorised iteration.  The scales let every penalty
    pair of one ratio share the factorisation of the ratio's W.

    Stationary points satisfy (c W + nu I) gamma = b; the global minimum is
    the one with nu >= -lambda_min(c W), where phi(nu) = ||(c W + nu I)^+ b||
    is monotone decreasing.  The secular root phi(nu) = r is bracketed by
    bisection and polished with safeguarded Newton steps on 1/phi.  The
    iterate is t = nu + lambda_min over the gaps lambda - lambda_min, formed
    once, so lambda + nu keeps its digits however large lambda_min is against
    the bracket width ||b|| / r.  When b is orthogonal to the bottom
    eigenspace and the limit norm falls short of r (the hard case), the
    solution sits at nu = -lambda_min with a bottom eigenvector component
    added to reach the sphere.  b = 0 is a hard case with no gaps to fill:
    gamma is r times the bottom eigenvector, whose sign the column convention
    of `factor_sphere_qp` pins.

    Returns gamma of shape broadcast(r, scale).shape + (m,).  A problem whose
    scaled eigenvalues are not finite, or whose root is not found within 200
    iterations, fails alone: a scalar call raises SolverError, an array call
    leaves its row NaN.
    """
    r, scale = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(scale, dtype=float))
    shape = r.shape
    r, scale = r.ravel(), scale.ravel()
    if not np.all(np.isfinite(r) & (r > 0.0)):
        raise InvalidInput("radius r must be positive and finite")
    if not np.all(scale >= 0.0):
        raise InvalidInput("eigenvalue scales must be non-negative")
    Q, beta, bnorm = f.Q, f.beta, f.bnorm
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = scale[:, None] * f.lam
        gaps = lam - lam[:, :1]
        finite = np.isfinite(lam).all(axis=1)
        span = np.abs(lam).max(axis=1, initial=0.0)
        min_mask = gaps <= 1e-10 * np.maximum(1.0, span)[:, None]
        bottom_small = np.all(~min_mask | (np.abs(beta) <= 1e-12 * max(1.0, bnorm)), axis=1)
        coef = np.where(min_mask, 0.0, beta / np.where(min_mask, 1.0, gaps))
        phi0_sq = np.einsum("ij,ij->i", coef, coef)
        # hard case (or exact boundary root at t = 0)
        hard = finite & bottom_small & (phi0_sq <= r * r)
        tail = np.where(hard, np.sqrt(np.maximum(r * r - phi0_sq, 0.0)), 0.0)

        # secular roots t in (0, ||b|| / r]: phi decreases from >= r to <= r.
        # Every row iterates until the last converges; each row's arithmetic
        # is its own, and a row keeps the coef it converged with
        pending = finite & ~hard
        inv_r, tol_r = 1.0 / r, tol * r
        lo = np.zeros_like(r)
        hi = bnorm * inv_r
        t = 0.5 * hi
        for _ in range(200):
            dn = gaps + t[:, None]
            trial = beta / dn
            phi = np.sqrt(np.einsum("ij,ij->i", trial, trial))
            done = pending & (np.abs(phi - r) <= tol_r)
            coef[done] = trial[done]
            pending &= ~done
            if not pending.any():
                break
            above = phi > r
            lo = np.where(above, t, lo)
            hi = np.where(above, hi, t)
            # Newton on g(t) = 1/phi - 1/r, monotone increasing and nearly
            # linear; a step out of the bracket (or NaN) bisects instead
            slope = (trial * trial / dn).sum(axis=1) / phi**3
            step = t - (1.0 / phi - inv_r) / slope
            t = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    if shape == () and not finite[0]:
        raise SolverError("sphere-constrained QP: the scaled eigenvalues are not finite")
    if shape == () and pending[0]:
        raise SolverError("sphere-constrained QP root finder did not converge", iterations=200)
    gamma = coef @ Q.T
    gamma += tail[:, None] * Q[:, 0]
    gamma[~finite | pending] = np.nan
    return _frozen(gamma.reshape(*shape, -1))
