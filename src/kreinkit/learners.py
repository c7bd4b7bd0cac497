"""Learning in an indefinite kernel space, full rank and low rank.

The low-rank learners all operate on the signed Nystroem feature map
Phi = K_XZ U |d|^{-1/2} diag(s): ridge regression in closed form, a
variance-constrained least squares variant solved through the sphere QP, and
a squared-hinge SVM solved by damped Newton steps.  Sign-flip baselines and
the similarities-as-features least squares model round out the comparisons.

Regularization follows the n-scaled matrix convention throughout: the data
term is an unnormalized sum over training points and the penalty enters as
n * lambda.
"""

from __future__ import annotations

import base64
import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, ParseError, RankDeficient, ShapeError, SolverError
from .kernels import GramSource, KernelSpec, format_kernel_spec, parse_kernel_spec
from .linalg import SignedEigenSystem, SymMatrix, factor_sphere_qp, row_blocks, solve_sphere_qp
from .nystroem import LandmarkSet, NystroemFactor

__all__ = [
    "RegPair",
    "LEARNERS",
    "FeatureMap",
    "FullRankModel",
    "FlipKRRModel",
    "LowRankModel",
    "SimilarityLSModel",
    "build_feature_map",
    "center_features",
    "feature_rows",
    "krein_krr_full",
    "krein_krr_lowrank",
    "vc_lsm_path",
    "vc_lsm_lowrank",
    "sh_svm_lowrank",
    "learner_path",
    "variance_target",
    "flip_krr_baseline",
    "flip_shsvm_baseline",
    "sf_lsm_path",
    "sf_lsm_baseline",
    "squared_hinge_objective",
    "squared_hinge_gradient",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class RegPair:
    """Regularization strengths for the positive and negative directions.

    Both entries must be non-negative; production use wants both strictly
    positive, zeros are tolerated for controlled experiments.
    """

    lam_pos: float
    lam_neg: float

    def __post_init__(self):
        for name in ("lam_pos", "lam_neg"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0.0):
                raise InvalidInput(f"{name} must be finite and non-negative")
            object.__setattr__(self, name, v)


def _lambda_diag(reg: RegPair, signs: np.ndarray) -> np.ndarray:
    # lam_pos on +1 directions, lam_neg on -1; a zero sign averages the two
    return reg.lam_pos * (signs + 1.0) / 2.0 + reg.lam_neg * np.abs(signs - 1.0) / 2.0


def _check_penalty_scale(reg: RegPair, n: int) -> None:
    """The n-scaled penalties must be finite: SolverError otherwise."""
    if not math.isfinite(n * max(reg.lam_pos, reg.lam_neg)):
        raise SolverError("the penalty n * lambda overflows",
                          diagnostics={"lam_pos": reg.lam_pos, "lam_neg": reg.lam_neg})


@dataclass(frozen=True)
class FeatureMap:
    """Signed Nystroem features of the training set.

    ``phi`` has one row per training point and one column per retained
    landmark eigendirection; ``signs`` are the matching eigenvalue signs, so
    phi diag(signs) phi' reproduces the low-rank kernel approximation.
    ``svd`` is (sigma, B), phi's singular values (descending) and right
    singular vectors, from the SVD of its r x r R factor.  ``gram`` is
    phi' phi, summed over the blocks of the `linalg.row_blocks` grid: lsm
    solves with it, and every shsvm Newton step takes its Hessian from it.
    Both are computed on first use and shared by every learner and penalty
    trained on this map.  ``mean`` is the training mean subtracted from every
    row by `center_features`, None for raw features.
    """

    phi: np.ndarray
    signs: np.ndarray
    factor: NystroemFactor
    mean: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def rank(self) -> int:
        return self.phi.shape[1]

    @functools.cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray]:
        R = np.linalg.qr(self.phi, mode="r")
        if not np.all(np.isfinite(R)):  # a non-finite phi leaves R non-finite
            raise InvalidInput("feature entries must be finite")
        _, sigma, vt = np.linalg.svd(R, full_matrices=False)
        return sigma, vt.T

    @functools.cached_property
    def gram(self) -> np.ndarray:
        return _row_gram(self.phi)

    def decisions(self, K_rows, Z) -> np.ndarray | float:
        """Decision values of points from their kernel rows k against the
        landmarks, for one weight vector z or the r x P weights Z of a grid
        (one column per grid point), as the landmark expansion
        k' (P Z) - mu' Z over the m x r `NystroemFactor.projection` P and
        the centring mean mu (0 for raw features): Phi Z to round-off,
        without a feature row, in O(m) per point and weight vector.  For one
        z, einsum adds each row's products in an order set by the row alone,
        unlike a BLAS GEMV, so a row's value is the same bits whether it is
        scored alone, in a block or in the whole array."""
        k = np.asarray(K_rows, dtype=float)
        if k.ndim not in (1, 2) or k.shape[-1] != self.factor.m:
            raise ShapeError(f"expected kernel rows of length {self.factor.m}, got {k.shape}")
        alpha = self.factor.projection @ Z
        out = np.einsum("...j,j->...", k, alpha) if alpha.ndim == 1 else k @ alpha
        if self.mean is not None:
            out -= self.mean @ Z
        return out


def feature_rows(factor: NystroemFactor, K_rows, out: np.ndarray | None = None) -> np.ndarray:
    """Signed feature rows for arbitrary points given their kernel values
    against the landmarks, the rows `build_feature_map` fills the map with.

    The signs are folded into the m x r `NystroemFactor.projection`, formed
    once per factor, rather than applied to the n x r product: scaling by +-1
    is exact, so the rows are the same bits without a second n x r array.
    The product is taken one block of the `linalg.row_blocks` grid at a
    time, so a row's features do not depend on how many rows are passed with
    it; a row-blocked product need not match one product of the whole array.
    ``out``, if given, receives the rows of a 2-d K_rows."""
    k = np.asarray(K_rows, dtype=float)
    single = k.ndim == 1
    if single:
        k = k[None, :]
    if k.shape[1] != factor.m:
        raise ShapeError(f"expected kernel rows of length {factor.m}, got {k.shape}")
    proj = factor.projection
    rows = np.empty((k.shape[0], proj.shape[1])) if out is None else out
    for start, stop in row_blocks(k.shape[0], factor.m):
        np.matmul(k[start:stop], proj, out=rows[start:stop])
    return rows[0] if single else rows


def build_feature_map(factor: NystroemFactor, K_XZ) -> FeatureMap:
    """Signed features of the n training points in one n x r array, filled
    one block of the `linalg.row_blocks` grid at a time from ``K_XZ``: the
    n x m cross block against the landmarks, or the `GramSource` of the
    training points, whose rows against the landmarks of ``factor`` are then
    formed block by block, so that no n x m array is ever whole.  Either way
    the map holds the bits `feature_rows` gives for the whole cross block.
    """
    if isinstance(K_XZ, GramSource):
        marks = factor.landmarks.indices
        phi = np.empty((K_XZ.n, factor.effective_rank))
        for start, stop in row_blocks(K_XZ.n, factor.m):
            feature_rows(factor, K_XZ.cross(np.arange(start, stop), marks), out=phi[start:stop])
    else:  # feature_rows walks the same grid
        phi = feature_rows(factor, K_XZ)
    return FeatureMap(phi=phi, signs=np.array(factor.s_r), factor=factor)


def center_features(fmap: FeatureMap) -> FeatureMap:
    """The map with Phi - 1 mu', mu the column mean of the training rows.

    (H Phi) diag(s) (H Phi)' = H (Phi diag(s) Phi') H with H = I - 11'/n, so
    this centres the low-rank kernel in O(nr).  At full landmarks that is the
    centred kernel, and 1 lies in the span of Phi, so the map loses one rank.
    """
    mean = fmap.phi.mean(axis=0)
    return FeatureMap(phi=fmap.phi - mean, signs=fmap.signs, factor=fmap.factor, mean=mean)


@dataclass(frozen=True)
class FullRankModel:
    """Kernel ridge model over the full training matrix."""

    alpha: np.ndarray
    eig: SignedEigenSystem
    reg: RegPair

    def predict(self, k_rows) -> np.ndarray | float:
        k = np.asarray(k_rows, dtype=float)
        return k @ self.alpha


def krein_krr_full(eig: SignedEigenSystem, y, reg: RegPair) -> FullRankModel:
    """Closed-form ridge regression with split regularization.

    Solved in the eigenbasis: alpha = U diag(s / (|d| + n lam_i)) U' y with
    lam_i chosen per eigenvalue sign.  The system matrix is positive definite
    whenever both strengths are positive, so no solve can fail there.
    """
    y = _as_labels(y, eig.n)
    n = eig.n
    lam = _lambda_diag(reg, eig.s)
    w = eig.U.T @ y
    denom = eig.d * eig.s + n * lam
    coef = np.zeros_like(w)
    ok = denom > 0
    coef[ok] = eig.s[ok] * w[ok] / denom[ok]
    if np.any(~ok & (eig.s != 0)):
        raise SolverError("ridge system is singular on a nonzero eigendirection")
    return FullRankModel(alpha=eig.U @ coef, eig=eig, reg=reg)


@dataclass(frozen=True)
class FlipKRRModel:
    """Ridge regression on the flipped-spectrum matrix.

    Out-of-sample evaluation routes the kernel column through the sign
    operator, which ``coeffs`` folds in already: predictions are k' coeffs.
    """

    alpha: np.ndarray
    coeffs: np.ndarray
    eig: SignedEigenSystem
    lam: float

    def predict_training(self) -> np.ndarray:
        h = (self.eig.U * (self.eig.d * self.eig.s)) @ self.eig.U.T
        return h @ self.alpha

    def predict(self, k_rows) -> np.ndarray | float:
        return np.asarray(k_rows, dtype=float) @ self.coeffs


def flip_krr_baseline(eig: SignedEigenSystem, y, lam: float) -> FlipKRRModel:
    """Ordinary KRR on the flipped-spectrum matrix H = U |d| U'."""
    y = _as_labels(y, eig.n)
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidInput("lam must be positive")
    n = eig.n
    w = eig.U.T @ y
    alpha = eig.U @ (w / (eig.d * eig.s + n * lam))
    coeffs = eig.U @ (eig.s * (eig.U.T @ alpha))
    return FlipKRRModel(alpha=alpha, coeffs=coeffs, eig=eig, lam=float(lam))


@dataclass(frozen=True)
class LowRankModel:
    """Weights in the signed feature space plus everything needed to predict."""

    z: np.ndarray
    map: FeatureMap
    learner: str
    reg: RegPair
    r_constraint: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def predict(self, k_rows) -> np.ndarray | float:
        """Decision values of points from their kernel rows k against the
        landmarks (`FeatureMap.decisions` of z); the only array formed is
        the output."""
        return self.map.decisions(k_rows, self.z)


def _as_labels(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ShapeError(f"expected {n} targets, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidInput("targets must be finite")
    return y


def _as_binary(y, n: int) -> np.ndarray:
    y = _as_labels(y, n)
    positive = y == 1.0
    if not np.all(positive | (y == -1.0)):
        raise InvalidInput("labels must be -1/+1")
    if positive.all() or not positive.any():
        raise InvalidInput("both classes must be present")
    return y


def krein_krr_lowrank(fmap: FeatureMap, y, reg: RegPair) -> LowRankModel:
    """Ridge regression in the signed feature space (closed form): the lsm
    path of `learner_path` at the single penalty pair reg."""
    return learner_path("lsm", fmap, y)[1](reg)


def vc_lsm_path(fmap: FeatureMap, y) -> tuple[Callable, Callable]:
    """Variance-constrained least squares on one map and one y, as the pair
    ``(solve, grid)``: ``solve(reg, r)``, the `LowRankModel` at the penalty
    pair reg and the variance target r, and ``grid(hypers)``, the weights of
    a list of (reg, r) points solved together.

    Minimizes n lam_pos ||z_+||^2 + n lam_neg ||z_-||^2 - 2 z' Phi' y subject
    to ||Phi z|| = r.  The caller centres the features (`center_features`).
    With Phi = A diag(sigma) B' (`FeatureMap.svd`, from Phi's R factor, formed
    at the first solve) it is a sphere QP in gamma = diag(sigma) B' z with
    linear term A' y = (B / sigma)' Phi' y, solved globally on the directions
    with sigma > 1e-10 max(sigma): z lies in the row space of Phi, so a
    rank-deficient Phi trains on its range, and only an all-zero Phi raises
    RankDeficient, after r is checked.  A pair whose n lam, whose ratio's W
    or whose scaled eigenvalues overflow raises SolverError.

    The sphere-QP factorisations are shared by the calls, one per penalty
    ratio RegPair(lam_pos / s, lam_neg / s), s = max(lam_pos, lam_neg), with
    (0, 0) a ratio of its own.  W is linear in (lam_pos, lam_neg), so a
    pair's W is s times its ratio's: the same eigenvectors and b, and
    eigenvalues scaled by s (Moré and Sorensen's trust-region view of the
    sphere QP).  One rule: a ratio's W is formed from the ratio's penalties
    and factored, eigh(W) included, on its first use, and every pair solves
    with its ratio's eigenvalues scaled by its own s, so a pair's weights do
    not depend on the pairs solved before it.  A factorisation that raises
    is not kept.

    ``grid`` finds each distinct penalty pair's ratio once, groups its points
    by ratio and solves each group, every pair and radius of it, in one call
    of `solve_sphere_qp`.  It returns the rank x P weights and the mask of
    the points that failed, whose columns are zero: a ratio whose
    factorisation raises fails all its points, and a problem that does not
    converge fails alone.
    """
    y = _as_labels(y, fmap.n)
    n = fmap.n
    phi_y = fmap.phi.T @ y
    factors = {}  # penalty ratio -> its sphere-QP factorisation

    def basis() -> np.ndarray:  # its columns map gamma -> z
        sigma, B = fmap.svd
        keep = sigma > 1e-10 * sigma.max(initial=0.0)
        if not keep.any():
            raise RankDeficient("feature matrix is zero; no weights meet the variance target")
        return B[:, keep] / sigma[keep]

    def ratio(reg: RegPair) -> tuple[RegPair, float]:
        """reg's penalty ratio and its scale s."""
        _check_penalty_scale(reg, n)
        s = max(reg.lam_pos, reg.lam_neg)
        return (RegPair(reg.lam_pos / s, reg.lam_neg / s) if s > 0.0 else reg), s

    def factored(key: RegPair, scaled: np.ndarray):
        if key not in factors:
            with np.errstate(over="ignore"):
                W = n * (scaled.T * _lambda_diag(key, fmap.signs)[None, :]) @ scaled
            if not np.all(np.isfinite(W)):
                raise SolverError("the sphere-QP matrix W overflows",
                                  diagnostics={"lam_pos": key.lam_pos, "lam_neg": key.lam_neg})
            factors[key] = factor_sphere_qp(W, scaled.T @ phi_y)
        return factors[key]

    def solve(reg: RegPair, r: float) -> LowRankModel:
        if not (math.isfinite(r) and r > 0.0):  # before the rank check: the caller's error
            raise InvalidInput("the variance target r must be positive")
        scaled = basis()
        key, s = ratio(reg)
        z = scaled @ solve_sphere_qp(factored(key, scaled), r, scale=s)
        lam = _lambda_diag(reg, fmap.signs)
        fitted_norm = float(np.linalg.norm(fmap.phi @ z))
        objective = float(n * lam @ (z * z) - 2.0 * (z @ phi_y))
        return LowRankModel(
            z=z, map=fmap, learner="vclsm", reg=reg, r_constraint=float(r),
            diagnostics={"constraint_residual": abs(fitted_norm - r), "objective": objective},
        )

    def grid(hypers) -> tuple[np.ndarray, np.ndarray]:
        radii = np.array([r for _, r in hypers], dtype=float)
        if not np.all(np.isfinite(radii) & (radii > 0.0)):
            raise InvalidInput("the variance target r must be positive")
        Z = np.zeros((fmap.rank, len(hypers)))
        failed = np.ones(len(hypers), dtype=bool)
        try:
            scaled = basis()
        except RankDeficient:
            return Z, failed
        ratios = {}  # penalty pair -> its ratio and scale, None if n lam overflows
        groups = {}  # penalty ratio -> (grid positions, eigenvalue scales)
        for p, (reg, _) in enumerate(hypers):
            if reg not in ratios:
                try:
                    ratios[reg] = ratio(reg)
                except SolverError:
                    ratios[reg] = None
            if ratios[reg] is None:
                continue
            key, s = ratios[reg]
            at, scales = groups.setdefault(key, ([], []))
            at.append(p)
            scales.append(s)
        for key, (at, scales) in groups.items():
            try:
                gamma = solve_sphere_qp(factored(key, scaled), radii[at], scale=scales)
            except SolverError:  # a raise fails the whole ratio
                continue
            ok = ~np.isnan(gamma[:, 0])
            cols = np.array(at)[ok]
            Z[:, cols] = scaled @ gamma[ok].T
            failed[cols] = False
        return Z, failed

    return solve, grid


def vc_lsm_lowrank(fmap: FeatureMap, y, reg: RegPair, r: float) -> LowRankModel:
    """`vc_lsm_path` at the single penalty pair reg and variance target r."""
    return vc_lsm_path(fmap, y)[0](reg, r)


def squared_hinge_objective(features, y, lam_diag, n_scale, z) -> float:
    return _hinge_objective(1.0 - y * (features @ z), lam_diag, n_scale, z)


def squared_hinge_gradient(features, y, lam_diag, n_scale, z) -> np.ndarray:
    return _hinge_gradient(features, y, 1.0 - y * (features @ z), lam_diag, n_scale, z)


# the two above at z, given its margins 1 - y o (F z)
def _hinge_objective(margin, lam_diag, n_scale, z) -> float:
    active = np.maximum(margin, 0.0)
    return float(active @ active + n_scale * lam_diag @ (z * z))


def _hinge_gradient(features, y, margin, lam_diag, n_scale, z) -> np.ndarray:
    active = margin > 0.0
    grad = -2.0 * (features.T @ (y * np.where(active, margin, 0.0)))
    return grad + 2.0 * n_scale * lam_diag * z


def _row_gram(features, rows=None, less=None) -> np.ndarray:
    """F_R' F_R over the rows R where the mask ``rows`` holds (every row by
    default), or ``less`` - F_R' F_R if ``less`` is given, summed over the
    blocks of the `linalg.row_blocks` grid, so its scratch is one block at
    any n.

    A block whose rows all count enters as a view, any other as a copy of
    its counted rows; either way ``block.T @ block`` reads one buffer twice,
    which NumPy hands to SYRK.
    """
    gram = np.zeros((features.shape[1],) * 2) if less is None else less.copy()
    combine = np.add if less is None else np.subtract
    for start, stop in row_blocks(*features.shape):
        block = features[start:stop]  # frees the last block's copy first
        if rows is not None:
            keep = rows[start:stop]
            if not keep.any():
                continue
            if not keep.all():
                block = block[keep]
        combine(gram, block.T @ block, out=gram)
    return gram


def _newton_squared_hinge(features, gram, y, lam_diag, n_scale, start=None):
    """Damped Newton for the squared-hinge objective, from ``start`` (by
    default z = 0); ``gram`` is F' F.

    The active-set Hessian 2 F_A' F_A + 2 n diag(lam) is positive definite
    whenever the penalties are positive, so the Newton direction always
    descends from any start; an Armijo backtracking line search (sufficient
    decrease 1e-4, halving steps) makes the damping explicit.  Converges when
    the gradient norm drops below 1e-8 * max(1, n) within 100 steps.  Each
    candidate's margins 1 - y o (F z) are formed once, by the line search,
    and serve the accepted iterate's gradient and active set.  The weights of
    a nearby penalty pair make a warm start: its active set is mostly the
    final one, so Newton needs fewer steps (Chapelle, "Training a Support
    Vector Machine in the Primal", 2007).

    Each step sums whichever side of the active set A holds fewer rows:
    F_A' F_A from zero, or F' F - F_I' F_I over the inactive rows I, so a
    step costs O(min(|A|, |I|) r^2) and keeps no state from the last one.
    """
    n, m = features.shape
    z = np.zeros(m) if start is None else np.array(start, dtype=float)
    gtol = 1e-8 * max(1.0, float(n))
    margin = 1.0 - y * (features @ z)
    obj = _hinge_objective(margin, lam_diag, n_scale, z)
    max_iter = 100
    for iteration in range(max_iter + 1):
        grad = _hinge_gradient(features, y, margin, lam_diag, n_scale, z)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= gtol:
            return z, {"iterations": iteration, "objective": obj, "grad_norm": gnorm}
        if iteration == max_iter:
            raise SolverError(
                "squared-hinge Newton solver did not converge",
                residual=gnorm,
                iterations=max_iter,
                diagnostics={"objective": obj},
            )
        active = margin > 0.0
        if 2 * np.count_nonzero(active) <= n:
            hess = 2.0 * _row_gram(features, active)
        else:
            hess = 2.0 * _row_gram(features, ~active, less=gram)
        hess.flat[::m + 1] += 2.0 * n_scale * lam_diag
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"singular Hessian in the squared-hinge Newton solver: {exc}",
                iterations=iteration,
                diagnostics={"grad_norm": gnorm, "objective": obj},
            ) from exc
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(60):
            candidate = z + step * direction
            trial = 1.0 - y * (features @ candidate)
            value = _hinge_objective(trial, lam_diag, n_scale, candidate)
            if value <= obj + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            raise SolverError(
                "line search stalled in the squared-hinge Newton solver",
                iterations=iteration,
                diagnostics={"grad_norm": gnorm, "objective": obj},
            )
        z, margin, obj = candidate, trial, value


def sh_svm_lowrank(fmap: FeatureMap, y, reg: RegPair, start=None) -> LowRankModel:
    """Squared-hinge SVM in the signed feature space, no bias term.

    Minimizes sum_i max(1 - y_i (Phi z)_i, 0)^2 + n lam_pos ||z_+||^2
    + n lam_neg ||z_-||^2 by damped Newton steps from the weights ``start``,
    by default 0.
    """
    y = _as_binary(y, fmap.n)
    if reg.lam_pos <= 0.0 or reg.lam_neg <= 0.0:
        raise InvalidInput("the squared-hinge solver needs strictly positive penalties")
    _check_penalty_scale(reg, fmap.n)
    if start is not None and np.shape(start) != (fmap.rank,):
        raise ShapeError(f"expected start weights of length {fmap.rank}, got {np.shape(start)}")
    lam = _lambda_diag(reg, fmap.signs)
    z, info = _newton_squared_hinge(fmap.phi, fmap.gram, y, lam, float(fmap.n), start)
    return LowRankModel(z=z, map=fmap, learner="shsvm", reg=reg, diagnostics=info)


LEARNERS = ("lsm", "vclsm", "shsvm")


def variance_target(y, factor: float = 1.0) -> float:
    """The vclsm variance target factor * sqrt(n) * std(y) of n targets y."""
    return float(factor * np.sqrt(len(y)) * np.std(y))


def learner_path(learner: str, fmap: FeatureMap, y) -> tuple[FeatureMap, Callable, Callable]:
    """How ``learner`` trains on the signed features ``fmap`` of targets y.

    Returns ``(map, solve, grid)``: the map the learner trains on, whose
    `FeatureMap.decisions` score new points; ``solve(reg, r=None)``, the
    `LowRankModel` for the penalty pair ``reg``; and ``grid(hypers)``, the
    weights of a list of (reg, r) points as the columns of a rank x P array,
    plus the mask of the points whose solve raised SolverError or
    RankDeficient (their columns are zero).  lsm and shsvm train on ``fmap``
    itself and ignore r.  vclsm trains on the centred map (`center_features`),
    on its range if centring costs a rank, at the variance target r, by
    default `variance_target(y)`.

    What no penalty pair changes is built once per map and shared by its
    solves: for lsm phi' y, for lsm and shsvm the Gram phi' phi
    (`FeatureMap.gram`), for vclsm the centred map's R factor and one
    sphere-QP factorisation per penalty ratio (see `vc_lsm_path`), whose
    grid solves every pair and radius of a ratio in one secular iteration.
    lsm (one ridge solve per pair) and shsvm solve a grid point by point, in
    its order.  shsvm starts each Newton solve from the weights of the
    path's last successful solve, so a path's first solve is the cold one
    `sh_svm_lowrank` makes, and the later solves of a grid walked pair by
    pair are warm.
    """
    if learner == "vclsm":
        fmap = center_features(fmap)
        solve, grid = vc_lsm_path(fmap, y)
        target = variance_target(y)
        return (fmap, lambda reg, r=None: solve(reg, target if r is None else r),
                lambda hypers: grid([(reg, target if r is None else r) for reg, r in hypers]))
    if learner == "shsvm":
        start = None

        def solve(reg: RegPair, r: float | None = None) -> LowRankModel:
            nonlocal start
            model = sh_svm_lowrank(fmap, y, reg, start)
            start = model.z
            return model
    elif learner == "lsm":
        y = _as_labels(y, fmap.n)
        n = fmap.n
        rhs = fmap.phi.T @ y

        def solve(reg: RegPair, r: float | None = None) -> LowRankModel:
            _check_penalty_scale(reg, n)
            system = fmap.gram + n * np.diag(_lambda_diag(reg, fmap.signs))
            try:
                z = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"ridge system is singular: {exc}",
                    diagnostics={"lam_pos": reg.lam_pos, "lam_neg": reg.lam_neg},
                ) from exc
            residual = float(np.linalg.norm(system @ z - rhs))
            return LowRankModel(z=z, map=fmap, learner="lsm", reg=reg,
                                diagnostics={"residual": residual})
    else:
        raise InvalidInput(f"unknown learner {learner!r}; use one of {', '.join(LEARNERS)}")
    return fmap, solve, _pointwise_grid(fmap.rank, lambda point: solve(*point).z)


def _pointwise_grid(size: int, weights: Callable) -> Callable:
    """A ``grid`` that calls ``weights`` once per point, in its order, for
    the point's ``size`` weights; a point whose call raises fails alone."""
    def grid(points) -> tuple[np.ndarray, np.ndarray]:
        Z = np.zeros((size, len(points)))
        failed = np.zeros(len(points), dtype=bool)
        for p, point in enumerate(points):
            try:
                Z[:, p] = weights(point)
            except (SolverError, RankDeficient):
                failed[p] = True
        return Z, failed

    return grid


def flip_shsvm_baseline(fmap: FeatureMap, y, lam: float) -> LowRankModel:
    """Standard squared-hinge SVM on the unsigned features.

    Trains on L = Phi diag(signs) with a plain n lam ||w||^2 penalty and maps
    the weights back through the signs.  With lam_pos = lam_neg = lam this
    coincides with sh_svm_lowrank; with split penalties it intentionally does
    not.
    """
    y = _as_binary(y, fmap.n)
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidInput("lam must be positive")
    unsigned = fmap.phi * fmap.signs[None, :]
    lam_diag = np.full(fmap.rank, float(lam))
    w, info = _newton_squared_hinge(unsigned, _row_gram(unsigned), y, lam_diag, float(fmap.n))
    return LowRankModel(z=fmap.signs * w, map=fmap, learner="flip-shsvm",
                        reg=RegPair(lam, lam), diagnostics=info)


@dataclass(frozen=True)
class SimilarityLSModel:
    """Ridge regression that treats similarity rows as ordinary features."""

    w: np.ndarray
    lam: float

    def predict(self, feature_rows_) -> np.ndarray | float:
        return np.asarray(feature_rows_, dtype=float) @ self.w


def sf_lsm_path(K: SymMatrix, y) -> tuple[Callable, Callable]:
    """Similarities-as-features least squares with a plain ridge penalty, as
    the pair ``(solve, grid)``: ``solve(lam)``, the `SimilarityLSModel` at
    the penalty lam, and ``grid(lams)``, the n x P weights of a list of
    penalties and the mask of those whose solve failed, as in `learner_path`.

    Note the penalty here is lam, not n lam: this baseline is standard ridge
    on feature vectors k(x, .), so the common textbook scaling applies.  The
    normal-equation products K'K and K'y are formed once, here.
    """
    n = K.order
    y = _as_labels(y, n)
    f = K.values
    gram, rhs = f.T @ f, f.T @ y

    def solve(lam: float) -> SimilarityLSModel:
        if not (math.isfinite(lam) and lam > 0.0):
            raise InvalidInput("lam must be positive")
        system = gram.copy()
        system.flat[::n + 1] += lam
        try:
            w = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"ridge system is singular: {exc}",
                              diagnostics={"lam": float(lam)}) from exc
        return SimilarityLSModel(w=w, lam=float(lam))

    return solve, _pointwise_grid(n, lambda lam: solve(lam).w)


def sf_lsm_baseline(K: SymMatrix, y, lam: float) -> SimilarityLSModel:
    """`sf_lsm_path` at the single penalty lam."""
    return sf_lsm_path(K, y)[0](lam)


# ---------------------------------------------------------------------------
# serialization: plain JSON, with each array packed as the base64 of its
# little-endian bytes, so a file holds every bit and reads back unparsed


def _pack(a, dtype: str) -> dict | None:
    if a is None:
        return None
    a = np.ascontiguousarray(a, dtype=dtype)
    return {"dtype": dtype, "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _unpack(value, dtype: str, version: int, name: str) -> np.ndarray | None:
    """The array ``name`` of a schema-``version`` model file, or None: nested
    lists in schemas 1 and 2, an array packed by `_pack` in schema 3."""
    if value is None:
        return None
    if version < 3:
        a = np.array(value, dtype=dtype)
    else:
        if not isinstance(value, dict) or value.get("dtype") != dtype:
            raise InvalidInput(f"model field {name!r} must be a packed {dtype} array")
        shape = value["shape"]
        if not (isinstance(shape, list) and all(type(k) is int and k >= 0 for k in shape)):
            raise InvalidInput(f"model field {name!r} has no valid shape")
        try:
            raw = base64.b64decode(value["data"], validate=True)
        except (TypeError, ValueError):  # binascii.Error is a ValueError
            raise InvalidInput(f"model field {name!r} holds no base64 data") from None
        a = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()  # ValueError on a bad count
    if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
        raise InvalidInput(f"model field {name!r} holds non-finite values")
    return a


def model_to_dict(model: LowRankModel, kernel: KernelSpec | None = None) -> dict:
    """JSON-ready dictionary capturing a low-rank model exactly: each array
    as ``{"dtype", "shape", "data"}``, the base64 of its little-endian bytes
    (``"<f8"`` or ``"<i8"``), everything else as plain JSON."""
    factor = model.map.factor
    landmarks = factor.landmarks
    payload = {
        "schema_version": 3,
        "learner": model.learner,
        "z": _pack(model.z, "<f8"),
        "feature_mean": _pack(model.map.mean, "<f8"),
        "reg": {"lam_pos": model.reg.lam_pos, "lam_neg": model.reg.lam_neg},
        "r_constraint": model.r_constraint,
        "diagnostics": model.diagnostics,
        "kernel": format_kernel_spec(kernel) if kernel is not None else None,
        "factor": {
            "U": _pack(factor.eig.U, "<f8"),
            "d": _pack(factor.eig.d, "<f8"),
            "s": _pack(factor.eig.s, "<f8"),
            "tau_zero": factor.eig.tau_zero,
            "pinv_tol": factor.pinv_tol,
            "effective_rank": factor.effective_rank,
            "warning": factor.warning,
            "landmarks": None if landmarks is None else {
                "indices": _pack(landmarks.indices, "<i8"),
                "points": _pack(landmarks.points, "<f8"),
                "multiplicity": _pack(landmarks.multiplicity, "<i8"),
                "requested": landmarks.requested,
            },
        },
    }
    return payload


def model_from_dict(payload: dict) -> tuple[LowRankModel, KernelSpec | None]:
    """The model and kernel spec of a `model_to_dict` payload of schema 1, 2
    or 3.  A payload that is not one raises InvalidInput (or ShapeError, for
    arrays that disagree in shape), never a raw lookup or decoding error."""
    if not isinstance(payload, dict):
        raise InvalidInput("a model file holds a JSON object")
    version = payload.get("schema_version")
    if version not in (1, 2, 3):
        raise InvalidInput(f"unsupported model schema {version!r}")
    try:
        return _model_from_dict(payload, version)
    except KeyError as exc:
        raise InvalidInput(f"model file lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed model file: {exc}") from None


def _model_from_dict(payload: dict, version: int) -> tuple[LowRankModel, KernelSpec | None]:
    if version == 1 and payload["learner"] == "vclsm":
        raise InvalidInput("a schema-1 vclsm model lacks the centring it was trained "
                           "with; train it again")
    raw = payload["factor"]
    eig = SignedEigenSystem(
        U=_unpack(raw["U"], "<f8", version, "U"),
        d=_unpack(raw["d"], "<f8", version, "d"),
        s=_unpack(raw["s"], "<f8", version, "s"),
        tau_zero=float(raw["tau_zero"]),
    )
    lm = raw.get("landmarks")
    landmarks = None
    if lm is not None:
        landmarks = LandmarkSet(
            indices=_unpack(lm["indices"], "<i8", version, "indices"),
            points=_unpack(lm["points"], "<f8", version, "points"),
            multiplicity=_unpack(lm["multiplicity"], "<i8", version, "multiplicity"),
            requested=lm["requested"],
        )
    factor = NystroemFactor(
        eig=eig,
        pinv_tol=float(raw["pinv_tol"]),
        effective_rank=int(raw["effective_rank"]),
        landmarks=landmarks,
        warning=raw.get("warning"),
    )
    z = _unpack(payload["z"], "<f8", version, "z")
    mean = _unpack(payload.get("feature_mean"), "<f8", version, "feature_mean")
    m, r = eig.d.size, factor.effective_rank
    if (eig.U.shape != (m, m) or eig.s.shape != (m,) or eig.d.shape != (m,)
            or not 0 < r <= m or z.shape != (r,) or mean is not None and mean.shape != (r,)):
        raise ShapeError("the model's factor and weights disagree in shape")
    # training features are not stored; predictions need the factor and mean
    fmap = FeatureMap(
        phi=np.zeros((0, r)),
        signs=np.array(factor.s_r),
        factor=factor,
        mean=mean,
    )
    reg = RegPair(payload["reg"]["lam_pos"], payload["reg"]["lam_neg"])
    model = LowRankModel(
        z=z,
        map=fmap,
        learner=payload["learner"],
        reg=reg,
        r_constraint=payload.get("r_constraint"),
        diagnostics=payload.get("diagnostics") or {},
    )
    kernel = payload.get("kernel")
    return model, (parse_kernel_spec(kernel) if kernel else None)


def save_model(path, model: LowRankModel, kernel: KernelSpec | None = None) -> None:
    # json.dumps takes the C encoder, which json.dump never does
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(model_to_dict(model, kernel)))


def load_model(path) -> tuple[LowRankModel, KernelSpec | None]:
    """`model_from_dict` of the JSON file at ``path``; a file that cannot be
    read as JSON raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.loads(handle.read())
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not JSON: {exc.msg}", line=exc.lineno, col=exc.colno) from None
    return model_from_dict(payload)
