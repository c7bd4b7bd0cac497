"""Landmark selection: uniform subsets, sketch-based leverage scores, and
kernel k-means++ seeding in the sketch feature space.

All samplers are pure functions of their inputs and the generator state, so a
fixed seed reproduces the exact landmark sets on any platform.
`landmark_factor` is the one Nystroem construction every caller shares: draw
landmarks and factor their block with the signs kept.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateScores,
    DuplicateCollapseWarning,
    InvalidBudget,
    InvalidInput,
)
from .kernels import GramSource
from .learners import build_feature_map
from .nystroem import LandmarkSet, NystroemFactor, OneShotEigen, fit, one_shot_eigen

__all__ = [
    "make_rng",
    "spawn_rng",
    "Sketch",
    "default_sketch_size",
    "uniform_landmarks",
    "build_sketch",
    "leverage_scores",
    "sample_leverage",
    "kmeanspp_landmarks",
    "select_landmarks",
    "landmark_factor",
]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator with platform-independent output."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent child generator for a (seed, task) pair.

    Children with different keys are statistically independent and
    reproducible, which is what per-repetition and per-fold seeding needs.
    """
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class Sketch:
    """Rough eigenstructure of the full matrix from a cheap uniform pass."""

    eig: OneShotEigen
    sketch_size: int

    @functools.cached_property
    def features(self) -> np.ndarray:
        """Rows of U |lam|^{1/2}, formed on first read: their Gram is the
        flipped-spectrum version of the sketched approximation, cut to the
        lifted eigenpairs."""
        return self.eig.U * np.sqrt(np.abs(self.eig.lam))


# Leverage sketch columns per landmark.  On the n = 3000 `approx_sketch`
# input (24 seeds), 3 l columns kept the mean relative error within 0.4% of a
# ceil(l ln n) sketch at about 0.65x the job's wall time; 2 l raised the
# median k = 100 leverage error by 15% on 8 of those seeds, and 1.5 l the
# mean error by 3.7%.  CHANGES.md holds the curve.
_LEVERAGE_SKETCH_FACTOR = 3


def default_sketch_size(m: int, n: int) -> int:
    """ceil(m ln n), capped at n: the k-means++ sketch size for a budget of
    m landmarks, and the landmark budget of ``--landmark-factor logn``.

    k-means++ distances only sharpen as the sketch grows, so its sketch keeps
    this size; the leverage sketch is sized from the budget alone (see
    `select_landmarks`).
    """
    if not 1 <= m <= n:
        raise InvalidBudget(f"need 1 <= m <= n, got m={m}, n={n}")
    return min(n, math.ceil(m * math.log(n)) if n > 1 else 1)


def uniform_landmarks(n: int, m: int, rng: np.random.Generator) -> LandmarkSet:
    """Uniform subset of m distinct indices; each subset is equiprobable."""
    if not 1 <= m <= n:
        raise InvalidBudget(f"landmark budget must satisfy 1 <= m <= n, got m={m}, n={n}")
    indices = rng.choice(n, size=m, replace=False)
    return LandmarkSet(indices=indices, requested=m)


def build_sketch(source: GramSource, m0: int, rng: np.random.Generator,
                 pinv_tol: float | None = None, rank: int | None = None) -> Sketch:
    """One-shot eigendecomposition of the features of m0 uniform landmarks.

    ``rank`` keeps only the leading ``rank`` approximate eigenpairs, by
    |lam|: `one_shot_eigen` then lifts n x rank eigenvectors, not n x m0.
    """
    factor = landmark_factor(source, "uniform", m0, rng, pinv_tol)
    eig = one_shot_eigen(factor, build_feature_map(factor, source).phi, rank)
    return Sketch(eig=eig, sketch_size=m0)


def leverage_scores(eig: OneShotEigen) -> np.ndarray:
    """Row leverage of the approximate eigenvectors: squared row norms of U.

    The scores sum to the sketch rank and are invariant to the signs of the
    approximate eigenvalues.  So they flatten as the sketch grows: at full
    rank with a sketch of all n points, U is square and orthogonal and every
    score is 1, which is uniform sampling.
    """
    return np.einsum("ij,ij->i", eig.U, eig.U)


def sample_leverage(scores, m: int, rng: np.random.Generator) -> LandmarkSet:
    """Sample m indices with replacement proportionally to the scores.

    Duplicates are collapsed; the returned set records each landmark's draw
    count and the requested budget, so the effective size may be below m.
    """
    p = np.asarray(scores, dtype=float)
    if p.ndim != 1:
        raise InvalidInput("scores must form a vector")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise InvalidInput("scores must be finite and non-negative")
    if m < 1:
        raise InvalidBudget(f"landmark budget must be positive, got m={m}")
    total = p.sum()
    if total <= 0.0:
        raise DegenerateScores("scores sum to zero; no distribution to sample")
    draws = rng.choice(p.size, size=m, replace=True, p=p / total)
    uniq, first, counts = np.unique(draws, return_index=True, return_counts=True)
    order = np.argsort(first)  # stable: keep first-draw order
    return LandmarkSet(indices=uniq[order], multiplicity=counts[order], requested=m)


def kmeanspp_landmarks(features, m: int, rng: np.random.Generator) -> LandmarkSet:
    """k-means++ seeding over feature rows, used directly as landmarks.

    One sequential pass with squared-distance weighting and no Lloyd
    refinement.  Already-chosen rows have zero weight, so the result is
    distinct by construction; if fewer than m distinct rows exist, the
    representatives found so far are returned under a
    DuplicateCollapseWarning.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise InvalidInput("features must form a 2-d array")
    n = x.shape[0]
    if not 1 <= m <= n:
        raise InvalidBudget(f"landmark budget must satisfy 1 <= m <= n, got m={m}, n={n}")
    # squared distances by |a|^2 + |b|^2 - 2 a'b on centred rows: one GEMV a
    # step.  The identity is off by at most about 2 d eps (|a|^2 + |b|^2), so
    # entries within that of zero are recomputed by differencing; chosen and
    # duplicate rows then weigh exactly 0, as the distinctness above needs.
    xc = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", xc, xc)
    slack = 2.0 * (x.shape[1] + 4) * np.finfo(float).eps

    def sqdist(j: int) -> np.ndarray:
        d2 = sq + sq[j] - 2.0 * (xc @ xc[j])
        near = np.flatnonzero(d2 <= slack * (sq + sq[j]))
        diff = x[near] - x[j]
        d2[near] = np.einsum("ij,ij->i", diff, diff)
        return d2

    chosen = [int(rng.integers(n))]
    weight = sqdist(chosen[0])
    while len(chosen) < m:
        total = weight.sum()
        if total <= 0.0:
            warnings.warn(
                f"only {len(chosen)} distinct rows available for {m} landmarks",
                DuplicateCollapseWarning,
            )
            break
        nxt = int(rng.choice(n, p=weight / total))
        chosen.append(nxt)
        weight = np.minimum(weight, sqdist(nxt))
    return LandmarkSet(indices=np.array(chosen, dtype=int), requested=m)


def select_landmarks(sampler: str, source: GramSource, budget: int,
                     rng: np.random.Generator, pinv_tol: float | None):
    """Dispatch one landmark selection; sketch-based samplers build their
    sketch from the same generator so a task seed fixes everything.

    The leverage sketch has min(n, 3 budget) columns: its scores need to
    resolve only the budget's dimension, and a larger sketch flattens them
    towards uniform.  k-means++ seeds over a sketch of
    ``default_sketch_size(budget, n)`` columns, in the features of its
    leading ``budget`` directions by |lam| only (Oglic & Gaertner, ICML
    2017): it picks ``budget`` points, and lifting, scaling and scanning the
    rest would cost n x m0 where n x budget does.
    """
    n = source.n
    if not 1 <= budget <= n:
        raise InvalidBudget(f"landmark budget must satisfy 1 <= m <= n, got m={budget}, n={n}")
    if sampler == "uniform":
        return uniform_landmarks(n, budget, rng)
    if sampler == "leverage":
        sketch = build_sketch(source, min(n, _LEVERAGE_SKETCH_FACTOR * budget), rng, pinv_tol)
        return sample_leverage(leverage_scores(sketch.eig), budget, rng)
    if sampler == "kmeanspp":
        sketch = build_sketch(source, default_sketch_size(budget, n), rng, pinv_tol,
                              rank=budget)
        return kmeanspp_landmarks(sketch.features, budget, rng)
    raise ConfigError(f"unknown sampler {sampler!r}")


def landmark_factor(source: GramSource, sampler: str, budget: int,
                    rng: np.random.Generator, pinv_tol: float | None) -> NystroemFactor:
    """Landmarks from ``select_landmarks`` and the signed factor of their
    block, which records them.

    No n x m cross block is formed here.  `build_feature_map(factor, source)`
    fills the features of the learners and of `one_shot_eigen` one row block
    at a time; only the baseline `sgt_one_shot` takes the whole block,
    ``source.cross_all(factor.landmarks.indices)``.
    """
    marks = select_landmarks(sampler, source, budget, rng, pinv_tol)
    return fit(source.block(marks.indices), pinv_tol, marks)
