"""Matrix and label IO, dissimilarity handling, cross-validation plumbing,
and synthetic problem generators."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    FoldError,
    InvalidClass,
    InvalidInput,
    ParseError,
    ShapeError,
)
from .kernels import center_kernel
from .linalg import SymMatrix

__all__ = [
    "DissimilarityMatrix",
    "CVPlan",
    "load_table",
    "load_matrix",
    "load_labels",
    "double_center_neg",
    "stratified_kfold",
    "one_vs_all",
    "misclassification",
    "make_synthetic",
]


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric dissimilarities with a zero diagonal.

    ``squared`` records whether the entries are already squared distances;
    small negative entries and diagonal noise (within 1e-8) are clipped.
    """

    values: np.ndarray
    squared: bool = False

    def __post_init__(self):
        a = SymMatrix(self.values).values  # validates shape/finiteness/symmetry
        scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
        if float(np.abs(np.diag(a)).max(initial=0.0)) > 1e-8 * scale:
            raise InvalidInput("dissimilarity diagonal must be zero")
        if a.size and float(a.min()) < -1e-8 * scale:
            raise InvalidInput("dissimilarities must be non-negative")
        a = np.maximum(a, 0.0)
        np.fill_diagonal(a, 0.0)
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def order(self) -> int:
        return self.values.shape[0]


def _delimiter(path) -> str | None:
    """',' when the first non-blank line of the file holds a comma, else None:
    no number contains a comma, so a comma-free table splits on whitespace."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                return "," if "," in line else None
    return None


def _parse_fast(path, delimiter: str | None) -> np.ndarray | None:
    """The table through NumPy's C parser, or None where that parser rejects
    it or finds no rows."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "Empty input file"
            a = np.loadtxt(path, delimiter=delimiter, comments=None, ndmin=2, dtype=float,
                           encoding="utf-8")
    except ValueError:
        return None
    return a if a.size else None


def _parse_grid(path) -> np.ndarray:
    """Numeric table of a text file, comma-separated or whitespace-separated
    as `_delimiter` finds.  The C parser reads well-formed files; anything it
    rejects (a bad or ragged row, whitespace-only lines in a csv file, or a
    token only Python's float() accepts, such as ``1_0``) is read again line
    by line, which returns the same array or locates the error."""
    try:
        delimiter = _delimiter(path)
        a = _parse_fast(path, delimiter)
        return a if a is not None else _parse_lines(path, delimiter)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _parse_lines(path, delimiter: str | None) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            tokens = [token.strip() for token in line.split(delimiter)]
            parsed = []
            for col, token in enumerate(tokens, start=1):
                try:
                    parsed.append(float(token))
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}, column {col}: {token!r} is not a number",
                        line=lineno, col=col,
                    ) from None
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise ParseError(
                    f"{path}: line {lineno} has {len(parsed)} fields, expected {width}",
                    line=lineno,
                )
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows found", line=1)
    return np.asarray(rows, dtype=float)


def load_table(path) -> np.ndarray:
    """Rectangular numeric table (feature rows); errors carry line/column."""
    return _parse_grid(path)


def load_matrix(path, kind: str = "similarity", squared: bool = False):
    """Square matrix from a dense text file, laid out as for `load_table`.

    ``kind`` selects the return type: 'similarity' gives a SymMatrix,
    'dissimilarity' a DissimilarityMatrix tagged with ``squared``.  Asymmetry
    is tolerated up to 1e-6 relative and symmetrized away; anything worse is
    a parse error pointing at the worst entry.
    """
    a = _parse_grid(path)
    if a.shape[0] != a.shape[1]:
        raise ParseError(
            f"{path}: expected a square matrix, got {a.shape[0]} x {a.shape[1]}",
            line=min(a.shape[0], a.shape[1]) + 1,
        )
    scale = max(1.0, float(np.abs(a).max()))
    gap = np.abs(a - a.T)
    worst = float(gap.max())
    if worst > 1e-6 * scale:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise ParseError(
            f"{path}: entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) differ by {worst:.3e}",
            line=int(i) + 1, col=int(j) + 1,
        )
    sym = (a + a.T) / 2.0
    if kind == "similarity":
        return SymMatrix(sym)
    if kind == "dissimilarity":
        return DissimilarityMatrix(sym, squared=squared)
    raise InvalidInput(f"unknown matrix kind {kind!r}")


def load_labels(path) -> np.ndarray:
    """One label per line, UTF-8; returned as strings."""
    labels = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                token = line.strip()
                if token:
                    labels.append(token)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not labels:
        raise ParseError(f"{path}: no labels found", line=1)
    return np.asarray(labels)


def double_center_neg(D: DissimilarityMatrix) -> SymMatrix:
    """Similarities from dissimilarities: -1/2 J D2 J with the centering
    projector J = I - (1/n) 1 1' of `center_kernel`.  Entries are squared
    first unless the matrix is tagged as already squared."""
    d2 = D.values if D.squared else D.values**2
    return SymMatrix(-0.5 * center_kernel(SymMatrix(d2)).values)


@dataclass(frozen=True)
class CVPlan:
    """Stratified fold assignment over [0, n)."""

    k: int
    folds: tuple

    def __post_init__(self):
        if self.k != len(self.folds):
            raise InvalidInput("fold count disagrees with k")
        all_idx = np.concatenate(self.folds)
        n = all_idx.size
        if not np.array_equal(np.sort(all_idx), np.arange(n)):
            raise InvalidInput("folds must partition the index range")

    def splits(self):
        """Yield (train_indices, test_indices) per fold, in fold order."""
        for i, fold in enumerate(self.folds):
            train = np.concatenate([f for j, f in enumerate(self.folds) if j != i])
            yield np.sort(train), fold


def stratified_kfold(y, k: int, rng: np.random.Generator) -> CVPlan:
    """k folds with per-class proportions within one instance of global.

    Each class is shuffled and dealt round-robin; classes start at staggered
    folds so overall fold sizes stay balanced too.  Classes smaller than k
    raise FoldError with the offending counts.
    """
    labels = np.asarray(y)
    n = labels.shape[0]
    if k < 2 or k > n:
        raise FoldError(f"need 2 <= k <= n, got k={k} with n={n}")
    classes, counts = np.unique(labels, return_counts=True)
    short = {str(c): int(cnt) for c, cnt in zip(classes, counts) if cnt < k}
    if short:
        raise FoldError(
            f"every class needs at least k={k} members; too small: {short}",
            counts=short,
        )
    buckets = [[] for _ in range(k)]
    for ci, cls in enumerate(classes):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        for pos, idx in enumerate(members):
            buckets[(pos + ci) % k].append(int(idx))
    folds = tuple(np.sort(np.asarray(bucket, dtype=int)) for bucket in buckets)
    return CVPlan(k=k, folds=folds)


def one_vs_all(labels, target) -> np.ndarray:
    """+1 where the label is the target class as a whole, -1 elsewhere."""
    y = np.asarray(labels)
    mask = y == (str(target) if y.dtype.kind == "U" else np.asarray(target, dtype=y.dtype))
    if not mask.any():
        raise InvalidClass(f"class {target!r} does not occur in the labels")
    return np.where(mask, 1.0, -1.0)


def misclassification(predictions, y) -> float | np.ndarray:
    """Error rate of sign(prediction) against -1/+1 labels, or one rate per
    row of a 2-d array of predictions.

    Every prediction f without y f > 0 is an error: one of exactly zero
    matches neither class, and a NaN matches nothing.
    """
    pred = np.asarray(predictions, dtype=float)
    labels = np.asarray(y, dtype=float)
    if pred.ndim not in (1, 2) or pred.shape[-1:] != labels.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {labels.shape}")
    if not np.all((labels == 1.0) | (labels == -1.0)):
        raise InvalidInput("labels must be -1/+1")
    rates = np.mean(~(labels * pred > 0.0), axis=-1)
    return float(rates) if pred.ndim == 1 else rates


def make_synthetic(kind: str, n: int, p: int, rng: np.random.Generator,
                   separation: float = 6.0) -> tuple[np.ndarray, np.ndarray]:
    """Balanced two-class toy problems as points X and -1/+1 labels y.

    two_gaussians: unit-variance blobs with means +/- separation/2 along the
    first axis.  concentric: two noisy spheres of radius 1 and 3.
    """
    if n < 4 or n % 2:
        raise InvalidInput("n must be an even number >= 4")
    if p < 1:
        raise InvalidInput("p must be positive")
    half = n // 2
    y = np.concatenate([np.ones(half), -np.ones(half)])
    if kind == "two_gaussians":
        if not (math.isfinite(separation) and separation > 0):
            raise InvalidInput("separation must be positive")
        x = rng.normal(size=(n, p))
        x[:half, 0] += separation / 2.0
        x[half:, 0] -= separation / 2.0
        return x, y
    if kind == "concentric":
        directions = rng.normal(size=(n, p))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = np.where(y > 0, 1.0, 3.0)
        x = directions * radii[:, None] + 0.1 * rng.normal(size=(n, p))
        return x, y
    raise InvalidInput(f"unknown synthetic kind {kind!r}")
