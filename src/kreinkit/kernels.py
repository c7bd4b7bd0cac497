"""Kernel families (definite and indefinite), Gram construction, feature
standardization, and kernel centering.

Squared distances come from the norm identity |x|^2 + |z|^2 - 2 <x, z> on
points centred at the mean of the column set, with inner products summed in
a fixed order so that a block of rows equals the same rows of the full block
bit for bit, and d(x, z) == d(z, x).  Entries the identity cancels are redone
by direct differencing, so identical points are exactly at distance zero and
the diagonals of the distance kernels come out exactly right.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConstantFeatureWarning,
    InvalidInput,
    ShapeError,
)
from .linalg import SymMatrix

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "Standardizer",
    "gaussian",
    "gaussian_diff",
    "tanh_sigmoid",
    "epanechnikov",
    "linear",
    "rl_sigmoid_preset",
    "parse_kernel_spec",
    "format_kernel_spec",
    "standardize",
    "gram",
    "gram_cross",
    "center_kernel",
    "GramSource",
]

KERNEL_KINDS = ("gaussdiff", "gauss", "tanh", "epan", "linear")

# which numeric parameters each kind accepts
_KIND_PARAMS = {
    "gaussdiff": ("sigma1", "sigma2"),
    "gauss": ("sigma",),
    "tanh": ("a", "b"),
    "epan": ("sigma",),
    "linear": (),
}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters.

    kinds:
      gaussdiff   exp(-|x-y|^2 / (2 sigma1^2)) - exp(-|x-y|^2 / (2 sigma2^2));
                  indefinite, diagonal exactly zero
      gauss       exp(-|x-y|^2 / (2 sigma^2)); diagonal exactly one
      tanh        tanh(a <x,y> + b); indefinite for generic parameters
      epan        max(0, 1 - |x-y|^2 / sigma^2)
      linear      <x, y>
    """

    kind: str
    sigma: float | None = None
    sigma1: float | None = None
    sigma2: float | None = None
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidInput(f"unknown kernel kind {self.kind!r}")
        allowed = _KIND_PARAMS[self.kind]
        for name in ("sigma", "sigma1", "sigma2", "a", "b"):
            value = getattr(self, name)
            if name in allowed:
                if value is None:
                    raise InvalidInput(f"kernel {self.kind!r} requires parameter {name!r}")
                if not math.isfinite(float(value)):
                    raise InvalidInput(f"kernel parameter {name!r} must be finite")
                object.__setattr__(self, name, float(value))
            elif value is not None:
                raise InvalidInput(f"kernel {self.kind!r} does not take parameter {name!r}")
        if self.kind in ("gauss", "epan") and self.sigma <= 0:
            raise InvalidInput("sigma must be positive")
        if self.kind == "gaussdiff":
            if self.sigma1 <= 0 or self.sigma2 <= 0:
                raise InvalidInput("sigma1 and sigma2 must be positive")
            if self.sigma1 == self.sigma2:
                raise InvalidInput("sigma1 and sigma2 must differ, otherwise the kernel is zero")
        # the profile divides by 2 sigma^2 (sigma^2 for epan): a width whose
        # divisor overflows would raise there, and one that underflows to a
        # subnormal or zero would turn the block into infinities
        factor = 1.0 if self.kind == "epan" else 2.0
        for name in ("sigma", "sigma1", "sigma2"):
            width = getattr(self, name)
            if name in allowed and not sys.float_info.min <= factor * width * width < math.inf:
                raise InvalidInput(f"kernel width {name}={width!r} is out of range: "
                                   f"{factor:g} * {name}^2 must be a normal, finite float")


def gaussian(sigma: float) -> KernelSpec:
    return KernelSpec("gauss", sigma=sigma)


def gaussian_diff(sigma1: float, sigma2: float) -> KernelSpec:
    return KernelSpec("gaussdiff", sigma1=sigma1, sigma2=sigma2)


def tanh_sigmoid(a: float = 1.0, b: float = 0.0) -> KernelSpec:
    return KernelSpec("tanh", a=a, b=b)


def epanechnikov(sigma: float) -> KernelSpec:
    return KernelSpec("epan", sigma=sigma)


def linear() -> KernelSpec:
    return KernelSpec("linear")


def rl_sigmoid_preset() -> KernelSpec:
    """Experimental: a named tanh preset with a negative offset.

    The variant this mimics has no settled parameterization, so the preset
    simply pins tanh(<x,y> - 1); treat results as exploratory and prefer an
    explicit tanh spec in configs.
    """
    return tanh_sigmoid(a=1.0, b=-1.0)


def parse_kernel_spec(text: str) -> KernelSpec:
    """Parse the flat key=value kernel grammar.

    Grammar: whitespace-separated ``key=value`` tokens in any order; the
    mandatory ``kernel`` key picks the family and the remaining keys are its
    numeric parameters, e.g. ``kernel=gaussdiff sigma1=1.0 sigma2=3.0``.
    The preset name ``kernel=rlsigmoid`` expands to :func:`rl_sigmoid_preset`.
    """
    tokens = text.split()
    if not tokens:
        raise ConfigError("empty kernel spec")
    pairs = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or not key or not value:
            raise ConfigError(f"kernel spec token {token!r} is not key=value")
        if key in pairs:
            raise ConfigError(f"duplicate kernel spec key {key!r}")
        pairs[key] = value
    kind = pairs.pop("kernel", None)
    if kind is None:
        raise ConfigError("kernel spec must contain a kernel=<kind> token")
    if kind == "rlsigmoid":
        if pairs:
            raise ConfigError("the rlsigmoid preset takes no parameters")
        return rl_sigmoid_preset()
    if kind not in KERNEL_KINDS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    params = {}
    for key, value in pairs.items():
        if key not in _KIND_PARAMS[kind]:
            raise ConfigError(f"kernel {kind!r} does not take parameter {key!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise ConfigError(f"kernel parameter {key}={value!r} is not a number") from None
    try:
        return KernelSpec(kind, **params)
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from None


def format_kernel_spec(spec: KernelSpec) -> str:
    """Inverse of parse_kernel_spec; floats are written with full precision."""
    parts = [f"kernel={spec.kind}"]
    for name in _KIND_PARAMS[spec.kind]:
        parts.append(f"{name}={getattr(spec, name)!r}")
    return " ".join(parts)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine transform fitted by standardize().

    The variance convention is population (divide by n).  Constant features
    are recorded in ``constant`` and mapped to exactly zero.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray

    def apply(self, X) -> np.ndarray:
        x = np.asarray(X, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.mean.shape[0]:
            raise ShapeError("feature count does not match the fitted statistics")
        inv = np.where(self.constant, 0.0, 1.0 / np.where(self.constant, 1.0, self.std))
        return (x - self.mean) * inv


def standardize(X) -> tuple[np.ndarray, Standardizer]:
    """Center each feature and scale to unit population variance.

    Constant columns are set to zero and reported through a
    ConstantFeatureWarning rather than treated as an error.
    """
    x = np.asarray(X, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"X must be 2-d, got shape {x.shape}")
    if x.shape[0] < 2:
        raise InvalidInput("standardize needs at least two rows")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("X entries must be finite")
    mean = x.mean(axis=0)
    std = x.std(axis=0)  # ddof=0: population convention
    constant = std == 0.0
    if constant.any():
        cols = np.flatnonzero(constant).tolist()
        warnings.warn(
            f"constant feature column(s) {cols} mapped to zero", ConstantFeatureWarning
        )
    scaler = Standardizer(mean=mean, std=std, constant=constant)
    return scaler.apply(x), scaler


# rows of a distance kernel block handled at a time, which bounds the
# temporaries to _CHUNK x m.  It is a cache tile, not the `linalg.row_blocks`
# grid: it fixes no sum order, and on a 40000 x 400 gaussdiff block (p = 16,
# one BLAS thread) 256-row tiles took 0.33-0.36 s against 0.41-0.46 s for
# 2560-row ones.
_CHUNK = 256

# an entry with d^2 <= _CANCEL * (p + 2) * (|x|^2 + |z|^2) may have lost all
# its digits to cancellation and is redone by differencing
_CANCEL = 4.0 * np.finfo(float).eps


def _distance_kernel(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    # |x|^2 + |z|^2 - 2 <x, z> after a shift by the mean of Z, which leaves
    # distances alone but keeps the identity's rounding error at the scale of
    # the spread, not of the offset.  einsum over a transposed Z adds the
    # products of each <x, z> one coordinate after the other, unlike BLAS
    # GEMM/GEMV whose sums depend on the row blocking; the norms are added as
    # one two-term sum, which commutes, so the result is exactly symmetric
    # when X is Z.  The -2 is folded into Z: scaling by a power of two is
    # exact, so the products and sums are -2 times those of <x, z> unless they
    # underflow.  Each tile is turned into kernel values while it is in cache.
    n, p = X.shape
    m = Z.shape[0]
    mu = Z.mean(axis=0) if m else 0.0
    xs = X - mu
    zs = Z - mu
    zt = -2.0 * np.ascontiguousarray(zs.T)
    sx = np.einsum("ij,ij->i", xs, xs)
    sz = np.einsum("ij,ij->i", zs, zs)
    cancel = _CANCEL * (p + 2)
    sz_max = sz.max(initial=0.0)
    out = np.empty((n, m))
    rows = min(n, _CHUNK)
    norms = np.empty((rows, m))  # also the gaussdiff profile's scratch
    mask = np.empty((rows, m), dtype=bool)
    for start in range(0, n, _CHUNK):
        stop = min(n, start + _CHUNK)
        d2 = out[start:stop]
        tile = norms[: stop - start]
        np.einsum("ik,kj->ij", xs[start:stop], zt, out=d2)
        np.add(sx[start:stop, None], sz, out=tile)
        d2 += tile
        # rounding is monotone, so no entry's bound exceeds the tile's largest
        # one: only entries at or below it are put to the exact test
        limit = (sx[start:stop].max() + sz_max) * cancel
        cand = np.flatnonzero(np.less_equal(d2, limit, out=mask[: stop - start]))
        if cand.size:  # most tiles without a landmark have no candidate
            cand = cand[d2.flat[cand] <= tile.flat[cand] * cancel]
            i, j = np.divmod(cand, m)
            diff = X[start + i] - Z[j]
            d2[i, j] = np.einsum("ij,ij->i", diff, diff)
        _profile(spec, d2, tile)
    return out


def _profile(spec: KernelSpec, d2: np.ndarray, scratch: np.ndarray) -> None:
    """Turn a block of squared distances into kernel values, in place;
    ``scratch`` is a free array of the same shape."""
    if spec.kind == "gauss":
        d2 /= -2.0 * spec.sigma**2
        np.exp(d2, out=d2)
    elif spec.kind == "gaussdiff":
        wide = np.divide(d2, -2.0 * spec.sigma2**2, out=scratch)
        np.exp(wide, out=wide)
        d2 /= -2.0 * spec.sigma1**2
        np.exp(d2, out=d2)
        d2 -= wide
    else:  # epan
        d2 /= spec.sigma**2
        np.subtract(1.0, d2, out=d2)
        np.maximum(0.0, d2, out=d2)


def _evaluate(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    if spec.kind in ("gauss", "gaussdiff", "epan"):
        return _distance_kernel(spec, X, Z)
    if spec.kind == "tanh":
        return np.tanh(spec.a * (X @ Z.T) + spec.b)
    return X @ Z.T  # linear


def _as_points(X) -> np.ndarray:
    x = np.asarray(X, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-d point array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("point entries must be finite")
    return x


def gram(spec: KernelSpec, X) -> SymMatrix:
    """Full kernel matrix of a point set."""
    x = _as_points(X)
    return SymMatrix(_evaluate(spec, x, x))


def gram_cross(spec: KernelSpec, X, Z) -> np.ndarray:
    """Rectangular kernel block between two point sets (rows x columns)."""
    x = _as_points(X)
    z = _as_points(Z)
    if x.shape[1] != z.shape[1]:
        raise ShapeError(
            f"point sets disagree on dimension: {x.shape[1]} vs {z.shape[1]}"
        )
    return _evaluate(spec, x, z)


def center_kernel(K: SymMatrix) -> SymMatrix:
    """Double-center a kernel matrix: J K J with J = I - (1/n) 1 1'."""
    a = K.values
    row_mean = a.mean(axis=0)
    total = row_mean.mean()
    return SymMatrix(a - row_mean[None, :] - row_mean[:, None] + total)


def _as_slice(positions: np.ndarray):
    """``positions`` as the equal basic slice when they run consecutively
    upwards, else unchanged."""
    if positions.size and np.all(np.diff(positions) == 1):
        return slice(int(positions[0]), int(positions[-1]) + 1)
    return positions


class GramSource:
    """Uniform access to kernel evaluations on a fixed set of points.

    Backed either by a precomputed symmetric matrix, whose points are its row
    positions, or by (spec, points); downstream code asks for landmark blocks
    and cross blocks without caring which, and only ``_kernel`` looks.
    ``subset`` gives the same kernel on some of the points without copying a
    block.  ``full()`` materializes the complete matrix, as a reference for
    tests.
    """

    def __init__(self, *, matrix: SymMatrix | None = None,
                 spec: KernelSpec | None = None, points: np.ndarray | None = None):
        if (matrix is None) == (spec is None):
            raise InvalidInput("provide either a matrix or a kernel spec with points")
        if spec is not None:
            if points is None:
                raise InvalidInput("a kernel spec needs a point array")
            points = _as_points(points)
        self.matrix = matrix
        self.spec = spec
        self.points = np.arange(matrix.order) if points is None else points

    @classmethod
    def from_matrix(cls, K: SymMatrix) -> "GramSource":
        return cls(matrix=K)

    @classmethod
    def from_data(cls, spec: KernelSpec, X) -> "GramSource":
        return cls(spec=spec, points=X)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def _kernel(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Kernel values between two point sets of this source."""
        if self.matrix is not None:
            # the matrix is exactly symmetric: gather whole rows Z, not
            # scattered columns, and hand back their transpose.  Columns X
            # that run consecutively are a basic slice: then the block is a
            # read-only view of the stored matrix if Z runs too, and a gather
            # of rows in the layout of the full gather if not
            cols = _as_slice(X)
            if isinstance(cols, slice):
                return self.matrix.values[_as_slice(Z), cols].T
            return self.matrix.values[np.ix_(Z, X)].T
        return gram_cross(self.spec, X, Z)

    def subset(self, indices) -> "GramSource":
        """The same kernel on ``points[indices]``; a matrix source shares its
        matrix."""
        return GramSource(matrix=self.matrix, spec=self.spec,
                          points=self.points[np.asarray(indices, dtype=int)])

    def block(self, indices) -> SymMatrix:
        return SymMatrix(self.cross(indices, indices))

    def cross(self, rows, cols) -> np.ndarray:
        """Kernel values between the points at positions ``rows`` and ``cols``."""
        return self._kernel(self.points[np.asarray(rows, dtype=int)],
                            self.points[np.asarray(cols, dtype=int)])

    def cross_all(self, indices) -> np.ndarray:
        return self._kernel(self.points, self.points[np.asarray(indices, dtype=int)])

    def full(self) -> SymMatrix:
        return SymMatrix(self._kernel(self.points, self.points))
