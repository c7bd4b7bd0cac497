import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinkit import (
    ConfigError,
    ConstantFeatureWarning,
    GramSource,
    InvalidInput,
    ShapeError,
    SymMatrix,
    center_kernel,
    epanechnikov,
    format_kernel_spec,
    gaussian,
    gaussian_diff,
    gram,
    gram_cross,
    indefiniteness,
    linear,
    parse_kernel_spec,
    rl_sigmoid_preset,
    standardize,
    sym_eigen,
    tanh_sigmoid,
)
from kreinkit.kernels import _evaluate


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_round_trip():
    for text in (
        "kernel=gauss sigma=1.5",
        "kernel=gaussdiff sigma1=1.0 sigma2=3.0",
        "kernel=tanh a=2.0 b=-1.0",
        "kernel=epan sigma=2.0",
        "kernel=linear",
        "kernel=gauss sigma=1e150",  # 2 sigma^2 = 2e300
        "kernel=epan sigma=1e-150",  # sigma^2 = 1e-300, still normal
    ):
        spec = parse_kernel_spec(text)
        assert parse_kernel_spec(format_kernel_spec(spec)) == spec


def test_parse_is_whitespace_tolerant():
    assert parse_kernel_spec("  kernel=gauss   sigma=2 ") == gaussian(2.0)


def test_rlsigmoid_preset():
    assert parse_kernel_spec("kernel=rlsigmoid") == tanh_sigmoid(a=1.0, b=-1.0)
    assert rl_sigmoid_preset() == tanh_sigmoid(a=1.0, b=-1.0)


@pytest.mark.parametrize(
    "text",
    [
        "sigma=1.0",  # no kernel
        "kernel=fourier",  # unknown kind
        "kernel=gauss",  # missing parameter
        "kernel=gauss sigma=1.0 a=2.0",  # foreign parameter
        "kernel=gauss sigma=abc",  # bad float
        "kernel=gauss sigma=-1.0",  # non-positive width
        "kernel=gauss sigma=1e160",  # 2 sigma^2 overflows
        "kernel=gaussdiff sigma1=1.0 sigma2=1e-160",  # 2 sigma2^2 underflows
        "kernel=epan sigma=1e-154",  # sigma^2 is subnormal
        "kernel=gaussdiff sigma1=2.0 sigma2=2.0",  # equal widths
        "kernel=gauss sigma",  # not key=value
        "kernel=gauss kernel=linear",  # duplicate key
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ConfigError):
        parse_kernel_spec(text)


# ---------------------------------------------------------------------------
# frozen kernel values (unit distance / unit inner product)


def test_gaussian_value():
    k = gram_cross(gaussian(1.0), [[0.0, 0.0]], [[1.0, 0.0]])
    assert_allclose(k, [[0.6065306597126334]], rtol=1e-15)


def test_gaussian_diff_value():
    k = gram_cross(gaussian_diff(1.0, 3.0), [[0.0]], [[1.0]])
    assert_allclose(k, [[-0.339428809194132]], rtol=1e-13)


def test_tanh_value():
    k = gram_cross(tanh_sigmoid(a=2.0, b=-1.0), [[1.0, 2.0]], [[3.0, -1.0]])
    assert_allclose(k, [[np.tanh(1.0)]], rtol=1e-15)


def test_epanechnikov_values():
    spec = epanechnikov(2.0)
    k = gram_cross(spec, [[0.0], [0.0]], [[1.0], [5.0]])
    assert_allclose(k[0], [0.75, 0.0])  # 1 - 1/4, clamped at distance 5


def test_linear_value():
    k = gram_cross(linear(), [[1.0, 2.0]], [[3.0, -1.0]])
    assert_allclose(k, [[1.0]])


# ---------------------------------------------------------------------------
# gram construction


def test_gauss_diagonal_exactly_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    x[7] = x[3]  # duplicate rows must still give exact diagonal values
    k = gram(gaussian(0.7), x).values
    assert np.all(np.diag(k) == 1.0)


def test_gaussdiff_diagonal_exactly_zero():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 4))
    x[11] = x[2]
    k = gram(gaussian_diff(1.0, 3.0), x).values
    assert np.all(np.diag(k) == 0.0)
    # duplicate off-diagonal entries hit the same exact value
    assert k[11, 2] == 0.0 and k[2, 11] == 0.0


def test_gram_matches_gram_cross():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 3))
    for spec in (gaussian(1.2), gaussian_diff(0.8, 2.5), tanh_sigmoid(0.5, -0.2),
                 epanechnikov(3.0), linear()):
        full = gram(spec, x).values
        cross = gram_cross(spec, x, x)
        assert_allclose(cross, full, atol=1e-13)


def test_gram_cross_block_consistency():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 3))
    idx = np.array([2, 5, 11, 17])
    full = gram(gaussian_diff(1.0, 3.0), x).values
    assert_allclose(gram_cross(gaussian_diff(1.0, 3.0), x, x[idx]),
                    full[:, idx], atol=1e-13)


def test_gaussdiff_is_indefinite():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 2)) * 2.0
    eig = sym_eigen(gram(gaussian_diff(1.0, 3.0), x))
    assert indefiniteness(eig) > 0.1


def test_chunked_distances_match_direct():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(600, 3))  # forces several 256-row chunks
    z = x[:10]
    k = gram_cross(gaussian(1.0), x, z)
    direct = np.exp(-((x[:, None, :] - z[None, :, :]) ** 2).sum(-1) / 2.0)
    assert_allclose(k, direct, rtol=1e-14)


def _distance_specs(p):
    s = float(np.sqrt(p))
    return (gaussian(s), gaussian_diff(s, 2.0 * s), epanechnikov(2.0 * s))


def _direct_kernel(spec, x, z):
    d2 = ((x[:, None, :] - z[None, :, :]) ** 2).sum(-1)
    if spec.kind == "gauss":
        return np.exp(-d2 / (2.0 * spec.sigma**2))
    if spec.kind == "gaussdiff":
        return np.exp(-d2 / (2.0 * spec.sigma1**2)) - np.exp(-d2 / (2.0 * spec.sigma2**2))
    return np.maximum(0.0, 1.0 - d2 / spec.sigma**2)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("p", [1, 16, 64])
def test_distance_kernels_match_direct_differencing(p, offset):
    # the norm identity loses digits to the data's offset unless the points
    # are centred first
    rng = np.random.default_rng(13)
    x = rng.normal(size=(90, p)) + offset
    z = rng.normal(size=(30, p)) + offset
    for spec in _distance_specs(p):
        assert_allclose(gram_cross(spec, x, z), _direct_kernel(spec, x, z),
                        rtol=0, atol=1e-13)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("p", [1, 16, 64])
def test_duplicated_points_exact(p, offset):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(40, p)) + offset
    x[[5, 17, 33]] = x[2]
    exact = {"gauss": 1.0, "gaussdiff": 0.0, "epan": 1.0}
    for spec in _distance_specs(p):
        k = gram(spec, x).values
        same = np.all(x[:, None, :] == x[None, :, :], axis=-1)
        assert np.all(k[same] == exact[spec.kind])
        cross = gram_cross(spec, x[[2, 9]], x)
        assert np.all(cross[0, [2, 5, 17, 33]] == exact[spec.kind])
        assert cross[1, 9] == exact[spec.kind]


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_near_duplicates_keep_relative_accuracy(offset):
    # at distance 1e-8 per coordinate the norm identity has no correct digit
    # left; those pairs are redone by differencing, which the near-cancelling
    # gaussdiff value shows
    rng = np.random.default_rng(17)
    x = rng.normal(size=(20, 16)) + offset
    y = x + 1e-8 * rng.choice([-1.0, 1.0], size=x.shape)
    spec = gaussian_diff(1.0, 3.0)
    near = np.diag(gram_cross(spec, x, y))
    assert np.all(near < 0.0)
    assert_allclose(near, np.diag(_direct_kernel(spec, x, y)), rtol=1e-6)


@pytest.mark.parametrize("rows", [1, 2, 37])
def test_gram_cross_row_blocks_match_full_block_exactly(rows):
    # BLAS products round differently for different row counts; the distance
    # kernels must not
    rng = np.random.default_rng(15)
    x = rng.normal(size=(300, 16))
    z = rng.normal(size=(300, 16))
    for spec in _distance_specs(16):
        full = gram_cross(spec, x, z)
        for start, stop in _row_blocks(300, rows):
            assert_allclose(gram_cross(spec, x[start:stop], z), full[start:stop],
                            rtol=0, atol=0)


@pytest.mark.parametrize("p", [1, 16, 64])
def test_self_evaluation_exactly_symmetric(p):
    rng = np.random.default_rng(16)
    x = rng.normal(size=(111, p)) + 10.0
    for spec in _distance_specs(p):
        k = _evaluate(spec, x, x)
        assert np.array_equal(k, k.T)


def _reference_distance_kernel(spec, X, Z):
    """The straightforward form of the distance-kernel loop: each 256-row
    tile of squared distances is finished, then screened entry by entry with
    a 2-D nonzero, and the kernel profile is applied afterwards."""
    n, p = X.shape
    mu = Z.mean(axis=0) if Z.shape[0] else 0.0
    xs = X - mu
    zs = Z - mu
    zt = np.ascontiguousarray(zs.T)
    sx = np.einsum("ij,ij->i", xs, xs)
    sz = np.einsum("ij,ij->i", zs, zs)
    out = np.empty((n, Z.shape[0]))
    for start in range(0, n, 256):
        stop = min(n, start + 256)
        d2 = out[start:stop]
        np.einsum("ik,kj->ij", xs[start:stop], zt, out=d2)
        d2 *= -2.0
        norms = sx[start:stop, None] + sz[None, :]
        d2 += norms
        norms *= 4.0 * np.finfo(float).eps * (p + 2)
        cancelled = d2 <= norms
        if cancelled.any():
            i, j = np.nonzero(cancelled)
            diff = X[start + i] - Z[j]
            d2[i, j] = np.einsum("ij,ij->i", diff, diff)
    for start in range(0, n, 256):
        d2 = out[start:start + 256]
        if spec.kind == "gauss":
            d2 /= -2.0 * spec.sigma**2
            np.exp(d2, out=d2)
        elif spec.kind == "gaussdiff":
            wide = np.exp(d2 / (-2.0 * spec.sigma2**2))
            d2 /= -2.0 * spec.sigma1**2
            np.exp(d2, out=d2)
            d2 -= wide
        else:
            d2 /= spec.sigma**2
            np.subtract(1.0, d2, out=d2)
            np.maximum(0.0, d2, out=d2)
    return out


def test_distance_kernels_match_the_reference_loop_bitwise():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(600, 5))  # two full 256-row tiles and a ragged one
    x[[41, 300, 599]] = x[3]  # exact duplicates, across tiles
    idx = rng.choice(600, size=70, replace=False)  # landmarks among the rows
    line = rng.normal(size=(300, 1))  # p = 1: Z's transpose is already contiguous
    # near-duplicates of the landmarks whose squared distance is 1.5 times
    # the cancellation bound of one norm: below the bound of the two norms
    z = x[idx] - x[idx].mean(axis=0)
    step = rng.normal(size=z.shape)
    step *= np.sqrt(1.5 * 4.0 * np.finfo(float).eps * 7 * np.sum(z * z, axis=1)
                    / np.sum(step * step, axis=1))[:, None]
    inputs = [(x, x[idx]), (x, x), (x + 1e8, x[idx] + 1e8), (x, x[idx] + 30.0),
              (x[idx] + step, x[idx]), (x[:0], x[idx]), (x, x[:0]), (x[:257], x[:1]),
              (line, line[:40])]
    specs = [gaussian(0.9), gaussian_diff(1.0, 3.0), gaussian_diff(1.0, 1.0000001),
             epanechnikov(2.5)]
    for X, Z in inputs:
        for spec in specs:
            got = gram_cross(spec, X, Z)
            want = _reference_distance_kernel(spec, X, Z)
            assert got.shape == want.shape and np.array_equal(got, want)


def test_gram_validation():
    with pytest.raises(ShapeError):
        gram(gaussian(1.0), np.zeros(3))
    with pytest.raises(ShapeError):
        gram_cross(linear(), np.zeros((3, 2)), np.zeros((3, 4)))
    with pytest.raises(InvalidInput):
        gram(gaussian(1.0), [[np.nan, 0.0]])


# ---------------------------------------------------------------------------
# standardization / centering


def test_standardize_population_convention():
    rng = np.random.default_rng(6)
    x = rng.normal(loc=3.0, scale=2.0, size=(50, 4))
    z, scaler = standardize(x)
    assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert_allclose(z.std(axis=0), 1.0, atol=1e-12)  # ddof=0
    assert_allclose(scaler.apply(x), z, atol=1e-12)


def test_standardize_constant_column():
    x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.warns(ConstantFeatureWarning):
        z, scaler = standardize(x)
    assert_allclose(z[:, 1], 0.0)
    assert scaler.constant[1]


def test_standardize_needs_two_rows():
    with pytest.raises(InvalidInput):
        standardize(np.ones((1, 3)))


def test_center_kernel_frozen():
    # J K J with K = I and the idempotent centering projector J
    c = center_kernel(SymMatrix(np.eye(2)))
    assert_allclose(c.values, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_center_kernel_annihilates_means():
    rng = np.random.default_rng(7)
    k = gram(gaussian_diff(1.0, 3.0), rng.normal(size=(20, 2)))
    c = center_kernel(k).values
    assert_allclose(c.sum(axis=0), 0.0, atol=1e-12)
    assert_allclose(c.sum(axis=1), 0.0, atol=1e-12)


def test_center_kernel_matches_projector_form():
    rng = np.random.default_rng(8)
    k = gram(linear(), rng.normal(size=(15, 3)))
    n = 15
    j = np.eye(n) - np.ones((n, n)) / n
    assert_allclose(center_kernel(k).values, j @ k.values @ j, atol=1e-12)


# ---------------------------------------------------------------------------
# gram sources


def test_gram_source_from_data():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(18, 2))
    src = GramSource.from_data(gaussian_diff(1.0, 3.0), x)
    idx = np.array([0, 5, 9])
    full = gram(gaussian_diff(1.0, 3.0), x).values
    assert src.n == 18
    assert_allclose(src.block(idx).values, full[np.ix_(idx, idx)], atol=1e-13)
    assert_allclose(src.cross_all(idx), full[:, idx], atol=1e-13)
    assert_allclose(src.full().values, full, atol=0)


def test_gram_source_from_matrix():
    k = SymMatrix(np.diag([2.0, -3.0, 1.0]))
    src = GramSource.from_matrix(k)
    assert src.n == 3
    assert_allclose(src.block(np.array([1])).values, [[-3.0]])
    assert_allclose(src.cross_all(np.array([2, 0])), [[0.0, 2.0], [0.0, 0.0], [1.0, 0.0]])


def _row_blocks(n, step):
    return [(start, min(n, start + step)) for start in range(0, n, step)]


@pytest.mark.parametrize("spec", [gaussian(0.9), gaussian_diff(1.0, 3.0)])
def test_gram_source_rows_match_full_exactly(spec):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(300, 5))  # more than one 256-row distance chunk
    x[41] = x[3]  # duplicate point: exact values off the diagonal too
    src = GramSource.from_data(spec, x)
    full = src.full().values
    for start, stop in _row_blocks(300, 37):
        assert_allclose(src.cross(np.arange(start, stop), np.arange(300)), full[start:stop],
                        rtol=0, atol=0)


def test_gram_source_rows_tanh():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(70, 4))
    src = GramSource.from_data(tanh_sigmoid(0.5, -0.2), x)
    full = gram(tanh_sigmoid(0.5, -0.2), x).values
    for start, stop in _row_blocks(70, 16):
        assert_allclose(src.cross(np.arange(start, stop), np.arange(70)), full[start:stop],
                        rtol=0, atol=1e-13)


def test_gram_source_rows_from_matrix():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(9, 9))
    k = SymMatrix(a + a.T)
    src = GramSource.from_matrix(k)
    for start, stop in _row_blocks(9, 4):
        assert_allclose(src.cross(np.arange(start, stop), np.arange(9)), k.values[start:stop],
                        rtol=0, atol=0)


def _source_parts(src, idx, rows):
    return [src.block(idx).values, src.cross(rows, idx), src.cross_all(idx),
            src.cross(np.arange(1, 4), np.arange(src.n)), src.full().values]


def test_gram_source_matrix_subset_slices_the_matrix():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(12, 12))
    src = GramSource.from_matrix(SymMatrix(a + a.T))
    outer = np.array([11, 2, 7, 0, 5, 9, 3, 8])
    inner = np.array([6, 1, 4, 0, 2])
    idx, rows = np.array([2, 0, 3]), np.array([4, 1])
    for sub, pos in ((src.subset(outer), outer),
                     (src.subset(outer).subset(inner), outer[inner])):
        v = src.full().values[np.ix_(pos, pos)]
        expected = [v[np.ix_(idx, idx)], v[np.ix_(rows, idx)], v[:, idx], v[1:4], v]
        assert sub.n == pos.size
        assert sub.matrix is src.matrix  # shared, not copied
        for got, want in zip(_source_parts(sub, idx, rows), expected):
            assert_allclose(got, want, rtol=0, atol=0)


def test_gram_source_matrix_runs_are_slices_equal_to_the_gather():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(12, 12))
    k = SymMatrix(a + a.T)
    src = GramSource.from_matrix(k)
    runs = [np.arange(3, 9), np.arange(12), np.array([5])]
    scattered = [np.array([4, 1, 9]), np.array([2, 3, 5]), np.array([6, 5, 4]), np.array([], int)]
    for rows in runs + scattered:
        for cols in runs + scattered:
            got = src.cross(rows, cols)
            assert np.array_equal(got, k.values[np.ix_(cols, rows)].T)
            # both runs: a view of the stored matrix, which is read-only
            assert np.shares_memory(got, k.values) == (
                any(rows is r for r in runs) and any(cols is r for r in runs))
    # positions of a subset that run in the whole matrix
    sub = src.subset(np.arange(2, 10))
    got = sub.cross(np.arange(1, 4), np.arange(8))
    assert np.array_equal(got, k.values[3:6, 2:10]) and np.shares_memory(got, k.values)
    assert np.array_equal(sub.block(np.arange(3)).values, k.values[2:5, 2:5])


@pytest.mark.parametrize("spec", [gaussian_diff(1.0, 3.0), tanh_sigmoid(0.5, -0.2)])
def test_gram_source_data_subset_is_the_source_of_its_points(spec):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(30, 3))
    outer = rng.permutation(30)[:12]
    inner = np.array([9, 0, 4, 7, 1])
    idx, rows = np.array([2, 0, 3]), np.array([4, 1])
    src = GramSource.from_data(spec, x)
    for sub, pos in ((src.subset(outer), outer),
                     (src.subset(outer).subset(inner), outer[inner])):
        ref = GramSource.from_data(spec, x[pos])
        for got, want in zip(_source_parts(sub, idx, rows), _source_parts(ref, idx, rows)):
            assert_allclose(got, want, rtol=0, atol=0)
