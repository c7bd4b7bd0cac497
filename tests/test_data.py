import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinkit import data
from kreinkit import (
    DissimilarityMatrix,
    FoldError,
    InvalidClass,
    InvalidInput,
    ParseError,
    ShapeError,
    double_center_neg,
    load_labels,
    load_matrix,
    load_table,
    make_rng,
    make_synthetic,
    misclassification,
    one_vs_all,
    stratified_kfold,
    write_matrix,
)


# ---------------------------------------------------------------------------
# parsing


def test_load_table_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1.0,2.0\n3.5,-4.0\n")
    assert_allclose(load_table(path), [[1.0, 2.0], [3.5, -4.0]])


def test_load_table_whitespace(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1 2\n3\t4\n")
    assert_allclose(load_table(path), [[1.0, 2.0], [3.0, 4.0]])


def test_load_table_reports_bad_token_position(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError) as info:
        load_table(path)
    assert info.value.line == 2 and info.value.col == 2


def test_load_table_rejects_ragged(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as info:
        load_table(path)
    assert info.value.line == 2


def test_load_table_rejects_empty(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n\n")
    with pytest.raises(ParseError):
        load_table(path)


_DIGITS = "\n".join(",".join(f"{v:.17g}" for v in row)
                    for row in np.random.default_rng(1).normal(size=(5, 3)) * 1e3)

# the delimiter of each layout; load_table finds it from the first non-blank line
_SEP = {"csv": ",", "whitespace": None}

# (text, layout): files NumPy's C parser reads, each of which must give the same
# array as the line-by-line parser, and as load_table, which is not told the layout
_FAST_TABLES = [
    ("1,2\n3,4\n", "csv"),
    ("1,2\n\n3,4\n\n", "csv"),  # blank lines
    (" 1 , 2 \n3,\t4\n", "csv"),  # blanks around tokens
    ("1,2\n3,4", "csv"),  # no final newline
    ("1,2\r\n3,4\r\n", "csv"),
    ("1.5,-2e-3,7\n", "csv"),  # one row
    ("1\n2\n3\n", "csv"),  # one column
    ("nan,inf\n-inf,NaN\n+infinity,1e400\n", "csv"),
    ("+1,-0,.5,5.,123456789012345678901234567890\n", "csv"),
    (_DIGITS + "\n", "csv"),
    ("1 2\n  \n3\t4\n\n", "whitespace"),  # blank and whitespace-only lines
    ("  1   2\n3 4", "whitespace"),  # no final newline
    ("7\n", "whitespace"),  # one row, one column
    ("nan inf -inf\n1 2 3\n", "whitespace"),
    (_DIGITS.replace(",", " ") + "\n", "whitespace"),
]


@pytest.mark.parametrize("text,fmt", _FAST_TABLES)
def test_fast_table_parser_matches_line_parser(tmp_path, text, fmt):
    path = tmp_path / "t.txt"
    path.write_text(text)
    fast = data._parse_fast(path, _SEP[fmt])
    assert fast is not None
    assert np.array_equal(fast, data._parse_lines(path, _SEP[fmt]), equal_nan=True)
    assert np.array_equal(load_table(path), fast, equal_nan=True)


@pytest.mark.parametrize("text,fmt,expected", [
    ("1_0,2\n3,4\n", "csv", [[10.0, 2.0], [3.0, 4.0]]),  # Python-only syntax
    ("1 2\n1_0 4\n", "whitespace", [[1.0, 2.0], [10.0, 4.0]]),
    ("1,2\n   \n3,4\n", "csv", [[1.0, 2.0], [3.0, 4.0]]),  # whitespace-only line
])
def test_table_parser_falls_back_to_lines(tmp_path, text, fmt, expected):
    path = tmp_path / "t.txt"
    path.write_text(text)
    assert data._parse_fast(path, _SEP[fmt]) is None
    assert np.array_equal(load_table(path), expected)


@pytest.mark.parametrize("text,fmt,line,col", [
    ("1,2\n3,x\n", "csv", 2, 2),
    ("1,2\n3,4,\n", "csv", 2, 3),  # trailing separator: an empty token
    ("1 2\n3 4\n5\n", "whitespace", 3, None),
    ("1 2\n3,4 5\n", "whitespace", 2, 1),
])
def test_table_parse_errors_keep_their_position(tmp_path, text, fmt, line, col):
    path = tmp_path / "t.txt"
    path.write_text(text)
    assert data._delimiter(path) == _SEP[fmt]  # the first line decides
    with pytest.raises(ParseError) as info:
        load_table(path)
    assert info.value.line == line and info.value.col == col


def test_load_matrix_symmetrizes_within_tolerance(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("1.0,2.0000000001\n2.0,3.0\n")
    k = load_matrix(path)
    assert_allclose(k.values, k.values.T, atol=0)


def test_load_matrix_rejects_gross_asymmetry(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("1.0,9.0\n2.0,3.0\n")
    with pytest.raises(ParseError) as info:
        load_matrix(path)
    assert "(1, 2)" in str(info.value)


def test_load_matrix_rejects_nonsquare(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("1.0,2.0,3.0\n2.0,3.0,4.0\n")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_write_read_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 7))
    k = (a + a.T) / 2.0
    for fmt in ("csv", "whitespace"):
        path = tmp_path / f"k.{fmt}"
        write_matrix(path, k, fmt)
        back = load_matrix(path)
        assert np.array_equal(back.values, k)


def test_load_dissimilarity(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0.0,1.0\n1.0,0.0\n")
    d = load_matrix(path, kind="dissimilarity")
    assert isinstance(d, DissimilarityMatrix)
    assert not d.squared
    d2 = load_matrix(path, kind="dissimilarity", squared=True)
    assert d2.squared


def test_dissimilarity_validation():
    with pytest.raises(InvalidInput):
        DissimilarityMatrix(np.array([[1.0, 0.5], [0.5, 0.0]]))  # nonzero diagonal
    with pytest.raises(InvalidInput):
        DissimilarityMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative entry


def test_load_labels(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("cat\ndog\n\ncat\n")
    assert load_labels(path).tolist() == ["cat", "dog", "cat"]


def test_one_vs_all():
    y = one_vs_all(["a", "b", "a", "c"], "a")
    assert y.tolist() == [1.0, -1.0, 1.0, -1.0]
    with pytest.raises(InvalidClass):
        one_vs_all(["a", "b"], "z")
    # the target is not cut to the width of the labels
    with pytest.raises(InvalidClass):
        one_vs_all(np.asarray(["1", "2"]), "10")
    assert one_vs_all(np.asarray(["10", "1"]), "1").tolist() == [-1.0, 1.0]


# ---------------------------------------------------------------------------
# double centering


def test_double_center_frozen_example():
    d = DissimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    s = double_center_neg(d)
    assert_allclose(s.values, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_double_center_respects_squared_flag():
    plain = DissimilarityMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
    squared = DissimilarityMatrix(np.array([[0.0, 4.0], [4.0, 0.0]]), squared=True)
    assert_allclose(double_center_neg(plain).values,
                    double_center_neg(squared).values, atol=1e-14)


def test_double_center_recovers_centered_gram():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n, p = int(rng.integers(4, 25)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, p))
        x -= x.mean(axis=0)
        sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        s = double_center_neg(DissimilarityMatrix(np.sqrt(sq)))
        assert_allclose(s.values, x @ x.T, atol=1e-8)


# ---------------------------------------------------------------------------
# cross-validation plans


def test_stratified_kfold_partitions():
    rng = make_rng(0)
    y = np.array([1.0] * 30 + [-1.0] * 20)
    plan = stratified_kfold(y, 5, rng)
    seen = np.concatenate(plan.folds)
    assert sorted(seen.tolist()) == list(range(50))
    for fold in plan.folds:
        assert fold.size == 10
        positives = int(np.sum(y[fold] > 0))
        assert positives == 6  # 30/5 per fold exactly


def test_stratified_kfold_uneven_classes():
    y = np.array([1.0] * 7 + [-1.0] * 5)
    plan = stratified_kfold(y, 3, make_rng(1))
    for fold in plan.folds:
        positives = int(np.sum(y[fold] > 0))
        assert positives in (2, 3)


def test_stratified_kfold_deterministic():
    y = np.array([1.0] * 9 + [-1.0] * 9)
    a = stratified_kfold(y, 3, make_rng(2))
    b = stratified_kfold(y, 3, make_rng(2))
    assert all(np.array_equal(f, g) for f, g in zip(a.folds, b.folds))


def test_stratified_kfold_errors():
    with pytest.raises(FoldError) as info:
        stratified_kfold(np.array([1.0, 1.0, 1.0, -1.0]), 3, make_rng(0))
    assert info.value.counts is not None
    with pytest.raises(FoldError):
        stratified_kfold(np.array([1.0, -1.0, 1.0, -1.0]), 1, make_rng(0))


def test_splits_cover_everything():
    y = np.array([1.0, -1.0] * 10)
    plan = stratified_kfold(y, 4, make_rng(3))
    for train, test in plan.splits():
        assert np.intersect1d(train, test).size == 0
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(20))
        assert np.all(np.diff(train) > 0)


# ---------------------------------------------------------------------------
# evaluation


def test_misclassification_counts_zero_as_error():
    rate = misclassification([0.0, 2.0, -3.0], [1.0, 1.0, -1.0])
    assert rate == pytest.approx(1.0 / 3.0)


def test_misclassification_counts_nan_as_error():
    # a NaN decision has no y f > 0, so it matches neither class
    assert misclassification([np.nan, np.nan], [1.0, -1.0]) == 1.0
    assert misclassification([np.nan, 2.0, -1.0, 0.0], [1.0, 1.0, 1.0, -1.0]) == 0.75


def test_misclassification_scores_each_row_of_a_grid():
    rng = np.random.default_rng(3)
    labels = np.where(rng.random(9) < 0.5, -1.0, 1.0)
    preds = rng.normal(size=(5, 9))
    preds[1, 2], preds[3, :] = 0.0, np.nan
    rates = misclassification(preds, labels)
    assert rates.shape == (5,)
    assert rates.tolist() == [misclassification(row, labels) for row in preds]
    with pytest.raises(ShapeError):
        misclassification(preds, labels[:-1])
    with pytest.raises(ShapeError):
        misclassification(preds[None], labels)


def test_misclassification_validation():
    with pytest.raises(ShapeError):
        misclassification([1.0], [1.0, -1.0])
    with pytest.raises(InvalidInput):
        misclassification([1.0, 1.0], [1.0, 2.0])


@pytest.mark.parametrize("labels", [
    [1.0, -1.0, 1.0], [1.0, np.nan], [np.nan, np.nan], [1.0, 0.0], [-0.0, 1.0],
    [2.0, -1.0], [np.inf, -1.0], [-1.0, -1.0], [],
])
def test_misclassification_label_check_matches_the_set_rule(labels):
    # the rule the vectorised check replaced: the distinct labels lie in {-1, 1}
    accepted = set(np.unique(labels).tolist()) <= {-1.0, 1.0}
    preds = np.ones(len(labels))
    if not accepted:
        with pytest.raises(InvalidInput):
            misclassification(preds, labels)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the mean of no labels
        rate = misclassification(preds, labels)
        expected = np.mean(np.asarray(labels) != 1.0)
    assert rate == pytest.approx(expected, nan_ok=True)


# ---------------------------------------------------------------------------
# synthetic data


def test_make_synthetic_two_gaussians():
    x, y = make_synthetic("two_gaussians", 100, 3, make_rng(4), separation=6.0)
    assert x.shape == (100, 3)
    assert y.sum() == 0
    pos = x[y > 0, 0].mean()
    neg = x[y < 0, 0].mean()
    assert pos - neg == pytest.approx(6.0, abs=1.0)


def test_make_synthetic_concentric():
    x, y = make_synthetic("concentric", 200, 2, make_rng(5))
    radii = np.linalg.norm(x, axis=1)
    assert radii[y > 0].mean() < radii[y < 0].mean()


def test_make_synthetic_deterministic():
    xa, ya = make_synthetic("two_gaussians", 50, 2, make_rng(6))
    xb, yb = make_synthetic("two_gaussians", 50, 2, make_rng(6))
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)


def test_make_synthetic_validation():
    with pytest.raises(InvalidInput):
        make_synthetic("two_gaussians", 5, 2, make_rng(0))
    with pytest.raises(InvalidInput):
        make_synthetic("two_gaussians", 10, 2, make_rng(0), separation=-1.0)
    with pytest.raises(InvalidInput):
        make_synthetic("spiral", 10, 2, make_rng(0))
