import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinkit import (
    InvalidInput,
    LandmarkSet,
    ShapeError,
    SingularLandmarkBlock,
    SymMatrix,
    approximate,
    build_feature_map,
    fit,
    flop_count,
    frobenius_error,
    gaussian_diff,
    gram,
    gram_cross,
    one_shot_eigen,
    feature_rows,
    reconstruct,
    sgt_one_shot,
    sym_eigen,
    truncate_eigen,
    truncate_factor,
    uniform_landmarks,
)
from kreinkit import nystroem


def random_indefinite(rng, n, rank=None):
    """Random symmetric matrix with mixed-sign spectrum (optionally low rank)."""
    r = rank or n
    x = rng.normal(size=(n, r))
    signs = np.ones(r)
    signs[: max(1, r // 3)] = -1.0
    return SymMatrix((x * signs) @ x.T)


def one_shot(factor, cross):
    """`one_shot_eigen` of the signed features filled from a cross block."""
    return one_shot_eigen(factor, build_feature_map(factor, cross).phi)


def one_shot_by_eigh(factor, phi, rank=None):
    """`one_shot_eigen` with its first Cholesky factorization made to fail:
    the route through the eigensystem of G, polish included."""
    original = np.linalg.cholesky
    calls = []

    def first_fails(a, *args, **kwargs):
        calls.append(a)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("injected failure")
        return original(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", first_fails)
        return one_shot_eigen(factor, phi, rank)


def same_eigen(a, b) -> bool:
    return (np.array_equal(a.U, b.U) and np.array_equal(a.lam, b.lam)
            and a.warning == b.warning)


def counted_eighs(monkeypatch):
    """The orders of the `np.linalg.eigh` calls made from here on."""
    orders = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        orders.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return orders


# ---------------------------------------------------------------------------
# factorization


def test_fit_rank_one_example():
    factor = fit(SymMatrix(np.array([[2.0]])))
    assert factor.effective_rank == 1
    assert_allclose(factor.eig.d, [2.0])
    assert factor.warning is None


def test_fit_cutoff_drops_tiny_eigenvalues():
    factor = fit(SymMatrix(np.diag([1.0, 1e-15])))
    assert factor.effective_rank == 1
    assert factor.warning is not None
    assert factor.pinv_tol == pytest.approx(1e-10)


def test_fit_zero_block_raises():
    with pytest.raises(SingularLandmarkBlock):
        fit(SymMatrix(np.zeros((3, 3))))


def test_fit_rejects_bad_tolerance():
    with pytest.raises(InvalidInput):
        fit(SymMatrix(np.eye(2)), pinv_tol=-1.0)


def test_approximate_rank_one_example():
    # K = [[2,4],[4,8]] is rank one; the first column alone recovers it
    factor = fit(SymMatrix(np.array([[2.0]])))
    k_xz = np.array([[2.0], [4.0]])
    assert_allclose(approximate(factor, k_xz).values,
                    [[2.0, 4.0], [4.0, 8.0]], atol=1e-12)


def test_approximate_checks_cross_shape():
    factor = fit(SymMatrix(np.eye(2)))
    with pytest.raises(ShapeError):
        approximate(factor, np.zeros((4, 3)))


def test_exact_recovery_with_spanning_landmarks():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(6, 30))
        r = int(rng.integers(2, n // 2 + 2))
        k = random_indefinite(rng, n, rank=r)
        idx = np.arange(r)  # gaussian factors make any r rows spanning
        factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
        approx = approximate(factor, k.values[:, idx])
        scale = np.linalg.norm(k.values, "fro")
        assert frobenius_error(k, approx) <= 1e-8 * scale


def test_landmark_block_reproduced():
    rng = np.random.default_rng(1)
    k = random_indefinite(rng, 20)
    idx = np.array([1, 4, 9, 13])
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    approx = approximate(factor, k.values[:, idx]).values
    assert_allclose(approx[np.ix_(idx, idx)], k.values[np.ix_(idx, idx)], atol=1e-9)


def test_feature_rows_extend_the_approximation():
    # a new point's signed features give its column of the approximation,
    # which is what scoring points outside the training set relies on
    rng = np.random.default_rng(2)
    k = random_indefinite(rng, 15)
    idx = np.arange(6)
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    approx = approximate(factor, k.values[:, idx]).values
    phi = feature_rows(factor, k.values[:, idx])
    for point in (7, 8):
        column = (phi * factor.s_r) @ feature_rows(factor, k.values[point, idx])
        assert_allclose(column, approx[:, point], atol=1e-9)


# ---------------------------------------------------------------------------
# one-shot eigendecomposition


def test_one_shot_rank_one_frozen():
    factor = fit(SymMatrix(np.array([[2.0]])))
    eig = one_shot(factor, np.array([[2.0], [4.0]]))
    assert_allclose(eig.lam, [10.0], atol=1e-12)
    assert_allclose(np.abs(eig.U[:, 0]), [1 / np.sqrt(5), 2 / np.sqrt(5)], atol=1e-12)


def test_one_shot_orthonormal_and_reconstructs():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(8, 40))
        m = int(rng.integers(2, 8))
        k = random_indefinite(rng, n)
        idx = rng.choice(n, size=m, replace=False)
        factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
        cross = k.values[:, idx]
        eig = one_shot(factor, cross)
        assert_allclose(eig.U.T @ eig.U, np.eye(eig.rank), atol=1e-10)
        assert_allclose(reconstruct(eig).values, approximate(factor, cross).values,
                        atol=1e-9)
        mags = np.abs(eig.lam)
        assert np.all(mags[:-1] >= mags[1:] - 1e-12)


def test_one_shot_deterministic():
    rng = np.random.default_rng(4)
    k = random_indefinite(rng, 25)
    idx = np.arange(5)
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    a = one_shot(factor, k.values[:, idx])
    b = one_shot(factor, k.values[:, idx])
    assert np.array_equal(a.U, b.U) and np.array_equal(a.lam, b.lam)


def test_one_shot_checks_its_features():
    rng = np.random.default_rng(7)
    k = random_indefinite(rng, 20, rank=4)
    idx = np.arange(6)
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    assert factor.effective_rank == 4
    # the cross block is not the features: it has m = 6 > r columns
    with pytest.raises(ShapeError):
        one_shot_eigen(factor, k.values[:, idx])
    phi = build_feature_map(factor, k.values[:, idx]).phi
    with pytest.raises(ShapeError):
        one_shot_eigen(factor, phi[:, :3])
    for bad in (np.nan, np.inf):
        broken = phi.copy()
        broken[5, 2] = bad
        with pytest.raises(InvalidInput):
            one_shot_eigen(factor, broken)


def test_one_shot_drops_directions_of_sign_zero():
    # a rank-6 kernel on 8 landmarks: with no cutoff the block keeps its two
    # round-off eigenvalues, which lie below tau_zero and get sign zero, so
    # their feature columns are zero and the orthonormalization drops them
    rng = np.random.default_rng(8)
    k = random_indefinite(rng, 30, rank=6)
    idx = rng.choice(30, size=8, replace=False)
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]), pinv_tol=0.0)
    assert factor.effective_rank == 8
    assert np.count_nonzero(factor.s_r) == 6
    phi = build_feature_map(factor, k.values[:, idx]).phi
    eig = one_shot_eigen(factor, phi)
    # zero columns make G singular: Cholesky raises, and G's eigensystem
    # orthonormalizes
    assert same_eigen(eig, one_shot_by_eigh(factor, phi))
    assert eig.rank == 6
    assert_allclose(eig.U.T @ eig.U, np.eye(6), atol=1e-12)
    target = approximate(factor, k.values[:, idx]).values
    assert np.abs(reconstruct(eig).values - target).max() <= 1e-12 * np.abs(target).max()


def test_one_shot_takes_one_eigh_on_a_well_conditioned_gram(monkeypatch):
    # uniform landmarks on clustered points, as `approx` samples them
    rng = np.random.default_rng(12)
    centers = rng.normal(scale=2.0, size=(32, 16))
    x = centers[rng.integers(32, size=2000)] + rng.normal(size=(2000, 16))
    spec = gaussian_diff(4.0, 8.0)
    idx = uniform_landmarks(2000, 400, rng).indices
    factor = fit(gram(spec, x[idx]))
    cross = gram_cross(spec, x, x[idx])
    phi = build_feature_map(factor, cross).phi
    orders = counted_eighs(monkeypatch)
    eig = one_shot_eigen(factor, phi)
    # the rotation alone: G is orthonormalized through its Cholesky factor
    assert orders == [factor.effective_rank]
    assert eig.rank == factor.effective_rank and eig.warning == factor.warning
    assert_allclose(eig.U.T @ eig.U, np.eye(eig.rank), atol=1e-12)
    target = approximate(factor, cross).values
    assert np.linalg.norm(reconstruct(eig).values - target) <= 1e-12 * np.linalg.norm(target)


def near_duplicate_features(rng, eps):
    """A full-rank factor of 50 mixed-sign directions and 2000 x 50 features
    whose last column is the first plus eps times noise."""
    x = rng.normal(size=(50, 50))
    signs = np.ones(50)
    signs[:16] = -1.0
    factor = fit(SymMatrix((x * signs) @ x.T))
    assert factor.effective_rank == 50
    phi = rng.normal(size=(2000, 50))
    phi[:, 49] = phi[:, 0] + eps * rng.normal(size=2000)
    return factor, phi


def test_one_shot_falls_back_to_the_eigensystem_of_an_ill_conditioned_gram(monkeypatch):
    taken = {"cholesky": 0, "eigh": 0}
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 0.0):
        factor, phi = near_duplicate_features(np.random.default_rng(23), eps)
        G = phi.T @ phi
        try:
            inv = np.linalg.inv(np.linalg.cholesky(0.5 * (G + G.T)))
            bound = np.trace(G) * np.sum(inv * inv)  # >= cond(G)
        except np.linalg.LinAlgError:
            bound = np.inf
        reference = one_shot_by_eigh(factor, phi)
        with monkeypatch.context() as mp:
            orders = counted_eighs(mp)
            eig = one_shot_eigen(factor, phi)
        target = (phi * factor.s_r) @ phi.T
        error = np.abs(reconstruct(eig).values - target).max() / np.abs(target).max()
        gram_error = np.abs(eig.U.T @ eig.U - np.eye(eig.rank)).max()
        if bound <= nystroem._CHOLESKY_COND_LIMIT:
            taken["cholesky"] += 1
            assert orders == [50] and eig.rank == 50
            # CholeskyQR loses orthogonality as eps * cond(G)
            assert gram_error <= 1e-14 * bound
            assert error <= 1e-13
        else:  # bitwise the eigensystem route, whether Cholesky raised or not
            taken["eigh"] += 1
            assert same_eigen(eig, reference)
    assert taken == {"cholesky": 3, "eigh": 5}
    # an exactly duplicated column drops out of the rank
    assert eig.rank == 49 and gram_error <= 1e-12 and error <= 1e-12


@pytest.mark.parametrize("eps", [1e-4, 0.0])
def test_one_shot_reads_the_bound_before_the_rotation(monkeypatch, eps):
    # Cholesky of these Grams succeeds and the bound sends them to the
    # eigensystem route, whose two eigh calls (G's and the rotation's) are
    # then all the call makes
    factor, phi = near_duplicate_features(np.random.default_rng(23), eps)
    orders = counted_eighs(monkeypatch)
    eig = one_shot_eigen(factor, phi)
    assert orders == [50, eig.rank]


@pytest.mark.parametrize("route", ["cholesky", "eigh"])
def test_one_shot_rank_lifts_the_leading_eigenpairs(route):
    rng = np.random.default_rng(31)
    k = random_indefinite(rng, 200, rank=40)
    idx = rng.choice(200, size=30, replace=False)
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    phi = build_feature_map(factor, k.values[:, idx]).phi
    run = one_shot_eigen if route == "cholesky" else one_shot_by_eigh
    full = run(factor, phi)
    assert full.rank == factor.effective_rank == 30
    # None, the rank itself or more: the same bits as no argument
    for rank in (None, 30, 31, 1000):
        assert same_eigen(run(factor, phi, rank), full)
    for rank in (1, 7, 29):
        eig = run(factor, phi, rank)
        assert eig.U.shape == (200, rank) and eig.warning == full.warning
        assert np.array_equal(eig.lam, full.lam[:rank])
        lead = full.U[:, :rank]
        assert np.linalg.norm(eig.U - lead) <= 1e-12 * np.linalg.norm(lead)
        assert_allclose(eig.U.T @ eig.U, np.eye(rank), atol=1e-12)
    with pytest.raises(InvalidInput):
        one_shot_eigen(factor, phi, 0)


def test_sgt_matches_one_shot():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(10, 50))
        m = int(rng.integers(2, 9))
        k = random_indefinite(rng, n)
        idx = rng.choice(n, size=m, replace=False)
        factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
        cross = k.values[:, idx]
        ours = one_shot(factor, cross)
        theirs = sgt_one_shot(factor, cross)
        scale = 1.0 + np.linalg.norm(reconstruct(ours).values, "fro")
        gap = np.linalg.norm(reconstruct(ours).values - reconstruct(theirs).values, "fro")
        assert gap <= 1e-8 * scale
        assert_allclose(np.sort(np.abs(theirs.lam)), np.sort(np.abs(ours.lam)),
                        rtol=1e-8, atol=1e-10 * scale)
        assert_allclose(theirs.U.T @ theirs.U, np.eye(theirs.rank), atol=1e-8)


def test_truncation():
    rng = np.random.default_rng(6)
    k = random_indefinite(rng, 30)
    idx = np.arange(8)
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    cut = truncate_factor(factor, 3)
    assert cut.effective_rank == 3
    assert_allclose(cut.U_r, factor.U_r[:, :3])
    eig = one_shot(factor, k.values[:, idx])
    small = truncate_eigen(eig, 4)
    assert small.rank == 4
    assert_allclose(small.lam, eig.lam[:4])
    # the kept columns are a copy, so the dropped ones are not kept alive
    assert small.U.base is None and np.array_equal(small.U, eig.U[:, :4])
    assert truncate_eigen(eig, eig.rank) is eig
    # truncation keeps the dominant part: error grows as rank shrinks
    full_err = frobenius_error(k, reconstruct(eig))
    small_err = frobenius_error(k, reconstruct(small))
    assert small_err >= full_err - 1e-10


# ---------------------------------------------------------------------------
# accounting


def test_flop_count_formulas():
    for n in (10, 1000, 10**6):
        for m in (1, 10, min(n, 1000)):
            assert flop_count("one_shot", n, m) == 3 * m * m * n + 3 * m**3
            assert flop_count("sgt", n, m) == 7 * m * m * n + 2 * m**3


def test_flop_count_reference_values():
    assert flop_count("one_shot", 10**6, 10**3) == 3_003_000_000_000
    assert flop_count("sgt", 10**6, 10**3) == 7_002_000_000_000


def test_flop_count_validation():
    with pytest.raises(InvalidInput):
        flop_count("one_shot", 10, 20)
    with pytest.raises(InvalidInput):
        flop_count("one_shot", 10, 0)
    with pytest.raises(InvalidInput):
        flop_count("qr", 10, 2)
    with pytest.raises(InvalidInput):
        flop_count("one_shot", 10.5, 2)


def test_frobenius_error_value():
    a = SymMatrix(np.diag([1.0, 2.0]))
    b = SymMatrix(np.diag([1.0, 5.0]))
    assert frobenius_error(a, b) == pytest.approx(3.0)
    with pytest.raises(ShapeError):
        frobenius_error(a, SymMatrix(np.eye(3)))


def test_landmark_set_validation():
    marks = LandmarkSet(indices=np.array([3, 1, 4]))
    assert marks.m == 3
    with pytest.raises(InvalidInput):
        LandmarkSet(indices=np.array([1, 1, 2]))
    with pytest.raises(InvalidInput):
        LandmarkSet(indices=np.array([-1, 2]))
    with pytest.raises(InvalidInput):
        LandmarkSet(indices=None, points=None)
