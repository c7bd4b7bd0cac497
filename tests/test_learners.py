import base64
import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinkit import (
    FeatureMap,
    InvalidInput,
    LandmarkSet,
    LowRankModel,
    ParseError,
    RankDeficient,
    RegPair,
    ShapeError,
    SolverError,
    SymMatrix,
    build_feature_map,
    center_features,
    center_kernel,
    feature_rows,
    fit,
    flip_krr_baseline,
    flip_shsvm_baseline,
    gaussian_diff,
    gram,
    gram_cross,
    krein_krr_full,
    krein_krr_lowrank,
    learner_path,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    factor_sphere_qp,
    sf_lsm_baseline,
    sf_lsm_path,
    sh_svm_lowrank,
    solve_sphere_qp,
    sym_eigen,
    vc_lsm_lowrank,
    vc_lsm_path,
)
from kreinkit import learners, linalg
from kreinkit.learners import _lambda_diag, squared_hinge_gradient, squared_hinge_objective


def random_indefinite(rng, n):
    x = rng.normal(size=(n, n))
    return SymMatrix((x + x.T) / 2.0)


def full_feature_map(K: SymMatrix) -> FeatureMap:
    """Features of the exact factorization (landmarks = all points)."""
    factor = fit(K)
    return build_feature_map(factor, K.values)


def landmark_feature_map(K: SymMatrix, m: int) -> FeatureMap:
    """Features from the first m points as landmarks."""
    return build_feature_map(fit(SymMatrix(K.values[:m, :m])), K.values[:, :m])


def binary_labels(rng, n):
    y = rng.choice([-1.0, 1.0], size=n)
    y[0], y[1] = 1.0, -1.0  # force both classes
    return y


# ---------------------------------------------------------------------------
# regularization pairs


def test_reg_pair_validation():
    RegPair(0.0, 1.0)
    with pytest.raises(InvalidInput):
        RegPair(-1.0, 1.0)
    with pytest.raises(InvalidInput):
        RegPair(np.inf, 1.0)


# ---------------------------------------------------------------------------
# full-rank ridge


def test_krr_full_negative_definite_example():
    eig = sym_eigen(SymMatrix(np.array([[-1.0]])))
    model = krein_krr_full(eig, [1.0], RegPair(1.0, 1.0))
    assert_allclose(model.alpha, [-0.5])


def test_krr_full_split_penalty_frozen():
    # K = diag(2, -3), y = (1, 1), lam = (0.5, 0.25), n = 2
    eig = sym_eigen(SymMatrix(np.diag([2.0, -3.0])))
    model = krein_krr_full(eig, [1.0, 1.0], RegPair(0.5, 0.25))
    assert_allclose(model.alpha, [1.0 / 3.0, -2.0 / 7.0], atol=1e-14)


def test_krr_full_matches_plain_ridge_on_psd():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        a = rng.normal(size=(n, n))
        k = SymMatrix(a @ a.T + 0.1 * np.eye(n))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.01, 2.0))
        model = krein_krr_full(sym_eigen(k), y, RegPair(lam, lam))
        oracle = np.linalg.solve(k.values + n * lam * np.eye(n), y)
        assert_allclose(model.alpha, oracle, atol=1e-9)


def test_flip_krr_frozen():
    eig = sym_eigen(SymMatrix(np.diag([2.0, -3.0])))
    model = flip_krr_baseline(eig, [1.0, 1.0], 0.5)
    assert_allclose(model.alpha, [1.0 / 3.0, 1.0 / 4.0], atol=1e-14)
    assert_allclose(model.coeffs, [1.0 / 3.0, -1.0 / 4.0], atol=1e-14)


def test_flip_krr_equals_krein_krr_with_equal_penalties():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        k = random_indefinite(rng, n)
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.05, 1.0))
        krein = krein_krr_full(sym_eigen(k), y, RegPair(lam, lam))
        flip = flip_krr_baseline(sym_eigen(k), y, lam)
        assert_allclose(flip.predict_training(), k.values @ krein.alpha, atol=1e-9)
        k_new = rng.normal(size=(4, n))
        assert_allclose(flip.predict(k_new), krein.predict(k_new), atol=1e-9)


# ---------------------------------------------------------------------------
# feature maps


def test_feature_rows_shared_between_train_and_predict():
    rng = np.random.default_rng(2)
    k = random_indefinite(rng, 12)
    idx = np.arange(5)
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    fmap = build_feature_map(factor, k.values[:, idx])
    assert_allclose(feature_rows(factor, k.values[:, idx]), fmap.phi, atol=0)
    # a single row comes back one-dimensional
    row = feature_rows(factor, k.values[3, idx])
    assert row.shape == (factor.effective_rank,)
    assert_allclose(row, fmap.phi[3], atol=0)


def test_feature_rows_fold_the_signs_exactly():
    # the signs may scale the projection or the product: +-1 is exact
    rng = np.random.default_rng(14)
    k = random_indefinite(rng, 40)
    idx = np.arange(12)
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    assert set(factor.s_r.tolist()) == {-1.0, 1.0}
    cross = k.values[:, idx]

    def product_then_signs(rows):
        return (rows @ (factor.U_r / np.sqrt(np.abs(factor.d_r)))) * factor.s_r

    assert np.array_equal(feature_rows(factor, cross), product_then_signs(cross))
    assert np.array_equal(feature_rows(factor, cross[7]), product_then_signs(cross[7]))
    fmap = center_features(build_feature_map(factor, cross))
    assert np.array_equal(fmap.phi, product_then_signs(cross) - fmap.mean)
    # held-out rows are centred as the training rows are: the decisions of the
    # unit weight vectors are the centred feature rows
    unit = np.eye(fmap.rank)
    assert np.array_equal(fmap.decisions(cross, unit), fmap.phi)
    assert np.array_equal(fmap.decisions(cross[7], unit),
                          product_then_signs(cross[7]) - fmap.mean)


def test_feature_rows_allocate_only_their_output(peak_bytes):
    rng = np.random.default_rng(15)
    k = random_indefinite(rng, 50)
    factor = fit(k)
    cross = rng.normal(size=(20000, 50))
    out = 20000 * factor.effective_rank * 8
    assert peak_bytes(lambda: feature_rows(factor, cross)) <= 1.1 * out


def test_predict_allocates_only_its_output(peak_bytes):
    rng = np.random.default_rng(16)
    n, m = 60000, 40
    factor = fit(random_indefinite(rng, m))
    r = factor.effective_rank
    fmap = FeatureMap(phi=np.zeros((0, r)), signs=np.array(factor.s_r), factor=factor,
                      mean=rng.normal(size=r))
    model = LowRankModel(z=rng.normal(size=r), map=fmap, learner="vclsm",
                         reg=RegPair(0.1, 0.1))
    k = rng.normal(size=(n, m))
    assert peak_bytes(lambda: model.predict(k)) <= 1.1 * n * 8


def test_predict_is_the_landmark_expansion():
    # predict(k) = k' alpha - mu' z with alpha = U_r |d_r|^{-1/2} diag(s_r) z,
    # summed row by row, so a row's value does not depend on its company
    rng = np.random.default_rng(17)
    k = random_indefinite(rng, 90)
    y = rng.normal(size=90)
    fmap = landmark_feature_map(k, 30)
    factor = fmap.factor
    rows = np.ascontiguousarray(k.values[:, :30])
    proj = factor.U_r / np.sqrt(np.abs(factor.d_r)) * factor.s_r
    for model in (krein_krr_lowrank(fmap, y, RegPair(0.1, 0.2)),
                  vc_lsm_lowrank(center_features(fmap), y, RegPair(0.1, 0.2), 2.0)):
        whole = model.predict(rows)
        offset = 0.0 if model.map.mean is None else model.map.mean @ model.z
        assert np.array_equal(whole, np.einsum("ij,j->i", rows, proj @ model.z) - offset)
        assert_allclose(whole, model.map.phi @ model.z, rtol=0,
                        atol=1e-12 * np.abs(model.map.phi @ model.z).max())
        assert all(model.predict(rows[i]) == whole[i] for i in range(90))
        for width in (1, 2, 37):
            for start in range(0, 90, width):
                assert np.array_equal(model.predict(rows[start:start + width]),
                                      whole[start:start + width])
        with pytest.raises(ShapeError):
            model.predict(rows[:, :29])


def test_low_rank_predictions_reproduce_training_scores():
    rng = np.random.default_rng(3)
    k = random_indefinite(rng, 15)
    idx = np.arange(6)
    fmap = build_feature_map(fit(SymMatrix(k.values[np.ix_(idx, idx)])),
                             k.values[:, idx])
    y = rng.normal(size=15)
    model = krein_krr_lowrank(fmap, y, RegPair(0.1, 0.1))
    assert_allclose(model.predict(k.values[:, idx]), fmap.phi @ model.z, atol=1e-12)


# ---------------------------------------------------------------------------
# low-rank ridge


def test_krr_lowrank_scalar_example():
    fmap = FeatureMap(phi=np.array([[1.0]]), signs=np.array([1.0]), factor=None)
    model = krein_krr_lowrank(fmap, [1.0], RegPair(0.5, 0.5))
    assert_allclose(model.z, [2.0 / 3.0])


def test_krr_lowrank_matches_full_with_all_landmarks():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(4, 25))
        k = random_indefinite(rng, n)
        y = rng.normal(size=n)
        reg = RegPair(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
        fmap = full_feature_map(k)
        low = krein_krr_lowrank(fmap, y, reg)
        full = krein_krr_full(sym_eigen(k), y, reg)
        assert_allclose(low.predict(k.values), k.values @ full.alpha, atol=1e-8)


# ---------------------------------------------------------------------------
# variance-constrained least squares


def test_vclsm_hits_the_sphere():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(5, 30))
        k = random_indefinite(rng, n)
        fmap = full_feature_map(k)
        y = rng.normal(size=n)
        r = float(rng.uniform(0.2, 5.0))
        model = vc_lsm_lowrank(fmap, y, RegPair(0.1, 0.2), r)
        assert np.linalg.norm(fmap.phi @ model.z) == pytest.approx(r, rel=1e-8)
        assert model.r_constraint == r
        assert model.diagnostics["constraint_residual"] <= 1e-8 * r


def test_vclsm_beats_random_feasible_points():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        k = random_indefinite(rng, n)
        fmap = full_feature_map(k)
        y = rng.normal(size=n)
        r = 1.3
        reg = RegPair(0.3, 0.1)
        model = vc_lsm_lowrank(fmap, y, reg, r)

        def objective(z):
            lam = np.where(fmap.signs > 0, reg.lam_pos, reg.lam_neg)
            return (np.linalg.norm(fmap.phi @ z - y) ** 2
                    + n * float(lam @ (z * z)))

        best = objective(model.z)
        # random points on the constraint sphere, mapped back to weights
        svd = np.linalg.svd(fmap.phi, full_matrices=False)
        for _ in range(200):
            gamma = rng.normal(size=n)
            gamma *= r / np.linalg.norm(gamma)
            z = (svd.Vh.T / svd.S) @ gamma
            assert best <= objective(z) + 1e-6 * max(1.0, abs(best))


def test_vclsm_trains_rank_deficient_features_on_their_range():
    rng = np.random.default_rng(8)
    phi = np.outer(rng.normal(size=12), [1.0, 2.0, -1.0])  # rank 1
    fmap = FeatureMap(phi=phi, signs=np.array([1.0, -1.0, 1.0]), factor=None)
    y = rng.normal(size=12)
    reg, r = RegPair(0.3, 0.1), 1.7
    model = vc_lsm_lowrank(fmap, y, reg, r)
    assert np.linalg.norm(phi @ model.z) == pytest.approx(r, rel=1e-10)
    # z lies in the row space of phi: no part of it along null(phi)
    _, _, vh = np.linalg.svd(phi)
    null = vh[1:]
    assert np.abs(null @ model.z).max() <= 1e-12 * np.linalg.norm(model.z)
    lam = _lambda_diag(reg, fmap.signs)

    def objective(z):
        return 12 * float(lam @ (z * z)) - 2.0 * float(z @ (phi.T @ y))

    # a rank-1 range holds two feasible points, +-r along its direction
    feasible = [s * r / np.linalg.norm(phi @ vh[0]) * vh[0] for s in (1.0, -1.0)]
    best = objective(model.z)
    assert all(best <= objective(z) + 1e-12 * abs(best) for z in feasible)
    assert min(objective(z) for z in feasible) == pytest.approx(best, rel=1e-12)


def test_vclsm_rejects_all_zero_features():
    # no z meets ||Phi z|| = r
    fmap = FeatureMap(phi=np.zeros((3, 2)), signs=np.array([1.0, 1.0]), factor=None)
    with pytest.raises(RankDeficient):
        vc_lsm_lowrank(fmap, [1.0, -1.0, 1.0], RegPair(0.1, 0.1), 1.0)


def test_vclsm_validation():
    fmap = FeatureMap(phi=np.eye(3), signs=np.ones(3), factor=None)
    with pytest.raises(InvalidInput):
        vc_lsm_lowrank(fmap, [1.0, 1.0, -1.0], RegPair(0.1, 0.1), 0.0)
    fmap = FeatureMap(phi=np.diag([1.0, np.nan, 1.0]), signs=np.ones(3), factor=None)
    with pytest.raises(InvalidInput):
        vc_lsm_lowrank(fmap, [1.0, 1.0, -1.0], RegPair(0.1, 0.1), 1.0)


# ---------------------------------------------------------------------------
# squared-hinge SVM


def test_shsvm_stationary_point():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(6, 40))
        k = random_indefinite(rng, n)
        fmap = full_feature_map(k)
        y = binary_labels(rng, n)
        reg = RegPair(0.2, 0.3)
        model = sh_svm_lowrank(fmap, y, reg)
        lam = np.where(fmap.signs > 0, reg.lam_pos, reg.lam_neg)
        g = squared_hinge_gradient(fmap.phi, y, lam, float(n), model.z)
        assert np.linalg.norm(g) <= 1e-7 * max(1.0, n)
        assert model.diagnostics["iterations"] <= 100


def test_shsvm_objective_locally_minimal():
    rng = np.random.default_rng(8)
    k = random_indefinite(rng, 20)
    fmap = full_feature_map(k)
    y = binary_labels(rng, 20)
    reg = RegPair(0.5, 0.5)
    model = sh_svm_lowrank(fmap, y, reg)
    lam = np.where(fmap.signs > 0, reg.lam_pos, reg.lam_neg)
    best = squared_hinge_objective(fmap.phi, y, lam, 20.0, model.z)
    for _ in range(100):
        z = model.z + rng.normal(size=model.z.size) * 0.1
        assert best <= squared_hinge_objective(fmap.phi, y, lam, 20.0, z) + 1e-10


def test_shsvm_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(15, 4))
    y = binary_labels(rng, 15)
    lam = np.array([0.1, 0.2, 0.1, 0.3])
    z = rng.normal(size=4)
    g = squared_hinge_gradient(phi, y, lam, 15.0, z)
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        num = (squared_hinge_objective(phi, y, lam, 15.0, z + e)
               - squared_hinge_objective(phi, y, lam, 15.0, z - e)) / (2 * h)
        assert g[j] == pytest.approx(num, rel=1e-5, abs=1e-8)


def test_shsvm_gradient_scales_the_r_vector_exactly():
    rng = np.random.default_rng(16)
    for n, m in [(300, 7), (20000, 50)]:
        phi = rng.normal(size=(n, m))
        y = binary_labels(rng, n)
        lam = rng.uniform(0.1, 1.0, size=m)
        z = rng.normal(size=m) / np.sqrt(m)
        margin = 1.0 - y * (phi @ z)
        v = y * np.where(margin > 0.0, margin, 0.0)
        old = -2.0 * phi.T @ v + 2.0 * float(n) * lam * z
        assert np.array_equal(squared_hinge_gradient(phi, y, lam, float(n), z), old)


def test_active_gram_sums_full_partial_and_empty_blocks(monkeypatch):
    rng = np.random.default_rng(17)
    phi = rng.normal(size=(223, 7))
    monkeypatch.setattr(linalg, "_ROW_BLOCK_ELEMENTS", 64 * 7)  # 64 rows
    active = rng.random(223) < 0.5
    active[:64] = True
    active[64:128] = False
    rows = phi[active]
    assert_allclose(learners._row_gram(phi, active), rows.T @ rows, rtol=1e-12, atol=0)
    assert_allclose(learners._row_gram(phi), phi.T @ phi, rtol=1e-12, atol=0)
    empty = learners._row_gram(phi, np.zeros(223, dtype=bool))
    assert np.array_equal(empty, np.zeros((7, 7)))


def _dense_gram(features, rows=None, less=None):
    """What `learners._row_gram` sums, in one product and from zero: with
    ``less`` = F' F, less - F_R' F_R is the sum over the other rows."""
    if rows is not None:
        features = features[rows if less is None else ~rows]
    return features.T @ features


def test_shsvm_newton_sums_the_hessian_over_row_blocks(monkeypatch):
    rng = np.random.default_rng(18)
    m = 32
    step = linalg._ROW_BLOCK_ELEMENTS // m
    n = 3 * step + step // 3
    assert next(linalg.row_blocks(n, m)) == (0, step)
    phi = rng.normal(size=(n, m))
    y = np.sign(phi @ rng.normal(size=m))
    y[rng.random(n) < 0.1] *= -1.0
    phi[:step] *= 1e-3  # every margin of the first block stays positive
    fmap = FeatureMap(phi=phi, signs=np.where(np.arange(m) % 3 == 0, -1.0, 1.0), factor=None)
    reg = RegPair(1e-3, 2e-3)
    model = sh_svm_lowrank(fmap, y, reg)
    active = 1.0 - y * (phi @ model.z) > 0.0
    blocks = [active[start:start + step] for start in range(0, n, step)]
    assert len(blocks) >= 4 and blocks[0].all()
    assert sum(not b.all() and b.any() for b in blocks) >= 3
    monkeypatch.setattr(learners, "_row_gram", _dense_gram)  # a dense Gram every step
    reference = sh_svm_lowrank(fmap, y, reg)
    assert model.diagnostics["iterations"] == reference.diagnostics["iterations"]
    assert_allclose(model.z, reference.z, rtol=1e-12, atol=0)


def test_shsvm_scratch_is_bounded(peak_bytes):
    rng = np.random.default_rng(19)
    phi = rng.normal(size=(40000, 50))
    y = np.sign(phi @ rng.normal(size=50))
    y[rng.random(40000) < 0.1] *= -1.0
    fmap = FeatureMap(phi=phi, signs=np.ones(50), factor=None)
    assert peak_bytes(lambda: sh_svm_lowrank(fmap, y, RegPair(1e-3, 1e-3))) <= 0.5 * phi.nbytes


def test_row_gram_subtracts_rows_from_the_gram(monkeypatch):
    rng = np.random.default_rng(53)
    phi = rng.normal(size=(223, 7))
    monkeypatch.setattr(linalg, "_ROW_BLOCK_ELEMENTS", 64 * 7)  # 64 rows
    gram = learners._row_gram(phi)
    before = gram.copy()
    some = rng.random(223) < 0.3
    some[64:128] = False  # a block with no row to subtract
    some[128:192] = True  # a block whose rows are all subtracted
    for rows in (np.zeros(223, bool), some, np.ones(223, bool)):
        less = learners._row_gram(phi, rows, less=gram)
        assert np.array_equal(gram, before)  # the Gram is read, never written
        if not rows.any():
            assert np.array_equal(less, gram)
        assert np.array_equal(less, less.T)
        assert_allclose(less, learners._row_gram(phi, ~rows), rtol=0,
                        atol=1e-12 * np.abs(gram).max())


def _newton_case(seed):
    """A small squared-hinge problem with features scaled over decades and a
    start 0.01 to 100 times a standard normal draw."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(10, 80)), int(rng.integers(1, 5))
    phi = rng.normal(size=(n, m)) * np.exp(2.0 * rng.normal(size=m))
    y = np.sign(phi @ rng.normal(size=m))
    y[rng.random(n) < 0.3] *= -1.0
    lam = 1e-2 * np.exp(3.0 * rng.normal(size=m))
    return phi, y, lam, rng.normal(size=m) * 10.0 ** rng.uniform(-2, 2)


def _cold_case():
    # from z = 0 every row is active, and a few leave at each later step
    rng = np.random.default_rng(54)
    phi = rng.normal(size=(2000, 20))
    y = np.sign(phi @ rng.normal(size=20))
    y[rng.random(2000) < 0.15] *= -1.0
    return phi, y, np.full(20, 1e-2), None


def test_shsvm_hessian_updates_match_recomputes(monkeypatch):
    steps = []  # per Newton step: its active set, and whether F' F was reduced
    original = learners._row_gram

    def recorded(features, rows=None, less=None):
        gram = original(features, rows, less)
        active = rows if less is None else ~rows
        steps.append((active, less is not None))
        # either side of the active set gives its Gram from zero to round-off
        assert_allclose(gram, _dense_gram(features, active), rtol=0,
                        atol=1e-12 * np.abs(less if less is not None else gram).max())
        return gram

    kinds, sides = set(), set()
    # rows only leave from a cold start; 1 has rows only enter, 4 both; 676 and
    # 1441 each take a step after which no row has changed status
    for phi, y, lam, start in [_cold_case(), *map(_newton_case, (1, 4, 676, 1441))]:
        monkeypatch.setattr(learners, "_row_gram", recorded)
        del steps[:]
        z, info = learners._newton_squared_hinge(phi, original(phi), y, lam, float(len(y)), start)
        sides.update(reduced for _, reduced in steps)
        for (before, _), (after, _) in zip(steps, steps[1:]):
            entered, left = (after & ~before).any(), (before & ~after).any()
            kinds.add({(True, False): "enter", (False, True): "leave",
                       (True, True): "both", (False, False): "none"}[entered, left])
        monkeypatch.setattr(learners, "_row_gram", _dense_gram)  # a dense Gram every step
        reference, reference_info = learners._newton_squared_hinge(
            phi, phi.T @ phi, y, lam, float(len(y)), start)
        assert info["iterations"] == reference_info["iterations"]
        assert_allclose(z, reference, rtol=1e-12, atol=0)
    assert kinds == {"enter", "leave", "both", "none"} and sides == {True, False}


def test_shsvm_grid_forms_the_gram_once_and_sums_the_smaller_side(monkeypatch):
    rng = np.random.default_rng(75)
    n = 60
    fmap = landmark_feature_map(random_indefinite(rng, n), 40)
    y = binary_labels(rng, n)
    sums = []  # per call: the rows it sums, and the Gram it reduces
    original = learners._row_gram

    def counted(features, rows=None, less=None):
        sums.append((n if rows is None else np.count_nonzero(rows), less))
        return original(features, rows, less)

    monkeypatch.setattr(learners, "_row_gram", counted)
    _, solve, _ = learner_path("shsvm", fmap, y)
    models = [solve(RegPair(lp, ln)) for lp in _GRID for ln in _GRID]
    # Phi' Phi over all n rows once, by the grid's first solve, then one sum
    # per Newton step
    assert sums[0] == (n, None)
    steps = sums[1:]
    assert len(steps) == sum(model.diagnostics["iterations"] for model in models)
    assert all(less is None or less is fmap.gram for _, less in steps)
    # a step sums min(|A|, |I|) rows: the active ones from zero, or the
    # inactive ones out of Phi' Phi
    assert all(2 * summed <= n for summed, _ in steps)
    assert {less is None for _, less in steps} == {True, False}


def test_hessian_update_scratch_is_one_block(peak_bytes, monkeypatch):
    rng = np.random.default_rng(55)
    n, m = 40000, 50
    phi = rng.normal(size=(n, m))
    monkeypatch.setattr(linalg, "_ROW_BLOCK_ELEMENTS", 1024 * m)  # 1024 rows
    one_block = 1024 * m * 8
    gram = learners._row_gram(phi)
    # a whole block of inactive rows next to a block of active rows only, and
    # further inactive rows up to just under half the rows
    inactive = rng.random(n) < 0.49
    inactive[:1024] = True
    inactive[1024:2048] = False
    assert 0.45 * n < np.count_nonzero(inactive) < 0.5 * n
    # one block's rows at a time: no two blocks' copies at once, and not all
    # the summed rows, 0.49 phi; whichever side is summed
    for less in (gram, None):
        assert peak_bytes(lambda: learners._row_gram(phi, inactive, less)) <= 1.25 * one_block
    assert_allclose(learners._row_gram(phi, inactive, gram), learners._row_gram(phi, ~inactive),
                    rtol=0, atol=1e-12 * np.abs(gram).max())


def test_shsvm_newton_forms_each_candidates_margins_once():
    rng = np.random.default_rng(47)
    n, m = 300, 12
    phi = rng.normal(size=(n, m))
    y = np.sign(phi @ rng.normal(size=m))
    y[rng.random(n) < 0.1] *= -1.0
    lam = np.full(m, 1e-3)
    products = []

    class Counted(np.ndarray):
        # records the vector of every n x m product F z
        def __matmul__(self, other):
            if self.shape == (n, m) and np.ndim(other) == 1:
                products.append(np.array(other))
            return np.asarray(self) @ other

    gram = learners._row_gram(phi)
    z, info = learners._newton_squared_hinge(phi.view(Counted), gram, y, lam, float(n))
    reference, reference_info = learners._newton_squared_hinge(phi, gram, y, lam, float(n))
    assert np.array_equal(z, reference) and info == reference_info
    assert info["iterations"] >= 3
    # the start point, then one product per line-search candidate and none for
    # the accepted iterate's gradient or active set
    assert len(products) == 1 + info["iterations"]
    assert len({v.tobytes() for v in products}) == len(products)


def test_shsvm_label_validation():
    fmap = FeatureMap(phi=np.eye(3), signs=np.ones(3), factor=None)
    with pytest.raises(InvalidInput):
        sh_svm_lowrank(fmap, [1.0, 2.0, -1.0], RegPair(0.1, 0.1))
    with pytest.raises(InvalidInput):
        sh_svm_lowrank(fmap, [1.0, 1.0, 1.0], RegPair(0.1, 0.1))
    with pytest.raises(InvalidInput):
        sh_svm_lowrank(fmap, [1.0, -1.0, 1.0], RegPair(0.0, 0.1))


def test_flip_shsvm_equals_krein_with_equal_penalties():
    rng = np.random.default_rng(10)
    for _ in range(8):
        n = int(rng.integers(8, 40))
        k = random_indefinite(rng, n)
        fmap = full_feature_map(k)
        y = binary_labels(rng, n)
        lam = float(rng.uniform(0.1, 1.0))
        ours = sh_svm_lowrank(fmap, y, RegPair(lam, lam))
        flip = flip_shsvm_baseline(fmap, y, lam)
        assert_allclose(fmap.phi @ flip.z, fmap.phi @ ours.z, atol=1e-7)
        assert flip.learner == "flip-shsvm"


def test_label_flip_symmetry():
    # negating the labels negates ridge and squared-hinge solutions
    rng = np.random.default_rng(11)
    k = random_indefinite(rng, 18)
    fmap = full_feature_map(k)
    y = binary_labels(rng, 18)
    for train in (lambda yy: krein_krr_lowrank(fmap, yy, RegPair(0.2, 0.4)),
                  lambda yy: sh_svm_lowrank(fmap, yy, RegPair(0.2, 0.4))):
        assert_allclose(train(-y).z, -train(y).z, atol=1e-8)


# ---------------------------------------------------------------------------
# similarities-as-features baseline


def test_sf_lsm_identity_example():
    model = sf_lsm_baseline(SymMatrix(np.eye(2)), [1.0, -1.0], 1.0)
    assert_allclose(model.w, [0.5, -0.5])  # plain lam, not n lam
    assert_allclose(model.predict(np.eye(2)), [0.5, -0.5])


def test_sf_lsm_matches_normal_equations():
    rng = np.random.default_rng(12)
    k = random_indefinite(rng, 10)
    y = rng.normal(size=10)
    model = sf_lsm_baseline(k, y, 0.3)
    oracle = np.linalg.solve(k.values.T @ k.values + 0.3 * np.eye(10),
                             k.values.T @ y)
    assert_allclose(model.w, oracle, atol=1e-10)


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip_bitwise():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(20, 3))
    k = gram(gaussian_diff(1.0, 3.0), x)
    idx = np.arange(8)
    factor = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    fmap = build_feature_map(factor, k.values[:, idx])
    y = binary_labels(rng, 20)
    model = sh_svm_lowrank(fmap, y, RegPair(0.2, 0.1))
    payload = model_to_dict(model, gaussian_diff(1.0, 3.0))
    assert payload["schema_version"] == 3
    restored, spec = model_from_dict(payload)
    assert spec == gaussian_diff(1.0, 3.0)
    rows = k.values[[3, 11, 19]][:, idx]
    assert np.array_equal(restored.predict(rows), model.predict(rows))


def _as_lists(payload):
    """A schema-3 payload with its packed arrays as nested lists, the layout
    of schemas 1 and 2."""
    if isinstance(payload, dict):
        if set(payload) == {"dtype", "shape", "data"}:
            raw = base64.b64decode(payload["data"])
            return np.frombuffer(raw, dtype=payload["dtype"]).reshape(payload["shape"]).tolist()
        return {key: _as_lists(value) for key, value in payload.items()}
    return payload


def _model_arrays(model):
    factor = model.map.factor
    arrays = {"z": model.z, "feature_mean": model.map.mean, "U": factor.eig.U,
              "d": factor.eig.d, "s": factor.eig.s}
    lm = factor.landmarks
    if lm is not None:
        arrays.update(indices=lm.indices, points=lm.points, multiplicity=lm.multiplicity)
    return arrays


def test_packed_model_arrays_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(48)
    k = random_indefinite(rng, 30)
    y = rng.normal(size=30)
    idx = np.array([0, 4, 9, 11, 20, 21, 27, 29])
    base = fit(SymMatrix(k.values[np.ix_(idx, idx)]))
    by_index = replace(base, landmarks=LandmarkSet(indices=idx, multiplicity=np.arange(1, 9),
                                                   requested=9))
    by_point = replace(base, landmarks=LandmarkSet(points=rng.normal(size=(8, 3))))
    for factor, centred in ((by_index, False), (by_point, True)):
        fmap = build_feature_map(factor, k.values[:, idx])
        model = vc_lsm_lowrank(center_features(fmap) if centred else fmap, y,
                               RegPair(0.3, 0.2), 2.0)
        payload = model_to_dict(model)
        assert payload["schema_version"] == 3
        assert payload["z"]["dtype"] == "<f8" and payload["z"]["shape"] == [model.z.size]
        save_model(tmp_path / "model.json", model)
        for restored, _ in (model_from_dict(payload), load_model(tmp_path / "model.json")):
            for name, a in _model_arrays(model).items():
                b = _model_arrays(restored)[name]
                assert (a is None) == (b is None), name
                if a is not None:
                    assert b.dtype == a.dtype and np.array_equal(b, a), name
                    assert b.tobytes() == np.ascontiguousarray(a).tobytes(), name
            assert restored.map.factor.landmarks.requested == factor.landmarks.requested
            rows = k.values[:, idx]
            assert np.array_equal(restored.predict(rows), model.predict(rows))


def test_schema_2_model_files_load_as_before():
    rng = np.random.default_rng(49)
    k = random_indefinite(rng, 14)
    factor = replace(fit(SymMatrix(k.values[:9, :9])),
                     landmarks=LandmarkSet(indices=np.arange(9), multiplicity=np.full(9, 2)))
    fmap = build_feature_map(factor, k.values[:, :9])
    y = binary_labels(rng, 14)
    reg = RegPair(0.3, 0.2)
    rows = k.values[:, :9]
    for model in (sh_svm_lowrank(fmap, y, reg), vc_lsm_lowrank(center_features(fmap), y, reg, 2.0)):
        payload = _as_lists(model_to_dict(model))
        payload["schema_version"] = 2
        assert isinstance(payload["z"], list) and isinstance(payload["factor"]["U"], list)
        restored, _ = model_from_dict(json.loads(json.dumps(payload)))
        for name, a in _model_arrays(model).items():
            b = _model_arrays(restored)[name]
            assert (a is None and b is None) or np.array_equal(a, b), name
        assert np.array_equal(restored.predict(rows), model.predict(rows))


def test_model_file_packs_its_arrays(tmp_path):
    # m = 400: the file is the base64 of its arrays' bytes (4/3 of them) plus
    # a few hundred bytes of plain JSON, not text floats
    rng = np.random.default_rng(50)
    x = rng.normal(size=(600, 4))
    idx = rng.choice(600, size=400, replace=False)
    kernel = gaussian_diff(1.0, 3.0)
    cross = gram_cross(kernel, x, x[idx])
    factor = replace(fit(SymMatrix(cross[idx])), landmarks=LandmarkSet(indices=idx))
    model = sh_svm_lowrank(build_feature_map(factor, cross), binary_labels(rng, 600),
                           RegPair(0.1, 0.1))
    save_model(tmp_path / "model.json", model, kernel)
    raw = sum(a.nbytes for a in _model_arrays(model).values() if a is not None)
    assert raw >= 400 * 400 * 8
    assert (tmp_path / "model.json").stat().st_size <= 1.4 * raw


def _packed(a, dtype="<f8"):
    return {"dtype": dtype, "shape": list(np.shape(a)),
            "data": base64.b64encode(np.asarray(a, dtype=dtype).tobytes()).decode()}


def _broken_payloads(payload):
    """(what is wrong, a copy of ``payload`` with that fault)"""
    def edit(path, value):
        copy = json.loads(json.dumps(payload))
        node = copy
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return copy

    z = payload["z"]
    nan_z = np.ones(z["shape"][0])
    nan_z[1] = np.nan
    return [
        ("missing key", edit(["factor", "U"], None)),
        ("missing key", edit(["reg"], None)),
        ("missing key", edit(["z", "data"], None)),
        ("unknown dtype", edit(["z"], {**z, "dtype": "<f4"})),
        ("unknown dtype", edit(["factor", "landmarks", "indices", "dtype"], "<f8")),
        ("bad base64", edit(["z", "data"], z["data"][:-1] + "!")),
        ("bad base64", edit(["z", "data"], 17)),
        ("byte count", edit(["z", "shape"], [z["shape"][0] + 1])),
        ("byte count", edit(["factor", "U", "shape"], [3, 3])),
        ("byte count", edit(["z", "data"], base64.b64encode(bytes(7)).decode())),
        ("bad shape", edit(["z", "shape"], [-1])),
        ("shapes disagree", edit(["z"], _packed(np.ones(2)))),
        ("shapes disagree", edit(["factor", "effective_rank"], 99)),
        ("non-finite", edit(["z"], _packed(nan_z))),
        ("non-finite", edit(["factor", "d"], _packed(np.full(8, np.inf)))),
        ("not a list", edit(["factor", "s"], "abc")),
        ("bad scalar", edit(["factor", "tau_zero"], "x")),
        ("bad schema", edit(["schema_version"], 4)),
    ]


def test_malformed_model_files_raise_typed_errors(tmp_path):
    rng = np.random.default_rng(51)
    k = random_indefinite(rng, 12)
    fmap = landmark_feature_map(k, 8)
    payload = model_to_dict(sh_svm_lowrank(fmap, binary_labels(rng, 12), RegPair(0.1, 0.2)))
    payload["factor"]["landmarks"] = {"indices": _packed(np.arange(8), "<i8"),
                                      "points": None, "multiplicity": None, "requested": 8}
    model_from_dict(payload)
    for what, broken in _broken_payloads(payload):
        with pytest.raises(ShapeError if what == "shapes disagree" else InvalidInput):
            model_from_dict(broken)
    lists = {**_as_lists(payload), "schema_version": 2}
    model_from_dict(lists)
    for missing in ("z", "reg", "factor"):
        with pytest.raises(InvalidInput):
            model_from_dict({key: v for key, v in lists.items() if key != missing})
    for z in ([[1.0], [2.0, 3.0]], ["a"], [float("nan")] * len(lists["z"]), {"a": 1}):
        with pytest.raises((InvalidInput, ShapeError)):
            model_from_dict({**lists, "z": z})
    with pytest.raises(InvalidInput):
        model_from_dict([1, 2])
    path = tmp_path / "model.json"
    for text in ("{", "not json", '{"z": [1, 2'):
        path.write_text(text)
        with pytest.raises(ParseError):
            load_model(path)
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError):
        load_model(path)
    with pytest.raises(ParseError):
        load_model(tmp_path / "absent.json")
    path.write_text("[]")
    with pytest.raises(InvalidInput):
        load_model(path)


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    k = random_indefinite(rng, 12)
    y = rng.normal(size=12)
    for fmap in (full_feature_map(k), center_features(landmark_feature_map(k, 8))):
        model = vc_lsm_lowrank(fmap, y, RegPair(0.3, 0.2), 2.0)
        path = tmp_path / "model.json"
        save_model(path, model)
        restored, spec = load_model(path)
        assert spec is None
        assert restored.learner == "vclsm"
        assert restored.r_constraint == 2.0
        rows = k.values[:, :fmap.factor.m]
        assert np.array_equal(restored.predict(rows), model.predict(rows))
        # predict is the landmark expansion, equal to Phi z to round-off
        scored = fmap.phi @ model.z
        assert np.abs(restored.predict(rows) - scored).max() <= 1e-12 * np.abs(scored).max()


def test_schema_1_model_files():
    # schema 1 stored no feature mean: its lsm and shsvm models load and
    # predict as before, and its vclsm models, trained on a centred kernel
    # that the file does not hold, are refused
    rng = np.random.default_rng(15)
    k = random_indefinite(rng, 12)
    fmap = landmark_feature_map(k, 8)
    y = binary_labels(rng, 12)
    reg = RegPair(0.3, 0.2)
    for model in (krein_krr_lowrank(fmap, y, reg), sh_svm_lowrank(fmap, y, reg),
                  vc_lsm_lowrank(center_features(fmap), y, reg, 2.0)):
        payload = _as_lists(model_to_dict(model))
        payload["schema_version"] = 1
        del payload["feature_mean"]
        if model.learner == "vclsm":
            with pytest.raises(InvalidInput):
                model_from_dict(payload)
        else:
            restored, _ = model_from_dict(payload)
            rows = k.values[:, :8]
            assert np.array_equal(restored.predict(rows), model.predict(rows))


def test_centred_features_centre_the_kernel_at_full_landmarks():
    rng = np.random.default_rng(16)
    k = random_indefinite(rng, 16)
    fmap = center_features(full_feature_map(k))
    assert_allclose((fmap.phi * fmap.signs) @ fmap.phi.T, center_kernel(k).values,
                    rtol=0, atol=1e-12)
    # other rows are shifted by the training mean, so the training rows return
    # as the decisions of the unit weight vectors
    assert np.array_equal(fmap.decisions(k.values, np.eye(fmap.rank)), fmap.phi)


def test_learner_path_trains_as_the_solvers_do():
    rng = np.random.default_rng(43)
    n = 24
    fmap = landmark_feature_map(random_indefinite(rng, n), 10)
    y = binary_labels(rng, n)
    reg = RegPair(0.05, 0.2)
    for learner, solver in (("lsm", krein_krr_lowrank), ("shsvm", sh_svm_lowrank)):
        trained_on, solve, _ = learner_path(learner, fmap, y)
        assert trained_on is fmap
        for r in (None, 2.5):  # ignored
            assert np.array_equal(solve(reg, r).z, solver(fmap, y, reg).z)
    centred, solve, _ = learner_path("vclsm", fmap, y)
    assert np.array_equal(centred.phi, center_features(fmap).phi)
    assert np.array_equal(centred.mean, center_features(fmap).mean)
    for r in (2.5, None):
        model = solve(reg, r)
        target = float(np.sqrt(n) * np.std(y)) if r is None else r
        assert model.r_constraint == target
        assert np.array_equal(model.z, vc_lsm_lowrank(centred, y, reg, target).z)
    with pytest.raises(InvalidInput):
        learner_path("svm", fmap, y)


# ---------------------------------------------------------------------------
# work shared along the hyperparameter path: the same arithmetic, per call


def test_vclsm_path_matches_a_fresh_solve_per_radius():
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(6, 20))
        k = random_indefinite(rng, n)
        idx = np.arange(n // 2 + 1)
        fmap = build_feature_map(fit(SymMatrix(k.values[np.ix_(idx, idx)])),
                                 k.values[:, idx])
        y = binary_labels(rng, n)
        reg = RegPair(float(rng.uniform(1e-3, 1.0)), float(rng.uniform(1e-3, 1.0)))
        solve, _ = vc_lsm_path(fmap, y)
        sigma, B = fmap.svd
        # the SVD of phi, taken from its R factor
        dense = np.linalg.svd(fmap.phi, compute_uv=False)
        assert_allclose(sigma, dense, rtol=1e-12, atol=1e-12 * dense[0])
        assert_allclose(B.T @ B, np.eye(fmap.rank), atol=1e-12)
        assert_allclose(np.linalg.norm(fmap.phi @ B, axis=0), sigma, rtol=1e-10)
        for r in (0.5, 1.0, 2.0):
            # everything rebuilt for this radius alone: the W of reg's penalty
            # ratio, its eigenvalues scaled by s
            lam = _lambda_diag(reg, fmap.signs)
            key, s = _ratio(reg)
            scaled = B / sigma[None, :]
            W = n * (scaled.T * _lambda_diag(key, fmap.signs)[None, :]) @ scaled
            b = scaled.T @ (fmap.phi.T @ y)  # A' y with A = phi B / sigma
            gamma = solve_sphere_qp(factor_sphere_qp(W, b), r, tol=1e-12, scale=s)
            z = scaled @ gamma
            model = solve(reg, r)
            assert np.array_equal(model.z, z)
            assert np.array_equal(vc_lsm_lowrank(fmap, y, reg, r).z, z)
            assert model.diagnostics["objective"] == float(
                n * lam @ (z * z) - 2.0 * (z @ (fmap.phi.T @ y)))


_GRID = [10.0 ** e for e in range(-4, 3)]  # cv's default --lambdas


def _ratio(reg):
    """reg's penalty ratio and the scale s = max(lam_pos, lam_neg) of its W."""
    s = max(reg.lam_pos, reg.lam_neg)
    return (RegPair(reg.lam_pos / s, reg.lam_neg / s) if s > 0.0 else reg), s


def _counted_factors(monkeypatch):
    """The (W, b) of every sphere-QP factorisation the learners make."""
    calls = []
    original = learners.factor_sphere_qp

    def counted(W, b):
        calls.append((W, b))
        return original(W, b)

    monkeypatch.setattr(learners, "factor_sphere_qp", counted)
    return calls


def test_vclsm_path_factors_once_per_penalty_ratio(monkeypatch):
    calls = _counted_factors(monkeypatch)
    rng = np.random.default_rng(53)
    for _ in range(4):
        n = int(rng.integers(10, 30))
        fmap = landmark_feature_map(random_indefinite(rng, n), n // 2 + 1)
        y = rng.normal(size=n)
        centred, solve, _ = learner_path("vclsm", fmap, y)
        del calls[:]
        seen = set()
        for lp in _GRID:
            for ln in _GRID:
                reg = RegPair(lp, ln)
                fresh, _ = vc_lsm_path(centred, y)  # factors this pair's ratio first
                seen.add(_ratio(reg)[0])
                for r in (0.5, 1.0, 2.0):
                    # the ratio's W and the pair's own scale, whichever pair
                    # of the ratio came first: the same bits
                    model, reference = solve(reg, r), fresh(reg, r)
                    assert np.array_equal(model.z, reference.z)
                    assert model.diagnostics == reference.diagnostics
        # 49 pairs make 15 ratios in floating point; the fresh paths add one each
        assert len(seen) == 15
        assert len(calls) == len(seen) + len(_GRID) ** 2


def test_vclsm_path_factors_zero_penalties_as_their_own_ratio(monkeypatch):
    calls = _counted_factors(monkeypatch)
    rng = np.random.default_rng(59)
    n = 16
    fmap = center_features(landmark_feature_map(random_indefinite(rng, n), 9))
    y = rng.normal(size=n)
    solve, _ = vc_lsm_path(fmap, y)
    regs = [RegPair(1e-300, 1e-300), RegPair(0.0, 0.0), RegPair(0.0, 0.0), RegPair(0.0, 0.25),
            RegPair(0.5, 0.5), RegPair(1e10, 1e10)]
    models = []
    for reg in regs:
        models.append(solve(reg, 1.5))
        fresh = vc_lsm_path(fmap, y)[0](reg, 1.5)
        assert np.array_equal(models[-1].z, fresh.z)
    # three ratios: (1, 1), (0, 1) and (0, 0), a ratio of its own whose W is
    # zero; (1e10, 1e10) scales the W of (1, 1) as (1e-300, 1e-300) does
    assert len(calls) == 3 + len(regs)  # one per ratio, one per fresh path
    # the path's (0, 0) W and those of the two fresh (0, 0) paths
    assert sum(not np.any(W) for W, _ in calls) == 1 + 2
    assert np.array_equal(solve(regs[0], 1.5).z, models[0].z)
    assert len(calls) == 3 + len(regs)


def test_vclsm_path_factors_again_after_a_raise(monkeypatch):
    rng = np.random.default_rng(61)
    n = 14
    fmap = landmark_feature_map(random_indefinite(rng, n), 8)
    y = rng.normal(size=n)
    centred, solve, _ = learner_path("vclsm", fmap, y)
    calls = []
    original = learners.factor_sphere_qp

    def fails_first(W, b):
        calls.append(W)
        if len(calls) == 1:
            raise SolverError("injected factorisation failure")
        return original(W, b)

    monkeypatch.setattr(learners, "factor_sphere_qp", fails_first)
    with pytest.raises(SolverError):
        solve(RegPair(0.1, 0.2))
    # the same ratio: the raise was not kept, so this pair factors the ratio's W
    reg = RegPair(0.2, 0.4)
    assert np.array_equal(solve(reg, 1.0).z, vc_lsm_path(centred, y)[0](reg, 1.0).z)
    assert len(calls) == 3
    # and the pair that raised factors again on its next use, now from the
    # ratio's kept factorisation
    solve(RegPair(0.1, 0.2), 1.0)
    assert len(calls) == 3


def _newton_starts(monkeypatch, fail_at=()):
    """The start of every squared-hinge Newton solve; the solves numbered in
    ``fail_at`` raise SolverError instead."""
    starts = []
    original = learners._newton_squared_hinge

    def recorded(features, gram, y, lam_diag, n_scale, start=None):
        starts.append(None if start is None else np.array(start))
        if len(starts) in fail_at:
            raise SolverError("injected Newton failure")
        return original(features, gram, y, lam_diag, n_scale, start)

    monkeypatch.setattr(learners, "_newton_squared_hinge", recorded)
    return starts


def test_shsvm_path_warm_starts_along_the_grid(monkeypatch):
    rng = np.random.default_rng(67)
    for _ in range(3):
        n = int(rng.integers(30, 60))
        fmap = landmark_feature_map(random_indefinite(rng, n), n // 2)
        y = binary_labels(rng, n)
        cold = {RegPair(lp, ln): sh_svm_lowrank(fmap, y, RegPair(lp, ln))
                for lp in _GRID for ln in _GRID}
        starts = _newton_starts(monkeypatch)
        _, solve, _ = learner_path("shsvm", fmap, y)
        warm = [solve(reg) for reg in cold]  # the grid in cv's order
        assert starts[0] is None
        for i, (model, reference) in enumerate(zip(warm, cold.values())):
            if i == 0:
                assert np.array_equal(model.z, reference.z)
                assert model.diagnostics == reference.diagnostics
            else:
                assert np.array_equal(starts[i], warm[i - 1].z)
            assert model.diagnostics["grad_norm"] <= 1e-8 * n
            decision, expected = fmap.phi @ model.z, fmap.phi @ reference.z
            assert np.abs(decision - expected).max() <= 1e-8 * np.abs(expected).max()
        iterations = sum(model.diagnostics["iterations"] for model in warm)
        assert iterations < sum(model.diagnostics["iterations"] for model in cold.values())
        monkeypatch.undo()


def test_shsvm_path_warm_starts_from_the_last_success(monkeypatch):
    rng = np.random.default_rng(71)
    n = 30
    fmap = landmark_feature_map(random_indefinite(rng, n), 12)
    y = binary_labels(rng, n)
    starts = _newton_starts(monkeypatch, fail_at=(2,))
    _, solve, _ = learner_path("shsvm", fmap, y)
    first = solve(RegPair(0.1, 0.1))
    with pytest.raises(SolverError):
        solve(RegPair(1.0, 0.1))
    solve(RegPair(1.0, 1.0))
    assert starts[0] is None
    assert np.array_equal(starts[1], first.z) and np.array_equal(starts[2], first.z)


def test_lsm_cached_gram_matches_the_normal_equations_per_penalty():
    rng = np.random.default_rng(37)
    k = random_indefinite(rng, 14)
    fmap = full_feature_map(k)
    y = rng.normal(size=14)
    for lp, ln in [(1e-3, 1e-2), (0.1, 0.1), (2.0, 1e-4)]:
        lam = _lambda_diag(RegPair(lp, ln), fmap.signs)
        z = np.linalg.solve(fmap.phi.T @ fmap.phi + 14 * np.diag(lam), fmap.phi.T @ y)
        assert np.array_equal(krein_krr_lowrank(fmap, y, RegPair(lp, ln)).z, z)


def test_lsm_path_forms_phi_y_once():
    # count the products of the transposed features with a vector: Phi' y
    rng = np.random.default_rng(101)
    n = 30
    base = landmark_feature_map(random_indefinite(rng, n), 10)
    y = rng.normal(size=n)
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            if np.ndim(other) == 1 and self.shape == (base.rank, n):
                products.append(np.array(other))
            return np.asarray(self) @ other

    fmap = FeatureMap(phi=base.phi.view(Counted), signs=base.signs, factor=base.factor)
    lambdas = [1e-3, 0.1, 10.0]
    for hypers in ([(RegPair(0.1, 0.1), None)],
                   [(RegPair(lp, ln), None) for lp in lambdas for ln in lambdas]):
        del products[:]
        _, solve, grid = learner_path("lsm", fmap, y)
        Z, failed = grid(hypers)
        solve(RegPair(1.0, 2.0))
        assert len(products) == 1 and np.array_equal(products[0], y)
        assert not failed.any()
        for p, (reg, _) in enumerate(hypers):
            assert np.array_equal(Z[:, p], krein_krr_lowrank(base, y, reg).z)


def test_sf_lsm_path_matches_the_normal_equations_per_penalty():
    rng = np.random.default_rng(41)
    k = random_indefinite(rng, 12)
    y = rng.normal(size=12)
    f = k.values
    solve, _ = sf_lsm_path(k, y)
    for lam in (1e-4, 1e-2, 1.0, 100.0):
        w = np.linalg.solve(f.T @ f + lam * np.eye(12), f.T @ y)
        assert np.array_equal(solve(lam).w, w)
        assert np.array_equal(sf_lsm_baseline(k, y, lam).w, w)
    with pytest.raises(InvalidInput):
        solve(0.0)


def test_sf_lsm_grid_returns_each_penalty_weights_and_fails_alone():
    rng = np.random.default_rng(103)
    k = random_indefinite(rng, 12)
    y = rng.normal(size=12)
    solve, grid = sf_lsm_path(k, y)
    lams = [1e-4, 1.0, 100.0]
    W, failed = grid(lams)
    assert W.shape == (12, len(lams)) and not failed.any()
    for p, lam in enumerate(lams):
        assert np.array_equal(W[:, p], solve(lam).w)
    # K'K + lam I of a rank-one K is exactly singular at lam = 1e-300
    solve, grid = sf_lsm_path(SymMatrix(np.ones((4, 4))), np.array([1.0, -1.0, 1.0, -1.0]))
    with pytest.raises(SolverError):
        solve(1e-300)
    W, failed = grid([1.0, 1e-300, 2.0])
    assert failed.tolist() == [False, True, False] and not W[:, 1].any()
    assert np.array_equal(W[:, 0], solve(1.0).w) and np.array_equal(W[:, 2], solve(2.0).w)


# ---------------------------------------------------------------------------
# a grid of points solved together, against the same points solved one by one


@pytest.mark.parametrize("learner", ["lsm", "vclsm", "shsvm"])
def test_learner_grid_matches_single_solves(learner):
    rng = np.random.default_rng(83)
    n = 40
    fmap = landmark_feature_map(random_indefinite(rng, n), 12)
    y = binary_labels(rng, n)
    lambdas = [1e-3, 0.1, 10.0, 1e308]  # the last overflows n lambda
    radii = [0.5, 2.0, None] if learner == "vclsm" else [None]
    hypers = [(RegPair(lp, ln), r) for lp in lambdas for ln in lambdas for r in radii]
    trained_on, _, grid = learner_path(learner, fmap, y)
    Z, failed = grid(hypers)
    assert Z.shape == (trained_on.rank, len(hypers)) and failed.shape == (len(hypers),)
    _, single, _ = learner_path(learner, fmap, y)  # a fresh path, in the grid's order
    for p, (reg, r) in enumerate(hypers):
        try:
            z = single(reg, r).z
        except SolverError:
            assert failed[p] and not Z[:, p].any()
            continue
        assert not failed[p]
        if learner == "vclsm":  # one secular iteration for a ratio's problems
            assert np.linalg.norm(Z[:, p] - z) <= 1e-12 * np.linalg.norm(z)
        else:
            assert np.array_equal(Z[:, p], z)
    assert failed.any() and not failed.all()


def test_vclsm_grid_weights_do_not_depend_on_the_order_of_its_points():
    rng = np.random.default_rng(107)
    n = 40
    fmap = center_features(landmark_feature_map(random_indefinite(rng, n), 14))
    y = binary_labels(rng, n)
    hypers = [(RegPair(lp, ln), r) for lp in _GRID for ln in _GRID for r in (0.5, 1.0, 2.0)]
    Z, failed = vc_lsm_path(fmap, y)[1](hypers)
    assert not failed.any()
    for _ in range(3):
        order = rng.permutation(len(hypers))
        Z_perm, failed_perm = vc_lsm_path(fmap, y)[1]([hypers[p] for p in order])
        assert not failed_perm.any()
        assert np.array_equal(Z_perm, Z[:, order])


def test_vclsm_grid_finds_each_penalty_pairs_ratio_once(monkeypatch):
    rng = np.random.default_rng(109)
    n = 30
    fmap = center_features(landmark_feature_map(random_indefinite(rng, n), 12))
    y = binary_labels(rng, n)
    pairs = [RegPair(lp, ln) for lp in _GRID for ln in _GRID] + [RegPair(1e308, 1.0)]
    hypers = [(reg, r) for reg in pairs for r in (0.5, 1.0, 2.0)]
    Z, failed = vc_lsm_path(fmap, y)[1](hypers)
    checked = []
    original = learners._check_penalty_scale

    def counted(reg, n):
        checked.append(reg)
        return original(reg, n)

    monkeypatch.setattr(learners, "_check_penalty_scale", counted)
    _, grid = vc_lsm_path(fmap, y)
    for _ in range(2):  # per call: each distinct pair once, the overflowing one included
        del checked[:]
        Z_counted, failed_counted = grid(hypers)
        assert sorted(checked, key=repr) == sorted(pairs, key=repr)
        assert np.array_equal(Z_counted, Z) and np.array_equal(failed_counted, failed)
    assert failed.tolist() == [False] * (len(hypers) - 3) + [True] * 3


def test_vclsm_grid_fails_every_radius_of_a_raising_factorisation(monkeypatch):
    rng = np.random.default_rng(89)
    n = 20
    fmap = center_features(landmark_feature_map(random_indefinite(rng, n), 10))
    y = rng.normal(size=n)
    original = learners.factor_sphere_qp
    calls = []

    def fails_first(W, b):
        calls.append(W)
        if len(calls) == 1:
            raise SolverError("injected factorisation failure")
        return original(W, b)

    monkeypatch.setattr(learners, "factor_sphere_qp", fails_first)
    _, grid = vc_lsm_path(fmap, y)
    first, mate, other = RegPair(0.1, 0.2), RegPair(1.0, 2.0), RegPair(0.2, 0.1)
    hypers = [(first, 0.5), (first, 1.0), (mate, 0.5), (other, 1.0), (mate, 1.0), (first, 2.0)]
    Z, failed = grid(hypers)
    # first and mate share the ratio (0.5, 1): its one attempt failed every
    # radius of both pairs, and the ratio (1, 0.5) factored its own W
    assert failed.tolist() == [True, True, True, False, True, True]
    assert not Z[:, failed].any()
    assert len(calls) == 2
    # the raise was not kept: the next call factors the ratio again
    Z, failed = grid(hypers)
    assert not failed.any() and len(calls) == 3
    monkeypatch.undo()
    for p, point in enumerate(hypers):
        z = vc_lsm_lowrank(fmap, y, *point).z
        assert np.linalg.norm(Z[:, p] - z) <= 1e-12 * np.linalg.norm(z)
    # a radius is checked before the rank
    with pytest.raises(InvalidInput):
        grid([(first, 1.0), (mate, 0.0)])


def test_overflowing_penalties_are_solver_errors():
    rng = np.random.default_rng(97)
    n = 20
    fmap = landmark_feature_map(random_indefinite(rng, n), 10)
    y = binary_labels(rng, n)
    for reg in (RegPair(1e308, 1.0), RegPair(1.0, 1e308)):
        for solve in (lambda: krein_krr_lowrank(fmap, y, reg),
                      lambda: vc_lsm_lowrank(center_features(fmap), y, reg, 1.0),
                      lambda: sh_svm_lowrank(fmap, y, reg)):
            with pytest.raises(SolverError):
                solve()
    # n lambda is finite, but W = n (B / sigma)' diag(lambda) (B / sigma) is not
    tiny = FeatureMap(phi=1e-160 * fmap.phi, signs=fmap.signs, factor=fmap.factor)
    with pytest.raises(SolverError):
        vc_lsm_lowrank(tiny, y, RegPair(1.0, 1.0), 1.0)
