import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinkit import (
    ConfigError,
    DegenerateScores,
    DuplicateCollapseWarning,
    GramSource,
    InvalidBudget,
    InvalidInput,
    SymMatrix,
    build_feature_map,
    build_sketch,
    default_sketch_size,
    fit,
    gaussian_diff,
    gram,
    kmeanspp_landmarks,
    landmark_factor,
    leverage_scores,
    one_shot_eigen,
    sample_leverage,
    select_landmarks,
    spawn_rng,
    uniform_landmarks,
)
from kreinkit import landmarks


# ---------------------------------------------------------------------------
# generators


def test_spawn_rng_root_golden():
    # frozen draws pin the bit-generator choice and seeding path
    assert spawn_rng(42).integers(0, 1000, 6).tolist() == [925, 86, 140, 141, 407, 270]


def test_spawn_rng_golden():
    assert spawn_rng(42, 1, 2).integers(0, 1000, 6).tolist() == [932, 773, 34, 177, 125, 389]


def test_spawn_rng_streams_are_distinct():
    draws = {tuple(spawn_rng(0, *key).integers(0, 10**9, 4).tolist())
             for key in [(0,), (1,), (0, 0), (0, 1), (1, 0)]}
    draws.add(tuple(spawn_rng(0).integers(0, 10**9, 4).tolist()))
    assert len(draws) == 6


def test_philox_bit_generator():
    assert type(spawn_rng(0).bit_generator).__name__ == "Philox"


# ---------------------------------------------------------------------------
# uniform sampling


def test_uniform_golden():
    assert uniform_landmarks(20, 5, spawn_rng(0)).indices.tolist() == [0, 4, 2, 7, 16]


def test_uniform_without_replacement():
    for seed in range(10):
        marks = uniform_landmarks(30, 30, spawn_rng(seed))
        assert sorted(marks.indices.tolist()) == list(range(30))


def test_uniform_budget_validation():
    with pytest.raises(InvalidBudget):
        uniform_landmarks(10, 0, spawn_rng(0))
    with pytest.raises(InvalidBudget):
        uniform_landmarks(10, 11, spawn_rng(0))


def test_default_sketch_size():
    assert default_sketch_size(10, 100) == 47  # ceil(10 ln 100)
    assert default_sketch_size(50, 100) == 100  # capped at n
    assert default_sketch_size(1, 2) == 1  # ceil(ln 2) = 1


# ---------------------------------------------------------------------------
# leverage scores


def fixture_source(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    return GramSource.from_data(gaussian_diff(1.0, 3.0), x)


def test_leverage_scores_rank_one_example():
    factor = fit(SymMatrix(np.array([[2.0]])))
    eig = one_shot_eigen(factor, build_feature_map(factor, np.array([[2.0], [4.0]])).phi)
    assert_allclose(leverage_scores(eig), [0.2, 0.8], atol=1e-12)


def test_leverage_scores_sum_to_rank():
    src = fixture_source()
    sketch = build_sketch(src, 12, spawn_rng(1), None)
    scores = leverage_scores(sketch.eig)
    assert scores.sum() == pytest.approx(sketch.eig.rank)
    assert np.all(scores >= 0)


def test_leverage_scores_sign_invariant():
    src = fixture_source()
    sketch = build_sketch(src, 10, spawn_rng(2), None)
    eig = sketch.eig
    flipped = type(eig)(U=eig.U * -1.0, lam=eig.lam, warning=eig.warning)
    assert np.array_equal(leverage_scores(eig), leverage_scores(flipped))


def test_sample_leverage_deterministic_and_deduplicated():
    scores = np.array([5.0, 1.0, 1.0, 1.0, 0.0])
    a = sample_leverage(scores, 4, spawn_rng(3))
    b = sample_leverage(scores, 4, spawn_rng(3))
    assert np.array_equal(a.indices, b.indices)
    assert a.requested == 4
    assert a.multiplicity.sum() == 4  # duplicates recorded, not re-drawn
    assert len(set(a.indices.tolist())) == a.indices.size
    assert 4 not in a.indices  # zero-score points are never drawn


def test_sample_leverage_point_mass():
    scores = np.array([1.0, 0.0, 0.0])
    marks = sample_leverage(scores, 3, spawn_rng(4))
    assert marks.indices.tolist() == [0]
    assert marks.multiplicity.tolist() == [3]


def test_sample_leverage_validation():
    with pytest.raises(DegenerateScores):
        sample_leverage(np.zeros(5), 2, spawn_rng(0))
    with pytest.raises(InvalidInput):
        sample_leverage(np.array([1.0, -0.5]), 1, spawn_rng(0))
    with pytest.raises(InvalidBudget):
        sample_leverage(np.ones(5), 0, spawn_rng(0))


# ---------------------------------------------------------------------------
# sketches


def test_build_sketch_shapes():
    src = fixture_source(n=35)
    sketch = build_sketch(src, 9, spawn_rng(5), None)
    assert sketch.sketch_size == 9
    assert "features" not in vars(sketch)  # formed only when read
    assert sketch.features.shape == (35, sketch.eig.rank)
    # features are the eigenvectors scaled by sqrt |eigenvalue|
    assert_allclose(np.sum(sketch.features**2, axis=0),
                    np.abs(sketch.eig.lam), rtol=1e-10)


# ---------------------------------------------------------------------------
# kernel k-means++


def test_kmeanspp_deterministic():
    src = fixture_source(n=50, seed=7)
    sketch = build_sketch(src, 15, spawn_rng(6), None)
    a = kmeanspp_landmarks(sketch.features, 8, spawn_rng(8))
    b = kmeanspp_landmarks(sketch.features, 8, spawn_rng(8))
    assert np.array_equal(a.indices, b.indices)
    assert len(set(a.indices.tolist())) == 8


def test_kmeanspp_spreads_over_clusters():
    # three tight, well-separated clusters: one pick lands in each
    rng = np.random.default_rng(9)
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
    feats = np.concatenate([c + 0.01 * rng.normal(size=(20, 2)) for c in centers])
    for seed in range(10):
        marks = kmeanspp_landmarks(feats, 3, spawn_rng(seed))
        assert sorted(marks.indices // 20) == [0, 1, 2]


def test_kmeanspp_duplicate_collapse():
    feats = np.zeros((6, 2))
    feats[0] = [1.0, 0.0]  # exactly two distinct rows
    with pytest.warns(DuplicateCollapseWarning):
        marks = kmeanspp_landmarks(feats, 4, spawn_rng(10))
    assert marks.indices.size == 2
    assert marks.requested == 4


def test_kmeanspp_wide_offset_duplicates_weigh_zero():
    # 3 distinct rows, each 4 times, far from the origin: the norm identity
    # alone leaves round-off weight on the copies of a chosen row
    rows = 1e3 + np.random.default_rng(11).normal(size=(3, 300))
    feats = np.repeat(rows, 4, axis=0)
    with pytest.warns(DuplicateCollapseWarning):
        marks = kmeanspp_landmarks(feats, 5, spawn_rng(10))
    assert sorted(marks.indices // 4) == [0, 1, 2]


def test_kmeanspp_budget_validation():
    with pytest.raises(InvalidBudget):
        kmeanspp_landmarks(np.zeros((4, 2)), 5, spawn_rng(0))


# ---------------------------------------------------------------------------
# the shared select -> fit construction


@pytest.mark.parametrize("sampler", ["uniform", "leverage", "kmeanspp"])
def test_landmark_factor_matches_its_steps(sampler):
    src = fixture_source(n=45, seed=11)
    marks = select_landmarks(sampler, src, 8, spawn_rng(12), None)
    factor = landmark_factor(src, sampler, 8, spawn_rng(12), None)
    assert np.array_equal(factor.landmarks.indices, marks.indices)
    assert factor.landmarks.requested == marks.requested == 8
    if marks.multiplicity is not None:
        assert np.array_equal(factor.landmarks.multiplicity, marks.multiplicity)
    assert np.array_equal(factor.eig.d, fit(src.block(marks.indices)).eig.d)


@pytest.mark.parametrize("n, budget, columns", [(45, 5, 15), (8, 3, 8)])  # 3 l, capped at n
def test_leverage_sketch_has_three_columns_per_landmark(sketch_sizes, n, budget, columns):
    select_landmarks("leverage", fixture_source(n=n, seed=3), budget, spawn_rng(4), None)
    assert sketch_sizes == [columns]


def test_kmeanspp_sketch_keeps_the_default_size(sketch_sizes):
    select_landmarks("kmeanspp", fixture_source(n=45, seed=3), 5, spawn_rng(4), None)
    assert sketch_sizes == [default_sketch_size(5, 45)]


@pytest.mark.parametrize("sampler", ["kmeanspp", "leverage"])
def test_only_kmeanspp_lifts_just_its_budget(monkeypatch, sampler):
    lifted, seeded = [], []
    lift, seed = landmarks.one_shot_eigen, landmarks.kmeanspp_landmarks

    def lift_spy(factor, phi, *args, **kwargs):
        eig = lift(factor, phi, *args, **kwargs)
        lifted.append((phi.shape[1], eig.U.shape[1]))
        return eig

    def seed_spy(features, *args, **kwargs):
        seeded.append(features.shape)
        return seed(features, *args, **kwargs)

    monkeypatch.setattr(landmarks, "one_shot_eigen", lift_spy)
    monkeypatch.setattr(landmarks, "kmeanspp_landmarks", seed_spy)
    select_landmarks(sampler, fixture_source(n=45, seed=3), 5, spawn_rng(4), None)
    (columns, lift_cols), = lifted
    if sampler == "kmeanspp":
        # the sketch keeps its ceil(5 ln 45) = 20 columns; 5 directions are lifted
        assert columns == default_sketch_size(5, 45) and lift_cols == 5
        assert seeded == [(45, 5)]
    else:
        assert lift_cols == columns and seeded == []


def test_select_landmarks_budget_validation():
    for sampler in ("uniform", "leverage", "kmeanspp"):
        for budget in (0, 41):
            with pytest.raises(InvalidBudget):
                select_landmarks(sampler, fixture_source(), budget, spawn_rng(0), None)


def test_landmark_factor_rejects_unknown_sampler():
    with pytest.raises(ConfigError):
        landmark_factor(fixture_source(), "nearest", 5, spawn_rng(0), None)
