import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinkit import (
    ConfigError,
    GramSource,
    LowRankModel,
    RegPair,
    SolverError,
    SymMatrix,
    approximate,
    build_feature_map,
    feature_rows,
    frobenius_error,
    gaussian_diff,
    gram,
    gram_cross,
    landmark_factor,
    learner_path,
    load_model,
    make_rng,
    misclassification,
    one_shot_eigen,
    parse_kernel_spec,
    reconstruct,
    tanh_sigmoid,
    truncate_eigen,
    write_matrix,
)
from kreinkit import learners, linalg
from kreinkit.cli import _parse_ranks, main


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def synthetic_args(n=80):
    return ["--synthetic", "two_gaussians", "--n", str(n), "--p", "3",
            "--kernel", "kernel=gaussdiff sigma1=1.0 sigma2=3.0"]


def refuse(*args, **kwargs):
    raise AssertionError("formed the whole-data kernel matrix")


def refuse_order(monkeypatch, module, n):
    """Make ``module.SymMatrix`` reject any matrix of order n."""
    original = module.SymMatrix

    def checked(values):
        made = original(values)
        if made.order == n:
            raise AssertionError(f"formed a {n} x {n} matrix")
        return made

    monkeypatch.setattr(module, "SymMatrix", checked)


# ---------------------------------------------------------------------------
# schedules


def test_parse_ranks_list():
    assert _parse_ranks("10,20,40") == [10, 20, 40]


def test_parse_ranks_geometric():
    assert _parse_ranks("10:160:x2") == [10, 20, 40, 80, 160]
    assert _parse_ranks("10:320:x2") == [10, 20, 40, 80, 160, 320]


def test_parse_ranks_rejects_bad_schedules():
    for text in ("10:5:x2", "10:20:x0.5", "10:20:2", "a,b", "0,5", ""):
        with pytest.raises(ConfigError):
            _parse_ranks(text)


# ---------------------------------------------------------------------------
# flops


def test_flops_table(tmp_path, capsys):
    rc = main(["flops", "--n", "1000000", "--m", "1000", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "flops.csv")
    assert header == ["n", "m", "one_shot", "sgt", "savings"]
    assert rows[0] == ["1000000", "1000", "3003000000000", "7002000000000",
                       "3999000000000"]
    out = capsys.readouterr().out
    assert "3003000000000" in out


# ---------------------------------------------------------------------------
# approx


def test_approx_outputs_and_row_counts(tmp_path):
    out = tmp_path / "run"
    rc = main(["approx", *synthetic_args(), "--samplers", "uniform,kmeanspp",
               "--ranks", "5,10", "--reps", "4", "--seed", "3", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "approx_raw.csv")
    assert header == ["sampler", "k", "l", "repetition", "frobenius_error", "seconds"]
    assert len(rows) == 2 * 2 * 4  # samplers x ranks x repetitions
    header, medians = read_csv(out / "approx_median.csv")
    assert len(medians) == 4
    result = json.loads((out / "result.json").read_text())
    assert result["schema_version"] == 3
    assert result["artifact"]["name"] == "kreinkit"
    assert result["config"]["seed"] == 3


def test_approx_exact_recovery_at_full_budget(tmp_path):
    out = tmp_path / "full"
    rc = main(["approx", *synthetic_args(n=40), "--samplers", "uniform",
               "--ranks", "40", "--reps", "2", "--seed", "0", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "approx_raw.csv")
    # k = l = n: the sweep reproduces the matrix up to round-off
    for row in rows:
        assert float(row[4]) <= 1e-6


def test_approx_deterministic_error_columns(tmp_path):
    args = ["approx", *synthetic_args(), "--samplers", "leverage",
            "--ranks", "6", "--reps", "3", "--seed", "11"]
    rc1 = main([*args, "--out", str(tmp_path / "a")])
    rc2 = main([*args, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    _, rows_a = read_csv(tmp_path / "a" / "approx_raw.csv")
    _, rows_b = read_csv(tmp_path / "b" / "approx_raw.csv")
    assert [r[:5] for r in rows_a] == [r[:5] for r in rows_b]


def test_approx_logn_budget(tmp_path):
    out = tmp_path / "logn"
    rc = main(["approx", *synthetic_args(n=60), "--samplers", "uniform",
               "--ranks", "5", "--landmark-factor", "logn", "--reps", "2",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "approx_raw.csv")
    assert rows[0][1] == "5" and rows[0][2] == "21"  # ceil(5 ln 60) = 21


def test_approx_logn_leverage_sketch_is_three_budgets(tmp_path, sketch_sizes):
    rc = main(["approx", *synthetic_args(n=60), "--samplers", "leverage",
               "--ranks", "2,5", "--landmark-factor", "logn", "--reps", "1",
               "--seed", "0", "--out", str(tmp_path / "logn")])
    assert rc == 0
    # l = ceil(k ln 60) = 9 and 21; the sketch takes min(60, 3 l) columns
    assert sketch_sizes == [27, 27, 60, 60]  # a warm-up and a timed repetition each


@pytest.mark.parametrize("from_matrix", [False, True])
def test_approx_streamed_errors_match_dense(monkeypatch, from_matrix):
    import kreinkit.cli

    rng = np.random.default_rng(21)
    x = rng.normal(size=(150, 3))
    if from_matrix:
        source = GramSource.from_matrix(gram(tanh_sigmoid(0.3, -0.5), x))
    else:
        source = GramSource.from_data(gaussian_diff(1.0, 3.0), x)
    # 64-row scoring blocks, the last one ragged, instead of a single block
    monkeypatch.setattr(linalg, "_ROW_BLOCK_ELEMENTS", 64 * 150)
    assert [stop for _, stop in linalg.row_blocks(150, 150)] == [64, 128, 150]
    eigs = []

    def keep(eig, rank):
        eigs.append(truncate_eigen(eig, rank))
        return eigs[-1]

    monkeypatch.setattr(kreinkit.cli, "truncate_eigen", keep)
    reps = 2
    raw, _ = kreinkit.cli.run_approx_sweep(source, ["uniform", "leverage"],
                                           [(4, 6), (9, 9)], reps, 3, None)
    # each configuration's warm-up runs first and is not scored
    timed = [eig for i, eig in enumerate(eigs) if i % (reps + 1)]
    assert len(raw) == len(timed) == 2 * 2 * reps
    full = source.full()
    for row, eig in zip(raw, timed):
        assert row[4] == pytest.approx(frobenius_error(full, reconstruct(eig)), rel=1e-12)


@pytest.mark.parametrize("from_matrix", [False, True])
def test_approx_scores_the_lower_triangle_only(monkeypatch, from_matrix):
    import kreinkit.cli

    rng = np.random.default_rng(22)
    x = rng.normal(size=(150, 3))
    if from_matrix:
        source = GramSource.from_matrix(gram(tanh_sigmoid(0.3, -0.5), x))
    else:
        source = GramSource.from_data(gaussian_diff(1.0, 3.0), x)
    factor = landmark_factor(source, "uniform", 12, make_rng(4), None)
    eig = one_shot_eigen(factor, build_feature_map(factor, source).phi)
    monkeypatch.setattr(linalg, "_ROW_BLOCK_ELEMENTS", 64 * 150)
    grid = list(linalg.row_blocks(150, 150))
    assert [stop for _, stop in grid] == [64, 128, 150]
    entries = []
    kernel = GramSource._kernel

    def counted(self, X, Z):
        entries.append(len(X) * len(Z))
        return kernel(self, X, Z)

    monkeypatch.setattr(GramSource, "_kernel", counted)
    errors = kreinkit.cli._residual_norms(source, [eig, eig])
    # each block once for both eigensystems, left of its end: 64 * 64 +
    # 64 * 128 + 22 * 150 entries, against the 150^2 = 22500 of all rows
    assert sum(entries) <= sum((stop - start) * stop for start, stop in grid) == 15588
    exact = frobenius_error(source.full(), reconstruct(eig))
    assert errors[0] == errors[1] == pytest.approx(exact, rel=1e-12)


def test_approx_forms_no_dense_matrix(tmp_path, monkeypatch):
    import kreinkit.nystroem

    monkeypatch.setattr(GramSource, "full", refuse)
    # reconstruct and approximate build their n x n results here
    refuse_order(monkeypatch, kreinkit.nystroem, 80)
    rc = main(["approx", *synthetic_args(), "--samplers", "uniform,leverage,kmeanspp",
               "--ranks", "5,10", "--reps", "2", "--seed", "1",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    _, rows = read_csv(tmp_path / "run" / "approx_raw.csv")
    assert len(rows) == 3 * 2 * 2
    assert all(np.isfinite(float(row[4])) for row in rows)


# ---------------------------------------------------------------------------
# eigen / sample / train


def test_eigen_command(tmp_path):
    out = tmp_path / "eig"
    rc = main(["eigen", *synthetic_args(), "--m", "10", "--method", "sgt",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["orthonormality_residual"] < 1e-8
    assert result["reconstruction_relative_error"] < 1e-8
    header, rows = read_csv(out / "eigenvalues.csv")
    assert header == ["index", "eigenvalue"]
    assert len(rows) == result["effective_rank"] or len(rows) <= 10


@pytest.mark.parametrize("method", ["one_shot", "sgt"])
def test_eigen_forms_no_dense_matrix(tmp_path, monkeypatch, method):
    import kreinkit.nystroem

    monkeypatch.setattr(GramSource, "full", refuse)
    refuse_order(monkeypatch, kreinkit.nystroem, 80)
    out = tmp_path / "eig"
    assert main(["eigen", *synthetic_args(), "--m", "12", "--method", method,
                 "--seed", "3", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert 0.0 <= result["reconstruction_relative_error"] < 1e-8


@pytest.mark.parametrize("method", ["one_shot", "sgt"])
def test_eigen_scores_without_a_row_pass(tmp_path, monkeypatch, method):
    import kreinkit.cli

    monkeypatch.setattr(GramSource, "full", refuse)
    monkeypatch.setattr(kreinkit.cli, "_residual_norms", refuse)
    out = tmp_path / "eig"
    assert main(["eigen", *synthetic_args(), "--m", "12", "--method", method,
                 "--seed", "3", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert 0.0 < result["reconstruction_relative_error"] <= 1e-13  # untruncated: round-off


def _truncated_eigen_matches_dense(tmp_path, monkeypatch, method):
    """``eigen`` with its eigensystem truncated to rank 4 reports the dense
    relative residual of that eigensystem."""
    import kreinkit.cli
    import kreinkit.nystroem

    route = "one_shot_eigen" if method == "one_shot" else "sgt_one_shot"
    seen, sources = [], []
    original = getattr(kreinkit.cli, route)
    load_inputs = kreinkit.cli.load_inputs

    def truncated(factor, features_or_cross):
        seen.append((factor, truncate_eigen(original(factor, features_or_cross), 4)))
        return seen[-1][1]

    def loaded(*args, **kwargs):
        sources.append(load_inputs(*args, **kwargs)[0])
        return sources[-1], None

    monkeypatch.setattr(kreinkit.cli, route, truncated)
    monkeypatch.setattr(kreinkit.cli, "load_inputs", loaded)
    refuse_order(monkeypatch, kreinkit.nystroem, 80)
    out = tmp_path / "eig"
    assert main(["eigen", *synthetic_args(), "--m", "12", "--method", method, "--seed", "3",
                 "--out", str(out)]) == 0
    [(factor, eig)], [source] = seen, sources
    monkeypatch.undo()  # the dense reference below forms the n x n matrices
    approx = approximate(factor, source.cross_all(factor.landmarks.indices))
    expected = frobenius_error(approx, reconstruct(eig)) / np.linalg.norm(approx.values)
    assert expected > 1e-3  # a truncation error, not round-off
    result = json.loads((out / "result.json").read_text())
    assert result["reconstruction_relative_error"] == pytest.approx(expected, rel=1e-12)


def test_eigen_streamed_residual_matches_dense(tmp_path, monkeypatch):
    _truncated_eigen_matches_dense(tmp_path, monkeypatch, "one_shot")


def test_eigen_truncated_sgt_residual_matches_dense(tmp_path, monkeypatch):
    _truncated_eigen_matches_dense(tmp_path, monkeypatch, "sgt")


def test_eigen_reports_a_failed_cholesky_polish(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    out = tmp_path / "eig"
    assert main(["eigen", *synthetic_args(), "--m", "12", "--seed", "3",
                 "--out", str(out)]) == 0
    assert "Cholesky polish failed" in json.loads((out / "result.json").read_text())["warning"]


def test_eigen_relative_error_scales_with_the_kernel(tmp_path):
    rng = np.random.default_rng(22)
    k = gram(gaussian_diff(1.0, 3.0), rng.normal(size=(40, 3))).values
    ratios = []
    for name, scale in (("unit", 1.0), ("tiny", 1e-10)):
        write_matrix(tmp_path / f"{name}.csv", scale * k)
        out = tmp_path / name
        assert main(["eigen", "--matrix", str(tmp_path / f"{name}.csv"), "--m", "12",
                     "--seed", "0", "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        ratios.append(result["reconstruction_relative_error"])
    assert all(0.0 < ratio < 1e-8 for ratio in ratios)
    # the same round-off relative to the kernel's size, whatever that size is
    assert 1e-2 < ratios[1] / ratios[0] < 1e2


def test_sample_command_deterministic(tmp_path):
    args = ["sample", *synthetic_args(), "--m", "7", "--sampler", "kmeanspp",
            "--seed", "9"]
    main([*args, "--out", str(tmp_path / "a")])
    main([*args, "--out", str(tmp_path / "b")])
    rows_a = (tmp_path / "a" / "landmarks.csv").read_text()
    rows_b = (tmp_path / "b" / "landmarks.csv").read_text()
    assert rows_a == rows_b
    header, rows = read_csv(tmp_path / "a" / "landmarks.csv")
    assert header == ["position", "index", "multiplicity"]
    assert [int(row[1]) for row in rows] == [40, 10, 77, 7, 5, 67, 33]


@pytest.mark.parametrize("sampler", ["uniform", "leverage"])
def test_sample_synthetic_without_kernel(tmp_path, sampler):
    out = tmp_path / "sample"
    rc = main(["sample", "--synthetic", "two_gaussians", "--m", "5", "--sampler", sampler,
               "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "landmarks.csv")
    assert 1 <= len(rows) <= 5


def test_sample_vector_data_needs_kernel(tmp_path, capsys):
    points = tmp_path / "x.csv"
    write_matrix(points, np.eye(4))
    assert main(["sample", "--data", str(points), "--m", "2"]) == 2
    assert "vector data needs --kernel" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "eigen"])
def test_whitespace_twin_gives_the_same_outputs(tmp_path, command):
    # the layout of a table or matrix file is read from its first line
    x = np.random.default_rng(23).normal(size=(30, 3))
    if command == "sample":
        values, inputs = x, ["--kernel", "kernel=gauss sigma=1.5", "--sampler", "kmeanspp"]
        flag, table = "--data", "landmarks.csv"
    else:
        values, inputs = gram(gaussian_diff(1.0, 3.0), x).values, ["--sampler", "leverage"]
        flag, table = "--matrix", "eigenvalues.csv"
    for fmt in ("csv", "whitespace"):
        write_matrix(tmp_path / f"in.{fmt}", values, fmt)
        assert main([command, flag, str(tmp_path / f"in.{fmt}"), *inputs, "--m", "8",
                     "--seed", "2", "--out", str(tmp_path / fmt)]) == 0
    assert (tmp_path / "csv" / table).read_bytes() == \
        (tmp_path / "whitespace" / table).read_bytes()


def test_train_writes_loadable_model(tmp_path):
    out = tmp_path / "model"
    rc = main(["train", *synthetic_args(n=60), "--m", "12", "--learner", "shsvm",
               "--lambda-pos", "0.1", "--lambda-neg", "0.2", "--seed", "4",
               "--out", str(out)])
    assert rc == 0
    model, spec = load_model(out / "model.json")
    assert model.learner == "shsvm"
    assert model.reg.lam_pos == 0.1 and model.reg.lam_neg == 0.2
    assert spec is not None
    result = json.loads((out / "result.json").read_text())
    assert result["training_error"] <= 0.2


def _saved_model_reproduces_training_decisions(tmp_path, monkeypatch, learner, m):
    import kreinkit.cli

    trained = []
    original = kreinkit.cli.learner_path

    def kept(name, fmap, y):
        fmap, solve, grid = original(name, fmap, y)

        def solved(*args):
            trained.append((fmap, solve(*args)))
            return trained[-1][1]

        return fmap, solved, grid

    monkeypatch.setattr(kreinkit.cli, "learner_path", kept)
    out = tmp_path / "model"
    assert main(["train", *_degenerate_inputs(tmp_path), "--no-standardize",
                 "--kernel", "kernel=tanh a=1.0 b=-1.0", "--learner", learner,
                 "--m", str(m), "--seed", "3", "--out", str(out)]) == 0
    [(fmap, model)] = trained
    scored = fmap.phi @ model.z
    restored, spec = load_model(out / "model.json")
    x = np.loadtxt(tmp_path / "x.csv", delimiter=",")
    decisions = restored.predict(gram_cross(spec, x, x[restored.map.factor.landmarks.indices]))
    assert np.abs(decisions - scored).max() <= 1e-12 * max(1.0, np.abs(scored).max())
    y = np.loadtxt(tmp_path / "y.txt")
    result = json.loads((out / "result.json").read_text())
    assert misclassification(np.sign(decisions), y) == result["training_error"]


@pytest.mark.parametrize("learner", ["lsm", "vclsm", "shsvm"])
def test_saved_model_reproduces_training_decisions(tmp_path, monkeypatch, learner):
    _saved_model_reproduces_training_decisions(tmp_path, monkeypatch, learner, 12)


def test_saved_vclsm_model_at_full_landmarks_reproduces_training_decisions(tmp_path,
                                                                          monkeypatch):
    # the centred features lose a rank at m = n; vclsm trains on their range
    _saved_model_reproduces_training_decisions(tmp_path, monkeypatch, "vclsm", 40)


@pytest.mark.parametrize("learner", ["lsm", "vclsm", "shsvm"])
def test_train_forms_no_whole_data_matrix(tmp_path, monkeypatch, learner):
    import kreinkit.kernels
    import kreinkit.nystroem

    monkeypatch.setattr(GramSource, "full", refuse)
    refuse_order(monkeypatch, kreinkit.kernels, 60)
    refuse_order(monkeypatch, kreinkit.nystroem, 60)
    assert main(["train", *synthetic_args(n=60), "--m", "12", "--learner", learner,
                 "--seed", "4", "--out", str(tmp_path / "model")]) == 0


@pytest.mark.parametrize("argv", [
    *(pytest.param(["train", "--m", "12", "--learner", learner], id=learner)
      for learner in ("lsm", "vclsm", "shsvm")),
    pytest.param(["approx", "--samplers", "uniform,leverage,kmeanspp", "--ranks", "5,10",
                  "--reps", "1"], id="approx"),
    *(pytest.param(["eigen", "--m", "12", "--method", "one_shot", "--sampler", sampler],
                   id=f"eigen-{sampler}") for sampler in ("uniform", "kmeanspp")),
    *(pytest.param(["sample", "--m", "12", "--sampler", sampler], id=f"sample-{sampler}")
      for sampler in ("leverage", "kmeanspp")),
    pytest.param(["cv", "--learners", "lsm,vclsm,shsvm", "--ranks", "5", "--folds", "2",
                  "--inner-folds", "2", "--lambdas", "0.1,1", "--sampler", "leverage"],
                 id="cv"),
])
def test_train_takes_the_cross_block_by_rows(tmp_path, monkeypatch, argv):
    # the features and the one-shot eigensystems, sketches included, are all
    # filled from row blocks of the cross block; only sgt takes it whole
    def whole(*args, **kwargs):
        raise AssertionError("took the whole n x m cross block")

    monkeypatch.setattr(GramSource, "cross_all", whole)
    assert main([argv[0], *synthetic_args(n=60), *argv[1:], "--seed", "4",
                 "--out", str(tmp_path / "run")]) == 0


def test_eigen_sgt_takes_the_whole_cross_block_once(tmp_path, monkeypatch):
    # the baseline and its residual's features share one cross block
    calls = []
    cross_all = GramSource.cross_all

    def counted(self, indices):
        calls.append(len(indices))
        return cross_all(self, indices)

    monkeypatch.setattr(GramSource, "cross_all", counted)
    assert main(["eigen", *synthetic_args(n=60), "--m", "12", "--method", "sgt",
                 "--seed", "4", "--out", str(tmp_path / "eig")]) == 0
    assert calls == [12]


def test_leverage_sketch_peaks_below_three_cross_blocks(tmp_path, peak_bytes):
    # the sketch's features are filled from row blocks, so the n x m0 cross
    # block is never whole: the features and the eigenvectors they rotate
    # into are the two n x m0 arrays
    n, m = 20000, 130
    m0 = 3 * m
    out = tmp_path / "marks"
    argv = ["sample", "--synthetic", "two_gaussians", "--n", str(n), "--p", "16",
            "--kernel", "kernel=gaussdiff sigma1=4.0 sigma2=8.0", "--m", str(m),
            "--sampler", "leverage", "--seed", "1", "--out", str(out)]
    codes = []
    peak = peak_bytes(lambda: codes.append(main(argv)))
    assert codes == [0]
    assert peak <= 2.6 * n * m0 * 8


@pytest.mark.parametrize("learner", ["lsm", "shsvm", "vclsm"])
def test_train_peaks_at_one_feature_array(tmp_path, peak_bytes, learner):
    # the features are filled from one row block of the cross block at a
    # time, so the n x m cross block is never held next to the n x r features;
    # vclsm adds its centred copy, and the QR of that copy takes one more
    # while it forms the r x r R factor, but no n x r singular vectors
    n, m = 30000, 300
    out = tmp_path / "model"
    argv = ["train", "--synthetic", "two_gaussians", "--n", str(n), "--p", "16",
            "--kernel", "kernel=gaussdiff sigma1=4.0 sigma2=8.0", "--m", str(m),
            "--learner", learner, "--seed", "1", "--out", str(out)]
    codes = []
    peak = peak_bytes(lambda: codes.append(main(argv)))
    rank = json.loads((out / "result.json").read_text())["effective_rank"]
    assert codes == [0]
    assert peak <= (2.3 if learner == "vclsm" else 1.3) * n * rank * 8


# rows within tolerance of the reference, exactly when tol is 0
def _agree(rows, reference, tol):
    if tol == 0.0:
        return np.array_equal(rows, reference)
    return np.abs(rows - reference).max() <= tol * np.abs(reference).max()


@pytest.mark.parametrize("kernel, tol", [
    ("matrix", 0.0),
    ("kernel=gaussdiff sigma1=1.0 sigma2=3.0", 0.0),
    ("kernel=gauss sigma=1.5", 0.0),
    ("kernel=epan sigma=3.0", 0.0),
    # their kernel rows are BLAS products, summed in another order by blocks
    ("kernel=tanh a=0.5 b=-0.2", 1e-12),
    ("kernel=linear", 1e-12),
])
def test_features_and_predictions_by_row_blocks(monkeypatch, kernel, tol):
    rng = np.random.default_rng(21)
    if kernel == "matrix":
        a = rng.normal(size=(300, 300))
        source = GramSource.from_matrix(SymMatrix((a + a.T) / 2.0))
    else:
        source = GramSource.from_data(parse_kernel_spec(kernel), rng.normal(size=(300, 4)))
    factor = landmark_factor(source, "uniform", 20, make_rng(3), None)
    cross = source.cross_all(factor.landmarks.indices)
    one_product = cross @ (factor.U_r / np.sqrt(np.abs(factor.d_r)) * factor.s_r)
    monkeypatch.setattr(linalg, "_ROW_BLOCK_ELEMENTS", 64 * factor.m)
    assert len(list(linalg.row_blocks(source.n, factor.m))) == 5
    fmap = build_feature_map(factor, source)
    # the whole cross block goes through the same row blocks, so the rows
    # agree as far as the kernel rows do; one product of the whole block may
    # sum the last rows of a block in another order
    assert _agree(fmap.phi, feature_rows(factor, cross), tol)
    assert _agree(fmap.phi, one_product, 1e-12)
    y = np.where(rng.random(300) < 0.5, -1.0, 1.0)
    for learner in ("lsm", "vclsm"):
        trained, solve, _ = learner_path(learner, fmap, y)
        model = solve(RegPair(0.1, 0.1))
        # predict is the landmark expansion, equal to Phi z to round-off
        assert _agree(model.predict(cross), trained.phi @ model.z, max(tol, 1e-12))


def test_one_budget_blocks_every_n_scale_pass(monkeypatch):
    import sys

    import kreinkit.cli

    rng = np.random.default_rng(23)
    source = GramSource.from_data(parse_kernel_spec("kernel=gaussdiff sigma1=1.0 sigma2=3.0"),
                                  rng.normal(size=(300, 4)))
    factor = landmark_factor(source, "uniform", 20, make_rng(5), None)
    cross = source.cross_all(factor.landmarks.indices)
    eig = truncate_eigen(one_shot_eigen(factor, build_feature_map(factor, cross).phi), 10)
    y = np.where(rng.random(300) < 0.5, -1.0, 1.0)
    blocks = {}  # the most blocks any call of each pass walked

    def counted(n, width):
        grid = list(linalg.row_blocks(n, width))
        caller = sys._getframe(1).f_code.co_name
        blocks[caller] = max(blocks.get(caller, 0), len(grid))
        return grid

    monkeypatch.setattr(learners, "row_blocks", counted)
    monkeypatch.setattr(kreinkit.cli, "row_blocks", counted)

    # one model, so that its predictions compare across the budgets
    model = learner_path("lsm", build_feature_map(factor, cross), y)[1](RegPair(0.1, 0.1))
    active = y * (model.map.phi @ model.z) < 1.0

    def passes():
        blocks.clear()
        fmap = build_feature_map(factor, source)
        return (fmap.phi, model.predict(cross), fmap.gram,
                learners._row_gram(fmap.phi, active), kreinkit.cli._residual_norms(source, [eig]))

    phi, pred, gram, hess, [resid] = passes()
    outer = ("build_feature_map", "_row_gram", "_residual_norms")
    assert {blocks[name] for name in outer} == {1}
    monkeypatch.setattr(linalg, "_ROW_BLOCK_ELEMENTS", 1)  # 64 rows at any width
    phi_b, pred_b, gram_b, hess_b, [resid_b] = passes()
    assert {blocks[name] for name in outer} == {5}
    # at this size the 64-row products are the bits of one product (OpenBLAS);
    # the Gram, the Hessian and the residual are sums, taken in another order;
    # predict walks no grid
    assert "predict" not in blocks
    assert np.array_equal(phi_b, phi) and np.array_equal(pred_b, pred)
    assert_allclose(gram_b, gram, rtol=1e-12, atol=0)
    assert_allclose(hess_b, hess, rtol=1e-12, atol=0)
    assert resid_b == pytest.approx(resid, rel=1e-12)


# ---------------------------------------------------------------------------
# cv


def test_cv_outputs(tmp_path):
    out = tmp_path / "cv"
    rc = main(["cv", *synthetic_args(n=60), "--learners", "lsm", "--ranks", "12",
               "--folds", "3", "--lambdas", "0.01", "--seed", "6", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "cv_folds.csv")
    assert header == ["learner", "k", "l", "fold", "error"]
    learners = {r[0] for r in rows}
    assert learners == {"lsm", "sf-lsm", "constant"}
    assert sum(1 for r in rows if r[0] == "lsm") == 3
    header, summary = read_csv(out / "cv_summary.csv")
    assert header == ["learner", "k", "l", "mean_error", "std_error", "median_error"]
    # the subcommand and every cv flag under its own name, resolved, and nothing else
    config = json.loads((out / "result.json").read_text())["config"]
    assert set(config) == {
        "command", "data", "matrix", "matrix_kind", "no_square", "labels", "target_class",
        "synthetic", "n", "p", "separation", "kernel", "no_standardize", "pinv_tol", "seed",
        "out", "learners", "sampler", "ranks", "landmark_factor", "folds", "lambdas",
        "radius_factors", "inner_folds"}
    assert config["learners"] == ["lsm"] and config["ranks"] == [12]
    assert config["radius_factors"] is None  # read by vclsm alone


def test_cv_scores_a_failed_refit_as_an_error(tmp_path, monkeypatch):
    import kreinkit.learners
    from kreinkit import SolverError

    def failing(*args, **kwargs):
        raise SolverError("injected secular solve failure")

    # every vclsm solve fails, so the inner grid and every refit score 1.0
    monkeypatch.setattr(kreinkit.learners, "solve_sphere_qp", failing)
    out = tmp_path / "cv"
    assert main(["cv", "--synthetic", "two_gaussians", "--n", "40", "--learners",
                 "lsm,vclsm,shsvm", "--ranks", "8", "--folds", "3", "--lambdas", "0.1,1",
                 "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    failed = {row["learner"]: row["failed_refits"] for row in result["summaries"]}
    assert failed == {"lsm": 0, "vclsm": 3, "shsvm": 0, "sf-lsm": 0, "constant": 0}
    _, rows = read_csv(out / "cv_folds.csv")
    assert [float(r[4]) for r in rows if r[0] == "vclsm"] == [1.0, 1.0, 1.0]


def test_cv_refits_vclsm_at_full_landmarks(tmp_path):
    # at full landmarks the centred features lose a rank; vclsm trains on
    # their range instead of failing the split
    out = tmp_path / "cv"
    assert main(["cv", "--synthetic", "two_gaussians", "--n", "40", "--learners", "vclsm",
                 "--ranks", "40", "--folds", "3", "--lambdas", "0.1,1",
                 "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    failed = {row["learner"]: row["failed_refits"] for row in result["summaries"]}
    assert failed["vclsm"] == 0
    _, summary = read_csv(out / "cv_summary.csv")
    mean = {row[0]: float(row[3]) for row in summary}
    assert mean["vclsm"] < mean["constant"]


def test_cv_constant_row_is_majority_class_error(tmp_path):
    out = tmp_path / "cv"
    rc = main(["cv", *synthetic_args(n=60), "--learners", "lsm", "--ranks", "10",
               "--folds", "3", "--lambdas", "0.01", "--seed", "1", "--out", str(out)])
    assert rc == 0
    _, summary = read_csv(out / "cv_summary.csv")
    constant = [r for r in summary if r[0] == "constant"][0]
    # balanced classes: the majority-class predictor errs on half of each fold
    assert float(constant[3]) == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("sampler", ["uniform", "leverage", "kmeanspp"])
def test_cv_identical_seeds_identical_files(tmp_path, sampler):
    args = ["cv", *synthetic_args(n=48), "--learners", "lsm,vclsm,shsvm", "--ranks", "8",
            "--folds", "3", "--lambdas", "0.01,0.1", "--inner-folds", "2",
            "--sampler", sampler, "--seed", "13"]
    main([*args, "--out", str(tmp_path / "a")])
    main([*args, "--out", str(tmp_path / "b")])
    for name in ("cv_folds.csv", "cv_summary.csv"):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


@pytest.mark.parametrize("sampler", ["uniform", "leverage", "kmeanspp"])
def test_cv_forms_no_whole_data_matrix(tmp_path, monkeypatch, sampler):
    import kreinkit.kernels
    import kreinkit.nystroem

    monkeypatch.setattr(GramSource, "full", refuse)
    refuse_order(monkeypatch, kreinkit.kernels, 60)
    refuse_order(monkeypatch, kreinkit.nystroem, 60)
    rc = main(["cv", *synthetic_args(n=60), "--learners", "lsm,vclsm,shsvm", "--ranks", "8",
               "--folds", "3", "--lambdas", "0.01,0.1", "--inner-folds", "2",
               "--sampler", sampler, "--seed", "4", "--out", str(tmp_path / "cv")])
    assert rc == 0
    _, summary = read_csv(tmp_path / "cv" / "cv_summary.csv")
    assert [row[0] for row in summary] == ["lsm", "vclsm", "shsvm", "sf-lsm", "constant"]


def test_cv_builds_each_split_factor_once(tmp_path, monkeypatch):
    import sys

    import kreinkit.landmarks

    calls = {"fit": 0, "qr": 0}
    original_fit, original_qr = kreinkit.landmarks.fit, np.linalg.qr

    def counted_fit(*args, **kwargs):
        calls["fit"] += 1
        return original_fit(*args, **kwargs)

    def counted_qr(*args, **kwargs):
        # the R factors of feature maps: the QRs learners makes
        calls["qr"] += sys._getframe(1).f_globals.get("__name__") == "kreinkit.learners"
        return original_qr(*args, **kwargs)

    monkeypatch.setattr(kreinkit.landmarks, "fit", counted_fit)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    learners, folds, inner_folds = ["lsm", "vclsm", "shsvm"], 3, 2
    rc = main(["cv", *synthetic_args(n=48), "--learners", ",".join(learners),
               "--ranks", "8", "--folds", str(folds), "--lambdas", "0.01,0.1",
               "--inner-folds", str(inner_folds), "--seed", "13",
               "--out", str(tmp_path / "cv")])
    assert rc == 0
    # one factor per (learner, outer fold, inner fold or the outer refit),
    # however many penalty pairs and radius factors the grid holds
    assert calls["fit"] == len(learners) * folds * (inner_folds + 1)
    # only vclsm needs the R factor of its features, once per split
    assert calls["qr"] == folds * (inner_folds + 1)


def test_cv_builds_each_sf_lsm_block_once(tmp_path, monkeypatch):
    import kreinkit.cli
    import kreinkit.kernels

    made = []
    solved = []  # the block of each grid point solved
    original_sym = kreinkit.kernels.SymMatrix
    original_sf = kreinkit.cli.sf_lsm_path

    def counted_sym(values):
        made.append(original_sym(values))
        return made[-1]

    def counted_sf(block, y):
        solve, grid = original_sf(block, y)

        def counted_grid(lams):
            solved.extend([id(block)] * len(lams))
            return grid(lams)

        return solve, counted_grid

    monkeypatch.setattr(kreinkit.kernels, "SymMatrix", counted_sym)
    monkeypatch.setattr(kreinkit.cli, "sf_lsm_path", counted_sf)
    folds, inner_folds, lambdas = 3, 2, [0.01, 0.1, 1.0]
    rc = main(["cv", *synthetic_args(n=48), "--learners", "lsm", "--ranks", "8",
               "--sampler", "uniform", "--folds", str(folds),
               "--lambdas", ",".join(map(str, lambdas)),
               "--inner-folds", str(inner_folds), "--seed", "13",
               "--out", str(tmp_path / "cv")])
    assert rc == 0
    splits = folds * (inner_folds + 1)  # inner splits plus the outer refits
    assert len(solved) == folds * (inner_folds * len(lambdas) + 1)
    assert len(set(solved)) == splits
    # the lsm landmark blocks, one per split, and the sf-lsm blocks, one per
    # split however many lambdas its grid holds
    assert len(made) == 2 * splits


def test_cv_factors_each_vclsm_penalty_pair_once(tmp_path, monkeypatch):
    import sys

    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        caller = sys._getframe(1)
        # the sphere-QP eigendecompositions: those linalg makes outside sym_eigen
        if (caller.f_globals.get("__name__") == "kreinkit.linalg"
                and caller.f_code.co_name != "sym_eigen"):
            calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    folds, inner_folds, lambdas = 3, 2, [0.01, 0.1]
    rc = main(["cv", *synthetic_args(n=48), "--learners", "vclsm", "--ranks", "8",
               "--folds", str(folds), "--lambdas", ",".join(map(str, lambdas)),
               "--radius-factors", "0.5,1,2", "--inner-folds", str(inner_folds),
               "--seed", "13", "--out", str(tmp_path / "cv")])
    assert rc == 0
    # one factorisation per (inner split, penalty ratio), however many radius
    # factors and penalty pairs of that ratio the grid holds, plus one for each
    # outer refit; 0.01 / 0.1 and 0.1 / 0.1 make three ratios, not four pairs
    ratios = {(lp / max(lp, ln), ln / max(lp, ln)) for lp in lambdas for ln in lambdas}
    assert len(ratios) == 3
    assert len(calls) == folds * (inner_folds * len(ratios) + 1)


def test_cv_failing_vclsm_factorisation_fails_every_radius(tmp_path, monkeypatch):
    import kreinkit.cli
    import kreinkit.learners
    from kreinkit import RegPair, SolverError

    # the penalty ratio of the first grid entry (0.01, 0.01), so a tie would
    # pick it, and of (0.1, 0.1)
    bad = RegPair(1.0, 1.0)
    current = []
    attempts = []
    grids = []
    picked = []
    original_path = kreinkit.learners.vc_lsm_path
    original_lambda = kreinkit.learners._lambda_diag
    original_factor = kreinkit.learners.factor_sphere_qp
    original_pick = kreinkit.cli._pick_hyper

    def recorded_path(fmap, y):
        solve, grid = original_path(fmap, y)

        def recorded_grid(hypers):
            grids.append(len(hypers))
            return grid(hypers)

        return solve, recorded_grid

    def recorded_lambda(reg, signs):  # each W is formed from one ratio's penalties
        current.append(reg)
        return original_lambda(reg, signs)

    def failing_factor(W, b):
        attempts.append(current[-1])
        if current[-1] == bad:
            raise SolverError("injected factorisation failure")
        return original_factor(W, b)

    def recorded_pick(learner, *args, **kwargs):
        hyper = original_pick(learner, *args, **kwargs)
        if learner == "vclsm":
            picked.append(hyper)
        return hyper

    monkeypatch.setattr(kreinkit.learners, "vc_lsm_path", recorded_path)
    monkeypatch.setattr(kreinkit.learners, "_lambda_diag", recorded_lambda)
    monkeypatch.setattr(kreinkit.learners, "factor_sphere_qp", failing_factor)
    monkeypatch.setattr(kreinkit.cli, "_pick_hyper", recorded_pick)
    folds, inner_folds, radii = 3, 2, 3
    rc = main(["cv", *synthetic_args(n=48), "--learners", "vclsm", "--ranks", "8",
               "--folds", str(folds), "--lambdas", "0.01,0.1", "--inner-folds",
               str(inner_folds), "--seed", "13", "--out", str(tmp_path / "cv")])
    assert rc == 0
    # each inner split solves its whole grid in one call, and each outer refit
    # solves one point
    assert grids == [4 * radii] * inner_folds + [1] + [4 * radii] * inner_folds + [1] \
        + [4 * radii] * inner_folds + [1]
    # a raise is not kept as a factorisation, and the pairs and radii of a
    # ratio share its one attempt: every inner split tries the bad ratio once,
    # and fails both its pairs
    assert attempts.count(bad) == folds * inner_folds
    assert len(picked) == folds
    assert all(reg not in (RegPair(0.01, 0.01), RegPair(0.1, 0.1)) for reg, _ in picked)


def test_cv_grid_shares_factorisations_and_warm_starts(tmp_path, monkeypatch):
    import sys

    import kreinkit.learners

    eighs = []
    gram_rows = []
    original_eigh = np.linalg.eigh
    original_gram = kreinkit.learners._row_gram
    original_newton = kreinkit.learners._newton_squared_hinge

    def counted_eigh(a, *args, **kwargs):
        caller = sys._getframe(1)
        # the sphere-QP eigendecompositions: those linalg makes outside sym_eigen
        if (caller.f_globals.get("__name__") == "kreinkit.linalg"
                and caller.f_code.co_name != "sym_eigen"):
            eighs.append(a.shape)
        return original_eigh(a, *args, **kwargs)

    def counted_gram(features, rows=None, less=None):  # the rows each Gram sums
        gram_rows.append(len(features) if rows is None else np.count_nonzero(rows))
        return original_gram(features, rows, less)

    def cold(features, gram, y, lam_diag, n_scale, start=None):
        return original_newton(features, gram, y, lam_diag, n_scale)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(kreinkit.learners, "_row_gram", counted_gram)
    folds, inner_folds = 3, 3
    argv = ["cv", *synthetic_args(n=48), "--learners", "vclsm,shsvm", "--ranks", "8",
            "--folds", str(folds), "--inner-folds", str(inner_folds), "--seed", "17"]
    assert main([*argv, "--out", str(tmp_path / "warm")]) == 0
    # the default 7 x 7 penalty grid holds 15 ratios in floating point
    assert len(eighs) <= folds * (inner_folds * 15 + 1)
    warm_rows = sum(gram_rows)
    del gram_rows[:]
    monkeypatch.setattr(kreinkit.learners, "_newton_squared_hinge", cold)
    assert main([*argv, "--out", str(tmp_path / "cold")]) == 0
    assert warm_rows < sum(gram_rows)


@pytest.mark.parametrize("learner", ["lsm", "vclsm", "shsvm"])
def test_pick_hyper_scores_each_point_as_its_single_solve(monkeypatch, learner):
    import kreinkit.cli as cli

    args = cli.build_parser().parse_args(
        ["cv", *synthetic_args(n=60), "--learners", learner, "--ranks", "8",
         "--lambdas", "1e-3,0.1,1e308", "--inner-folds", "3", "--seed", "7"])
    cli.validate_config(args)
    source, y = cli.load_inputs(args, need_labels=True)
    splits = []  # per inner split: test rows, labels, grid points, a fresh path
    original_path = cli.learner_path
    original_decisions = learners.FeatureMap.decisions
    original_rates = cli.misclassification
    rates = []

    def recorded_path(name, fmap, y_train):
        trained_on, solve, grid = original_path(name, fmap, y_train)
        split = {"single": original_path(name, fmap, y_train)[1]}
        splits.append(split)

        def recorded_grid(hypers):
            split["hypers"] = hypers
            return grid(hypers)

        return trained_on, solve, recorded_grid

    def recorded_decisions(self, K_rows, Z):
        splits[-1]["k_test"] = K_rows
        return original_decisions(self, K_rows, Z)

    def recorded_rates(decisions, labels):
        rates.append(original_rates(decisions, labels))
        splits[len(rates) - 1]["labels"] = labels
        return rates[-1]

    monkeypatch.setattr(cli, "learner_path", recorded_path)
    monkeypatch.setattr(learners.FeatureMap, "decisions", recorded_decisions)
    monkeypatch.setattr(cli, "misclassification", recorded_rates)
    grid = cli._hyper_grid(args, learner)
    picked = cli._pick_hyper(learner, source, y, np.arange(source.n), 8, 8, args, (0, 0))
    monkeypatch.undo()  # the single solves' predictions below are not recorded
    assert len(splits) == len(rates) == args.inner_folds
    scores = np.zeros(len(splits[0]["hypers"]))  # in walk order
    for split, split_rates in zip(splits, rates):
        expected = []
        for reg, r in split["hypers"]:
            try:
                model = split["single"](reg, r)
            except SolverError:
                expected.append(1.0)
                continue
            expected.append(misclassification(np.sign(model.predict(split["k_test"])),
                                              split["labels"]))
        failed = [reg.lam_pos > 1e300 or reg.lam_neg > 1e300 for reg, _ in split["hypers"]]
        assert np.array_equal(np.where(failed, 1.0, split_rates), expected)
        assert 1.0 in expected
        scores += expected
    # the walk visits the lambda+ rows of the grid serpentine-wise
    width = len(grid) // len(args.lambdas)
    walk = [gi for ri in range(len(args.lambdas))
            for gi in (range(ri * width, (ri + 1) * width)[::-1 if ri % 2 else 1])]
    best = min(walk, key=lambda gi: (scores[walk.index(gi)], gi))
    assert picked == grid[best]


@pytest.mark.parametrize("learner", ["lsm", "vclsm", "shsvm"])
def test_split_decisions_are_each_column_models_predictions(monkeypatch, learner):
    import kreinkit.cli as cli

    args = cli.build_parser().parse_args(
        ["cv", *synthetic_args(n=60), "--learners", learner, "--ranks", "8",
         "--lambdas", "1e-3,0.1,1e308", "--seed", "7"])
    cli.validate_config(args)
    source, y = cli.load_inputs(args, need_labels=True)
    seen = {}
    original_path = cli.learner_path

    def recorded_path(name, fmap, y_train):
        trained_on, solve, grid = original_path(name, fmap, y_train)
        seen["map"] = trained_on

        def recorded_grid(hypers):
            seen["hypers"] = hypers
            seen["Z"], failed = grid(hypers)
            return seen["Z"], failed

        return trained_on, solve, recorded_grid

    monkeypatch.setattr(cli, "learner_path", recorded_path)
    test = np.arange(0, source.n, 4)
    train = np.setdiff1d(np.arange(source.n), test)
    predict = cli._split_predictor(learner, source, y, train, test, 8, 8, args, make_rng(7))
    decisions, failed = predict(cli._hyper_grid(args, learner))
    fmap = seen["map"]
    k_test = source.cross(test, train[fmap.factor.landmarks.indices])
    assert decisions.shape == (len(seen["hypers"]), test.size)
    for p, (reg, r) in enumerate(seen["hypers"]):
        if failed[p]:
            continue
        model = LowRankModel(z=seen["Z"][:, p], map=fmap, learner=learner, reg=reg,
                             r_constraint=r)
        expected = model.predict(k_test)
        assert np.abs(decisions[p] - expected).max() <= 1e-12 * np.abs(expected).max()
    assert failed.any() and not failed.all()


_NEAR_CANCELLING = "kernel=gaussdiff sigma1=1.0 sigma2=1.0000001"

# (points, kernel, cv flags, train flags, runs that must succeed); later
# flags override the defaults
DEGENERATE_CASES = [
    pytest.param({}, None, ["--lambdas", "0"], ["--lambda-pos", "0", "--lambda-neg", "0"],
                 (), id="lambda-0"),
    pytest.param({}, None, ["--lambdas", "1e-300"],
                 ["--lambda-pos", "1e-300", "--lambda-neg", "1e-300"], (), id="lambda-1e-300"),
    # n lambda overflows: the pairs holding 1e308 fail as solver errors
    pytest.param({}, None, ["--lambdas", "1e308,1"], ["--lambda-pos", "1e308"], ("cv",),
                 id="lambda-1e308"),
    pytest.param({"duplicated": True}, None, [], [], (), id="duplicates"),
    # the sf-lsm ridge system of the duplicated points is singular
    pytest.param({"duplicated": True}, None, ["--lambdas", "1e-300"],
                 ["--lambda-pos", "1e-300", "--lambda-neg", "1e-300"], (),
                 id="duplicates-lambda-1e-300"),
    # the centred vclsm features lose a rank; vclsm trains on their range
    pytest.param({}, None, ["--ranks", "40"], ["--m", "40"], ("vclsm",), id="m-equals-n"),
    pytest.param({}, None, ["--ranks", "1"], ["--m", "1"], (), id="m-1"),
    # lambda_min of the vclsm sphere QP is 1.2e5 against a bracket of 0.83
    pytest.param({}, _NEAR_CANCELLING, [], [], ("vclsm",), id="near-cancelling"),
    pytest.param({"minority": 0.1}, None, [], [], (), id="90-10-classes"),
]


def _degenerate_inputs(tmp_path, duplicated=False, minority=0.5, n=40):
    rng = np.random.default_rng(19)
    y = np.where(np.arange(n) < round(n * minority), -1.0, 1.0)
    x = rng.normal(size=(n, 3))
    x[:, 0] += 1.5 * y
    if duplicated:
        x[1::2] = x[::2]  # every point twice, labels included
        y[1::2] = y[::2]
    np.savetxt(tmp_path / "x.csv", x, delimiter=",")
    (tmp_path / "y.txt").write_text("".join(f"{int(v)}\n" for v in y))
    return ["--data", str(tmp_path / "x.csv"), "--labels", str(tmp_path / "y.txt")]


@pytest.mark.parametrize("points, kernel, cv_flags, train_flags, succeed", DEGENERATE_CASES)
def test_cv_and_train_on_degenerate_inputs(tmp_path, capsys, points, kernel, cv_flags,
                                           train_flags, succeed):
    inputs = [*_degenerate_inputs(tmp_path, **points),
              "--kernel", kernel or "kernel=gaussdiff sigma1=1.0 sigma2=3.0", "--seed", "5"]
    runs = [("cv", ["cv", *inputs, "--learners", "lsm,vclsm,shsvm", "--ranks", "8",
                    "--folds", "3", "--inner-folds", "2", "--lambdas", "0.01,1",
                    *cv_flags])]
    runs += [(learner, ["train", *inputs, "--learner", learner, "--m", "8", *train_flags])
             for learner in ("lsm", "vclsm", "shsvm")]
    for name, argv in runs:
        out = tmp_path / name
        rc = main([*argv, "--out", str(out)])  # an uncaught exception fails here
        assert rc in ((0,) if name in succeed else (0, 2, 3, 4)), (name, rc)
        assert "Traceback" not in capsys.readouterr().err
        if rc != 0:
            continue
        if name == "cv":
            _, summary = read_csv(out / "cv_summary.csv")
            assert np.all(np.isfinite([[float(v) for v in row[3:]] for row in summary]))
        else:
            model, _ = load_model(out / "model.json")
            assert np.all(np.isfinite(model.z))
            result = json.loads((out / "result.json").read_text())
            assert np.isfinite(result["training_error"])


def test_overflowing_penalties_fail_as_solver_errors(tmp_path, capsys):
    rc = main(["cv", *synthetic_args(n=60), "--learners", "lsm,vclsm,shsvm", "--ranks", "8",
               "--folds", "3", "--lambdas", "1e308,1", "--seed", "1",
               "--out", str(tmp_path / "cv")])
    assert rc == 0
    result = json.loads((tmp_path / "cv" / "result.json").read_text())
    # every refit ran at (1, 1), the only pair that does not overflow
    assert all(row["failed_refits"] == 0 for row in result["summaries"])
    for learner in ("lsm", "vclsm", "shsvm"):
        out = tmp_path / learner
        assert main(["train", *synthetic_args(n=60), "--learner", learner, "--m", "8",
                     "--lambda-pos", "1e308", "--out", str(out)]) == 4
        assert "n * lambda overflows" in capsys.readouterr().err
        assert not (out / "result.json").exists()


# (points, kernel, landmark budget); each runs every sampler and eigen method
SPECTRAL_CASES = [
    pytest.param({"duplicated": True}, None, 8, id="duplicates"),
    pytest.param({}, None, 1, id="m-1"),
    pytest.param({}, None, 40, id="m-equals-n"),
    pytest.param({}, _NEAR_CANCELLING, 8, id="near-cancelling"),
]


@pytest.mark.parametrize("sampler", ["uniform", "leverage", "kmeanspp"])
@pytest.mark.parametrize("points, kernel, m", SPECTRAL_CASES)
def test_approx_eigen_sample_on_degenerate_inputs(tmp_path, capsys, points, kernel, m,
                                                  sampler):
    inputs = [*_degenerate_inputs(tmp_path, **points),
              "--kernel", kernel or "kernel=gaussdiff sigma1=1.0 sigma2=3.0", "--seed", "5"]
    # (name, argv, numeric outputs as (table, column) pairs)
    runs = [("approx", ["approx", *inputs, "--samplers", sampler, "--ranks", str(m),
                        "--reps", "2"], [("approx_raw.csv", 4), ("approx_median.csv", 3)]),
            ("sample", ["sample", *inputs, "--sampler", sampler, "--m", str(m)],
             [("landmarks.csv", 1)])]
    runs += [(method, ["eigen", *inputs, "--sampler", sampler, "--m", str(m),
                       "--method", method], [("eigenvalues.csv", 1)])
             for method in ("one_shot", "sgt")]
    for name, argv, tables in runs:
        out = tmp_path / name
        rc = main([*argv, "--out", str(out)])  # an uncaught exception fails here
        assert rc in (0, 2, 3, 4), (name, rc)
        assert "Traceback" not in capsys.readouterr().err
        if rc != 0:
            continue
        for table, column in tables:
            _, rows = read_csv(out / table)
            assert rows and np.all(np.isfinite([float(row[column]) for row in rows]))
        if name in ("one_shot", "sgt"):
            result = json.loads((out / "result.json").read_text())
            assert np.isfinite(result["reconstruction_relative_error"])
            assert np.isfinite(result["orthonormality_residual"])


def test_cv_refits_draw_from_their_own_generators(tmp_path, monkeypatch):
    import sys

    import kreinkit.cli

    keys = {}
    original = kreinkit.cli.spawn_rng

    def recorded(seed, *key):
        keys.setdefault(sys._getframe(1).f_code.co_name, []).append(key)
        return original(seed, *key)

    monkeypatch.setattr(kreinkit.cli, "spawn_rng", recorded)
    folds = 3
    assert main(["cv", *synthetic_args(n=48), "--learners", "lsm,shsvm", "--ranks", "8",
                 "--folds", str(folds), "--lambdas", "0.01,0.1", "--inner-folds", "2",
                 "--seed", "13", "--out", str(tmp_path / "cv")]) == 0
    plan, *refits = keys["run_cv"]
    inner = keys["_pick_hyper"]  # the inner fold plans and the inner splits
    assert len(refits) == 4 * folds  # lsm, shsvm, sf-lsm and constant
    # the two baselines share a key: the constant predictor draws nothing
    assert len(set(refits)) == 3 * folds
    assert len(set(inner)) == len(inner)
    assert not set(refits) & set(inner)
    assert plan not in refits + inner


def test_cv_timings_leave_scoring_out(tmp_path, monkeypatch):
    import time

    import kreinkit.cli

    delay, folds = 0.1, 3
    original = kreinkit.cli.misclassification

    def slow(*args):
        time.sleep(delay)
        return original(*args)

    monkeypatch.setattr(kreinkit.cli, "misclassification", slow)
    out = tmp_path / "cv"
    assert main(["cv", *synthetic_args(n=48), "--learners", "lsm", "--ranks", "8",
                 "--folds", str(folds), "--lambdas", "0.1", "--seed", "1",
                 "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    [timings] = [row["timings"] for row in result["summaries"] if row["learner"] == "lsm"]
    # three refits on 48 points take milliseconds; scoring a fold sleeps `delay`
    assert list(timings) == ["refit_seconds"]
    assert timings["refit_seconds"] < folds * delay


def test_cv_separable_data_full_budget(tmp_path):
    out = tmp_path / "sep"
    rc = main(["cv", *synthetic_args(n=100), "--no-standardize", "--learners",
               "shsvm", "--ranks", "100", "--folds", "5", "--lambdas", "0.1",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    _, summary = read_csv(out / "cv_summary.csv")
    shsvm = [r for r in summary if r[0] == "shsvm"][0]
    assert float(shsvm[3]) <= 0.02  # 6-sigma separation, landmarks = all points


# ---------------------------------------------------------------------------
# bench


def test_bench_flops_columns(tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--n-schedule", "400,800", "--m", "50", "--reps", "3",
               "--p", "3", "--seed", "0", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "bench_summary.csv")
    assert header == ["n", "m", "method", "mean_seconds", "std_seconds",
                      "median_seconds", "flops"]
    for row in rows:
        n, m, method = int(row[0]), int(row[1]), row[2]
        expected = (3 if method == "one_shot" else 7) * m * m * n \
            + (3 if method == "one_shot" else 2) * m**3
        assert int(row[6]) == expected
    result = json.loads((out / "result.json").read_text())
    assert set(result["slopes"]) == {"one_shot", "sgt"}


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_config_errors(tmp_path, capsys):
    assert main(["approx", "--ranks", "5"]) == 2  # no input source
    assert main(["approx", "--synthetic", "two_gaussians", "--data", "x.csv",
                 "--ranks", "5"]) == 2  # two input sources
    assert main(["approx", *synthetic_args(n=20), "--ranks", "25"]) == 2  # k > n
    assert main(["eigen", *synthetic_args(n=20), "--m", "30"]) == 2
    assert main(["approx", *synthetic_args(), "--ranks", "5", "--reps", "0"]) == 2
    assert main(["approx", "--synthetic", "two_gaussians", "--n", "20",
                 "--kernel", "kernel=warp", "--ranks", "5"]) == 2
    assert main(["flops", "--n", "0"]) == 2  # needs n >= m >= 1
    assert main(["eigen", "--synthetic", "two_gaussians", "--n", "50", "--m", "10",
                 "--pinv-tol", "nan"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eigen", "sample", "train"])
@pytest.mark.parametrize("m", [0, 21])
def test_landmark_budget_out_of_range_exits_two(monkeypatch, capsys, command, m):
    def unreached(*args, **kwargs):
        raise AssertionError("evaluated the kernel")

    # the landmark selection refuses the budget before any kernel value is formed
    monkeypatch.setattr(GramSource, "_kernel", unreached)
    assert main([command, *synthetic_args(n=20), "--m", str(m)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: landmark budget")


def test_exit_code_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,9.0\n2.0,3.0\n")  # grossly asymmetric
    assert main(["eigen", "--matrix", str(bad), "--m", "1"]) == 3
    labels = tmp_path / "y.txt"
    labels.write_text("a\nb\n")
    good = tmp_path / "good.csv"
    write_matrix(good, np.eye(3))
    assert main(["cv", "--matrix", str(good), "--labels", str(labels),
                 "--learners", "lsm", "--ranks", "2", "--folds", "2"]) == 3
    # a target class is one of the labels as a whole, not a prefix of one
    labels.write_text("1\n2\n1\n")
    assert main(["train", "--matrix", str(good), "--labels", str(labels),
                 "--target-class", "10", "--m", "2"]) == 3
    assert "class '10' does not occur" in capsys.readouterr().err


def test_exit_code_solver_errors(tmp_path, capsys):
    zeros = tmp_path / "zeros.csv"
    write_matrix(zeros, np.zeros((4, 4)))
    assert main(["eigen", "--matrix", str(zeros), "--m", "2", "--seed", "0"]) == 4
    capsys.readouterr()
    # a vanishing penalty makes the linear-kernel Newton Hessian exactly singular
    assert main(["train", "--synthetic", "two_gaussians", "--n", "40", "--m", "10",
                 "--lambda-pos", "1e-300", "--lambda-neg", "1e-300", "--learner", "shsvm",
                 "--kernel", "kernel=linear"]) == 4
    assert capsys.readouterr().err.startswith("solver error: ")


@pytest.mark.parametrize("command, flags, code", [
    ("cv", ["--lambdas", "nan"], 2),
    ("cv", ["--lambdas", "0.1,inf"], 2),
    ("cv", ["--lambdas", "0"], 2),
    ("cv", ["--radius-factors", "-1"], 2),
    ("cv", ["--radius-factors", "0"], 2),
    ("cv", ["--radius-factors", "1,nan"], 2),
    ("train", ["--lambda-pos", "-1"], 2),
    ("train", ["--lambda-pos", "nan"], 2),
    ("train", ["--lambda-neg", "inf"], 2),
    ("train", ["--radius", "-1"], 2),
    ("train", ["--radius", "0"], 2),
    ("train", ["--radius", "nan"], 2),
    # zero penalties pass the check for lsm and reach the (missing) data;
    # the squared-hinge solver needs positive ones
    ("train", ["--lambda-pos", "0", "--lambda-neg", "0"], 3),
    ("train", ["--learner", "shsvm", "--lambda-pos", "0"], 2),
    ("train", ["--learner", "shsvm", "--lambda-neg", "0"], 2),
    ("train", ["--seed", "-1"], 2),
    ("cv", ["--seed", "-1"], 2),
    # an --out that names a file, or a path under one
    ("train", ["--out", "{file}"], 2),
    ("cv", ["--out", "{file}/run"], 2),
])
def test_hyperparameters_are_checked_before_any_io(tmp_path, capsys, command, flags, code):
    (tmp_path / "file").write_text("")
    flags = [flag.format(file=tmp_path / "file") for flag in flags]
    # the input files do not exist, so reading them exits 3
    inputs = ["--data", str(tmp_path / "x.csv"), "--labels", str(tmp_path / "y.txt"),
              "--kernel", "kernel=linear", *(["--m", "5"] if command == "train" else [])]
    assert main([command, *inputs, *flags]) == code
    assert capsys.readouterr().err.startswith(
        "configuration error: " if code == 2 else "data error: ")


_BENCH = ["bench", "--n-schedule", "60", "--m", "5", "--reps", "1"]
_SYNTHETIC = ["--synthetic", "two_gaussians", "--n", "40"]


# widths whose divisor 2 sigma^2 (sigma^2 for epan) overflowed, which exited 1
# with an OverflowError, or underflowed to zero, which exited 3 with
# non-finite kernel values
@pytest.mark.parametrize("argv", [
    ["train", *_SYNTHETIC, "--m", "5"],
    ["approx", *_SYNTHETIC, "--ranks", "5", "--reps", "1"],
    [*_BENCH],
], ids=["train", "approx", "bench"])
@pytest.mark.parametrize("kernel", [
    "kernel=gauss sigma=1e160",
    "kernel=gaussdiff sigma1=1e300 sigma2=8",
    "kernel=epan sigma=1e300",
    "kernel=epan sigma=1e-200",
])
def test_kernel_widths_out_of_float_range_exit_two(capsys, argv, kernel):
    assert main([*argv, "--kernel", kernel]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: kernel width") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    *([command, *flags, "--m", "2"] for command in ("sample", "train") for flags in (
        ["--synthetic", "two_gaussians", "--n", "5"],
        ["--synthetic", "two_gaussians", "--p", "0"],
        ["--synthetic", "two_gaussians", "--separation", "-1"],
        # a matrix holds the kernel's values, so a kernel spec would only mislabel them
        ["--matrix", "missing.csv", "--kernel", "kernel=gauss sigma=1.0"])),
    [*_BENCH, "--p", "0"],
])
def test_bad_input_flags_exit_two(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("flags", [
    *(["sample", *inputs, "--m", "2"] for inputs in (
        ["--matrix", "missing.csv", "--n", "7"],
        ["--matrix", "missing.csv", "--p", "3"],
        ["--matrix", "missing.csv", "--separation", "-1"],
        ["--matrix", "missing.csv", "--no-standardize"],
        ["--data", "missing.csv", "--kernel", "kernel=linear", "--n", "7"],
        ["--data", "missing.csv", "--kernel", "kernel=linear", "--no-square"],
        ["--data", "missing.csv", "--kernel", "kernel=linear", "--matrix-kind", "similarity"],
        ["--synthetic", "two_gaussians", "--no-square"],
        ["--synthetic", "two_gaussians", "--matrix-kind", "dissimilarity"],
        ["--matrix", "missing.csv", "--n", "7", "--separation", "-1", "--p", "0",
         "--no-standardize"])),
    # --radius and --radius-factors set vclsm's variance target, and
    # --target-class maps --labels
    ["train", "--data", "missing.csv", "--kernel", "kernel=linear", "--labels", "y.txt",
     "--m", "2", "--learner", "shsvm", "--radius", "3"],
    ["train", "--data", "missing.csv", "--kernel", "kernel=linear", "--labels", "y.txt",
     "--m", "2", "--radius", "3"],
    ["train", "--synthetic", "two_gaussians", "--m", "2", "--target-class", "1"],
    ["cv", "--synthetic", "two_gaussians", "--target-class", "1"],
    ["cv", "--matrix", "missing.csv", "--target-class", "1"],
    ["cv", "--synthetic", "two_gaussians", "--n", "40", "--learners", "lsm", "--ranks", "5",
     "--folds", "2", "--radius-factors", "0.5,7"],
])
def test_input_flags_act_only_with_their_input(capsys, flags):
    # refused before any input is read; a missing file would exit 3
    assert main(flags) == 2
    assert "acts only with" in capsys.readouterr().err


_INPUT_KEYS = ("n", "p", "separation", "no_standardize", "matrix_kind", "no_square")


@pytest.mark.parametrize("source, used", [
    ("synthetic", (20, 4, 6.0, False, None, None)),
    ("data", (None, None, None, False, None, None)),
    ("matrix", (None, None, None, None, "similarity", False)),
])
def test_result_config_records_the_input_defaults_used(tmp_path, source, used):
    write_matrix(tmp_path / "k.csv", np.eye(4))
    inputs = {"synthetic": ["--synthetic", "two_gaussians", "--n", "20"],
              "data": ["--data", str(tmp_path / "k.csv"), "--kernel", "kernel=linear"],
              "matrix": ["--matrix", str(tmp_path / "k.csv")]}[source]
    out = tmp_path / "run"
    assert main(["sample", *inputs, "--m", "2", "--out", str(out)]) == 0
    config = json.loads((out / "result.json").read_text())["config"]
    assert tuple(config[key] for key in _INPUT_KEYS) == used


@pytest.mark.parametrize("argv", [
    # bench draws its own points and reads no input flag
    *([*_BENCH, *flag] for flag in (
        ["--data", "x.csv"], ["--matrix", "k.csv"], ["--matrix-kind", "dissimilarity"],
        ["--no-square"], ["--labels", "y.txt"], ["--target-class", "zz"],
        ["--synthetic", "concentric"], ["--n", "99999"], ["--separation", "2"],
        ["--no-standardize"], ["--data-format", "whitespace"])),
    # only train and cv read labels
    ["approx", *_SYNTHETIC, "--ranks", "5", "--labels", "y.txt"],
    ["eigen", *_SYNTHETIC, "--m", "5", "--target-class", "1"],
    ["sample", *_SYNTHETIC, "--m", "5", "--labels", "y.txt"],
    # the layout of a table is read from the file
    ["sample", "--data", "x.csv", "--kernel", "kernel=linear", "--m", "2",
     "--data-format", "whitespace"],
    ["eigen", "--matrix", "k.csv", "--m", "2", "--matrix-format", "csv"],
    # no abbreviations
    ["cv", *_SYNTHETIC, "--ranks", "5", "--learner", "lsm", "--fold", "2", "--inner", "2",
     "--lambda", "1"],
    [*_BENCH, "--n", "5"],
    ["approx", *_SYNTHETIC, "--ranks", "5", "--rep", "1"],
])
def test_flags_a_command_does_not_read_exit_two(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "non_utf8"])
@pytest.mark.parametrize("flag", ["--data", "--matrix", "--labels"])
def test_unreadable_input_files_exit_three(tmp_path, capsys, flag, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "non_utf8":
        path.write_bytes(np.random.default_rng(8).bytes(300))
    write_matrix(tmp_path / "k.csv", np.eye(4))
    inputs = {"--data": ["--data", str(path), "--kernel", "kernel=linear"],
              "--matrix": ["--matrix", str(path)],
              "--labels": ["--matrix", str(tmp_path / "k.csv"), "--labels", str(path)]}
    # only train and cv read labels
    command = "train" if flag == "--labels" else "sample"
    assert main([command, *inputs[flag], "--m", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err


def test_unknown_flag_exits_two(capsys):
    assert main(["approx", "--does-not-exist"]) == 2
    assert main(["approx", *synthetic_args(), "--ranks", "5", "--workers", "2"]) == 2
    capsys.readouterr()
