"""The three benchmark workloads: inputs made from a seed, the kreinkit
command line each job runs, and the checks its outputs must pass.

Every input is a file written here; the program never sees ``--synthetic``.
Reference values the checks need (labels of the held-out table, the
Frobenius norm of the full kernel) are computed here with plain NumPy, not
with kreinkit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("approx_sketch", "cv_grid", "train_predict")

# what quality_error means on each workload
QUALITY = {"approx_sketch": "rel_frob_error", "cv_grid": "cv_error",
           "train_predict": "holdout_error"}

KERNEL = "kernel=gaussdiff sigma1=4.0 sigma2=8.0"

# the metrics measure the full size; the smoke size only exercises the harness
SIZES = {
    # 32 clusters: with 8, where the few centres fell moved quality_error by
    # up to 18% between seeds.  One repetition (after the CLI's own warm-up
    # one) keeps a job near 11 s, so a run holds several jobs.
    "approx_sketch": {"full": {"n": 3000, "p": 16, "clusters": 32, "ranks": "25,50,100",
                               "reps": "1"},
                      "smoke": {"n": 160, "p": 4, "clusters": 3, "ranks": "5,10",
                                "reps": "1"}},
    "cv_grid": {"full": {"n": 400, "dim": 8, "folds": 5, "ranks": "50", "lambdas": None},
                "smoke": {"n": 40, "dim": 8, "folds": 3, "ranks": "5", "lambdas": "0.1,1"}},
    "train_predict": {"full": {"n": 40000, "p": 16, "m": 400},
                      "smoke": {"n": 300, "p": 4, "m": 20}},
}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _write_table(path: str, x: np.ndarray) -> None:
    np.savetxt(path, x, fmt="%.17g", delimiter=",")


def _write_labels(path: str, y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{int(v)}\n" for v in y))


def _two_class(rng, n: int, p: int):
    """Balanced-in-expectation classes: a shifted axis plus an XOR-like
    second axis, so a linear rule is not enough."""
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x = rng.normal(size=(n, p))
    x[:, 0] += 0.8 * y
    x[:, 1] += 0.8 * y * np.sign(x[:, 2])
    return x, y


def _gaussdiff_fro(x: np.ndarray) -> float:
    """||K||_F of the standardized gaussdiff Gram matrix, with the zero
    diagonal the kernel has exactly."""
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    sq = np.einsum("ij,ij->i", z, z)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0)
    k = np.exp(d2 / (-2.0 * 4.0**2)) - np.exp(d2 / (-2.0 * 8.0**2))
    np.fill_diagonal(k, 0.0)
    return float(np.linalg.norm(k))


def generate(workload: str, seed: int, work: str, smoke: bool) -> dict:
    """Write the workload's input files under ``work``; return the job spec
    pieces (CLI arguments and reference values)."""
    size = SIZES[workload]["smoke" if smoke else "full"]
    rng = _rng(workload, seed)

    def path(name: str) -> str:
        return os.path.join(work, name)

    if workload == "approx_sketch":
        centers = rng.normal(scale=2.0, size=(size["clusters"], size["p"]))
        member = rng.integers(size["clusters"], size=size["n"])
        x = centers[member] + rng.normal(size=(size["n"], size["p"]))
        _write_table(path("points.csv"), x)
        argv = ["approx", "--data", path("points.csv"), "--kernel", KERNEL,
                "--samplers", "leverage,kmeanspp", "--ranks", size["ranks"],
                "--reps", size["reps"]]
        return {"argv": argv, "kernel_fro": _gaussdiff_fro(x)}
    if workload == "cv_grid":
        n = size["n"]
        y = np.where(np.arange(n) < n // 2, 1.0, -1.0)
        pts = rng.normal(size=(n, size["dim"]))
        pts[:, 0] += 2.5 * y
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
        # flip exactly a quarter of each class: the error floor is then 0.25
        # for every seed, and what varies is the learners' own excess error
        noisy = y.copy()
        for cls in (1.0, -1.0):
            members = np.flatnonzero(y == cls)
            noisy[rng.choice(members, size=members.size // 4, replace=False)] = -cls
        _write_table(path("dissimilarity.csv"), dist)
        _write_labels(path("labels.txt"), noisy)
        argv = ["cv", "--matrix", path("dissimilarity.csv"),
                "--matrix-kind", "dissimilarity", "--labels", path("labels.txt"),
                "--learners", "lsm,vclsm,shsvm", "--folds", str(size["folds"]),
                "--ranks", size["ranks"]]
        if size["lambdas"]:
            argv += ["--lambdas", size["lambdas"]]
        return {"argv": argv}
    if workload == "train_predict":
        x, y = _two_class(rng, size["n"], size["p"])
        x_hold, y_hold = _two_class(rng, size["n"], size["p"])
        _write_table(path("train.csv"), x)
        _write_labels(path("train_labels.txt"), y)
        _write_table(path("holdout.csv"), x_hold)
        argv = ["train", "--data", path("train.csv"), "--labels", path("train_labels.txt"),
                "--kernel", KERNEL, "--learner", "shsvm", "--m", str(size["m"]),
                "--sampler", "uniform", "--no-standardize"]
        return {"argv": argv, "train": path("train.csv"), "holdout": path("holdout.csv"),
                "y_train": y.tolist(), "y_holdout": y_hold.tolist()}
    raise ValueError(f"unknown workload {workload!r}")


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _error_rate(path: str, y) -> float:
    """Misclassification of written decision values: sign 0 counts as wrong."""
    values = np.loadtxt(path, ndmin=1)
    return float(np.mean(np.asarray(y) * values <= 0.0))


def check(workload: str, spec: dict, out: str) -> tuple[dict, list]:
    """Check one job's outputs; returns (quality values, problems)."""
    problems = []
    if workload == "approx_sketch":
        _, rows = _read_csv(os.path.join(out, "approx_median.csv"))
        errors = [float(row[3]) for row in rows]
        if not errors or not all(math.isfinite(e) and e >= 0.0 for e in errors):
            problems.append(f"median errors not finite: {errors}")
        rel = float(np.mean(errors)) / spec["kernel_fro"] if errors else math.nan
        return {"rel_frob_error": rel}, problems
    if workload == "cv_grid":
        _, rows = _read_csv(os.path.join(out, "cv_summary.csv"))
        mean = {row[0]: float(row[3]) for row in rows}
        learners = ("lsm", "vclsm", "shsvm")
        for name in learners:
            if not mean.get(name, math.inf) < mean.get("constant", -math.inf):
                problems.append(f"{name} mean_error {mean.get(name)} is not below the "
                                f"constant baseline {mean.get('constant')}")
        if problems:
            return {"cv_error": math.nan}, problems
        return {"cv_error": float(np.mean([mean[name] for name in learners]))}, problems
    with open(os.path.join(out, "result.json"), encoding="utf-8") as handle:
        reported = json.load(handle)["training_error"]
    train_error = _error_rate(os.path.join(out, "predict_train.csv"), spec["y_train"])
    if train_error != reported:
        problems.append(f"reloaded model's training error {train_error!r} differs from "
                        f"training_error {reported!r} in result.json")
    holdout = _error_rate(os.path.join(out, "predict_holdout.csv"), spec["y_holdout"])
    if not 0.0 < holdout < 0.5:
        problems.append(f"holdout error {holdout} is not better than chance")
    return {"holdout_error": holdout}, problems


# output files whose bytes must repeat for the same seed
OUTPUTS = {
    "approx_sketch": ("approx_raw.csv", "approx_median.csv"),
    "cv_grid": ("cv_folds.csv", "cv_summary.csv"),
    "train_predict": ("model.json", "predict_train.csv", "predict_holdout.csv"),
}


def fingerprint(workload: str, out: str) -> dict:
    """Digest of each output file's bytes, with wall-clock columns dropped:
    the approx tables carry per-repetition seconds, which legitimately vary."""
    prints = {}
    for name in OUTPUTS[workload]:
        with open(os.path.join(out, name), "rb") as handle:
            data = handle.read()
        if workload == "approx_sketch":
            rows = [line.split(b",") for line in data.splitlines()]
            keep = [i for i, col in enumerate(rows[0]) if not col.endswith(b"seconds")]
            data = b"\n".join(b",".join(row[i] for i in keep) for row in rows)
        prints[name] = hashlib.sha256(data).hexdigest()
    return prints
