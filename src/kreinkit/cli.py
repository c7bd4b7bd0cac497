"""Command-line interface.

One executable with subcommands:

  approx   sweep samplers and ranks, write approximation error/time tables
  eigen    approximate eigendecomposition of one configuration
  sample   write a landmark set for a sampler and seed
  train    fit one learner on the whole dataset and write a model file
  cv       stratified k-fold evaluation of the learners plus baselines
  bench    wall-clock scaling of the two eigendecomposition routes
  flops    closed-form multiplication counts for both routes

Exit codes: 0 success, 2 configuration error, 3 data error, 4 solver failure.

Outputs are CSV tables plus a ``result.json`` that embeds the schema version,
the package version, and the fully resolved configuration, so every file can
be traced back to the exact run that produced it.  With a fixed ``--seed``
the numeric outputs are reproducible; wall-clock columns of course vary.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .data import (
    EvalResult,
    load_labels,
    load_matrix,
    load_table,
    double_center_neg,
    make_synthetic,
    misclassification,
    one_vs_all,
    stratified_kfold,
)
from .errors import (
    ConfigError,
    DegenerateScores,
    DegenerateSpectrum,
    FoldError,
    InvalidBudget,
    InvalidClass,
    InvalidInput,
    ParseError,
    RankDeficient,
    ShapeError,
    SingularLandmarkBlock,
    SolverError,
    UseLoadMatrixInstead,
)
from .kernels import (
    GramSource,
    gram,
    gram_cross,
    parse_kernel_spec,
    standardize,
)
from .landmarks import (
    default_sketch_size,
    landmark_factor,
    select_landmarks,
    spawn_rng,
    uniform_landmarks,
)
from .learners import (
    RegPair,
    build_feature_map,
    center_features,
    krein_krr_lowrank,
    save_model,
    sf_lsm_path,
    sh_svm_lowrank,
    vc_lsm_lowrank,
    vc_lsm_path,
)
from .nystroem import (
    fit,
    flop_count,
    one_shot_eigen,
    sgt_one_shot,
    truncate_eigen,
    truncate_factor,
)

SCHEMA_VERSION = 1
SAMPLERS = ("uniform", "leverage", "kmeanspp")
LEARNERS = ("lsm", "vclsm", "shsvm")
# the kernel of --synthetic inputs and of bench when --kernel is not given
DEFAULT_KERNEL = "kernel=gaussdiff sigma1=1.0 sigma2=3.0"

# spawn-key domains for derived generators, so every task seed is distinct
_DOMAIN_DATA = 0
_DOMAIN_SWEEP = 1
_DOMAIN_CV = 2
_DOMAIN_BENCH = 3
_DOMAIN_SINGLE = 4


@dataclass
class RunConfig:
    """Fully resolved run configuration; embedded in every result file."""

    command: str
    data: str | None = None
    data_format: str = "csv"
    matrix: str | None = None
    matrix_format: str = "csv"
    matrix_kind: str = "similarity"
    square: bool = True
    labels: str | None = None
    target_class: str | None = None
    synthetic: str | None = None
    n: int = 500
    p: int = 4
    separation: float = 6.0
    kernel: str | None = None
    standardize: bool = True
    pinv_tol: float | None = None
    samplers: list = field(default_factory=lambda: ["uniform"])
    ranks: list = field(default_factory=list)
    landmark_factor: str = "1"
    m: int | None = None
    method: str = "one_shot"
    learners: list = field(default_factory=lambda: ["lsm", "vclsm", "shsvm"])
    lambdas: list = field(default_factory=lambda: [10.0**e for e in range(-4, 3)])
    radius_factors: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    inner_folds: int = 3
    lam_pos: float = 1e-2
    lam_neg: float = 1e-2
    radius: float | None = None
    folds: int = 10
    reps: int = 10
    seed: int = 0
    out: str | None = None
    n_schedule: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_ranks(text: str) -> list:
    """Rank schedules: explicit '10,20,40' or geometric 'a:b:xS'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("x"):
            raise ConfigError(f"rank schedule {text!r} is not 'start:stop:xSTEP'")
        try:
            start, stop, step = int(parts[0]), int(parts[1]), float(parts[2][1:])
        except ValueError:
            raise ConfigError(f"rank schedule {text!r} has non-numeric fields") from None
        if start < 1 or stop < start or step <= 1.0:
            raise ConfigError(f"rank schedule {text!r} must grow from >= 1 with factor > 1")
        ranks = []
        value = float(start)
        while round(value) <= stop:
            if not ranks or round(value) != ranks[-1]:
                ranks.append(int(round(value)))
            value *= step
        return ranks
    try:
        ranks = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"rank list {text!r} has non-integer entries") from None
    if not ranks or any(r < 1 for r in ranks):
        raise ConfigError("ranks must be positive integers")
    return ranks


def _parse_float_list(text: str, flag: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def _parse_name_list(text: str, allowed, flag: str) -> list:
    names = [tok for tok in text.split(",") if tok]
    for name in names:
        if name not in allowed:
            raise ConfigError(f"{flag}: unknown name {name!r}; allowed: {', '.join(allowed)}")
    if not names:
        raise ConfigError(f"{flag} must not be empty")
    return names


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("input")
    group.add_argument("--data", help="feature table (rows = points)")
    group.add_argument("--data-format", default="csv", choices=["csv", "whitespace"])
    group.add_argument("--matrix", help="precomputed square matrix file")
    group.add_argument("--matrix-format", default="csv", choices=["csv", "whitespace"])
    group.add_argument("--matrix-kind", default="similarity",
                       choices=["similarity", "dissimilarity"])
    group.add_argument("--no-square", action="store_true",
                       help="dissimilarities are already squared")
    group.add_argument("--labels", help="label file, one label per line")
    group.add_argument("--target-class", help="map labels to +1 (target) / -1 (rest)")
    group.add_argument("--synthetic", choices=["two_gaussians", "concentric"])
    group.add_argument("--n", type=int, default=500, help="synthetic sample count")
    group.add_argument("--p", type=int, default=4, help="synthetic feature count")
    group.add_argument("--separation", type=float, default=6.0)
    group.add_argument("--kernel", help='e.g. "kernel=gaussdiff sigma1=1.0 sigma2=3.0"')
    group.add_argument("--no-standardize", action="store_true",
                       help="skip feature standardization for vector data")
    group.add_argument("--pinv-tol", type=float, default=None)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="output directory (default: print summary only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kreinkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="approximation error/time sweep")
    _add_input_flags(p)
    _add_run_flags(p)
    p.add_argument("--samplers", default="uniform")
    p.add_argument("--ranks", default="10:160:x2")
    p.add_argument("--landmark-factor", default="1", choices=["1", "logn"])
    p.add_argument("--reps", type=int, default=10)

    p = sub.add_parser("eigen", help="one approximate eigendecomposition")
    _add_input_flags(p)
    _add_run_flags(p)
    p.add_argument("--m", type=int, required=True, help="landmark budget")
    p.add_argument("--sampler", default="uniform", choices=SAMPLERS)
    p.add_argument("--method", default="one_shot", choices=["one_shot", "sgt"])

    p = sub.add_parser("sample", help="write a landmark set")
    _add_input_flags(p)
    _add_run_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sampler", default="uniform", choices=SAMPLERS)

    p = sub.add_parser("train", help="fit one learner on the full dataset")
    _add_input_flags(p)
    _add_run_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sampler", default="uniform", choices=SAMPLERS)
    p.add_argument("--learner", default="lsm", choices=LEARNERS)
    p.add_argument("--lambda-pos", type=float, default=1e-2)
    p.add_argument("--lambda-neg", type=float, default=1e-2)
    p.add_argument("--radius", type=float, default=None,
                   help="variance target for vclsm (default sqrt(n) * std(y))")

    p = sub.add_parser("cv", help="stratified k-fold evaluation")
    _add_input_flags(p)
    _add_run_flags(p)
    p.add_argument("--learners", default="lsm,vclsm,shsvm")
    p.add_argument("--sampler", default="uniform", choices=SAMPLERS)
    p.add_argument("--ranks", default="50")
    p.add_argument("--landmark-factor", default="1", choices=["1", "logn"])
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--lambdas", default=None,
                   help="comma-separated grid (default 1e-4..1e2 log-spaced)")
    p.add_argument("--radius-factors", default="0.5,1,2")
    p.add_argument("--inner-folds", type=int, default=3)

    p = sub.add_parser("bench", help="wall-clock scaling of both routes")
    _add_input_flags(p)
    _add_run_flags(p)
    p.add_argument("--n-schedule", default="2000,4000,8000")
    p.add_argument("--m", type=int, default=200)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--methods", default="one_shot,sgt")

    p = sub.add_parser("flops", help="closed-form multiplication counts")
    p.add_argument("--n", dest="n_list", default="1000000")
    p.add_argument("--m", dest="m_list", default="1000")
    p.add_argument("--out")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("data", "data_format", "matrix", "matrix_format", "matrix_kind",
                 "labels", "target_class", "synthetic", "n", "p", "separation",
                 "kernel", "pinv_tol", "seed", "out", "m", "method",
                 "folds", "reps", "inner_folds"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "no_square", False):
        cfg.square = False
    if getattr(args, "no_standardize", False):
        cfg.standardize = False
    if hasattr(args, "samplers"):
        cfg.samplers = _parse_name_list(args.samplers, SAMPLERS, "--samplers")
    if hasattr(args, "sampler"):
        cfg.samplers = [args.sampler]
    if hasattr(args, "ranks"):
        cfg.ranks = _parse_ranks(args.ranks)
    if hasattr(args, "landmark_factor"):
        cfg.landmark_factor = args.landmark_factor
    if hasattr(args, "learners"):
        cfg.learners = _parse_name_list(args.learners, LEARNERS, "--learners")
    if hasattr(args, "learner"):
        cfg.learners = [args.learner]
    if getattr(args, "lambdas", None):
        cfg.lambdas = _parse_float_list(args.lambdas, "--lambdas")
    if getattr(args, "radius_factors", None):
        cfg.radius_factors = _parse_float_list(args.radius_factors, "--radius-factors")
    if hasattr(args, "lambda_pos"):
        cfg.lam_pos = args.lambda_pos
        cfg.lam_neg = args.lambda_neg
        cfg.radius = args.radius
    if hasattr(args, "methods"):
        cfg.method = args.methods
    if hasattr(args, "n_schedule"):
        cfg.n_schedule = [int(v) for v in _parse_float_list(args.n_schedule, "--n-schedule")]
    if args.command == "flops":
        cfg.n_schedule = [int(v) for v in _parse_float_list(args.n_list, "--n")]
        cfg.ranks = [int(v) for v in _parse_float_list(args.m_list, "--m")]
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Structural validation that needs no data; runs before any IO."""
    if cfg.reps < 1:
        raise ConfigError("--reps must be at least 1")
    if cfg.pinv_tol is not None and not (math.isfinite(cfg.pinv_tol) and cfg.pinv_tol >= 0):
        raise ConfigError("--pinv-tol must be a finite non-negative number")
    if cfg.command == "flops":
        for n in cfg.n_schedule:
            for m in cfg.ranks:
                if not n >= m >= 1:
                    raise ConfigError(f"flops needs n >= m >= 1, got n={n}, m={m}")
    if cfg.command == "cv":
        if cfg.folds < 2:
            raise ConfigError("--folds must be at least 2")
        if cfg.inner_folds < 2:
            raise ConfigError("--inner-folds must be at least 2")
        if any(lam <= 0 for lam in cfg.lambdas):
            raise ConfigError("--lambdas must be positive")
    inputs = sum(1 for v in (cfg.data, cfg.matrix, cfg.synthetic) if v)
    if cfg.command == "bench":
        # bench draws its own standard-normal points per schedule entry
        if inputs:
            raise ConfigError("bench generates its own data; drop the input flags")
        return
    if cfg.command != "flops":
        if inputs == 0:
            raise ConfigError("provide exactly one of --data, --matrix, --synthetic")
        if inputs > 1:
            raise ConfigError("--data, --matrix, and --synthetic are mutually exclusive")
        if cfg.synthetic and not cfg.kernel:
            cfg.kernel = DEFAULT_KERNEL
        if cfg.data and not cfg.kernel:
            raise ConfigError("vector data needs --kernel")


def resolve_schedule(cfg: RunConfig, n: int) -> list:
    """Expand ranks into (rank, landmark budget) pairs and validate them."""
    schedule = []
    for k in cfg.ranks:
        if cfg.landmark_factor == "logn":
            l = min(n, default_sketch_size(min(k, n), n))
        else:
            l = k
        if not 1 <= k <= l <= n:
            raise ConfigError(
                f"schedule entry needs 1 <= k <= l <= n, got k={k}, l={l}, n={n}"
            )
        schedule.append((k, l))
    return schedule


# ---------------------------------------------------------------------------
# input loading


def load_inputs(cfg: RunConfig, need_labels: bool = False):
    """Build the Gram source (and labels) described by the configuration."""
    y = None
    if cfg.synthetic:
        ds = make_synthetic(cfg.synthetic, cfg.n, cfg.p,
                            spawn_rng(cfg.seed, _DOMAIN_DATA), cfg.separation)
        x = ds.X
        y = ds.y
        if cfg.standardize:
            x, _ = standardize(x)
        source = GramSource.from_data(parse_kernel_spec(cfg.kernel), x)
    elif cfg.data:
        x = load_table(cfg.data, cfg.data_format)
        if cfg.standardize:
            x, _ = standardize(x)
        if not cfg.kernel:
            raise ConfigError("vector data needs --kernel")
        source = GramSource.from_data(parse_kernel_spec(cfg.kernel), x)
    elif cfg.matrix:
        loaded = load_matrix(cfg.matrix, cfg.matrix_format, kind=cfg.matrix_kind,
                             squared=not cfg.square)
        if cfg.matrix_kind == "dissimilarity":
            loaded = double_center_neg(loaded)
        source = GramSource.from_matrix(loaded)
    else:
        raise ConfigError("no input given")

    if cfg.labels:
        raw = load_labels(cfg.labels)
        if raw.shape[0] != source.n:
            raise ShapeError(
                f"{cfg.labels}: {raw.shape[0]} labels for {source.n} data points"
            )
        if cfg.target_class is not None:
            y = one_vs_all(raw, cfg.target_class)
        else:
            try:
                y = raw.astype(float)
            except ValueError:
                raise ConfigError(
                    "labels are not numeric; use --target-class to binarize"
                ) from None
    if need_labels and y is None:
        raise ConfigError("this command needs labels (--labels or --synthetic)")
    return source, y


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_result(cfg: RunConfig, payload: dict) -> None:
    if not cfg.out:
        return
    body = {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "kreinkit", "version": __version__},
        "command": cfg.command,
        "config": asdict(cfg),
    }
    body.update(payload)
    with open(f"{cfg.out}/result.json", "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=1, default=str)


def _ensure_outdir(cfg: RunConfig) -> None:
    if cfg.out:
        import os

        os.makedirs(cfg.out, exist_ok=True)


# ---------------------------------------------------------------------------
# approx


# a scoring block of K holds at most this many rows * n * p elements (p = 1
# for a matrix source), so each block of K and its residual stay within
# 32 MiB / p at any n; the block size also fixes the order in which the
# residual squares are summed, so changing it changes the reported errors
# at round-off level
_SCORE_BLOCK_ELEMENTS = 1 << 22


def _residual_norms(rows, n: int, width: int, eigs) -> list:
    """Frobenius errors ||K - U diag(lam) U'|| of several eigensystems, from
    one pass over the row blocks ``rows(start, stop)`` of the n x n matrix K,
    each entry of which costs ``width`` elements to form; no n x n array is
    formed."""
    for eig in eigs:
        if not (np.all(np.isfinite(eig.U)) and np.all(np.isfinite(eig.lam))):
            raise InvalidInput("approximate eigensystem entries must be finite")
    step = max(1, _SCORE_BLOCK_ELEMENTS // (n * width))
    squares = np.zeros(len(eigs))
    for start in range(0, n, step):
        stop = min(n, start + step)
        block = rows(start, stop)
        if not np.all(np.isfinite(block)):
            raise InvalidInput("matrix entries must be finite")
        for i, eig in enumerate(eigs):
            resid = (eig.U[start:stop] * eig.lam) @ eig.U.T
            resid -= block
            squares[i] += np.vdot(resid, resid)
    return np.sqrt(squares).tolist()


def run_approx_sweep(source: GramSource, samplers, schedule, reps: int, seed: int,
                     pinv_tol: float | None):
    """Error/time sweep; returns raw rows and per-configuration medians.

    Every repetition draws its own generator from (seed, sampler, schedule
    slot, repetition).  Each configuration runs one discarded warm-up
    repetition before the timed ones.  The timed results are scored together
    afterwards, in one pass over row blocks of the kernel matrix.
    """
    tasks = []
    for si, sampler in enumerate(samplers):
        for ki, (k, l) in enumerate(schedule):
            for rep in range(-1, reps):  # rep -1 is the warm-up
                tasks.append((si, sampler, ki, k, l, rep))

    def one(task):
        si, sampler, ki, k, l, rep = task
        rng = spawn_rng(seed, _DOMAIN_SWEEP, si, ki, max(rep, 0), int(rep < 0))
        start = time.perf_counter()
        factor, cross = landmark_factor(source, sampler, l, rng, pinv_tol)
        eig = truncate_eigen(one_shot_eigen(factor, cross), k)
        seconds = time.perf_counter() - start
        return (sampler, k, l, rep, eig, seconds)

    timed = [row for row in map(one, tasks) if row[3] >= 0]
    errors = _residual_norms(source.rows, source.n, source.points.size // source.n,
                             [row[4] for row in timed])
    raw = [(*row[:4], error, row[5]) for row, error in zip(timed, errors)]
    medians = []
    for si, sampler in enumerate(samplers):
        for k, l in schedule:
            errs = [r[4] for r in raw if r[0] == sampler and r[1] == k and r[2] == l]
            secs = [r[5] for r in raw if r[0] == sampler and r[1] == k and r[2] == l]
            medians.append((sampler, k, l, float(np.median(errs)), float(np.median(secs))))
    return raw, medians


def cmd_approx(cfg: RunConfig) -> int:
    source, _ = load_inputs(cfg)
    schedule = resolve_schedule(cfg, source.n)
    raw, medians = run_approx_sweep(source, cfg.samplers, schedule, cfg.reps,
                                    cfg.seed, cfg.pinv_tol)
    _ensure_outdir(cfg)
    if cfg.out:
        _write_csv(f"{cfg.out}/approx_raw.csv",
                   ["sampler", "k", "l", "repetition", "frobenius_error", "seconds"], raw)
        _write_csv(f"{cfg.out}/approx_median.csv",
                   ["sampler", "k", "l", "median_error", "median_seconds"], medians)
        _write_result(cfg, {"medians": [list(row) for row in medians]})
    for row in medians:
        print(f"{row[0]:>9}  k={row[1]:<5d} l={row[2]:<5d} "
              f"median_error={row[3]:.6e}  median_seconds={row[4]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# eigen / sample / train


def cmd_eigen(cfg: RunConfig) -> int:
    source, _ = load_inputs(cfg)
    if not 1 <= cfg.m <= source.n:
        raise ConfigError(f"--m must lie in [1, {source.n}]")
    factor, cross = landmark_factor(source, cfg.samplers[0], cfg.m,
                                    spawn_rng(cfg.seed, _DOMAIN_SINGLE), cfg.pinv_tol)
    eig = one_shot_eigen(factor, cross) if cfg.method == "one_shot" else \
        sgt_one_shot(factor, cross)
    gram_residual = float(np.abs(eig.U.T @ eig.U - np.eye(eig.rank)).max())
    # the approximation is C diag(1/d) C' with C = cross U_r, scored by row
    # blocks; with C = QR its norm is that of the r x r R diag(1/d) R'
    C = cross @ factor.U_r
    [recon_err] = _residual_norms(lambda a, b: (C[a:b] / factor.d_r) @ C.T, source.n, 1,
                                  [eig])
    R = np.linalg.qr(C, mode="r")
    scale = float(np.linalg.norm((R / factor.d_r) @ R.T, "fro"))
    rel = recon_err / scale if scale > 0.0 else 0.0
    negative_mass = float(np.abs(eig.lam[eig.lam < 0]).sum())
    total_mass = float(np.abs(eig.lam).sum())
    _ensure_outdir(cfg)
    if cfg.out:
        _write_csv(f"{cfg.out}/eigenvalues.csv", ["index", "eigenvalue"],
                   list(enumerate(eig.lam.tolist())))
        _write_result(cfg, {
            "method": cfg.method,
            "effective_rank": factor.effective_rank,
            "orthonormality_residual": gram_residual,
            "reconstruction_relative_error": rel,
            "negative_mass_share": negative_mass / total_mass if total_mass else 0.0,
            "warning": eig.warning,
        })
    print(f"rank={eig.rank} orthonormality_residual={gram_residual:.3e} "
          f"reconstruction_relative_error={rel:.3e}")
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    source, _ = load_inputs(cfg)
    if not 1 <= cfg.m <= source.n:
        raise ConfigError(f"--m must lie in [1, {source.n}]")
    rng = spawn_rng(cfg.seed, _DOMAIN_SINGLE)
    marks = select_landmarks(cfg.samplers[0], source, cfg.m, rng, cfg.pinv_tol)
    mult = marks.multiplicity if marks.multiplicity is not None else \
        np.ones(marks.m, dtype=int)
    rows = [(i, int(idx), int(c)) for i, (idx, c) in enumerate(zip(marks.indices, mult))]
    _ensure_outdir(cfg)
    if cfg.out:
        _write_csv(f"{cfg.out}/landmarks.csv", ["position", "index", "multiplicity"], rows)
        _write_result(cfg, {"requested": marks.requested, "effective": marks.m})
    print(f"sampler={cfg.samplers[0]} requested={marks.requested} effective={marks.m}")
    return 0


def _train_one(learner: str, fmap, y, reg: RegPair, radius: float | None):
    if learner == "lsm":
        return krein_krr_lowrank(fmap, y, reg)
    if learner == "vclsm":
        if radius is None:
            radius = float(np.sqrt(fmap.n) * np.std(y))
        return vc_lsm_lowrank(fmap, y, reg, radius)
    if learner == "shsvm":
        return sh_svm_lowrank(fmap, y, reg)
    raise ConfigError(f"unknown learner {learner!r}")


def cmd_train(cfg: RunConfig) -> int:
    source, y = load_inputs(cfg, need_labels=True)
    if not 1 <= cfg.m <= source.n:
        raise ConfigError(f"--m must lie in [1, {source.n}]")
    learner = cfg.learners[0]
    fmap = build_feature_map(*landmark_factor(source, cfg.samplers[0], cfg.m,
                                              spawn_rng(cfg.seed, _DOMAIN_SINGLE),
                                              cfg.pinv_tol))
    if learner == "vclsm":
        fmap = center_features(fmap)
    model = _train_one(learner, fmap, y, RegPair(cfg.lam_pos, cfg.lam_neg), cfg.radius)
    training_error = misclassification(np.sign(fmap.phi @ model.z), y) \
        if set(np.unique(y).tolist()) <= {-1.0, 1.0} else None
    _ensure_outdir(cfg)
    if cfg.out:
        spec = parse_kernel_spec(cfg.kernel) if cfg.kernel else None
        save_model(f"{cfg.out}/model.json", model, spec)
        _write_result(cfg, {
            "learner": learner,
            "effective_rank": fmap.factor.effective_rank,
            "training_error": training_error,
            "diagnostics": model.diagnostics,
        })
    print(f"learner={learner} m={cfg.m} effective_rank={fmap.factor.effective_rank} "
          f"training_error={training_error}")
    return 0


# ---------------------------------------------------------------------------
# cross-validation


def _hyper_grid(cfg: RunConfig, learner: str):
    """Enumerate hyperparameter combinations for one learner: (penalties,
    radius factor) pairs for the low-rank learners, lambdas for sf-lsm."""
    if learner == "constant":
        return [None]
    if learner == "sf-lsm":
        return list(cfg.lambdas)
    pairs = [RegPair(lp, ln) for lp, ln in itertools.product(cfg.lambdas, cfg.lambdas)]
    if learner == "vclsm":
        return [(reg, factor) for reg in pairs for factor in cfg.radius_factors]
    return [(reg, None) for reg in pairs]


def _split_predictor(learner: str, source: GramSource, y, train, test, rank, budget,
                     cfg: RunConfig, rng: np.random.Generator):
    """Held-out scores of one (train, test) split as a function of the
    hyperparameters; what no grid point changes is built once, here.

    Only the low-rank learners read ``rank`` and ``budget``; they factor the
    training fold through ``landmark_factor``.
    """
    y_train = y[train]
    if learner == "constant":
        value = 1.0 if float(np.sum(y_train > 0)) * 2 >= train.size else -1.0
        return lambda hyper: np.full(test.size, value)
    if learner == "sf-lsm":
        solve = sf_lsm_path(source.block(train), y_train)
        cross = source.cross(test, train)
        return lambda lam: solve(lam).predict(cross)
    factor, cross = landmark_factor(source.subset(train), cfg.samplers[0],
                                    min(budget, train.size), rng, cfg.pinv_tol)
    factor = truncate_factor(factor, rank)
    fmap = build_feature_map(factor, cross)
    if learner == "vclsm":
        fmap = center_features(fmap)
    phi_test = fmap.rows(source.cross(test, train[factor.landmarks.indices]))
    if learner != "vclsm":
        return lambda hyper: phi_test @ _train_one(learner, fmap, y_train, hyper[0], None).z
    root_n, spread = np.sqrt(train.size), np.std(y_train)
    paths = {}  # penalty pair -> vc_lsm_path; one that raised is not stored

    def predict(hyper):
        reg, radius_factor = hyper
        if reg not in paths:
            paths[reg] = vc_lsm_path(fmap, y_train, reg)
        return phi_test @ paths[reg](float(radius_factor * root_n * spread)).z

    return predict


def _pick_hyper(learner, source, y, train, rank, budget, cfg, key):
    """Inner cross-validation over the hyperparameter grid; deterministic
    tie-break toward the earliest grid entry."""
    grid = _hyper_grid(cfg, learner)
    if len(grid) == 1:
        return grid[0]
    inner = stratified_kfold(y[train], cfg.inner_folds, spawn_rng(cfg.seed, _DOMAIN_CV, *key))
    scores = np.zeros(len(grid))
    for fi, (itr, ite) in enumerate(inner.splits()):
        predict = _split_predictor(learner, source, y, train[itr], train[ite], rank,
                                   budget, cfg, spawn_rng(cfg.seed, _DOMAIN_CV, *key, fi))
        for gi, hyper in enumerate(grid):
            try:
                scores[gi] += misclassification(np.sign(predict(hyper)), y[train[ite]])
            except (SolverError, RankDeficient):
                scores[gi] += 1.0  # a failing combination never wins
    return grid[int(np.argmin(scores))]


def run_cv(source: GramSource, y, cfg: RunConfig):
    """Full cross-validation sweep; returns per-fold rows and summaries."""
    schedule = resolve_schedule(cfg, source.n)
    plan = stratified_kfold(y, cfg.folds, spawn_rng(cfg.seed, _DOMAIN_CV))
    # (learner, k, l, seed key) per summary row; the baselines (similarities-
    # as-features ridge, constant predictor) share a key: the constant draws nothing
    runs = [(learner, k, l, (li, ki)) for li, learner in enumerate(cfg.learners)
            for ki, (k, l) in enumerate(schedule)]
    runs += [(baseline, "full", "full", (97,)) for baseline in ("sf-lsm", "constant")]
    fold_rows = []
    summaries = []
    splits = list(plan.splits())
    for learner, k, l, key in runs:
        rates = []
        train_s = predict_s = 0.0
        for fi, (train, test) in enumerate(splits):
            hyper = _pick_hyper(learner, source, y, train, k, l, cfg, (*key, fi))
            t0 = time.perf_counter()
            predict = _split_predictor(learner, source, y, train, test, k, l, cfg,
                                       spawn_rng(cfg.seed, _DOMAIN_CV, *key, fi))
            preds = predict(hyper)
            t1 = time.perf_counter()
            rate = misclassification(np.sign(preds), y[test])
            train_s += t1 - t0
            predict_s += time.perf_counter() - t1
            rates.append(rate)
            fold_rows.append((learner, k, l, fi, rate))
        timings = {"train_seconds": train_s, "predict_seconds": predict_s} \
            if learner in LEARNERS else {}
        summaries.append((learner, k, l, EvalResult.from_rates(rates, timings)))
    return fold_rows, summaries


def cmd_cv(cfg: RunConfig) -> int:
    source, y = load_inputs(cfg, need_labels=True)
    fold_rows, summaries = run_cv(source, y, cfg)
    _ensure_outdir(cfg)
    summary_rows = [
        (learner, k, l, res.mean, res.std, res.median) for learner, k, l, res in summaries
    ]
    if cfg.out:
        _write_csv(f"{cfg.out}/cv_folds.csv",
                   ["learner", "k", "l", "fold", "error"], fold_rows)
        _write_csv(f"{cfg.out}/cv_summary.csv",
                   ["learner", "k", "l", "mean_error", "std_error", "median_error"],
                   summary_rows)
        _write_result(cfg, {
            "summaries": [
                {"learner": learner, "k": k, "l": l, "mean": res.mean, "std": res.std,
                 "median": res.median, "timings": res.timings}
                for learner, k, l, res in summaries
            ],
        })
    for learner, k, l, res in summaries:
        print(f"{learner:>9}  k={k!s:<5} l={l!s:<5} mean={res.mean:.4f} "
              f"(std {res.std:.4f})  median={res.median:.4f}")
    return 0


# ---------------------------------------------------------------------------
# bench / flops


def run_bench(cfg: RunConfig):
    """Time both eigendecomposition routes on synthetic problems.

    The kernel blocks are built outside the timed region; each timed run
    covers the landmark-block eigendecomposition plus the route itself, which
    is exactly what the closed-form counts cover.  One warm-up run per
    configuration is discarded.
    """
    methods = _parse_name_list(cfg.method, ("one_shot", "sgt"), "--methods")
    spec = parse_kernel_spec(cfg.kernel)
    rows = []
    for ni, n in enumerate(cfg.n_schedule):
        if n < cfg.m:
            raise ConfigError(f"--n-schedule entry {n} is below the landmark budget {cfg.m}")
        rng = spawn_rng(cfg.seed, _DOMAIN_BENCH, ni)
        x = rng.normal(size=(n, cfg.p))
        marks = uniform_landmarks(n, cfg.m, rng)
        K_ZZ = gram(spec, x[marks.indices])
        K_XZ = gram_cross(spec, x, x[marks.indices])
        for method in methods:
            route = one_shot_eigen if method == "one_shot" else sgt_one_shot
            for rep in range(-1, cfg.reps):
                start = time.perf_counter()
                factor = fit(K_ZZ, cfg.pinv_tol, marks)
                route(factor, K_XZ)
                seconds = time.perf_counter() - start
                if rep >= 0:
                    rows.append((n, cfg.m, method, rep, seconds,
                                 flop_count(method, n, cfg.m)))
    summary = []
    for n in cfg.n_schedule:
        for method in methods:
            secs = [r[4] for r in rows if r[0] == n and r[2] == method]
            summary.append((n, cfg.m, method, float(np.mean(secs)), float(np.std(secs)),
                            float(np.median(secs)), flop_count(method, n, cfg.m)))
    slopes = {}
    if len(cfg.n_schedule) >= 2:
        for method in methods:
            ns = np.array(cfg.n_schedule, dtype=float)
            means = np.array([s[3] for s in summary if s[2] == method])
            slope, intercept = np.polyfit(ns, means, 1)
            slopes[method] = {"seconds_per_point": float(slope),
                              "intercept_seconds": float(intercept)}
    return rows, summary, slopes


def cmd_bench(cfg: RunConfig) -> int:
    if not cfg.kernel:
        cfg.kernel = DEFAULT_KERNEL
    rows, summary, slopes = run_bench(cfg)
    _ensure_outdir(cfg)
    if cfg.out:
        _write_csv(f"{cfg.out}/bench_raw.csv",
                   ["n", "m", "method", "repetition", "seconds", "flops"], rows)
        _write_csv(f"{cfg.out}/bench_summary.csv",
                   ["n", "m", "method", "mean_seconds", "std_seconds",
                    "median_seconds", "flops"], summary)
        _write_result(cfg, {"summary": [list(s) for s in summary], "slopes": slopes})
    for n, m, method, mean_s, std_s, median_s, flops in summary:
        print(f"n={n:<8d} m={m:<5d} {method:>9}  mean={mean_s:.4f}s "
              f"(std {std_s:.4f})  median={median_s:.4f}s  flops={flops:.3e}")
    return 0


def cmd_flops(cfg: RunConfig) -> int:
    rows = []
    for n in cfg.n_schedule:
        for m in cfg.ranks:
            one = flop_count("one_shot", n, m)
            sgt = flop_count("sgt", n, m)
            rows.append((n, m, one, sgt, sgt - one))
    if cfg.out:
        _ensure_outdir(cfg)
        _write_csv(f"{cfg.out}/flops.csv",
                   ["n", "m", "one_shot", "sgt", "savings"], rows)
        _write_result(cfg, {"rows": [list(r) for r in rows]})
    print(f"{'n':>10} {'m':>8} {'one_shot':>16} {'sgt':>16} {'savings':>16}")
    for n, m, one, sgt, savings in rows:
        print(f"{n:>10d} {m:>8d} {one:>16d} {sgt:>16d} {savings:>16d}")
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "approx": cmd_approx,
    "eigen": cmd_eigen,
    "sample": cmd_sample,
    "train": cmd_train,
    "cv": cmd_cv,
    "bench": cmd_bench,
    "flops": cmd_flops,
}

_DATA_ERRORS = (ParseError, FoldError, InvalidClass, ShapeError, InvalidInput,
                UseLoadMatrixInstead, DegenerateSpectrum, DegenerateScores)
_SOLVER_ERRORS = (SolverError, SingularLandmarkBlock, RankDeficient)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(args)
        validate_config(cfg)
        return _COMMANDS[cfg.command](cfg)
    except (ConfigError, InvalidBudget) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
