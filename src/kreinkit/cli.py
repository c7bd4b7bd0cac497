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
the package version, and the command's own resolved flags, so every file can
be traced back to the exact run that produced it.  With a fixed ``--seed``
the numeric outputs are reproducible; wall-clock columns of course vary.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .data import (
    load_labels,
    load_matrix,
    load_table,
    double_center_neg,
    make_synthetic,
    misclassification,
    one_vs_all,
    stratified_kfold,
)
from .errors import ConfigError, InvalidInput, KreinKitError, ShapeError
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
    LEARNERS,
    RegPair,
    build_feature_map,
    learner_path,
    save_model,
    sf_lsm_path,
    variance_target,
)
from .linalg import row_blocks
from .nystroem import (
    fit,
    flop_count,
    one_shot_eigen,
    sgt_one_shot,
    truncate_factor,
)

SCHEMA_VERSION = 3
SAMPLERS = ("uniform", "leverage", "kmeanspp")
# the kernel of --synthetic inputs and of bench when --kernel is not given
DEFAULT_KERNEL = "kernel=gaussdiff sigma1=1.0 sigma2=3.0"

# spawn-key domains for derived generators, so every task seed is distinct;
# _DOMAIN_CV seeds the fold plans and the inner splits, _DOMAIN_REFIT the
# outer refits
_DOMAIN_DATA = 0
_DOMAIN_SWEEP = 1
_DOMAIN_CV = 2
_DOMAIN_BENCH = 3
_DOMAIN_SINGLE = 4
_DOMAIN_REFIT = 5


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


def _parse_int_list(text: str, flag: str) -> list:
    values = _parse_float_list(text, flag)
    if not all(v.is_integer() for v in values):
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}")
    return [int(v) for v in values]


def _parse_seed(text: str) -> int:
    if not text.isdecimal():  # digits alone: no sign
        raise ConfigError(f"--seed must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_name_list(text: str, allowed, flag: str) -> list:
    names = [tok for tok in text.split(",") if tok]
    for name in names:
        if name not in allowed:
            raise ConfigError(f"{flag}: unknown name {name!r}; allowed: {', '.join(allowed)}")
    if not names:
        raise ConfigError(f"{flag} must not be empty")
    return names


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of every data command and of bench."""
    parser.add_argument("--p", type=int, help="feature count of generated points (default 4)")
    parser.add_argument("--kernel", help='e.g. "kernel=gaussdiff sigma1=1.0 sigma2=3.0"')
    parser.add_argument("--pinv-tol", type=float, default=None)
    parser.add_argument("--seed", type=_parse_seed, default=0)
    parser.add_argument("--out", help="output directory (default: print summary only)")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("input")
    group.add_argument("--data", help="feature table (rows = points), comma- or "
                       "whitespace-separated as its first line shows")
    group.add_argument("--matrix", help="precomputed square matrix file, laid out as --data")
    # the defaults of these flags are resolved in validate_config (_INPUT_FLAGS)
    group.add_argument("--matrix-kind", choices=["similarity", "dissimilarity"],
                       help="default similarity")
    group.add_argument("--no-square", action="store_true", default=None,
                       help="dissimilarities are already squared")
    group.add_argument("--synthetic", choices=["two_gaussians", "concentric"])
    group.add_argument("--n", type=int, help="synthetic sample count (default 500)")
    group.add_argument("--separation", type=float, help="default 6.0")
    group.add_argument("--no-standardize", action="store_true", default=None,
                       help="skip feature standardization for vector data")
    _add_shared_flags(parser)


def _add_label_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--labels", help="label file, one label per line")
    parser.add_argument("--target-class", help="map labels to +1 (target) / -1 (rest)")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a prefix of a flag is an unknown flag, not that flag
    parser = argparse.ArgumentParser(prog="kreinkit", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = command("approx", "approximation error/time sweep")
    _add_input_flags(p)
    p.add_argument("--samplers", default="uniform",
                   type=lambda text: _parse_name_list(text, SAMPLERS, "--samplers"))
    p.add_argument("--ranks", default="10:160:x2", type=_parse_ranks)
    p.add_argument("--landmark-factor", default="1", choices=["1", "logn"])
    p.add_argument("--reps", type=int, default=10)

    p = command("eigen", "one approximate eigendecomposition")
    _add_input_flags(p)
    p.add_argument("--m", type=int, required=True, help="landmark budget")
    p.add_argument("--sampler", default="uniform", choices=SAMPLERS)
    p.add_argument("--method", default="one_shot", choices=["one_shot", "sgt"])

    p = command("sample", "write a landmark set")
    _add_input_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sampler", default="uniform", choices=SAMPLERS)

    p = command("train", "fit one learner on the full dataset")
    _add_input_flags(p)
    _add_label_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sampler", default="uniform", choices=SAMPLERS)
    p.add_argument("--learner", default="lsm", choices=LEARNERS)
    p.add_argument("--lambda-pos", type=float, default=1e-2)
    p.add_argument("--lambda-neg", type=float, default=1e-2)
    p.add_argument("--radius", type=float, default=None,
                   help="variance target for vclsm (default sqrt(n) * std(y))")

    p = command("cv", "stratified k-fold evaluation")
    _add_input_flags(p)
    _add_label_flags(p)
    p.add_argument("--learners", default=",".join(LEARNERS),
                   type=lambda text: _parse_name_list(text, LEARNERS, "--learners"))
    p.add_argument("--sampler", default="uniform", choices=SAMPLERS)
    p.add_argument("--ranks", default="50", type=_parse_ranks)
    p.add_argument("--landmark-factor", default="1", choices=["1", "logn"])
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--lambdas", default=[10.0**e for e in range(-4, 3)],
                   type=lambda text: _parse_float_list(text, "--lambdas"),
                   help="comma-separated grid (default 1e-4..1e2 log-spaced)")
    p.add_argument("--radius-factors", default=None,
                   type=lambda text: _parse_float_list(text, "--radius-factors"),
                   help="vclsm variance targets over sqrt(n) * std(y) (default 0.5,1,2)")
    p.add_argument("--inner-folds", type=int, default=3)

    # bench draws its own standard-normal points per schedule entry
    p = command("bench", "wall-clock scaling of both routes")
    _add_shared_flags(p)
    p.set_defaults(kernel=DEFAULT_KERNEL, p=4)
    p.add_argument("--n-schedule", default="2000,4000,8000",
                   type=lambda text: _parse_int_list(text, "--n-schedule"))
    p.add_argument("--m", type=int, default=200)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--methods", default="one_shot,sgt",
                   type=lambda text: _parse_name_list(text, ("one_shot", "sgt"), "--methods"))

    p = command("flops", "closed-form multiplication counts")
    p.add_argument("--n", default="1000000", type=lambda text: _parse_int_list(text, "--n"))
    p.add_argument("--m", default="1000", type=lambda text: _parse_int_list(text, "--m"))
    p.add_argument("--out")
    return parser


def _check_finite(flag: str, values, zero_ok: bool = False, squared: bool = False) -> None:
    """Every value that is not None must be finite and positive (or zero), and
    with ``squared`` have a normal, finite square, as `KernelSpec` widths do."""
    for v in values:
        if v is not None and not (math.isfinite(v) and (v > 0.0 or zero_ok and v == 0.0)):
            raise ConfigError(f"{flag} must be finite and "
                              f"{'non-negative' if zero_ok else 'positive'}, got {v}")
        if squared and v is not None and not sys.float_info.min <= v * v < math.inf:
            raise ConfigError(f"{flag} {v!r} is out of range: its square must be a "
                              "normal, finite float")


# input flag -> (the inputs that read it, its default with those inputs); the
# flag is refused with any other input, and left None there in result.json
_INPUT_FLAGS = {
    "n": (("synthetic",), 500),
    "p": (("synthetic",), 4),
    "separation": (("synthetic",), 6.0),
    "matrix_kind": (("matrix",), "similarity"),
    "no_square": (("matrix",), False),
    "no_standardize": (("data", "synthetic"), False),
}


def validate_config(args: argparse.Namespace) -> None:
    """Structural validation that needs no data; runs before any IO."""
    if args.command == "flops":
        for n in args.n:
            for m in args.m:
                if not n >= m >= 1:
                    raise ConfigError(f"flops needs n >= m >= 1, got n={n}, m={m}")
        return
    if args.command in ("approx", "bench") and args.reps < 1:
        raise ConfigError("--reps must be at least 1")
    _check_finite("--pinv-tol", [args.pinv_tol], zero_ok=True)
    if args.command == "cv":
        if args.folds < 2:
            raise ConfigError("--folds must be at least 2")
        if args.inner_folds < 2:
            raise ConfigError("--inner-folds must be at least 2")
        _check_finite("--lambdas", args.lambdas)
        _check_finite("--radius-factors", args.radius_factors or [], squared=True)
        if "vclsm" in args.learners:
            args.radius_factors = args.radius_factors or [0.5, 1.0, 2.0]
        elif args.radius_factors is not None:
            raise ConfigError("--radius-factors acts only with --learners naming vclsm")
    if args.command == "train":
        # zero penalties are allowed but for the squared-hinge solver
        _check_finite("--lambda-pos/--lambda-neg", [args.lambda_pos, args.lambda_neg],
                      zero_ok=args.learner != "shsvm")
        _check_finite("--radius", [args.radius], squared=True)
        if args.radius is not None and args.learner != "vclsm":
            raise ConfigError("--radius acts only with --learner vclsm")
    if args.command in ("train", "cv") and args.target_class is not None and not args.labels:
        raise ConfigError("--target-class acts only with --labels")
    if args.command == "bench":
        if args.p < 1:
            raise ConfigError("--p must be at least 1")
        return
    inputs = sum(1 for v in (args.data, args.matrix, args.synthetic) if v)
    if inputs == 0:
        raise ConfigError("provide exactly one of --data, --matrix, --synthetic")
    if inputs > 1:
        raise ConfigError("--data, --matrix, and --synthetic are mutually exclusive")
    if args.matrix and args.kernel:
        raise ConfigError("--matrix holds the kernel values; drop --kernel")
    if args.synthetic and not args.kernel:
        args.kernel = DEFAULT_KERNEL
    if args.data and not args.kernel:
        raise ConfigError("vector data needs --kernel")
    for dest, (readers, default) in _INPUT_FLAGS.items():
        read = any(getattr(args, reader) for reader in readers)
        if getattr(args, dest) is None:
            setattr(args, dest, default if read else None)
        elif not read:
            raise ConfigError(f"--{dest.replace('_', '-')} acts only with "
                              + " or ".join(f"--{reader}" for reader in readers))


def resolve_schedule(args: argparse.Namespace, n: int) -> list:
    """Expand ranks into (rank, landmark budget) pairs and validate them."""
    schedule = []
    for k in args.ranks:
        if args.landmark_factor == "logn":
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


def load_inputs(args: argparse.Namespace, need_labels: bool = False):
    """Build the Gram source (and labels) described by the configuration."""
    y = None
    if args.matrix:
        loaded = load_matrix(args.matrix, kind=args.matrix_kind, squared=args.no_square)
        if args.matrix_kind == "dissimilarity":
            loaded = double_center_neg(loaded)
        source = GramSource.from_matrix(loaded)
    else:
        if args.synthetic:
            try:
                x, y = make_synthetic(args.synthetic, args.n, args.p,
                                      spawn_rng(args.seed, _DOMAIN_DATA), args.separation)
            except InvalidInput as exc:
                raise ConfigError(str(exc)) from None
            except (MemoryError, ValueError):  # numpy refuses an array this large
                raise ConfigError(f"--n {args.n} and --p {args.p}: the synthetic points "
                                  "do not fit in memory") from None
        else:
            x = load_table(args.data)
        if not args.no_standardize:
            x, _ = standardize(x)
        source = GramSource.from_data(parse_kernel_spec(args.kernel), x)

    if not need_labels:
        return source, None
    if args.labels:
        raw = load_labels(args.labels)
        if raw.shape[0] != source.n:
            raise ShapeError(
                f"{args.labels}: {raw.shape[0]} labels for {source.n} data points"
            )
        if args.target_class is not None:
            y = one_vs_all(raw, args.target_class)
        else:
            try:
                y = raw.astype(float)
            except ValueError:
                raise ConfigError(
                    "labels are not numeric; use --target-class to binarize"
                ) from None
    if y is None:
        raise ConfigError("this command needs labels (--labels or --synthetic)")
    return source, y


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_result(args: argparse.Namespace, payload: dict) -> None:
    body = {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "kreinkit", "version": __version__},
        "command": args.command,
        "config": vars(args),
    }
    body.update(payload)
    with open(f"{args.out}/result.json", "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=1, default=str)


# ---------------------------------------------------------------------------
# approx


def _residual_norms(source: GramSource, eigs) -> list:
    """Frobenius errors ||K - U diag(lam) U'|| of several eigensystems, from
    one pass over the `row_blocks` grid of the kernel matrix K of ``source``.

    Both K and U diag(lam) U' are symmetric, so each row block [a, b) of
    the residual R is formed only left of its end, R[a:b, :b], and adds
    2 ||R[a:b, :a]||^2 + ||R[a:b, a:b]||^2: half the kernel entries and half
    the products of the whole matrix, and no n x n array is formed."""
    for eig in eigs:
        if not (np.all(np.isfinite(eig.U)) and np.all(np.isfinite(eig.lam))):
            raise InvalidInput("approximate eigensystem entries must be finite")
    squares = np.zeros(len(eigs))
    for start, stop in row_blocks(source.n, source.n):
        block = source.cross(np.arange(start, stop), np.arange(stop))
        if not np.all(np.isfinite(block)):
            raise InvalidInput("matrix entries must be finite")
        for i, eig in enumerate(eigs):
            resid = (eig.U[start:stop] * eig.lam) @ eig.U[:stop].T
            resid -= block
            off, diag = resid[:, :start], resid[:, start:]
            squares[i] += 2.0 * np.vdot(off, off) + np.vdot(diag, diag)
    return np.sqrt(squares).tolist()


def run_approx_sweep(source: GramSource, samplers, schedule, reps: int, seed: int,
                     pinv_tol: float | None):
    """Error/time sweep; returns raw rows and per-configuration medians.

    Every repetition draws its own generator from (seed, sampler, schedule
    slot, repetition).  Each configuration runs one discarded warm-up
    repetition before the timed ones.  The timed results are scored together
    afterwards, in one pass over row blocks of the kernel matrix.
    """
    timed = []  # (sampler, k, l, repetition), eigensystem, seconds
    for si, sampler in enumerate(samplers):
        for ki, (k, l) in enumerate(schedule):
            for rep in range(-1, reps):  # rep -1 is the warm-up
                rng = spawn_rng(seed, _DOMAIN_SWEEP, si, ki, max(rep, 0), int(rep < 0))
                start = time.perf_counter()
                factor = landmark_factor(source, sampler, l, rng, pinv_tol)
                eig = one_shot_eigen(factor, build_feature_map(factor, source).phi, k)
                if rep >= 0:
                    timed.append(((sampler, k, l, rep), eig, time.perf_counter() - start))
    errors = _residual_norms(source, [eig for _, eig, _ in timed])
    raw = [(*key, error, seconds) for (key, _, seconds), error in zip(timed, errors)]
    medians = []
    for i in range(0, len(raw), reps):  # each configuration's rows are consecutive
        rows = raw[i:i + reps]
        medians.append((*rows[0][:3], float(np.median([row[4] for row in rows])),
                        float(np.median([row[5] for row in rows]))))
    return raw, medians


def cmd_approx(args: argparse.Namespace) -> int:
    source, _ = load_inputs(args)
    schedule = resolve_schedule(args, source.n)
    raw, medians = run_approx_sweep(source, args.samplers, schedule, args.reps,
                                    args.seed, args.pinv_tol)
    if args.out:
        _write_csv(f"{args.out}/approx_raw.csv",
                   ["sampler", "k", "l", "repetition", "frobenius_error", "seconds"], raw)
        _write_csv(f"{args.out}/approx_median.csv",
                   ["sampler", "k", "l", "median_error", "median_seconds"], medians)
        _write_result(args, {"medians": [list(row) for row in medians]})
    for row in medians:
        print(f"{row[0]:>9}  k={row[1]:<5d} l={row[2]:<5d} "
              f"median_error={row[3]:.6e}  median_seconds={row[4]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# eigen / sample / train


def cmd_eigen(args: argparse.Namespace) -> int:
    source, _ = load_inputs(args)
    factor = landmark_factor(source, args.sampler, args.m,
                             spawn_rng(args.seed, _DOMAIN_SINGLE), args.pinv_tol)
    if args.method == "one_shot":
        phi = build_feature_map(factor, source).phi
        eig = one_shot_eigen(factor, phi)
    else:  # the baseline takes the whole cross block; the features come from it
        cross = source.cross_all(factor.landmarks.indices)
        eig = sgt_one_shot(factor, cross)
        phi = build_feature_map(factor, cross).phi
        del cross  # free the n x m block before the QR
    gram_residual = float(np.abs(eig.U.T @ eig.U - np.eye(eig.rank)).max())
    # Phi diag(s) Phi' and U diag(lam) U' lie in the span of Phi, so with
    # Phi = QR and P = Q'U the residual and its scale are those of r x r matrices
    Q, R = np.linalg.qr(phi)
    P = Q.T @ eig.U
    approx = (R * factor.s_r) @ R.T
    scale = float(np.linalg.norm(approx))
    recon_err = float(np.linalg.norm(approx - (P * eig.lam) @ P.T))
    if not (math.isfinite(gram_residual) and math.isfinite(recon_err)):
        raise InvalidInput("approximate eigensystem entries must be finite")
    rel = recon_err / scale if scale > 0.0 else 0.0
    negative_mass = float(np.abs(eig.lam[eig.lam < 0]).sum())
    total_mass = float(np.abs(eig.lam).sum())
    if args.out:
        _write_csv(f"{args.out}/eigenvalues.csv", ["index", "eigenvalue"],
                   list(enumerate(eig.lam.tolist())))
        _write_result(args, {
            "method": args.method,
            "effective_rank": factor.effective_rank,
            "orthonormality_residual": gram_residual,
            "reconstruction_relative_error": rel,
            "negative_mass_share": negative_mass / total_mass if total_mass else 0.0,
            "warning": eig.warning,
        })
    print(f"rank={eig.rank} orthonormality_residual={gram_residual:.3e} "
          f"reconstruction_relative_error={rel:.3e}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    source, _ = load_inputs(args)
    rng = spawn_rng(args.seed, _DOMAIN_SINGLE)
    marks = select_landmarks(args.sampler, source, args.m, rng, args.pinv_tol)
    mult = marks.multiplicity if marks.multiplicity is not None else \
        np.ones(marks.m, dtype=int)
    rows = [(i, int(idx), int(c)) for i, (idx, c) in enumerate(zip(marks.indices, mult))]
    if args.out:
        _write_csv(f"{args.out}/landmarks.csv", ["position", "index", "multiplicity"], rows)
        _write_result(args, {"requested": marks.requested, "effective": marks.m})
    print(f"sampler={args.sampler} requested={marks.requested} effective={marks.m}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    source, y = load_inputs(args, need_labels=True)
    factor = landmark_factor(source, args.sampler, args.m,
                             spawn_rng(args.seed, _DOMAIN_SINGLE), args.pinv_tol)
    fmap, solve, _ = learner_path(args.learner, build_feature_map(factor, source), y)
    model = solve(RegPair(args.lambda_pos, args.lambda_neg), args.radius)
    training_error = misclassification(np.sign(fmap.phi @ model.z), y) \
        if set(np.unique(y).tolist()) <= {-1.0, 1.0} else None
    if args.out:
        spec = parse_kernel_spec(args.kernel) if args.kernel else None
        save_model(f"{args.out}/model.json", model, spec)
        _write_result(args, {
            "learner": args.learner,
            "effective_rank": fmap.factor.effective_rank,
            "training_error": training_error,
            "diagnostics": model.diagnostics,
        })
    print(f"learner={args.learner} m={args.m} effective_rank={fmap.factor.effective_rank} "
          f"training_error={training_error}")
    return 0


# ---------------------------------------------------------------------------
# cross-validation


def _hyper_grid(args: argparse.Namespace, learner: str):
    """Enumerate hyperparameter combinations for one learner: (penalties,
    radius factor) pairs for the low-rank learners, lambdas for sf-lsm."""
    if learner == "constant":
        return [None]
    if learner == "sf-lsm":
        return list(args.lambdas)
    pairs = [RegPair(lp, ln) for lp, ln in itertools.product(args.lambdas, args.lambdas)]
    if learner == "vclsm":
        return [(reg, factor) for reg in pairs for factor in args.radius_factors]
    return [(reg, None) for reg in pairs]


def _split_predictor(learner: str, source: GramSource, y, train, test, rank, budget,
                     args: argparse.Namespace, rng: np.random.Generator):
    """Held-out decisions of one (train, test) split as a function of a list
    of hyperparameter points; what no grid point changes is built once, here.

    The function returns the P x n_test decisions and the mask of the points
    whose solve failed.  sf-lsm and the learners solve the points through
    their path's grid and score its weights in one product, of the test
    rows' similarities (sf-lsm) or through `FeatureMap.decisions`.  Only the
    learners read ``rank`` and ``budget``, to factor the training fold.
    """
    y_train = y[train]
    if learner == "constant":
        value = 1.0 if float(np.sum(y_train > 0)) * 2 >= train.size else -1.0
        return lambda hypers: (np.full((len(hypers), test.size), value),
                               np.zeros(len(hypers), dtype=bool))
    if learner == "sf-lsm":
        _, grid = sf_lsm_path(source.block(train), y_train)
        decide = functools.partial(np.matmul, source.cross(test, train))
    else:
        fold = source.subset(train)
        factor = landmark_factor(fold, args.sampler, min(budget, train.size), rng, args.pinv_tol)
        factor = truncate_factor(factor, rank)
        fmap, _, learner_grid = learner_path(learner, build_feature_map(factor, fold), y_train)
        k_test = source.cross(test, train[factor.landmarks.indices])
        # vclsm's variance target per radius factor; the other learners read None
        targets = {f: variance_target(y_train, f) for f in args.radius_factors} \
            if learner == "vclsm" else {}

        def grid(hypers):
            return learner_grid([(reg, targets.get(f)) for reg, f in hypers])

        decide = functools.partial(fmap.decisions, k_test)

    def predict(hypers):
        Z, failed = grid(hypers)
        return decide(Z).T, failed

    return predict


def _pick_hyper(learner, source, y, train, rank, budget, args, key):
    """Inner cross-validation over the hyperparameter grid; deterministic
    tie-break toward the earliest grid entry.  Each inner split solves the
    whole grid in walk order and scores it as one array; a failing point
    scores 1.0, so it never wins."""
    grid = _hyper_grid(args, learner)
    if len(grid) == 1:
        return grid[0]
    inner = stratified_kfold(y[train], args.inner_folds, spawn_rng(args.seed, _DOMAIN_CV, *key))
    # each lambda+ row of the grid is walked opposite to the one before, so a
    # warm-started solve starts from its neighbour in the grid
    width = len(grid) // len(args.lambdas)
    rows = [range(start, start + width) for start in range(0, len(grid), width)]
    walk = [gi for ri, row in enumerate(rows) for gi in (reversed(row) if ri % 2 else row)]
    scores = np.zeros(len(grid))
    for fi, (itr, ite) in enumerate(inner.splits()):
        predict = _split_predictor(learner, source, y, train[itr], train[ite], rank,
                                   budget, args, spawn_rng(args.seed, _DOMAIN_CV, *key, fi))
        decisions, failed = predict([grid[gi] for gi in walk])
        scores[walk] += np.where(failed, 1.0, misclassification(decisions, y[train[ite]]))
    return grid[int(np.argmin(scores))]


def run_cv(source: GramSource, y, args: argparse.Namespace):
    """Full cross-validation sweep; returns per-fold rows and summaries."""
    schedule = resolve_schedule(args, source.n)
    plan = stratified_kfold(y, args.folds, spawn_rng(args.seed, _DOMAIN_CV))
    # (learner, k, l, seed key) per summary row; the baselines (similarities-
    # as-features ridge, constant predictor) share a key: the constant draws nothing
    runs = [(learner, k, l, (li, ki)) for li, learner in enumerate(args.learners)
            for ki, (k, l) in enumerate(schedule)]
    runs += [(baseline, "full", "full", (97,)) for baseline in ("sf-lsm", "constant")]
    fold_rows = []
    summaries = []
    splits = list(plan.splits())
    for learner, k, l, key in runs:
        rates = []
        failed = 0
        refit_s = 0.0
        for fi, (train, test) in enumerate(splits):
            hyper = _pick_hyper(learner, source, y, train, k, l, args, (*key, fi))
            start = time.perf_counter()
            predict = _split_predictor(learner, source, y, train, test, k, l, args,
                                       spawn_rng(args.seed, _DOMAIN_REFIT, *key, fi))
            (decisions,), (refit_failed,) = predict([hyper])
            refit_s += time.perf_counter() - start
            failed += bool(refit_failed)
            # scored as a failing inner grid point is
            rate = 1.0 if refit_failed else misclassification(decisions, y[test])
            rates.append(rate)
            fold_rows.append((learner, k, l, fi, rate))
        timings = {"refit_seconds": refit_s} if learner in LEARNERS else {}
        summaries.append((learner, k, l, rates, timings, failed))
    return fold_rows, summaries


def cmd_cv(args: argparse.Namespace) -> int:
    source, y = load_inputs(args, need_labels=True)
    fold_rows, summaries = run_cv(source, y, args)
    summary_rows = [(learner, k, l, float(np.mean(rates)), float(np.std(rates)),
                     float(np.median(rates))) for learner, k, l, rates, _, _ in summaries]
    if args.out:
        _write_csv(f"{args.out}/cv_folds.csv",
                   ["learner", "k", "l", "fold", "error"], fold_rows)
        _write_csv(f"{args.out}/cv_summary.csv",
                   ["learner", "k", "l", "mean_error", "std_error", "median_error"],
                   summary_rows)
        _write_result(args, {
            "summaries": [
                {"learner": learner, "k": k, "l": l, "mean": mean, "std": std,
                 "median": median, "timings": timings, "failed_refits": failed}
                for (learner, k, l, mean, std, median), (*_, timings, failed)
                in zip(summary_rows, summaries)
            ],
        })
    for learner, k, l, mean, std, median in summary_rows:
        print(f"{learner:>9}  k={k!s:<5} l={l!s:<5} mean={mean:.4f} "
              f"(std {std:.4f})  median={median:.4f}")
    return 0


# ---------------------------------------------------------------------------
# bench / flops


def run_bench(args: argparse.Namespace):
    """Time both eigendecomposition routes on synthetic problems.

    The kernel blocks are built outside the timed region; each timed run
    covers the landmark-block eigendecomposition plus the route itself (for
    one_shot, the feature fill too), which is exactly what the closed-form
    counts cover.  One warm-up run per configuration is discarded.
    """
    spec = parse_kernel_spec(args.kernel)
    rows = []
    for ni, n in enumerate(args.n_schedule):
        if n < args.m:
            raise ConfigError(f"--n-schedule entry {n} is below the landmark budget {args.m}")
        rng = spawn_rng(args.seed, _DOMAIN_BENCH, ni)
        try:
            x = rng.normal(size=(n, args.p))
        except (MemoryError, ValueError):
            raise ConfigError(f"--n-schedule entry {n} and --p {args.p}: the points do not "
                              "fit in memory") from None
        marks = uniform_landmarks(n, args.m, rng)
        K_ZZ = gram(spec, x[marks.indices])
        K_XZ = gram_cross(spec, x, x[marks.indices])
        for method in args.methods:
            for rep in range(-1, args.reps):
                start = time.perf_counter()
                factor = fit(K_ZZ, args.pinv_tol, marks)
                if method == "one_shot":
                    one_shot_eigen(factor, build_feature_map(factor, K_XZ).phi)
                else:
                    sgt_one_shot(factor, K_XZ)
                seconds = time.perf_counter() - start
                if rep >= 0:
                    rows.append((n, args.m, method, rep, seconds,
                                 flop_count(method, n, args.m)))
    summary = []
    for n in args.n_schedule:
        for method in args.methods:
            secs = [r[4] for r in rows if r[0] == n and r[2] == method]
            summary.append((n, args.m, method, float(np.mean(secs)), float(np.std(secs)),
                            float(np.median(secs)), flop_count(method, n, args.m)))
    slopes = {}
    if len(args.n_schedule) >= 2:
        for method in args.methods:
            ns = np.array(args.n_schedule, dtype=float)
            means = np.array([s[3] for s in summary if s[2] == method])
            slope, intercept = np.polyfit(ns, means, 1)
            slopes[method] = {"seconds_per_point": float(slope),
                              "intercept_seconds": float(intercept)}
    return rows, summary, slopes


def cmd_bench(args: argparse.Namespace) -> int:
    rows, summary, slopes = run_bench(args)
    if args.out:
        _write_csv(f"{args.out}/bench_raw.csv",
                   ["n", "m", "method", "repetition", "seconds", "flops"], rows)
        _write_csv(f"{args.out}/bench_summary.csv",
                   ["n", "m", "method", "mean_seconds", "std_seconds",
                    "median_seconds", "flops"], summary)
        _write_result(args, {"summary": [list(s) for s in summary], "slopes": slopes})
    for n, m, method, mean_s, std_s, median_s, flops in summary:
        print(f"n={n:<8d} m={m:<5d} {method:>9}  mean={mean_s:.4f}s "
              f"(std {std_s:.4f})  median={median_s:.4f}s  flops={flops:.3e}")
    return 0


def cmd_flops(args: argparse.Namespace) -> int:
    rows = []
    for n in args.n:
        for m in args.m:
            one = flop_count("one_shot", n, m)
            sgt = flop_count("sgt", n, m)
            rows.append((n, m, one, sgt, sgt - one))
    if args.out:
        _write_csv(f"{args.out}/flops.csv",
                   ["n", "m", "one_shot", "sgt", "savings"], rows)
        _write_result(args, {"rows": [list(r) for r in rows]})
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

def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # the list flags and --seed raise ConfigError
        validate_config(args)
        if args.out:
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out {args.out!r}: {exc.strerror}") from None
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse: --help, or a malformed flag
        return int(exc.code or 0)
    except (KreinKitError, MemoryError) as exc:  # each error type declares its status
        if isinstance(exc, MemoryError):  # an array past the points, e.g. bench's cross block
            exc = ConfigError("the arrays of this run do not fit in memory; lower its sizes")
        print(f"{exc.kind} error: {exc}", file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
