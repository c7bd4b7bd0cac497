"""Every command ends in a typed exit: 0 on success, or 2, 3 or 4 with the
stderr word that its error type declares, and never a traceback.

One table feeds every command each value in `VALUES` for each numeric flag
it reads, and a second one feeds the data commands broken input files.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import kreinkit.cli
from kreinkit import errors
from kreinkit.cli import main

# the stderr word of each error status; argparse's own refusals exit 2 and
# print "usage:" and "error:" instead
WORDS = {2: "configuration", 3: "data", 4: "solver"}

VALUES = ("0", "-1", "5e-324", "1e160", "1e300", "nan", "inf")

_SYNTHETIC = ["--synthetic", "two_gaussians", "--n", "30"]
_INPUT = ["--n", "--p", "--separation", "--pinv-tol", "--seed"]
_KERNEL_PARAMS = ("kernel=gauss sigma={}", "kernel=gaussdiff sigma1={} sigma2=3",
                  "kernel=epan sigma={}", "kernel=tanh a={} b=0", "kernel=tanh a=1 b={}")

# the flags of a small run of each command, after its input flags, and the
# numeric flags that the command reads
_TRAIN = [*_INPUT, "--m", "--lambda-pos", "--lambda-neg"]
_RUNS = {
    "approx": (["--ranks", "2", "--reps", "1"], [*_INPUT, "--ranks", "--reps"]),
    "eigen": (["--m", "4"], [*_INPUT, "--m"]),
    "sample": (["--m", "4", "--sampler", "kmeanspp"], [*_INPUT, "--m"]),
    "train lsm": (["--m", "4", "--learner", "lsm"], _TRAIN),
    "train shsvm": (["--m", "4", "--learner", "shsvm"], _TRAIN),
    "train vclsm": (["--m", "4", "--learner", "vclsm"], [*_TRAIN, "--radius"]),
    "cv": (["--ranks", "2", "--folds", "2", "--inner-folds", "2", "--lambdas", "1"],
           [*_INPUT, "--ranks", "--folds", "--inner-folds", "--lambdas", "--radius-factors"]),
}
_BENCH = ["bench", "--n-schedule", "30", "--m", "4", "--reps", "1"]


def _with(argv, flag, value):
    """``argv`` with ``flag`` set to ``value``, in place or appended."""
    if flag in argv:
        argv = list(argv)
        argv[argv.index(flag) + 1] = value
        return argv
    return [*argv, flag, value]


def _flag_cases():
    for name, (tail, flags) in _RUNS.items():
        argv = [name.split()[0], *_SYNTHETIC, *tail]
        yield argv
        for flag in flags:
            yield from (_with(argv, flag, value) for value in VALUES)
    yield _BENCH
    for flag in ("--n-schedule", "--m", "--reps", "--p", "--pinv-tol", "--seed"):
        yield from (_with(_BENCH, flag, value) for value in VALUES)
    for flag in ("--n", "--m"):
        yield from (["flops", flag, value] for value in VALUES)
    for command, tail in (("approx", _RUNS["approx"][0]), ("train", ["--m", "4"])):
        for spec in _KERNEL_PARAMS:
            yield from ([command, *_SYNTHETIC, *tail, "--kernel", spec.format(value)]
                        for value in VALUES)
    for spec in _KERNEL_PARAMS:
        yield from ([*_BENCH, "--kernel", spec.format(value)] for value in VALUES)


def _write_inputs(root: Path) -> dict:
    """One file per input pathology, plus a good table and labels."""
    x = np.random.default_rng(3).normal(size=(30, 3))
    files = {
        "empty": "",
        "ragged": "1,2,3\n4,5\n",
        "nan": "1,2,3\n4,nan,6\n7,8,9\n",
        "constant": "1,2,3\n" * 30,
        "duplicate": "1,2,3\n4,5,6\n" * 15,
        "asymmetric": "1,9\n2,3\n",
        "non_square": "1,2,3\n4,5,6\n",
        "labels": "1\n-1\n" * 15,
        "short_labels": "1\n-1\n" * 14 + "1\n",
    }
    paths = {name: root / name for name in ["missing", *files]}
    for name, text in files.items():
        paths[name].write_text(text)
    paths["non_utf8"] = root / "non_utf8"
    paths["non_utf8"].write_bytes(b"1,2\n\xff\xfe,3\n")
    paths["table"] = root / "table.csv"
    np.savetxt(paths["table"], x, fmt="%.17g", delimiter=",")
    return {name: str(path) for name, path in paths.items()}


def _input_cases(files: dict):
    kernel = ["--kernel", "kernel=gauss sigma=1"]
    for name, (tail, _) in _RUNS.items():
        command = name.split()[0]
        labels = ["--labels", files["labels"]] if command in ("train", "cv") else []
        for table in ("missing", "empty", "ragged", "nan", "constant", "duplicate",
                      "non_utf8"):
            yield [command, "--data", files[table], *kernel, *labels, *tail]
        for matrix in ("missing", "empty", "asymmetric", "non_square", "non_utf8"):
            yield [command, "--matrix", files[matrix], *labels, *tail]
        if labels:
            for bad in ("missing", "empty", "non_utf8", "short_labels"):
                yield [command, "--data", files["table"], *kernel,
                       "--labels", files[bad], *tail]


def _typed_exit(argv, capsys):
    """None if ``argv`` ends in a typed exit, else what went wrong."""
    try:
        status = main(argv)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if status == 0:
        return None
    if err.startswith("usage:"):
        return None if status == 2 and "error:" in err else f"parser exit {status}: {err!r}"
    if status in WORDS and err.startswith(f"{WORDS[status]} error: "):
        return None
    return f"exit {status}: {err!r}"


@pytest.mark.filterwarnings("ignore")
def test_every_flag_value_and_input_pathology_exits_typed(tmp_path, capsys):
    cases = [*_flag_cases(), *_input_cases(_write_inputs(tmp_path))]
    failures = []
    for argv in cases:
        problem = _typed_exit(argv, capsys)
        if problem is not None:
            failures.append(f"{' '.join(argv)}: {problem}")
    assert failures == []


def _readme_statuses() -> dict:
    """Error type name -> exit status, from the README's exit-code table."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    statuses = {}
    for row in re.findall(r"^\| (\d) \|(.*)\|$", table, flags=re.M):
        for name in re.findall(r"`(\w+)`", row[1].rsplit("|", 1)[-1]):
            statuses[name] = int(row[0])
    return statuses


def test_error_types_declare_the_readme_exit_status():
    types = {name: getattr(errors, name) for name in errors.__all__}
    types = {name: cls for name, cls in types.items()
             if issubclass(cls, errors.KreinKitError) and cls is not errors.KreinKitError}
    statuses = _readme_statuses()
    assert sorted(statuses) == sorted(types)
    for name, cls in types.items():
        assert (cls.exit_status, cls.kind) == (statuses[name], WORDS[statuses[name]]), name
    assert (errors.KreinKitError.exit_status, errors.KreinKitError.kind) == (3, "data")


def test_a_new_error_type_exits_with_its_declared_status(monkeypatch, capsys):
    class Unlisted(errors.KreinKitError):
        """An error type that no status table names."""

    def fail(args):
        raise Unlisted("went wrong")

    monkeypatch.setitem(kreinkit.cli._COMMANDS, "flops", fail)
    assert main(["flops"]) == 3
    assert capsys.readouterr().err == "data error: went wrong\n"


def _no_memory(*args, **kwargs):
    raise MemoryError


class _NoMemoryRng:
    normal = staticmethod(_no_memory)


@pytest.mark.parametrize("argv, message", [
    (["sample", "--synthetic", "two_gaussians", "--n", "1000000000000", "--m", "2"],
     "--n 1000000000000 and --p 4: the synthetic points do not fit in memory"),
    (["sample", "--synthetic", "two_gaussians", "--p", "1000000000000", "--m", "2"],
     "--n 500 and --p 1000000000000: the synthetic points do not fit in memory"),
    (["bench", "--n-schedule", "1000000000000", "--m", "5", "--reps", "1"],
     "--n-schedule entry 1000000000000 and --p 4: the points do not fit in memory"),
    (["bench", "--p", "1000000000000", "--m", "5", "--reps", "1"],
     "--n-schedule entry 2000 and --p 1000000000000: the points do not fit in memory"),
])
def test_points_too_large_for_memory_exit_two(monkeypatch, capsys, argv, message):
    # the generators raise as the real allocation would, without allocating
    monkeypatch.setattr(kreinkit.cli, "make_synthetic", _no_memory)
    monkeypatch.setattr(kreinkit.cli, "spawn_rng", lambda *key: _NoMemoryRng())
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["bench", "--n-schedule", "30", "--m", "4", "--reps", "1"],
    ["eigen", *_SYNTHETIC, "--m", "4", "--method", "sgt"],
])
def test_sgt_holds_on_subnormal_landmark_eigenvalues(argv, capsys):
    # every kernel value is a small multiple of the smallest subnormal, and
    # so are the landmark eigenvalues that sgt divides by
    assert main([*argv, "--kernel", "kernel=tanh a=5e-324 b=0"]) == 0
    assert capsys.readouterr().err == ""


_VCLSM = ["train", *_SYNTHETIC, "--m", "4", "--learner", "vclsm", "--radius"]
_CV_VCLSM = ["cv", *_RUNS["cv"][0], *_SYNTHETIC, "--learners", "vclsm", "--radius-factors"]


@pytest.mark.parametrize("argv", [
    *([*_VCLSM, value] for value in ("5e-324", "1e-200", "1e160", "1e300")),
    [*_CV_VCLSM, "1e300"],
    [*_CV_VCLSM, "1,1e-170"],
])
def test_radius_whose_square_is_not_normal_exits_two(argv, capsys):
    assert main(argv) == 2
    assert "its square must be a normal, finite float" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # the extreme radii whose squares are normal: 2e-154 squares to 4e-308,
    # above the smallest normal 2.2e-308, and 1e154 to 1e308
    [*_VCLSM, "2e-154"], [*_VCLSM, "1e154"], [*_CV_VCLSM, "2e-154,1e154"],
])
def test_radius_whose_square_is_normal_runs(argv):
    assert main(argv) == 0


@pytest.mark.parametrize("name, argv", [
    ("gram_cross", _BENCH),
    ("build_feature_map", ["train", *_SYNTHETIC, "--m", "4"]),
    ("build_feature_map", ["eigen", *_SYNTHETIC, "--m", "4"]),
])
def test_out_of_memory_past_the_points_exits_two(monkeypatch, capsys, name, argv):
    monkeypatch.setattr(kreinkit.cli, name, _no_memory)
    assert main(argv) == 2
    assert capsys.readouterr().err == ("configuration error: the arrays of this run do not "
                                       "fit in memory; lower its sizes\n")
