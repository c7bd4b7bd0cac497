"""Smoke test of the benchmark harness: every workload at tiny size, traced
and untraced, must pass its output checks and print exactly the metrics
BENCHMARK.json declares.  Runs in seconds; it says nothing about speed.

    python -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", ["approx_sketch", "cv_grid", "train_predict"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 2 and result["failed"] == 0
    declared = _declared()["end_to_end" if trace == "0" else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float | int)
        if trace == "0":
            assert entry["value"] > 0
    report = json.loads(lines[-2])
    assert report["environment"]["seed"] == 5
    assert report["environment"]["blas_threads"] >= 1


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cv_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
