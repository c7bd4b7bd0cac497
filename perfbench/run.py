"""kreinkit benchmark: run one workload as a closed loop of jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from a checkout: the program is imported from ``src/`` beside this
directory, and the script exits with code 2 when it is missing.  Inputs are
written from ``--seed`` into ``.perfbench_work/`` (removed at the end).  One
job runs at a time, each in a fresh interpreter.  At least three jobs run,
and a further job starts only if it would end within ``--seconds``, judged
by the median job so far; BLAS is pinned to one thread.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` untraced and traced jobs alternate and it carries
the per-layer metrics of the traced ones.  Every job's outputs are checked,
and a job whose checks fail counts in ``failed``.  ``--smoke`` shrinks every
input so the harness, the wrappers and the checks run in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170  # a run must end within 180 s; a job still going then is killed
MIN_JOBS = 3  # so that the median discards one slow job
SETUP_CODE = ("import time; t = time.perf_counter(); import kreinkit, kreinkit.cli; "
              "print(time.perf_counter() - t)")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
                    "quality_error": "ratio"}


# One BLAS thread on every workload.  On the shared 2-core host a second
# thread left approx_sketch no faster (its time goes to memory-bound n x n
# array passes), and a job that needs both cores is slowed by whatever else
# runs on either of them, which widened the run-to-run spread.
BLAS_THREADS = 1


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(argv: list, env: dict, log_path: str, timeout: float) -> tuple[int, int]:
    """Run a child to completion or until ``timeout`` seconds, when it is
    killed; returns (exit code, peak RSS in KiB)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def measure_setup(env: dict, repeats: int) -> list:
    """Fresh-interpreter import times of kreinkit and its CLI."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def environment(seed: int, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "seed": seed}


def run_job(index: int, traced: bool, args, spec: dict, work: str, env: dict,
            reference, timeout: float) -> dict:
    out = os.path.join(work, f"job{index}")
    os.makedirs(out)
    job_spec = {key: spec[key] for key in ("argv", "train", "holdout") if key in spec}
    job_spec.update(seed=args.seed, trace=traced, out=out)
    spec_path = os.path.join(out, "spec.json")
    result_path = os.path.join(out, "job_result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(job_spec, handle)
    code, rss_kib = run_child([sys.executable, os.path.join(HERE, "job.py"),
                               spec_path, result_path], env, os.path.join(out, "log.txt"),
                              timeout)
    job = {"traced": traced, "problems": [], "rss_mb": rss_kib / 1024.0}
    if code != 0 or not os.path.exists(result_path):
        job["problems"].append(f"job runner exited with {code}")
        return job
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    job.update(wall_s=result["wall_s"], phases=result["phases"], trace=result.get("trace"))
    if result["exit"] != 0:
        job["problems"].append(f"kreinkit exited with {result['exit']}")
        return job
    quality, problems = workloads.check(args.workload, spec, out)
    job["quality"] = quality
    job["problems"] += problems
    prints = workloads.fingerprint(args.workload, out)
    if reference and prints != reference:
        job["problems"].append("outputs differ from the first job with the same seed")
    job["fingerprint"] = prints
    if traced:
        trace = result["trace"]
        covered = trace["covered_s"]
        self_sum = sum(v for k, v in trace["metrics"].items() if k.endswith(".self_s"))
        if not (math.isclose(self_sum, covered, rel_tol=1e-6, abs_tol=1e-6)
                and math.isclose(covered, job["wall_s"], rel_tol=1e-3, abs_tol=1e-4)):
            job["problems"].append(
                f"layer self times sum to {self_sum:.6f} s, spans cover {covered:.6f} s, "
                f"job took {job['wall_s']:.6f} s")
    return job


def median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def summarize(args, jobs: list, setup: list) -> tuple[dict, dict]:
    """(metrics for the last line, extra figures for the report)."""
    ok = [job for job in jobs if not job["problems"]]
    plain = [job for job in ok if not job["traced"]]
    traced = [job for job in ok if job["traced"]]
    quality = workloads.QUALITY[args.workload]
    extra = {
        "fail_rate": sum(1 for job in jobs if job["problems"]) / len(jobs),
        quality: median([job["quality"][quality] for job in ok]),
        "jobs_untraced": len(plain),
        "jobs_traced": len(traced),
    }
    if args.workload == "train_predict":
        for phase in ("train", "predict"):
            extra[f"{phase}_s"] = median([job["phases"][phase] for job in plain])
    if not args.trace:
        values = {
            "setup_s": median(setup),
            "wall_s": median([job["wall_s"] for job in plain]),
            "peak_rss_mb": median([job["rss_mb"] for job in plain]),
            "quality_error": extra[quality],
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                   for name in END_TO_END_UNITS}
        return metrics, extra
    layer = {name: median([job["trace"]["metrics"][name] for job in traced])
             for name in spans.METRICS if name != "trace.overhead_s"}
    extra["traced_wall_s"] = median([job["wall_s"] for job in traced])
    extra["untraced_wall_s"] = median([job["wall_s"] for job in plain])
    layer["trace.overhead_s"] = extra["traced_wall_s"] - extra["untraced_wall_s"]
    extra["spans_per_job"] = median([job["trace"]["spans"] for job in traced])
    metrics = {name: {"value": layer[name], "unit": unit}
               for name, (unit, _) in spans.METRICS.items()}
    return metrics, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: exercise the harness, not the program")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kreinkit", "cli.py")):
        print(f"no kreinkit sources under {SRC}; run from a kreinkit checkout",
              file=sys.stderr)
        return 2
    env = child_env(BLAS_THREADS)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        spec = workloads.generate(args.workload, args.seed, work, args.smoke)
        os.sync()  # so that writing back the inputs does not overlap the first job
        # setup_s samples the whole run, like wall_s: half its imports come
        # before the jobs and half after, behind one discarded import that
        # compiles the bytecode
        half = 1 if args.smoke else 4
        measure_setup(env, 1)
        setup = measure_setup(env, half)
        jobs = []
        reference = None
        start = time.perf_counter()
        durations = []
        while len(jobs) < MIN_JOBS or (time.perf_counter() - start
                                       + statistics.median(durations) <= args.seconds):
            traced = bool(args.trace) and len(jobs) % 2 == 1
            began = time.perf_counter()
            job = run_job(len(jobs), traced, args, spec, work, env, reference,
                          max(1.0, deadline - time.monotonic()))
            durations.append(time.perf_counter() - began)
            if reference is None and not job["problems"]:
                reference = job["fingerprint"]
            jobs.append(job)
            if len(jobs) >= 2 and all(j["problems"] for j in jobs):
                break
        setup += measure_setup(env, half)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    failed = sum(1 for job in jobs if job["problems"])
    for i, job in enumerate(jobs):
        for problem in job["problems"]:
            print(f"job {i}: FAILED: {problem}")
    ok_kinds = {job["traced"] for job in jobs if not job["problems"]}
    if False not in ok_kinds or (args.trace and True not in ok_kinds):
        print("no successful job to report", file=sys.stderr)
        return 1
    metrics, extra = summarize(args, jobs, setup)
    for name, entry in metrics.items():
        print(f"{name:<32} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in extra.items():
        print(f"{name:<32} {value:>16.6g}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(args.seed, BLAS_THREADS),
        "setup_s": setup, "extra": extra,
        "jobs": [{key: job.get(key) for key in ("traced", "wall_s", "phases", "rss_mb",
                                                 "quality", "problems")} for job in jobs],
        "note": "flop and byte counts are computed from shapes and file sizes, "
                "not measured by hardware counters",
    }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
