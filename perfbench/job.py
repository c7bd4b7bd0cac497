"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/job.py SPEC.json RESULT.json

SPEC holds the kreinkit CLI arguments, the output directory and, for
``train_predict``, the tables to score.  kreinkit is imported before any
clock starts, so import cost stays in the separate ``setup_s`` metric.  With
``"trace": true`` the public functions of every kreinkit module are wrapped
(see spans.py) and the per-layer reduction is written next to the timings.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

import kreinkit
import kreinkit.cli
import spans


def _predict(spec: dict, out: str) -> dict:
    """Reload the model through the public API and score both tables;
    attribute lookups go through the modules so traced wrappers apply."""
    model, kernel = kreinkit.learners.load_model(os.path.join(out, "model.json"))
    x_train = kreinkit.data.load_table(spec["train"])
    landmarks = x_train[model.map.factor.landmarks.indices]
    scores = {}
    for name, x in (("train", x_train), ("holdout", kreinkit.data.load_table(spec["holdout"]))):
        scores[name] = model.predict(kreinkit.kernels.gram_cross(kernel, x, landmarks))
    return scores


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    rec = None
    if spec["trace"]:
        rec = spans.Recorder()
        spans.install(rec)
    out = spec["out"]
    argv = spec["argv"] + ["--seed", str(spec["seed"]), "--out", out]
    phases = {}

    def timed(name, fn):
        idx = rec.open(f"phase.{name}", "cli") if rec else None
        start = time.perf_counter()
        try:
            return fn()
        finally:
            phases[name] = time.perf_counter() - start
            if rec:
                rec.close(idx)

    code = timed("train" if "holdout" in spec else "job",
                 lambda: kreinkit.cli.main(argv))
    if code == 0 and "holdout" in spec:
        scores = timed("predict", lambda: _predict(spec, out))
        for name, values in scores.items():
            np.savetxt(os.path.join(out, f"predict_{name}.csv"), values, fmt="%.17g")
    result = {"exit": code, "phases": phases, "wall_s": sum(phases.values())}
    if rec:
        result["trace"] = spans.layer_metrics(rec)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
