"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of the call boundary: `install`
wraps the public functions and methods listed in TARGETS and rebinds every
name under which a kreinkit module holds them (``kreinkit.cli.fit``,
``kreinkit.landmarks.one_shot_eigen``, ``kreinkit.learners.thin_svd``, ...),
so the program's own calls reach the wrappers while ``src/`` stays untouched.

A span is ``[name, layer, parent, start, end]``; the layer is the kreinkit
module that defines the wrapped callable.  Spans stay in memory until the job
ends and `layer_metrics` reduces them.  Self time is a span's duration minus
the durations of its direct children; busy time of a group of spans is the
summed duration of those spans that have no ancestor in the same group.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time

LAYERS = ("kernels", "landmarks", "nystroem", "linalg", "learners", "data", "cli")

# per-layer metrics in report order: name -> (unit, better)
METRICS = {
    "kernels.busy_s": ("s", "lower"),
    "kernels.self_s": ("s", "lower"),
    "kernels.entries": ("count", "lower"),
    "kernels.entries_per_s": ("1/s", "higher"),
    "landmarks.busy_s": ("s", "lower"),
    "landmarks.self_s": ("s", "lower"),
    "landmarks.sketch_cols": ("count", "lower"),
    "landmarks.sketch_overhead": ("ratio", "lower"),
    "landmarks.kmeanspp_s": ("s", "lower"),
    "nystroem.self_s": ("s", "lower"),
    "nystroem.fit.calls": ("count", "lower"),
    "nystroem.fit.busy_s": ("s", "lower"),
    "nystroem.fit.distinct_ratio": ("ratio", "higher"),
    "nystroem.one_shot.busy_s": ("s", "lower"),
    "nystroem.one_shot.flops": ("flop", "lower"),
    "nystroem.one_shot.gflops": ("Gflop/s", "higher"),
    "nystroem.reconstruct.busy_s": ("s", "lower"),
    "linalg.self_s": ("s", "lower"),
    "linalg.symmatrix.busy_s": ("s", "lower"),
    "linalg.symmatrix.entries": ("count", "lower"),
    "linalg.sym_eigen.calls": ("count", "lower"),
    "linalg.sym_eigen.busy_s": ("s", "lower"),
    "linalg.thin_svd.calls": ("count", "lower"),
    "linalg.thin_svd.busy_s": ("s", "lower"),
    "linalg.sphere_qp.busy_s": ("s", "lower"),
    "learners.self_s": ("s", "lower"),
    "learners.lsm.busy_s": ("s", "lower"),
    "learners.vclsm.busy_s": ("s", "lower"),
    "learners.shsvm.busy_s": ("s", "lower"),
    "learners.newton_iters": ("count", "lower"),
    "learners.solve_failures": ("count", "lower"),
    "learners.feature_map.busy_s": ("s", "lower"),
    "learners.save_model.busy_s": ("s", "lower"),
    "learners.load_model.busy_s": ("s", "lower"),
    "learners.model_bytes": ("bytes", "lower"),
    "data.self_s": ("s", "lower"),
    "data.load.busy_s": ("s", "lower"),
    "data.load.bytes": ("bytes", "lower"),
    "data.center.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Recorder:
    """Spans and counters of one job; single-threaded (the CLI runs with
    ``--workers 1``), so a plain stack gives each span its parent."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.fit_blocks = set()
        self._stack = []

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, parent, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def _entries(rec, args, result):
    shape = getattr(result, "values", result).shape
    rec.add("kernels.entries", shape[0] * shape[1])


def _file_bytes(key):
    def count(rec, args, result):
        rec.add(key, os.path.getsize(args[0]))
    return count


def _fit_block(rec, args, result):
    block = getattr(args[0], "values", args[0])
    rec.fit_blocks.add(hashlib.blake2b(block.tobytes(), digest_size=16).digest())


def _one_shot_flops(rec, args, result):
    from kreinkit.nystroem import flop_count

    factor, cross = args[0], args[1]
    rec.add("nystroem.one_shot.flops", flop_count("one_shot", len(cross), factor.m))


def _sketch_cols(rec, args, result):
    rec.add("landmarks.sketch_cols", result.sketch_size)


def _returned(rec, args, result):
    rec.add("landmarks.returned", result.m)


def _symmatrix_entries(rec, args, result):
    rec.add("linalg.symmatrix.entries", args[0].order ** 2)


def _newton_iters(rec, args, result):
    rec.add("learners.newton_iters", result.diagnostics.get("iterations", 0))


# (module, callable, counter hook); "Class.method" wraps a method in place
TARGETS = [
    ("kreinkit.kernels", "gram", _entries),
    ("kreinkit.kernels", "gram_cross", _entries),
    ("kreinkit.kernels", "center_kernel", None),
    ("kreinkit.kernels", "standardize", None),
    ("kreinkit.kernels", "GramSource.block", None),
    ("kreinkit.kernels", "GramSource.cross_all", None),
    ("kreinkit.kernels", "GramSource.full", None),
    ("kreinkit.landmarks", "uniform_landmarks", None),
    ("kreinkit.landmarks", "build_sketch", _sketch_cols),
    ("kreinkit.landmarks", "leverage_scores", None),
    ("kreinkit.landmarks", "sample_leverage", _returned),
    ("kreinkit.landmarks", "kmeanspp_landmarks", _returned),
    ("kreinkit.nystroem", "fit", _fit_block),
    ("kreinkit.nystroem", "one_shot_eigen", _one_shot_flops),
    ("kreinkit.nystroem", "sgt_one_shot", None),
    ("kreinkit.nystroem", "approximate", None),
    ("kreinkit.nystroem", "truncate_factor", None),
    ("kreinkit.nystroem", "truncate_eigen", None),
    ("kreinkit.nystroem", "reconstruct", None),
    ("kreinkit.nystroem", "frobenius_error", None),
    ("kreinkit.linalg", "SymMatrix.__init__", _symmatrix_entries),
    ("kreinkit.linalg", "sym_eigen", None),
    ("kreinkit.linalg", "thin_svd", None),
    ("kreinkit.linalg", "sphere_constrained_qp", None),
    ("kreinkit.linalg", "indefiniteness", None),
    ("kreinkit.learners", "feature_rows", None),
    ("kreinkit.learners", "build_feature_map", None),
    ("kreinkit.learners", "krein_krr_lowrank", None),
    ("kreinkit.learners", "vc_lsm_lowrank", None),
    ("kreinkit.learners", "sh_svm_lowrank", _newton_iters),
    ("kreinkit.learners", "sf_lsm_baseline", None),
    ("kreinkit.learners", "LowRankModel.predict", None),
    ("kreinkit.learners", "save_model", _file_bytes("learners.model_bytes")),
    ("kreinkit.learners", "load_model", None),
    ("kreinkit.data", "load_table", _file_bytes("data.load.bytes")),
    ("kreinkit.data", "load_matrix", _file_bytes("data.load.bytes")),
    ("kreinkit.data", "load_labels", _file_bytes("data.load.bytes")),
    ("kreinkit.data", "double_center_neg", None),
    ("kreinkit.data", "stratified_kfold", None),
    ("kreinkit.data", "misclassification", None),
]

_SOLVERS = ("krein_krr_lowrank", "vc_lsm_lowrank", "sh_svm_lowrank")


def _wrap(rec: Recorder, fn, name: str, layer: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            rec.add(f"{name}.errors", 1)
            raise
        finally:
            rec.close(idx)
        if count is not None:
            count(rec, args, result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target; kreinkit and all its submodules must be imported."""
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "kreinkit" or key.startswith("kreinkit.")]
    for modname, attr, count in TARGETS:
        module = sys.modules[modname]
        layer = modname.split(".")[1]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrap(rec, cls.__dict__[method], attr, layer, count))
            continue
        fn = getattr(module, attr)
        wrapped = _wrap(rec, fn, attr, layer, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


def _busy(spans, names) -> float:
    """Summed duration of spans named in ``names`` with no such ancestor."""
    inside = [False] * len(spans)  # the span or one of its ancestors is in names
    total = 0.0
    for i, (name, _, parent, start, end) in enumerate(spans):
        outer = parent >= 0 and inside[parent]
        if name in names:
            inside[i] = True
            if not outer:
                total += end - start
        else:
            inside[i] = outer
    return total


def _calls(spans, name) -> int:
    return sum(1 for span in spans if span[0] == name)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict:
    """Reduce one traced job to the per-layer metrics (without the tracing
    overhead, which needs an untraced job to compare with) plus the wall time
    the spans cover, for the self-time consistency check."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, layer, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    wall = 0.0
    for i, (name, layer, parent, start, end) in enumerate(spans):
        self_s[layer] += (end - start) - child[i]
        if parent < 0:
            wall += end - start
    by_layer = {layer: {t[1] for t in TARGETS if t[0] == f"kreinkit.{layer}"}
                for layer in LAYERS}
    c = rec.counters
    kernel_eval_s = _busy(spans, {"gram", "gram_cross"})
    one_shot_s = _busy(spans, {"one_shot_eigen"})
    fit_calls = _calls(spans, "fit")
    out = {
        "kernels.busy_s": _busy(spans, by_layer["kernels"]),
        "kernels.self_s": self_s["kernels"],
        "kernels.entries": c.get("kernels.entries", 0),
        "kernels.entries_per_s": _ratio(c.get("kernels.entries", 0), kernel_eval_s),
        "landmarks.busy_s": _busy(spans, by_layer["landmarks"]),
        "landmarks.self_s": self_s["landmarks"],
        "landmarks.sketch_cols": c.get("landmarks.sketch_cols", 0),
        "landmarks.sketch_overhead": _ratio(c.get("landmarks.sketch_cols", 0),
                                            c.get("landmarks.returned", 0)),
        "landmarks.kmeanspp_s": _busy(spans, {"kmeanspp_landmarks"}),
        "nystroem.self_s": self_s["nystroem"],
        "nystroem.fit.calls": fit_calls,
        "nystroem.fit.busy_s": _busy(spans, {"fit"}),
        "nystroem.fit.distinct_ratio": _ratio(len(rec.fit_blocks), fit_calls),
        "nystroem.one_shot.busy_s": one_shot_s,
        "nystroem.one_shot.flops": c.get("nystroem.one_shot.flops", 0),
        "nystroem.one_shot.gflops": _ratio(c.get("nystroem.one_shot.flops", 0),
                                           one_shot_s) / 1e9,
        "nystroem.reconstruct.busy_s": _busy(spans, {"reconstruct"}),
        "linalg.self_s": self_s["linalg"],
        "linalg.symmatrix.busy_s": _busy(spans, {"SymMatrix.__init__"}),
        "linalg.symmatrix.entries": c.get("linalg.symmatrix.entries", 0),
        "linalg.sym_eigen.calls": _calls(spans, "sym_eigen"),
        "linalg.sym_eigen.busy_s": _busy(spans, {"sym_eigen"}),
        "linalg.thin_svd.calls": _calls(spans, "thin_svd"),
        "linalg.thin_svd.busy_s": _busy(spans, {"thin_svd"}),
        "linalg.sphere_qp.busy_s": _busy(spans, {"sphere_constrained_qp"}),
        "learners.self_s": self_s["learners"],
        "learners.lsm.busy_s": _busy(spans, {"krein_krr_lowrank"}),
        "learners.vclsm.busy_s": _busy(spans, {"vc_lsm_lowrank"}),
        "learners.shsvm.busy_s": _busy(spans, {"sh_svm_lowrank"}),
        "learners.newton_iters": c.get("learners.newton_iters", 0),
        "learners.solve_failures": sum(c.get(f"{name}.errors", 0) for name in _SOLVERS),
        "learners.feature_map.busy_s": _busy(spans, {"build_feature_map", "feature_rows"}),
        "learners.save_model.busy_s": _busy(spans, {"save_model"}),
        "learners.load_model.busy_s": _busy(spans, {"load_model"}),
        "learners.model_bytes": c.get("learners.model_bytes", 0),
        "data.self_s": self_s["data"],
        "data.load.busy_s": _busy(spans, {"load_table", "load_matrix", "load_labels"}),
        "data.load.bytes": c.get("data.load.bytes", 0),
        "data.center.busy_s": _busy(spans, {"double_center_neg"}),
        "cli.self_s": self_s["cli"],
    }
    return {"metrics": out, "covered_s": wall, "spans": len(spans)}
