"""Span tracing of cbmap's public functions, installed from outside the package.

``Tracer`` rebinds each function in ``TRACED`` to a timing wrapper in every
cbmap namespace that holds it: the defining module, each module that imported
it by name, and the package itself. A call is therefore traced whichever
binding it went through, and no file under ``src/`` changes. Calls to
``as_data_matrix`` and ``euclidean_distance_matrix`` are named after the
namespace the call went through (``by_<module>``), which identifies the
calling module.

Spans are kept in memory as ``[name, start, end, parent, computed_mb]``
lists; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

TRACED = {
    "clustering": ("kmeans_fit", "assign_labels"),
    "linalg_core": ("as_data_matrix", "euclidean_distance_matrix", "zscore_normalize",
                    "pca_fit", "pca_transform"),
    "membership": ("sigma_high", "sigma_low", "membership_matrix", "frobenius_loss",
                   "loss_gradient"),
    "embedder": ("fit", "transform", "init_embedding", "adam_update", "update_centers",
                 "save_model", "load_model"),
    "metrics": ("evaluate", "global_score", "knn_accuracy"),
    "datasets": ("make_swiss_roll", "load_csv", "write_csv"),
    "cli": ("main",),
}
SPLIT_BY_CALLER = ("linalg_core.as_data_matrix", "linalg_core.euclidean_distance_matrix")

# Per-layer metrics: name, unit, better, the end-to-end metrics a change to the
# layer should move, and the workloads where it should move them.
LAYER_METRICS = (
    ("clustering.kmeans_fit.total_s", "s", "lower", "fit_s", "highdim; barely roll"),
    ("clustering.kmeans_fit.self_s", "s", "lower", "fit_s", "highdim"),
    ("clustering.assign_labels.calls", "count", "lower", "fit_s", "highdim"),
    ("linalg_core.euclidean_distance_matrix.by_clustering.self_s", "s", "lower", "fit_s",
     "highdim"),
    ("linalg_core.euclidean_distance_matrix.by_clustering.calls", "count", "lower", "fit_s",
     "highdim"),
    ("linalg_core.euclidean_distance_matrix.by_clustering.computed_mb", "MB", "lower", "fit_s",
     "highdim"),
    ("linalg_core.euclidean_distance_matrix.by_embedder.self_s", "s", "lower",
     "fit_s, transform_s", "roll, oos"),
    ("linalg_core.euclidean_distance_matrix.by_embedder.calls", "count", "lower",
     "fit_s, transform_s", "roll, oos"),
    ("linalg_core.euclidean_distance_matrix.by_embedder.computed_mb", "MB", "lower",
     "fit_s, transform_s", "roll, oos"),
    ("linalg_core.euclidean_distance_matrix.by_membership.self_s", "s", "lower", "fit_s", "roll"),
    ("linalg_core.euclidean_distance_matrix.by_metrics.self_s", "s", "lower", "evaluate_s",
     "roll"),
    ("linalg_core.as_data_matrix.calls", "count", "lower", "fit_s", "roll"),
    ("linalg_core.as_data_matrix.calls_per_iter", "count", "lower", "fit_s", "roll"),
    ("linalg_core.as_data_matrix.self_s", "s", "lower", "fit_s", "roll"),
    ("linalg_core.zscore_normalize.self_s", "s", "lower", "fit_s", "roll"),
    ("linalg_core.pca_fit.self_s", "s", "lower", "fit_s", "roll"),
    ("membership.membership_matrix.self_s", "s", "lower", "fit_s, transform_s", "roll, oos"),
    ("membership.frobenius_loss.self_s", "s", "lower", "fit_s, transform_s", "roll, oos"),
    ("membership.loss_gradient.self_s", "s", "lower", "fit_s, transform_s", "roll, oos"),
    ("membership.sigma_low.self_s", "s", "lower", "fit_s", "roll"),
    ("membership.sigma_high.self_s", "s", "lower", "fit_s, transform_s", "highdim"),
    ("embedder.adam_update.self_s", "s", "lower", "fit_s, transform_s", "roll, oos"),
    ("embedder.update_centers.self_s", "s", "lower", "fit_s", "roll"),
    ("embedder.fit.iter_ms", "ms", "lower", "fit_s", "roll"),
    ("embedder.transform.iter_ms", "ms", "lower", "transform_s", "oos"),
    ("embedder.fit.highdim_setup_s", "s", "lower", "fit_s", "highdim"),
    ("embedder.fit.loss_ratio", "1", "lower", "global_score, knn_acc", "all"),
    ("embedder.save_model.self_s", "s", "lower", "fit_s", "oos"),
    ("embedder.load_model.self_s", "s", "lower", "transform_s", "oos"),
    ("datasets.make_swiss_roll.self_s", "s", "lower", "setup_s", "all"),
    ("metrics.knn_accuracy.self_s", "s", "lower", "evaluate_s", "roll"),
    ("metrics.global_score.self_s", "s", "lower", "evaluate_s", "highdim"),
    ("process.cpu_per_wall", "1", "higher", "any parallelism change", "all"),
    ("trace.overhead_s", "s", "lower", "none", "all"),
)

# Traced on every run but listed apart: only ``oos`` calls them, and a
# per-layer metric must be measured on every workload.
OOS_ONLY_METRICS = (
    ("cli.main.self_s", "s", "lower", "fit_s, transform_s", "oos"),
    ("datasets.load_csv.self_s", "s", "lower", "fit_s, transform_s", "oos"),
    ("datasets.write_csv.self_s", "s", "lower", "setup_s, fit_s, transform_s", "oos"),
)


def _computed_mb(args) -> float:
    """Size of the (rows, k, d) difference tensor a distance call forms, in MB."""
    try:
        (n, d), (k, _) = np.shape(args[0]), np.shape(args[1])
    except (ValueError, IndexError):
        return 0.0
    return n * k * d * 8 / 1e6


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, fn, name: str, sized: bool):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    _computed_mb(args) if sized else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        namespaces = [("cbmap", importlib.import_module("cbmap"))]
        for short in TRACED:
            try:
                namespaces.append((short, importlib.import_module(f"cbmap.{short}")))
            except ImportError:
                pass
        defined = dict(namespaces)
        for short, functions in TRACED.items():
            for fname in functions:
                qualified = f"{short}.{fname}"
                original = getattr(defined.get(short), fname, None)
                if not callable(original):
                    self.absent.append(qualified)
                    continue
                split = qualified in SPLIT_BY_CALLER
                sized = qualified == "linalg_core.euclidean_distance_matrix"
                shared = self._wrap(original, qualified, False)
                for ns_name, ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            wrapper = (self._wrap(original, f"{qualified}.by_{ns_name}", sized)
                                       if split else shared)
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, original))
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()
        return False


def span_stats(spans) -> dict:
    """Per span name: calls, total_s, self_s and computed_mb."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {}
    for i, (name, start, end, _, mb) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "computed_mb": 0.0})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child_time[i]
        st["computed_mb"] += mb or 0.0
    return stats


def _children(spans, index: int):
    """Direct children of span ``index``, in call order."""
    end = spans[index][2]
    for span in spans[index + 1:]:
        if span[1] > end:
            return
        if span[3] == index:
            yield span


def layer_metrics(spans, fit_iters: int, transform_iters: int) -> dict:
    """Flatten span statistics into ``<module>.<function>.<stat>`` values.

    Derived figures appear only when the spans they are read from exist. The
    descent of ``fit`` and ``transform`` starts where their first direct
    ``membership_matrix`` call ends: that call builds the high-dimensional
    memberships, the last one-off step before the loop.
    """
    stats = span_stats(spans)
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.total_s"] = st["total_s"]
        out[f"{name}.self_s"] = st["self_s"]
        if name.startswith("linalg_core.euclidean_distance_matrix."):
            out[f"{name}.computed_mb"] = st["computed_mb"]
    for qualified in SPLIT_BY_CALLER:
        parts = [st for name, st in stats.items() if name.startswith(qualified + ".by_")]
        if parts:
            out[f"{qualified}.calls"] = sum(st["calls"] for st in parts)
            out[f"{qualified}.self_s"] = sum(st["self_s"] for st in parts)

    derived: dict = {}
    for i, (name, _, end, _, _) in enumerate(spans):
        if name not in ("embedder.fit", "embedder.transform"):
            continue
        children = list(_children(spans, i))
        u_high = next((c for c in children if c[0] == "membership.membership_matrix"), None)
        if u_high is None:
            continue
        loop_start = u_high[2]
        iters = fit_iters if name == "embedder.fit" else transform_iters
        derived.setdefault(f"{name}.iter_ms", []).append((end - loop_start) / iters * 1e3)
        if name != "embedder.fit":
            continue
        kmeans = next((c for c in children if c[0] == "clustering.kmeans_fit"), None)
        if kmeans is not None:
            derived.setdefault("embedder.fit.highdim_setup_s", []).append(loop_start - kmeans[2])
        validations = sum(1 for s in spans[i + 1:]
                          if loop_start <= s[1] and s[2] <= end
                          and s[0].startswith("linalg_core.as_data_matrix.by_"))
        derived.setdefault("linalg_core.as_data_matrix.calls_per_iter", []).append(
            validations / fit_iters)
    out.update({name: sum(values) / len(values) for name, values in derived.items()})
    return out
