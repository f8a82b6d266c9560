"""Spans around the calls into each noisegate module, installed from outside.

The package is never edited: the tracer replaces, at run time, the names the
pipeline and its modules call (``pipeline.filter_partition``,
``noise_filter.train_ocsvm``, ``KernelRowCache.row`` and so on) with wrappers
that record a span per call. Spans are kept in memory, with thread id, wall
time and thread CPU time, and written out when the operation ends. A name
that no longer exists is reported as a missing layer, never as zero.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

# (owner, attribute, span name). The owner is the module or class, given as a
# path from the package, in whose namespace the caller looks the name up, so
# the wrapper sits where the call is made.
TRAIN_TARGETS = [
    ("pipeline", "parse_libsvm", "data.parse"),
    ("pipeline", "min_max_scale", "data.scale"),
    ("data.Dataset", "rows", "data.rows"),
    ("noise_filter", "train_ocsvm", "ocsvm.fit"),
    ("ocsvm.KernelRowCache", "row", "ocsvm.kernel_row"),
    ("noise_filter", "decision_values", "ocsvm.score"),
    ("pipeline", "filter_partition", "noise_filter.filter"),
    ("noise_filter", "scan_split_percentage", "noise_filter.scan"),
    ("noise_filter", "split_by_score", "noise_filter.scan"),
    ("ensemble", "train_stump", "learners.fit"),
    ("ensemble", "train_random_tree", "learners.fit"),
    ("learners.KnnHypothesis", "__init__", "learners.fit"),
    ("learners.DecisionStump", "predict", "learners.predict"),
    ("learners.RandomTree", "predict", "learners.predict"),
    ("learners.KnnHypothesis", "predict", "learners.predict"),
    ("pipeline", "adaboost_train", "ensemble.boost"),
    ("pipeline", "compute_beta", "ensemble.beta"),
    ("ensemble", "compute_beta", "ensemble.beta"),
    ("pipeline", "save_model", "ensemble.save"),
]

EVAL_TARGETS = [
    ("pipeline", "load_model", "ensemble.load"),
    ("pipeline", "parse_libsvm", "data.parse"),
    ("pipeline", "apply_scale", "data.scale"),
    ("pipeline", "global_predict_batch", "ensemble.vote"),
    ("learners.DecisionStump", "predict", "learners.predict"),
    ("learners.RandomTree", "predict", "learners.predict"),
    ("learners.KnnHypothesis", "predict", "learners.predict"),
]

TARGETS = {"train": TRAIN_TARGETS, "evaluate": EVAL_TARGETS}


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Collects spans from any thread; counters are updated under a lock."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.filters: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen_rows = weakref.WeakKeyDictionary()
        self._originals: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        stack = self._stack()
        children = [0.0, 0.0]
        stack.append(children)
        w0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - w0
            cpu = time.thread_time() - c0
            stack.pop()
            if stack:
                stack[-1][0] += wall
                stack[-1][1] += cpu
            self.spans.append(
                (name, threading.get_ident(), len(stack), w0, wall, cpu,
                 children[0], children[1])
            )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def install(self, package, targets) -> None:
        for owner_path, attr, name in targets:
            owner = _resolve(package, owner_path)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner_path}.{attr} ({name})")
                continue
            on_result = _ON_RESULT.get((owner_path, attr))
            setattr(owner, attr, self._wrap(name, original, on_result))
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name, original, on_result):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            out = tracer.span(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, out)
            return out

        return wrapper

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self wall time and self thread-CPU time.

        A span's self time is its duration minus its child spans. Under the
        partition thread pool the root span (the operation itself) runs on
        the main thread while its children run on workers, so the root's
        self time is its duration minus the union of every other span's
        interval.
        """
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "self_cpu_s": 0.0})
        roots = [s for s in self.spans if s[2] == 0 and s[0].startswith("pipeline.")]
        for name, tid, depth, start, wall, cpu, child_wall, child_cpu in self.spans:
            t = totals[name]
            t["calls"] += 1
            t["self_cpu_s"] += cpu - child_cpu
            if depth == 0 and name.startswith("pipeline."):
                continue
            t["self_s"] += wall - child_wall
        for name, tid, _, start, wall, _, _, _ in roots:
            covered = _covered(
                [(s[3], s[3] + s[4]) for s in self.spans
                 if s[2] == (1 if s[1] == tid else 0) and s[0] != name],
                start, start + wall)
            totals[name]["self_s"] += wall - covered
        return dict(totals)

    def dump(self, path: str) -> None:
        fields = ("name", "thread", "depth", "start", "wall_s", "cpu_s",
                  "child_wall_s", "child_cpu_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _after_fit(tracer, args, model):
    tracer.count("ocsvm.solver_iters", model.n_iter)
    tracer.count("ocsvm.support_vectors", model.alphas.size)
    tracer.count("ocsvm.unconverged", 0 if model.converged else 1)


def _after_row(tracer, args, _):
    cache, i = args[0], int(args[1])
    with tracer._lock:
        seen = tracer._seen_rows.setdefault(cache, set())
        before = len(seen)
        seen.add(i)
        tracer.counts["ocsvm.kernel_row_calls"] += 1
        tracer.counts["ocsvm.kernel_rows_distinct"] += len(seen) - before


def _after_filter(tracer, args, result):
    part = args[0]
    tracer.count("noise_filter.rows_removed", len(result.noisy_indices))
    with tracer._lock:
        tracer.filters.append({
            "partition_id": int(part.partition_id),
            "indices": part.indices.tolist(),
            "clean": result.clean_indices.tolist(),
            "chosen_p": result.chosen_p,
        })


def _after_boost(tracer, args, ensemble):
    tracer.count("ensemble.rounds_kept", len(ensemble.members))


def _after_predict(tracer, args, _):
    tracer.count("learners.predict_rows", len(args[1]))


def _after_parse(tracer, args, dataset):
    features = dataset.features  # sparse today; a dense array counts the same
    if hasattr(features, "count_nonzero"):
        stored = features.count_nonzero()
    else:
        stored = np.count_nonzero(features)
    tracer.count("data.parse_values", int(stored))


_ON_RESULT = {
    ("pipeline", "parse_libsvm"): _after_parse,
    ("noise_filter", "train_ocsvm"): _after_fit,
    ("ocsvm.KernelRowCache", "row"): _after_row,
    ("pipeline", "filter_partition"): _after_filter,
    ("pipeline", "adaboost_train"): _after_boost,
    ("learners.DecisionStump", "predict"): _after_predict,
    ("learners.RandomTree", "predict"): _after_predict,
    ("learners.KnnHypothesis", "predict"): _after_predict,
}
