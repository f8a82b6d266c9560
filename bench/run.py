"""noisegate benchmark: one command, three workloads, checked outputs.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload filter-tree --seed 1 --seconds 30 --trace 0

Each operation runs in a fresh interpreter (bench/worker.py) with BLAS held
to one thread and the package otherwise at its defaults. A run generates the
workload's training sets and test set from the seed, then repeats whole
rounds of operations, round r on training set r mod the number of sets,
until the time is up and, untraced, every set has had a round:

  --trace 0  train + evaluate per round; prints the end-to-end metrics
  --trace 1  untraced train + traced train + traced evaluate per round;
             prints the per-layer metrics and the tracing overhead

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS, Workload, generate  # noqa: E402

WORKER = os.path.join(BENCH_DIR, "worker.py")
MIN_TRACE_ROUNDS = 1
SETUP_PROBES = 3
OP_TIMEOUT_S = 60
GRID = [round(0.05 * k, 10) for k in range(1, 20)]

# BLAS threads would run on top of the package's partition thread pool;
# holding BLAS to one keeps the process at no more threads than cores.
ONE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "train_peak_rss_mb": "MB",
    "evaluate_peak_rss_mb": "MB",
    "model_mb": "MB",
    "accuracy": "fraction",
}

# name: (unit, what is read from a traced round, span or layer it comes from).
# "self" sums the span's self time; "self@<op>" only within that operation;
# "count" is a counter the tracer keeps under the metric's own name.
LAYER_METRICS = {
    "data.parse_s": ("s", "self", "data.parse"),
    "data.parse_values": ("count", "count", "data.parse"),
    "data.scale_s": ("s", "self", "data.scale"),
    "data.rows_s": ("s", "self", "data.rows"),
    "ocsvm.fit_s": ("s", "self", "ocsvm.fit"),
    "ocsvm.kernel_row_s": ("s", "self", "ocsvm.kernel_row"),
    "ocsvm.kernel_row_calls": ("count", "count", "ocsvm.kernel_row"),
    "ocsvm.kernel_rows_distinct": ("count", "count", "ocsvm.kernel_row"),
    "ocsvm.solver_iters": ("count", "count", "ocsvm.fit"),
    "ocsvm.support_vectors": ("count", "count", "ocsvm.fit"),
    "ocsvm.unconverged": ("count", "count", "ocsvm.fit"),
    "ocsvm.score_s": ("s", "self", "ocsvm.score"),
    "noise_filter.filter_s": ("s", "self", "noise_filter.filter"),
    "noise_filter.scan_s": ("s", "self", "noise_filter.scan"),
    "noise_filter.rows_removed": ("count", "count", "noise_filter.filter"),
    "learners.fit_s": ("s", "self", "learners.fit"),
    "learners.fits": ("count", "calls", "learners.fit"),
    "learners.predict_train_s": ("s", "self@train", "learners.predict"),
    "learners.predict_eval_s": ("s", "self@evaluate", "learners.predict"),
    "learners.predict_rows": ("count", "count", "learners.predict"),
    "ensemble.boost_s": ("s", "self", "ensemble.boost"),
    "ensemble.rounds_kept": ("count", "count", "ensemble.boost"),
    "ensemble.beta_s": ("s", "self", "ensemble.beta"),
    "ensemble.vote_s": ("s", "self", "ensemble.vote"),
    "ensemble.save_s": ("s", "self", "ensemble.save"),
    "ensemble.load_s": ("s", "self", "ensemble.load"),
    "pipeline.train_self_s": ("s", "self", "pipeline.train"),
    "pipeline.evaluate_self_s": ("s", "self", "pipeline.evaluate"),
}
for _layer in ("data", "ocsvm", "noise_filter", "learners", "ensemble", "pipeline"):
    LAYER_METRICS[f"{_layer}.wait_s"] = ("s", "wait", _layer)
LAYER_METRICS["trace.overhead_s"] = ("s", "overhead", "pipeline.train")


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gini(labels) -> float:
    n = len(labels)
    return 1.0 - sum((c / n) ** 2 for c in Counter(labels).values())


class Runner:
    def __init__(self, root: str, w: Workload, seed: int, work: str, spans_dir: str):
        self.src = os.path.join(root, "src")
        self.w = w
        self.seed = seed
        self.work = work
        self.spans_dir = spans_dir
        self.env = dict(os.environ, **ONE_THREAD_ENV)
        self.env.pop("PYTHONPATH", None)
        self.attempted = 0
        self.failed = 0
        self.first_train: dict[int, dict] = {}
        self.missing: set[str] = set()

    def worker(self, spec: dict) -> dict | None:
        """Run one operation in a fresh interpreter; None if it failed."""
        spec = dict(spec, src=self.src)
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            capture_output=True, text=True, env=self.env, timeout=OP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(f"{spec['op']} failed (exit {proc.returncode}):\n{proc.stderr}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def op(self, op: str, j: int, trace: bool = False, tag: str = "") -> dict | None:
        """One train or evaluate on training set j; None if it failed."""
        self.attempted += 1
        out_dir = os.path.join(self.work, f"train-{j}{tag}")
        spec = {"op": op, "trace": trace,
                "spans_path": os.path.join(self.spans_dir, f"{self.w.name}-s{self.seed}-{op}.jsonl")}
        if op == "train":
            spec.update(
                train_path=self.truth["train"][j]["path"], output_dir=out_dir,
                partitions=self.w.partitions, learner=self.w.learner,
                rounds=self.w.rounds, seed=self.seed, filtering=self.w.filtering,
            )
        else:
            spec.update(model_path=os.path.join(self.first_train[j]["out_dir"], "model.json"),
                        test_path=self.truth["test"]["path"])
        result = self.worker(spec)
        if result is None:
            self.failed += 1
            return None
        result["out_dir"] = out_dir
        return result

    # -- checks made apart from the program ---------------------------------

    def check_train(self, res: dict, j: int) -> dict:
        """Check one train's report against the truth; returns the parsed report."""
        with open(os.path.join(res["out_dir"], "report.json"), "rb") as fh:
            report_bytes = fh.read()
        with open(os.path.join(res["out_dir"], "model.json"), "rb") as fh:
            model_bytes = fh.read()
        if j not in self.first_train:
            self.first_train[j] = dict(res, outputs=(report_bytes, model_bytes),
                                       model_mb=len(model_bytes) / 1e6)
            print(f"{self.w.name} train-{j} sha256 report.json {sha256(report_bytes)}")
            print(f"{self.w.name} train-{j} sha256 model.json {sha256(model_bytes)}")
        check(self.first_train[j]["outputs"] == (report_bytes, model_bytes),
              f"train-{j}: report.json/model.json bytes differ between train operations")
        report = json.loads(report_bytes)
        labels = self.truth["train"][j]["labels"]
        n = len(labels)
        hist = report["dataset"]["class_histogram"]
        check(hist == {str(c): labels.count(c) for c in set(labels)},
              f"class histogram {hist} does not match the generated labels")
        parts = report["repetitions"][0]["partitions"]
        sizes = [p["size"] for p in parts]
        check(len(parts) == self.w.partitions, "wrong partition count")
        check(sum(sizes) == n and max(sizes) - min(sizes) <= 1,
              f"partition sizes {sizes} do not cut {n} rows evenly")
        for p in parts:
            check(p["retained"] + p["removed"] == p["size"], f"partition {p}: retained + removed != size")
            if self.w.filtering:
                check(p["chosen_p"] in GRID, f"partition {p}: chosen_p is off the grid")
                want = max(1, math.floor(p["chosen_p"] * p["size"] + 0.5))
                check(p["retained"] == want, f"partition {p}: retained != round(p * size)")
                check(p["gini_noisy"] > 0 and math.isclose(
                    p["ratio"], p["gini_clean"] / p["gini_noisy"], rel_tol=1e-12),
                    f"partition {p}: ratio != gini_clean / gini_noisy")
            else:
                check(p["chosen_p"] == 1 and p["removed"] == 0,
                      f"partition {p}: filter off but rows removed")
        return report

    def check_filters(self, filters: list, report: dict, j: int) -> None:
        """Traced train: recompute each partition's split from the truth."""
        labels = self.truth["train"][j]["labels"]
        ring = set(self.truth["train"][j]["ring"])
        by_id = {p["partition_id"]: p for p in report["repetitions"][0]["partitions"]}
        check(len(filters) == (self.w.partitions if self.w.filtering else 0),
              "filter_partition was not called once per partition")
        for f in filters:
            p = by_id[f["partition_id"]]
            clean = f["clean"]
            noisy = sorted(set(f["indices"]) - set(clean))
            check(len(clean) == p["retained"], "traced clean side differs from the report")
            check(math.isclose(gini([labels[i] for i in clean]), p["gini_clean"], abs_tol=1e-12)
                  and math.isclose(gini([labels[i] for i in noisy]), p["gini_noisy"], abs_tol=1e-12),
                  f"partition {p['partition_id']}: impurities differ from the recomputation")
            part_share = sum(i in ring for i in f["indices"]) / len(f["indices"])
            clean_share = sum(i in ring for i in clean) / len(clean)
            check(clean_share < part_share,
                  f"partition {p['partition_id']}: clean side keeps {clean_share:.3f} ring rows, "
                  f"partition has {part_share:.3f}")

    def check_evaluate(self, res: dict) -> float:
        """Check one evaluate's confusion matrix against the truth; returns accuracy."""
        out = res["result"]
        labels = self.truth["test"]["labels"]
        n = len(labels)
        conf = out["confusion_matrix"]
        names = out["label_names"]
        check(out["n_test"] == n, "evaluate saw a different test row count")
        for i, name in enumerate(names):
            check(sum(conf[i]) == labels.count(int(name)),
                  f"confusion row {name} does not sum to the class count")
        trace = sum(conf[i][i] for i in range(len(names)))
        check(out["accuracy"] == trace / n, "accuracy != confusion trace / n")
        majority = max(labels.count(c) for c in set(labels)) / n
        check(out["accuracy"] > majority,
              f"accuracy {out['accuracy']:.4f} does not beat the majority rate {majority:.4f}")
        return out["accuracy"]

    # -- runs ---------------------------------------------------------------

    def setup_times(self) -> list[float]:
        probe = {"op": "import", "trace": False}
        self.worker(probe)  # compiles bytecode; users do not pay that on every call
        return [self.worker(probe)["import_s"] for _ in range(SETUP_PROBES)]

    def run(self, seconds: float, trace: bool) -> dict:
        self.truth = generate(self.w, self.seed, os.path.join(self.work, "inputs"))
        setup = self.setup_times()
        samples: dict[str, list[float]] = {}
        t_end = time.perf_counter() + seconds
        rounds = 0
        min_rounds = MIN_TRACE_ROUNDS if trace else self.w.train_sets
        while rounds < min_rounds or time.perf_counter() < t_end:
            j = rounds % self.w.train_sets
            ops = self.trace_round(samples, j) if trace else self.round(samples, j)
            rounds += 1
            setup.extend(r["import_s"] for r in ops if r is not None)
        if trace:
            return self.layer_metrics(samples)
        samples["setup_s"] = setup
        # model size and accuracy are fixed by the training set, so they are
        # averaged over the run's training sets, each counted once
        for name in ("model_mb", "accuracy"):
            samples[name] = [t[name] for t in self.first_train.values() if name in t]
        metrics = {}
        for name in E2E_UNITS:
            vals = samples[name]
            how = "mean" if name in ("model_mb", "accuracy") else "median"
            metrics[name] = statistics.fmean(vals) if how == "mean" else statistics.median(vals)
            print(f"{self.w.name} {name}: {how} {metrics[name]:.6g} of {len(vals)} "
                  f"(min {min(vals):.6g}, max {max(vals):.6g})")
        return metrics

    def round(self, samples: dict, j: int) -> list:
        first = j not in self.first_train
        tr = self.op("train", j, tag="" if first else "-again")
        if tr is None:
            self.attempted += 1
            self.failed += 1
            return []
        self.check_train(tr, j)
        ev = self.op("evaluate", j)
        if ev is not None:
            self.first_train[j]["accuracy"] = self.check_evaluate(ev)
            _add(samples, "evaluate_s", ev["op_s"])
            _add(samples, "evaluate_peak_rss_mb", ev["peak_rss_mb"])
        _add(samples, "train_s", tr["op_s"])
        _add(samples, "train_peak_rss_mb", tr["peak_rss_mb"])
        return [tr, ev]

    def trace_round(self, samples: dict, j: int) -> list:
        first = j not in self.first_train
        plain = self.op("train", j, tag="" if first else "-again")
        if plain is None:
            self.attempted += 2
            self.failed += 2
            return []
        self.check_train(plain, j)
        traced = self.op("train", j, trace=True, tag="-traced")
        ev = self.op("evaluate", j, trace=True)
        if traced is None or ev is None:
            return []
        report = self.check_train(traced, j)
        if not any("(noise_filter.filter)" in m for m in traced["trace"]["missing"]):
            self.check_filters(traced["trace"]["filters"], report, j)
        self.check_evaluate(ev)
        for res, split in ((traced, self.truth["train"][j]), (ev, self.truth["test"])):
            parsed = res["trace"]["counts"].get("data.parse_values")
            check(parsed in (None, split["stored_values"]),
                  f"parse stored {parsed} values, the file holds {split['stored_values']}")
        _add(samples, "untraced_train_s", plain["op_s"])
        _add(samples, "traced_train_s", traced["op_s"])
        sums: dict[str, float] = {}
        for res, op in ((traced, "train"), (ev, "evaluate")):
            for name, t in res["trace"]["layers"].items():
                layer = name.split(".")[0]
                for key, value in ((f"self:{name}", t["self_s"]),
                                   (f"self@{op}:{name}", t["self_s"]),
                                   (f"calls:{name}", t["calls"]),
                                   (f"wait:{layer}", t["self_s"] - t["self_cpu_s"])):
                    sums[key] = sums.get(key, 0.0) + value
            for name, value in res["trace"]["counts"].items():
                sums[f"count:{name}"] = sums.get(f"count:{name}", 0.0) + value
            self.missing.update(res["trace"]["missing"])
        for name, (_, kind, source) in LAYER_METRICS.items():
            key = f"count:{name}" if kind == "count" else f"{kind}:{source}"
            _add(samples, name, sums.get(key, 0.0))
        return [plain, traced, ev]

    def layer_metrics(self, samples: dict) -> dict:
        """Medians over traced rounds; a layer whose name is missing is left out."""
        gone = {m.rsplit("(", 1)[1].rstrip(")") for m in self.missing}
        if gone:
            sys.stderr.write("missing layers (wrapped names not found): "
                             + ", ".join(sorted(self.missing)) + "\n")
        out = {}
        for name, (_, kind, source) in LAYER_METRICS.items():
            if source in gone or (kind == "wait" and any(g.startswith(source + ".") for g in gone)):
                continue
            if kind == "overhead":
                out[name] = (statistics.median(samples["traced_train_s"])
                             - statistics.median(samples["untraced_train_s"]))
            else:
                out[name] = statistics.median(samples[name])
        return out


def _add(samples: dict, name: str, value: float) -> None:
    samples.setdefault(name, []).append(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "noisegate", "__init__.py")):
        sys.stderr.write("src/noisegate not found: run from the root of a noisegate checkout\n")
        return 2
    # paths relative to the checkout, so report.json (which records the
    # training path) hashes the same in every checkout
    work = os.path.join(".bench_work", f"{args.workload}-s{args.seed}")
    spans_dir = os.path.join(".bench_work", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    runner = Runner(root, WORKLOADS[args.workload], args.seed, work, spans_dir)
    correct = True
    try:
        metrics = runner.run(args.seconds, bool(args.trace))
    except CheckFailed as exc:
        # keep the inputs, truth.json and outputs for a look at what failed
        sys.stderr.write(f"check failed: {exc} (files kept in {work})\n")
        correct = False
        metrics = {}
    else:
        shutil.rmtree(work)
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()} if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
