"""One benchmark operation in a fresh interpreter.

Usage: python3 bench/worker.py '<json spec>'

The spec names the package source directory and the operation: ``import``
(only time the package import), ``train`` (one ``run_training`` call) or
``evaluate`` (one ``pipeline.evaluate`` call), and whether to trace it. The
last line of standard output is a JSON object with the import time, the
operation time, the peak RSS of this process and the operation's outputs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _operation(ng, spec):
    """The call to time, as a function of no arguments."""
    if spec["op"] == "train":
        cfg = ng.RunConfig(
            train_path=spec["train_path"],
            output_dir=spec["output_dir"],
            partitions=spec["partitions"],
            learner=ng.LearnerConfig(kind=spec["learner"]),
            rounds=spec["rounds"],
            seed=spec["seed"],
            filtering=spec["filtering"],
            repetitions=1,
        )
        return lambda: ng.pipeline.run_training(cfg)
    return lambda: ng.pipeline.evaluate(spec["model_path"], spec["test_path"])


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import noisegate as ng

    import_s = time.perf_counter() - t0
    if not ng.__file__.startswith(os.path.abspath(spec["src"])):
        raise SystemExit(f"imported noisegate from {ng.__file__}, not {spec['src']}")
    out = {"import_s": import_s}
    op = spec["op"]
    if op != "import":
        call = _operation(ng, spec)
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(ng, tracing.TARGETS[op])
        t0 = time.perf_counter()
        result = call() if tracer is None else tracer.span(f"pipeline.{op}", call)
        out["op_s"] = time.perf_counter() - t0
        if op == "evaluate":
            out["result"] = result
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spec["spans_path"])
            out["trace"] = {
                "layers": tracer.layer_totals(),
                "counts": dict(tracer.counts),
                "missing": tracer.missing,
                "filters": tracer.filters,
            }
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
