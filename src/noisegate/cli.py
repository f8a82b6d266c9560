"""Command line interface: train, evaluate, gini-scan, predict.

Exit codes: 0 success, 2 usage error, 3 data error, 4 degenerate ensemble.
The NOISEGATE_LOG environment variable (error|warn|info|debug) controls
diagnostics on stderr; reports and models go to files only.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .data import ParseError
from .ensemble import DegenerateEnsembleError, LearnerConfig
from .pipeline import PartitionError, RunConfig, evaluate, gini_scan, predict_labels, run_training

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _add_format_args(sp):
    sp.add_argument("--format", choices=("libsvm", "csv"), default="libsvm",
                    help="input file format")
    sp.add_argument("--label-col", type=int, default=-1,
                    help="label column for csv input (0-based, -1 = last)")


def _add_filter_args(sp):
    sp.add_argument("--partitions", type=int, default=50, help="number of data partitions")
    sp.add_argument("--nu", type=float, default=0.5,
                    help="upper bound on the training outlier fraction")
    sp.add_argument("--kernel", choices=("rbf", "linear"), default="rbf")
    sp.add_argument("--gamma", type=float, default=None,
                    help="rbf width (default: 1/num_features)")
    sp.add_argument("--grid-step", type=float, default=0.05,
                    help="spacing of the retained-fraction grid")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--no-scale", action="store_true",
                    help="skip min-max feature scaling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisegate",
        description="Partitioned ensemble classification with one-class SVM noise filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a partitioned ensemble model")
    train.add_argument("--train", required=True, dest="train_path", help="training data file")
    train.add_argument("--test", dest="test_path", default=None,
                       help="optional test data file for the accuracy report")
    _add_format_args(train)
    _add_filter_args(train)
    train.add_argument("--learner", choices=("stump", "tree", "knn"), default="tree",
                       help="weak learner boosted on each partition")
    train.add_argument("--rounds", type=int, default=50, help="boosting rounds per partition")
    train.add_argument("--no-filter", action="store_true",
                       help="skip the noise filtering stage")
    train.add_argument("--beta-mode", choices=("holdout", "train"), default="holdout",
                       help="how each partition's vote weight is measured")
    train.add_argument("--reps", type=int, default=50,
                       help="repetitions with re-randomized partitions")
    train.add_argument("--jobs", type=int, default=None,
                       help="partition-stage worker threads (default: all cores)")
    train.add_argument("--out", required=True, dest="output_dir",
                       help="directory for model.json, report.json, timings.json")

    ev = sub.add_parser("evaluate", help="score a saved model on a test file")
    ev.add_argument("--model", required=True, help="model.json produced by train")
    ev.add_argument("--test", required=True, dest="test_path")
    _add_format_args(ev)
    ev.add_argument("--out", default=None, dest="output_dir",
                    help="directory for evaluation.json (default: print to stdout)")

    gs = sub.add_parser("gini-scan", help="impurity-ratio scan over retained fractions")
    gs.add_argument("--train", required=True, dest="train_path")
    _add_format_args(gs)
    _add_filter_args(gs)
    gs.add_argument("--out", required=True, dest="output_dir",
                    help="directory for per-partition and aggregate CSV files")

    pr = sub.add_parser("predict", help="print predicted labels for a data file")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True, dest="data_path")
    _add_format_args(pr)
    pr.add_argument("--out", default=None, dest="output_path",
                    help="write predictions here instead of stdout")

    return parser


def cli_parse(argv) -> argparse.Namespace:
    """Parse argv; raises SystemExit(2) on usage errors."""
    return build_parser().parse_args(argv)


def build_config(ns: argparse.Namespace) -> RunConfig:
    learner = LearnerConfig(kind=ns.learner)
    return RunConfig(
        train_path=ns.train_path,
        output_dir=ns.output_dir,
        test_path=ns.test_path,
        fmt=ns.format,
        label_column=ns.label_col,
        partitions=ns.partitions,
        nu=ns.nu,
        kernel_kind=ns.kernel,
        gamma=ns.gamma,
        grid_step=ns.grid_step,
        learner=learner,
        rounds=ns.rounds,
        seed=ns.seed,
        filtering=not ns.no_filter,
        beta_mode=ns.beta_mode,
        scaling=not ns.no_scale,
        repetitions=ns.reps,
        jobs=ns.jobs,
    )


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("NOISEGATE_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _dispatch(ns: argparse.Namespace) -> int:
    if ns.command == "train":
        _, report = run_training(build_config(ns))
        if report.mean_accuracy is not None:
            print(f"mean accuracy over {len(report.repetitions)} repetitions: "
                  f"{report.mean_accuracy:.5f}")
        print(f"wrote {os.path.join(ns.output_dir, 'model.json')} and report.json")
        return EXIT_OK
    if ns.command == "evaluate":
        result = evaluate(ns.model, ns.test_path, ns.format, ns.label_col)
        text = json.dumps(result, indent=1) + "\n"
        if ns.output_dir:
            os.makedirs(ns.output_dir, exist_ok=True)
            path = os.path.join(ns.output_dir, "evaluation.json")
            with open(path, "w") as fh:
                fh.write(text)
            print(f"accuracy {result['accuracy']:.5f} -> {path}")
        else:
            sys.stdout.write(text)
        return EXIT_OK
    if ns.command == "gini-scan":
        result = gini_scan(
            ns.train_path,
            ns.output_dir,
            fmt=ns.format,
            label_column=ns.label_col,
            nu=ns.nu,
            kernel_kind=ns.kernel,
            gamma=ns.gamma,
            grid_step=ns.grid_step,
            M=ns.partitions,
            seed=ns.seed,
            scaling=not ns.no_scale,
        )
        best_ps = result["best_p_per_partition"]
        for pid, best_p in enumerate(best_ps):
            print(f"partition {pid}: best retained fraction p={best_p:g} "
                  f"(removed fraction {1 - best_p:g})")
        print(f"modal best retained fraction across {len(best_ps)} partitions: "
              f"p={result['modal_best_p']:g}")
        return EXIT_OK
    if ns.command == "predict":
        labels = predict_labels(ns.model, ns.data_path, ns.format, ns.label_col)
        text = "\n".join(labels) + "\n"
        if ns.output_path:
            with open(ns.output_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    raise AssertionError(f"unhandled command {ns.command!r}")


def main(argv=None) -> int:
    ns = cli_parse(argv if argv is not None else sys.argv[1:])
    _configure_logging()
    try:
        return _dispatch(ns)
    except DegenerateEnsembleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.degenerate:
            return EXIT_DEGENERATE
        return EXIT_DATA
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
