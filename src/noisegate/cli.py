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
from .ensemble import LEARNER_KINDS, DegenerateEnsembleError, LearnerConfig
from .ocsvm import KERNEL_KINDS
from .pipeline import (
    BETA_MODES,
    FORMATS,
    PartitionError,
    RunConfig,
    evaluate,
    gini_scan,
    predict_labels,
    run_training,
)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_DEGENERATE = 4

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _add_format_args(sp):
    sp.add_argument("--format", choices=FORMATS, help="input file format")
    sp.add_argument("--label-col", dest="label_column", metavar="LABEL_COL", type=int,
                    help="label column for csv input (0-based, -1 = last)")


def _add_filter_args(sp):
    sp.add_argument("--partitions", type=int, help="number of data partitions")
    sp.add_argument("--nu", type=float, help="upper bound on the training outlier fraction")
    sp.add_argument("--kernel", choices=KERNEL_KINDS)
    sp.add_argument("--gamma", type=float, help="rbf width (default: 1/num_features)")
    sp.add_argument("--grid-step", type=float, help="spacing of the retained-fraction grid")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--no-scale", dest="scaling", action="store_false",
                    help="skip min-max feature scaling")


def build_parser() -> argparse.ArgumentParser:
    """Each setting flag stores into the RunConfig field it sets (its dest)
    and has no default of its own: a flag left unset is absent from the
    namespace, so the field keeps its dataclass default."""
    parser = argparse.ArgumentParser(
        prog="noisegate",
        description="Partitioned ensemble classification with one-class SVM noise filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    train = command("train", "train a partitioned ensemble model")
    train.add_argument("--train", required=True, dest="train_path", help="training data file")
    train.add_argument("--test", dest="test_path",
                       help="optional test data file for the accuracy report")
    _add_format_args(train)
    _add_filter_args(train)
    train.add_argument("--learner", choices=LEARNER_KINDS,
                       help="weak learner boosted on each partition")
    train.add_argument("--rounds", type=int, help="boosting rounds per partition")
    train.add_argument("--no-filter", dest="filtering", action="store_false",
                       help="skip the noise filtering stage")
    train.add_argument("--beta-mode", choices=BETA_MODES,
                       help="how each partition's vote weight is measured")
    train.add_argument("--reps", dest="repetitions", metavar="REPS", type=int,
                       help="repetitions with re-randomized partitions")
    train.add_argument("--out", required=True, dest="output_dir",
                       help="directory for model.json, report.json, timings.json")

    ev = command("evaluate", "score a saved model on a test file")
    ev.add_argument("--model", required=True, help="model.json produced by train")
    ev.add_argument("--test", required=True, dest="test_path")
    _add_format_args(ev)
    ev.add_argument("--out", default=None, dest="output_dir",
                    help="directory for evaluation.json (default: print to stdout)")

    gs = command("gini-scan", "impurity-ratio scan over retained fractions")
    gs.add_argument("--train", required=True, dest="train_path")
    _add_format_args(gs)
    _add_filter_args(gs)
    gs.add_argument("--out", required=True, dest="output_dir",
                    help="directory for per-partition and aggregate CSV files")

    pr = command("predict", "print predicted labels for a data file")
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
    """The RunConfig of a parsed train or gini-scan command."""
    settings = {k: v for k, v in vars(ns).items() if k != "command"}
    if "learner" in settings:
        settings["learner"] = LearnerConfig(kind=settings["learner"])
    return RunConfig(**settings)


def _format_flags(ns: argparse.Namespace) -> dict:
    """The format flags given to evaluate or predict."""
    return {k: v for k, v in vars(ns).items() if k in ("format", "label_column")}


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
        result = evaluate(ns.model, ns.test_path, **_format_flags(ns))
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
        result = gini_scan(build_config(ns))
        best_ps = result["best_p_per_partition"]
        for pid, best_p in enumerate(best_ps):
            print(f"partition {pid}: best retained fraction p={best_p:g} "
                  f"(removed fraction {1 - best_p:g})")
        print(f"modal best retained fraction across {len(best_ps)} partitions: "
              f"p={result['modal_best_p']:g}")
        return EXIT_OK
    if ns.command == "predict":
        labels = predict_labels(ns.model, ns.data_path, **_format_flags(ns))
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
