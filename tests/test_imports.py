import functools
import importlib.util
import os
import subprocess
import sys
from collections import Counter

import pytest

import noisegate
from noisegate.data import dump_libsvm
from noisegate.ensemble import LearnerConfig
from noisegate.pipeline import RunConfig, evaluate, run_training
from noisegate.synthetic import striped_ring_dataset


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; the package must not pull it in
    src = os.path.dirname(os.path.dirname(os.path.abspath(noisegate.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, noisegate; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_readme_library_names_import_from_the_top_level():
    # README's Library section imports these from the package itself
    from noisegate import (  # noqa: F401
        LearnerConfig, RunConfig, adaboost_train, compute_beta, filter_partition, gini_scan,
        parse_libsvm, partition, run_training,
    )


def load_tracing():
    """bench/tracing.py, loaded as a module."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(root, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def owner_of(owner_path):
    owner = noisegate
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_targets_resolve_on_the_package():
    # the bench tracer wraps these names at run time; a missing one shows only
    # as a "missing layers" line in a traced run, so check them here
    tracing = load_tracing()
    for owner_path, attr, _ in tracing.TRAIN_TARGETS + tracing.EVAL_TARGETS:
        assert attr in vars(owner_of(owner_path)), f"{owner_path}.{attr}"


def counted(calls, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


# tracer targets that a filtered train or an evaluate never calls, whatever
# the learner kind: the pipeline scores and measures beta through other names,
# and the vote runs on tables, columns and neighbour lists, not on predict
NEVER_CALLED = {
    "train": {"noise_filter.decision_values", "learners.KnnHypothesis.predict",
              "ensemble.compute_beta"},
    "evaluate": {"learners.DecisionStump.predict", "learners.RandomTree.predict",
                 "learners.KnnHypothesis.predict"},
}
# and the other kinds' fits and predicts
OTHER_KINDS = {
    "stump": {"ensemble.train_random_tree", "learners.KnnHypothesis.__init__",
              "learners.RandomTree.predict"},
    "tree": {"ensemble.train_stump", "learners.KnnHypothesis.__init__",
             "learners.DecisionStump.predict"},
    "knn": {"ensemble.train_stump", "ensemble.train_random_tree",
            "learners.DecisionStump.predict", "learners.RandomTree.predict"},
}


@pytest.mark.parametrize("kind", ["stump", "tree", "knn"])
def test_traced_layers_run(tmp_path, monkeypatch, kind):
    # a refactor that moves work off a wrapped name leaves its layer reading 0
    # in a traced run without failing it; pin which targets stay silent
    train, test = tmp_path / "train.svm", tmp_path / "test.svm"
    train.write_text(dump_libsvm(striped_ring_dataset(200, noise_fraction=0.1, seed=1)))
    test.write_text(dump_libsvm(striped_ring_dataset(50, noise_fraction=0.0, seed=2)))
    cfg = RunConfig(str(train), str(tmp_path / "out"), partitions=2, grid_step=0.25,
                    learner=LearnerConfig(kind), rounds=5, repetitions=1)
    targets = load_tracing().TARGETS
    operations = {
        "train": lambda: run_training(cfg),
        "evaluate": lambda: evaluate(os.path.join(cfg.output_dir, "model.json"), str(test)),
    }
    for operation, run in operations.items():
        calls = Counter()
        with monkeypatch.context() as patch:
            for owner_path, attr, _ in targets[operation]:
                owner, key = owner_of(owner_path), f"{owner_path}.{attr}"
                calls[key] = 0
                patch.setattr(owner, attr, counted(calls, key, vars(owner)[attr]))
            run()
        silent = {key for key, n in calls.items() if n == 0}
        assert silent == NEVER_CALLED[operation] | (OTHER_KINDS[kind] & set(calls))
