import importlib.util
import os
import subprocess
import sys

import noisegate


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; the package must not pull it in
    src = os.path.dirname(os.path.dirname(os.path.abspath(noisegate.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, noisegate; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_tracer_targets_resolve_on_the_package():
    # the bench tracer wraps these names at run time; a missing one shows only
    # as a "missing layers" line in a traced run, so check them here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(root, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner_path, attr, _ in tracing.TRAIN_TARGETS + tracing.EVAL_TARGETS:
        owner = noisegate
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{owner_path}.{attr}"
