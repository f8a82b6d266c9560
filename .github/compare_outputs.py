"""Compare a base commit's outputs with this checkout's on one bench workload.

    python3 .github/compare_outputs.py BASE_DIR WORKLOAD

BASE_DIR holds a tree of the base commit, for example one made with
``git archive BASE | tar -x -C BASE_DIR``; the head is the checkout that
holds this script. It first prints each side's non-blank line count of
src/noisegate/*.py, the count refactors are judged by (ROADMAP aim 2). Each
comparison then runs both sides, each with its own code, on the same inputs,
made by the head, and prints a Markdown section saying whether the two sides
wrote the same bytes. Some changes mean to change the bytes, so a difference
is only reported: the script fails only when a run fails.
"""

import filecmp
import os
import subprocess
import sys
import tempfile

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(HEAD, "bench"), os.path.join(HEAD, "src")]

from noisegate.data import dump_libsvm  # noqa: E402
from noisegate.synthetic import ring_noise_dataset  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# 101 and 202 are the two seeds every byte-equality gate names; 303 adds one
# that no gate names, because equal bytes after a change in floating-point
# rounding rest on a margin between scores, not on exact arithmetic
SEEDS = (101, 202, 303)
OUTPUTS = ("report.json", "evaluate.json", "predict.txt")


def line_count(root):
    """Lines of root's src/noisegate/*.py holding more than spaces and tabs,
    as ``awk 'NF'`` counts them."""
    src = os.path.join(root, "src", "noisegate")
    count = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                count += sum(1 for line in fh if line.strip(b" \t\n"))
    return count


def run_side(root, args, stdout=subprocess.DEVNULL):
    """Run the side at root: its own bench/run.py from its root, or else one
    noisegate command with its own package. Returns what stdout captured."""
    if args[0] != "bench/run.py":
        args = ["-m", "noisegate.cli", *args]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run([sys.executable, *map(str, args)], cwd=root, env=env,
                          stdout=stdout, check=True).stdout


def bench_run(workload, seed):
    """A side's short bench run, keeping its report.json and model.json
    SHA-256 lines."""
    def run(root, out):
        text = run_side(root, ["bench/run.py", "--workload", workload, "--seed", seed,
                               "--seconds", 1], stdout=subprocess.PIPE)
        os.makedirs(out)
        with open(os.path.join(out, "sha256"), "wb") as fh:
            fh.writelines(line for line in text.splitlines(True) if b" sha256 " in line)
    return run


def cli_run(train, test, flags):
    """A side's train on train with flags, then its evaluate and predict on
    test with the model it wrote."""
    def run(root, out):
        run_side(root, ["train", "--train", train, "--out", out, *flags])
        model = os.path.join(out, "model.json")
        with open(os.path.join(out, "evaluate.json"), "wb") as fh:
            run_side(root, ["evaluate", "--model", model, "--test", test], stdout=fh)
        run_side(root, ["predict", "--model", model, "--data", test,
                        "--out", os.path.join(out, "predict.txt")])
    return run


def write_odd_text(src, dst):
    """src's labels 0 and 1 as été and -1, a vertical tab after each label
    and CRLF line ends: odd but valid text, which the parser reads by bytes
    and must read as the line loop does."""
    names = {"0": "été", "1": "-1"}
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            label, _, pairs = line.partition(" ")
            fh.write(f"{names[label]}\x0b{pairs}\r\n")


def cases(workload, work):
    """Each comparison's title and side-runner, in the order they print."""
    w = WORKLOADS[workload]
    for seed in SEEDS:
        yield f"{workload}, seed {seed}: SHA-256 of report.json and model.json", \
            bench_run(workload, seed)
        inputs = os.path.join(work, f"inputs-{seed}")
        generate(w, seed, inputs)
        train, test = os.path.join(inputs, "train-0.svm"), os.path.join(inputs, "test.svm")
        flags = ["--partitions", w.partitions, "--learner", w.learner, "--rounds", w.rounds,
                 "--seed", seed, "--reps", 1] + ([] if w.filtering else ["--no-filter"])
        yield f"{workload}, seed {seed}, train-0", cli_run(train, test, flags)
        if seed != 101:
            continue
        # the in-train evaluate, which no other case reaches; the later
        # --reps overrides the one in flags
        yield f"{workload}, seed 101, train-0 with `--test` and `--reps 3`", \
            cli_run(train, test, flags + ["--test", test, "--reps", 3])
        if workload == "sparse-wide":
            odd = [os.path.join(work, f"odd-{name}") for name in ("train.svm", "test.svm")]
            write_odd_text(train, odd[0])
            write_odd_text(test, odd[1])
            yield (f"{workload}, seed 101, train-0 with labels `été`/`-1`, a vertical tab "
                   "after each label and CRLF line ends", cli_run(*odd, flags))
    if workload == "filter-tree":
        # the bench data hold two classes; a tree's class masses and Gini
        # scores have K entries, so the tree workload also trains on three. Five
        # partitions: at the default 50, the filter leaves some 60-row
        # partition a single class and the train exits 3
        paths = []
        for name, seed in (("train", 101), ("test", 202)):
            paths.append(os.path.join(work, f"3-class-{name}.svm"))
            with open(paths[-1], "w") as fh:
                fh.write(dump_libsvm(ring_noise_dataset(n=3000, n_classes=3, seed=seed)))
        yield "3-class ring_noise_dataset, tree learner", \
            cli_run(*paths, ["--partitions", 5, "--learner", "tree", "--seed", 101, "--reps", 1])


def print_comparison(title, base, head):
    """One comparison's Markdown section: the SHA-256 lines of a bench run,
    or whether each CLI output has the same bytes and each model's size."""
    def same(name):
        return filecmp.cmp(os.path.join(base, name), os.path.join(head, name), shallow=False)

    if os.path.exists(os.path.join(head, "sha256")):
        print(f"### {title}")
        for side, out in (("base", base), ("head", head)):
            with open(os.path.join(out, "sha256")) as fh:
                print(f"{side}:\n```\n{fh.read()}```")
        print("same bytes as the base commit" if same("sha256")
              else "different bytes from the base commit")
        return
    print(f"### {title}: outputs against the base commit")
    for name in OUTPUTS:
        print(f"- {name} bytes: {'equal' if same(name) else 'different'}")
    # a format change shows its size change here without a bench run
    sizes = [os.path.getsize(os.path.join(out, "model.json")) for out in (base, head)]
    print(f"- model.json size: base {sizes[0]} B, head {sizes[1]} B "
          f"({sizes[1] - sizes[0]:+d} B)")


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in WORKLOADS:
        sys.exit(f"usage: python3 .github/compare_outputs.py BASE_DIR {{{','.join(WORKLOADS)}}}")
    sides = (os.path.abspath(sys.argv[1]), HEAD)
    base, head = map(line_count, sides)
    print(f"### Non-blank lines in src/noisegate/*.py\n- base: {base}\n"
          f"- head: {head} ({head - base:+d} against the base)")
    with tempfile.TemporaryDirectory() as work:
        # one output path for both sides, so nothing path-dependent differs
        out = os.path.join(work, "out")
        for i, (title, run) in enumerate(cases(sys.argv[2], work)):
            kept = []
            for side, root in zip(("base", "head"), sides):
                run(root, out)
                kept.append(os.path.join(work, f"{i}-{side}"))
                os.rename(out, kept[-1])
            print_comparison(title, *kept)


if __name__ == "__main__":
    main()
