import json
import os
import random
import warnings

import pytest

from noisegate import cli, data, pipeline
from noisegate.cli import build_config, cli_parse, main
from noisegate.ensemble import DegenerateEnsembleError, LearnerConfig
from noisegate.pipeline import PartitionError, RunConfig, gini_scan
from noisegate.data import dump_libsvm
from noisegate.noise_filter import default_grid
from noisegate.synthetic import striped_ring_dataset


@pytest.fixture
def data_files(tmp_path):
    train = striped_ring_dataset(240, noise_fraction=0.15, seed=1)
    test = striped_ring_dataset(100, noise_fraction=0.0, seed=2)
    tp = tmp_path / "train.svm"
    sp = tmp_path / "test.svm"
    tp.write_text(dump_libsvm(train))
    sp.write_text(dump_libsvm(test))
    return str(tp), str(sp)


def train_args(tp, sp, out, extra=()):
    return [
        "train", "--train", tp, "--test", sp, "--out", out,
        "--partitions", "4", "--rounds", "10", "--reps", "2",
        "--grid-step", "0.4", "--learner", "stump", "--seed", "3",
    ] + list(extra)


class TestParsing:
    def test_defaults_filled(self):
        ns = cli_parse(["train", "--train", "a.svm", "--partitions", "50",
                        "--seed", "7", "--out", "d/"])
        cfg = build_config(ns)
        assert cfg.partitions == 50
        assert cfg.seed == 7
        assert cfg.nu == 0.5
        assert cfg.rounds == 50
        assert cfg.repetitions == 50
        assert cfg.filtering and cfg.scaling
        assert cfg.beta_mode == "holdout"
        assert cfg.learner.kind == "tree"

    @pytest.mark.parametrize("command", ["train", "gini-scan"])
    def test_unset_flags_keep_the_dataclass_defaults(self, command):
        ns = cli_parse([command, "--train", "a.svm", "--out", "d/"])
        assert build_config(ns) == RunConfig("a.svm", "d/")

    def test_every_flag_sets_its_field(self):
        ns = cli_parse([
            "train", "--train", "a.csv", "--test", "b.csv", "--out", "d/",
            "--format", "csv", "--label-col", "0", "--partitions", "7", "--nu", "0.25",
            "--kernel", "rbf", "--gamma", "0.75", "--grid-step", "0.1", "--seed", "9",
            "--no-scale", "--learner", "knn", "--rounds", "11", "--no-filter",
            "--beta-mode", "train", "--reps", "3",
        ])
        assert build_config(ns) == RunConfig(
            "a.csv", "d/", test_path="b.csv", format="csv", label_column=0, partitions=7,
            nu=0.25, kernel="rbf", gamma=0.75, grid_step=0.1, seed=9, scaling=False,
            learner=LearnerConfig("knn"), rounds=11, filtering=False, beta_mode="train",
            repetitions=3,
        )

    def test_missing_required_flag_names_it(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli_parse(["train", "--out", "d/"])
        assert err.value.code == 2
        assert "--train" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli_parse(["train", "--train", "a", "--out", "b", "--frobnicate"])
        assert err.value.code == 2

    def test_jobs_flag_is_usage_error(self):
        # partitions run one after another; there is no worker count to set
        with pytest.raises(SystemExit) as err:
            cli_parse(["train", "--train", "a", "--out", "b", "--jobs", "2"])
        assert err.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            cli_parse(["explode"])
        assert err.value.code == 2

    def test_grid_step_flag_gives_19_point_default_grid(self):
        ns = cli_parse(["gini-scan", "--train", "a", "--out", "b", "--grid-step", "0.05"])
        assert len(default_grid(ns.grid_step)) == 19

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli_parse(["--help"])
        assert err.value.code == 0
        assert "train" in capsys.readouterr().out


class TestCommands:
    def test_train_writes_artifacts(self, data_files, tmp_path, capsys):
        tp, sp = data_files
        out = str(tmp_path / "run")
        assert main(train_args(tp, sp, out)) == 0
        printed = capsys.readouterr().out
        assert "mean accuracy" in printed
        for name in ("model.json", "report.json", "timings.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_train_then_evaluate_and_predict(self, data_files, tmp_path, capsys):
        tp, sp = data_files
        out = str(tmp_path / "run")
        main(train_args(tp, sp, out))
        capsys.readouterr()

        model = os.path.join(out, "model.json")
        assert main(["evaluate", "--model", model, "--test", sp]) == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.0 <= result["accuracy"] <= 1.0

        assert main(["predict", "--model", model, "--data", sp]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 100

    def test_format_flags_reach_evaluate_and_predict(self, data_files, tmp_path, capsys):
        tp, sp = data_files
        out = str(tmp_path / "run")
        main(train_args(tp, sp, out))
        test = striped_ring_dataset(100, noise_fraction=0.0, seed=2)
        csv_path = tmp_path / "test.csv"
        csv_path.write_text("".join(
            f"{test.label_names[y]}," + ",".join(repr(float(v)) for v in row) + "\n"
            for row, y in zip(test.features, test.labels)
        ))
        model = os.path.join(out, "model.json")
        capsys.readouterr()
        runs = {}
        for name, path, flags in [("libsvm", sp, []),
                                  ("csv", str(csv_path), ["--format", "csv", "--label-col", "0"])]:
            assert main(["evaluate", "--model", model, "--test", path] + flags) == 0
            assert main(["predict", "--model", model, "--data", path] + flags) == 0
            runs[name] = capsys.readouterr().out
        assert runs["csv"] == runs["libsvm"]

    def test_predict_to_file(self, data_files, tmp_path, capsys):
        tp, sp = data_files
        out = str(tmp_path / "run")
        main(train_args(tp, sp, out))
        dest = str(tmp_path / "preds.txt")
        assert main(["predict", "--model", os.path.join(out, "model.json"),
                     "--data", sp, "--out", dest]) == 0
        assert len(open(dest).read().strip().split("\n")) == 100

    def test_gini_scan_command(self, data_files, tmp_path, capsys):
        tp, _ = data_files
        out = str(tmp_path / "scan")
        code = main(["gini-scan", "--train", tp, "--out", out,
                     "--partitions", "2", "--grid-step", "0.4", "--seed", "0"])
        assert code == 0
        assert "modal best retained fraction" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "gini_aggregate.csv"))

    def test_gini_scan_prints_each_partition_and_the_mode(self, data_files, tmp_path, capsys):
        tp, _ = data_files
        out = str(tmp_path / "scan")
        summary = gini_scan(RunConfig(tp, out, grid_step=0.4, partitions=3, seed=5))
        assert capsys.readouterr().out == ""
        assert main(["gini-scan", "--train", tp, "--out", out,
                     "--partitions", "3", "--grid-step", "0.4", "--seed", "5"]) == 0
        expected = [
            f"partition {pid}: best retained fraction p={p:g} (removed fraction {1 - p:g})"
            for pid, p in enumerate(summary["best_p_per_partition"])
        ]
        expected.append(
            f"modal best retained fraction across 3 partitions: p={summary['modal_best_p']:g}"
        )
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--train", str(tmp_path / "nope.svm"),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--nu", "0"], "nu must be in (0, 1], got 0.0"),
        (["--kernel", "linear", "--gamma", "0.5"],
         "gamma is only meaningful for the rbf kernel"),
    ], ids=["nu=0", "linear-with-gamma"])
    @pytest.mark.parametrize("command", ["train", "gini-scan"])
    def test_bad_filter_setting_is_data_error(self, data_files, tmp_path, capsys, command,
                                              flags, message):
        out = str(tmp_path / "o")
        code = main([command, "--train", data_files[0], "--out", out,
                     "--partitions", "2", "--grid-step", "0.4"] + flags)
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["train", "gini-scan"])
    def test_single_class_input_is_data_error(self, tmp_path, capsys, command):
        one = tmp_path / "one.svm"
        one.write_text("a 1:0 2:1\na 1:1 2:0\na 1:2 2:2\na 1:3 2:1\n")
        out = str(tmp_path / "o")
        code = main([command, "--train", str(one), "--out", out, "--partitions", "2"])
        assert code == 3
        assert capsys.readouterr() == ("", "error: training data has a single class\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", [
        ["train", "--learner", "stump", "--reps", "1"],
        ["train", "--learner", "tree", "--reps", "1"],
        ["train", "--learner", "knn", "--reps", "1"],
        ["gini-scan"],
    ], ids=["stump", "tree", "knn", "gini-scan"])
    def test_input_without_features_is_data_error(self, tmp_path, capsys, command):
        # every line a bare label: two classes, no feature to split or score
        bare = tmp_path / "bare.svm"
        bare.write_text("1\n2\n" * 4)
        out = str(tmp_path / "o")
        code = main(command + ["--train", str(bare), "--out", out, "--partitions", "2"])
        assert code == 3
        assert capsys.readouterr() == ("", "error: training data has no features\n")
        assert not os.path.exists(out)

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.svm"
        bad.write_text("1 2:1 1:1\n")
        code = main(["train", "--train", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("text, message", [
        ("a 1:1\nb 1:nan\n", "line 2: non-finite value 'nan'"),
        ("a 1:inf\nb 1:1\n", "line 1: non-finite value 'inf'"),
        ("a 1:1\nb 5000000000000:1\n", "line 2: feature index 5000000000000"),
    ], ids=["nan", "inf", "oversized"])
    def test_non_finite_or_oversized_input_is_data_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.svm"
        bad.write_text(text)
        code = main(["train", "--train", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("flags", [[], ["--no-filter"]], ids=["filter", "no-filter"])
    def test_range_past_float64_is_data_error(self, tmp_path, capsys, flags):
        # 1e308 - -1e308 overflows: rejected when the scaling is fitted, with
        # no overflow warning, which the suite would raise as an error
        wide = tmp_path / "wide.svm"
        wide.write_text("a 1:1e308\nb 1:-1e308\na 1:0\n")
        out = str(tmp_path / "o")
        code = main(["train", "--train", str(wide), "--out", out, "--partitions", "1"] + flags)
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: feature 1 spans [-1e+308, 1e+308], a range wider than float64 holds\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("text, flags, message", [
        ("a 1:0.5\nb 1_0:0.5\n", [], "line 2: non-integer feature index '1_0'"),
        ("a 1:0.5\nb 1:1_000\n", [], "line 2: non-numeric value '1_000'"),
        ("a 1:0.5\nb \u0661:0.5\n", [], "line 2: non-integer feature index '\u0661'"),
        ("a 1:0.5\nb 1:\uff11.5\n", [], "line 2: non-numeric value '\uff11.5'"),
        ("0.5,a\n1_0,b\n", ["--format", "csv"], "line 2: non-numeric value '1_0' in column 0"),
        ("0.5,a\n\uff11,b\n", ["--format", "csv"],
         "line 2: non-numeric value '\uff11' in column 0"),
        # text the csv module rejects, and a lone \r, which ends no LIBSVM row
        ("0.5,a\n" + "1" * 131073 + ",b\n", ["--format", "csv"],
         "line 2: field larger than field limit (131072)"),
        ("1 1:1\r0 2:2\n1 1:3\n0 2:1\n", [], "line 1: expected index:value pair, got '0'"),
    ], ids=["underscore-index", "underscore-value", "arabic-indic-index", "full-width-value",
            "csv-underscore", "csv-full-width", "csv-field-past-limit", "libsvm-lone-cr"])
    def test_python_only_numeral_is_data_error(self, tmp_path, capsys, text, flags, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        out = str(tmp_path / "o")
        assert main(["train", "--train", str(bad), "--out", out] + flags) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not os.path.exists(out)

    def test_too_wide_test_file_fails_before_training(self, data_files, tmp_path, capsys,
                                                       monkeypatch):
        def no_stage(*args):
            raise AssertionError("a partition stage ran")

        monkeypatch.setattr(pipeline, "_partition_stage", no_stage)
        wide = tmp_path / "wide.svm"
        wide.write_text("0 1:0.5 2:0.5 3:0.5\n")
        out = str(tmp_path / "o")
        assert main(train_args(data_files[0], str(wide), out, ["--reps", "3"])) == 3
        assert capsys.readouterr() == ("", "error: test data has 3 features, model expects 2\n")
        assert not os.path.exists(out)

    def test_scaled_copy_past_memory_is_data_error(self, tmp_path, capsys, monkeypatch):
        # the 2 x 1000 matrix alone fits in 20,000 bytes; with its scaled copy
        # and three column vectors it takes 56,000
        monkeypatch.setattr(data, "_physical_bytes", lambda: 20_000)
        wide = tmp_path / "wide.svm"
        wide.write_text("a 1:1\nb 1000:1\n")
        out = str(tmp_path / "o")
        assert main(["train", "--train", str(wide), "--out", out]) == 3
        assert capsys.readouterr() == ("", (
            "error: line 2: feature index 1000 makes the dense 2 x 1000 matrix 16000 bytes, "
            "more than the 20000 bytes of physical memory once scaled (56000 bytes)\n"))
        assert not os.path.exists(out)

    def test_degenerate_ensemble_exit_code(self, tmp_path, capsys):
        xor = tmp_path / "xor.svm"
        xor.write_text("a 1:0 2:0\na 1:1 2:1\nb 1:0 2:1\nb 1:1 2:0\n")
        code = main(["train", "--train", str(xor), "--out", str(tmp_path / "o"),
                     "--partitions", "1", "--learner", "stump", "--rounds", "5",
                     "--no-filter", "--no-scale", "--beta-mode", "train", "--reps", "1"])
        assert code == 4

    @pytest.mark.parametrize("cause, code", [
        (ValueError("bad rows"), 3),
        (DegenerateEnsembleError("all rounds were skipped"), 4),
    ], ids=["data", "degenerate"])
    def test_partition_error_exit_code(self, data_files, tmp_path, monkeypatch, capsys,
                                       cause, code):
        # without __cause__: the exit code follows the error's own attribute
        def fail(cfg):
            raise PartitionError(2, cause)

        monkeypatch.setattr(cli, "run_training", fail)
        tp, sp = data_files
        assert main(train_args(tp, sp, str(tmp_path / "o"))) == code
        assert capsys.readouterr().err == f"error: partition 2: {cause}\n"

    def test_log_env_var(self, data_files, tmp_path, monkeypatch, capsys):
        tp, sp = data_files
        monkeypatch.setenv("NOISEGATE_LOG", "info")
        assert main(train_args(tp, sp, str(tmp_path / "run"))) == 0


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """learner kind -> (model document, test file) from one small train each;
    the stump model is unscaled, so no scaling bounds pin its n_features."""
    root = tmp_path_factory.mktemp("models")
    train = root / "train.svm"
    test = root / "test.svm"
    train.write_text(dump_libsvm(striped_ring_dataset(240, noise_fraction=0.15, seed=1)))
    test.write_text(dump_libsvm(striped_ring_dataset(100, noise_fraction=0.0, seed=2)))
    models = {}
    for kind, flags in (("tree", []), ("stump", ["--no-scale"]), ("knn", [])):
        out = str(root / kind)
        assert main(train_args(str(train), str(test), out, ["--learner", kind] + flags)) == 0
        with open(os.path.join(out, "model.json")) as fh:
            models[kind] = (json.load(fh), str(test))
    return models


def _first_split(doc):
    """(member index, member) of the first ensemble's first tree whose root splits."""
    for j, m in enumerate(doc["ensembles"][0]["members"]):
        if m["split"][0] == 1:
            return j, m
    raise AssertionError("no tree member splits")


def _tree_leaf_k(doc):
    j, tree = _first_split(doc)
    tree["leaf"][0] = len(doc["label_names"])
    return j


def _tree_feature(doc):
    assert doc["n_features"] == 2
    j, tree = _first_split(doc)
    tree["feature"][0] = 7
    return j


def _tree_nan_threshold(doc):
    j, tree = _first_split(doc)
    tree["threshold"][0] = float("nan")
    return j


def _tree_missing_right(doc):
    # the last node in pre-order is the rightmost leaf
    j, tree = _first_split(doc)
    del tree["split"][-1], tree["leaf"][-1]
    return j


def _tree_extra_leaf(doc):
    j, tree = _first_split(doc)
    tree.update(split=[0, 0], feature=[], threshold=[], leaf=[0, 1])
    return j


def _tree_short_feature(doc):
    j, tree = _first_split(doc)
    tree.update(split=[1, 0, 0], feature=[], threshold=[0.5], leaf=[0, 1])
    return j


def _tree_bool_split(doc):
    j, tree = _first_split(doc)
    tree["split"][0] = True
    return j


def _tree_float_feature(doc):
    j, tree = _first_split(doc)
    tree["feature"][0] = 1.0
    return j


def _tree_string_leaf(doc):
    j, tree = _first_split(doc)
    tree["leaf"][0] = "1"
    return j


def _stump_class_k(doc):
    doc["ensembles"][0]["members"][0]["right"] = len(doc["label_names"])
    return 0


def _stump_feature(doc):
    doc["ensembles"][0]["members"][0]["feature"] = doc["n_features"]
    return 0


def _stump_bool_feature(doc):
    doc["ensembles"][0]["members"][0]["feature"] = True
    return 0


def _stump_bool_threshold(doc):
    doc["ensembles"][0]["members"][0]["threshold"] = True
    return 0


def _tree_string_threshold(doc):
    j, tree = _first_split(doc)
    tree["threshold"][0] = "0.5"
    return j


def _bool_alpha(doc):
    doc["ensembles"][0]["members"][0]["alpha"] = True
    return 0


def _knn_nan_weight(doc):
    doc["ensembles"][0]["members"][0]["weights"][0] = float("nan")
    return 0


def _knn_string_weights(doc):
    weights = doc["ensembles"][0]["members"][-1]["weights"]
    weights[:] = ["0.5"] * len(weights)
    return len(doc["ensembles"][0]["members"]) - 1


def _knn_bool_weight(doc):
    doc["ensembles"][0]["members"][0]["weights"][0] = True
    return 0


def _knn_label_k(doc):
    doc["ensembles"][0]["knn"]["labels"][-1] = len(doc["label_names"])
    return 0


def _knn_width(doc):
    for row in doc["ensembles"][0]["knn"]["refs"]:
        row.append(0.0)
    return 0


# the reference set and the learner kind belong to the ensemble, so these
# faults name no member
def _knn_no_reference(doc):
    del doc["ensembles"][0]["knn"]


def _unknown_kind(doc):
    doc["ensembles"][0]["kind"] = "perceptron"


def _int_kind(doc):
    doc["ensembles"][0]["kind"] = 1


def _list_kind(doc):
    doc["ensembles"][0]["kind"] = ["tree"]


def _knn_float_label(doc):
    doc["ensembles"][0]["knn"]["labels"][0] = 0.7


def _knn_string_label(doc):
    doc["ensembles"][0]["knn"]["labels"][-1] = "1"


def _knn_string_k(doc):
    doc["ensembles"][0]["knn"]["k"] = "1"


def _knn_nan_ref(doc):
    doc["ensembles"][0]["knn"]["refs"][-1][0] = float("nan")


def _knn_string_ref(doc):
    doc["ensembles"][0]["knn"]["refs"][0][1] = "0.5"


def _string_beta(doc):
    doc["ensembles"][0]["beta"] = "0.5"


def _no_members(doc):
    doc["ensembles"][0]["members"] = []


def _int_members(doc):
    doc["ensembles"][0]["members"] = 5


def _infinite_alpha(doc):
    doc["ensembles"][0]["members"][-1]["alpha"] = float("inf")


class TestCorruptMembers:
    @pytest.mark.parametrize("kind, corrupt, message", [
        ("tree", _tree_leaf_k, "tree leaf class 2 is not in [0, 2)"),
        ("tree", _tree_feature, "tree feature 7 is not in [0, 2)"),
        ("tree", _tree_nan_threshold, "tree threshold must be finite"),
        ("tree", _tree_missing_right,
         "tree split mask leaves 1 child slots empty: it is not a pre-order full binary tree"),
        ("tree", _tree_string_leaf, "tree leaf class must be an integer, got '1'"),
        ("stump", _stump_class_k, "stump class 2 is not in [0, 2)"),
        ("stump", _stump_feature, "stump feature 2 is not in [0, 2)"),
        ("stump", _stump_bool_feature, "stump feature must be an integer, got True"),
        ("knn", _knn_label_k, "k-NN reference label 2 is not in [0, 2)"),
        ("knn", _knn_width, "k-NN references have 3 features, not 2"),
        ("knn", _knn_float_label, "k-NN reference label must be an integer, got 0.7"),
        ("knn", _knn_string_label, "k-NN reference label must be an integer, got '1'"),
        ("knn", _knn_string_k, "k-NN k must be an integer, got '1'"),
        ("stump", _stump_bool_threshold, "stump threshold must be a number, got True"),
        ("tree", _tree_string_threshold, "tree threshold must be a number, got '0.5'"),
        ("tree", _bool_alpha, "alpha must be a number, got True"),
        ("tree", _string_beta, "beta must be a number, got '0.5'"),
        ("knn", _knn_nan_weight, "weights must be finite"),
        ("knn", _knn_nan_ref, "k-NN references must be finite"),
        ("knn", _knn_string_ref, "k-NN reference must be a number, got '0.5'"),
        ("tree", _no_members, "ensemble has no members"),
        ("tree", _int_members, "members must be a JSON array, got int"),
        ("stump", _infinite_alpha, "member vote weights must be positive and finite"),
        ("tree", _tree_extra_leaf,
         "tree node 1 has no parent: the split mask is not a pre-order full binary tree"),
        ("tree", _tree_short_feature,
         "tree has 1 split nodes and 2 leaves, but 0 features, 1 thresholds and 2 leaf classes"),
        ("tree", _tree_bool_split, "tree split flag must be an integer, got True"),
        ("tree", _tree_float_feature, "tree feature must be an integer, got 1.0"),
        ("knn", _knn_string_weights, "k-NN weight must be a number, got '0.5'"),
        ("knn", _knn_bool_weight, "k-NN weight must be a number, got True"),
        ("knn", _knn_no_reference, "missing key 'knn'"),
        ("tree", _unknown_kind, "unknown learner kind 'perceptron'"),
        ("stump", _int_kind, "unknown learner kind 1"),
        ("knn", _list_kind, "unknown learner kind ['tree']"),
    ], ids=["tree-leaf", "tree-feature", "tree-nan-threshold", "tree-missing-right",
            "tree-string-leaf", "stump-class", "stump-feature",
            "stump-bool-feature", "knn-label", "knn-width", "knn-float-label",
            "knn-string-label", "knn-string-k", "stump-bool-threshold",
            "tree-string-threshold", "bool-alpha", "string-beta", "knn-nan-weight",
            "knn-nan-ref", "knn-string-ref", "no-members", "int-members", "infinite-alpha",
            "tree-extra-leaf", "tree-short-feature", "tree-bool-split", "tree-float-feature",
            "knn-string-weights", "knn-bool-weight", "knn-no-reference", "unknown-kind",
            "int-kind", "list-kind"])
    def test_evaluate_rejects_member(self, trained_models, tmp_path, capsys, kind, corrupt,
                                     message):
        doc, test = trained_models[kind]
        doc = json.loads(json.dumps(doc))
        member = corrupt(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", "--model", str(path), "--test", test]) == 3
        where = f"partition {doc['ensembles'][0]['partition_id']}"
        if member is not None:
            where += f", member {member}"
        assert capsys.readouterr() == ("", f"error: {where}: {message}\n")


LABELS = "model: label_names must be a JSON array of at least two distinct strings"


class TestCorruptModel:
    @pytest.mark.parametrize("kind, path, where", [
        ("tree", ["label_names"], "model"),
        ("tree", ["n_features"], "model"),
        ("tree", ["ensembles"], "model"),
        ("tree", ["ensembles", 0, "partition_id"], "ensemble 0"),
        ("tree", ["ensembles", 0, "beta"], "partition {pid}"),
        ("tree", ["ensembles", 0, "members"], "partition {pid}"),
        ("stump", ["ensembles", 0, "kind"], "partition {pid}"),
        ("knn", ["ensembles", 0, "knn", "refs"], "partition {pid}"),
    ], ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)))
    def test_evaluate_rejects_missing_key(self, trained_models, tmp_path, capsys, kind, path,
                                          where):
        doc, test = trained_models[kind]
        doc = json.loads(json.dumps(doc))
        pid = doc["ensembles"][0]["partition_id"]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert main(["evaluate", "--model", str(model), "--test", test]) == 3
        where = where.format(pid=pid)
        assert capsys.readouterr() == ("", f"error: {where}: missing key '{path[-1]}'\n")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: [doc], "model: expected a JSON object, got list"),
        (lambda doc: {**doc, "ensembles": [1] + doc["ensembles"]},
         "ensemble 0: expected a JSON object, got int"),
        (lambda doc: {**doc, "ensembles": doc["ensembles"] + [[]]},
         "ensemble {n}: expected a JSON object, got list"),
        (lambda doc: {**doc, "ensembles": 5}, "model: ensembles must be a JSON array, got int"),
    ], ids=["document", "first-entry", "last-entry", "ensembles"])
    def test_evaluate_rejects_non_object(self, trained_models, tmp_path, capsys, corrupt,
                                         message):
        doc, test = trained_models["tree"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(corrupt(doc)))
        assert main(["evaluate", "--model", str(model), "--test", test]) == 3
        message = message.format(n=len(doc["ensembles"]))
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("path, value, message", [
        (["scaling", "mins", 0], float("nan"), "model: scaling bounds must be finite"),
        (["scaling", "maxs", 1], float("inf"), "model: scaling bounds must be finite"),
        (["scaling", "mins", 0], "0.5", "model: scaling mins must be a number, got '0.5'"),
        (["scaling", "mins", 0], 1e9, "model: column min exceeds max"),
        (["scaling", "mins"], [0.0], "model: scaling has 1 mins and 2 maxs for 2 features"),
        (["scaling", "maxs"], [1.0], "model: scaling has 2 mins and 1 maxs for 2 features"),
        (["n_features"], 2.9, "model: n_features must be an integer, got 2.9"),
        (["ensembles", 0, "partition_id"], "7",
         "partition 7: partition_id must be an integer, got '7'"),
        (["label_names"], [0, 1], LABELS),
        (["label_names"], ["0", "0"], LABELS),
        (["label_names"], "01", LABELS),
        (["label_names"], ["0"], LABELS),
        (["provenance"], 5, "model: provenance must be a JSON object, got int"),
        (["provenance"], [1, 2], "model: provenance must be a JSON object, got list"),
        (["provenance"], "ab", "model: provenance must be a JSON object, got str"),
        (["scaling", "mins"], {"0": 0.0}, "model: scaling mins values must be a JSON array"),
        (["version"], 1, "model version 1 is no longer read: retrain the model to write version 4"),
        (["version"], 2, "model version 2 is no longer read: retrain the model to write version 4"),
        (["version"], 3, "model version 3 is no longer read: retrain the model to write version 4"),
    ], ids=["nan-min", "inf-max", "string-min", "min-above-max", "short-mins", "short-maxs",
            "float-n-features", "string-partition-id", "int-label-names",
            "repeated-label-names", "string-label-names", "one-label-name", "int-provenance",
            "list-provenance", "string-provenance", "object-mins", "version-1", "version-2", "version-3"])
    def test_evaluate_rejects_bad_field(self, trained_models, tmp_path, capsys, path, value,
                                        message):
        doc, test = trained_models["tree"]
        doc = json.loads(json.dumps(doc))
        assert doc["n_features"] == 2 and doc["scaling"] is not None
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert main(["evaluate", "--model", str(model), "--test", test]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_width_past_memory_rejected(self, trained_models, tmp_path, capsys, command):
        # padded to this width, the 100 test rows would take 8 TB
        doc, test = trained_models["stump"]
        assert doc["scaling"] is None
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**doc, "n_features": 10 ** 10}))
        flag = {"evaluate": "--test", "predict": "--data"}[command]
        assert main([command, "--model", str(model), flag, test]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith(
            "error: model expects 10000000000 features: a 100 x 10000000000 test matrix "
            "needs more than ")

    @pytest.mark.parametrize("kind", ["tree", "stump"])
    def test_evaluate_rejects_oversized_integer(self, trained_models, tmp_path, capsys, kind):
        # JSON integers have no bound; past 64 bits numpy and float() overflow
        doc, test = trained_models[kind]
        doc = json.loads(json.dumps(doc))
        if kind == "tree":
            j, tree = _first_split(doc)
            tree["feature"][0] = 2 ** 70
        else:
            j = 0
            doc["ensembles"][0]["members"][0]["threshold"] = 10 ** 400
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert main(["evaluate", "--model", str(model), "--test", test]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            f"error: partition {doc['ensembles'][0]['partition_id']}, member {j}: ")


# what a model mutant puts at a path: a value, or "delete" (drop the key or
# element) or "append" (junk at the end of the array, or an array made of it)
MODEL_MUTATIONS = [None, "x", 2 ** 70, -2 ** 70, 10 ** 10, 1e308, 10 ** 400, True, [], {},
                   "delete", "append"]
# what a text mutant inserts or writes over a few bytes with, or deletes them
TEXT_PIECES = [b":", b"\r", b"\n", b"\x0b", b"\x00", "é".encode(), "١".encode(), b"1_0",
               b"1e999", b"nan", b" ", b"\t", b"\xff"]
CSV_PIECES = TEXT_PIECES + [b",", b'"']


def json_paths(doc, path=()):
    """The path of every value below the document's root."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from json_paths(value, path + (key,))


def mutate_model(doc, path, how):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]]
    if how == "delete":
        del parent[path[-1]]
    elif how == "append":
        parent[path[-1]] = (target if isinstance(target, list) else [target]) + ["junk"]
    else:
        parent[path[-1]] = how
    return doc


def mutate_text(rng, text, pieces):
    """text with one to three random inserts, deletes and overwrites."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        end = at if rng.random() < 0.4 else at + rng.randint(1, 3)
        text = text[:at] + (b"" if rng.random() < 0.2 else rng.choice(pieces)) + text[end:]
    return text


class TestBoundaryFuzz:
    """Seeded mutants of model files and data text through the CLI: each ends
    in exit 0, 3 or 4, never in an exception or a warning, and exit 3 prints
    one error line."""

    def run(self, capsys, args, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        err = capsys.readouterr().err
        assert code in (0, 3, 4), what
        if code == 3:
            assert err.startswith("error: ") and err.count("\n") == 1, (what, err)

    @pytest.mark.parametrize("kind", ["tree", "stump", "knn"])
    def test_model_mutants(self, trained_models, tmp_path, capsys, kind):
        doc, test = trained_models[kind]
        rng = random.Random(kind)
        paths = list(json_paths(doc))
        # every top-level field takes every mutation, 60 deeper paths one each
        mutants = [(path, how) for path in paths if len(path) == 1 for how in MODEL_MUTATIONS]
        mutants += [(path, rng.choice(MODEL_MUTATIONS)) for path in rng.sample(paths, 60)]
        model = tmp_path / "model.json"
        for i, (path, how) in enumerate(mutants):
            model.write_text(json.dumps(mutate_model(doc, path, how)))
            command, flag = (("evaluate", "--test"), ("predict", "--data"))[i % 2]
            self.run(capsys, [command, "--model", str(model), flag, test], (path, how))

    @pytest.mark.parametrize("fmt", ["libsvm", "csv"])
    def test_text_mutants(self, tmp_path, capsys, fmt):
        ds = striped_ring_dataset(60, noise_fraction=0.1, seed=3)
        if fmt == "libsvm":
            text, pieces, flags = dump_libsvm(ds).encode(), TEXT_PIECES, []
        else:
            text = "".join(",".join(repr(float(v)) for v in row) + f",{ds.label_names[y]}\n"
                           for row, y in zip(ds.features, ds.labels)).encode()
            pieces, flags = CSV_PIECES, ["--format", "csv"]
        rng = random.Random(fmt)
        mutants = [mutate_text(rng, text, pieces) for _ in range(150)]
        if fmt == "csv":
            # a cell past the csv module's field limit, and a quoted line break
            lines = text.splitlines(True)
            mutants += [lines[0] + b"1" * 131_073 + b",a\n" + b"".join(lines[1:]),
                        lines[0] + b'"0.5\n1",2,a\n' + b"".join(lines[1:])]
        data_file = tmp_path / "data.txt"
        for mutant in mutants:
            data_file.write_bytes(mutant)
            self.run(capsys, ["gini-scan", "--train", str(data_file), "--out",
                              str(tmp_path / "scan"), "--partitions", "2",
                              "--grid-step", "0.5"] + flags, mutant[:200])
