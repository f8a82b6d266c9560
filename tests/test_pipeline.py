import os
import weakref

import numpy as np
import pytest

from noisegate import ensemble, pipeline
from noisegate.data import Dataset, Partition, dump_libsvm, parse_libsvm
from noisegate.data import partition as make_partitions
from noisegate.ensemble import (
    DegenerateEnsembleError,
    GlobalModel,
    LearnerConfig,
    adaboost_train,
    compute_beta,
    ensemble_predict_batch,
    global_predict_batch,
    load_model,
)
from noisegate.pipeline import (
    PartitionError,
    RunConfig,
    derive_seed,
    evaluate,
    gini_scan,
    predict_labels,
    run_training,
    _STREAM_BOOST,
    _STREAM_HOLDOUT,
    _STREAM_PARTITION,
    _boostable_split,
    _holdout_split,
)
from noisegate.noise_filter import FilterResult, scan_split_percentage, split_by_score
from noisegate.synthetic import (
    ring_noise_dataset,
    striped_ring_dataset,
    uniform_multiclass_dataset,
)


def write_dataset(path, ds):
    with open(path, "w") as fh:
        fh.write(dump_libsvm(ds))
    return str(path)


# filter settings RunConfig.validate rejects, with the error they raise
BAD_FILTER_SETTINGS = {
    "nu=0": ({"nu": 0.0}, "nu must be in"),
    "nu=1.5": ({"nu": 1.5}, "nu must be in"),
    "nu=nan": ({"nu": float("nan")}, "nu must be in"),
    "gamma=0": ({"gamma": 0.0}, "gamma > 0"),
    "gamma=nan": ({"gamma": float("nan")}, "gamma > 0"),
    "gamma=inf": ({"gamma": float("inf")}, "gamma > 0"),
    "linear-with-gamma": ({"kernel": "linear", "gamma": 0.5}, "only meaningful"),
    "grid_step=0": ({"grid_step": 0.0}, "grid step"),
    "grid_step=1": ({"grid_step": 1.0}, "grid step"),
    "grid_step=1-1e-10": ({"grid_step": 1 - 1e-10}, "grid step"),
}


@pytest.fixture
def small_cfg(tmp_path):
    train = striped_ring_dataset(240, noise_fraction=0.15, seed=1)
    test = striped_ring_dataset(100, noise_fraction=0.0, seed=2)
    return RunConfig(
        train_path=write_dataset(tmp_path / "train.svm", train),
        output_dir=str(tmp_path / "out"),
        test_path=write_dataset(tmp_path / "test.svm", test),
        partitions=4,
        grid_step=0.4,
        learner=LearnerConfig("stump"),
        rounds=10,
        seed=3,
        repetitions=2,
    )


def ranked_filter(part, labels, grid):
    """The filter's result when the scores rank the partition by index."""
    scores = -part.indices.astype(np.float64)
    best_p, scan = scan_split_percentage(labels[part.indices], scores, grid)
    clean, noisy = split_by_score(part.indices, scores, best_p)
    return FilterResult(clean, noisy, best_p, scan, scores)


def minority_lost_to_holdout_labels(holdout_seed):
    """20 labels: at p=0.5 the clean side (rows 0-9) holds one class-1 row,
    placed where the holdout draws it; p=0.75 keeps four class-1 rows."""
    labels = np.zeros(20, dtype=np.int64)
    labels[_holdout_split(10, "holdout", holdout_seed)[1][0]] = 1
    labels[10:] = [1, 0] * 5
    return labels


class TestBoostableSplit:
    def test_chance_pure_clean_side_ranks_behind_mixed_ones(self):
        # the two top-ranked rows are both class 0: at p=0.1 the clean side is
        # pure and scores ratio 0, the scan's pick, but cannot be boosted
        labels = np.array([0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1])
        part = Partition(np.arange(20), 0)
        fr = ranked_filter(part, labels, [0.1, 0.5, 0.9])
        assert fr.chosen_p == 0.1 and fr.scan[0].gini_clean == 0.0
        clean, pt = _boostable_split(part, fr, labels, "train", 0)
        assert pt == min(fr.scan[1:], key=lambda q: (q.ratio, -q.p))
        assert np.array_equal(clean, split_by_score(part.indices, fr.scores, pt.p)[0])

    def test_mixed_clean_side_beats_pure_one_even_with_pure_noisy_side(self):
        labels = np.array([0, 0, 0, 1, 2])
        part = Partition(np.arange(5), 0)
        fr = ranked_filter(part, labels, [0.6, 0.8])
        assert fr.chosen_p == 0.6 and np.isinf(fr.scan[1].ratio)
        assert _boostable_split(part, fr, labels, "train", 0)[1].p == 0.8

    def test_scan_pick_stands_when_no_cut_can_be_boosted(self):
        labels = np.array([0, 0, 0, 1, 2])
        part = Partition(np.arange(5), 0)
        fr = ranked_filter(part, labels, [0.2, 0.4, 0.6])
        clean, pt = _boostable_split(part, fr, labels, "train", 0)
        assert pt.p == fr.chosen_p == 0.6
        assert np.array_equal(clean, fr.clean_indices)

    def test_holdout_taking_the_only_minority_row_moves_the_cut(self):
        labels = minority_lost_to_holdout_labels(holdout_seed=5)
        part = Partition(np.arange(20), 0)
        fr = ranked_filter(part, labels, [0.5, 0.75])
        assert fr.chosen_p == 0.5
        # without a holdout the scan's pick is boostable ...
        assert _boostable_split(part, fr, labels, "train", 5)[1].p == 0.5
        # ... with it, the boosted rows of that cut are all class 0
        clean, pt = _boostable_split(part, fr, labels, "holdout", 5)
        assert pt.p == 0.75
        boosted = clean[_holdout_split(len(clean), "holdout", 5)[0]]
        assert np.unique(labels[boosted]).size == 2

    def test_training_survives_a_holdout_that_takes_the_only_minority_row(
            self, tmp_path, monkeypatch):
        seed = 4
        labels = minority_lost_to_holdout_labels(derive_seed(seed, _STREAM_HOLDOUT, 0))
        ds = Dataset.from_arrays(np.arange(20.0).reshape(-1, 1), labels)
        monkeypatch.setattr(
            pipeline, "filter_partition",
            lambda part, data, nu, kernel, grid: ranked_filter(part, data.labels, grid),
        )
        cfg = RunConfig(
            train_path=write_dataset(tmp_path / "train.svm", ds),
            output_dir=str(tmp_path / "out"),
            partitions=1,
            grid_step=0.25,
            learner=LearnerConfig("stump"),
            rounds=3,
            seed=seed,
            repetitions=1,
        )
        # labels parse in order of first appearance, so class ids may swap
        scan = ranked_filter(Partition(np.arange(20), 0), labels, [0.25, 0.5, 0.75]).scan
        assert min(scan, key=lambda q: (q.ratio, -q.p)).p != 0.75
        _, report = run_training(cfg)
        summary = report.repetitions[0].partitions[0]
        assert summary.chosen_p == 0.75
        assert summary.retained == 15


class TestRunTraining:
    def test_chance_pure_clean_side_is_not_chosen(self, tmp_path):
        # partition 19 of this split has a clean side that is pure by chance at
        # p=0.05; choosing it used to fail boosting with a single-class error
        cfg = RunConfig(
            train_path=write_dataset(tmp_path / "train.svm",
                                     striped_ring_dataset(n=10_000, seed=1)),
            output_dir=str(tmp_path / "out"),
            partitions=20,
            learner=LearnerConfig("stump"),
            rounds=5,
            seed=7,
            repetitions=1,
        )
        _, report = run_training(cfg)
        for summary in report.repetitions[0].partitions:
            assert summary.gini_clean > 0

    def test_smoke_report_structure(self, small_cfg):
        model, report = run_training(small_cfg)
        assert report.mean_accuracy is not None
        assert 0.0 <= report.mean_accuracy <= 1.0
        assert len(report.repetitions) == 2
        for rep in report.repetitions:
            assert len(rep.partitions) == 4
        for name in ("model.json", "report.json", "timings.json"):
            assert os.path.exists(os.path.join(small_cfg.output_dir, name))

    def test_report_accounting(self, small_cfg):
        _, report = run_training(small_cfg)
        for rep in report.repetitions:
            total = sum(p.retained + p.removed for p in rep.partitions)
            assert total == 240

    def test_confusion_row_sums(self, small_cfg):
        _, report = run_training(small_cfg)
        test = parse_libsvm(open(small_cfg.test_path).read())
        counts = np.bincount(test.labels, minlength=test.K)
        # row sums equal test class counts times repetitions
        assert np.array_equal(report.confusion.sum(axis=1), counts * 2)

    def test_filtering_off_is_identity(self, small_cfg):
        small_cfg.filtering = False
        _, report = run_training(small_cfg)
        for rep in report.repetitions:
            for p in rep.partitions:
                assert p.chosen_p == 1.0
                assert p.removed == 0
                assert p.gini_noisy is None

    def test_filtering_off_matches_manual_construction(self, small_cfg):
        small_cfg.filtering = False
        small_cfg.scaling = False
        small_cfg.repetitions = 1
        model, _ = run_training(small_cfg)
        # rebuild the same model without any filter machinery
        train = parse_libsvm(open(small_cfg.train_path).read())
        parts = make_partitions(train, 4, derive_seed(3, _STREAM_PARTITION))
        ensembles = []
        for part in parts:
            X = train.rows(part.indices)
            y = train.labels[part.indices]
            n = part.size
            n_hold = max(1, int(np.floor(0.2 * n + 0.5)))
            order = np.random.default_rng(
                derive_seed(3, _STREAM_HOLDOUT, part.partition_id)
            ).permutation(n)
            hold, tr = order[:n_hold], order[n_hold:]
            E = adaboost_train(
                X[tr], y[tr], 10, LearnerConfig("stump"),
                seed=derive_seed(3, _STREAM_BOOST, part.partition_id),
                n_classes=train.K, partition_id=part.partition_id,
            )
            compute_beta(E, X[hold], y[hold])
            ensembles.append(E)
        manual = GlobalModel(ensembles, train.label_names, None, {}, train.d)
        probes = np.random.default_rng(0).uniform(-1, 1, size=(300, 2))
        assert np.array_equal(
            global_predict_batch(model, probes), global_predict_batch(manual, probes)
        )

    def test_deterministic_reports(self, small_cfg, tmp_path):
        run_training(small_cfg)
        first = open(os.path.join(small_cfg.output_dir, "report.json"), "rb").read()
        first_model = open(os.path.join(small_cfg.output_dir, "model.json"), "rb").read()
        small_cfg.output_dir = str(tmp_path / "out2")
        run_training(small_cfg)
        assert open(os.path.join(small_cfg.output_dir, "report.json"), "rb").read() == first
        assert open(os.path.join(small_cfg.output_dir, "model.json"), "rb").read() == first_model

    def test_test_rows_scaled_once(self, small_cfg, monkeypatch):
        # every repetition's model has the training data's width and scaling
        scale, scaled = pipeline.apply_scale, []

        def counted(spec, data):
            scaled.append(data.n)
            return scale(spec, data)

        monkeypatch.setattr(pipeline, "apply_scale", counted)
        small_cfg.repetitions = 3
        _, report = run_training(small_cfg)
        assert scaled == [100]
        assert [r.accuracy is not None for r in report.repetitions] == [True] * 3

    def test_unreadable_file_fails_before_compute(self, small_cfg):
        small_cfg.train_path = "/nonexistent/never.svm"
        with pytest.raises(OSError):
            run_training(small_cfg)

    def test_single_class_training_rejected(self, tmp_path):
        cfg = RunConfig(
            train_path=write_dataset(tmp_path / "t.svm", ring_noise_dataset(40, 0.0, seed=0)),
            output_dir=str(tmp_path / "out"),
            partitions=2,
            repetitions=1,
        )
        with pytest.raises(ValueError, match="single class"):
            run_training(cfg)

    def test_degenerate_partition_carries_context(self, tmp_path):
        # exact XOR with stumps: every split ties, every round is skipped
        xor = parse_libsvm("a 1:0 2:0\na 1:1 2:1\nb 1:0 2:1\nb 1:1 2:0")
        cfg = RunConfig(
            train_path=write_dataset(tmp_path / "xor.svm", xor),
            output_dir=str(tmp_path / "out"),
            partitions=1,
            learner=LearnerConfig("stump"),
            rounds=5,
            filtering=False,
            scaling=False,
            beta_mode="train",
            repetitions=1,
        )
        with pytest.raises(PartitionError) as err:
            run_training(cfg)
        assert err.value.partition_id == 0
        assert isinstance(err.value.__cause__, DegenerateEnsembleError)

    def test_validation_errors(self, small_cfg):
        small_cfg.partitions = 0
        with pytest.raises(ValueError):
            run_training(small_cfg)

    def test_unknown_kernel_kind_rejected(self, small_cfg):
        small_cfg.kernel = "poly"
        with pytest.raises(ValueError, match="kernel"):
            run_training(small_cfg)

    @pytest.mark.parametrize("settings, message", BAD_FILTER_SETTINGS.values(),
                             ids=BAD_FILTER_SETTINGS.keys())
    @pytest.mark.parametrize("run", [run_training, gini_scan], ids=["train", "gini_scan"])
    def test_bad_filter_setting_rejected_before_reading(self, tmp_path, run, settings, message):
        cfg = RunConfig("/nonexistent/never.svm", str(tmp_path / "out"), **settings)
        with pytest.raises(ValueError, match=message):
            run(cfg)
        assert not os.path.exists(cfg.output_dir)

    @pytest.mark.parametrize("settings, message", [
        ({"max_depth": 0}, "max_depth must be >= 1, got 0"),
        ({"k_candidates": 0}, "k_candidates must be >= 1, got 0"),
        ({"kind": "knn", "knn_k": 0}, "knn_k must be >= 1, got 0"),
    ], ids=["max_depth", "k_candidates", "knn_k"])
    def test_bad_learner_setting_rejected_before_reading(self, tmp_path, settings, message):
        # a read would raise FileNotFoundError, not ValueError
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_training(RunConfig("/nonexistent/never.svm", str(tmp_path / "out"),
                                   learner=LearnerConfig(**settings)))
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("beta_mode", ["holdout", "train"])
    def test_beta_measured_once_per_partition(self, small_cfg, monkeypatch, beta_mode):
        calls = []

        def counted(E, X, y):
            calls.append(E.partition_id)
            return compute_beta(E, X, y)

        def unexpected(*args):
            raise AssertionError("adaboost_train measured beta")

        monkeypatch.setattr(pipeline, "compute_beta", counted)
        monkeypatch.setattr(ensemble, "compute_beta", unexpected)
        small_cfg.beta_mode = beta_mode
        run_training(small_cfg)
        assert sorted(calls) == sorted(list(range(4)) * 2)

    def test_train_mode_beta_is_boosted_row_accuracy(self, small_cfg, monkeypatch):
        boosted = []

        def recording(X, y, *args, **kwargs):
            E = adaboost_train(X, y, *args, **kwargs)
            boosted.append((E, X, y))
            return E

        monkeypatch.setattr(pipeline, "adaboost_train", recording)
        small_cfg.beta_mode = "train"
        small_cfg.repetitions = 1
        _, report = run_training(small_cfg)
        assert len(boosted) == 4
        for (E, X, y), summary in zip(boosted, report.repetitions[0].partitions):
            assert E.beta == (ensemble_predict_batch(E, X) == y).mean()
            assert summary.beta == E.beta


class TestEvaluate:
    def test_clean_holdout_accuracy(self, small_cfg):
        model, _ = run_training(small_cfg)
        result = evaluate(
            os.path.join(small_cfg.output_dir, "model.json"), small_cfg.test_path
        )
        assert result["accuracy"] >= 0.9  # clean striped sample, stump boosting

    def test_hand_built_accuracy(self, tmp_path, small_cfg):
        run_training(small_cfg)
        model_path = os.path.join(small_cfg.output_dir, "model.json")
        model = load_model(model_path)
        # craft 4 rows whose predictions are known from the model itself
        probes = np.array([[0.8, 0.8], [-0.8, -0.8], [0.7, 0.6], [-0.5, -0.9]])
        probe_path = tmp_path / "probes.svm"
        probe_path.write_text(
            "\n".join(f"0 1:{float(r[0])!r} 2:{float(r[1])!r}" for r in probes) + "\n"
        )
        tokens = predict_labels(model_path, str(probe_path))
        wrong = next(t for t in model.label_names if t != tokens[3])
        lines = [
            f"{tok} 1:{float(row[0])!r} 2:{float(row[1])!r}" for row, tok in zip(probes[:3], tokens[:3])
        ]
        lines.append(f"{wrong} 1:{float(probes[3][0])!r} 2:{float(probes[3][1])!r}")
        test_path = tmp_path / "hand.svm"
        test_path.write_text("\n".join(lines) + "\n")
        result = evaluate(model_path, str(test_path))
        assert result["accuracy"] == pytest.approx(0.75)

    def test_empty_test_file(self, small_cfg, tmp_path):
        run_training(small_cfg)
        empty = tmp_path / "empty.svm"
        empty.write_text("")
        with pytest.raises(ValueError, match="no instances"):
            evaluate(os.path.join(small_cfg.output_dir, "model.json"), str(empty))

    def test_unseen_labels_counted_wrong(self, small_cfg, tmp_path):
        model, _ = run_training(small_cfg)
        test_path = tmp_path / "unseen.svm"
        test_path.write_text("martian 1:0.5 2:0.5\n0 1:-0.9 2:-0.9\n")
        result = evaluate(os.path.join(small_cfg.output_dir, "model.json"), str(test_path))
        assert result["unseen_test_labels"] == {"martian": 1}
        assert result["accuracy"] <= 0.5

    def test_dimension_guard(self, small_cfg, tmp_path):
        model, _ = run_training(small_cfg)
        test_path = tmp_path / "wide.svm"
        test_path.write_text("0 1:1 2:1 3:1\n")
        with pytest.raises(ValueError, match="features"):
            evaluate(os.path.join(small_cfg.output_dir, "model.json"), str(test_path))

    def test_narrow_test_padded(self, small_cfg, tmp_path):
        model, _ = run_training(small_cfg)
        test_path = tmp_path / "narrow.svm"
        test_path.write_text("0 1:-0.9\n")  # only feature 1 present
        result = evaluate(os.path.join(small_cfg.output_dir, "model.json"), str(test_path))
        assert result["n_test"] == 1

    @pytest.mark.parametrize("call", [evaluate, predict_labels])
    def test_unknown_format_rejected_before_reading(self, small_cfg, tmp_path, call):
        run_training(small_cfg)
        model_path = os.path.join(small_cfg.output_dir, "model.json")
        # a LIBSVM file under format="CSV" used to be read as LIBSVM
        with pytest.raises(ValueError, match="unknown format 'CSV'"):
            call(model_path, small_cfg.test_path, format="CSV")
        with pytest.raises(ValueError, match="unknown format 'CSV'"):
            call(model_path, str(tmp_path / "missing.svm"), format="CSV")

    @pytest.mark.parametrize("call", [evaluate, predict_labels])
    @pytest.mark.parametrize("narrow", [False, True], ids=["full-width", "padded"])
    def test_vote_sees_only_the_scaled_features(self, small_cfg, tmp_path, monkeypatch,
                                                call, narrow):
        run_training(small_cfg)
        test_path = small_cfg.test_path
        if narrow:  # only feature 1 of 2: padded before scaling
            test_path = str(tmp_path / "narrow.svm")
            with open(test_path, "w") as fh:
                fh.write("0 1:-0.9\n1 1:0.4\n")
        earlier = []  # the parsed features, and the padded ones
        parse, scale, vote = pipeline._parse, pipeline.apply_scale, pipeline.global_predict_batch

        def tracked_parse(*args):
            data = parse(*args)
            earlier.append(weakref.ref(data.features))
            return data

        def tracked_scale(spec, data):
            earlier.append(weakref.ref(data.features))
            return scale(spec, data)

        def checked_vote(model, X):
            assert len(earlier) == 2
            assert [ref() for ref in earlier] == [None] * len(earlier)
            return vote(model, X)

        monkeypatch.setattr(pipeline, "_parse", tracked_parse)
        monkeypatch.setattr(pipeline, "apply_scale", tracked_scale)
        monkeypatch.setattr(pipeline, "global_predict_batch", checked_vote)
        call(os.path.join(small_cfg.output_dir, "model.json"), test_path)

    @pytest.mark.parametrize("d", [2, 1])
    def test_scaled_features_are_column_major(self, small_cfg, d):
        model, _ = run_training(small_cfg)
        rng = np.random.default_rng(d)
        test = Dataset.from_arrays(rng.normal(size=(30, d)), np.zeros(30))
        features = pipeline._fit_to_model(test, model.n_features, model.scaling).features
        assert features.flags.f_contiguous
        assert np.array_equal(global_predict_batch(model, features),
                              global_predict_batch(model, np.ascontiguousarray(features)))


class TestPredict:
    def test_labels_decoded_to_tokens(self, small_cfg):
        run_training(small_cfg)
        labels = predict_labels(
            os.path.join(small_cfg.output_dir, "model.json"), small_cfg.test_path
        )
        assert len(labels) == 100
        assert set(labels) <= {"0", "1"}


class TestGiniScan:
    def test_writes_per_partition_and_aggregate(self, tmp_path):
        ds = ring_noise_dataset(100, 0.1, seed=3)
        path = write_dataset(tmp_path / "d.svm", ds)
        out = gini_scan(RunConfig(path, str(tmp_path / "scan"), nu=0.5, gamma=0.5,
                                  partitions=2, seed=0, scaling=False))
        assert len(out["partition_csvs"]) == 2
        for p in out["partition_csvs"]:
            header = open(p).readline().strip()
            assert header == "p,gini_clean,gini_noisy,ratio"
        agg_lines = open(out["aggregate_csv"]).read().strip().split("\n")
        assert agg_lines[0] == "p,gini_clean,gini_noisy,ratio,gini_full"
        assert len(agg_lines) == 20  # header + 19 grid points

    def test_unknown_kernel_kind_rejected(self, tmp_path):
        path = write_dataset(tmp_path / "d.svm", ring_noise_dataset(40, 0.1, seed=3))
        with pytest.raises(ValueError, match="kernel"):
            gini_scan(RunConfig(path, str(tmp_path / "scan"), kernel="poly", partitions=2))

    def test_single_class_rejected_before_writing(self, tmp_path):
        # as train rejects it: no partition of one class has an impurity to scan
        ds = ring_noise_dataset(60, 0.0, seed=1)
        path = write_dataset(tmp_path / "one.svm", ds)
        out = tmp_path / "scan"
        with pytest.raises(ValueError, match="single class"):
            gini_scan(RunConfig(path, str(out), partitions=2, seed=0, scaling=False))
        assert not out.exists()

    def test_uniform_26_class_full_impurity(self, tmp_path):
        ds = uniform_multiclass_dataset(n_per_class=8, n_classes=26, seed=0)
        path = write_dataset(tmp_path / "m.svm", ds)
        out = gini_scan(RunConfig(path, str(tmp_path / "scan"), partitions=1, seed=0,
                                  scaling=False))
        assert out["mean_full_gini"] == pytest.approx(1 - 1 / 26, abs=1e-9)

    def test_planted_outlier_ratio_dips_at_inlier_rate(self, tmp_path):
        ds = ring_noise_dataset(200, 0.1, seed=5)
        path = write_dataset(tmp_path / "r.svm", ds)
        out = gini_scan(RunConfig(path, str(tmp_path / "scan"), nu=0.5, gamma=0.5,
                                  partitions=1, seed=0, scaling=False))
        # the single dominant class keeps the clean side pure at many cuts,
        # so honor the scan's own tie rule rather than a naive argmin
        assert abs(out["modal_best_p"] - 0.9) <= 0.05 + 1e-9

    def test_prints_nothing(self, tmp_path, capsys):
        ds = ring_noise_dataset(100, 0.1, seed=3)
        path = write_dataset(tmp_path / "d.svm", ds)
        gini_scan(RunConfig(path, str(tmp_path / "scan"), nu=0.5, gamma=0.5,
                            partitions=2, seed=0, scaling=False))
        assert capsys.readouterr().out == ""

    def test_modal_best_p(self, tmp_path):
        ds = ring_noise_dataset(200, 0.1, seed=6)
        path = write_dataset(tmp_path / "r2.svm", ds)
        out = gini_scan(RunConfig(path, str(tmp_path / "scan"), nu=0.5, gamma=0.5,
                                  partitions=2, seed=1, scaling=False))
        assert out["modal_best_p"] in out["best_p_per_partition"]


class TestLibraryOutput:
    def test_library_calls_write_nothing_to_stdout_or_stderr(self, small_cfg, tmp_path,
                                                             capfd):
        # file-descriptor capture also sees output that bypasses sys.stdout
        model_path = os.path.join(small_cfg.output_dir, "model.json")
        calls = {
            "run_training": lambda: run_training(small_cfg),
            "evaluate": lambda: evaluate(model_path, small_cfg.test_path),
            "predict_labels": lambda: predict_labels(model_path, small_cfg.test_path),
            "gini_scan": lambda: gini_scan(RunConfig(
                small_cfg.train_path, str(tmp_path / "scan"), partitions=2, grid_step=0.4)),
        }
        capfd.readouterr()
        for name, call in calls.items():
            call()
            assert capfd.readouterr() == ("", ""), name


class TestEndToEndDirection:
    def test_filtering_helps_on_planted_noise(self, tmp_path):
        # small version of the paired comparison; the acceptance suite runs
        # the full-size one
        train = striped_ring_dataset(600, noise_fraction=0.2, seed=1)
        test = striped_ring_dataset(600, noise_fraction=0.0, seed=2)
        tp = write_dataset(tmp_path / "tr.svm", train)
        sp = write_dataset(tmp_path / "te.svm", test)
        accs = {}
        for filt in (True, False):
            cfg = RunConfig(
                train_path=tp, output_dir=str(tmp_path / f"out{filt}"), test_path=sp,
                partitions=4, grid_step=0.4, learner=LearnerConfig("stump"),
                rounds=30, seed=5, filtering=filt, repetitions=5,
            )
            _, report = run_training(cfg)
            accs[filt] = np.array([r.accuracy for r in report.repetitions])
        assert (accs[True] >= accs[False]).sum() >= 3
