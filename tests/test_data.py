import numpy as np
import pytest

from noisegate import data
from noisegate.data import (
    Dataset,
    ParseError,
    Partition,
    ScalingSpec,
    apply_scale,
    dataset_stats,
    dump_libsvm,
    min_max_scale,
    parse_csv,
    parse_libsvm,
    partition,
)


def assert_same_dataset(a, b):
    assert a.label_names == b.label_names
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.features, b.features)


class TestParseLibsvm:
    def test_basic(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0")
        assert (ds.n, ds.d, ds.K) == (2, 3, 2)
        assert np.array_equal(ds.features, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert ds.label_names == ["+1", "-1"]
        assert list(ds.labels) == [0, 1]

    def test_empty_stream(self):
        with pytest.raises(ParseError, match="no instances"):
            parse_libsvm("")

    def test_non_increasing_indices(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("1 2:1 1:1")

    def test_duplicate_index_rejected(self):
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_libsvm("1 2:1 2:3")

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("1 1:1\n1 1:abc")

    def test_bad_pair(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 notapair")

    def test_empty_lines_skipped(self):
        ds = parse_libsvm("\n1 1:1\n\n2 1:2\n\n")
        assert ds.n == 2

    def test_label_only_line_is_zero_row(self):
        ds = parse_libsvm("a 2:1\nb")
        assert ds.n == 2
        assert np.count_nonzero(ds.features[1]) == 0

    def test_first_appearance_label_order(self):
        ds = parse_libsvm("z 1:1\na 1:1\nz 1:1")
        assert ds.label_names == ["z", "a"]
        assert list(ds.labels) == [0, 1, 0]

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_rejected(self, token):
        with pytest.raises(ParseError, match=f"line 2: non-finite value '{token}'"):
            parse_libsvm(f"1 1:1\n1 1:{token}")

    def test_dense_footprint_over_physical_memory(self):
        # index 5e12 on line 2 sets d; 2 x 5e12 float64 cells need 8e13 bytes
        with pytest.raises(ParseError, match="80000000000000 bytes") as err:
            parse_libsvm("1 1:1\n0 5000000000000:1")
        assert err.value.line == 2
        assert str(err.value).startswith("line 2: feature index 5000000000000")
        # an index too large for a 64-bit integer fails the same check
        with pytest.raises(ParseError, match="feature index 18446744073709551616 ") as err:
            parse_libsvm("1 1:1\n0 2:1 18446744073709551616:1\n1 3:1")
        assert err.value.line == 2

    @pytest.mark.parametrize("pair, message", [
        ("1_0:0.5", "non-integer feature index '1_0'"),
        ("1:1_000", "non-numeric value '1_000'"),
        ("\u0661:0.5", "non-integer feature index '\u0661'"),
        ("1:\uff11.5", "non-numeric value '\uff11.5'"),
    ], ids=["underscore-index", "underscore-value", "arabic-indic-index", "full-width-value"])
    def test_python_only_numerals_rejected(self, pair, message):
        # int and float read these as 10, 1000, 1 and 1.5
        with pytest.raises(ParseError) as err:
            parse_libsvm(f"a 1:0.5\na {pair}\n")
        assert str(err.value) == f"line 2: {message}"

    def test_features_are_dense_float64(self):
        ds = parse_libsvm("1 2:1\n2 1:3")
        assert type(ds.features) is np.ndarray and ds.features.dtype == np.float64


def line_loop(text):
    """The line loop alone, as parse_libsvm falls back to it."""
    return data._assemble(*data._scan_lines(text))


def assert_parses_like_line_loop(text) -> bool:
    """parse_libsvm(text) and the line loop give bit-equal Datasets, or the
    same ParseError message and line. Returns whether the text parsed."""
    try:
        want = line_loop(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_libsvm(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return False
    got = parse_libsvm(text)
    assert got.features.shape == want.features.shape
    assert np.array_equal(got.features.view(np.uint64), want.features.view(np.uint64))
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)
    assert got.label_names == want.label_names
    return True


def bench_style_text(rng, n, extra_columns=0):
    """Lines as the benchmark writes them: two Gaussian columns, then sparse
    log-normal ones, every value in %.6g."""
    lines = []
    for label, (x0, x1) in zip(rng.integers(0, 2, n), rng.normal(scale=3.0, size=(n, 2))):
        pairs = [f"1:{x0:.6g}", f"2:{x1:.6g}"]
        for c in np.flatnonzero(rng.random(extra_columns) < 0.05):
            pairs.append(f"{c + 3}:{rng.lognormal(0.0, 1.5):.6g}")
        lines.append(f"{label} " + " ".join(pairs))
    return "\n".join(lines) + "\n"


MALFORMED = [
    # the inputs of TestParseLibsvm's error cases
    "",
    "1 2:1 1:1",
    "1 2:1 2:3",
    "1 1:1\n1 1:abc",
    "1 notapair",
    "1 1:1\n1 1:nan",
    "1 1:1\n1 1:inf",
    "1 1:1\n1 1:-inf",
    "1 1:1\n1 1:1e999",
    "1 1:1\n0 5000000000000:1",
    "1 1:1\n0 2:1 18446744073709551616:1\n1 3:1",
    # and the faults the fast path checks for itself
    "\n\n \n",
    "1:1 2:2",
    "a 1:1\nb:2 1:1",
    "1 0:1",
    "1 -1:2",
    "1 1.0:2",
    "1 1e1:2",
    "1 1:",
    "1 :1",
    "1 1::2",
    "1 1:2:3",
    "1 1:2 3",
    "1 1:-",
    "1 1:1e",
    "1 1:1..2",
    "1 1:1-2",
    "1 1:0x10",
    "1 9007199254740993:1",
    "1 9007199254740992:1 9007199254740993:1",
    # a lone carriage return does not end a row
    "1 1:1\r2 2:2",
    # numerals that int and float accept but LIBSVM does not
    "1 1:1_0",
    "1 \u0661:1",
    "1 1:\u0661",
]
# the line loop reads these; the fast path declines them
FALLBACK = [
    "1 +1:2",
    "1 1:1\x0b2:1",
    "1 1:1e5\u20032:2",
]
VALID = [
    "+1 1:0.5 3:2.0\n-1 2:1.0",
    "\n1 1:1\n\n2 1:2\n\n",
    "a 2:1\nb",
    "z 1:1\na 1:1\nz 1:1",
    "1 2:1\n2 1:3",
    "1\t1:1\t 2:-.5e+3 \n2\x0b1:1e-320",
    "\u00e9t\u00e9 01:1 002:+2.",
    "1 1:1\n\u0661 2:2",
    # CRLF line ends, with label-only and blank lines; a carriage return
    # between pairs is a blank, as the line loop reads it
    "1 1:1\r\n2 2:2\r\n",
    "1\r\n\r\n2 1:3 \r\n\r\n",
    "1 1:1\r2:1\r\n",
]


def no_line_loop(text):
    raise AssertionError("parse_libsvm fell back to the line loop")


class TestFastPathMatchesLineLoop:
    @pytest.mark.parametrize("text", MALFORMED + FALLBACK + VALID)
    def test_listed_inputs(self, text):
        assert assert_parses_like_line_loop(text) == (text not in MALFORMED)
        assert (data._scan_blocks(text) is not None) == (text in VALID)

    @pytest.mark.parametrize("block_chars", [data._PARSE_BLOCK_CHARS, 200])
    def test_mutants_of_a_valid_file(self, monkeypatch, block_chars):
        monkeypatch.setattr(data, "_PARSE_BLOCK_CHARS", block_chars)
        rng = np.random.default_rng(block_chars)
        base = bench_style_text(rng, 30, extra_columns=6)
        chars = "0123456789.:eE+-\t\n_"
        tokens = list(chars) + ["nan", "1e999", "\u0661", "\x0b"]
        parsed = fast = 0
        n_mutants = 2000 if block_chars == data._PARSE_BLOCK_CHARS else 250
        for _ in range(n_mutants):
            text = base
            for _ in range(int(rng.integers(1, 3))):
                op = int(rng.integers(3))
                if op == 0:
                    pos = int(rng.integers(len(text) + 1))
                    text = text[:pos] + tokens[int(rng.integers(len(tokens)))] + text[pos:]
                    continue
                spots = [i for i, c in enumerate(text) if c in chars]
                i = spots[int(rng.integers(len(spots)))]
                # delete the character, or write it twice
                text = text[:i] + text[i + 1:] if op == 1 else text[:i + 1] + text[i:]
            parsed += assert_parses_like_line_loop(text)
            fast += data._scan_blocks(text) is not None
        # the mutants reach both outcomes, and the fast path takes a share
        assert 0.2 * n_mutants < fast <= parsed < n_mutants

    @pytest.mark.parametrize("block_chars", [data._PARSE_BLOCK_CHARS, 4096])
    def test_bench_style_text_needs_no_fallback(self, monkeypatch, block_chars):
        text = bench_style_text(np.random.default_rng(5), 3000, extra_columns=98)
        want = line_loop(text)
        monkeypatch.setattr(data, "_scan_lines", no_line_loop)
        monkeypatch.setattr(data, "_PARSE_BLOCK_CHARS", block_chars)
        got = parse_libsvm(text)
        assert np.array_equal(got.features.view(np.uint64), want.features.view(np.uint64))
        assert np.array_equal(got.labels, want.labels)
        assert got.label_names == want.label_names

    def test_crlf_file_takes_the_fast_path(self, monkeypatch):
        # a label-only line and trailing blank lines too
        text = bench_style_text(np.random.default_rng(6), 2000, extra_columns=98) + "1\n\n\n"
        want = parse_libsvm(text)
        monkeypatch.setattr(data, "_scan_lines", no_line_loop)
        got = parse_libsvm(text.replace("\n", "\r\n"))
        assert np.array_equal(got.features.view(np.uint64), want.features.view(np.uint64))
        assert np.array_equal(got.labels, want.labels)
        assert got.label_names == want.label_names


class TestRoundTrip:
    def test_parse_dump_parse_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 12))
            lines = []
            for i in range(n):
                cols = np.sort(rng.choice(d, size=rng.integers(0, d + 1), replace=False))
                pairs = " ".join(f"{c + 1}:{rng.normal():.6g}" for c in cols)
                lines.append(f"c{rng.integers(0, 3)} {pairs}".rstrip())
            ds = parse_libsvm("\n".join(lines))
            again = parse_libsvm(dump_libsvm(ds))
            assert_same_dataset(ds, again)


class TestParseCsv:
    def test_basic(self):
        ds = parse_csv("1.0,2.0,a\n3.0,4.0,b", label_column=2)
        assert (ds.n, ds.d, ds.K) == (2, 2, 2)
        assert np.array_equal(ds.features, [[1, 2], [3, 4]])

    def test_single_class_accepted(self):
        ds = parse_csv("1.0,a\n2.0,a", label_column=1)
        assert ds.K == 1

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="ragged"):
            parse_csv("1.0,2.0\n3.0", label_column=1)

    def test_label_column_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_csv("1.0,2.0,a", label_column=7)

    def test_negative_label_column_counts_from_right(self):
        ds = parse_csv("1.0,x\n2.0,y", label_column=-1)
        assert ds.label_names == ["x", "y"]

    def test_non_numeric_feature(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_csv("1.0,a\noops,a", label_column=1)

    @pytest.mark.parametrize("cell", ["1_0", "\uff11", "\u0661.5"])
    def test_python_only_numerals_rejected(self, cell):
        # float reads these as 10, 1 and 1.5
        with pytest.raises(ParseError) as err:
            parse_csv(f"1.0,2.0,a\n3.0,{cell},b\n", label_column=2)
        assert str(err.value) == f"line 2: non-numeric value {cell!r} in column 1"

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, token):
        with pytest.raises(ParseError, match=f"line 3: non-finite value '{token}' in column 1"):
            parse_csv(f"1.0,2.0,a\n3.0,4.0,b\n5.0,{token},a", label_column=2)


class TestScaling:
    def test_maps_to_unit_interval(self):
        ds = Dataset.from_arrays([[0.0], [5.0], [10.0]], [0, 0, 1])
        scaled, spec = min_max_scale(ds)
        assert np.allclose(scaled.features.ravel(), [0, 0.5, 1])
        assert spec.mins[0] == 0 and spec.maxs[0] == 10

    def test_constant_column_maps_to_zero(self):
        ds = Dataset.from_arrays([[3.0], [3.0], [3.0]], [0, 0, 0])
        scaled, _ = min_max_scale(ds)
        assert np.all(scaled.features == 0)

    def test_apply_clamps_out_of_range(self):
        spec = ScalingSpec(np.array([0.0]), np.array([10.0]))
        out = apply_scale(spec, Dataset.from_arrays([[12.0], [-2.0]], [0, 0]))
        assert np.array_equal(out.features.ravel(), [1.0, 0.0])

    def test_output_is_column_major_with_row_major_values(self):
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(50, 6)) * 5
        raw[:, 2] = 1.0
        # a spec fitted on part of the rows, so the rest clamp
        spec = ScalingSpec(raw[:30].min(axis=0), raw[:30].max(axis=0))
        out = apply_scale(spec, Dataset.from_arrays(raw, np.zeros(50))).features
        span = spec.maxs - spec.mins
        expected = raw - spec.mins
        np.divide(expected, span, out=expected, where=span > 0)
        expected[:, span == 0] = 0.0
        np.clip(expected, 0.0, 1.0, out=expected)
        assert out.flags.f_contiguous and expected.flags.c_contiguous
        assert np.array_equal(out, expected)

    def test_rows_of_scaled_data_are_row_contiguous(self):
        rng = np.random.default_rng(13)
        scaled, _ = min_max_scale(Dataset.from_arrays(rng.normal(size=(40, 5)), np.zeros(40)))
        picked = scaled.rows([7, 0, 31, 8])
        assert picked.flags.c_contiguous
        assert np.array_equal(picked, np.ascontiguousarray(scaled.features)[[7, 0, 31, 8]])

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(11)
        ds = Dataset.from_arrays(rng.normal(size=(20, 4)) * 7, rng.integers(0, 2, 20))
        scaled, _ = min_max_scale(ds)
        rescaled, spec2 = min_max_scale(scaled)
        # a spec refit on already-scaled data is the identity
        assert np.allclose(spec2.mins, 0) and np.allclose(spec2.maxs, 1)
        assert_same_dataset(rescaled, scaled)

    def test_range_past_float64_rejected(self):
        # max - min overflows to inf; the suite turns an overflow warning into an error
        with pytest.raises(ValueError, match=r"^feature 2 spans \[-1e\+308, 1e\+308\]"):
            ScalingSpec(np.array([0.0, -1e308]), np.array([1.0, 1e308]))
        ds = Dataset.from_arrays([[1e308], [-1e308], [0.0]], [0, 1, 0])
        with pytest.raises(ValueError, match="^feature 1 spans"):
            min_max_scale(ds)

    def test_far_values_clamp_without_overflow(self):
        # x - min overflows past a span of 1e308, and x / span past a subnormal one
        spec = ScalingSpec(np.array([-1e308, 0.0]), np.array([0.0, 5e-324]))
        X = [[1e308, 1.0], [-1e308, -1.0], [-5e307, 0.0]]
        out = apply_scale(spec, Dataset.from_arrays(X, [0, 0, 0])).features
        assert np.array_equal(out, [[1.0, 1.0], [0.0, 0.0], [0.5, 0.0]])

    def test_dimension_mismatch(self):
        spec = ScalingSpec(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="columns"):
            apply_scale(spec, Dataset.from_arrays([[1.0]], [0]))


class TestPartition:
    @pytest.mark.parametrize("indices", [[2, 1, 3], [0, 1, 1, 2]], ids=["unsorted", "duplicated"])
    def test_indices_must_be_strictly_increasing(self, indices):
        with pytest.raises(ValueError, match="partition indices must be strictly increasing"):
            Partition(np.array(indices), 0)

    def test_two_halves(self):
        ds = Dataset.from_arrays(np.zeros((10, 1)), np.zeros(10, dtype=int))
        parts = partition(ds, 2, seed=5)
        assert [p.size for p in parts] == [5, 5]
        union = np.concatenate([p.indices for p in parts])
        assert sorted(union) == list(range(10))

    def test_sizes_differ_by_at_most_one(self):
        ds = Dataset.from_arrays(np.zeros((10, 1)), np.zeros(10, dtype=int))
        assert [p.size for p in partition(ds, 3, seed=0)] == [4, 3, 3]

    def test_singletons(self):
        ds = Dataset.from_arrays(np.zeros((5, 1)), np.zeros(5, dtype=int))
        parts = partition(ds, 5, seed=1)
        assert all(p.size == 1 for p in parts)

    def test_too_many_partitions(self):
        ds = Dataset.from_arrays(np.zeros((3, 1)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            partition(ds, 4, seed=0)

    def test_deterministic(self):
        ds = Dataset.from_arrays(np.zeros((17, 1)), np.zeros(17, dtype=int))
        a = partition(ds, 4, seed=9)
        b = partition(ds, 4, seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.indices, pb.indices)

    def test_disjoint_cover_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            M = int(rng.integers(1, n + 1))
            ds = Dataset.from_arrays(np.zeros((n, 1)), np.zeros(n, dtype=int))
            parts = partition(ds, M, seed=int(rng.integers(0, 2**31)))
            union = np.concatenate([p.indices for p in parts])
            assert len(union) == n
            assert np.array_equal(np.sort(union), np.arange(n))
            sizes = [p.size for p in parts]
            assert max(sizes) - min(sizes) <= 1


def test_dataset_stats():
    ds = parse_libsvm("a 1:1\nb 1:2\na 1:3")
    assert dataset_stats(ds) == {
        "n": 3,
        "d": 1,
        "K": 2,
        "class_histogram": {"a": 2, "b": 1},
    }


def test_dataset_invariants():
    with pytest.raises(ValueError, match="duplicate"):
        Dataset.from_arrays(np.zeros((2, 1)), [0, 1], ["x", "x"])
    with pytest.raises(ValueError, match="length"):
        Dataset.from_arrays(np.zeros((2, 1)), [0], ["x"])
    with pytest.raises(ValueError, match="outside"):
        Dataset.from_arrays(np.zeros((2, 1)), [0, 5], ["x", "y"])
