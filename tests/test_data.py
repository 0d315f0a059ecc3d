import csv
import json
import math
import statistics
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabcl import data
from tabcl.data import (
    MISSING_TOKENS,
    Column,
    Dataset,
    RawTable,
    Schema,
    SplitPair,
    encode_features,
    infer_schema,
    ingest_csv,
    load_dataset,
    load_split,
    read_csv,
    save_dataset,
    save_split,
    split,
)
from tabcl.exceptions import ConfigError, FormatError
from tabcl.numerics import RngStream

from conftest import numeric_schema


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadCsv:
    def test_minimal(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b,y\n1,2,0\n3,4,1\n")
        raw = read_csv(path)
        assert raw.header == ["a", "b", "y"]
        assert raw.rows == [["1", "2", "0"], ["3", "4", "1"]]

    def test_ragged_row_names_row_number(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b,y\n1,2,0\n3,4\n")
        with pytest.raises(FormatError, match="row 3"):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            read_csv(tmp_path / "nope.csv")


    def test_alternate_delimiter(self, tmp_path):
        path = write(tmp_path / "t.csv", "a;b;y\n1;2;0\n3;4;1\n")
        raw = read_csv(path, delimiter=";")
        assert raw.header == ["a", "b", "y"]


class TestInferSchema:
    def test_low_cardinality_numbers_are_categorical(self):
        rows = [[str(i % 2), "x", str(i % 3)] for i in range(30)]
        schema = infer_schema(RawTable(["a", "b", "y"], rows), target="y", category_cutoff=10)
        assert schema.features[0].kind == "categorical"

    def test_high_cardinality_numbers_are_numeric(self):
        rows = [[repr(i * 0.37), "x", "0" if i % 2 else "1"] for i in range(40)]
        schema = infer_schema(RawTable(["a", "b", "y"], rows), target="y")
        assert schema.features[0].kind == "numeric"

    def test_strings_are_categorical(self):
        rows = [[f"s{i}", str(i % 2)] for i in range(50)]
        schema = infer_schema(RawTable(["a", "y"], rows), target="y")
        assert schema.features[0].kind == "categorical"

    def test_no_target_is_config_error(self):
        with pytest.raises(ConfigError):
            infer_schema(RawTable(["a", "y"], [["1", "0"]]), target=None)
        with pytest.raises(ConfigError):
            infer_schema(RawTable(["a", "y"], [["1", "0"]]), target="missing")

    def test_target_kind_sets_task(self):
        rows = [[repr(i * 1.0), repr(i * 2.0)] for i in range(40)]
        schema = infer_schema(RawTable(["a", "y"], rows), target="y")
        assert schema.task == "regression"
        rows = [[repr(i * 1.0), "yes" if i % 2 else "no"] for i in range(40)]
        schema = infer_schema(RawTable(["a", "y"], rows), target="y")
        assert schema.task == "classification"
        assert schema.classes == ("no", "yes")


class TestIngest:
    @pytest.mark.parametrize("header, name", [("a,a,label", "a"), ("label,a,label", "label")])
    def test_repeated_header_name_names_the_column(self, tmp_path, header, name):
        # A repeated target would otherwise be read from its first column
        # only, and the second dropped without a word.
        path = write(tmp_path / "t.csv", f"{header}\n1,2,0\n3,4,1\n")
        with pytest.raises(FormatError, match=f"column '{name}' appears twice in the header"):
            ingest_csv(path, target="label")

    def test_minimal_file(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b,y\n1.5,2,0\n3,4.25,1\n2,3,0\n")
        ds = ingest_csv(path, target="y", category_cutoff=2)
        assert ds.n == 3
        assert ds.d == 2
        assert ds.schema.task == "classification"
        assert [c.kind for c in ds.schema.features] == ["numeric", "numeric"]

    def test_missing_numeric_cell_gets_column_median(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,y\n1,0\n2,1\n,0\n10,1\n4,0\n")
        ds = ingest_csv(path, target="y", category_cutoff=2)
        median = statistics.median([1.0, 2.0, 10.0, 4.0])
        imputed = [1.0, 2.0, median, 10.0, 4.0]
        mean = statistics.mean(imputed)
        std = statistics.pstdev(imputed)
        assert abs(ds.features[2, 0] - (median - mean) / std) < 1e-12
        assert ds.stats["a"]["median"] == median

    def test_census_like_file_schema_shape(self, tmp_path):
        # 14 feature columns shaped like the classic census file: 6 numeric,
        # 8 categorical, binary income target
        rng = RngStream(30, 0)
        numeric = {
            "age": lambda i: 17 + (i * 7) % 60 + 0.0,
            "fnlwgt": lambda i: 10000 + 137 * i + 0.0,
            "education_num": lambda i: 1 + (i * 13) % 40 + 0.0,
            "capital_gain": lambda i: (i * 211) % 5000 + 0.0,
            "capital_loss": lambda i: (i * 97) % 3000 + 0.0,
            "hours_per_week": lambda i: 1 + (i * 31) % 99 + 0.0,
        }
        categorical = {
            "workclass": ["Private", "State-gov", "Self-emp"],
            "education": ["Bachelors", "HS-grad", "Masters"],
            "marital_status": ["Married", "Never-married"],
            "occupation": ["Sales", "Tech-support", "Craft-repair"],
            "relationship": ["Husband", "Wife", "Unmarried"],
            "race": ["White", "Black", "Asian"],
            "sex": ["Male", "Female"],
            "native_country": ["United-States", "Mexico", "India"],
        }
        header = list(numeric) + list(categorical) + ["income"]
        lines = [",".join(header)]
        for i in range(60):
            row = [repr(fn(i)) for fn in numeric.values()]
            row += [vals[i % len(vals)] for vals in categorical.values()]
            row.append("<=50K" if rng.uniform(1, 1)[0, 0] < 0.7 else ">50K")
            lines.append(",".join(row))
        path = write(tmp_path / "census.csv", "\n".join(lines) + "\n")

        ds = ingest_csv(path, target="income")
        kinds = [c.kind for c in ds.schema.features]
        assert kinds.count("numeric") == 6
        assert kinds.count("categorical") == 8
        assert ds.schema.task == "classification"

    def test_unparseable_numeric_is_format_error(self, tmp_path):
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        path = write(tmp_path / "t.csv", "a,y\n1,0\nbad,1\n")
        with pytest.raises(FormatError, match="row 3"):
            ingest_csv(path, schema=schema)

    def test_numeric_columns_are_parsed_once(self, tmp_path, monkeypatch):
        feature = [repr(0.25 * i) for i in range(40)]
        target = [repr(1.5 * i - 7.0) for i in range(40)]
        feature[3] = "NA"
        text = "a,y\n" + "".join(f"{a},{y}\n" for a, y in zip(feature, target))
        path = write(tmp_path / "t.csv", text)
        calls = []

        def counting(cells, _floats=data._floats):
            calls.append(list(cells))
            return _floats(cells)

        monkeypatch.setattr(data, "_floats", counting)
        ds = ingest_csv(path, target="y")
        assert ds.schema.features[0].kind == "numeric"
        assert ds.schema.task == "regression"
        present = feature[:3] + feature[4:]
        assert calls.count(present) == 1
        assert calls.count(target) == 1
        assert ds.labels.tolist() == [float(t) for t in target]

    def test_encode_after_infer_reads_the_current_cells(self):
        rows = [[repr(0.5 * i), str(i % 2)] for i in range(30)]
        raw = RawTable(["a", "y"], rows)
        schema = infer_schema(raw, target="y")
        assert schema.features[0].kind == "numeric"
        rows[4][0] = "bad"
        with pytest.raises(FormatError, match="column 'a', row 6: cannot parse 'bad'"):
            encode_features(raw, schema)
        rows[4][0] = "100.0"
        ds = encode_features(raw, schema)
        assert ds.features[:, 0].argmax() == 4


class TestEncode:
    def test_zscore_analytic(self):
        raw = RawTable(["a", "y"], [["1", "0"], ["2", "1"], ["3", "0"]])
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        ds = encode_features(raw, schema)
        np.testing.assert_allclose(ds.features[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_one_hot_with_unknown_slot(self):
        schema = Schema(
            (Column("c", "categorical", ("a", "b")),), "y", "classification", ("0", "1")
        )
        raw = RawTable(["c", "y"], [["b", "0"], ["a", "1"]])
        ds = encode_features(raw, schema)
        np.testing.assert_array_equal(ds.features, [[0, 1, 0], [1, 0, 0]])

    def test_unseen_category_maps_to_unknown(self):
        schema = Schema(
            (Column("c", "categorical", ("a", "b")),), "y", "classification", ("0", "1")
        )
        raw = RawTable(["c", "y"], [["c", "0"], ["a", "1"]])
        ds = encode_features(raw, schema)
        np.testing.assert_array_equal(ds.features[0], [0, 0, 1])

    def test_train_stats_reused_on_test(self):
        rng = RngStream(31, 0)
        train_rows = [[repr(float(v)), "0"] for v in rng.normal(50, 1)[:, 0] * 3 + 7]
        raw_train = RawTable(["a", "y"], train_rows)
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        train = encode_features(raw_train, schema)
        assert abs(train.features[:, 0].mean()) < 1e-9
        assert abs(train.features[:, 0].std() - 1.0) < 1e-9

        test_rows = [[repr(float(v)), "1"] for v in rng.normal(20, 1)[:, 0] * 3 + 9]
        test = encode_features(RawTable(["a", "y"], test_rows), schema, stats=train.stats)
        # re-encode train with its own stats: identical, proving stats reuse
        again = encode_features(raw_train, schema, stats=train.stats)
        np.testing.assert_array_equal(again.features, train.features)
        assert abs(test.features[:, 0].mean()) > 0.1  # no zero-mean claim on test

    def test_constant_column_std_fallback(self):
        raw = RawTable(["a", "y"], [["5", "0"], ["5", "1"], ["5", "0"]])
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        ds = encode_features(raw, schema)
        assert np.all(ds.features == 0.0)
        assert ds.stats["a"]["std"] == 1.0

    def test_stats_schema_mismatch(self):
        raw = RawTable(["a", "y"], [["1", "0"], ["2", "1"]])
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        with pytest.raises(ValueError):
            encode_features(raw, schema, stats={"b": {"median": 0, "mean": 0, "std": 1}})


class TestSplit:
    def build(self, n, seed=1, classes=2):
        rng = RngStream(seed, 0)
        X = rng.normal(n, 3)
        y = np.arange(n) % classes
        return Dataset(X, y.astype(np.int64), numeric_schema(3), None)

    def test_sizes(self):
        ds = self.build(10)
        a, b = split(ds, (0.8, 0.2), RngStream(2, 0))
        assert (a.n, b.n) == (8, 2)

    def test_deterministic(self):
        ds = self.build(40)
        a1, b1 = split(ds, (0.75, 0.25), RngStream(3, 0))
        a2, b2 = split(ds, (0.75, 0.25), RngStream(3, 0))
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.labels, b2.labels)

    def test_stratified_balance(self):
        ds = self.build(100)
        a, b = split(ds, (0.8, 0.2), RngStream(4, 0))
        assert (a.n, b.n) == (80, 20)
        for part in (a, b):
            counts = np.bincount(part.labels)
            assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_partition(self):
        ds = self.build(57)
        key = ds.features[:, 0]
        a, b = split(ds, (0.6, 0.4), RngStream(5, 0))
        merged = np.sort(np.concatenate([a.features[:, 0], b.features[:, 0]]))
        np.testing.assert_array_equal(merged, np.sort(key))
        assert not np.intersect1d(a.features[:, 0], b.features[:, 0]).size

    def test_tiny_class_falls_back_with_warning(self):
        X = RngStream(6, 0).normal(10, 2)
        y = np.array([0] * 9 + [1], dtype=np.int64)
        ds = Dataset(X, y, numeric_schema(2), None)
        with pytest.warns(UserWarning):
            a, b = split(ds, (0.8, 0.2), RngStream(7, 0))
        assert a.n + b.n == 10

    def test_bad_fractions(self):
        ds = self.build(10)
        with pytest.raises(ValueError):
            split(ds, (0.7, 0.2), RngStream(0, 0))
        with pytest.raises(ValueError):
            split(ds, (1.0, -0.0), RngStream(0, 0))


def build_pair(seed=8, m=40, n_ood=12):
    rng = RngStream(seed, 0)
    schema = numeric_schema(3)
    d_in = Dataset(rng.normal(m, 3), (np.arange(m) % 2).astype(np.int64), schema, None)
    d_ood = Dataset(rng.normal(n_ood, 3), (np.arange(n_ood) % 2).astype(np.int64), schema, None)
    return SplitPair(d_in, d_ood, threshold=0.1628, detector="openmax", norm="l2", seed=seed)


class TestSplitPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        pair = build_pair()
        save_split(pair, tmp_path / "split")
        loaded = load_split(tmp_path / "split")
        np.testing.assert_array_equal(loaded.d_in.features, pair.d_in.features)
        np.testing.assert_array_equal(loaded.d_ood.features, pair.d_ood.features)
        np.testing.assert_array_equal(loaded.d_in.labels, pair.d_in.labels)
        assert loaded.threshold == 0.1628
        assert loaded.detector == "openmax"
        assert loaded.norm == "l2"
        assert loaded.d_in.schema == pair.d_in.schema

    def test_sidecar_keys(self, tmp_path):
        pair = build_pair()
        save_split(pair, tmp_path / "split")
        meta = json.loads((tmp_path / "split" / "meta.json").read_text())
        for key in ("threshold", "detector", "norm", "seed", "m", "n", "schema-version"):
            assert key in meta
        assert meta["m"] == 40 and meta["n"] == 12

    def test_truncated_sidecar_is_format_error(self, tmp_path):
        pair = build_pair()
        save_split(pair, tmp_path / "split")
        meta_path = tmp_path / "split" / "meta.json"
        meta_path.write_text(meta_path.read_text()[: len(meta_path.read_text()) // 2])
        with pytest.raises(FormatError):
            load_split(tmp_path / "split")

    def test_version_mismatch_is_format_error(self, tmp_path):
        pair = build_pair()
        save_split(pair, tmp_path / "split")
        meta_path = tmp_path / "split" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema-version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="schema-version"):
            load_split(tmp_path / "split")

    def test_anomalous_flag(self):
        pair = build_pair(m=10, n_ood=30)
        assert pair.anomalous
        assert not build_pair().anomalous


class TestDatasetPersistence:
    def test_round_trip(self, tmp_path):
        rng = RngStream(9, 0)
        ds = Dataset(rng.normal(15, 4), rng.normal(15, 1)[:, 0], numeric_schema(4, task="regression"), None)
        save_dataset(ds, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.schema == ds.schema

    @pytest.mark.parametrize("case, task", [
        ("edge values", "classification"),
        ("edge values", "regression"),
        ("no features", "classification"),
        ("no features", "regression"),
    ])
    def test_npy_round_trip_is_bit_exact(self, tmp_path, case, task):
        ds = writer_case(case, task)
        ds.stats = {c.name: {"median": 0.5, "mean": -1e-300, "std": 1 / 3}
                    for c in ds.schema.features}
        save_dataset(ds, tmp_path / "ds")
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
            "features.npy", "labels.npy", "meta.json",
        ]
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.features.dtype == np.float64 and loaded.features.shape == ds.features.shape
        assert loaded.labels.dtype == (np.int64 if task == "classification" else np.float64)
        assert bits(loaded.features) == bits(ds.features)
        assert bits(loaded.labels) == bits(ds.labels)
        assert loaded.schema == ds.schema and loaded.stats == ds.stats

    @pytest.mark.parametrize("stored", [np.int32, np.float64])
    def test_class_labels_are_stored_as_int64(self, tmp_path, stored):
        ds = writer_case("edge values", "classification")
        ds.labels = ds.labels.astype(stored)
        save_dataset(ds, tmp_path / "ds")
        assert np.load(tmp_path / "ds" / "labels.npy").dtype == np.int64
        assert load_dataset(tmp_path / "ds").labels.tolist() == [0, 1, 1]

    def test_old_version_is_format_error(self, tmp_path):
        save_dataset(writer_case("edge values", "regression"), tmp_path / "ds")
        meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
        meta["schema-version"] = 1
        (tmp_path / "ds" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="schema-version 1, expected 2"):
            load_dataset(tmp_path / "ds")


# Per-cell references for the column-at-a-time parser and the whole-row
# writer: one float() per cell, and csv.writer with repr(float(v)) cells.


def cell_error(cell, col, row):
    """The FormatError text for one cell that is not a finite number, else None."""
    try:
        v = float(cell)
    except ValueError:
        return f"column {col!r}, row {row}: cannot parse {cell!r} as a number"
    if not math.isfinite(v):
        return f"column {col!r}, row {row}: non-finite value {cell!r}"
    return None


def first_error(located):
    """First error among ``(cell, column, row)`` triples, in their order."""
    return next(filter(None, (cell_error(*c) for c in located)), None)


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def reference_write(dataset, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.schema.encoded_names()) + [dataset.schema.target])
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            label = dataset.labels[i]
            row.append(str(int(label)) if dataset.schema.task == "classification"
                       else repr(float(label)))
            writer.writerow(row)


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


HEADER = ["x0", "x1", "x2", "y"]
REGRESSION = numeric_schema(3, task="regression")
IDENTITY_STATS = {f"x{j}": {"median": 0.0, "mean": 0.0, "std": 1.0} for j in range(3)}
VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([" 2 ", "+.5", "1_0", "1e5", "-0", "5e-324", "1E-5", "\t-3.25"]),
)
CELL = st.one_of(VALUE, st.sampled_from(sorted(MISSING_TOKENS)))
BAD = st.lists(
    st.tuples(st.integers(0, 99), st.integers(0, 3), st.sampled_from(["bad", "inf", "nan"])),
    min_size=1, max_size=3,
)


def with_bad(rows, bad):
    rows = [list(r) for r in rows]
    for i, j, token in bad:
        rows[i % len(rows)][j] = token
    return rows


def stored_split(directory, schema, header, rows):
    """A split directory whose ``d_in.csv`` holds ``rows`` as written and
    whose sidecar agrees with their count."""
    width = len(header) - 1
    labels = np.zeros(1) if schema.task == "regression" else np.zeros(1, np.int64)
    side = Dataset(np.zeros((1, width)), labels, schema, None)
    pair = SplitPair(side.take([0] * len(rows)), side, threshold=0.5, detector="openmax",
                     norm="l2")
    save_split(pair, directory)
    write_rows(Path(directory) / "d_in.csv", header, rows)
    return directory


def saved_regression(directory, rows):
    """A split directory whose ``d_in.csv`` holds ``rows`` as written."""
    return stored_split(directory, REGRESSION, HEADER, rows)


class TestBulkParse:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(CELL, CELL, CELL, VALUE), min_size=1, max_size=15))
    def test_ingest_matches_per_cell_reference(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_rows(path, HEADER, rows)
            ds = ingest_csv(path, schema=REGRESSION, stats=IDENTITY_STATS)
        # identity stats: a missing cell imputes 0.0, a present one keeps its bits
        expected = [[0.0 if c.strip() in MISSING_TOKENS else float(c) for c in r[:3]]
                    for r in rows]
        assert bits(ds.features) == bits(expected)
        assert bits(ds.labels) == bits([float(r[3]) for r in rows])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(VALUE, VALUE, VALUE, VALUE), min_size=1, max_size=15))
    def test_load_matches_per_cell_reference(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            ds = load_split(saved_regression(tmp, rows)).d_in
        assert bits(ds.features) == bits([[float(c) for c in r[:3]] for r in rows])
        assert bits(ds.labels) == bits([float(r[3]) for r in rows])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(VALUE, VALUE, VALUE, VALUE), min_size=1, max_size=15), BAD)
    def test_ingest_names_first_bad_cell_column_by_column(self, rows, bad):
        rows = with_bad(rows, bad)
        expected = first_error(
            (r[j], HEADER[j], i + 2)
            for j in range(4) for i, r in enumerate(rows)
            if j == 3 or r[j] not in MISSING_TOKENS
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_rows(path, HEADER, rows)
            if expected is None:  # only "nan" in features: imputed as missing
                ingest_csv(path, schema=REGRESSION, stats=IDENTITY_STATS)
                return
            with pytest.raises(FormatError) as exc:
                ingest_csv(path, schema=REGRESSION, stats=IDENTITY_STATS)
        assert str(exc.value) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(VALUE, VALUE, VALUE, VALUE), min_size=1, max_size=15), BAD)
    def test_load_names_first_bad_cell_row_by_row(self, rows, bad):
        rows = with_bad(rows, bad)
        expected = first_error(
            (c, HEADER[j], i + 2) for i, r in enumerate(rows) for j, c in enumerate(r)
        )
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(FormatError) as exc:
                load_split(saved_regression(tmp, rows))
        assert str(exc.value) == expected

    def test_bad_class_index_comes_after_its_row_features(self, tmp_path):
        stored_split(tmp_path, numeric_schema(2), ["x0", "x1", "y"],
                     [["1", "2", "0"], ["3", "4", "x"], ["bad", "5", "1"]])
        with pytest.raises(FormatError, match=r"d_in.csv: row 3: bad class index 'x'"):
            load_split(tmp_path)


EDGE_VALUES = [-0.0, 1e-05, 1e16, 5e-324]
QUOTED = Schema(
    (Column("c", "categorical", ("a,b", 'say "hi"')), Column("x", "numeric")),
    "y", "classification", ("0", "1"),
)


def writer_case(case, task):
    classification = task == "classification"
    if case == "quoted levels":
        schema = QUOTED if classification else Schema(QUOTED.features, "y", "regression")
        features = [[1.0, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, -1.25], [0.0, 0.0, 1.0, 2.0 / 3.0]]
    elif case == "no features":
        schema = Schema((), "y", task, ("0", "1") if classification else ())
        features = np.zeros((3, 0))
    else:
        schema = numeric_schema(4, task=task)
        features = [EDGE_VALUES, EDGE_VALUES[::-1], [1 / 3, -2.5, 123456.789, -1e-300]]
    labels = np.array([0, 1, 1]) if classification else np.array(EDGE_VALUES[1:])
    return Dataset(features, labels, schema, None)


class TestWriter:
    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("case", ["quoted levels", "no features", "edge values"])
    def test_bytes_match_csv_writer_reference(self, tmp_path, case, task):
        ds = writer_case(case, task)
        reference_write(ds, tmp_path / "reference.csv")
        pair = SplitPair(ds, ds.take([0]), threshold=0.5, detector="openmax", norm="l1")
        save_split(pair, tmp_path / "split")
        stored = (tmp_path / "split" / "d_in.csv").read_bytes()
        assert stored == (tmp_path / "reference.csv").read_bytes()
        loaded = load_split(tmp_path / "split").d_in
        assert bits(loaded.features) == bits(ds.features)
        assert bits(loaded.labels) == bits(ds.labels)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_split_round_trip_is_bit_exact(self, tmp_path, task):
        ds = writer_case("edge values", task)
        pair = SplitPair(ds.take([0, 1]), ds.take([2]), threshold=0.5, detector="openmax",
                         norm="l1", seed=1)
        save_split(pair, tmp_path / "split")
        reference_write(pair.d_in, tmp_path / "reference.csv")
        assert (tmp_path / "split" / "d_in.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        loaded = load_split(tmp_path / "split")
        for side in ("d_in", "d_ood"):
            assert bits(getattr(loaded, side).features) == bits(getattr(pair, side).features)
            assert bits(getattr(loaded, side).labels) == bits(getattr(pair, side).labels)
