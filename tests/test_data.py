import csv
import json
import math
import os
import re
import statistics
import tempfile
import warnings
from pathlib import Path
from unittest import mock

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
    load_split_in,
    read_csv,
    save_dataset,
    save_split,
    split,
)
from tabcl.exceptions import ConfigError, FormatError
from tabcl.numerics import RngStream

from conftest import (
    DATASET_CASES, TOO_LARGE_COLUMNS, as_prefixed_arrays, load_workloads, numeric_schema, spoil,
)
from oracles import read_split_csv


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

    @pytest.mark.parametrize("delimiter", [";;", "", None])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        with pytest.raises(ValueError, match="the delimiter must be one character"):
            read_csv(tmp_path / "nope.csv", delimiter=delimiter)  # before the file is read

    @pytest.mark.parametrize("header", ["label,a,b", "a,b,label"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, header):
        path = tmp_path / "bom.csv"
        path.write_bytes(f"{header}\n0,1,2\n1,3,4\n".encode("utf-8-sig"))
        plain = write(tmp_path / "plain.csv", f"{header}\n0,1,2\n1,3,4\n")
        assert read_csv(path) == read_csv(plain)
        assert read_csv(path).header == header.split(",")

    def test_byte_that_is_not_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b,y\n1,caf\xe9,0\n")
        with pytest.raises(FormatError, match=r"cannot read .*latin1\.csv: 'utf-8' codec"):
            read_csv(path)

    def test_cell_beyond_the_field_limit_is_format_error(self, tmp_path):
        path = write(tmp_path / "long.csv", f"a,y\n1,0\n{'x' * (csv.field_size_limit() + 1)},1\n")
        with pytest.raises(FormatError, match=r"long\.csv: line 3: field larger than"):
            read_csv(path)


class TestInferSchema:
    def test_low_cardinality_numbers_are_categorical(self):
        rows = [[str(i % 2), "x", str(i % 3)] for i in range(30)]
        schema = infer_schema(RawTable(["a", "b", "y"], rows), target="y")
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

    @staticmethod
    def late_columns(n=200):
        """Columns whose first 64 cells tell a different story from the rest:
        ``few_first`` repeats three numbers and then turns distinct,
        ``missing_first`` is missing throughout its first 64 cells, and
        ``word_late`` is distinct numbers with a word and missing cells
        after its first 64."""
        few_first = [str(i % 3) for i in range(64)] + [repr(0.25 * i) for i in range(n - 64)]
        missing_first = [["NA", "", "?", "nan"][i % 4] for i in range(64)] + [
            repr(-1.5 * i) for i in range(n - 64)]
        word_late = [repr(i / 7) for i in range(n)]
        word_late[150], word_late[90], word_late[170] = "x", "None", ""
        y = [f"c{i % 2}" for i in range(n)]
        header = ["few_first", "missing_first", "word_late", "y"]
        return header, [list(r) for r in zip(few_first, missing_first, word_late, y)]

    @pytest.mark.parametrize("cutoff", [0, 2, 3, 20, 63, 64, 135, 136, 137, 300])
    def test_distinct_count_settled_past_the_first_cells(self, cutoff, monkeypatch):
        header, rows = self.late_columns()
        monkeypatch.setattr(data, "CATEGORY_CUTOFF", cutoff)
        schema = infer_schema(RawTable(header, rows), target="y")
        assert schema == ref_infer_schema(RawTable(header, rows), "y", None, cutoff)

    def test_late_values_decide_kind_and_categories(self):
        header, rows = self.late_columns()
        few_first, missing_first, word_late = infer_schema(RawTable(header, rows),
                                                            target="y").features
        assert few_first == Column("few_first", "numeric")
        assert missing_first == Column("missing_first", "numeric")
        cells = {r[2] for r in rows} - MISSING_TOKENS
        assert word_late.kind == "categorical"
        assert word_late.categories == tuple(sorted(cells | {data.MISSING_CATEGORY}))
        assert word_late.categories[-2:] == (data.MISSING_CATEGORY, "x")
        assert len(word_late.categories) == 197 + 2  # the numbers left, "x" and missing

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

    def test_reapplied_schema_rejects_a_repeated_header_name(self, tmp_path):
        # the schema's one column would otherwise be read from the first 'a'
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        stats = {"a": {"median": 0.0, "mean": 0.0, "std": 1.0}}
        path = write(tmp_path / "t.csv", "a,a,y\n1,5,0\n2,6,1\n")
        with pytest.raises(FormatError, match="column 'a' appears twice in the header"):
            encode_features(read_csv(path), schema, stats)

    @pytest.mark.parametrize("header, target, message", [
        ("a,a=b,label", "label", "columns 'a' and 'a=b' both encode to 'a=b'"),
        ("a,label,a=b", "a=b", "columns 'a=b' and 'a' both encode to 'a=b'"),
    ])
    def test_colliding_encoded_names_name_both_columns(self, tmp_path, header, target, message):
        # categorical a, with categories b and c, encodes to a=b, which is
        # also the name of a numeric feature or of the target
        rows = "".join(f"{'bc'[i % 2]},{i / 2},{i % 2}\n" for i in range(25))
        path = write(tmp_path / "t.csv", f"{header}\n{rows}")
        with pytest.raises(FormatError, match=message):
            ingest_csv(path, target=target)

    def test_minimal_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CATEGORY_CUTOFF", 2)  # three distinct values make a number
        path = write(tmp_path / "t.csv", "a,b,y\n1.5,2,0\n3,4.25,1\n2,3,0\n")
        ds = ingest_csv(path, target="y")
        assert ds.n == 3
        assert ds.d == 2
        assert ds.schema.task == "classification"
        assert [c.kind for c in ds.schema.features] == ["numeric", "numeric"]

    def test_missing_numeric_cell_gets_column_median(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CATEGORY_CUTOFF", 2)
        path = write(tmp_path / "t.csv", "a,y\n1,0\n2,1\n,0\n10,1\n4,0\n")
        ds = ingest_csv(path, target="y")
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
            encode_features(read_csv(path), schema)

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


# The row-major ingest that the column pass replaced: each function pulls a
# column out of the rows with its own comprehension and walks it cell by
# cell.  It parses through data._floats and data._parse_number, as the
# package does, and keeps no parsed columns between the two calls.

def ref_infer_schema(raw, target, task=None, category_cutoff=data.CATEGORY_CUTOFF):
    if not target:
        raise ConfigError("no target column designated")
    if target not in raw.header:
        raise ConfigError(f"target column {target!r} not in header {raw.header}")
    if len(raw.rows) < 1:
        raise FormatError("need at least one data row to infer a schema")

    def column_cells(name):
        j = raw.header.index(name)
        return [row[j] for row in raw.rows]

    def classify(cells):
        present = [c for c in cells if c not in MISSING_TOKENS]
        has_missing = len(present) < len(cells)
        if present and len(set(present)) > category_cutoff:
            if data._floats(present) is not None:
                return data.NUMERIC, has_missing
        return data.CATEGORICAL, has_missing

    features = []
    for name in raw.header:
        if name == target:
            continue
        cells = column_cells(name)
        kind, has_missing = classify(cells)
        if kind == data.NUMERIC:
            features.append(Column(name, data.NUMERIC))
        else:
            vocab = sorted(set(c for c in cells if c not in MISSING_TOKENS))
            if has_missing:
                vocab = sorted(set(vocab) | {data.MISSING_CATEGORY})
            features.append(Column(name, data.CATEGORICAL, tuple(vocab)))

    target_cells = column_cells(target)
    if any(c in MISSING_TOKENS for c in target_cells):
        raise FormatError(f"target column {target!r} has missing values")
    if task is None:
        kind, _ = classify(target_cells)
        task = data.REGRESSION if kind == data.NUMERIC else data.CLASSIFICATION
    classes = tuple(sorted(set(target_cells))) if task == data.CLASSIFICATION else ()
    return Schema(tuple(features), target, task, classes)


def ref_encode_features(raw, schema, stats=None):
    for col in schema.features:
        if col.name not in raw.header:
            raise ValueError(f"schema column {col.name!r} missing from header")
    if schema.target not in raw.header:
        raise ValueError(f"target column {schema.target!r} missing from header")
    if stats is not None:
        expected = {c.name for c in schema.features if c.kind == data.NUMERIC}
        if set(stats) != expected:
            raise ValueError("stats do not match the schema's numeric columns")
    n = len(raw.rows)
    if n < 1:
        raise ValueError("cannot encode an empty table")
    fitting = stats is None
    fitted = {}
    blocks = []
    for col in schema.features:
        j = raw.header.index(col.name)
        cells = [row[j] for row in raw.rows]
        if col.kind == data.NUMERIC:
            keep = [i for i, cell in enumerate(cells) if cell not in MISSING_TOKENS]
            parsed = data._floats([cells[i] for i in keep])
            if parsed is None:
                for i in keep:
                    data._parse_number(cells[i], col.name, i + 2)
            values = np.full(n, np.nan)
            values[keep] = parsed
            if fitting:
                present = values[~np.isnan(values)]
                if present.size == 0:
                    raise FormatError(f"column {col.name!r} is entirely missing")
                median = float(np.median(present))
                values[np.isnan(values)] = median
                mean = float(values.mean())
                std = float(values.std())
                if std == 0.0:
                    std = 1.0
                fitted[col.name] = {"median": median, "mean": mean, "std": std}
            else:
                s = stats[col.name]
                values[np.isnan(values)] = s["median"]
                mean, std = s["mean"], s["std"]
            blocks.append(((values - mean) / std)[:, None])
        else:
            unknown = len(col.categories)
            index = {c: k for k, c in enumerate(col.categories)}
            index.update(dict.fromkeys(MISSING_TOKENS, index.get(data.MISSING_CATEGORY, unknown)))
            codes = np.fromiter((index.get(cell, unknown) for cell in cells), np.intp, n)
            onehot = np.zeros((n, unknown + 1))
            onehot[np.arange(n), codes] = 1.0
            blocks.append(onehot)
    jt = raw.header.index(schema.target)
    target_cells = [row[jt] for row in raw.rows]
    if schema.task == data.CLASSIFICATION:
        lookup = {c: k for k, c in enumerate(schema.classes)}
        try:
            labels = np.fromiter(map(lookup.__getitem__, target_cells), np.int64, n)
        except KeyError:
            i = next(i for i, cell in enumerate(target_cells) if cell not in lookup)
            raise FormatError(f"row {i + 2}: unknown target class {target_cells[i]!r}") from None
    else:
        labels = data._floats(target_cells)
        if labels is None:
            for i, cell in enumerate(target_cells):
                data._parse_number(cell, schema.target, i + 2)
    features = np.hstack(blocks) if blocks else np.zeros((n, 0))
    return Dataset(features, labels, schema, fitted if fitting else dict(stats))


# The two-branch split that the one grouped loop replaced: a stratified
# branch that walks the classes and a separate branch over all rows.

def ref_split(dataset, rng):
    n = dataset.n
    stratify = dataset.schema.task == data.CLASSIFICATION
    if stratify:
        _, counts = np.unique(dataset.labels, return_counts=True)
        if counts.min() < 2:
            warnings.warn("a class has fewer rows than splits; splitting unstratified")
            stratify = False
    if stratify:
        first_idx, second_idx = [], []
        for cls in np.unique(dataset.labels):
            rows = np.flatnonzero(dataset.labels == cls)
            order = rows[rng.permutation(rows.size)]
            k = min(max(int(round(data.SPLIT_SHARE * rows.size)), 1), rows.size - 1)
            first_idx.extend(order[:k])
            second_idx.extend(order[k:])
        first = np.sort(np.asarray(first_idx, dtype=np.int64))
        second = np.sort(np.asarray(second_idx, dtype=np.int64))
    else:
        order = rng.permutation(n)
        k = min(max(int(round(data.SPLIT_SHARE * n)), 1), n - 1)
        first = np.sort(order[:k])
        second = np.sort(order[k:])
    return dataset.take(first), dataset.take(second)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (ConfigError, FormatError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_ingest(got, want):
    """The same error, or datasets equal in schema, stats and every bit."""
    if not isinstance(want, Dataset):
        assert got == want
        return
    assert isinstance(got, Dataset), got
    assert got.schema == want.schema
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert json.dumps(got.stats) == json.dumps(want.stats)


def assert_ingest_matches_reference(raw_rows, header, path, target, task, cutoff):
    """The public functions on a fresh table, and ingest_csv on the file,
    against the reference on a fresh table of the same cells, at the category
    cutoff ``cutoff``."""
    def fresh():
        return RawTable(list(header), [list(r) for r in raw_rows])

    want_schema = outcome(ref_infer_schema, fresh(), target, task, cutoff)
    with mock.patch.object(data, "CATEGORY_CUTOFF", cutoff):
        got_schema = outcome(infer_schema, fresh(), target, task)
    assert got_schema == want_schema
    if isinstance(want_schema, Schema):
        want = outcome(ref_encode_features, fresh(), want_schema)
        assert_same_ingest(outcome(encode_features, fresh(), want_schema), want)
        if isinstance(want, Dataset):  # and again with the fitted stats
            assert_same_ingest(outcome(encode_features, fresh(), want_schema, want.stats),
                               outcome(ref_encode_features, fresh(), want_schema, want.stats))
    if path is not None:
        stored = read_csv(path)
        ref_raw = RawTable(stored.header, stored.rows)
        want = outcome(ref_infer_schema, ref_raw, target, task, cutoff)
        if isinstance(want, Schema):
            want = outcome(ref_encode_features, ref_raw, want)
        with mock.patch.object(data, "CATEGORY_CUTOFF", cutoff):
            got = outcome(ingest_csv, path, target=target, task=task)
        assert_same_ingest(got, want)


# Cells of the table generator below, by column kind.  A missing cell may
# carry whitespace: read_csv strips it, a RawTable built directly keeps it.
# Numbers stay below 1e100, whose squares the z-score moments can sum.
PADDED_MISSING = st.sampled_from(sorted(MISSING_TOKENS) + [" NA", "? ", " nan ", "\tNone"])
COLUMN_CELLS = {
    "numeric": st.floats(-1e100, 1e100, allow_nan=False).map(repr),
    "low-cardinality numeric": st.sampled_from(["0", "1", "2", "-3.5"]),
    "categorical": st.sampled_from(["a", "b", "Zed", "a b", "<missing>", "1x"]),
    "numeric with a stray word": st.one_of(st.integers(-99, 99).map(str), st.just("x")),
}
TARGET_CELLS = {
    "classes": st.sampled_from(["0", "1", "2", "c"]),
    "numbers": st.floats(-1e6, 1e6, allow_nan=False).map(repr),
}


@st.composite
def tables(draw):
    n = draw(st.integers(1, 25))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), max_size=4))
    columns = []
    for kind in kinds:
        cell = COLUMN_CELLS[kind]
        if draw(st.booleans()):
            cell = st.one_of(cell, PADDED_MISSING)
        columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    target = TARGET_CELLS[draw(st.sampled_from(sorted(TARGET_CELLS)))]
    if draw(st.integers(0, 9)) == 0:
        target = st.one_of(target, PADDED_MISSING)
    at = draw(st.integers(0, len(kinds)))
    columns.insert(at, draw(st.lists(target, min_size=n, max_size=n)))
    header = [f"c{j}" for j in range(len(kinds))]
    header.insert(at, "y")
    task = draw(st.sampled_from([None, data.CLASSIFICATION, data.REGRESSION]))
    cutoff = draw(st.integers(0, 6))
    return header, [list(r) for r in zip(*columns)], task, cutoff


class TestColumnPassMatchesRowMajor:
    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_random_tables(self, table):
        header, rows, task, cutoff = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_rows(path, header, rows)
            assert_ingest_matches_reference(rows, header, path, "y", task, cutoff)

    @pytest.mark.parametrize("workload", ["train-wide", "gate-tall", "cli-regression"])
    def test_benchmark_tables(self, tmp_path, workload):
        workloads = load_workloads()
        path, _ = workloads.generate(workload, 3, str(tmp_path))
        spec = workloads.WORKLOADS[workload]
        raw = read_csv(path)
        for task in (None, spec["task"]):
            assert_ingest_matches_reference(raw.rows, raw.header, path, spec["target"], task,
                                            data.CATEGORY_CUTOFF)


class TestMissingMask:
    """A numeric column finds its missing cells with one mask; every
    spelling of a missing token is one, wherever it stands."""

    TOKENS = sorted(MISSING_TOKENS)

    def rows(self, n=48):
        """A numeric column ``a`` (more distinct values than the cutoff)
        holding each missing spelling twice, a clean column ``b`` and a class
        target; the first missing cell is on row 2 of the file."""
        rows = [[repr(0.25 * i - 3.0), repr(1.0 / (i + 1)), f"c{i % 3}"] for i in range(n)]
        for k, token in enumerate(self.TOKENS * 2):
            rows[3 * k][0] = token
        return rows

    def test_every_spelling_matches_the_row_major_reference(self, tmp_path):
        rows, header = self.rows(), ["a", "b", "y"]
        path = tmp_path / "t.csv"
        write_rows(path, header, rows)
        ds = ingest_csv(path, target="y")
        assert [c.kind for c in ds.schema.features] == ["numeric", "numeric"]
        a = [float(r[0]) for r in rows if r[0] not in MISSING_TOKENS]
        assert ds.stats["a"]["median"] == statistics.median(a)
        assert_ingest_matches_reference(rows, header, path, "y", None,
                                        data.CATEGORY_CUTOFF)
        # each missing cell is imputed with the median, then z-scored
        s = ds.stats["a"]
        imputed = (s["median"] - s["mean"]) / s["std"]
        missing = [i for i, r in enumerate(rows) if r[0] in MISSING_TOKENS]
        assert bits(ds.features[missing, 0]) == bits([imputed] * len(missing))

    @pytest.mark.parametrize("blank_lines", [0, 3])
    def test_bad_cell_after_missing_cells_names_its_row(self, tmp_path, blank_lines):
        rows, header = self.rows(), ["a", "b", "y"]
        write_rows(tmp_path / "fit.csv", header, rows)
        fitted = ingest_csv(tmp_path / "fit.csv", target="y")
        rows[40][0] = "oops"  # after 14 of the 16 missing cells
        lines = ["a,b,y"] + [",".join(r) for r in rows]
        for _ in range(blank_lines):
            lines.insert(2, "")
        path = write(tmp_path / "t.csv", "\n".join(lines) + "\n")
        with pytest.raises(FormatError,
                           match=f"^column 'a', row {42 + blank_lines}: cannot parse 'oops'"):
            encode_features(read_csv(path), fitted.schema, fitted.stats)
        want = outcome(ref_encode_features, RawTable(header, rows), fitted.schema, fitted.stats)
        assert want == (FormatError, "column 'a', row 42: cannot parse 'oops' as a number")


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

    @pytest.mark.parametrize("case", sorted(TOO_LARGE_COLUMNS))
    def test_column_too_large_to_standardize(self, case):
        # a moment that overflows would z-score every cell to -0.0 and store
        # an infinite std; pytest turns any overflow warning into an error
        rows = [[repr(v), str(i % 2)] for i, v in enumerate(TOO_LARGE_COLUMNS[case])]
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        with pytest.raises(FormatError, match="column 'a': values too large to standardize"):
            encode_features(RawTable(["a", "y"], rows), schema)

    def test_large_column_below_the_overflow_standardizes(self):
        rows = [[repr(k * 1e150), str(k % 2)] for k in range(1, 31)]
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        ds = encode_features(RawTable(["a", "y"], rows), schema)
        assert np.isfinite(ds.stats["a"]["std"])
        assert abs(ds.features[:, 0].std() - 1.0) < 1e-12

    def test_empty_table_is_value_error(self, tmp_path):
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        path = write(tmp_path / "t.csv", "a,y\n")
        with pytest.raises(ValueError, match="cannot encode an empty table"):
            encode_features(read_csv(path), schema)

    def test_entirely_missing_numeric_column_is_format_error(self):
        raw = RawTable(["a", "y"], [["NA", "0"], ["?", "1"], ["", "0"]])
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        with pytest.raises(FormatError, match="column 'a' is entirely missing"):
            encode_features(raw, schema)

    def test_stats_schema_mismatch(self):
        raw = RawTable(["a", "y"], [["1", "0"], ["2", "1"]])
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        with pytest.raises(ValueError):
            encode_features(raw, schema, stats={"b": {"median": 0, "mean": 0, "std": 1}})

    @pytest.mark.parametrize("entry", [
        {"median": 0, "mean": 0, "std": 0}, {"median": 0, "mean": float("nan"), "std": 1},
        {"median": 0, "mean": 0}, {"median": "0", "mean": 0, "std": 1},
    ], ids=["zero std", "NaN mean", "no std", "string median"])
    def test_stats_of_a_column_that_cannot_be_applied(self, entry):
        """The stats :func:`load_dataset` accepts are the stats that
        ``encode_features`` applies."""
        raw = RawTable(["a", "y"], [["1", "0"], ["2", "1"]])
        schema = Schema((Column("a", "numeric"),), "y", "classification", ("0", "1"))
        with pytest.raises(ValueError, match="stats of column 'a' need a finite median"):
            encode_features(raw, schema, stats={"a": entry})


class TestSplit:
    def build(self, n, seed=1, classes=2):
        rng = RngStream(seed, 0)
        X = rng.normal(n, 3)
        y = np.arange(n) % classes
        return Dataset(X, y.astype(np.int64), numeric_schema(3), None)

    def test_sizes(self):
        ds = self.build(10)
        a, b = split(ds, RngStream(2, 0))
        assert (a.n, b.n) == (8, 2)

    def test_deterministic(self):
        ds = self.build(40)
        a1, b1 = split(ds, RngStream(3, 0))
        a2, b2 = split(ds, RngStream(3, 0))
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.labels, b2.labels)

    def test_stratified_balance(self):
        ds = self.build(100)
        a, b = split(ds, RngStream(4, 0))
        assert (a.n, b.n) == (80, 20)
        for part in (a, b):
            counts = np.bincount(part.labels)
            assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_partition(self):
        ds = self.build(57)
        key = ds.features[:, 0]
        a, b = split(ds, RngStream(5, 0))
        merged = np.sort(np.concatenate([a.features[:, 0], b.features[:, 0]]))
        np.testing.assert_array_equal(merged, np.sort(key))
        assert not np.intersect1d(a.features[:, 0], b.features[:, 0]).size

    def test_tiny_class_falls_back_with_warning(self):
        X = RngStream(6, 0).normal(10, 2)
        y = np.array([0] * 9 + [1], dtype=np.int64)
        ds = Dataset(X, y, numeric_schema(2), None)
        with pytest.warns(UserWarning):
            a, b = split(ds, RngStream(7, 0))
        assert a.n + b.n == 10

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_rows_match_the_two_branch_reference(self, draws):
        n = draws.draw(st.integers(2, 40), label="n")
        if draws.draw(st.booleans(), label="regression"):
            schema = numeric_schema(1, task="regression")
            labels = draws.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        else:
            schema = numeric_schema(1, classes=("0", "1", "2", "3", "4"))
            labels = draws.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            if draws.draw(st.booleans(), label="class of one row"):
                labels[draws.draw(st.integers(0, n - 1))] = 4
        seed = draws.draw(st.integers(0, 2**32), label="seed")
        # the one feature is the row index, so each side's rows can be read back
        ds = Dataset(np.arange(n, dtype=np.float64)[:, None], np.asarray(labels), schema, None)
        runs = []
        for fn in (split, ref_split):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sides = fn(ds, RngStream(seed, 22))
            runs.append(([str(w.message) for w in caught],
                         [(bits(side.features), side.labels.tobytes()) for side in sides]))
        assert runs[0] == runs[1]


class TestDatasetLabels:
    @pytest.mark.parametrize("labels, task, message", [
        ([0.5, 1.0, 7.0], "classification", "class index 0.5 outside [0, 2)"),
        ([0, 1, 2], "classification", "class index 2 outside [0, 2)"),
        ([1, -1, 0], "classification", "class index -1 outside [0, 2)"),
        ([0.0, float("nan"), 1.0], "classification", "class index nan outside [0, 2)"),
        ([0.5, float("inf"), 1.0], "regression", "non-finite target"),
        ([0.5, float("nan"), 1.0], "regression", "non-finite target"),
    ], ids=["fraction", "past-the-last", "negative", "nan-class", "inf-target", "nan-target"])
    def test_label_the_task_does_not_allow_is_value_error(self, labels, task, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(np.zeros((3, 1)), labels, numeric_schema(1, task=task), None)

    def test_integral_class_labels_of_any_numeric_dtype_are_allowed(self):
        for labels in ([0.0, 1.0, 1.0], np.array([1, 0, 1], np.int32)):
            assert Dataset(np.zeros((3, 1)), labels, numeric_schema(1), None).n == 3


def build_pair(seed=8, m=40, n_ood=12):
    rng = RngStream(seed, 0)
    schema = numeric_schema(3)
    d_in = Dataset(rng.normal(m, 3), (np.arange(m) % 2).astype(np.int64), schema, None)
    d_ood = Dataset(rng.normal(n_ood, 3), (np.arange(n_ood) % 2).astype(np.int64), schema, None)
    return SplitPair(d_in, d_ood, threshold=0.1628)


class TestSplitPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        pair = build_pair()
        save_split(pair, tmp_path / "split")
        loaded = load_split(tmp_path / "split")
        np.testing.assert_array_equal(loaded.d_in.features, pair.d_in.features)
        np.testing.assert_array_equal(loaded.d_ood.features, pair.d_ood.features)
        np.testing.assert_array_equal(loaded.d_in.labels, pair.d_in.labels)
        assert loaded.threshold == 0.1628
        assert loaded.d_in.schema == pair.d_in.schema

    def test_sidecar_keys(self, tmp_path):
        pair = build_pair()
        save_split(pair, tmp_path / "split")
        meta = json.loads((tmp_path / "split" / "meta.json").read_text())
        assert set(meta) == {"schema-version", "threshold", "m", "n"}
        assert meta["threshold"] == 0.1628
        assert meta["m"] == 40 and meta["n"] == 12

    def test_sidecar_with_detector_settings_still_loads(self, tmp_path):
        pair = build_pair()
        save_split(pair, tmp_path / "split")
        meta_path = tmp_path / "split" / "meta.json"
        meta = json.loads(meta_path.read_text())
        # the keys an older writer added, which nothing reads off a split
        meta.update(detector="openmax", norm="l2", seed=8)
        meta_path.write_text(json.dumps(meta))
        loaded = load_split(tmp_path / "split")
        assert (loaded.threshold, loaded.m, loaded.n) == (0.1628, 40, 12)

    @pytest.mark.parametrize("key, value", [
        ("threshold", "0.1628"), ("threshold", True), ("threshold", float("nan")),
        ("threshold", None), ("m", 40.0), ("m", True), ("n", "12"), ("n", None),
    ])
    def test_ill_typed_sidecar_field_is_format_error(self, tmp_path, key, value):
        save_split(build_pair(), tmp_path / "split")
        meta_path = tmp_path / "split" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps(dict(meta, **{key: value})))
        with pytest.raises(FormatError, match=rf"meta.json: .*got {re.escape(repr(value))}$"):
            load_split(tmp_path / "split")

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

    def test_directory_holds_the_arrays_the_sidecar_and_the_csv_export(self, tmp_path):
        save_split(build_pair(), tmp_path)
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "d_in", "d_in.csv", "d_in/features.npy", "d_in/labels.npy", "d_in/meta.json",
            "d_ood", "d_ood.csv", "d_ood/features.npy", "d_ood/labels.npy", "d_ood/meta.json",
            "meta.json",
        ]

    def test_csv_export_is_never_read(self, tmp_path):
        pair = build_pair()
        save_split(pair, tmp_path)
        for side in ("d_in", "d_ood"):
            (tmp_path / f"{side}.csv").unlink()
        loaded = load_split(tmp_path)
        for side in ("d_in", "d_ood"):
            assert bits(getattr(loaded, side).features) == bits(getattr(pair, side).features)
            assert getattr(loaded, side).labels.tobytes() == getattr(pair, side).labels.tobytes()

    @pytest.mark.parametrize("arrays", ["prefixed arrays", "csvs alone"])
    @pytest.mark.parametrize("load", [load_split, load_split_in])
    def test_split_of_prefixed_arrays_names_the_missing_sidecar(self, tmp_path, load, arrays):
        """A split stored before its sides were dataset directories: with
        its sides' arrays beside the sidecar, or before they were arrays."""
        save_split(build_pair(), tmp_path)
        as_prefixed_arrays(tmp_path)
        if arrays == "csvs alone":
            for path in tmp_path.glob("*.npy"):
                path.unlink()
        missing = re.escape(str(tmp_path / "d_in" / "meta.json"))
        with pytest.raises(FormatError, match=f"^cannot read dataset sidecar {missing}: "):
            load(tmp_path)

    def test_split_of_csvs_alone_names_the_missing_array(self, tmp_path):
        """Side directories that hold no arrays, only their sidecars."""
        save_split(build_pair(), tmp_path)
        for path in tmp_path.glob("*/*.npy"):
            path.unlink()
        missing = re.escape(str(tmp_path / "d_in" / "features.npy"))
        with pytest.raises(FormatError, match=f"^cannot read feature matrix {missing}: "):
            load_split(tmp_path)

    @pytest.mark.parametrize("side, load", [
        ("d_in", load_split), ("d_ood", load_split), ("d_in", load_split_in),
    ], ids=["d_in", "d_ood", "d_in alone"])
    @pytest.mark.parametrize("case", sorted(DATASET_CASES))
    def test_bad_side_array_is_refused_naming_the_file(self, tmp_path, case, side, load):
        save_split(build_pair(), tmp_path)
        path, text = spoil(tmp_path / side, case)
        with pytest.raises(FormatError) as exc:
            load(tmp_path)
        assert str(path) in str(exc.value) and text in str(exc.value)

    @pytest.mark.parametrize("key, side, extra", [
        ("m", "d_in", 1), ("m", "d_in", -1), ("n", "d_ood", 1), ("n", "d_ood", -1),
    ])
    def test_row_count_other_than_the_side_is_refused(self, tmp_path, key, side, extra):
        pair = build_pair()
        save_split(pair, tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps(dict(meta, **{key: meta[key] + extra})))
        rows = getattr(pair, side).n
        with pytest.raises(FormatError, match=re.escape(
                f"{tmp_path}: row counts disagree with the sidecar: "
                f"{side} holds {rows} rows, not {rows + extra}")):
            load_split(tmp_path)

    @pytest.mark.parametrize("change", ["another column", "another task"])
    def test_sides_of_different_schemas_are_refused_naming_the_split(self, tmp_path, change):
        pair = build_pair()
        save_split(pair, tmp_path)
        d_ood = pair.d_ood
        if change == "another column":
            schema = numeric_schema(3, target="z")
        else:
            schema = numeric_schema(3, task="regression")
        save_dataset(Dataset(d_ood.features, d_ood.labels, schema, None), tmp_path / "d_ood")
        with pytest.raises(FormatError, match=re.escape(
                f"{tmp_path}: malformed split: ValueError('split sides must share one schema')")):
            load_split(tmp_path)
        assert load_split_in(tmp_path).schema == pair.d_in.schema

    @pytest.mark.parametrize("text, message", [
        ("x0,x1,x2,y\r\n", "input contained no data"),
        ("x0,x1,x2,y\r\n\r\n\r\n", "input contained no data"),
        ("x0,x1,x3,y\r\n1,2,3,0\r\n", r"d_ood\.csv: header does not match the stored schema"),
    ], ids=["header-only", "blank-lines-only", "other-header"])
    def test_side_without_rows_or_with_another_header_is_refused(self, tmp_path, text, message):
        """By the CSV export's reader in tests/oracles.py."""
        pair = build_pair()
        save_split(pair, tmp_path)
        (tmp_path / "d_ood.csv").write_bytes(text.encode())
        with pytest.raises((ValueError, UserWarning), match=message):
            read_split_csv(tmp_path / "d_ood.csv", pair.d_ood.schema)

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


def first_lines(rows):
    """The line each of ``rows`` starts on, written by csv.writer under a
    header: a quoted line break in a cell moves every later row down."""
    lines, line = [], 2
    for r in rows:
        lines.append(line)
        line += 1 + sum(c.count("\n") for c in r)
    return lines


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
NUMPY_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([" 2 ", "+.5", "1e5", "-0", "5e-324", "1E-5", "\t-3.25"]),
)
# Python's float reads these too, and so does ingest; the CSV export's
# reader, numpy's, refuses them.  "1.5\n" is a cell that csv.writer quotes.
VALUE = st.one_of(NUMPY_VALUE, st.sampled_from(["1_0", "１", "1.5\n"]))
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


def stored_csv(directory, header, rows):
    """``rows`` as written under ``header``, in ``directory``'s ``d_in.csv``."""
    path = Path(directory) / "d_in.csv"
    write_rows(path, header, rows)
    return path


class TestBulkParse:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(CELL, CELL, CELL, VALUE), min_size=1, max_size=15))
    def test_ingest_matches_per_cell_reference(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_rows(path, HEADER, rows)
            ds = encode_features(read_csv(path), REGRESSION, IDENTITY_STATS)
        # identity stats: a missing cell imputes 0.0, a present one keeps its bits
        expected = [[0.0 if c.strip() in MISSING_TOKENS else float(c) for c in r[:3]]
                    for r in rows]
        assert bits(ds.features) == bits(expected)
        assert bits(ds.labels) == bits([float(r[3]) for r in rows])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(NUMPY_VALUE, NUMPY_VALUE, NUMPY_VALUE, NUMPY_VALUE),
                    min_size=1, max_size=15))
    def test_load_matches_per_cell_reference(self, rows):
        """The CSV export's reader in tests/oracles.py reads what ``float`` reads."""
        with tempfile.TemporaryDirectory() as tmp:
            features, labels = read_split_csv(stored_csv(tmp, HEADER, rows), REGRESSION)
        assert bits(features) == bits([[float(c) for c in r[:3]] for r in rows])
        assert bits(labels) == bits([float(r[3]) for r in rows])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(VALUE, VALUE, VALUE, VALUE), min_size=1, max_size=15), BAD)
    def test_ingest_names_first_bad_cell_column_by_column(self, rows, bad):
        rows = with_bad(rows, bad)
        at = first_lines(rows)
        expected = first_error(
            (r[j], HEADER[j], at[i])
            for j in range(4) for i, r in enumerate(rows)
            if j == 3 or r[j] not in MISSING_TOKENS
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_rows(path, HEADER, rows)
            if expected is None:  # only "nan" in features: imputed as missing
                encode_features(read_csv(path), REGRESSION, IDENTITY_STATS)
                return
            with pytest.raises(FormatError) as exc:
                encode_features(read_csv(path), REGRESSION, IDENTITY_STATS)
        assert str(exc.value) == expected

    @pytest.mark.parametrize("schema, labels, message", [
        (REGRESSION, [0.0, np.inf], "non-finite target"),
        (REGRESSION, [0.0, np.nan], "non-finite target"),
        (numeric_schema(3), np.array([0, 2]), "class index 2 outside [0, 2)"),
        (numeric_schema(3), np.array([0, -1]), "class index -1 outside [0, 2)"),
        # class indices of another dtype than int64
        (numeric_schema(3), np.array([0.0, 1.0]), "is 1-D float64, expected 1-D int64"),
        (numeric_schema(3), np.array([0, 1e0], np.float32), "is 1-D float32, expected 1-D int64"),
    ], ids=["inf-target", "nan-target", "class-2-of-2", "class-minus-1", "class-1.0", "class-1e0"])
    def test_label_that_numpy_reads_is_still_refused(self, tmp_path, schema, labels, message):
        side = Dataset(np.zeros((2, 3)), np.zeros(2), schema, None)
        save_split(SplitPair(side, side, threshold=0.5), tmp_path)
        path = tmp_path / "d_in" / "labels.npy"
        np.save(path, np.asarray(labels))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}$"):
            load_split(tmp_path)

    def test_a_warning_from_numpy_refuses_the_file(self, tmp_path, monkeypatch):
        """A numpy that reads a class label ``1.0`` as 1 and only warns (as
        numpy 1.x does) must not make the CSV export's reader in
        tests/oracles.py accept it."""
        path = stored_csv(tmp_path, HEADER, [["1", "2", "3", "0"], ["4", "5", "6", "1.0"]])
        loadtxt = np.loadtxt

        def warning_loadtxt(lines, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return loadtxt([line.replace("1.0", "1") for line in lines], **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        with pytest.raises(DeprecationWarning, match=r"loadtxt\(\): Parsing an integer via a float"):
            read_split_csv(path, numeric_schema(3))


def stored_value():
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([-0.0, 5e-324, 1e308, -1e308]))


def drawn_pair(draws, task, max_width=5):
    """A split of ``task`` whose sides have 1-20 rows each of random finite
    float64 features, 0 to ``max_width`` of them."""
    width = draws.draw(st.integers(0, max_width), label="width")
    schema = numeric_schema(width, task=task)
    label = st.integers(0, 1) if task == "classification" else stored_value()
    sides = []
    for _ in range(2):
        n = draws.draw(st.integers(1, 20))
        row = st.lists(stored_value(), min_size=width, max_size=width)
        features = np.array(draws.draw(st.lists(row, min_size=n, max_size=n)), np.float64)
        labels = draws.draw(st.lists(label, min_size=n, max_size=n))
        sides.append(Dataset(features.reshape(n, width), labels, schema, None))
    return SplitPair(*sides, threshold=0.5)


class TestSplitSide:
    """A stored split side is a dataset directory: what the writer writes
    loads bit-exactly, its CSV export decodes to the same bits, and a
    changed cell that the dataset checks refuse is a FormatError naming
    the file."""

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["classification", "regression"]))
    def test_round_trip_is_bit_exact(self, draws, task):
        pair = drawn_pair(draws, task)
        with tempfile.TemporaryDirectory() as tmp:
            save_split(pair, tmp)
            loaded = load_split(tmp)
        for side in ("d_in", "d_ood"):
            got, want = getattr(loaded, side), getattr(pair, side)
            assert got.features.dtype == np.float64
            assert got.labels.dtype == (np.int64 if task == "classification" else np.float64)
            assert got.features.flags.c_contiguous and got.labels.flags.c_contiguous
            assert bits(got.features) == bits(want.features)
            assert got.labels.tobytes() == want.labels.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(["classification", "regression"]),
           st.sampled_from(["d_in", "d_ood"]))
    def test_changed_cell_is_refused_naming_the_side(self, draws, task, side):
        pair = drawn_pair(draws, task, max_width=3)
        dataset = getattr(pair, side)
        row = draws.draw(st.integers(0, dataset.n - 1), label="row")
        column = draws.draw(st.integers(0, dataset.d), label="column")  # d: the label
        if column < dataset.d or task == "regression":
            values = [np.nan, np.inf, -np.inf]
        else:
            values = [-1, 2]
        value = draws.draw(st.sampled_from(values), label="value")
        name = "labels" if column == dataset.d else "features"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, side, f"{name}.npy")
            save_split(pair, tmp)
            array = np.load(path)
            if name == "labels":
                array[row] = value
            else:
                array[row, column] = value
            np.save(path, array)
            with pytest.raises(FormatError) as exc:
                load_split(tmp)
        assert str(exc.value).startswith(f"{path}: ")

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["classification", "regression"]))
    def test_csv_export_decodes_to_the_arrays(self, draws, task):
        """tests/oracles.py reads the export as strictly as it is written."""
        ds = draws.draw(mixed_dataset(task))
        for pair in (SplitPair(ds, ds.take([0]), threshold=0.5), drawn_pair(draws, task)):
            with tempfile.TemporaryDirectory() as tmp:
                save_split(pair, tmp)
                assert_export_decodes_to_the_arrays(tmp)

    @pytest.mark.parametrize("workload", ["train-wide", "gate-tall", "cli-regression"])
    def test_csv_export_of_the_benchmark_tables(self, tmp_path, workload):
        workloads = load_workloads()
        path, _ = workloads.generate(workload, 3, str(tmp_path))
        dataset = ingest_csv(path, target=workloads.WORKLOADS[workload]["target"])
        save_split(SplitPair(*split(dataset, RngStream(3, 0)), threshold=0.5), tmp_path / "split")
        assert_export_decodes_to_the_arrays(tmp_path / "split")


def assert_export_decodes_to_the_arrays(directory):
    """Each side's CSV export in the stored split ``directory`` decodes to
    the bits of the side's ``.npy`` arrays."""
    pair = load_split(directory)
    for side in ("d_in", "d_ood"):
        dataset = getattr(pair, side)
        features, labels = read_split_csv(Path(directory) / f"{side}.csv", dataset.schema)
        assert features.dtype == dataset.features.dtype and labels.dtype == dataset.labels.dtype
        assert features.shape == dataset.features.shape
        assert features.tobytes() == dataset.features.tobytes()
        assert labels.tobytes() == dataset.labels.tobytes()


class TestRowNumbers:
    """Every error names the row of the file, blank lines counted: the
    header is row 1, as in read_csv's own errors."""

    SCHEMA = Schema((Column("a", "numeric"),), "y", "classification", ("c0", "c1"))
    STATS = {"a": {"median": 0.0, "mean": 0.0, "std": 1.0}}

    def table(self, tmp_path, line21):
        """A table with a blank line 6 and ``line21`` on line 21."""
        lines = ["a,y"] + [f"{i},c{i % 2}" for i in range(25)]
        lines.insert(5, "")
        lines[20] = line21
        return write(tmp_path / "t.csv", "\n".join(lines) + "\n")

    def test_blank_lines_are_left_out_of_the_rows(self, tmp_path):
        raw = read_csv(write(tmp_path / "t.csv", "a,y\n1,c0\n\n\n2,c1\n\n"))
        assert raw.rows == [["1", "c0"], ["2", "c1"]]
        assert raw == RawTable(["a", "y"], [["1", "c0"], ["2", "c1"]])

    def test_ragged_row(self, tmp_path):
        with pytest.raises(FormatError, match="row 21 has 1 fields"):
            read_csv(self.table(tmp_path, "3"))

    def test_reapplied_bad_number(self, tmp_path):
        raw = read_csv(self.table(tmp_path, "oops,c0"))
        with pytest.raises(FormatError,
                           match="^column 'a', row 21: cannot parse 'oops' as a number$"):
            encode_features(raw, self.SCHEMA, self.STATS)

    def test_reapplied_unknown_class(self, tmp_path):
        raw = read_csv(self.table(tmp_path, "3,c9"))
        with pytest.raises(FormatError, match="^row 21: unknown target class 'c9'$"):
            encode_features(raw, self.SCHEMA, self.STATS)

    def test_blank_lines_do_not_change_the_encoding(self, tmp_path):
        lines = ["a,y"] + [f"{0.5 * i},c{i % 2}" for i in range(25)]
        plain = encode_features(read_csv(write(tmp_path / "a.csv", "\n".join(lines))),
                                self.SCHEMA, self.STATS)
        lines.insert(5, "")
        blank = encode_features(read_csv(write(tmp_path / "b.csv", "\n".join(lines))),
                                self.SCHEMA, self.STATS)
        assert bits(blank.features) == bits(plain.features)
        assert blank.labels.tobytes() == plain.labels.tobytes()

    def test_quoted_line_break_counts(self, tmp_path):
        raw = read_csv(write(tmp_path / "t.csv", 'a,y\n"1\n",0\nbad,1\n'))
        assert raw.rows == [["1", "0"], ["bad", "1"]]
        with pytest.raises(FormatError,
                           match="^column 'a', row 4: cannot parse 'bad' as a number$"):
            encode_features(raw, self.SCHEMA, self.STATS)

    def test_quoted_line_break_and_blank_lines_name_the_ragged_row(self, tmp_path):
        with pytest.raises(FormatError, match="row 6 has 1 fields"):
            read_csv(write(tmp_path / "t.csv", 'a,y\n"1\n",0\n\n2,c1\nbad\n'))


EDGE_VALUES = [-0.0, 1e-05, 1e16, 5e-324]
QUOTED = Schema(
    (Column("c", "categorical", ("a,b", 'say "hi"', "two\nlines")), Column("x", "numeric")),
    "y", "classification", ("0", "1"),
)


def writer_case(case, task):
    classification = task == "classification"
    if case == "quoted levels":
        schema = QUOTED if classification else Schema(QUOTED.features, "y", "regression")
        features = [[1.0, 0.0, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0, -1.25],
                    [0.0, 0.0, 1.0, 0.0, 2.0 / 3.0]]
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
    def test_bytes_match_csv_writer_reference(self, tmp_path, monkeypatch, case, task):
        ds = writer_case(case, task)
        reference_write(ds, tmp_path / "reference.csv")
        pair = SplitPair(ds, ds.take([0]), threshold=0.5)
        save_split(pair, tmp_path / "split")
        stored = (tmp_path / "split" / "d_in.csv").read_bytes()
        assert stored == (tmp_path / "reference.csv").read_bytes()

        def per_cell_reader(path):
            raise AssertionError(f"load_split read {path} through read_csv")

        # a split side is parsed by numpy alone, never cell by cell
        monkeypatch.setattr(data, "read_csv", per_cell_reader)
        loaded = load_split(tmp_path / "split").d_in
        assert bits(loaded.features) == bits(ds.features)
        assert bits(loaded.labels) == bits(ds.labels)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_split_round_trip_is_bit_exact(self, tmp_path, task):
        ds = writer_case("edge values", task)
        pair = SplitPair(ds.take([0, 1]), ds.take([2]), threshold=0.5)
        save_split(pair, tmp_path / "split")
        reference_write(pair.d_in, tmp_path / "reference.csv")
        assert (tmp_path / "split" / "d_in.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        loaded = load_split(tmp_path / "split")
        for side in ("d_in", "d_ood"):
            assert bits(getattr(loaded, side).features) == bits(getattr(pair, side).features)
            assert bits(getattr(loaded, side).labels) == bits(getattr(pair, side).labels)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(["classification", "regression"]))
    def test_bytes_match_reference_on_mixed_schemas(self, draws, task):
        """Numeric runs before, between and after one-hot blocks; a block's
        row is exactly one-hot or not (a -0.0, a 0.5, two 1.0s, none)."""
        ds = draws.draw(mixed_dataset(task))
        with tempfile.TemporaryDirectory() as tmp:
            save_split(SplitPair(ds, ds.take([0]), threshold=0.5), tmp)
            reference_write(ds, os.path.join(tmp, "reference.csv"))
            with open(os.path.join(tmp, "d_in.csv"), "rb") as got, \
                    open(os.path.join(tmp, "reference.csv"), "rb") as want:
                assert got.read() == want.read()

    def test_pipeline_sides_match_reference(self, tmp_path):
        """run_experiment on a small gate-tall-shaped table: numeric
        columns with 1% missing cells and categorical columns."""
        from tabcl.bench import ExperimentPlan, run_experiment

        path = gate_tall_like(tmp_path / "input.csv")
        out = tmp_path / "out"
        run_experiment(ExperimentPlan(
            dataset=str(path), target="label", seed=3, out_dir=str(out),
            detector={"detector": "openmax", "tail": 20, "quantile": 0.9},
            tcl={"max_epochs": 2},
        ))
        pair = load_split(out / "split")
        kinds = [c.kind for c in pair.d_in.schema.features]
        assert kinds.count("numeric") == 4 and kinds.count("categorical") == 2
        for name, side in (("d_in.csv", pair.d_in), ("d_ood.csv", pair.d_ood)):
            reference_write(side, tmp_path / name)
            assert (out / "split" / name).read_bytes() == (tmp_path / name).read_bytes()


BLOCK_CELL = st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0, 5e-324])


@st.composite
def mixed_dataset(draw, task):
    """A dataset of numeric and categorical columns in random order, 1-12
    rows; a categorical block's row is one-hot in most rows."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), max_size=7))
    columns = tuple(
        Column(f"x{j}", "numeric") if kind == "numeric"
        else Column(f"c{j}", "categorical", tuple(f"L{k}" for k in range(draw(st.integers(0, 4)))))
        for j, kind in enumerate(kinds)
    )
    classes = ("a", "b", "c") if task == "classification" else ()
    schema = Schema(columns, "y", task, classes)
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(n):
        row = []
        for col in columns:
            if col.kind == "numeric":
                row.append(draw(stored_value()))
                continue
            width = len(col.encoded_names())
            if draw(st.integers(0, 3)):
                hot = draw(st.integers(0, width - 1))
                row.extend(1.0 if k == hot else 0.0 for k in range(width))
            else:
                row.extend(draw(st.lists(BLOCK_CELL, min_size=width, max_size=width)))
        rows.append(row)
    features = np.array(rows, np.float64).reshape(n, schema.encoded_dim)
    label = st.integers(0, 2) if task == "classification" else stored_value()
    return Dataset(features, draw(st.lists(label, min_size=n, max_size=n)), schema, None)


def gate_tall_like(path, n=900, seed=36):
    """A table shaped like the gate-tall benchmark's, smaller: four numeric
    columns with 1% of cells missing (spelled as several tokens), two
    categorical columns leaning on the class, and three classes."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    X = rng.standard_normal((n, 4))
    X[:, 0] += 4.0 * np.cos(2 * np.pi * y / 3)
    X[:, 1] += 4.0 * np.sin(2 * np.pi * y / 3)
    cells = [[f"{v:.6g}" for v in row] for row in X.tolist()]
    for i, j in zip(*np.nonzero(rng.random((n, 4)) < 0.01)):
        cells[i][j] = ["", "NA", "?", "nan"][(i + j) % 4]
    c0 = np.where(rng.random(n) < 0.6, y, rng.integers(0, 5, n))
    c1 = rng.integers(0, 7, n)
    rows = [[*r, f"L{a}", f"M{b}", f"c{k}"] for r, a, b, k in zip(cells, c0, c1, y)]
    write_rows(path, ["x0", "x1", "x2", "x3", "c0", "c1", "label"], rows)
    assert sum(c in MISSING_TOKENS for r in rows for c in r[:4]) > 0
    return path
