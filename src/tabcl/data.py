"""CSV ingestion, schema inference, feature encoding, splitting, persistence.

The pipeline turns a headered CSV into a :class:`Dataset`: an n x d float64
feature matrix (z-scored numerics, one-hot categoricals with an extra
"unknown" slot) plus a label vector.  Standardization statistics are fitted
on one split and can be re-applied to any other.  A dataset round-trips
through a directory of two ``.npy`` arrays plus a JSON sidecar, a split
through a directory of full-precision CSVs plus a JSON sidecar.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_write, fields, read_json, write_json
from .exceptions import ConfigError, FormatError
from .numerics import RngStream, is_finite_number

SCHEMA_VERSION = 2
MISSING_TOKENS = frozenset({"", "?", "NA", "N/A", "nan", "NaN", "null", "None"})
MISSING_CATEGORY = "<missing>"
UNKNOWN_SLOT = "<unknown>"
DEFAULT_CATEGORY_CUTOFF = 20

NUMERIC = "numeric"
CATEGORICAL = "categorical"
CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass(frozen=True)
class Column:
    """One feature column: ``kind`` is "numeric" or "categorical"."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown column kind: {self.kind!r}")
        if self.kind == CATEGORICAL:
            if list(self.categories) != sorted(set(self.categories)):
                raise ValueError(f"categories of {self.name!r} must be sorted and unique")
        elif self.categories:
            raise ValueError(f"numeric column {self.name!r} cannot carry categories")


@dataclass(frozen=True)
class Schema:
    """Feature columns, the single target column, and the task kind."""

    features: tuple[Column, ...]
    target: str
    task: str
    classes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task: {self.task!r}")
        names = [c.name for c in self.features]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature column names")
        if self.target in names:
            raise ValueError(f"target {self.target!r} also listed as a feature")
        if self.task == CLASSIFICATION:
            if len(self.classes) < 2:
                raise ValueError("classification schema needs >= 2 classes")
            if list(self.classes) != sorted(set(self.classes)):
                raise ValueError("classes must be sorted and unique")

    def encoded_names(self) -> tuple[str, ...]:
        """Names of the encoded feature columns, in encoding order."""
        out: list[str] = []
        for col in self.features:
            if col.kind == NUMERIC:
                out.append(col.name)
            else:
                out.extend(f"{col.name}={c}" for c in col.categories)
                out.append(f"{col.name}={UNKNOWN_SLOT}")
        return tuple(out)

    @property
    def encoded_dim(self) -> int:
        return len(self.encoded_names())

    def to_dict(self) -> dict:
        return {
            "features": [
                {"name": c.name, "kind": c.kind, "categories": list(c.categories)}
                for c in self.features
            ],
            "target": self.target,
            "task": self.task,
            "classes": list(self.classes),
        }

    @staticmethod
    def from_dict(d: dict) -> "Schema":
        cols = tuple(
            Column(c["name"], c["kind"], tuple(c.get("categories", ())))
            for c in d["features"]
        )
        return Schema(cols, d["target"], d["task"], tuple(d.get("classes", ())))


@dataclass
class RawTable:
    """A parsed CSV: header plus string-valued rows of uniform arity.

    Within :func:`ingest_csv`, which owns its table, ``_numbers`` keeps the
    values of each numeric column that :func:`infer_schema` parsed, keyed by
    column name, and :func:`encode_features` takes them over instead of
    parsing the column again.  It is None on every other table.
    """

    header: list[str]
    rows: list[list[str]]
    _numbers: dict | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class Dataset:
    """Encoded feature matrix, labels, schema, and (optional) fit statistics.

    ``stats`` maps each numeric column name to its imputation median and the
    mean/std used for z-scoring, all fitted on the split the stats came from.
    """

    features: np.ndarray
    labels: np.ndarray
    schema: Schema
    stats: dict | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite entries")
        if self.features.shape[1] != self.schema.encoded_dim:
            raise ValueError(
                f"feature width {self.features.shape[1]} does not match "
                f"schema encoded dim {self.schema.encoded_dim}"
            )
        self.labels = np.asarray(self.labels)
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must equal the number of rows")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, idx) -> "Dataset":
        """Row subset sharing schema and stats."""
        return Dataset(self.features[idx], self.labels[idx], self.schema, self.stats)


@dataclass
class SplitPair:
    """An in-distribution / out-of-distribution partition of one dataset."""

    d_in: Dataset
    d_ood: Dataset
    threshold: float
    detector: str
    norm: str
    seed: int | None = None

    def __post_init__(self):
        if self.d_in.schema != self.d_ood.schema:
            raise ValueError("split sides must share one schema")

    @property
    def m(self) -> int:
        return self.d_in.n

    @property
    def n(self) -> int:
        return self.d_ood.n

    @property
    def anomalous(self) -> bool:
        """True when the OOD side is at least as large as the ID side."""
        return self.m <= self.n


def read_csv(path, delimiter: str = ",") -> RawTable:
    """Parse a headered CSV, enforcing uniform row arity.

    Raises FormatError naming the offending row when arity differs.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"{path}: empty file") from None
            header = list(map(str.strip, header))
            rows = []
            for i, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise FormatError(
                        f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
                    )
                rows.append(list(map(str.strip, row)))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return RawTable(header, rows)


def _parse_number(cell: str, col: str, row: int) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise FormatError(f"column {col!r}, row {row}: cannot parse {cell!r} as a number") from None
    if not np.isfinite(v):
        raise FormatError(f"column {col!r}, row {row}: non-finite value {cell!r}")
    return v


def _floats(cells) -> np.ndarray | None:
    """``cells`` parsed by Python's ``float`` into one float64 array, or None
    when a cell does not parse or is not finite.

    This is the only parser of numeric cells.  A caller that must name the
    bad cell scans the cells again with :func:`_parse_number`, in the order
    its errors are reported, only after this has failed.
    """
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _take_floats(raw: RawTable, name: str, cells: list[str]) -> np.ndarray | None:
    """``_floats(cells)`` of column ``name``, taken over when
    :func:`infer_schema` already parsed it."""
    if raw._numbers and name in raw._numbers:
        return raw._numbers.pop(name)
    return _floats(cells)


def _class_indices(cells, n_classes: int) -> np.ndarray | None:
    """``cells`` parsed by Python's ``int`` into class indices, or None when
    a cell does not parse or lies outside ``[0, n_classes)``."""
    try:
        labels = np.fromiter(map(int, cells), np.int64, len(cells))
    except (ValueError, OverflowError):
        return None
    return labels if ((labels >= 0) & (labels < n_classes)).all() else None


def infer_schema(
    raw: RawTable,
    target: str,
    task: str | None = None,
    category_cutoff: int = DEFAULT_CATEGORY_CUTOFF,
) -> Schema:
    """Infer column kinds from a raw table.

    A column is numeric iff every non-missing cell parses as a finite number
    AND it has more than ``category_cutoff`` distinct values; otherwise it is
    categorical.  The target column must be named explicitly; the task is
    inferred from the target by the same rule unless given.
    """
    if not target:
        raise ConfigError("no target column designated")
    if target not in raw.header:
        raise ConfigError(f"target column {target!r} not in header {raw.header}")
    if len(raw.rows) < 1:
        raise FormatError("need at least one data row to infer a schema")

    def column_cells(name: str) -> list[str]:
        j = raw.header.index(name)
        return [row[j] for row in raw.rows]

    def classify(name: str, cells: list[str]) -> tuple[str, bool]:
        present = [c for c in cells if c not in MISSING_TOKENS]
        has_missing = len(present) < len(cells)
        if present and len(set(present)) > category_cutoff:
            values = _floats(present)
            if values is not None:
                if raw._numbers is not None:
                    raw._numbers[name] = values
                return NUMERIC, has_missing
        return CATEGORICAL, has_missing

    features = []
    for name in raw.header:
        if name == target:
            continue
        cells = column_cells(name)
        kind, has_missing = classify(name, cells)
        if kind == NUMERIC:
            features.append(Column(name, NUMERIC))
        else:
            vocab = sorted(set(c for c in cells if c not in MISSING_TOKENS))
            if has_missing:
                vocab = sorted(set(vocab) | {MISSING_CATEGORY})
            features.append(Column(name, CATEGORICAL, tuple(vocab)))

    target_cells = column_cells(target)
    if any(c in MISSING_TOKENS for c in target_cells):
        raise FormatError(f"target column {target!r} has missing values")
    if task is None:
        kind, _ = classify(target, target_cells)
        task = REGRESSION if kind == NUMERIC else CLASSIFICATION
    classes = tuple(sorted(set(target_cells))) if task == CLASSIFICATION else ()
    return Schema(tuple(features), target, task, classes)


def encode_features(raw: RawTable, schema: Schema, stats: dict | None = None) -> Dataset:
    """Encode a raw table against a schema.

    Numeric columns are median-imputed and z-scored; categorical columns are
    one-hot with a trailing unknown slot.  When ``stats`` is None the
    imputation medians and standardization moments are fitted on this table
    and attached to the result for reuse on test/OOD data.
    """
    for col in schema.features:
        if col.name not in raw.header:
            raise ValueError(f"schema column {col.name!r} missing from header")
    if schema.target not in raw.header:
        raise ValueError(f"target column {schema.target!r} missing from header")
    if stats is not None:
        expected = {c.name for c in schema.features if c.kind == NUMERIC}
        if set(stats) != expected:
            raise ValueError("stats do not match the schema's numeric columns")

    n = len(raw.rows)
    if n < 1:
        raise ValueError("cannot encode an empty table")
    fitting = stats is None
    fitted: dict[str, dict[str, float]] = {}
    blocks: list[np.ndarray] = []

    for col in schema.features:
        j = raw.header.index(col.name)
        cells = [row[j] for row in raw.rows]
        if col.kind == NUMERIC:
            keep = [i for i, cell in enumerate(cells) if cell not in MISSING_TOKENS]
            parsed = _take_floats(raw, col.name, [cells[i] for i in keep])
            if parsed is None:
                for i in keep:
                    _parse_number(cells[i], col.name, i + 2)
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
                    std = 1.0  # constant column: leave it centred at zero
                fitted[col.name] = {"median": median, "mean": mean, "std": std}
            else:
                s = stats[col.name]
                values[np.isnan(values)] = s["median"]
                mean, std = s["mean"], s["std"]
            blocks.append(((values - mean) / std)[:, None])
        else:
            unknown = len(col.categories)
            index = {c: k for k, c in enumerate(col.categories)}
            index.update(dict.fromkeys(MISSING_TOKENS, index.get(MISSING_CATEGORY, unknown)))
            codes = np.fromiter((index.get(cell, unknown) for cell in cells), np.intp, n)
            onehot = np.zeros((n, unknown + 1))
            onehot[np.arange(n), codes] = 1.0
            blocks.append(onehot)

    jt = raw.header.index(schema.target)
    target_cells = [row[jt] for row in raw.rows]
    if schema.task == CLASSIFICATION:
        lookup = {c: k for k, c in enumerate(schema.classes)}
        try:
            labels = np.fromiter(map(lookup.__getitem__, target_cells), np.int64, n)
        except KeyError:
            i = next(i for i, cell in enumerate(target_cells) if cell not in lookup)
            raise FormatError(f"row {i + 2}: unknown target class {target_cells[i]!r}") from None
    else:
        labels = _take_floats(raw, schema.target, target_cells)
        if labels is None:
            for i, cell in enumerate(target_cells):
                _parse_number(cell, schema.target, i + 2)

    features = np.hstack(blocks) if blocks else np.zeros((n, 0))
    return Dataset(features, labels, schema, fitted if fitting else dict(stats))


def ingest_csv(
    path,
    schema: Schema | None = None,
    target: str | None = None,
    task: str | None = None,
    stats: dict | None = None,
    delimiter: str = ",",
    category_cutoff: int = DEFAULT_CATEGORY_CUTOFF,
) -> Dataset:
    """Read a CSV and encode it.  Infers the schema when none is given,
    which requires an explicit ``target`` column name.  A header that names
    a column twice raises FormatError naming the column."""
    raw = read_csv(path, delimiter=delimiter)
    seen = set()
    for name in raw.header:
        if name in seen:
            raise FormatError(f"{path}: column {name!r} appears twice in the header")
        seen.add(name)
    if schema is None:
        raw._numbers = {}  # nothing else sees raw, so its cells cannot change
        schema = infer_schema(raw, target=target, task=task, category_cutoff=category_cutoff)
    return encode_features(raw, schema, stats=stats)


def check_fractions(fractions) -> tuple[float, float]:
    """``fractions`` as two floats; ValueError unless they are two positive
    proportions summing to 1, each a real number and not a bool."""
    f = tuple(fractions)
    if (len(f) != 2 or not all(is_finite_number(x) for x in f) or any(x <= 0 for x in f)
            or abs(sum(f) - 1.0) > 1e-9):
        raise ValueError("fractions must be two positive values summing to 1")
    return tuple(float(x) for x in f)


def split(dataset: Dataset, fractions, rng: RngStream) -> tuple[Dataset, Dataset]:
    """Deterministic two-way row split, stratified by class for classification.

    ``fractions`` are two positive proportions summing to 1.  Falls back to
    an unstratified split (with a warning) when some class has fewer rows
    than splits.
    """
    f = check_fractions(fractions)
    n = dataset.n

    stratify = dataset.schema.task == CLASSIFICATION
    if stratify:
        _, counts = np.unique(dataset.labels, return_counts=True)
        if counts.min() < 2:
            warnings.warn("a class has fewer rows than splits; splitting unstratified")
            stratify = False

    if stratify:
        first_idx: list[int] = []
        second_idx: list[int] = []
        for cls in np.unique(dataset.labels):
            rows = np.flatnonzero(dataset.labels == cls)
            order = rows[rng.permutation(rows.size)]
            k = int(round(f[0] * rows.size))
            k = min(max(k, 1), rows.size - 1)  # keep every class on both sides
            first_idx.extend(order[:k])
            second_idx.extend(order[k:])
        first = np.sort(np.asarray(first_idx, dtype=np.int64))
        second = np.sort(np.asarray(second_idx, dtype=np.int64))
    else:
        order = rng.permutation(n)
        k = int(round(f[0] * n))
        k = min(max(k, 1), n - 1)
        first = np.sort(order[:k])
        second = np.sort(order[k:])
    return dataset.take(first), dataset.take(second)


def _write_dataset_csv(dataset: Dataset, path) -> None:
    """Write the header through ``csv.writer``, which quotes encoded names
    such as ``c=a,b``, and each body row whole: ``repr`` of every feature,
    then the label, ending in ``csv.writer``'s ``\\r\\n``.  No body cell
    needs quoting."""
    if dataset.schema.task == CLASSIFICATION:
        labels = [str(int(v)) for v in dataset.labels.tolist()]
    else:
        labels = [repr(float(v)) for v in dataset.labels.tolist()]
    with atomic_write(path) as fh:
        csv.writer(fh).writerow(list(dataset.schema.encoded_names()) + [dataset.schema.target])
        fh.writelines(
            ",".join([*map(repr, row), label]) + "\r\n"
            for row, label in zip(dataset.features.tolist(), labels)
        )


def _read_dataset_csv(path, schema: Schema, stats: dict | None) -> Dataset:
    raw = read_csv(path)
    expected = list(schema.encoded_names()) + [schema.target]
    if raw.header != expected:
        raise FormatError(f"{path}: header does not match the stored schema")
    n = len(raw.rows)
    if n == 0:
        raise FormatError(f"{path}: no data rows")
    d = len(expected) - 1
    features = _floats([cell for row in raw.rows for cell in row[:d]])
    label_cells = [row[d] for row in raw.rows]
    if schema.task == CLASSIFICATION:
        labels = _class_indices(label_cells, len(schema.classes))
    else:
        labels = _floats(label_cells)
    if features is None or labels is None:
        _raise_first_bad_cell(path, raw.rows, schema)
    return Dataset(features.reshape(n, d), labels, schema, stats)


def _raise_first_bad_cell(path, rows, schema: Schema) -> None:
    """Raise the FormatError for the first bad cell of a dataset CSV,
    scanning row by row, each row's features before its label."""
    names = schema.encoded_names()
    k = len(schema.classes)
    for i, row in enumerate(rows, start=2):
        for j, name in enumerate(names):
            _parse_number(row[j], name, i)
        label = row[len(names)]
        if schema.task != CLASSIFICATION:
            _parse_number(label, schema.target, i)
            continue
        try:
            index = int(label)
        except ValueError:
            raise FormatError(f"{path}: row {i}: bad class index {label!r}") from None
        if not 0 <= index < k:
            raise FormatError(f"{path}: row {i}: class index {index} outside [0, {k})")


def save_dataset(dataset: Dataset, path) -> None:
    """Persist one dataset as ``features.npy``, ``labels.npy`` and
    ``meta.json`` in directory ``path``.  Labels are stored as int64 class
    indices for classification and as float64 targets for regression."""
    os.makedirs(path, exist_ok=True)
    kind = np.int64 if dataset.schema.task == CLASSIFICATION else np.float64
    arrays = {"features.npy": dataset.features, "labels.npy": dataset.labels.astype(kind)}
    for name, array in arrays.items():
        with atomic_write(os.path.join(path, name), binary=True) as fh:
            np.save(fh, array, allow_pickle=False)
    meta = {
        "schema-version": SCHEMA_VERSION,
        "schema": dataset.schema.to_dict(),
        "stats": dataset.stats,
    }
    write_json(os.path.join(path, "meta.json"), meta, indent=1)


def _load_meta(path) -> tuple[dict, Schema]:
    """A dataset or split sidecar and the schema it stores."""
    meta = read_json(path, "dataset sidecar", version=SCHEMA_VERSION)
    with fields(path, "dataset sidecar"):
        return meta, Schema.from_dict(meta["schema"])


def _load_array(path, what: str, dtype, ndim: int) -> np.ndarray:
    """The one array of a ``.npy`` file, read without unpickling anything,
    which must have exactly ``dtype`` and ``ndim`` dimensions."""
    try:
        with open(path, "rb") as fh:
            array = np.load(fh, allow_pickle=False)
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    except (EOFError, ValueError) as exc:  # empty, truncated, pickled or object dtype
        raise FormatError(f"{path}: corrupt {what}: {exc}") from exc
    if not isinstance(array, np.ndarray):  # an .npz archive
        raise FormatError(f"{path}: not a .npy {what}")
    if array.dtype != dtype or array.ndim != ndim:
        raise FormatError(
            f"{path}: {what} is {array.ndim}-D {array.dtype}, expected {ndim}-D {np.dtype(dtype)}"
        )
    return array


def load_dataset(path) -> Dataset:
    """Inverse of :func:`save_dataset`; features and labels round-trip
    bit-exactly, and every malformed file is a FormatError."""
    meta, schema = _load_meta(os.path.join(path, "meta.json"))
    features = _load_array(os.path.join(path, "features.npy"), "feature matrix", np.float64, 2)
    labels_path = os.path.join(path, "labels.npy")
    if schema.task == CLASSIFICATION:
        labels = _load_array(labels_path, "label vector", np.int64, 1)
        k = len(schema.classes)
        bad = labels[(labels < 0) | (labels >= k)]
        if bad.size:
            raise FormatError(f"{labels_path}: class index {bad[0]} outside [0, {k})")
    else:
        labels = _load_array(labels_path, "label vector", np.float64, 1)
        if not np.isfinite(labels).all():
            raise FormatError(f"{labels_path}: non-finite target")
    # Dataset checks the row counts, the width against the schema and the
    # finiteness of the features.
    with fields(path, "dataset"):
        return Dataset(features, labels, schema, meta.get("stats"))


def save_split(pair: SplitPair, path) -> None:
    """Persist a split as two CSVs plus a JSON sidecar in one directory."""
    os.makedirs(path, exist_ok=True)
    _write_dataset_csv(pair.d_in, os.path.join(path, "d_in.csv"))
    _write_dataset_csv(pair.d_ood, os.path.join(path, "d_ood.csv"))
    meta = {
        "schema-version": SCHEMA_VERSION,
        "threshold": pair.threshold,
        "detector": pair.detector,
        "norm": pair.norm,
        "seed": pair.seed,
        "m": pair.m,
        "n": pair.n,
        "schema": pair.d_in.schema.to_dict(),
        "stats": pair.d_in.stats,
    }
    write_json(os.path.join(path, "meta.json"), meta, indent=1)


def load_split(path) -> SplitPair:
    """Inverse of :func:`save_split`; features, labels, threshold, and
    detector id round-trip bit-exactly."""
    sidecar = os.path.join(path, "meta.json")
    meta, schema = _load_meta(sidecar)
    stats = meta.get("stats")
    d_in = _read_dataset_csv(os.path.join(path, "d_in.csv"), schema, stats)
    d_ood = _read_dataset_csv(os.path.join(path, "d_ood.csv"), schema, stats)
    with fields(sidecar, "dataset sidecar"):
        pair = SplitPair(
            d_in,
            d_ood,
            threshold=float(meta["threshold"]),
            detector=str(meta["detector"]),
            norm=str(meta["norm"]),
            seed=meta.get("seed"),
        )
        if pair.m != meta["m"] or pair.n != meta["n"]:
            raise FormatError(f"{path}: row counts disagree with the sidecar")
    return pair
