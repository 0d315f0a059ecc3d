"""CSV ingestion, schema inference, feature encoding, splitting, persistence.

The pipeline turns a headered CSV into a :class:`Dataset`: an n x d float64
feature matrix (z-scored numerics, one-hot categoricals with an extra
"unknown" slot) plus a label vector.  :func:`ingest_csv` infers the schema
and fits the standardization statistics on the file's rows;
``encode_features(read_csv(path), schema, stats)`` re-applies a saved
schema and statistics to another file.  :func:`read_csv` rejects a header
that names a column twice.  A dataset round-trips through a directory of
two ``.npy`` arrays plus a JSON sidecar.  A split round-trips through a
directory holding one such dataset directory per side, ``d_in`` and
``d_ood``, plus a JSON sidecar of its threshold and row counts.  Input
tables are parsed with Python's ``float``.  A split also writes each side
as a full-precision CSV, an export that nothing here reads back.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass, field
from itertools import filterfalse, repeat

import numpy as np

from .artifacts import atomic_write, fields, read_json, write_json
from .exceptions import ConfigError, FormatError
from .numerics import RngStream, is_finite_number, is_integer

SCHEMA_VERSION = 2
MISSING_TOKENS = frozenset({"", "?", "NA", "N/A", "nan", "NaN", "null", "None"})
MISSING_CATEGORY = "<missing>"
UNKNOWN_SLOT = "<unknown>"
CATEGORY_CUTOFF = 20  # a column with at most this many distinct values is categorical
SPLIT_SHARE = 0.8  # the share of each group's rows that :func:`split` puts on its first side
_PREFIX = 64  # cells infer_schema reads first to settle a column's distinct count

NUMERIC = "numeric"
CATEGORICAL = "categorical"
CLASSIFICATION = "classification"
REGRESSION = "regression"
# Each task's stored label type: class indices or real targets.
LABEL_TYPES = {CLASSIFICATION: np.int64, REGRESSION: np.float64}


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

    def encoded_names(self) -> tuple[str, ...]:
        """The column's name if numeric, else one ``name=category`` each
        and the unknown slot."""
        if self.kind == NUMERIC:
            return (self.name,)
        return (*(f"{self.name}={c}" for c in self.categories), f"{self.name}={UNKNOWN_SLOT}")


@dataclass(frozen=True)
class Schema:
    """Feature columns, the single target column, and the task kind.  Two
    columns with one encoded name (``a`` of category ``b`` and ``a=b``) raise
    FormatError naming both."""

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
        owner = {self.target: self.target}
        for col in self.features:
            for name in col.encoded_names():
                if name in owner:
                    raise FormatError(
                        f"columns {owner[name]!r} and {col.name!r} both encode to {name!r}")
                owner[name] = col.name
        if self.task == CLASSIFICATION:
            if len(self.classes) < 2:
                raise ValueError("classification schema needs >= 2 classes")
            if list(self.classes) != sorted(set(self.classes)):
                raise ValueError("classes must be sorted and unique")

    def encoded_names(self) -> tuple[str, ...]:
        """Names of the encoded feature columns, in encoding order."""
        return tuple(name for col in self.features for name in col.encoded_names())

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
    On a table from :func:`read_csv`, ``_lines`` holds the line of the file
    that each of ``rows`` starts on, which errors name as its row.
    """

    header: list[str]
    rows: list[list[str]]
    _numbers: dict | None = field(default=None, init=False, repr=False, compare=False)
    _lines: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    def _row_number(self, i: int) -> int:
        """The row of the file that ``rows[i]`` starts on; the header is row 1."""
        return i + 2 if self._lines is None else self._lines[i]


def _label_error(labels: np.ndarray, schema: Schema) -> str | None:
    """Why ``labels`` cannot label rows of ``schema``'s task, or None.  A
    class label is an integral class index in ``[0, number of classes)``,
    of any numeric dtype; a regression target is finite."""
    if schema.task == REGRESSION:
        return None if np.isfinite(labels).all() else "non-finite target"
    if labels.dtype.kind not in "biuf":
        return f"class labels must be numbers, not {labels.dtype}"
    k = len(schema.classes)
    # np.isin(labels, np.arange(k)), which may import numpy.ma
    bad = labels[~((labels >= 0) & (labels < k) & (np.floor(labels) == labels))]
    return f"class index {bad[0]} outside [0, {k})" if bad.size else None


def _stats_error(stats, schema: Schema) -> str | None:
    """Why ``stats`` cannot be the fit statistics of ``schema``'s rows, or
    None: they are None, or a finite ``median``, ``mean`` and ``std > 0``
    for each numeric column and no other column."""
    numeric = sorted(c.name for c in schema.features if c.kind == NUMERIC)
    if stats is not None and (not isinstance(stats, dict) or set(stats) != set(numeric)):
        return f"stats must be null or a table of the numeric columns {numeric}"
    for name, s in (stats or {}).items():
        if not (isinstance(s, dict) and set(s) == {"median", "mean", "std"}
                and all(map(is_finite_number, s.values())) and s["std"] > 0):
            return f"stats of column {name!r} need a finite median, mean and std > 0, got {s!r}"
    return None


@dataclass(eq=False)  # holds arrays: compared by identity
class Dataset:
    """Encoded feature matrix, labels, schema, and (optional) fit statistics.

    The features must be finite and the labels those :func:`_label_error`
    allows, or construction raises ValueError.

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
        error = _label_error(self.labels, self.schema)
        if error:
            raise ValueError(error)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, idx) -> "Dataset":
        """Row subset sharing schema and stats.  ``idx`` is an index array, so
        the subset's rows are a copy: a caller that keeps only the subset can
        let this dataset go."""
        return Dataset(self.features[idx], self.labels[idx], self.schema, self.stats)


@dataclass(eq=False)  # holds arrays: compared by identity
class SplitPair:
    """An in-distribution / out-of-distribution partition of one dataset and
    the score threshold that made it.  Each side holds a copy of its rows
    (:meth:`Dataset.take`), not a view of the partitioned dataset.  The
    detector's settings are not part of it: ``scores.json`` and the report
    record them."""

    d_in: Dataset
    d_ood: Dataset
    threshold: float

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
    """Parse a headered UTF-8 CSV, with or without a byte-order mark,
    enforcing one name per column and uniform row arity.  Blank lines are
    skipped; a row is numbered by the line it starts on, the header's being 1.

    Raises FormatError naming the first repeated column name, the offending
    row when arity differs, and the file when it cannot be read, decoded or
    parsed as CSV.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"the delimiter must be one character, got {delimiter!r}")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"{path}: empty file") from None
            header = list(map(str.strip, header))
            if len(set(header)) < len(header):
                name = next(h for i, h in enumerate(header) if h in header[:i])
                raise FormatError(f"{path}: column {name!r} appears twice in the header")
            rows, lines, line = [], [], reader.line_num
            for row in reader:
                first, line = line + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    raise FormatError(
                        f"{path}: row {first} has {len(row)} fields, expected {len(header)}"
                    )
                rows.append(list(map(str.strip, row)))
                lines.append(first)
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    table = RawTable(header, rows)
    table._lines = lines
    return table


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

    A caller that must name the bad cell scans the cells again with
    :func:`_parse_number`, in the order its errors are reported, only after
    this has failed.
    """
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _present(cells) -> list[str]:
    """The cells that are not a missing token, in order."""
    return list(filterfalse(MISSING_TOKENS.__contains__, cells))


def _take_floats(raw: RawTable, name: str, cells, complete: bool = True) -> np.ndarray | None:
    """``_floats`` of column ``name``'s present cells, all of them when
    ``complete``, taken over when :func:`infer_schema` already parsed them.
    Only a column parsed here builds the list of its present cells."""
    if raw._numbers and name in raw._numbers:
        return raw._numbers.pop(name)
    return _floats(cells if complete else _present(cells))


def infer_schema(raw: RawTable, target: str, task: str | None = None) -> Schema:
    """Infer column kinds from a raw table.

    A column is numeric iff every non-missing cell parses as a finite number
    AND it has more than ``CATEGORY_CUTOFF`` distinct values; otherwise it is
    categorical.  The target column must be named explicitly; the task is
    inferred from the target by the same rule unless given.  When a
    column's first 64 cells already hold more distinct values than the
    cutoff, the set of all its cells is built only if it stays categorical.
    """
    if not target:
        raise ConfigError("no target column designated")
    if target not in raw.header:
        raise ConfigError(f"target column {target!r} not in header {raw.header}")
    if len(raw.rows) < 1:
        raise FormatError("need at least one data row to infer a schema")

    def classify(name: str, cells) -> Column:
        # More distinct values than the cutoff among the first cells settle
        # the count, so only a column that may stay categorical builds the
        # set of all its cells.
        distinct = set(cells[:_PREFIX]) - MISSING_TOKENS
        if not distinct or len(distinct) <= CATEGORY_CUTOFF:
            distinct = set(cells) - MISSING_TOKENS
        has_missing = not MISSING_TOKENS.isdisjoint(cells)
        if distinct and len(distinct) > CATEGORY_CUTOFF:
            values = _floats(_present(cells) if has_missing else cells)
            if values is not None:
                if raw._numbers is not None:
                    raw._numbers[name] = values
                return Column(name, NUMERIC)
            distinct = set(cells) - MISSING_TOKENS
        if has_missing:
            distinct.add(MISSING_CATEGORY)
        return Column(name, CATEGORICAL, tuple(sorted(distinct)))

    columns = list(zip(*raw.rows, strict=True))  # one transpose; ValueError if ragged
    features = tuple(classify(name, cells)
                     for name, cells in zip(raw.header, columns, strict=True) if name != target)
    target_cells = columns[raw.header.index(target)]
    if not MISSING_TOKENS.isdisjoint(target_cells):
        raise FormatError(f"target column {target!r} has missing values")
    if task is None:
        task = REGRESSION if classify(target, target_cells).kind == NUMERIC else CLASSIFICATION
    classes = tuple(sorted(set(target_cells))) if task == CLASSIFICATION else ()
    return Schema(features, target, task, classes)


def encode_features(raw: RawTable, schema: Schema, stats: dict | None = None) -> Dataset:
    """Encode a raw table against a schema.

    Numeric columns are median-imputed and z-scored; categorical columns are
    one-hot with a trailing unknown slot.  A numeric column that holds a
    missing token finds its missing cells with one mask, one C-level pass
    over the column; a column without one skips the mask.  A cell that
    does not parse is named by its row of the file, even after missing
    cells.  When ``stats`` is None the
    imputation medians and standardization moments are fitted on this table
    and attached to the result for reuse on test/OOD data.
    """
    for col in schema.features:
        if col.name not in raw.header:
            raise ValueError(f"schema column {col.name!r} missing from header")
    if schema.target not in raw.header:
        raise ValueError(f"target column {schema.target!r} missing from header")
    if error := _stats_error(stats, schema):
        raise ValueError(error)

    n = len(raw.rows)
    if n < 1:
        raise ValueError("cannot encode an empty table")
    fitting = stats is None
    fitted: dict[str, dict[str, float]] = {}
    blocks: list[np.ndarray] = []

    columns = list(zip(*raw.rows, strict=True))
    for col in schema.features:
        cells = columns[raw.header.index(col.name)]
        if col.kind == NUMERIC:
            complete = MISSING_TOKENS.isdisjoint(cells)
            keep = slice(None) if complete else ~np.fromiter(
                map(MISSING_TOKENS.__contains__, cells), bool, n)
            parsed = _take_floats(raw, col.name, cells, complete)
            if parsed is None:
                for i in np.arange(n)[keep].tolist():
                    _parse_number(cells[i], col.name, raw._row_number(i))
            values = np.full(n, np.nan)
            values[keep] = parsed
            if fitting:
                present = values[~np.isnan(values)]
                if present.size == 0:
                    raise FormatError(f"column {col.name!r} is entirely missing")
                # large values overflow the sums and squares behind these
                with np.errstate(over="ignore", invalid="ignore"):
                    median = _median(present)
                    values[np.isnan(values)] = median
                    mean = float(values.mean())
                    std = float(values.std())
                if not np.isfinite([median, mean, std]).all():
                    raise FormatError(f"column {col.name!r}: values too large to standardize")
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
            codes = np.fromiter(map(index.get, cells, repeat(unknown)), np.intp, n)
            onehot = np.zeros((n, unknown + 1))
            onehot[np.arange(n), codes] = 1.0
            blocks.append(onehot)

    target_cells = columns[raw.header.index(schema.target)]
    if schema.task == CLASSIFICATION:
        lookup = {c: k for k, c in enumerate(schema.classes)}
        try:
            labels = np.fromiter(map(lookup.__getitem__, target_cells), np.int64, n)
        except KeyError:
            i = next(i for i, cell in enumerate(target_cells) if cell not in lookup)
            raise FormatError(
                f"row {raw._row_number(i)}: unknown target class {target_cells[i]!r}") from None
    else:
        labels = _take_floats(raw, schema.target, target_cells)
        if labels is None:
            for i, cell in enumerate(target_cells):
                _parse_number(cell, schema.target, raw._row_number(i))

    features = np.hstack(blocks) if blocks else np.zeros((n, 0))
    return Dataset(features, labels, schema, fitted if fitting else dict(stats))


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` bit for bit, for a non-empty float64
    vector without NaN: numpy's mean of the middle one or two values, a sum
    from ``+0.0``, which also makes the sign of a zero median the same
    whichever zero the partition puts there.  numpy's own imports
    ``numpy.ma``."""
    h, odd = divmod(values.size, 2)
    part = np.partition(values, [h - 1 + odd, h])
    return float(0.0 + part[h] if odd else (0.0 + part[h - 1] + part[h]) / 2)


def ingest_csv(path, target: str, task: str | None = None, delimiter: str = ",") -> Dataset:
    """Read a CSV, infer its schema around the ``target`` column and encode
    it, fitting the statistics on its rows.  A saved schema and statistics
    are re-applied to another file by
    ``encode_features(read_csv(path), schema, stats)``."""
    raw = read_csv(path, delimiter=delimiter)
    raw._numbers = {}  # nothing else sees raw, so its cells cannot change
    schema = infer_schema(raw, target=target, task=task)
    return encode_features(raw, schema)


def split(dataset: Dataset, rng: RngStream) -> tuple[Dataset, Dataset]:
    """Deterministic two-way row split, stratified by class for classification.

    Each group of rows, one per class or else all rows, is permuted and cut
    at :data:`SPLIT_SHARE` of its rows.  Classification falls back to one
    group (with a warning) when some class has fewer rows than splits.
    """
    groups = [np.arange(dataset.n)]
    if dataset.schema.task == CLASSIFICATION:
        classes, counts = np.unique(dataset.labels, return_counts=True)
        if counts.min() < 2:
            warnings.warn("a class has fewer rows than splits; splitting unstratified")
        else:
            groups = [np.flatnonzero(dataset.labels == cls) for cls in classes]
    sides = ([], [])
    for rows in groups:
        order = rows[rng.permutation(rows.size)]
        k = int(round(SPLIT_SHARE * rows.size))
        k = min(max(k, 1), rows.size - 1)  # keep every group on both sides
        sides[0].append(order[:k])
        sides[1].append(order[k:])
    first, second = (np.sort(np.concatenate(side)) for side in sides)
    return dataset.take(first), dataset.take(second)


def _encoded_blocks(schema: Schema) -> list[tuple[int, int, bool]]:
    """``(start, stop, categorical)`` spans of the encoded columns, in order:
    each run of adjacent numeric columns, and each categorical column's
    one-hot block."""
    spans, start = [], 0
    for col in schema.features:
        stop = start + len(col.encoded_names())
        if col.kind == NUMERIC and spans and not spans[-1][2]:
            spans[-1] = (spans[-1][0], stop, False)
        else:
            spans.append((start, stop, col.kind == CATEGORICAL))
        start = stop
    return spans


def _block_texts(block: np.ndarray, categorical: bool):
    """One text per row of ``block``: the ``repr`` of each of its cells,
    joined by commas.  A numeric run is ``repr``'d cell by cell, lazily.  A
    categorical block's row whose cells are bit for bit +0.0 but for one 1.0
    takes its text from a table of the block's one-hot rows; any other row
    (a -0.0, a 0.5, two 1.0s or none) is ``repr``'d cell by cell."""
    if not categorical:
        return (",".join(map(repr, row)) for row in block.tolist())
    ones = block == 1.0
    zeros = (block == 0.0) & ~np.signbit(block)
    exact = (ones.sum(axis=1) == 1) & (zeros.sum(axis=1) == block.shape[1] - 1)
    table = [",".join(map(repr, row)) for row in np.eye(block.shape[1]).tolist()]
    texts = list(map(table.__getitem__, ones.argmax(axis=1).tolist()))
    for i in np.flatnonzero(~exact).tolist():
        texts[i] = ",".join(map(repr, block[i].tolist()))
    return texts


def _write_dataset_csv(dataset: Dataset, path) -> None:
    """Write the header through ``csv.writer``, which quotes encoded names
    such as ``c=a,b``, then stream the body one line per row: ``repr`` of
    every feature, then of the label cast to its task's type, ending in
    ``csv.writer``'s ``\\r\\n``.  A line is joined from the texts of the
    row's blocks (:func:`_encoded_blocks`, :func:`_block_texts`), so a
    one-hot block costs one table lookup instead of a ``repr`` per cell; the
    bytes are the same.  No body cell needs quoting."""
    schema = dataset.schema
    labels = dataset.labels.astype(LABEL_TYPES[schema.task]).tolist()
    blocks = [_block_texts(dataset.features[:, start:stop], categorical)
              for start, stop, categorical in _encoded_blocks(schema)]
    with atomic_write(path) as fh:
        csv.writer(fh).writerow(list(schema.encoded_names()) + [schema.target])
        fh.writelines(map(",".join, zip(*blocks, map("{!r}\r\n".format, labels))))


def save_dataset(dataset: Dataset, path) -> None:
    """Persist one dataset as ``features.npy``, ``labels.npy`` and
    ``meta.json`` in directory ``path``.  Labels are stored as int64 class
    indices for classification and as float64 targets for regression."""
    os.makedirs(path, exist_ok=True)
    labels = dataset.labels.astype(LABEL_TYPES[dataset.schema.task])
    for name, array in (("features", dataset.features), ("labels", labels)):
        with atomic_write(os.path.join(path, f"{name}.npy"), binary=True) as fh:
            np.save(fh, array, allow_pickle=False)
    meta = {
        "schema-version": SCHEMA_VERSION,
        "schema": dataset.schema.to_dict(),
        "stats": dataset.stats,
    }
    write_json(os.path.join(path, "meta.json"), meta, indent=1)


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
    bit-exactly, and every malformed file is a FormatError naming it."""
    sidecar = os.path.join(path, "meta.json")
    meta = read_json(sidecar, "dataset sidecar", version=SCHEMA_VERSION)
    if "schema" not in meta and "threshold" in meta:
        raise FormatError(f"{path} is a split, not a dataset: pass its side "
                          f"{os.path.join(path, 'd_in')} or {os.path.join(path, 'd_ood')}")
    with fields(sidecar, "dataset sidecar"):
        schema = Schema.from_dict(meta["schema"])
    stats = meta.get("stats")
    if error := _stats_error(stats, schema):
        raise FormatError(f"{sidecar}: {error}")
    features_path = os.path.join(path, "features.npy")
    labels_path = os.path.join(path, "labels.npy")
    features = _load_array(features_path, "feature matrix", np.float64, 2)
    labels = _load_array(labels_path, "label vector", LABEL_TYPES[schema.task], 1)
    error = _label_error(labels, schema)
    if error:
        raise FormatError(f"{labels_path}: {error}")
    # Dataset checks the row counts, the width against the schema and the
    # finiteness of the features.
    with fields(features_path, "dataset"):
        return Dataset(features, labels, schema, stats)


def save_split(pair: SplitPair, path) -> None:
    """Persist a split in directory ``path``: each side as the dataset
    directory ``d_in`` or ``d_ood`` (:func:`save_dataset`), and a sidecar
    ``meta.json`` holding the threshold and the sides' row counts ``m`` and
    ``n``.  Each side is also exported as ``<side>.csv``, which nothing
    reads back."""
    for side, dataset in (("d_in", pair.d_in), ("d_ood", pair.d_ood)):
        save_dataset(dataset, os.path.join(path, side))
        _write_dataset_csv(dataset, os.path.join(path, f"{side}.csv"))
    meta = {"schema-version": SCHEMA_VERSION, "threshold": pair.threshold, "m": pair.m, "n": pair.n}
    write_json(os.path.join(path, "meta.json"), meta, indent=1)


def load_split(path) -> SplitPair:
    """Inverse of :func:`save_split`: the threshold, and each side as
    :func:`load_dataset` reads it, round-trip bit-exactly.  The sidecar's
    ``threshold`` must be a finite number, its ``m`` and ``n`` the row
    counts of the ``d_in`` and ``d_ood`` sides, and the two sides' schemas
    one schema; every malformed file is a FormatError naming it."""
    threshold, (d_in, d_ood) = _load_sides(path, ("d_in", "d_ood"))
    with fields(path, "split"):  # sides of different schemas
        return SplitPair(d_in, d_ood, threshold)


def load_split_in(path) -> Dataset:
    """:func:`load_split`'s ``d_in`` side, checked against ``m``, without
    reading the ``d_ood`` directory."""
    return _load_sides(path, ("d_in",))[1][0]


def _load_sides(path, sides) -> tuple[float, list[Dataset]]:
    """The split sidecar's threshold, and each of ``sides`` as
    :func:`load_dataset` reads it, whose rows must be the sidecar's count."""
    sidecar = os.path.join(path, "meta.json")
    meta = read_json(sidecar, "split sidecar", version=SCHEMA_VERSION)
    with fields(sidecar, "split sidecar"):
        threshold, counts = meta["threshold"], {"d_in": meta["m"], "d_ood": meta["n"]}
    if not is_finite_number(threshold):
        raise FormatError(f"{sidecar}: threshold must be a finite number, got {threshold!r}")
    for count in counts.values():
        if not is_integer(count):  # 40.0 would pass the comparison with the sides' rows
            raise FormatError(f"{sidecar}: row counts must be integers, got {count!r}")
    loaded = [load_dataset(os.path.join(path, side)) for side in sides]
    for side, dataset in zip(sides, loaded):
        if dataset.n != counts[side]:
            raise FormatError(f"{path}: row counts disagree with the sidecar: "
                              f"{side} holds {dataset.n} rows, not {counts[side]}")
    return float(threshold), loaded
