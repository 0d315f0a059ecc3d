"""Shared synthetic-data builders and scoring helpers for the test suite."""

import base64
import csv
import importlib.util
import io
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
from hypothesis import settings

from tabcl.data import Column, Dataset, Schema, _write_dataset_csv, load_dataset
from tabcl.numerics import RngStream

# Every run draws the same examples: the draws derive from each test's own
# definition rather than a random seed, and no example database carries
# failures from one run into the next.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def auroc(scores, is_positive):
    """Rank-based AUROC with midrank tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    is_positive = np.asarray(is_positive, dtype=bool)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    ranks[order] = np.arange(1, scores.size + 1)
    s = scores[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[j + 1] == s[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    n_pos = int(is_positive.sum())
    n_neg = scores.size - n_pos
    return float((ranks[is_positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def load_workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``: its input
    generators and settings."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def numeric_schema(d, classes=("0", "1"), task="classification", target="y"):
    cols = tuple(Column(f"x{i}", "numeric") for i in range(d))
    if task == "classification":
        return Schema(cols, target, task, tuple(classes))
    return Schema(cols, target, task)


def shifted_cluster_data(n_id=9000, n_ood=1000, d=6, sep=4.0, shift=4.0, seed=1234):
    """Two linearly separable classes plus a mean-shifted contaminating
    cluster whose labeling rule is flipped.

    Returns (Dataset, is_ood mask).  The shift is ``shift`` standard
    deviations along a direction orthogonal to the class structure.
    """
    rng = RngStream(seed, 0)
    y_id = (rng.uniform(n_id, 1)[:, 0] < 0.5).astype(np.int64)
    x_id = rng.normal(n_id, d)
    x_id[:, 0] += sep * (2 * y_id - 1)
    x_ood = rng.normal(n_ood, d)
    x_ood[:, 1] += shift
    y_ood = (x_ood[:, 0] < 0).astype(np.int64)  # flipped labeling rule

    X = np.vstack([x_id, x_ood])
    y = np.concatenate([y_id, y_ood])
    is_ood = np.zeros(len(X), dtype=bool)
    is_ood[n_id:] = True
    perm = RngStream(seed, 1).permutation(len(X))
    dataset = Dataset(X[perm], y[perm], numeric_schema(d), None)
    return dataset, is_ood[perm]


def xor_data(n=4000, d=2, seed=2024):
    """Gaussian blob labeled by the sign of x0*x1: a nonlinear decision
    boundary no linear model can beat chance on."""
    rng = RngStream(seed, 0)
    X = rng.normal(n, d)
    y = ((X[:, 0] * X[:, 1]) > 0).astype(np.int64)
    return X, y


def two_cluster_matrix(n=600, d=5, gap=4.0, seed=3):
    """Unlabeled two-cluster matrix for unsupervised training tests."""
    rng = RngStream(seed, 0)
    X = rng.normal(n, d)
    X[: n // 2, 0] -= gap / 2
    X[n // 2 :, 0] += gap / 2
    return X


def write_classification_csv(path, X, y, target="label"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(X.shape[1])] + [target])
        for i in range(len(X)):
            writer.writerow([repr(float(v)) for v in X[i]] + [f"c{int(y[i])}"])


def write_regression_csv(path, X, y, target="value"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(X.shape[1])] + [target])
        for i in range(len(X)):
            writer.writerow([repr(float(v)) for v in X[i]] + [repr(float(y[i]))])


def params_block(values, dtype="<f4"):
    """``values`` as a model file's ``params``: the base64 text of their
    bytes in ``dtype``.  A value beyond a float32 ``dtype``'s range is
    written as the infinity the cast makes of it."""
    with np.errstate(over="ignore"):
        data = np.asarray(values, np.float64).astype(dtype).tobytes()
    return base64.b64encode(data).decode("ascii")


# Numeric columns whose z-score moments overflow float64: the squares inside
# the std of 1e200 ... 3e201, and the sums inside the mean (and the median's
# middle pair) of 1.00e308 ... 1.29e308.  Thirty distinct values each, so
# schema inference calls them numeric.
TOO_LARGE_COLUMNS = {
    "std overflows": [k * 1e200 for k in range(1, 31)],
    "mean overflows": [1e308 + k * 1e306 for k in range(30)],
}


def _resave(name, change, names=None):
    """A change that loads ``name``, changes the array, or casts it when
    ``change`` is a type, and saves it back with pickling allowed.  Its
    refusal names ``names``, by default the changed file."""
    def apply(directory):
        path = directory / name
        array = np.load(path)
        array = array.astype(change) if isinstance(change, type) else change(array)
        np.save(path, array, allow_pickle=True)
        return directory / (names or name)
    return apply


def _unlink(name):
    def apply(directory):
        (directory / name).unlink()
        return directory / name
    return apply


def _rewrite(name, change):
    """A change that replaces the bytes of ``name`` with ``change(bytes)``."""
    def apply(directory):
        path = directory / name
        path.write_bytes(change(path.read_bytes()))
        return path
    return apply


def _restat(change):
    """A change that replaces the sidecar's ``stats`` with ``change(stats)``,
    given valid statistics of the schema's numeric columns when the sidecar
    stores none."""
    def apply(directory):
        path = directory / "meta.json"
        meta = json.loads(path.read_text())
        stats = meta["stats"] or {c["name"]: {"median": 0.0, "mean": 0.0, "std": 1.0}
                                  for c in meta["schema"]["features"] if c["kind"] == "numeric"}
        path.write_text(json.dumps(dict(meta, stats=change(stats))))
        return path
    return apply


def _set_stat(key, value):
    """A change of the statistics that sets the first column's ``key`` to
    ``value``, or removes the key when ``value`` is None."""
    def change(stats):
        first = next(iter(stats))
        entry = {k: v for k, v in stats[first].items() if k != key}
        return {**stats, first: entry if value is None else {**entry, key: value}}
    return change


def _as_v1(directory):
    """The directory as the CSV format of schema-version 1 stored it."""
    dataset = load_dataset(directory)
    for name in ("features.npy", "labels.npy"):
        (directory / name).unlink()
    _write_dataset_csv(dataset, directory / "data.csv")
    meta = json.loads((directory / "meta.json").read_text())
    (directory / "meta.json").write_text(json.dumps(dict(meta, **{"schema-version": 1})))
    return directory / "meta.json"


def _as_pickle(npy: bytes) -> bytes:
    return pickle.dumps(np.load(io.BytesIO(npy)))


def _as_npz(npy: bytes) -> bytes:
    out = io.BytesIO()
    np.savez(out, features=np.load(io.BytesIO(npy)))
    return out.getvalue()


def _set_first(value):
    def change(a):
        a = a.copy()
        a.flat[0] = value
        return a
    return change


def _width_text(extra: int):
    """The refusal of a feature matrix ``extra`` columns wider than the
    schema that the directory's sidecar stores."""
    def text(directory):
        schema = Schema.from_dict(json.loads((directory / "meta.json").read_text())["schema"])
        dim = schema.encoded_dim
        return f"feature width {dim + extra} does not match schema encoded dim {dim}"
    return text


# Changes to a stored dataset directory of a classification task, whether
# ingested or one side of a split, each refused with a FormatError:
# case -> (the change, which returns the file its refusal names; text the
# refusal holds, or a function of the directory that gives it).
DATASET_CASES = {
    "features missing": (_unlink("features.npy"), "cannot read feature matrix"),
    "labels missing": (_unlink("labels.npy"), "cannot read label vector"),
    "features empty": (_rewrite("features.npy", lambda b: b""), "corrupt feature matrix"),
    "labels empty": (_rewrite("labels.npy", lambda b: b""), "corrupt label vector"),
    "features truncated": (_rewrite("features.npy", lambda b: b[:-8]), "corrupt feature matrix"),
    "labels cut in header": (_rewrite("labels.npy", lambda b: b[:20]), "corrupt label vector"),
    "features pickled": (_rewrite("features.npy", _as_pickle), "corrupt feature matrix"),
    "features object dtype": (_resave("features.npy", object), "corrupt feature matrix"),
    "labels object dtype": (_resave("labels.npy", object), "corrupt label vector"),
    "features npz archive": (_rewrite("features.npy", _as_npz), "not a .npy feature matrix"),
    "features 1-D": (_resave("features.npy", lambda a: a[:, 0]),
                     "is 1-D float64, expected 2-D float64"),
    "features float32": (_resave("features.npy", np.float32),
                         "is 2-D float32, expected 2-D float64"),
    "features too narrow": (_resave("features.npy", lambda a: a[:, 1:]), _width_text(-1)),
    "features too wide": (_resave("features.npy", lambda a: a[:, [0, *range(a.shape[1])]]),
                          _width_text(1)),
    "features no rows": (_resave("features.npy", lambda a: a[:0]), "non-empty"),
    "features one row more": (_resave("features.npy", lambda a: a[[0, *range(len(a))]]),
                              "labels length"),
    "features non-finite": (_resave("features.npy", _set_first(np.nan)), "non-finite"),
    "features infinite": (_resave("features.npy", _set_first(-np.inf)), "non-finite"),
    "labels 2-D": (_resave("labels.npy", lambda a: a[:, None]),
                   "is 2-D int64, expected 1-D int64"),
    "labels one short": (_resave("labels.npy", lambda a: a[:-1], names="features.npy"),
                         "labels length"),
    "labels float64": (_resave("labels.npy", np.float64), "is 1-D float64, expected 1-D int64"),
    "labels int32": (_resave("labels.npy", np.int32), "is 1-D int32, expected 1-D int64"),
    "class index out of range": (_resave("labels.npy", _set_first(-1)), "class index -1 outside"),
    "schema-version 1 with data.csv": (_as_v1, "schema-version 1, expected 2"),
    "stats a string": (_restat(lambda s: "garbage"), "stats must be null or a table"),
    "stats a list": (_restat(lambda s: [1, 2]), "stats must be null or a table"),
    "stats of one column with a string median": (
        _restat(lambda s: {"x0": {"median": "x"}}), "stats must be null or a table"),
    "stats one column short": (_restat(lambda s: dict(list(s.items())[1:])),
                               "stats must be null or a table"),
    "stats with a string median": (_restat(_set_stat("median", "x")), "finite median, mean"),
    "stats with a NaN mean": (_restat(_set_stat("mean", float("nan"))), "finite median, mean"),
    "stats with a zero std": (_restat(_set_stat("std", 0.0)), "std > 0"),
    "stats without a std": (_restat(_set_stat("std", None)), "std > 0"),
}


def spoil(directory, case: str) -> tuple[Path, str]:
    """Make ``DATASET_CASES[case]``'s change to the dataset ``directory``:
    the file that its refusal names, and the text that the refusal holds."""
    change, text = DATASET_CASES[case]
    directory = Path(directory)
    return change(directory), text if isinstance(text, str) else text(directory)


def as_prefixed_arrays(split_dir: Path) -> None:
    """Rewrite the stored split ``split_dir`` as a split was stored when its
    sides were prefixed arrays, ``d_in_features.npy`` and the like, beside
    one sidecar that also held the schema and the statistics."""
    side_meta = json.loads((split_dir / "d_in" / "meta.json").read_text())
    for side in ("d_in", "d_ood"):
        for name in ("features.npy", "labels.npy"):
            (split_dir / side / name).rename(split_dir / f"{side}_{name}")
        shutil.rmtree(split_dir / side)
    meta = json.loads((split_dir / "meta.json").read_text())
    meta.update(schema=side_meta["schema"], stats=side_meta["stats"])
    (split_dir / "meta.json").write_text(json.dumps(meta))
