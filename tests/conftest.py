"""Shared synthetic-data builders and scoring helpers for the test suite."""

import base64
import csv
import importlib.util
import pickle
from pathlib import Path

import numpy as np
from hypothesis import settings

from tabcl.data import Column, Dataset, Schema
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


def _resave(change):
    """A change that stores ``change(array)`` in place of a file's array."""
    return lambda path: np.save(path, change(np.load(path)), allow_pickle=True)


def _first_set_to(value):
    def change(a):
        a = a.copy()
        a.flat[0] = value
        return a
    return change


# Changes to one array of a stored split side, each refused with a
# FormatError naming the file: case -> (the array, its change, error text).
SPLIT_SIDE_CASES = {
    "features missing": ("features", Path.unlink, "cannot read feature matrix"),
    "labels missing": ("labels", Path.unlink, "cannot read label vector"),
    "features truncated": ("features", lambda p: p.write_bytes(p.read_bytes()[:-8]),
                           "corrupt feature matrix"),
    "labels cut in header": ("labels", lambda p: p.write_bytes(p.read_bytes()[:20]),
                             "corrupt label vector"),
    "features pickled": ("features", lambda p: p.write_bytes(pickle.dumps(np.load(p))),
                         "corrupt feature matrix"),
    "labels object dtype": ("labels", _resave(lambda a: a.astype(object)), "corrupt label vector"),
    "features float32": ("features", _resave(lambda a: a.astype(np.float32)),
                         "is 2-D float32, expected 2-D float64"),
    "labels float64": ("labels", _resave(lambda a: a.astype(np.float64)),
                       "is 1-D float64, expected 1-D int64"),
    "features 1-D": ("features", _resave(lambda a: a[:, 0]), "is 1-D float64, expected 2-D"),
    "labels 2-D": ("labels", _resave(lambda a: a[:, None]), "is 2-D int64, expected 1-D"),
    "features one row more": ("features", _resave(lambda a: a[[0, *range(len(a))]]),
                              "row counts disagree with the sidecar"),
    "labels one row fewer": ("labels", _resave(lambda a: a[1:]),
                             "row counts disagree with the sidecar"),
    "class index out of range": ("labels", _resave(_first_set_to(-1)), "class index -1 outside"),
    "features non-finite": ("features", _resave(_first_set_to(np.nan)), "non-finite"),
}


def spoil_split_side(directory, side: str, case: str) -> tuple[str, str]:
    """Make ``SPLIT_SIDE_CASES[case]``'s change to ``side``'s arrays in the
    stored split ``directory``: the changed file's name, and the text that
    its refusal holds."""
    array, change, text = SPLIT_SIDE_CASES[case]
    name = f"{side}_{array}.npy"
    change(Path(directory) / name)
    return name, text
