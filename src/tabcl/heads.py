"""Supervised heads and evaluation metrics.

A head is a small linear model fitted on either raw features or learned
embeddings: multinomial logistic regression (gradient descent, L2 penalty)
for classification, closed-form ridge regression for real targets.
:func:`fit_head` picks the one that fits a task.  The OOD gate's scoring
backbone is a logistic head too; :func:`logits` gives its class scores.

The softmax fit works on class-major (C, n) probabilities P, so all but
its matrix products walk rows of length n.  Those stay ``X @ W`` and
``X.T @ r`` on a row-major copy r of P: copy-free forms can round apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import fields, read_json, write_json
from .data import CLASSIFICATION
from .exceptions import ConfigError, NumericError, TrainingError
from .numerics import _class_index, softmax_classes

LOGISTIC = "logistic"
LINEAR = "linear"

HEAD_FORMAT = "tcl-head"
HEAD_VERSION = 1


@dataclass
class HeadConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    l2: float = 1e-4


@dataclass
class Head:
    """Fitted prediction head.  ``classes`` is None for regression."""

    kind: str
    weights: np.ndarray
    bias: np.ndarray
    classes: int | None = None

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]


def _check_features(X, head: Head | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if head is not None and X.shape[1] != head.input_dim:
        raise ValueError(f"head expects {head.input_dim} features, got {X.shape[1]}")
    return X


def fit_softmax_regression(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    learning_rate: float,
    epochs: int,
    l2: float,
    require_monotone: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Full-batch gradient descent on the multinomial logistic objective.

    Weights start at zero, so the fit is deterministic.  Returns weights,
    bias, and the per-epoch NLL trace.  When ``require_monotone`` is set an
    epoch that increases the regularized objective raises TrainingError.
    Labels not one per row or outside ``[0, n_classes)`` raise ValueError.
    """
    n, d = X.shape
    flat = _class_index(y, n_classes, n)
    W = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    p = np.empty((n_classes, n))  # class-major probabilities
    r = np.empty((n, n_classes))  # their row-major copy, for X.T @ r
    work = np.empty((min(n_classes, 8), n))

    # One softmax per epoch: the probabilities after an update give both
    # that epoch's objective and the next epoch's gradient.
    np.add((X @ W).T, b[:, None], out=p)
    g = softmax_classes(p, work).reshape(-1)[flat]
    prev_obj = -float(np.mean(np.log(g + 1e-300)))  # W = 0: no penalty yet
    nll_trace: list[float] = []
    for epoch in range(epochs):
        p.reshape(-1)[flat] = g - 1.0  # p minus the one-hot labels
        np.copyto(r, p.T)
        gW = X.T @ r / n + l2 * W
        # Column sums of the residual, adding its rows in order either way;
        # a running sum along each class row is the faster for few classes.
        gb = (np.add.accumulate(p, axis=1, out=work)[:, -1] if n_classes < 6
              else r.sum(axis=0)) / n
        W -= learning_rate * gW
        b -= learning_rate * gb
        np.add((X @ W).T, b[:, None], out=p)
        g = softmax_classes(p, work).reshape(-1)[flat]
        nll = -float(np.mean(np.log(g + 1e-300)))
        obj = nll + 0.5 * l2 * float(np.sum(W * W))
        if not np.isfinite(obj):
            raise NumericError("non-finite training objective")
        if require_monotone and obj > prev_obj + 1e-12:
            raise TrainingError(
                f"objective rose at epoch {epoch} ({prev_obj:.6g} -> {obj:.6g}); "
                "use a smaller learning rate"
            )
        prev_obj = obj
        nll_trace.append(nll)
    return W, b, nll_trace


def fit_logistic(X, y, config: HeadConfig | None = None) -> Head:
    """Multinomial logistic regression head; requires >= 2 classes present."""
    config = config or HeadConfig()
    X = _check_features(X)
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError("labels must be one per row")
    y = y.astype(np.int64)
    classes = int(y.max()) + 1 if y.size else 0
    if np.unique(y).size < 2:
        raise ValueError("logistic head needs at least 2 classes present")
    W, b, _ = fit_softmax_regression(
        X, y, classes, config.learning_rate, config.epochs, config.l2
    )
    return Head(LOGISTIC, W, b, classes)


def fit_linear(X, y, ridge: float = 1e-6) -> Head:
    """Closed-form ridge regression (normal equations, intercept unpenalized).

    ``ridge=0`` solves plain least squares and raises NumericError when the
    system is singular.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    X = _check_features(X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError("targets must be one per row")
    n, d = X.shape
    if ridge == 0 and n <= d:
        raise ValueError("need n > d rows for an unregularized fit")
    Xa = np.hstack([X, np.ones((n, 1))])
    gram = Xa.T @ Xa
    penalty = ridge * np.eye(d + 1)
    penalty[d, d] = 0.0
    try:
        coef = np.linalg.solve(gram + penalty, Xa.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular normal equations: {exc}") from exc
    return Head(LINEAR, coef[:d], np.array([coef[d]]), None)


def head_kind(task: str, kind: str | None = None) -> str:
    """The head kind that fits ``task``: logistic for classification, linear
    for regression.  Any other ``kind`` given raises ConfigError."""
    fits = LOGISTIC if task == CLASSIFICATION else LINEAR
    if kind not in (None, fits):
        raise ConfigError(f"a {kind!r} head does not fit a {task} task; use {fits}")
    return fits


def fit_head(X, y, task: str, kind: str | None = None) -> Head:
    """Fit the head of :func:`head_kind` for ``task``."""
    if head_kind(task, kind) == LOGISTIC:
        return fit_logistic(X, y)
    return fit_linear(X, y)


def logits(head: Head, X) -> np.ndarray:
    """Class scores ``X @ W + b`` of a logistic head, one row per row of the
    matrix ``X``; NumericError when any is non-finite."""
    X = _check_features(X, head)
    out = X @ head.weights + head.bias
    if not np.isfinite(out).all():
        raise NumericError("non-finite logits")
    return out


def predict(head: Head, X) -> np.ndarray:
    """Class indices for logistic heads, real predictions for linear heads."""
    if head.kind == LOGISTIC:
        return np.argmax(logits(head, X), axis=1)
    return _check_features(X, head) @ head.weights + head.bias[0]


def save_head(head: Head, path) -> None:
    write_json(path, {
        "format": HEAD_FORMAT,
        "version": HEAD_VERSION,
        "kind": head.kind,
        "weights": head.weights.tolist(),
        "bias": head.bias.tolist(),
        "classes": head.classes,
    })


def load_head(path) -> Head:
    payload = read_json(path, "head file", HEAD_FORMAT, HEAD_VERSION)
    with fields(path, "head file"):
        kind = payload["kind"]
        weights = np.asarray(payload["weights"], dtype=np.float64)
        bias = np.asarray(payload["bias"], dtype=np.float64)
        if kind not in (LOGISTIC, LINEAR):
            raise ValueError(f"unknown head kind {kind!r}")
        if weights.ndim != (2 if kind == LOGISTIC else 1):
            raise ValueError(f"{kind} head weights have {weights.ndim} dimensions")
        outputs = weights.shape[1] if kind == LOGISTIC else 1
        if bias.shape != (outputs,):
            raise ValueError(f"{kind} head bias has shape {bias.shape}, expected ({outputs},)")
        classes = payload.get("classes")
        if classes != (outputs if kind == LOGISTIC else None):
            raise ValueError(f"{kind} head classes {classes!r} disagree with its weights")
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ValueError(f"{kind} head holds a non-finite parameter")
        return Head(kind, weights, bias, classes)


def _check_pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.size == 0 or p.size == 0:
        raise ValueError("metric inputs must be non-empty")
    if t.shape != p.shape:
        raise ValueError("truth and prediction lengths differ")
    return t, p


def metric_accuracy(y_true, y_pred) -> float:
    t, p = _check_pair(y_true, y_pred)
    return float(np.mean(t == p))


def metric_f1_macro(y_true, y_pred) -> float:
    """Unweighted mean of per-class F1; classes absent from both truth and
    prediction are skipped."""
    t, p = _check_pair(y_true, y_pred)
    scores = []
    for cls in np.unique(np.concatenate([t, p])):
        tp = float(np.sum((t == cls) & (p == cls)))
        fp = float(np.sum((t != cls) & (p == cls)))
        fn = float(np.sum((t == cls) & (p != cls)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def metric_rmse(y_true, y_pred) -> float:
    t, p = _check_pair(y_true, y_pred)
    d = t.astype(np.float64) - p.astype(np.float64)
    return float(np.sqrt(np.mean(d * d)))


def metric_r2(y_true, y_pred) -> float:
    """Coefficient of determination; can go negative on shifted data."""
    t, p = _check_pair(y_true, y_pred)
    t = t.astype(np.float64)
    p = p.astype(np.float64)
    ss_res = float(np.sum((t - p) ** 2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0  # constant truth: r2 is undefined, report 0
    return 1.0 - ss_res / ss_tot
