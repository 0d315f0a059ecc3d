"""Supervised heads and evaluation metrics.

A head is a small linear model fitted on either raw features or learned
embeddings: multinomial logistic regression (L2 penalty) for
classification, closed-form ridge regression for real targets, as the
table :data:`TASKS` (read by :func:`task_rules`) decides for each task.
The OOD gate's scoring backbone is a logistic head too; :func:`logits`
gives its class scores.

The logistic head is solved to the optimum of its objective by truncated
Newton (:func:`fit_softmax_regression`): conjugate gradients on
Hessian-vector products for each step's direction, and a backtracking
line search.  Its objective computes the class-major (C, n) logits and
probabilities from the parameters, in buffers allocated once per fit, so
all but its matrix products walk rows of length n, and a Hessian-vector
product costs two matrix products and no ``exp``.  Those products take
float32 copies of the features and probabilities, which halves the bytes
they stream; the objective, its gradient, the line search and the stop
rule stay float64, so the cheaper products change the path to the
optimum and not the optimum.  The OOD backbone
(:func:`tabcl.ood.train_backbone`) is this head solved at the larger
penalty 0.2, which sets the scale of the logits its detectors read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .artifacts import fields, read_json, write_json
from .data import CLASSIFICATION, REGRESSION
from .exceptions import ConfigError, NumericError
from .numerics import _class_index, check_finite, softmax_classes

LOGISTIC = "logistic"
LINEAR = "linear"

HEAD_FORMAT = "tcl-head"
HEAD_VERSION = 1

L2 = 1e-4  # fit_logistic's default weight penalty
RIDGE = 1e-6  # fit_linear's weight penalty
_TOL = 1e-6  # a fit stops once no gradient entry is larger in magnitude
_NEWTON_STEPS = 100
_CG_STEPS = 100  # Hessian-vector products per Newton step, at most
_ARMIJO = 1e-4  # share of the predicted decrease a step must achieve
_MIN_STEP = 2.0 ** -30  # the line search gives up below this step length


@dataclass(eq=False)  # holds arrays: compared by identity
class Head:
    """Fitted prediction head.  ``classes`` is None for regression."""

    kind: str
    weights: np.ndarray
    bias: np.ndarray
    classes: int | None = None

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]


def _check_features(X, head: Head | None = None, dtype=np.float64) -> np.ndarray:
    X = np.asarray(X, dtype=dtype)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if head is not None and X.shape[1] != head.input_dim:
        raise ValueError(f"head expects {head.input_dim} features, got {X.shape[1]}")
    return X


class _Objective:
    """Mean NLL plus ``0.5 * l2 * |W|^2`` (bias unpenalized) on one data set.

    Parameters are one class-major (C, d + 1) matrix ``theta``, the weights'
    transpose with the bias as its last column, so the logits are the
    class-major product ``theta @ xt`` with the transposed, one-extended
    features ``xt``.  :meth:`value` computes them into ``p`` and takes
    their softmax there, and the gradient and the Hessian-vector product
    are taken at the probabilities ``p`` that the last :meth:`value` left
    behind.  The Newton fit (:func:`fit_softmax_regression`) minimizes it
    for every logistic head, the OOD backbone among them.

    ``xt`` is float64, whatever the features' float dtype, and so are the
    value and the gradient.  The Hessian-vector product, which only steers
    the conjugate-gradient directions, is float32: it reads ``xt32``, a
    float32 copy of ``xt`` made once, and ``p32``, a float32 copy of ``p``
    that each :meth:`value` refreshes, so it streams half the bytes.
    Finite features beyond float32's range are a ValueError, non-finite
    ones NumericError.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int, l2: float):
        n, d = X.shape
        self.n = n
        self.flat = _class_index(y, n_classes, n)
        self.xt = np.empty((d + 1, n))
        self.xt[:d] = X.T
        self.xt[d] = 1.0
        with np.errstate(over="ignore"):
            self.xt32 = self.xt.astype(np.float32)
        if not np.isfinite(self.xt32).all():
            check_finite(X, "softmax regression features")
            raise ValueError("softmax regression features hold values beyond the float32 range")
        self.pen = np.full(d + 1, float(l2))
        self.pen[d] = 0.0
        self.p = np.empty((n_classes, n))
        self.q = np.empty((n_classes, n))
        self.p32 = np.empty((n_classes, n), np.float32)
        self.zv32 = np.empty((n_classes, n), np.float32)
        self.q32 = np.empty((n_classes, n), np.float32)

    def value(self, theta: np.ndarray) -> float:
        """The objective at ``theta``."""
        np.matmul(theta, self.xt, out=self.p)
        g = softmax_classes(self.p).reshape(-1)[self.flat]
        np.copyto(self.p32, self.p, casting="same_kind")
        return (-float(np.mean(np.log(g + 1e-300)))
                + 0.5 * float(np.vdot(self.pen * theta, theta)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        np.copyto(self.q, self.p)
        self.q.reshape(-1)[self.flat] -= 1.0  # p minus the one-hot labels
        return self.q @ self.xt.T / self.n + self.pen * theta

    def hessian_product(self, v: np.ndarray) -> np.ndarray:
        """``H @ v``, in float32 but for the penalty: each row's block of H
        is ``diag(p) - p p^T``, so the product is two matrix products and
        no ``exp``."""
        zv = np.matmul(v.astype(np.float32), self.xt32, out=self.zv32)
        q = np.multiply(self.p32, zv, out=self.q32)
        zv -= q.sum(axis=0)
        zv *= self.p32
        return (zv @ self.xt32.T) / self.n + self.pen * v


def _newton_step(obj: _Objective, g: np.ndarray) -> np.ndarray:
    """Truncated conjugate gradients on ``H s = -g`` from ``s = 0``.  Stops
    once the residual falls to ``min(0.5, sqrt(|g|)) * |g|`` (Nocedal &
    Wright, Algorithm 7.1), on a direction without curvature, or after
    ``_CG_STEPS`` products."""
    s = np.zeros_like(g)
    r = -g
    v = r.copy()
    rr = gg = float(np.vdot(r, r))
    stop = min(0.25, np.sqrt(gg)) * gg  # the squared residual to reach
    for _ in range(_CG_STEPS):
        hv = obj.hessian_product(v)
        curvature = float(np.vdot(v, hv))
        if curvature <= 0.0:  # say, a shift of all biases by one constant
            break
        a = rr / curvature
        s += a * v
        r -= a * hv
        rr, rr_old = float(np.vdot(r, r)), rr
        if rr <= stop:
            break
        v *= rr / rr_old
        v += r
    return s


def fit_softmax_regression(
    X: np.ndarray, y: np.ndarray, n_classes: int, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial logistic regression solved to its optimum by truncated
    Newton (Newton-CG; Lin, Weng & Keerthi, 2008).

    Minimizes the mean NLL plus ``0.5 * l2 * |W|^2``, bias unpenalized.
    Each Newton step solves for its direction with :func:`_newton_step`
    and backtracks from the full step until the objective falls by the
    Armijo margin, so it never rises.  The fit starts at zero weights and
    stops once every gradient entry is at most ``_TOL`` in magnitude, after
    ``_NEWTON_STEPS`` steps, or when no step lowers the objective.  Returns
    weights (d, C) and bias (C,).  Labels not one per row or outside
    ``[0, n_classes)`` and finite features beyond float32's range raise
    ValueError, non-finite features NumericError.
    """
    d = X.shape[1]
    obj = _Objective(X, y, n_classes, l2)
    theta = np.zeros((n_classes, d + 1))
    f = obj.value(theta)
    for _ in range(_NEWTON_STEPS):
        g = obj.gradient(theta)
        if np.abs(g).max() <= _TOL:
            break
        s = _newton_step(obj, g)
        slope = float(np.vdot(g, s))
        t = 1.0
        while slope < 0.0 and t >= _MIN_STEP:
            f_trial = obj.value(theta + t * s)
            if f_trial <= f + _ARMIJO * t * slope:  # False for a NaN objective
                break
            t *= 0.5
        else:
            break  # no step lowers the objective any more
        theta += t * s
        f = f_trial
    return np.ascontiguousarray(theta[:, :d].T), theta[:, d].copy()


def fit_logistic(X, y, l2: float = L2, classes: int | None = None) -> Head:
    """Multinomial logistic regression head; requires >= 2 classes present.

    The head has ``classes`` outputs, one per class of the schema, so that
    it scores rows of a class its fit rows lack; by default, the largest
    label plus one.
    """
    if l2 < 0:
        raise ValueError("l2 must be >= 0")
    X = np.asarray(X)  # the fit widens float32 features, such as embeddings, itself
    X = _check_features(X, dtype=np.float32 if X.dtype == np.float32 else np.float64)
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError("labels must be one per row")
    y = y.astype(np.int64)
    if classes is None:
        classes = int(y.max()) + 1 if y.size else 0
    if not y.size or (y == y[0]).all():  # np.unique imports numpy.ma
        raise ValueError("logistic head needs at least 2 classes present")
    W, b = fit_softmax_regression(X, y, classes, l2)
    return Head(LOGISTIC, W, b, classes)


def fit_linear(X, y) -> Head:
    """Closed-form ridge regression at the penalty ``RIDGE`` (normal
    equations, intercept unpenalized)."""
    X = _check_features(X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError("targets must be one per row")
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    gram = Xa.T @ Xa
    penalty = RIDGE * np.eye(d + 1)
    penalty[d, d] = 0.0
    try:
        coef = np.linalg.solve(gram + penalty, Xa.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular normal equations: {exc}") from exc
    return Head(LINEAR, coef[:d], np.array([coef[d]]), None)


def fit_head(X, y, task: str, kind: str | None = None, classes: int | None = None) -> Head:
    """Fit the head that :func:`task_rules` gives ``task``; any other
    ``kind`` raises ConfigError.  A logistic head has ``classes`` outputs
    (see :func:`fit_logistic`); a linear head ignores it."""
    rules = task_rules(task)
    rules.check_head(kind)
    return fit_logistic(X, y, classes=classes) if rules.head == LOGISTIC else fit_linear(X, y)


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
    seen = np.sort(np.concatenate([t, p]))  # np.unique's classes, without its numpy.ma import
    scores = []
    for cls in seen[np.insert(seen[1:] != seen[:-1], 0, True)]:
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


@dataclass(frozen=True)
class TaskRules:
    """A task's head kind, its report metric (name, function, and whether
    higher is better) and the metrics that ``bench.evaluate`` writes."""

    task: str
    head: str
    metric_name: str
    metric: Callable
    higher_is_better: bool
    metrics: tuple[tuple[str, Callable], ...]

    def check_head(self, kind: str | None) -> None:
        """ConfigError unless ``kind`` is None or this task's head kind."""
        if kind not in (None, self.head):
            raise ConfigError(f"a {kind!r} head does not fit a {self.task} task; use {self.head}")


TASKS = {
    CLASSIFICATION: TaskRules(CLASSIFICATION, LOGISTIC, "f1_macro", metric_f1_macro, True,
                              (("accuracy", metric_accuracy), ("f1_macro", metric_f1_macro))),
    REGRESSION: TaskRules(REGRESSION, LINEAR, "rmse", metric_rmse, False,
                          (("rmse", metric_rmse), ("r2", metric_r2))),
}


def task_rules(task) -> TaskRules:
    """The :data:`TASKS` entry of ``task``; ValueError for any other name."""
    if isinstance(task, str) and task in TASKS:
        return TASKS[task]
    raise ValueError(f"unknown task: {task!r}")
