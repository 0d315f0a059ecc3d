"""Out-of-distribution gating.

A trained scoring backbone produces per-class logits; two detectors turn
those into a single OOD score per row:

* Weibull recalibration ("openmax"): distance of a row's logit vector from
  the mean activation vector (MAV) of its predicted class, pushed through a
  Weibull CDF fitted on the largest training distances.  Score in [0, 1],
  higher = more out-of-distribution.
* Temperature scaling ("temperature"): negative maximum softmax confidence
  after dividing logits by a temperature fitted to minimize calibration NLL.
  Score in [-1, 0), higher = less confident = more out-of-distribution.

Rows are then split at a threshold and the split is validated with simple
regression probes trained on the in-distribution side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_write
from .data import CLASSIFICATION, Dataset, SplitPair, split
from .exceptions import NumericError
from .heads import (
    fit_linear,
    fit_logistic,
    fit_softmax_regression,
    metric_accuracy,
    metric_r2,
    predict,
)
from .numerics import RngStream
from .weibull import weibull_cdf, weibull_mle

OPENMAX = "openmax"
TEMPERATURE = "temperature"

TEMP_LO, TEMP_HI = 0.05, 10.0
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass
class BackboneConfig:
    learning_rate: float = 0.1
    epochs: int = 300
    l2: float = 1e-4
    seed: int = 0


@dataclass
class Backbone:
    """Multinomial logistic scorer: the logit producer for both detectors."""

    weights: np.ndarray  # (d, C)
    bias: np.ndarray  # (C,)
    classes: int
    final_nll: float

    def logits(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.weights.shape[0]:
            raise ValueError(f"expected {self.weights.shape[0]} features, got {X.shape[1]}")
        out = X @ self.weights + self.bias
        if not np.isfinite(out).all():
            raise NumericError("non-finite logits")
        return out[0] if single else out

    def predict(self, X) -> np.ndarray:
        return np.argmax(np.atleast_2d(self.logits(X)), axis=1)


def train_backbone(train: Dataset, config: BackboneConfig | None = None) -> Backbone:
    """Fit the scoring backbone on a classification dataset.

    The training objective must fall every epoch under the configured step
    size, otherwise a TrainingError is raised.  Regression targets have to
    be discretized first (see :func:`discretize_target`).
    """
    if train.schema.task != CLASSIFICATION:
        raise ValueError("backbone training needs classification labels; discretize first")
    config = config or BackboneConfig()
    y = train.labels.astype(np.int64)
    if np.unique(y).size < 2:
        raise ValueError("degenerate training data: single class")
    classes = int(y.max()) + 1
    W, b, nll = fit_softmax_regression(
        train.features,
        y,
        classes,
        config.learning_rate,
        config.epochs,
        config.l2,
        require_monotone=True,
    )
    return Backbone(W, b, classes, nll[-1])


def discretize_target(y, bins: int) -> np.ndarray:
    """Equal-frequency (quantile) binning of a real target into class labels.

    Populations differ by at most one when values are distinct; ties are
    broken by original row order.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a non-empty vector")
    if np.all(y == y[0]):
        raise ValueError("degenerate target: constant values")
    order = np.argsort(y, kind="stable")
    labels = np.empty(y.size, dtype=np.int64)
    positions = np.arange(y.size, dtype=np.int64)
    labels[order] = positions * bins // y.size
    return labels


@dataclass
class OpenMaxModel:
    """Per-class MAVs plus Weibull tail fits in logit space."""

    backbone: Backbone
    mavs: np.ndarray  # (C, C) mean logit vector per class
    shapes: np.ndarray  # (C,)
    scales: np.ndarray  # (C,)
    tail: int
    norm: str


def _distances(diff: np.ndarray, norm: str) -> np.ndarray:
    k = norm.lower()
    if k == "l1":
        return np.abs(diff).sum(axis=1)
    if k == "l2":
        return np.sqrt((diff * diff).sum(axis=1))
    raise ValueError(f"unknown norm kind: {norm!r}")


def fit_openmax(
    backbone: Backbone, train: Dataset, norm: str = "l2", tail: int = 20
) -> OpenMaxModel:
    """Fit one MAV and one Weibull tail model per class.

    Only correctly classified training rows contribute.  Each class needs at
    least ``tail`` of them, with strictly positive tail distances; otherwise
    a per-class error is raised.
    """
    if tail < 2:
        raise ValueError("tail must be >= 2")
    logits = backbone.logits(train.features)
    pred = np.argmax(logits, axis=1)
    y = train.labels.astype(np.int64)
    correct = pred == y

    C = backbone.classes
    mavs = np.zeros((C, C))
    shapes = np.zeros(C)
    scales = np.zeros(C)
    for cls in range(C):
        acts = logits[correct & (y == cls)]
        if acts.shape[0] < tail:
            raise ValueError(
                f"class {cls}: {acts.shape[0]} correctly classified rows, need tail={tail}"
            )
        mav = acts.mean(axis=0)
        dist = _distances(acts - mav, norm)
        tail_d = np.sort(dist)[-tail:]
        if tail_d[0] <= 0.0:
            raise NumericError(f"class {cls}: degenerate tail (zero distances)")
        try:
            shapes[cls], scales[cls] = weibull_mle(tail_d)
        except NumericError as exc:
            raise NumericError(f"class {cls}: Weibull fit failed: {exc}") from exc
        mavs[cls] = mav
    return OpenMaxModel(backbone, mavs, shapes, scales, tail, norm.lower())


def openmax_score(model: OpenMaxModel, x) -> float | np.ndarray:
    """Weibull CDF of the distance to the predicted class's MAV.

    Accepts one row (returns a scalar) or a matrix (returns a vector).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    logits = np.atleast_2d(model.backbone.logits(x))
    pred = np.argmax(logits, axis=1)
    dist = _distances(logits - model.mavs[pred], model.norm)
    scores = np.array(
        [weibull_cdf(d, model.shapes[c], model.scales[c]) for d, c in zip(dist, pred)]
    )
    return float(scores[0]) if single else scores


@dataclass
class TemperatureModel:
    """Single scalar temperature fitted on a calibration split."""

    backbone: Backbone
    temperature: float
    nll_calibrated: float
    nll_uncalibrated: float


def _nll_at_temperature(logits: np.ndarray, y: np.ndarray, tau: float) -> float:
    z = logits / tau
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -float(np.mean(logp[np.arange(y.size), y]))


def fit_temperature_on_logits(logits, y, lo: float = TEMP_LO, hi: float = TEMP_HI,
                              tol: float = 1e-4) -> float:
    """Golden-section search for the NLL-minimizing temperature in [lo, hi]."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _nll_at_temperature(logits, y, c)
    fd = _nll_at_temperature(logits, y, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _nll_at_temperature(logits, y, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _nll_at_temperature(logits, y, d)
    tau = 0.5 * (a + b)
    # The search minimum must never lose to the identity temperature.
    if _nll_at_temperature(logits, y, tau) > _nll_at_temperature(logits, y, 1.0):
        tau = 1.0
    return float(tau)


def fit_temperature(backbone: Backbone, calibration: Dataset) -> TemperatureModel:
    """Fit the temperature on a held-out labeled split."""
    if calibration.schema.task != CLASSIFICATION:
        raise ValueError("temperature calibration needs classification labels")
    logits = backbone.logits(calibration.features)
    y = calibration.labels.astype(np.int64)
    tau = fit_temperature_on_logits(logits, y)
    return TemperatureModel(
        backbone,
        tau,
        nll_calibrated=_nll_at_temperature(logits, y, tau),
        nll_uncalibrated=_nll_at_temperature(logits, y, 1.0),
    )


def temp_score(model: TemperatureModel, x) -> float | np.ndarray:
    """Negative maximum calibrated confidence, in [-1, -1/C]."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    logits = np.atleast_2d(model.backbone.logits(x)) / model.temperature
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    scores = -p.max(axis=1)
    return float(scores[0]) if single else scores


@dataclass
class Histogram:
    """Equal-width score histogram used for manual threshold picking."""

    edges: np.ndarray  # (bins + 1,)
    counts: np.ndarray  # (bins,)

    def rows(self) -> list[tuple[float, float, int]]:
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), int(self.counts[i]))
            for i in range(self.counts.size)
        ]


def score_histogram(scores, bins: int = 50) -> Histogram:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(scores, bins=bins)
    return Histogram(edges, counts)


def write_histogram_csv(hist: Histogram, path) -> None:
    with atomic_write(path) as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, count in hist.rows():
            fh.write(f"{lo!r},{hi!r},{count}\n")


def split_by_threshold(
    dataset: Dataset,
    scores,
    threshold: float,
    detector: str = "unknown",
    norm: str = "none",
    seed: int | None = None,
) -> SplitPair:
    """Rows with score <= threshold stay in-distribution; the rest go OOD.

    Raises ValueError when either side would be empty, suggesting a new
    threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (dataset.n,):
        raise ValueError("need one score per row")
    in_mask = scores <= threshold
    m = int(in_mask.sum())
    if m == 0 or m == dataset.n:
        side = "in-distribution" if m == 0 else "OOD"
        raise ValueError(
            f"threshold {threshold} leaves the {side} side empty "
            f"(scores span [{scores.min():.6g}, {scores.max():.6g}]); pick another point"
        )
    return SplitPair(
        dataset.take(np.flatnonzero(in_mask)),
        dataset.take(np.flatnonzero(~in_mask)),
        threshold=float(threshold),
        detector=detector,
        norm=norm,
        seed=seed,
    )


@dataclass
class SplitReport:
    """Four-cell validation grid for one ID/OOD split.

    The probe (logistic regression for classification, ordinary least
    squares for regression) is trained on the ID-train portion only; the
    metric is accuracy or r-squared respectively.
    """

    task: str
    id_train: float
    id_test: float
    ood_train: float
    ood_test: float
    m: int
    n: int
    threshold: float
    detector: str
    norm: str

    @property
    def degradation(self) -> float:
        """ID-test metric minus OOD-test metric."""
        return self.id_test - self.ood_test

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "id_train": self.id_train,
            "id_test": self.id_test,
            "ood_train": self.ood_train,
            "ood_test": self.ood_test,
            "m": self.m,
            "n": self.n,
            "threshold": self.threshold,
            "detector": self.detector,
            "norm": self.norm,
            "degradation": self.degradation,
        }


def validate_split(
    pair: SplitPair, rng: RngStream, fractions=(0.8, 0.2)
) -> SplitReport:
    """Probe a split: train on ID-train, evaluate on all four portions.

    A sound OOD split shows id_test close to id_train and ood_test well
    below id_test.
    """
    if pair.d_ood.n < 10:
        raise ValueError(f"OOD side too small to validate ({pair.d_ood.n} rows < 10)")
    id_train, id_test = split(pair.d_in, fractions, rng)
    ood_train, ood_test = split(pair.d_ood, fractions, rng)

    task = pair.d_in.schema.task
    if task == CLASSIFICATION:
        probe = fit_logistic(id_train.features, id_train.labels)
        metric = metric_accuracy
    else:
        probe = fit_linear(id_train.features, id_train.labels)
        metric = metric_r2

    def score(ds: Dataset) -> float:
        return metric(ds.labels, predict(probe, ds.features))

    return SplitReport(
        task=task,
        id_train=score(id_train),
        id_test=score(id_test),
        ood_train=score(ood_train),
        ood_test=score(ood_test),
        m=pair.m,
        n=pair.n,
        threshold=pair.threshold,
        detector=pair.detector,
        norm=pair.norm,
    )
