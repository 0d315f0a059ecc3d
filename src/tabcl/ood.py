"""Out-of-distribution gating.

The scoring backbone is a multinomial logistic :class:`~tabcl.heads.Head`;
two detectors turn its logits (:func:`tabcl.heads.logits`) into a single
OOD score per row of a feature matrix:

* Weibull recalibration ("openmax"): distance of a row's logit vector from
  the mean activation vector (MAV) of its predicted class, pushed through a
  Weibull CDF fitted on the largest training distances.  Score in [0, 1],
  higher = more out-of-distribution.
* Temperature scaling ("temperature"): negative maximum softmax confidence
  after dividing logits by a temperature fitted to minimize calibration NLL.
  Score in [-1, 0), higher = less confident = more out-of-distribution.
  Its score and NLL divide the transposed logits into a class-major (C, n)
  matrix for the one softmax, :func:`tabcl.numerics.softmax_classes`.

The backbone is the logistic head, :func:`tabcl.heads.fit_logistic`, solved
to its optimum at the weight penalty ``_L2 = 0.2``.  That penalty sets the
scale of its logits, which both detectors read: the Weibull tails fit
distances in logit space, and the temperature rescales the logits.  At the
heads' own penalty (1e-4) the weights grow many times larger and the
detectors lose the shifted rows: on the regression benchmark
(``perfbench``, ``cli-regression``) the temperature detector's AUROC fell
from 0.88 to 0.18, and on ``train-wide`` the openmax AUROC from 0.95 to
0.86.

A threshold is picked from the scores' histogram, numpy's ``(counts,
edges)`` (:func:`score_histogram`).  Rows are then split at it, and
:func:`validate_split` draws the run's one ID-train/ID-test split and probes
it with the task's head (:func:`tabcl.heads.fit_head`) on the raw features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import heads
from .artifacts import atomic_write
from .data import CLASSIFICATION, Dataset, SplitPair, split
from .exceptions import NumericError
from .heads import Head, fit_head, predict, task_rules
from .numerics import RngStream, _class_index, softmax_classes
from .weibull import weibull_cdf, weibull_mle

OPENMAX = "openmax"
TEMPERATURE = "temperature"

TEMP_LO, TEMP_HI = 0.05, 10.0
_TEMP_TOL = 1e-4
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# The backbone's weight penalty; it sets the scale of the detectors' logits.
_L2 = 0.2


def train_backbone(train: Dataset) -> Head:
    """Fit the scoring backbone on a classification dataset: the logistic
    head solved at the weight penalty ``_L2``, which sets the scale of the
    logits the detectors read.  The backbone has one output per class of
    the schema, present in ``train`` or not.  Regression targets have to be
    discretized first (see :func:`discretize_target`).
    """
    if train.schema.task != CLASSIFICATION:
        raise ValueError("backbone training needs classification labels; discretize first")
    return heads.fit_logistic(train.features, train.labels, l2=_L2,
                              classes=len(train.schema.classes))


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


@dataclass(eq=False)  # holds arrays: compared by identity
class OpenMaxModel:
    """Per-class MAVs plus Weibull tail fits in logit space."""

    backbone: Head
    mavs: np.ndarray  # (C, C) mean logit vector per class
    shapes: np.ndarray  # (C,)
    scales: np.ndarray  # (C,)
    norm: str


def _distances(diff: np.ndarray, norm: str) -> np.ndarray:
    if norm == "l1":
        return np.abs(diff).sum(axis=1)
    if norm == "l2":
        return np.sqrt((diff * diff).sum(axis=1))
    raise ValueError(f"unknown norm kind: {norm!r}")


def fit_openmax(
    backbone: Head, train: Dataset, norm: str = "l2", tail: int = 20
) -> OpenMaxModel:
    """Fit one MAV and one Weibull tail model per class.

    Only correctly classified training rows contribute.  Each class needs at
    least ``tail`` of them, with strictly positive tail distances; otherwise
    a per-class error is raised.
    """
    if tail < 2:
        raise ValueError("tail must be >= 2")
    logits = heads.logits(backbone, train.features)
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
    return OpenMaxModel(backbone, mavs, shapes, scales, norm)


def openmax_score(model: OpenMaxModel, X) -> np.ndarray:
    """Weibull CDF of each row's distance to its predicted class's MAV."""
    logits = heads.logits(model.backbone, X)
    pred = np.argmax(logits, axis=1)
    dist = _distances(logits - model.mavs[pred], model.norm)
    return weibull_cdf(dist, model.shapes[pred], model.scales[pred])


@dataclass(eq=False)  # holds arrays: compared by identity
class TemperatureModel:
    """Single scalar temperature fitted on a calibration split."""

    backbone: Head
    temperature: float
    nll_calibrated: float
    nll_uncalibrated: float


def _nll_at_temperature(logits: np.ndarray, y: np.ndarray, tau: float) -> float:
    flat = _class_index(y, logits.shape[1], logits.shape[0])
    logp = softmax_classes(np.divide(logits.T, tau, order="C"), log=True)
    return -float(np.mean(logp.reshape(-1)[flat]))


def fit_temperature_on_logits(logits, y) -> float:
    """Golden-section search for the NLL-minimizing temperature in
    [TEMP_LO, TEMP_HI]."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    a, b = TEMP_LO, TEMP_HI
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _nll_at_temperature(logits, y, c)
    fd = _nll_at_temperature(logits, y, d)
    while b - a > _TEMP_TOL:
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


def fit_temperature(backbone: Head, calibration: Dataset) -> TemperatureModel:
    """Fit the temperature on a held-out labeled split."""
    if calibration.schema.task != CLASSIFICATION:
        raise ValueError("temperature calibration needs classification labels")
    logits = heads.logits(backbone, calibration.features)
    y = calibration.labels.astype(np.int64)
    tau = fit_temperature_on_logits(logits, y)
    return TemperatureModel(
        backbone,
        tau,
        nll_calibrated=_nll_at_temperature(logits, y, tau),
        nll_uncalibrated=_nll_at_temperature(logits, y, 1.0),
    )


def temp_score(model: TemperatureModel, X) -> np.ndarray:
    """Each row's negative maximum calibrated confidence, in [-1, -1/C]."""
    logits = heads.logits(model.backbone, X)
    return -softmax_classes(np.divide(logits.T, model.temperature, order="C")).max(axis=0)


def score_histogram(scores, bins: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram of the scores for picking a threshold by hand:
    numpy's ``(counts, edges)``, ``bins`` counts and ``bins + 1`` edges."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    return np.histogram(scores, bins=bins)


def write_histogram_csv(counts, edges, path) -> None:
    """Write one ``bin_lo,bin_hi,count`` row per bin of :func:`score_histogram`."""
    with atomic_write(path) as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, count in zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()):
            fh.write(f"{lo!r},{hi!r},{count}\n")


def split_by_threshold(dataset: Dataset, scores, threshold: float) -> SplitPair:
    """Rows with score <= threshold stay in-distribution; the rest go OOD.
    The pair records the threshold as a float.

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
    )


def degradation(task: str, id_value: float, ood_value: float) -> float:
    """How much worse ``task``'s metric (:func:`tabcl.heads.task_rules`) is
    on OOD rows than on ID rows; positive when worse."""
    return id_value - ood_value if task_rules(task).higher_is_better else ood_value - id_value


@dataclass
class SplitReport:
    """Validation cells for one ID/OOD split: the task's head on the raw
    features, trained on ID-train only and scored by the task's metric on
    ID-train, ID-test and every OOD row, and the :func:`degradation` from
    ID-test to OOD.  The split's own facts (task, sizes, threshold) are
    those of the :class:`~tabcl.data.SplitPair` it was computed from.
    """

    id_train: float
    id_test: float
    ood: float
    degradation: float


def validate_split(pair: SplitPair, rng: RngStream) -> tuple[SplitReport, Dataset, Dataset]:
    """Split the ID side into ID-train and ID-test and probe the split; returns
    the report and the two portions, on which a run trains and tests.

    A sound OOD split shows id_test close to id_train and a clearly positive
    degradation.  Each side needs at least 10 rows, checked before any draw.
    """
    for side, part in (("ID", pair.d_in), ("OOD", pair.d_ood)):
        if part.n < 10:
            raise ValueError(f"{side} side too small to validate ({part.n} rows < 10)")
    id_train, id_test = split(pair.d_in, rng)

    task = pair.d_in.schema.task
    probe = fit_head(id_train.features, id_train.labels, task,
                     classes=len(id_train.schema.classes))
    metric = task_rules(task).metric

    def score(ds: Dataset) -> float:
        return metric(ds.labels, predict(probe, ds.features))

    on_test, on_ood = score(id_test), score(pair.d_ood)
    report = SplitReport(score(id_train), on_test, on_ood, degradation(task, on_test, on_ood))
    return report, id_train, id_test
