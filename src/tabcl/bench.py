"""Full-pipeline experiments, the stages they run, and the speed/accuracy trade-off.

The trade-off score of a model is its task metric per training second:
``P / t`` for classification (higher F1 is better) and ``(1 / P) / t`` for
regression (lower RMSE is better).  ``run_experiment`` drives the whole
pipeline on one CSV: ingest, OOD detection and split, timed contrastive
training, embedding, head fitting, and evaluation on the ID-test and OOD
portions.  Only the unsupervised training time enters the trade-off; the
other stages are recorded separately.

The stage functions (:func:`detect`, :func:`split_at_threshold`,
:func:`train`, :func:`tabcl.heads.fit_head`, :func:`evaluate`) are the
single implementation of each stage: the CLI subcommands call the same ones.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_write, fields, read_json, write_json
from .contrastive import (
    TclConfig,
    TclModel,
    TrainTrace,
    embed,
    parameter_count,
    save_model,
    train_tcl,
)
from .data import (CLASSIFICATION, REGRESSION, Dataset, Schema, SplitPair, check_fractions,
                   ingest_csv, save_split, split)
from .exceptions import ConfigError, FormatError
from .heads import (
    LINEAR,
    LOGISTIC,
    fit_head,
    head_kind,
    metric_accuracy,
    metric_f1_macro,
    metric_r2,
    metric_rmse,
    predict,
)
from .numerics import RngStream, is_finite_number
from .ood import (
    OPENMAX,
    TEMPERATURE,
    discretize_target,
    fit_openmax,
    fit_temperature,
    openmax_score,
    score_histogram,
    split_by_threshold,
    temp_score,
    train_backbone,
    validate_split,
    write_histogram_csv,
)

DETECTOR_KEYS = {"detector", "norm", "tail", "bins", "threshold", "quantile", "seed"}
# every TclConfig field but input_dim, which is the data's encoded width
TCL_KEYS = {f.name for f in dataclasses.fields(TclConfig)} - {"input_dim"}
DISCRETIZE_BINS = 10  # detection-only quantile bins for regression targets


def tradeoff(p: float, t: float, task: str) -> float:
    """Speed/accuracy trade-off: P/t for classification, (1/P)/t for regression."""
    if t <= 0:
        raise ValueError(f"training time must be positive, got {t}")
    if task == CLASSIFICATION:
        return p / t
    if task == "regression":
        if p <= 0:
            raise ValueError(f"regression metric must be positive, got {p}")
        return (1.0 / p) / t
    raise ValueError(f"unknown task: {task!r}")


def load_config(path) -> dict:
    """Read a JSON config document, or a TOML one when the name ends in ``.toml``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        if str(path).endswith(".toml"):
            import tomllib  # only TOML configs pay for the import

            doc = tomllib.loads(raw.decode("utf-8"))
        else:
            doc = json.loads(raw)
    except ValueError as exc:  # bad JSON, bad TOML or bad UTF-8
        raise ConfigError(f"{path}: bad config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: a config is a JSON object or a TOML table")
    return doc


def _check_int(det: dict, key: str, low: int) -> None:
    value = det.get(key, low)  # an absent key takes its stage's default
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"detector {key} must be an integer >= {low}, got {value!r}")


def check_detector(det: dict) -> None:
    """Reject detector settings no stage reads, an unknown detector or norm,
    a threshold given together with a quantile, a threshold that is not a
    finite number, and a ``seed``, ``tail``, ``bins`` or ``quantile`` out of
    range, before any stage runs."""
    unknown = set(det) - DETECTOR_KEYS
    if unknown:
        raise ConfigError(f"unknown detector config keys: {sorted(unknown)}")
    name = det.get("detector", OPENMAX)
    if name not in (OPENMAX, TEMPERATURE):
        raise ConfigError(f"unknown detector: {name!r}")
    norm = det.get("norm", "l2")
    if not (isinstance(norm, str) and norm.lower() in ("l1", "l2")):
        raise ConfigError(f"unknown norm: {norm!r}; use l1 or l2")
    if "threshold" in det and "quantile" in det:
        raise ConfigError("give either a threshold or a quantile, not both")
    if not is_finite_number(det.get("threshold", 0.0)):
        raise ConfigError(f"threshold must be a finite number, got {det['threshold']!r}")
    _check_int(det, "seed", 0)
    _check_int(det, "tail", 2)
    _check_int(det, "bins", 1)
    q = det.get("quantile", 0.95)
    if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0.0 < q < 1.0:
        raise ConfigError(f"quantile must lie in (0, 1), got {q!r}")


def check_tcl(tcl: dict) -> None:
    """Reject TCL settings that :class:`TclConfig` does not take or rejects."""
    if "input_dim" in tcl:
        raise ConfigError("the tcl config cannot set input_dim: it is the data's encoded width")
    unknown = set(tcl) - TCL_KEYS
    if unknown:
        raise ConfigError(f"unknown tcl config keys: {sorted(unknown)}")
    try:
        TclConfig(input_dim=1, **tcl)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad tcl config: {exc}") from exc


@dataclass
class ExperimentPlan:
    """Everything needed to re-run one experiment deterministically."""

    dataset: str
    target: str
    task: str | None = None
    model_name: str = "tcl"
    detector: dict = field(default_factory=dict)
    tcl: dict = field(default_factory=dict)
    head: str | None = None  # "logistic" | "linear"; default picked by task
    seed: int = 0
    out_dir: str = "out"
    delta: float | None = None  # declared OOD degradation budget (recorded only)
    fractions: tuple[float, float] = (0.8, 0.2)

    def __post_init__(self):
        check_detector(self.detector)
        check_tcl(self.tcl)
        if self.task not in (None, CLASSIFICATION, REGRESSION):
            raise ConfigError(f"unknown task: {self.task!r}")
        if self.head not in (None, LOGISTIC, LINEAR):
            raise ConfigError(f"unknown head kind: {self.head!r}")
        if self.delta is not None and not is_finite_number(self.delta):
            raise ConfigError(f"delta must be a finite number, got {self.delta!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        try:
            self.fractions = check_fractions(self.fractions)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad fractions {self.fractions!r}: {exc}") from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentPlan":
        try:
            return ExperimentPlan(**d)
        except TypeError as exc:
            raise ConfigError(f"malformed experiment plan: {exc}") from exc

    @staticmethod
    def from_file(path) -> "ExperimentPlan":
        return ExperimentPlan.from_dict(load_config(path))


@dataclass
class BenchReport:
    """One experiment's outcome: task metric P, training seconds t, trade-off
    T, the split validation grid, and the recorded constraint fields."""

    model: str
    dataset: str
    task: str
    metric_name: str
    p: float
    t_seconds: float
    tradeoff: float
    split_grid: dict  # four-cell validation grid + split settings
    constraints: dict  # recorded budget fields, never enforced
    stage_seconds: dict
    detector: str
    norm: str
    threshold: float
    m: int
    n: int
    seed: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "BenchReport":
        try:
            return BenchReport(**d)
        except TypeError as exc:
            raise FormatError(f"malformed report: {exc}") from exc

    @staticmethod
    def from_file(path) -> "BenchReport":
        return BenchReport.from_dict(read_json(path, "report"))

    def split_signature(self) -> tuple:
        return (self.dataset, self.detector, self.norm, round(self.threshold, 12),
                self.m, self.n)


class _Stage:
    """Context that adds the note ``[stage=<name>]`` to any stage failure,
    which propagates unchanged otherwise, and records its wall-clock time."""

    def __init__(self, name: str, clock: dict):
        self.name = name
        self.clock = clock

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.clock[self.name] = time.perf_counter() - self._start
        if isinstance(exc, Exception):
            exc.add_note(f"[stage={self.name}]")
        return False


def detect(dataset: Dataset, det: dict, seed: int, out_dir) -> tuple[np.ndarray, dict]:
    """Detect stage: train the backbone, fit the configured detector, score
    every row, and write ``histogram.csv`` into ``out_dir``.

    A regression target is discretized into quantile bins for detection
    only.  ``det["seed"]``, when given, overrides ``seed``.  Returns the
    scores and the settings that produced them, which the split records.
    """
    name = det.get("detector", OPENMAX)
    norm = det.get("norm", "l2")
    tail = int(det.get("tail", 20))
    det_seed = int(det.get("seed", seed))

    if dataset.schema.task != CLASSIFICATION:
        schema = Schema(dataset.schema.features, dataset.schema.target, CLASSIFICATION,
                        tuple(str(i) for i in range(DISCRETIZE_BINS)))
        labels = discretize_target(dataset.labels, DISCRETIZE_BINS)
        dataset = Dataset(dataset.features, labels, schema, dataset.stats)

    if name == OPENMAX:
        backbone = train_backbone(dataset)
        model = fit_openmax(backbone, dataset, norm=norm, tail=tail)
        scores = openmax_score(model, dataset.features)
        norm = model.norm
    else:
        fit_part, cal_part = split(dataset, (0.8, 0.2), RngStream(det_seed, 11))
        backbone = train_backbone(fit_part)
        model = fit_temperature(backbone, cal_part)
        scores = temp_score(model, dataset.features)
        norm = "none"

    hist = score_histogram(scores, bins=int(det.get("bins", 50)))
    write_histogram_csv(hist, os.path.join(out_dir, "histogram.csv"))
    return np.asarray(scores), {"detector": name, "norm": norm, "tail": tail, "seed": det_seed}


def save_scores(path, scores: np.ndarray, settings: dict) -> None:
    """Write detector scores and the settings of :func:`detect` as JSON."""
    write_json(path, {**settings, "scores": np.asarray(scores).tolist()})


def load_scores(path) -> tuple[np.ndarray, dict]:
    """Inverse of :func:`save_scores`.  Only ``scores`` is required, so
    scores from any other source can be split too."""
    payload = read_json(path, "scores file")
    with fields(path, "scores file"):
        scores = np.asarray(payload["scores"], dtype=np.float64)
        if scores.ndim != 1:
            raise ValueError(f"scores must be a flat list, got {scores.ndim} dimensions")
    if scores.size == 0:
        raise FormatError(f"{path}: the scores file holds no scores")
    if not np.isfinite(scores).all():
        bad = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise FormatError(f"{path}: non-finite score {float(scores[bad])!r} at index {bad}")
    settings = {
        "detector": payload.get("detector", "unknown"),
        "norm": payload.get("norm", "none"),
        "seed": payload.get("seed"),
    }
    return scores, settings


def resolve_threshold(scores: np.ndarray, det: dict) -> float:
    """Explicit threshold if configured, else a quantile of the scores
    (default: the 95th percentile)."""
    if "threshold" in det:
        return float(det["threshold"])
    q = float(det.get("quantile", 0.95))
    if not 0.0 < q < 1.0:
        raise ConfigError(f"quantile must lie in (0, 1), got {q}")
    return float(np.quantile(scores, q))


def split_at_threshold(
    dataset: Dataset, scores: np.ndarray, det: dict, settings: dict, out_dir
) -> SplitPair:
    """Split stage: rows scoring at most the threshold that ``det`` sets
    stay in-distribution; the split is written into ``out_dir``."""
    if scores.shape != (dataset.n,):
        raise FormatError(f"{scores.size} scores for {dataset.n} rows: need one score per row")
    threshold = resolve_threshold(scores, det)
    pair = split_by_threshold(
        dataset, scores, threshold,
        detector=settings["detector"], norm=settings["norm"], seed=settings["seed"],
    )
    save_split(pair, out_dir)
    return pair


def train(data: Dataset, tcl: dict, seed: int, out_dir) -> tuple[TclModel, TrainTrace]:
    """Train stage: fit the contrastive encoder on ``data`` and write
    ``model.json`` and ``trace.json`` into ``out_dir``.

    ``tcl`` holds :class:`TclConfig` fields; its ``seed``, when given,
    overrides ``seed``.
    """
    check_tcl(tcl)
    model, trace = train_tcl(data, TclConfig(input_dim=data.d, **{"seed": seed, **tcl}))
    save_model(model, os.path.join(out_dir, "model.json"))
    write_json(os.path.join(out_dir, "trace.json"), dataclasses.asdict(trace), indent=1)
    return model, trace


def evaluate(task: str, labels, pred) -> dict:
    """Evaluate stage: accuracy and macro-F1 for classification, RMSE and
    r-squared for regression."""
    if task == CLASSIFICATION:
        return {
            "accuracy": metric_accuracy(labels, pred),
            "f1_macro": metric_f1_macro(labels, pred),
        }
    return {"rmse": metric_rmse(labels, pred), "r2": metric_r2(labels, pred)}


def run_experiment(plan: ExperimentPlan) -> BenchReport:
    """Execute a plan end to end and write all artifacts to its out_dir.

    Stage order: ingest -> detect -> split -> train (timed) -> embed ->
    fit-head -> evaluate.  Any failure propagates with the stage name added
    as a note; artifacts written before the failure are kept for debugging.
    """
    os.makedirs(plan.out_dir, exist_ok=True)
    clock: dict[str, float] = {}

    with _Stage("ingest", clock):
        dataset = ingest_csv(plan.dataset, target=plan.target, task=plan.task)
        task = dataset.schema.task
        head_kind(task, plan.head)  # a head that does not fit the task fails before training

    with _Stage("detect", clock):
        scores, settings = detect(dataset, plan.detector, plan.seed, plan.out_dir)

    with _Stage("split", clock):
        pair = split_at_threshold(
            dataset, scores, plan.detector, settings, os.path.join(plan.out_dir, "split")
        )
        grid = validate_split(pair, RngStream(plan.seed, 21), plan.fractions)
        id_train, id_test = split(pair.d_in, plan.fractions, RngStream(plan.seed, 22))

    with _Stage("train", clock):
        model, trace = train(id_train, plan.tcl, plan.seed, plan.out_dir)

    with _Stage("embed", clock):
        e_train = embed(model, id_train.features)
        e_test = embed(model, id_test.features)
        e_ood = embed(model, pair.d_ood.features)

    with _Stage("fit-head", clock):
        head = fit_head(e_train, id_train.labels, task, plan.head)

    metric_name = "f1_macro" if task == CLASSIFICATION else "rmse"
    with _Stage("evaluate", clock):
        t0 = time.perf_counter()
        pred_test = predict(head, e_test)
        t_inference = time.perf_counter() - t0
        p = evaluate(task, id_test.labels, pred_test)[metric_name]
        p_ood = evaluate(task, pair.d_ood.labels, predict(head, e_ood))[metric_name]

    t_train = trace.seconds
    n_params = parameter_count(model)
    report = BenchReport(
        model=plan.model_name,
        dataset=plan.dataset,
        task=task,
        metric_name=metric_name,
        p=p,
        t_seconds=t_train,
        tradeoff=tradeoff(p, t_train, task),
        split_grid=grid.to_dict(),
        constraints={
            "t_train_seconds": t_train,
            "memory_estimate_bytes": trace.array_bytes,
            "parameter_count": n_params,
            "t_inference_seconds": t_inference,
            "ood_degradation": p - p_ood if task == CLASSIFICATION else p_ood - p,
            "ood_metric": p_ood,
            "delta_declared": plan.delta,
        },
        stage_seconds=clock,
        detector=settings["detector"],
        norm=settings["norm"],
        threshold=pair.threshold,
        m=pair.m,
        n=pair.n,
        seed=plan.seed,
    )
    emit_report(report, "json", os.path.join(plan.out_dir, "report.json"))
    return report


def _sig(v: float, digits: int) -> str:
    if v == 0 or not np.isfinite(v):
        return str(v)
    return f"{v:.{digits}g}"


def _markdown(report: BenchReport) -> str:
    g = report.split_grid
    lines = [
        f"# Experiment report: {report.model} on {os.path.basename(report.dataset)}",
        "",
        "## Split validation",
        "",
        f"Detector `{report.detector}` (norm `{report.norm}`), threshold "
        f"{_sig(report.threshold, 4)}; M={report.m}, N={report.n}.",
        "",
        "| portion | train | test |",
        "| --- | --- | --- |",
        f"| in-distribution | {_sig(g['id_train'], 4)} | {_sig(g['id_test'], 4)} |",
        f"| out-of-distribution | {_sig(g['ood_train'], 4)} | {_sig(g['ood_test'], 4)} |",
        "",
        "## Speed/accuracy",
        "",
        f"| model | {report.metric_name} | t (s) | trade-off |",
        "| --- | --- | --- | --- |",
        f"| {report.model} | {_sig(report.p, 4)} | {_sig(report.t_seconds, 4)} "
        f"| {_sig(report.tradeoff, 2)} |",
        "",
        "## Recorded constraints",
        "",
        "| field | value |",
        "| --- | --- |",
    ]
    for key, value in report.constraints.items():
        shown = _sig(value, 4) if isinstance(value, float) else str(value)
        lines.append(f"| {key} | {shown} |")
    lines.append("")
    return "\n".join(lines)


def _flat_items(report: BenchReport) -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    for key, value in report.to_dict().items():
        if isinstance(value, dict):
            out.extend((f"{key}.{k}", v) for k, v in value.items())
        else:
            out.append((key, value))
    return out


def _csv_text(report: BenchReport) -> str:
    # full-precision value plus a display-rounded column
    lines = ["field,value,display"]
    for key, value in _flat_items(report):
        if isinstance(value, float):
            lines.append(f"{key},{value!r},{_sig(value, 4)}")
        else:
            lines.append(f"{key},{value},{value}")
    return "\n".join(lines) + "\n"


def emit_report(report: BenchReport, fmt: str, path) -> None:
    """Write a report as json (lossless round-trip), markdown, or csv."""
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=1)
    elif fmt == "markdown":
        text = _markdown(report)
    elif fmt == "csv":
        text = _csv_text(report)
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    with atomic_write(path) as fh:
        fh.write(text)


def compare_models(reports: list[BenchReport]) -> list[dict]:
    """Rank reports over one dataset/split by trade-off, best first.

    Ties break by the better task metric, then by model name.  All reports
    must describe the same dataset and split.
    """
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    signatures = {r.split_signature() for r in reports}
    if len(signatures) > 1:
        raise ValueError(f"reports cover different datasets/splits: {sorted(signatures)}")
    task = reports[0].task
    better_p = (lambda r: -r.p) if task == CLASSIFICATION else (lambda r: r.p)
    ranked = sorted(reports, key=lambda r: (-r.tradeoff, better_p(r), r.model))
    return [
        {
            "rank": i + 1,
            "model": r.model,
            "metric_name": r.metric_name,
            "p": r.p,
            "t_seconds": r.t_seconds,
            "tradeoff": r.tradeoff,
        }
        for i, r in enumerate(ranked)
    ]


def comparison_markdown(rows: list[dict]) -> str:
    lines = [
        "| rank | model | P | t (s) | trade-off |",
        "| --- | --- | --- | --- | --- |",
    ]
    for r in rows:
        lines.append(
            f"| {r['rank']} | {r['model']} | {_sig(r['p'], 4)} "
            f"| {_sig(r['t_seconds'], 4)} | {_sig(r['tradeoff'], 2)} |"
        )
    return "\n".join(lines) + "\n"
