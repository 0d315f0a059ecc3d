"""Full-pipeline experiments, the stages they run, and the speed/accuracy trade-off.

The trade-off score of a model is its task metric per training second:
``P / t`` for classification (higher F1 is better) and ``(1 / P) / t`` for
regression (lower RMSE is better).  ``run_experiment`` drives the whole
pipeline on one CSV: ingest, OOD detection and split, timed contrastive
training, embedding, head fitting, and evaluation on the ID-test and OOD
portions.  Only the unsupervised training time enters the trade-off; the
other stages are recorded separately.  A :class:`BenchReport` records each
fact once: the split's detector, norm, threshold and sizes are top-level
fields.  ``split_grid`` holds the raw-feature probe's cells, fitted and
tested on the rows that the embedding's head (``p``) is, in the same metric.

The stage functions (:func:`detect`, :func:`split_at_threshold`,
:func:`train`, :func:`tabcl.heads.fit_head`, :func:`evaluate`) are the
single implementation of each stage: the CLI subcommands call the same ones.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_write, fields, read_json, write_json
from .contrastive import TclConfig, TclModel, TrainTrace, embed, save_model, train_tcl
from .data import CLASSIFICATION, Dataset, Schema, SplitPair, ingest_csv, save_split, split
from .exceptions import ConfigError, FormatError
from .heads import TASKS, fit_head, predict, task_rules
from .numerics import STREAMS, RngStream, is_finite_number, is_integer, plain_number
from .ood import (OPENMAX, TEMPERATURE, degradation, discretize_target, fit_openmax,
                  fit_temperature, openmax_score, score_histogram, split_by_threshold,
                  temp_score, train_backbone, validate_split, write_histogram_csv)

# the TclConfig fields a tcl block sets: input_dim is the data's width, seed the run's
TCL_KEYS = {f.name for f in dataclasses.fields(TclConfig)} - {"input_dim", "seed"}
DISCRETIZE_BINS = 10  # detection-only quantile bins for regression targets


def tradeoff(p: float, t: float, task: str) -> float:
    """Speed/accuracy trade-off: P/t for classification, (1/P)/t for
    regression, whose metric is better when lower (:func:`tabcl.heads.task_rules`)."""
    if not 0 < t < np.inf:
        raise ValueError(f"training time must be positive and finite, got {t}")
    if task_rules(task).higher_is_better:
        if 0 <= p <= 1:
            return p / t
    elif 0 < p < np.inf:
        return (1.0 / p) / t
    raise ValueError(f"no trade-off for a {task!r} metric of {p}: classification "
                     "takes P in [0, 1], regression a positive finite P")


@dataclass(frozen=True)
class DetectorConfig:
    """Settings of the detect and split stages (the seed is the run's).  A
    ``quantile`` of None means 0.95 unless a ``threshold`` is set.  Every
    number is stored as a Python ``int`` or ``float``."""

    detector: str = OPENMAX
    norm: str = "l2"
    tail: int = 20
    threshold: float | None = None
    quantile: float | None = None

    def __post_init__(self):
        if self.detector not in (OPENMAX, TEMPERATURE):
            raise ValueError(f"unknown detector: {self.detector!r}")
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"unknown norm: {self.norm!r}; use l1 or l2")
        if self.threshold is not None and self.quantile is not None:
            raise ValueError("give either a threshold or a quantile, not both")
        if self.threshold is not None and not is_finite_number(self.threshold):
            raise ValueError(f"threshold must be a finite number, got {self.threshold!r}")
        if not (is_integer(self.tail) and self.tail >= 2):
            raise ValueError(f"detector tail must be an integer >= 2, got {self.tail!r}")
        q = self.quantile
        if q is not None and not (is_finite_number(q) and 0.0 < q < 1.0):
            raise ValueError(f"quantile must lie in (0, 1), got {q!r}")
        for key in ("tail", "threshold", "quantile"):
            object.__setattr__(self, key, plain_number(getattr(self, key)))


def check_seed(seed) -> int:
    """The run's seed as an ``int``; a configuration error unless it is a
    non-negative integer."""
    if not (is_integer(seed) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def build_config(cls, block: dict, what: str, **fixed):
    """The ``cls`` dataclass that the ``what`` settings ``block`` describes,
    with the ``fixed`` fields set by the caller, which the block may not set.
    A block that is not a table, unknown keys and rejected values are
    configuration errors."""
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be a table, got {block!r}")
    unknown = set(block) - ({f.name for f in dataclasses.fields(cls)} - set(fixed))
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    try:
        return cls(**fixed, **block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} config: {exc}") from exc


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

    def __post_init__(self):
        build_config(DetectorConfig, self.detector, "detector")
        build_config(TclConfig, self.tcl, "tcl", input_dim=1, seed=0)
        for name in ("dataset", "target", "model_name", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        if {"\n", "\r"} & set(self.model_name):  # a markdown table row is one line
            raise ConfigError(f"model_name must be one line, got {self.model_name!r}")
        if self.task not in (None, *TASKS):
            raise ConfigError(f"unknown task: {self.task!r}")
        if self.head not in (None, *(rules.head for rules in TASKS.values())):
            raise ConfigError(f"unknown head kind: {self.head!r}")
        if self.task is not None:  # else ingest infers the task, and checks the head then
            task_rules(self.task).check_head(self.head)
        self.seed = check_seed(self.seed)

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
        """The plan in a JSON file, or a TOML one when the name ends in ``.toml``."""
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            if str(path).endswith(".toml"):
                import tomllib  # only TOML plans pay for the import

                doc = tomllib.loads(raw.decode("utf-8-sig"))
            else:
                doc = json.loads(raw)
        except ValueError as exc:  # bad JSON, bad TOML or bad UTF-8
            raise ConfigError(f"{path}: bad config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: a config is a JSON object or a TOML table")
        return ExperimentPlan.from_dict(doc)


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
    split_grid: dict  # the SplitReport's fields: the raw-feature probe's cells
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
        """The report a :meth:`to_dict` dict describes; a missing, unknown or
        ill-typed field is a :class:`FormatError`."""
        try:
            report = BenchReport(**d)
        except TypeError as exc:
            raise FormatError(f"malformed report: {exc}") from exc
        for f in dataclasses.fields(BenchReport):
            value = getattr(report, f.name)
            ok, what = {
                "str": (isinstance(value, str), "a string"),
                "float": (is_finite_number(value), "a finite number"),
                "int": (is_integer(value) and value >= 0, "a non-negative integer"),
                "dict": (isinstance(value, dict), "an object"),
            }[f.type]
            if not ok:
                raise FormatError(f"malformed report: {f.name} must be {what}, got {value!r}")
        if {"\n", "\r"} & set(report.model):
            raise FormatError(f"malformed report: model must be one line, got {report.model!r}")
        return report

    @staticmethod
    def from_file(path) -> "BenchReport":
        """The report stored at ``path``; a malformed one is a
        :class:`FormatError` naming the file."""
        payload = read_json(path, "report")
        try:
            return BenchReport.from_dict(payload)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc

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


def detect(dataset: Dataset, det: DetectorConfig, seed: int, out_dir) -> tuple[np.ndarray, dict]:
    """Detect stage: train the backbone, fit the configured detector, score
    every row, and write ``histogram.csv``, 50 bins of the scores, into
    ``out_dir``.

    A regression target is discretized into quantile bins for detection
    only.  ``seed`` keys the temperature detector's calibration split.
    Returns the scores and the settings that produced them, which
    ``scores.json`` and the report record: ``tail`` only for openmax, the
    one detector that fits a Weibull tail.
    """
    if dataset.schema.task != CLASSIFICATION:
        width = len(str(DISCRETIZE_BINS - 1))  # zero-padded, the names sort as the bins do
        schema = Schema(dataset.schema.features, dataset.schema.target, CLASSIFICATION,
                        tuple(f"{i:0{width}d}" for i in range(DISCRETIZE_BINS)))
        labels = discretize_target(dataset.labels, DISCRETIZE_BINS)
        dataset = Dataset(dataset.features, labels, schema, dataset.stats)

    if det.detector == OPENMAX:
        backbone = train_backbone(dataset)
        model = fit_openmax(backbone, dataset, norm=det.norm, tail=det.tail)
        scores = openmax_score(model, dataset.features)
        settings = {"detector": det.detector, "norm": model.norm, "tail": det.tail}
    else:
        rng = RngStream(seed, STREAMS["calibration"])
        fit_part, cal_part = split(dataset, rng)
        backbone = train_backbone(fit_part)
        model = fit_temperature(backbone, cal_part)
        scores = temp_score(model, dataset.features)
        settings = {"detector": det.detector, "norm": "none"}

    write_histogram_csv(*score_histogram(scores),
                        os.path.join(out_dir, "histogram.csv"))
    return np.asarray(scores), {**settings, "seed": seed}


def save_scores(path, scores: np.ndarray, settings: dict) -> None:
    """Write detector scores and the settings of :func:`detect` as JSON."""
    write_json(path, {**settings, "scores": np.asarray(scores).tolist()})


def load_scores(path) -> np.ndarray:
    """The scores of a :func:`save_scores` file.  Only ``scores``, a list of
    JSON numbers, is read, so scores from any other source can be split
    too."""
    payload = read_json(path, "scores file")
    with fields(path, "scores file"):
        values = payload["scores"]
    if not isinstance(values, list):
        raise FormatError(f"{path}: scores must be a list, got {type(values).__name__}")
    if not values:
        raise FormatError(f"{path}: the scores file holds no scores")
    for i, value in enumerate(values):
        if type(value) not in (int, float):  # JSON numbers decode to these, true/false to bool
            raise FormatError(f"{path}: score {value!r} at index {i} is not a number")
        if not abs(value) <= sys.float_info.max:  # NaN, infinity or an integer beyond float64
            raise FormatError(f"{path}: non-finite score {value!r} at index {i}")
    return np.asarray(values, dtype=np.float64)


def _quantile(values: np.ndarray, q: float) -> float:
    """``float(np.quantile(values, q))`` bit for bit, for a non-empty float64
    vector without NaN and a float ``q`` in (0, 1): numpy's ``linear``
    virtual index and ``_lerp``, on the partition numpy makes.  numpy's own
    imports ``numpy.ma``."""
    last = values.size - 1
    v = last * q
    lo = -1 if v >= last else int(v)  # v >= 0: int() is the floor
    hi = lo if lo < 0 else lo + 1
    part = np.partition(values, sorted({0, -1, lo, hi}))
    a, b, t = part[lo], part[hi], v - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def split_at_threshold(
    dataset: Dataset, scores: np.ndarray, det: DetectorConfig, out_dir
) -> SplitPair:
    """Split stage: rows scoring at most ``det.threshold``, or else at most
    the ``det.quantile`` (default 0.95) of the scores, stay in-distribution;
    the split is written into ``out_dir``."""
    if scores.shape != (dataset.n,):
        raise FormatError(f"{scores.size} scores for {dataset.n} rows: need one score per row")
    q = 0.95 if det.quantile is None else det.quantile
    threshold = _quantile(scores, q) if det.threshold is None else float(det.threshold)
    pair = split_by_threshold(dataset, scores, threshold)
    save_split(pair, out_dir)
    return pair


def train(data: Dataset, tcl: dict, seed: int, out_dir) -> tuple[TclModel, TrainTrace]:
    """Train stage: fit the contrastive encoder on ``data`` and write
    ``model.json`` and ``trace.json`` into ``out_dir``.

    ``tcl`` holds the :class:`TclConfig` fields of :data:`TCL_KEYS`; the
    data's width and ``seed`` set the other two.
    """
    config = build_config(TclConfig, tcl, "tcl", input_dim=data.d, seed=seed)
    model, trace = train_tcl(data.features, config)
    save_model(model, os.path.join(out_dir, "model.json"))
    write_json(os.path.join(out_dir, "trace.json"), dataclasses.asdict(trace), indent=1)
    return model, trace


def evaluate(task: str, labels, pred) -> dict:
    """Evaluate stage: the task's metrics (:func:`tabcl.heads.task_rules`),
    accuracy and macro-F1 for classification, RMSE and r-squared for regression."""
    return {name: metric(labels, pred) for name, metric in task_rules(task).metrics}


def run_experiment(plan: ExperimentPlan) -> BenchReport:
    """Execute a plan end to end and write all artifacts to its out_dir.

    Stage order: ingest -> detect -> split -> train (timed) -> embed ->
    fit-head -> evaluate.  Any failure propagates with the stage name added
    as a note; artifacts written before the failure are kept for debugging.

    Each feature matrix is kept only while a later stage reads it, so after
    the split the run holds one float64 copy of the rows at a time: the
    ingested table goes once the split is written; the split pair once
    ID-train and ID-test are cut from it, keeping its OOD side, threshold
    and sizes; and ID-train, ID-test and the OOD side once they are
    embedded, keeping their labels and the class count.
    """
    os.makedirs(plan.out_dir, exist_ok=True)
    clock: dict[str, float] = {}

    with _Stage("ingest", clock):
        dataset = ingest_csv(plan.dataset, target=plan.target, task=plan.task)
        task = dataset.schema.task
        rules = task_rules(task)
        rules.check_head(plan.head)  # a head that does not fit the task fails before training

    det = build_config(DetectorConfig, plan.detector, "detector")
    with _Stage("detect", clock):
        scores, settings = detect(dataset, det, plan.seed, plan.out_dir)

    with _Stage("split", clock):
        pair = split_at_threshold(dataset, scores, det, os.path.join(plan.out_dir, "split"))
        del dataset, scores  # the split holds every row a later stage reads
        grid, id_train, id_test = validate_split(
            pair, RngStream(plan.seed, STREAMS["id-split"]))
        d_ood, threshold, m, n = pair.d_ood, pair.threshold, pair.m, pair.n
        del pair  # its ID side lives on as ID-train and ID-test

    with _Stage("train", clock):
        model, trace = train(id_train, plan.tcl, plan.seed, plan.out_dir)

    with _Stage("embed", clock):
        e_train = embed(model, id_train.features)
        e_test = embed(model, id_test.features)
        e_ood = embed(model, d_ood.features)
        y_train, y_test, y_ood = id_train.labels, id_test.labels, d_ood.labels
        classes = len(id_train.schema.classes)
        del id_train, id_test, d_ood  # the later stages read embeddings and labels

    with _Stage("fit-head", clock):
        head = fit_head(e_train, y_train, task, plan.head, classes=classes)

    with _Stage("evaluate", clock):
        t0 = time.perf_counter()
        pred_test = predict(head, e_test)
        t_inference = time.perf_counter() - t0
        p = rules.metric(y_test, pred_test)
        p_ood = rules.metric(y_ood, predict(head, e_ood))

    t_train = trace.seconds
    report = BenchReport(
        model=plan.model_name,
        dataset=plan.dataset,
        task=task,
        metric_name=rules.metric_name,
        p=p,
        t_seconds=t_train,
        tradeoff=tradeoff(p, t_train, task),
        split_grid=dataclasses.asdict(grid),
        constraints={
            "memory_estimate_bytes": trace.array_bytes,
            "parameter_count": model.vector.size,
            "t_inference_seconds": t_inference,
            "ood_degradation": degradation(task, p, p_ood),
            "ood_metric": p_ood,
        },
        stage_seconds=clock,
        detector=settings["detector"],
        norm=settings["norm"],
        threshold=threshold,
        m=m,
        n=n,
        seed=plan.seed,
    )
    emit_report(report, "json", os.path.join(plan.out_dir, "report.json"))
    return report


def _sig(v: float, digits: int) -> str:
    if v == 0 or not np.isfinite(v):
        return str(v)
    return f"{v:.{digits}g}"


def _cell(text: str) -> str:
    """``text`` as a markdown table cell: a ``|`` in it would end the cell."""
    return text.replace("|", "\\|")


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
        f"| {report.metric_name} | ID test | OOD |",
        "| --- | --- | --- |",
        f"| raw features | {_sig(g['id_test'], 4)} | {_sig(g['ood'], 4)} |",
        f"| embedding | {_sig(report.p, 4)} | {_sig(report.constraints['ood_metric'], 4)} |",
        "",
        "## Speed/accuracy",
        "",
        f"| model | {report.metric_name} | t (s) | trade-off |",
        "| --- | --- | --- | --- |",
        f"| {_cell(report.model)} | {_sig(report.p, 4)} | {_sig(report.t_seconds, 4)} "
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
    # full-precision value plus a display-rounded column; csv.writer quotes
    # a field holding a comma, a quote or a line break
    rows = [(key, repr(v), _sig(v, 4)) if isinstance(v, float) else (key, str(v), str(v))
            for key, v in _flat_items(report)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("field", "value", "display"), *rows])
    return buf.getvalue()


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
    must describe the same dataset, split and task.
    """
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    signatures = {r.split_signature() for r in reports}
    if len(signatures) > 1:
        raise ValueError(f"reports cover different datasets/splits: {sorted(signatures)}")
    tasks = {r.task for r in reports}
    if len(tasks) > 1:
        raise ValueError(f"reports cover different tasks: {sorted(tasks)}")
    sign = -1 if task_rules(tasks.pop()).higher_is_better else 1
    ranked = sorted(reports, key=lambda r: (-r.tradeoff, sign * r.p, r.model))
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
            f"| {r['rank']} | {_cell(r['model'])} | {_sig(r['p'], 4)} "
            f"| {_sig(r['t_seconds'], 4)} | {_sig(r['tradeoff'], 2)} |"
        )
    return "\n".join(lines) + "\n"
