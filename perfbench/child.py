"""Run one workload pipeline in a fresh process.

Usage: ``python3 child.py <spec.json>``, started by ``run.py`` with
``PYTHONPATH`` pointing at the sources under test.  The spec names the
mode (``import``, ``run`` or ``trace``), the workload, the seed, the input
files, an output directory and the result file to write.

``import`` only stamps the moments numpy and then tabcl are imported,
which ``run.py`` turns into ``setup_s``.  ``run`` times the whole pipeline
with tracing off, then times encoder-only inference outside the pipeline,
and times a fixed reference kernel before, between and after the two, which
gauges the host's speed during the repetition.
``trace`` installs the outside-in tracer around the pipeline and then times
one training step split into phases.  Both pipeline modes run the
correctness checks that need the program's own loaders.
"""

import time

import numpy as np

NUMPY_AT = time.monotonic()
import tabcl  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (after the stamp: not part of set-up)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tabcl.cli  # noqa: E402
from tabcl import bench, contrastive, data  # noqa: E402
from tabcl.numerics import RngStream  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import CLI, FLOORS, WORKLOADS  # noqa: E402

STAGES = ("ingest", "detect", "split", "train", "embed", "fit-head", "evaluate")
CLI_COMMANDS = ("ingest", "detect", "split", "train", "embed", "fit_head", "evaluate")
EMBED_ROWS = 40_000  # rows embedded per repetition, in calls over the whole table

SELF_S = (
    "contrastive.grad_on_views", "contrastive.train_tcl", "contrastive.augment",
    "contrastive.encode", "contrastive.save_model", "contrastive.load_model",
    "numerics.gaussian_noise", "numerics.check_finite",
    "heads.fit_softmax_regression", "heads.fit_linear", "heads.predict",
    "ood.fit_openmax", "ood.openmax_score", "ood.temp_score",
    "weibull.weibull_cdf", "weibull.weibull_mle",
    "data.read_csv", "data.infer_schema", "data.encode_features", "data.split",
    "data.save_split", "data.save_dataset", "data.load_dataset", "data.load_split",
    "bench.run_experiment",
)
TOTAL_S = (
    "heads.fit_logistic", "ood.train_backbone", "ood.validate_split", "ood.fit_temperature",
    *(f"cli.cmd_{c}" for c in CLI_COMMANDS),
)
CALLS = (
    "contrastive.grad_loss", "numerics.check_finite", "heads.fit_softmax_regression",
    "weibull.weibull_cdf",
)
LOSS_TERMS = (
    "contrastive.loss_reconstruction", "contrastive.loss_contrastive",
    "contrastive.loss_distance",
)


def auroc(scores, positive) -> float:
    """Rank-based AUROC with midranks for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    midrank = upper - (counts - 1) / 2.0
    ranks = midrank[inverse]
    n_pos = int(positive.sum())
    n_neg = scores.size - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _Capture:
    """Keeps the return value of the detector's scoring call in ``run_experiment``."""

    def __init__(self):
        self.scores = None
        self._saved = []

    def install(self):
        for attr in ("openmax_score", "temp_score"):
            original = getattr(bench, attr)

            def capture(*args, _original=original, **kwargs):
                self.scores = _original(*args, **kwargs)
                return self.scores

            self._saved.append((attr, original))
            setattr(bench, attr, capture)

    def uninstall(self):
        for attr, original in self._saved:
            setattr(bench, attr, original)
        self._saved.clear()


def run_plan(spec, wl, ops):
    """One ``run_experiment`` call, timed."""
    out = spec["out"]
    plan = bench.ExperimentPlan(
        dataset=spec["csv"], target=wl["target"], detector=dict(wl["detector"]),
        tcl=dict(wl["tcl"]), head=wl["head"], seed=spec["seed"], out_dir=out,
    )
    capture = _Capture()
    capture.install()
    try:
        start = time.perf_counter()
        report = bench.run_experiment(plan)
        plan_s = time.perf_counter() - start
    finally:
        capture.uninstall()
    ops.extend((f"stage {s}", True, "") for s in report.stage_seconds)
    return {
        "plan_s": plan_s,
        "p": report.p,
        "train_s": report.t_seconds,
        "scores": np.asarray(capture.scores, dtype=np.float64),
        "m": report.m,
        "n": report.n,
        "stage_seconds": dict(report.stage_seconds),
        "split_dir": os.path.join(out, "split"),
        "model": os.path.join(out, "model.json"),
        "trace": os.path.join(out, "trace.json"),
    }


def cli_steps(spec, wl):
    out, seed = spec["out"], str(spec["seed"])
    ds, det, spl = (os.path.join(out, d) for d in ("ds", "det", "split"))
    run, emb, head, ev = (os.path.join(out, d) for d in ("run", "emb", "head", "eval"))
    tcl = wl["tcl"]
    return [
        ["ingest", spec["csv"], "--target", wl["target"], "--out", ds],
        ["detect", ds, "--detector", wl["detector"]["detector"], "--seed", seed, "--out", det],
        ["split", ds, os.path.join(det, "scores.json"),
         "--quantile", str(wl["detector"]["quantile"]), "--out", spl],
        ["train", spl, "--noise", tcl["noise"], "--max-epochs", str(tcl["max_epochs"]),
         "--tolerance", str(tcl["tolerance"]), "--seed", seed, "--out", run],
        ["embed", os.path.join(run, "model.json"), ds, "--out", emb],
        ["fit-head", emb, "--kind", wl["head"], "--out", head],
        ["evaluate", os.path.join(head, "head.json"), emb, "--out", ev],
    ]


def run_cli(spec, wl, ops):
    """The seven subcommands, in-process through ``tabcl.cli.main``."""
    out = spec["out"]
    start = time.perf_counter()
    for argv in cli_steps(spec, wl):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = tabcl.cli.main(argv)
        ops.append((f"cli {argv[0]}", code == 0, f"exit code {code}: {sink.getvalue()[-300:]}"))
        if code != 0:
            raise RuntimeError(f"tabcl {argv[0]} exited with code {code}")
    plan_s = time.perf_counter() - start
    with open(os.path.join(out, "eval", "metrics.json"), encoding="utf-8") as fh:
        p = json.load(fh)["rmse"]
    with open(os.path.join(out, "run", "trace.json"), encoding="utf-8") as fh:
        train_s = json.load(fh)["seconds"]
    with open(os.path.join(out, "det", "scores.json"), encoding="utf-8") as fh:
        scores = np.asarray(json.load(fh)["scores"], dtype=np.float64)
    return {
        "plan_s": plan_s,
        "p": p,
        "train_s": train_s,
        "scores": scores,
        "m": None,
        "n": None,
        "stage_seconds": {},
        "split_dir": os.path.join(out, "split"),
        "model": os.path.join(out, "run", "model.json"),
        "trace": os.path.join(out, "run", "trace.json"),
    }


def check_outputs(wl, name, outcome, ops):
    """Correctness checks that need the program's loaders or its artifacts.

    Returns the reloaded split, whose two sides hold every row of the table.
    """
    pair = data.load_split(outcome["split_dir"])
    if outcome["m"] is None:  # the CLI prints M/N but keeps no report
        below = int((outcome["scores"] <= pair.threshold).sum())
        expected = (below, outcome["scores"].size - below)
    else:
        expected = (outcome["m"], outcome["n"])
    finite = bool(np.isfinite(pair.d_in.features).all() and np.isfinite(pair.d_ood.features).all())
    ops.append(("load_split m/n and finite features", (pair.m, pair.n) == expected and finite,
                f"got {(pair.m, pair.n)}, expected {expected}, finite={finite}"))

    with open(outcome["trace"], encoding="utf-8") as fh:
        trace = json.load(fh)
    epochs = wl["tcl"]["max_epochs"]
    losses = [trace[k] for k in ("total", "reconstruction", "contrastive", "distance")]
    ok = trace["epochs"] == epochs and all(
        len(v) == epochs and np.isfinite(v).all() for v in losses
    )
    ops.append(("trace epochs and finite losses", ok, f"epochs {trace['epochs']}, want {epochs}"))
    # Training must lower the loss.  A step that no longer follows the
    # gradient leaves the total loss flat, and on train-wide it even raises
    # F1, so the quality floors alone would not catch it.
    floors = FLOORS[name]
    first, last = trace["total"][0], trace["total"][-1]
    limit = floors["loss_ratio_max"]
    ops.append(("training lowers the total loss", bool(last <= limit * first),
                f"last epoch {last!r} > {limit} x first epoch {first!r}"))

    q = outcome["ood_auroc"]
    ops.append(("ood_auroc floor", bool(np.isfinite(q) and q >= floors["ood_auroc_min"]),
                f"ood_auroc {q!r} < {floors['ood_auroc_min']}"))
    p = outcome["p"]
    if "f1_macro_min" in floors:
        ok = bool(np.isfinite(p) and p >= floors["f1_macro_min"])
        ops.append(("f1_macro floor", ok, f"f1_macro {p!r} < {floors['f1_macro_min']}"))
    else:
        ok = bool(np.isfinite(p) and 0 < p <= floors["rmse_max"])
        ops.append(("rmse ceiling", ok, f"rmse {p!r} > {floors['rmse_max']}"))
    return pair


def digest(outcome) -> dict:
    """Bytes that must repeat exactly at one seed, within and across modes."""
    split_dir = outcome["split_dir"]
    return {
        "model.json": _sha(outcome["model"]),
        "d_in.csv": _sha(os.path.join(split_dir, "d_in.csv")),
        "d_ood.csv": _sha(os.path.join(split_dir, "d_ood.csv")),
        "scores": hashlib.sha256(outcome["scores"].tobytes()).hexdigest(),
        "p": repr(outcome["p"]),
    }


def embed_timing(model_path, X) -> tuple[int, float]:
    """Encoder-only inference over all rows, repeated until about
    ``EMBED_ROWS`` rows are embedded; returns the rows and the seconds."""
    model = contrastive.load_model(model_path)
    contrastive.embed(model, X)  # warm-up
    calls = max(3, -(-EMBED_ROWS // X.shape[0]))
    start = time.perf_counter()
    for _ in range(calls):
        contrastive.embed(model, X)
    return calls * X.shape[0], time.perf_counter() - start


def reference_s() -> float:
    """Time of a fixed kernel that uses none of the program's code.

    It mixes the two kinds of work the pipelines do: an MLP forward pass of
    the encoder's shape over a few hundred rows (BLAS products, layer
    normalisation and temporaries of several hundred KB), and per-cell text
    parsing in Python.  Load from outside the machine then slows it about as
    much as it slows a pipeline.  ``run.py`` divides timings by it to factor
    out the host's speed.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((700, 64))
    w1 = rng.standard_normal((64, 128)) / 8.0
    w2 = rng.standard_normal((128, 64)) / 11.0
    cells = [f"{v:.6g}" for v in x.ravel()[:24000]]
    start = time.perf_counter()
    for _ in range(12):
        h = x @ w1
        h = (h - h.mean(axis=1, keepdims=True)) / np.sqrt(h.var(axis=1, keepdims=True) + 1e-5)
        z = np.where(h > 0.0, h, 0.01 * h) @ w2
    parsed = [float(c) for c in cells]
    elapsed = time.perf_counter() - start
    if not np.isfinite(z).all() or len(parsed) != len(cells):
        raise RuntimeError("reference kernel produced a wrong result")
    return elapsed


def step_phases(spec, wl, X) -> dict:
    """One training step on a batch of the workload's shape, split into the
    noise draw, the forward pass and forward plus backward."""
    config = contrastive.TclConfig(input_dim=X.shape[1], seed=spec["seed"], **wl["tcl"])
    batch = X[: min(config.batch_size, X.shape[0])]
    model = contrastive.init_model(config)
    rng = RngStream(spec["seed"], 1)
    t_aug, t_fwd, t_grad = [], [], []
    for _ in range(25):
        t0 = time.perf_counter()
        x1, x2 = contrastive.augment(batch, config, rng)
        t1 = time.perf_counter()
        contrastive.loss_on_views(model, x1, x2, batch)
        t2 = time.perf_counter()
        contrastive.grad_on_views(model, x1, x2, batch)
        t3 = time.perf_counter()
        t_aug.append(t1 - t0)
        t_fwd.append(t2 - t1)
        t_grad.append(t3 - t2)
    forward = float(np.median(t_fwd))
    return {
        "contrastive.step.augment_ms": 1e3 * float(np.median(t_aug)),
        "contrastive.step.forward_ms": 1e3 * forward,
        "contrastive.step.backward_ms": 1e3 * (float(np.median(t_grad)) - forward),
    }


def layer_metrics(tracer: Tracer, outcome, out_dir) -> dict:
    stats = tracer.stats
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}

    def get(name):
        return stats.get(name, zero)

    layers = {f"{n}.self_s": get(n)["self_s"] for n in SELF_S}
    layers.update({f"{n}.total_s": get(n)["total_s"] for n in TOTAL_S})
    layers.update({f"{n}.calls": get(n)["calls"] for n in CALLS})
    layers["contrastive.loss_terms.self_s"] = sum(get(n)["self_s"] for n in LOSS_TERMS)
    layers["data.read_csv.cells"] = tracer.counts.get("data.read_csv", 0)
    layers["data.artifact_bytes"] = sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files
    )
    for stage in STAGES:
        layers[f"bench.stage_seconds.{stage}"] = outcome["stage_seconds"].get(stage, 0.0)
    plan_s = outcome["plan_s"]
    for module in MODULES:
        own = sum(s["self_s"] for n, s in stats.items() if n.split(".")[0] == module)
        layers[f"share.{module}"] = own / plan_s
    layers["share.heads.fit_softmax_regression"] = get("heads.fit_softmax_regression")["self_s"] / plan_s
    layers["trace.spans"] = len(tracer.spans)
    layers["trace.failed_spans"] = sum(s["failed"] for s in stats.values())
    return layers


def run(spec, ops) -> dict:
    name = spec["workload"]
    wl = WORKLOADS[name]
    tracer = None
    reference = []
    if spec["mode"] == "trace":
        tracer = Tracer(counters={"data.read_csv": lambda raw: len(raw.rows) * len(raw.header)})
        tracer.install()
    else:
        reference_s()  # warm-up
        reference.append(reference_s())
    try:
        outcome = run_cli(spec, wl, ops) if wl["kind"] == CLI else run_plan(spec, wl, ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        reference.append(reference_s())
    outcome["ood_auroc"] = auroc(outcome["scores"], np.load(spec["mask"]))
    pair = check_outputs(wl, name, outcome, ops)

    result = {
        "plan_s": outcome["plan_s"],
        "train_s": outcome["train_s"],
        "p": outcome["p"],
        "ood_auroc": outcome["ood_auroc"],
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(outcome),
    }
    X = np.vstack([pair.d_in.features, pair.d_ood.features])
    if tracer is None:
        result["embed_rows"], result["embed_s"] = embed_timing(outcome["model"], X)
        reference.append(reference_s())
        result["reference_s"] = reference
    else:
        tracer.write(spec["spans"])
        result["layers"] = layer_metrics(tracer, outcome, spec["out"])
        result["layers"].update(step_phases(spec, wl, X))
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"numpy_at": NUMPY_AT, "imported_at": IMPORTED_AT}
    if spec["mode"] != "import":
        ops: list = []
        try:
            result.update(run(spec, ops))
        except Exception:  # reported to the parent as a failed operation
            ops.append(("pipeline", False, traceback.format_exc()))
        result["ops"] = ops
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
