"""Command-line pipeline: each subcommand is one stage, `report` runs them all.

Each stage subcommand parses its arguments and calls the stage function
in :mod:`tabcl.bench` that ``run_experiment`` calls too.

Exit codes: 0 success, 2 configuration error, 3 data/format error
(including an unreadable or unwritable file), 4 numeric/training error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .artifacts import atomic_write, write_json
from .bench import (
    TCL_KEYS,
    BenchReport,
    ExperimentPlan,
    check_detector,
    compare_models,
    comparison_markdown,
    detect,
    emit_report,
    evaluate,
    fit_head,
    load_config,
    load_scores,
    run_experiment,
    save_scores,
    split_at_threshold,
    tradeoff,
    train,
)
from .contrastive import embed, load_model
from .data import Column, Dataset, Schema, ingest_csv, load_dataset, load_split, save_dataset
from .exceptions import ConfigError, FormatError, NumericError
from .heads import load_head, predict, save_head
from .ood import OPENMAX, TEMPERATURE

# No stage calls this alias any more, but perfbench/test_tracer.py checks
# that the tracer folds a call through it into the span of data.split.
from .data import split as split_rows  # noqa: F401

def _settings(args, block: str, flags) -> dict:
    """One stage's settings: the ``block`` table of ``--config`` when it has
    one, else the whole document, with the given flags laid over it."""
    cfg = load_config(args.config) if args.config else {}
    settings = dict(cfg[block]) if isinstance(cfg.get(block), dict) else dict(cfg)
    for key in flags:
        if getattr(args, key, None) is not None:
            settings[key] = getattr(args, key)
    return settings


def _out_dir(args) -> str:
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    dataset = ingest_csv(
        args.csv, target=args.target, task=args.task, delimiter=args.delimiter
    )
    out = _out_dir(args)
    save_dataset(dataset, out)
    print(f"ingested {dataset.n} rows x {dataset.d} encoded features -> {out}")
    return 0


def cmd_detect(args) -> int:
    det = _settings(args, "detector", ("detector", "norm", "tail", "bins", "seed"))
    check_detector(det)
    dataset = load_dataset(args.data)
    out = _out_dir(args)
    scores, settings = detect(dataset, det, 0, out)  # seed 0 unless --seed or the config sets one
    save_scores(os.path.join(out, "scores.json"), scores, settings)
    print(f"scored {len(scores)} rows with {settings['detector']} "
          f"-> {out}/scores.json, {out}/histogram.csv")
    return 0


def cmd_split(args) -> int:
    dataset = load_dataset(args.data)
    scores, settings = load_scores(args.scores)
    det = {k: getattr(args, k) for k in ("threshold", "quantile") if getattr(args, k) is not None}
    check_detector(det)
    out = _out_dir(args)
    pair = split_at_threshold(dataset, scores, det, settings, out)
    flag = "  (anomalous: M <= N)" if pair.anomalous else ""
    print(f"split at {pair.threshold!r}: M={pair.m} in-distribution, N={pair.n} OOD -> {out}{flag}")
    return 0


def cmd_train(args) -> int:
    tcl = _settings(args, "tcl", TCL_KEYS)  # every TCL setting has a flag
    path = os.path.join(args.data, "d_in.csv")
    data = load_split(args.data).d_in if os.path.exists(path) else load_dataset(args.data)
    out = _out_dir(args)
    model, trace = train(data, tcl, 0, out)  # seed 0 unless --seed or the config sets one
    print(
        f"trained {trace.epochs} epochs in {trace.seconds:.2f}s "
        f"(stop: {trace.stop_reason}, final loss {trace.total[-1]:.4g}) -> {out}/model.json"
    )
    return 0


def cmd_embed(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.data)
    e = embed(model, dataset.features)
    schema = Schema(
        tuple(Column(f"e{i}", "numeric") for i in range(e.shape[1])),
        dataset.schema.target,
        dataset.schema.task,
        dataset.schema.classes,
    )
    out = _out_dir(args)
    save_dataset(Dataset(e, dataset.labels, schema, None), out)
    print(f"embedded {e.shape[0]} rows -> {out} ({e.shape[1]} latent features)")
    return 0


def cmd_fit_head(args) -> int:
    dataset = load_dataset(args.data)
    head = fit_head(dataset.features, dataset.labels, args.kind, dataset.schema.task,
                    args.seed or 0)
    out = _out_dir(args)
    save_head(head, os.path.join(out, "head.json"))
    print(f"fitted {head.kind} head on {dataset.n} rows -> {out}/head.json")
    return 0


def cmd_evaluate(args) -> int:
    head = load_head(args.head)
    dataset = load_dataset(args.data)
    metrics = evaluate(dataset.schema.task, dataset.labels, predict(head, dataset.features))
    write_json(os.path.join(_out_dir(args), "metrics.json"), metrics, indent=1)
    for key, value in metrics.items():
        print(f"{key}: {value:.6g}")
    return 0


def cmd_tradeoff(args) -> int:
    t = tradeoff(args.p, args.t, args.task)
    print(f"tradeoff: {t!r}  (display: {t:.2g})")
    return 0


def cmd_report(args) -> int:
    if not args.config:
        raise ConfigError("report needs --config with an experiment plan")
    plan = ExperimentPlan.from_file(args.config)
    if args.out:
        plan.out_dir = args.out
    if args.seed is not None:
        plan.seed = args.seed
    report = run_experiment(plan)
    emit_report(report, "markdown", os.path.join(plan.out_dir, "report.md"))
    emit_report(report, "csv", os.path.join(plan.out_dir, "report.csv"))
    print(
        f"{report.model}: {report.metric_name}={report.p:.4g}, "
        f"t={report.t_seconds:.3g}s, tradeoff={report.tradeoff:.2g} -> {plan.out_dir}"
    )
    return 0


def cmd_compare(args) -> int:
    reports = [BenchReport.from_file(p) for p in args.reports]
    rows = compare_models(reports)
    text = comparison_markdown(rows)
    sys.stdout.write(text)
    if args.out:
        with atomic_write(os.path.join(_out_dir(args), "comparison.md")) as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="random seed")
    common.add_argument("--config", default=None, help="JSON/TOML config file")
    common.add_argument("--out", default=None, help="output directory")

    parser = argparse.ArgumentParser(
        prog="tabcl",
        description="Tabular contrastive learning with OOD gating and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="encode a CSV into a dataset artifact")
    p.add_argument("csv")
    p.add_argument("--target", required=True, help="target column name")
    p.add_argument("--task", choices=["classification", "regression"], default=None)
    p.add_argument("--delimiter", default=",")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("detect", parents=[common], help="score rows with an OOD detector")
    p.add_argument("data", help="dataset artifact directory")
    p.add_argument("--detector", choices=[OPENMAX, TEMPERATURE], default=None)
    p.add_argument("--norm", choices=["l1", "l2"], default=None)
    p.add_argument("--tail", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("split", parents=[common], help="split a dataset at a score threshold")
    p.add_argument("data")
    p.add_argument("scores", help="scores.json from `detect`")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--quantile", type=float, default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", parents=[common], help="train the contrastive encoder")
    p.add_argument("data", help="dataset artifact or split directory")
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=None)
    p.add_argument("--latent-dim", dest="latent_dim", type=int, default=None)
    p.add_argument("--noise", choices=["gaussian", "mask"], default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--mask-prob", dest="mask_prob", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", parents=[common], help="encode a dataset into the latent space")
    p.add_argument("model", help="model.json from `train`")
    p.add_argument("data")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("fit-head", parents=[common], help="fit a prediction head")
    p.add_argument("data", help="dataset (or embeddings) artifact directory")
    p.add_argument("--kind", choices=["logistic", "linear"], default=None)
    p.set_defaults(func=cmd_fit_head)

    p = sub.add_parser("evaluate", parents=[common], help="evaluate a head on a dataset")
    p.add_argument("head", help="head.json from `fit-head`")
    p.add_argument("data")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tradeoff", parents=[common], help="speed/accuracy trade-off")
    p.add_argument("--p", type=float, required=True, help="task metric (F1 or RMSE)")
    p.add_argument("--t", type=float, required=True, help="training seconds")
    p.add_argument("--task", choices=["classification", "regression"], required=True)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("report", parents=[common], help="run a full experiment plan")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", parents=[common], help="rank reports by trade-off")
    p.add_argument("reports", nargs="+", help="report.json files")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
