"""Command-line pipeline: each subcommand is one stage, `report` runs them all.

Each stage subcommand parses its arguments and calls the stage function
in :mod:`tabcl.bench` that ``run_experiment`` calls too.  A stage's
settings are its flags, checked before any artifact is read; only
``report`` reads an experiment plan, ``--config <file>`` (JSON or TOML).
A shared flag goes only to the subcommands that read it: ``--out <dir>``
to all but ``tradeoff``, and ``--seed`` (the run's one seed) to
``detect``, ``train`` and ``report``.  Options go after the subcommand.

Exit codes: 0 success, 2 configuration error, 3 data/format error
(including an unreadable or unwritable file), 4 numeric/training error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import types

from .artifacts import atomic_write, write_json
from .bench import (
    TCL_KEYS,
    BenchReport,
    DetectorConfig,
    ExperimentPlan,
    build_config,
    check_seed,
    compare_models,
    comparison_markdown,
    detect,
    emit_report,
    evaluate,
    load_scores,
    run_experiment,
    save_scores,
    split_at_threshold,
    tradeoff,
    train,
)
from .contrastive import TclConfig, embed, load_model
from .data import Column, Dataset, ingest_csv, load_dataset, load_split_in, save_dataset
from .exceptions import ConfigError, FormatError, NumericError
from .heads import TASKS, fit_head, load_head, predict, save_head, task_rules
from .ood import OPENMAX, TEMPERATURE

# No stage calls this alias any more, but perfbench/test_tracer.py checks
# that the tracer folds a call through it into the span of data.split.
from .data import split as split_rows  # noqa: F401

def _flags(args, names) -> dict:
    """The settings among ``names`` that were given as flags."""
    return {key: getattr(args, key) for key in names if getattr(args, key) is not None}


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
    det = build_config(DetectorConfig, _flags(args, ("detector", "norm", "tail")), "detector")
    dataset = load_dataset(args.data)
    out = _out_dir(args)
    scores, settings = detect(dataset, det, args.seed, out)
    save_scores(os.path.join(out, "scores.json"), scores, settings)
    print(f"scored {len(scores)} rows with {settings['detector']} "
          f"-> {out}/scores.json, {out}/histogram.csv")
    return 0


def cmd_split(args) -> int:
    det = build_config(DetectorConfig, _flags(args, ("threshold", "quantile")), "detector")
    dataset = load_dataset(args.data)
    scores = load_scores(args.scores)
    out = _out_dir(args)
    pair = split_at_threshold(dataset, scores, det, out)
    flag = "  (anomalous: M <= N)" if pair.anomalous else ""
    print(f"split at {pair.threshold!r}: M={pair.m} in-distribution, N={pair.n} OOD -> {out}{flag}")
    return 0


def cmd_train(args) -> int:
    tcl = _flags(args, TCL_KEYS)
    build_config(TclConfig, tcl, "tcl", input_dim=1, seed=args.seed)  # before any artifact is read
    # a split holds its ID side as the dataset directory d_in
    split = os.path.isdir(os.path.join(args.data, "d_in"))
    data = load_split_in(args.data) if split else load_dataset(args.data)
    out = _out_dir(args)
    model, trace = train(data, tcl, args.seed, out)
    print(f"trained {trace.epochs} epochs in {trace.seconds:.2f}s (stop: {trace.stop_reason}, "
          f"final loss {trace.total[-1]:.4g}) -> {out}/model.json")
    return 0


def _same_width(artifact, width: int, data, dataset: Dataset) -> None:
    """A model or head and a dataset of another width are two artifacts that
    do not belong together: a format error naming both."""
    if dataset.d != width:
        raise FormatError(f"{artifact} takes {width} features, but {data} has {dataset.d}")


def cmd_embed(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.data)
    _same_width(args.model, model.config.input_dim, args.data, dataset)
    e = embed(model, dataset.features)
    # A target named like a latent column ("e1") moves the latents to "e_0", ...
    latent = range(e.shape[1])
    prefix = "e_" if dataset.schema.target in {f"e{i}" for i in latent} else "e"
    schema = dataclasses.replace(
        dataset.schema, features=tuple(Column(f"{prefix}{i}", "numeric") for i in latent))
    out = _out_dir(args)
    save_dataset(Dataset(e, dataset.labels, schema, None), out)
    print(f"embedded {e.shape[0]} rows -> {out} ({e.shape[1]} latent features)")
    return 0


def cmd_fit_head(args) -> int:
    dataset = load_dataset(args.data)
    schema = dataset.schema
    head = fit_head(dataset.features, dataset.labels, schema.task, args.kind,
                    classes=len(schema.classes))
    out = _out_dir(args)
    save_head(head, os.path.join(out, "head.json"))
    print(f"fitted {head.kind} head on {dataset.n} rows -> {out}/head.json")
    return 0


def cmd_evaluate(args) -> int:
    head = load_head(args.head)
    dataset = load_dataset(args.data)
    _same_width(args.head, head.input_dim, args.data, dataset)
    task_rules(dataset.schema.task).check_head(head.kind)  # the head must fit the task
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
    # replace() checks the plan again, with the flags laid over it
    plan = dataclasses.replace(plan, out_dir=args.out or plan.out_dir,
                               seed=plan.seed if args.seed is None else args.seed)
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


class _Unparsed(Exception):
    """A one-subcommand parser met an error or a help request, whose text
    the full parser prints."""


class _OneSubcommandParser(argparse.ArgumentParser):
    """Raises :class:`_Unparsed` where a parser would print and exit: what it
    would print could name the subcommands it lacks."""

    def error(self, message):
        raise _Unparsed

    def print_help(self, file=None):
        raise _Unparsed


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ``tabcl`` parser; given ``only``, a parser of that subcommand
    alone, which raises :class:`_Unparsed` instead of printing an error or
    help, so that the caller parses again with the full parser."""
    parser = (argparse.ArgumentParser if only is None else _OneSubcommandParser)(
        prog="tabcl",
        description="Tabular contrastive learning with OOD gating and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {"seed": dict(type=int, default=0, help="random seed (default 0)"),
              "out": dict(help="output directory")}
    skip = types.SimpleNamespace(add_argument=lambda *args, **kwargs: None)

    def command(name, func, help, *flags):
        """The subcommand that runs ``func``, with the shared flags ``func`` reads."""
        if only not in (None, name):
            return skip
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        return p

    p = command("ingest", cmd_ingest, "encode a CSV into a dataset artifact", "out")
    p.add_argument("csv")
    p.add_argument("--target", required=True, help="target column name")
    p.add_argument("--task", choices=list(TASKS), default=None)
    p.add_argument("--delimiter", default=",")

    p = command("detect", cmd_detect, "score rows with an OOD detector", "seed", "out")
    p.add_argument("data", help="dataset artifact directory")
    p.add_argument("--detector", choices=[OPENMAX, TEMPERATURE], default=None)
    p.add_argument("--norm", choices=["l1", "l2"], default=None)
    p.add_argument("--tail", type=int, default=None)

    p = command("split", cmd_split, "split a dataset at a score threshold", "out")
    p.add_argument("data")
    p.add_argument("scores", help="scores.json from `detect`")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--quantile", type=float, default=None)

    p = command("train", cmd_train, "train the contrastive encoder", "seed", "out")
    p.add_argument("data", help="dataset artifact or split directory")
    for f in dataclasses.fields(TclConfig):
        if f.name in TCL_KEYS:
            kind = {"int": int, "float": float, "str": str}[f.type]
            p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=kind, default=None)

    p = command("embed", cmd_embed, "encode a dataset into the latent space", "out")
    p.add_argument("model", help="model.json from `train`")
    p.add_argument("data")

    p = command("fit-head", cmd_fit_head, "fit a prediction head", "out")
    p.add_argument("data", help="dataset (or embeddings) artifact directory")
    p.add_argument("--kind", choices=["logistic", "linear"], default=None)

    p = command("evaluate", cmd_evaluate, "evaluate a head on a dataset", "out")
    p.add_argument("head", help="head.json from `fit-head`")
    p.add_argument("data")

    p = command("tradeoff", cmd_tradeoff, "speed/accuracy trade-off")
    p.add_argument("--p", type=float, required=True, help="task metric (F1 or RMSE)")
    p.add_argument("--t", type=float, required=True, help="training seconds")
    p.add_argument("--task", choices=list(TASKS), required=True)

    p = command("report", cmd_report, "run a full experiment plan", "out")
    p.add_argument("--config", help="experiment plan, JSON or TOML")
    p.add_argument("--seed", type=int, help="random seed (default: the plan's)")

    p = command("compare", cmd_compare, "rank reports by trade-off", "out")
    p.add_argument("reports", nargs="+", help="report.json files")

    return parser


def _message(exc: Exception) -> str:
    """The exception's text, after its notes (such as ``[stage=train]``)."""
    return " ".join([*getattr(exc, "__notes__", ()), str(exc)])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # tabcl itself takes no option with a value: its first other word names the subcommand
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")), len(argv))
    for flag in (word.split("=")[0] for word in argv[:at]):
        if flag.startswith("--") and not "--help".startswith(flag):  # tabcl's one option
            build_parser().error(f"{flag} comes before the subcommand: options go after it")
    try:
        args = build_parser(next(iter(argv[at:]), None)).parse_args(argv)
    except _Unparsed:
        args = build_parser().parse_args(argv)  # prints the error or help, and exits
    try:
        if getattr(args, "seed", None) is not None:  # before any file is read, as a plan's is
            check_seed(args.seed)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {_message(exc)}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"data error: {_message(exc)}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {_message(exc)}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
