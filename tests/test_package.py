"""The library surface: the names ``import tabcl`` gives, pinned as
``TestCliSurface`` pins the subcommands and their flags."""

import ast
import dataclasses
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import tabcl
import tabcl.cli
from tabcl import bench, contrastive, data, heads, numerics, ood, weibull
from tabcl.exceptions import ConfigError

from conftest import numeric_schema

EXPORTS = {
    # bench
    "BenchReport", "ExperimentPlan", "compare_models", "emit_report", "run_experiment",
    "tradeoff",
    # contrastive
    "LossComponents", "TclConfig", "TclModel", "TrainTrace", "augment", "embed", "encode",
    "init_model", "load_model", "save_model", "train_tcl",
    # data
    "Column", "Dataset", "RawTable", "Schema", "SplitPair", "encode_features", "infer_schema",
    "ingest_csv", "load_dataset", "load_split", "read_csv", "save_dataset", "save_split",
    "split",
    # exceptions
    "ConfigError", "FormatError", "NumericError", "TrainingError",
    # heads
    "Head", "fit_linear", "fit_logistic", "load_head", "metric_accuracy", "metric_f1_macro",
    "metric_r2", "metric_rmse", "predict", "save_head",
    # numerics
    "RngStream", "gaussian_noise", "softmax_classes",
    # ood
    "OpenMaxModel", "SplitReport", "TemperatureModel", "discretize_target",
    "fit_openmax", "fit_temperature", "openmax_score", "score_histogram",
    "split_by_threshold", "temp_score", "train_backbone", "validate_split",
    "write_histogram_csv",
    # weibull
    "weibull_cdf", "weibull_mle",
}

# Names the package no longer defines: the test-only oracles now live in
# tests/oracles.py, the decoder runs only inside a training step, a
# model's flat parameter vector and its size are ``TclModel.vector``, a
# score histogram is numpy's ``(counts, edges)``, the Weibull shape is fitted
# by bisection with no tolerance or step cap, the pipeline draws no
# integers (the tests draw theirs through ``oracles.draw_integers``), a
# plan declares no OOD degradation budget, which nothing read, a split
# report is a plain dataclass, read through ``dataclasses.asdict``, and a
# task's head kind, metric and metric direction are read from
# ``heads.TASKS`` through ``heads.task_rules``.
GONE = {
    contrastive: ("decode", "_DECODER_ARRAYS", "loss_reconstruction", "loss_contrastive",
                  "loss_distance", "replace_params", "param_vector", "parameter_count"),
    data: ("_bulk_read", "_read_dataset_csv", "_raise_first_bad_cell", "_class_indices",
           "check_fractions", "DEFAULT_CATEGORY_CUTOFF"),
    heads: ("head_kind", "task_metric", "higher_is_better"),
    numerics: ("finite_diff_grad",),
    numerics.RngStream: ("integers",),
    ood: ("Histogram",),
    ood.SplitReport: ("to_dict",),
    bench.ExperimentPlan: ("delta", "fractions"),
    bench.DetectorConfig: ("bins",),
    contrastive.TclConfig: ("temperature",),
    weibull: ("weibull_sample", "_MLE_TOL", "_MLE_MAX_ITER"),
}

# Parameter names of the functions that lost a second route: ``ingest_csv``
# only infers and fits (a saved schema is re-applied through
# ``encode_features``), ``train_tcl`` takes the feature matrix, and
# ``split_by_threshold`` takes no detector settings, which stay in
# ``scores.json`` and the report.  ``validate_split`` draws the run's one
# ID split with the run's stream.  The category cutoff and the split share
# are constants of ``tabcl.data``.
PARAMETERS = {
    "ingest_csv": ("path", "target", "task", "delimiter"),
    "infer_schema": ("raw", "target", "task"),
    "split": ("dataset", "rng"),
    "train_tcl": ("X", "config"),
    "split_by_threshold": ("dataset", "scores", "threshold"),
    "validate_split": ("pair", "rng"),
}


def _dataset():
    return tabcl.Dataset(np.zeros((2, 1)), np.array([0, 1]), numeric_schema(1), None)


def _head():
    return tabcl.Head("logistic", np.zeros((1, 2)), np.zeros(2), 2)


# One constructor per dataclass that holds arrays, directly or through a field.
ARRAY_HOLDERS = {
    "TclModel": lambda: tabcl.init_model(tabcl.TclConfig(input_dim=3)),
    "Dataset": _dataset,
    "SplitPair": lambda: tabcl.SplitPair(_dataset(), _dataset(), threshold=0.5),
    "Head": _head,
    "OpenMaxModel": lambda: tabcl.OpenMaxModel(_head(), np.zeros((2, 2)), np.ones(2),
                                               np.ones(2), "l2"),
    "TemperatureModel": lambda: tabcl.TemperatureModel(_head(), 1.0, 0.5, 0.6),
}


class TestLibrarySurface:
    def test_exports(self):
        public = {name for name, value in vars(tabcl).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert public == EXPORTS

    @pytest.mark.parametrize("module, name", [(m, n) for m, names in GONE.items() for n in names],
                             ids=lambda v: v.__name__ if isinstance(v, (types.ModuleType, type))
                             else v)
    def test_removed_name_is_gone(self, module, name):
        assert not hasattr(module, name)
        assert not hasattr(tabcl, name)

    @pytest.mark.parametrize("name", sorted(PARAMETERS))
    def test_parameters(self, name):
        assert tuple(inspect.signature(getattr(tabcl, name)).parameters) == PARAMETERS[name]

    def test_split_pair_is_its_rows_and_threshold(self):
        fields = tuple(f.name for f in dataclasses.fields(tabcl.SplitPair))
        assert fields == ("d_in", "d_ood", "threshold")

    def test_split_report_is_the_raw_probes_cells(self):
        fields = tuple(f.name for f in dataclasses.fields(tabcl.SplitReport))
        assert fields == ("id_train", "id_test", "ood", "degradation")

    @pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
    def test_array_holder_compares_by_identity(self, name):
        a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
        assert type(a).__name__ == name
        assert a == a
        assert not a == b and a != b


# Every public entry point that takes a task name, called with one it does
# not know.  None of them may treat it as regression.
UNKNOWN_TASK = {
    "task_rules": lambda: heads.task_rules("ranking"),
    "fit_head": lambda: heads.fit_head(np.zeros((4, 1)), np.array([0, 1, 0, 1]), "ranking"),
    "evaluate": lambda: bench.evaluate("ranking", [0, 1], [0, 1]),
    "tradeoff": lambda: bench.tradeoff(0.5, 1.0, "ranking"),
    "degradation": lambda: ood.degradation("ranking", 0.9, 0.8),
    "Schema": lambda: data.Schema((), "y", "ranking"),
}


class TestUnknownTask:
    @pytest.mark.parametrize("name", sorted(UNKNOWN_TASK))
    def test_value_error_names_the_task(self, name):
        with pytest.raises(ValueError, match="^unknown task: 'ranking'$"):
            UNKNOWN_TASK[name]()

    def test_plan_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^unknown task: 'ranking'$"):
            bench.ExperimentPlan(dataset="d.csv", target="y", task="ranking")

    @pytest.mark.parametrize("argv", [
        ["tradeoff", "--p", "0.5", "--t", "1", "--task", "ranking"],
        ["ingest", "t.csv", "--target", "y", "--task", "ranking"],
    ], ids=["tradeoff", "ingest"])
    def test_cli_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            tabcl.cli.main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'ranking'" in capsys.readouterr().err


# The only functions that may compare a task with CLASSIFICATION or
# REGRESSION: the steps that need class labels.  Every other choice made by
# task name reads one of two tables, ``heads.TASKS`` (head, metrics) or
# ``data.LABEL_TYPES`` (the stored label type).
TASK_COMPARISONS = {
    "data.Schema.__post_init__", "data._label_error", "data.infer_schema",
    "data.encode_features", "data.split", "bench.detect", "ood.train_backbone",
    "ood.fit_temperature",
}
TASK_NAMES = {"CLASSIFICATION", "REGRESSION", "classification", "regression"}


def _names_a_task(node) -> bool:
    return any((isinstance(n, ast.Name) and n.id in TASK_NAMES)
               or (isinstance(n, ast.Attribute) and n.attr in TASK_NAMES)
               or (isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and n.value in TASK_NAMES)
               for n in ast.walk(node))


def task_comparisons() -> set[str]:
    """``module.scope`` of every comparison in ``src/tabcl`` that names a task."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Compare) and _names_a_task(child):
                found.add(scope)
            visit(child, scope)

    for path in sorted(Path(tabcl.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_tasks_are_compared_only_where_class_labels_are_needed():
    assert task_comparisons() - TASK_COMPARISONS == set()
