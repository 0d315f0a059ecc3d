"""The library surface: the names ``import tabcl`` gives, pinned as
``TestCliSurface`` pins the subcommands and their flags."""

import dataclasses
import inspect
import types

import numpy as np
import pytest

import tabcl
from tabcl import bench, contrastive, data, numerics, ood, weibull

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
# plan declares no OOD degradation budget, which nothing read, and a split
# report is a plain dataclass, read through ``dataclasses.asdict``.
GONE = {
    contrastive: ("decode", "_DECODER_ARRAYS", "loss_reconstruction", "loss_contrastive",
                  "loss_distance", "replace_params", "param_vector", "parameter_count"),
    data: ("_bulk_read", "_read_dataset_csv", "_raise_first_bad_cell", "_class_indices"),
    numerics: ("finite_diff_grad",),
    numerics.RngStream: ("integers",),
    ood: ("Histogram",),
    ood.SplitReport: ("to_dict",),
    bench.ExperimentPlan: ("delta",),
    weibull: ("weibull_sample", "_MLE_TOL", "_MLE_MAX_ITER"),
}

# Parameter names of the functions that lost a second route: ``ingest_csv``
# only infers and fits (a saved schema is re-applied through
# ``encode_features``), ``train_tcl`` takes the feature matrix, and
# ``split_by_threshold`` takes no detector settings, which stay in
# ``scores.json`` and the report.  ``validate_split`` draws the run's one
# ID split, with the run's stream and fractions.
PARAMETERS = {
    "ingest_csv": ("path", "target", "task", "delimiter", "category_cutoff"),
    "train_tcl": ("X", "config"),
    "split_by_threshold": ("dataset", "scores", "threshold"),
    "validate_split": ("pair", "rng", "fractions"),
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
