"""The library surface: the names ``import tabcl`` gives, pinned as
``TestCliSurface`` pins the subcommands and their flags."""

import types

import pytest

import tabcl
from tabcl import contrastive, numerics, weibull

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
    "Histogram", "OpenMaxModel", "SplitReport", "TemperatureModel", "discretize_target",
    "fit_openmax", "fit_temperature", "openmax_score", "score_histogram",
    "split_by_threshold", "temp_score", "train_backbone", "validate_split",
    "write_histogram_csv",
    # weibull
    "weibull_cdf", "weibull_mle",
}

# Names the package no longer defines: the test-only oracles now live in
# tests/oracles.py, the decoder runs only inside a training step, and a
# model's flat parameter vector and its size are ``TclModel.vector``.
GONE = {
    contrastive: ("decode", "_DECODER_ARRAYS", "loss_reconstruction", "loss_contrastive",
                  "loss_distance", "replace_params", "param_vector", "parameter_count"),
    numerics: ("finite_diff_grad",),
    weibull: ("weibull_sample",),
}


class TestLibrarySurface:
    def test_exports(self):
        public = {name for name, value in vars(tabcl).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert public == EXPORTS

    @pytest.mark.parametrize("module, name", [(m, n) for m, names in GONE.items() for n in names],
                             ids=lambda v: v.__name__ if isinstance(v, types.ModuleType) else v)
    def test_removed_name_is_gone(self, module, name):
        assert not hasattr(module, name)
        assert not hasattr(tabcl, name)
