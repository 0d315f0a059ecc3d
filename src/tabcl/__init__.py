"""Tabular contrastive learning on commodity CPUs.

The package covers the full pipeline: CSV ingestion and encoding,
out-of-distribution scoring and splitting, contrastive representation
training with a three-part loss, downstream prediction heads, and
speed/accuracy benchmarking.
"""

from .bench import BenchReport, ExperimentPlan, compare_models, emit_report, run_experiment, tradeoff
from .contrastive import (
    LossComponents,
    TclConfig,
    TclModel,
    TrainTrace,
    augment,
    decode,
    embed,
    encode,
    init_model,
    load_model,
    loss_contrastive,
    loss_distance,
    loss_reconstruction,
    save_model,
    train_tcl,
)
from .data import (
    Column,
    Dataset,
    RawTable,
    Schema,
    SplitPair,
    encode_features,
    infer_schema,
    ingest_csv,
    load_dataset,
    load_split,
    read_csv,
    save_dataset,
    save_split,
    split,
)
from .exceptions import ConfigError, FormatError, NumericError, TrainingError
from .heads import (
    Head,
    fit_linear,
    fit_logistic,
    load_head,
    metric_accuracy,
    metric_f1_macro,
    metric_r2,
    metric_rmse,
    predict,
    save_head,
)
from .numerics import RngStream, finite_diff_grad, gaussian_noise, softmax_classes
from .ood import (
    Histogram,
    OpenMaxModel,
    SplitReport,
    TemperatureModel,
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
from .weibull import weibull_cdf, weibull_mle, weibull_sample

__version__ = "0.1.0"
