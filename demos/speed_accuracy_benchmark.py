"""Walkthrough: full pipeline experiments and the speed/accuracy trade-off.

Two experiment plans run end to end on the same CSV (ingest, OOD gate,
timed contrastive training, head fit, evaluation) and are ranked by the
trade-off score: task metric per training second.

Run:  python3 demos/speed_accuracy_benchmark.py
"""

import csv
import os
import tempfile

import numpy as np

from tabcl import ExperimentPlan, RngStream, compare_models, run_experiment, tradeoff
from tabcl.bench import comparison_markdown

# ---------------------------------------------------------------------------
# 1. The trade-off in isolation: metric per training second, with the
#    reciprocal for error metrics where smaller is better.
# ---------------------------------------------------------------------------
print("trade-off examples:")
print(f"  F1 0.831 in 15s   -> {tradeoff(0.831, 15, 'classification'):.3g}")
print(f"  F1 0.782 in 1027s -> {tradeoff(0.782, 1027, 'classification'):.3g}")
print(f"  RMSE 0.892 in 15s -> {tradeoff(0.892, 15, 'regression'):.3g}")

# ---------------------------------------------------------------------------
# 2. A synthetic CSV with a contaminating cluster, written the way the
#    pipeline expects it: header row, one target column.
# ---------------------------------------------------------------------------
workdir = tempfile.mkdtemp(prefix="tabcl-demo-")
csv_path = os.path.join(workdir, "table.csv")
rng = RngStream(11, 0)
d = 4
y_in = (rng.uniform(1800, 1)[:, 0] < 0.5).astype(int)
x_in = rng.normal(1800, d)
x_in[:, 0] += 4.0 * (2 * y_in - 1)
x_shift = rng.normal(200, d)
x_shift[:, 1] += 4.0
y_shift = (x_shift[:, 0] < 0).astype(int)
X = np.vstack([x_in, x_shift])
y = np.concatenate([y_in, y_shift])
with open(csv_path, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow([f"x{i}" for i in range(d)] + ["label"])
    for i in range(len(X)):
        writer.writerow([repr(float(v)) for v in X[i]] + [f"c{y[i]}"])
print(f"\nwrote {len(X)} rows to {csv_path}")

# ---------------------------------------------------------------------------
# 3. Two plans: additive-noise views vs masked views.  Everything else is
#    shared, so the comparison isolates the augmentation choice.
# ---------------------------------------------------------------------------
reports = []
for name, tcl_overrides in (
    ("gaussian-views", {"max_epochs": 15}),
    ("masked-views", {"max_epochs": 15, "noise": "mask"}),
):
    plan = ExperimentPlan(
        dataset=csv_path,
        target="label",
        model_name=name,
        detector={"detector": "openmax", "norm": "l2", "tail": 30, "quantile": 0.9},
        tcl=tcl_overrides,
        seed=7,
        out_dir=os.path.join(workdir, name),
    )
    report = run_experiment(plan)
    reports.append(report)
    grid = report.split_grid
    print(f"\n{name}:")
    print(f"  split: M={report.m} N={report.n} at threshold {report.threshold:.4f}")
    print(f"  {report.metric_name}     ID test  OOD")
    print(f"  raw features {grid['id_test']:.3f}    {grid['ood']:.3f}")
    print(f"  embedding    {report.p:.3f}    {report.constraints['ood_metric']:.3f}")
    print(f"  {report.metric_name}={report.p:.4f} in t={report.t_seconds:.2f}s "
          f"-> trade-off {report.tradeoff:.3g}")
    print(f"  stage seconds: " + ", ".join(f"{k}={v:.2f}" for k, v in report.stage_seconds.items()))

# ---------------------------------------------------------------------------
# 4. Rank them.  Artifacts (split CSVs, model, trace, reports) stay under
#    each plan's out_dir for inspection.
# ---------------------------------------------------------------------------
print("\nranking by trade-off:")
print(comparison_markdown(compare_models(reports)))
print(f"artifacts under {workdir}")
