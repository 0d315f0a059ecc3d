"""Walkthrough: finding and validating out-of-distribution rows.

We build a table whose bulk follows one distribution and contaminate it
with a mean-shifted cluster whose labeling rule is flipped.  Both detectors
score every row, we eyeball the score histogram, cut at a tail point, and
check that a probe trained on the kept rows collapses on the split-off ones.

Run:  python3 demos/ood_gate_walkthrough.py
"""

import numpy as np

from tabcl import (
    Column,
    Dataset,
    RngStream,
    Schema,
    fit_openmax,
    fit_temperature,
    openmax_score,
    score_histogram,
    split,
    split_by_threshold,
    temp_score,
    train_backbone,
    validate_split,
)

# ---------------------------------------------------------------------------
# 1. A contaminated table: 9000 ordinary rows, 1000 shifted ones.
# ---------------------------------------------------------------------------
rng = RngStream(1234, 0)
d = 6
y_in = (rng.uniform(9000, 1)[:, 0] < 0.5).astype(np.int64)
x_in = rng.normal(9000, d)
x_in[:, 0] += 4.0 * (2 * y_in - 1)  # two classes, well separated on x0

x_shift = rng.normal(1000, d)
x_shift[:, 1] += 4.0  # four standard deviations along an unused axis
y_shift = (x_shift[:, 0] < 0).astype(np.int64)  # note: rule flipped

X = np.vstack([x_in, x_shift])
y = np.concatenate([y_in, y_shift])
perm = RngStream(1234, 1).permutation(len(X))
schema = Schema(tuple(Column(f"x{i}", "numeric") for i in range(d)), "y",
                "classification", ("0", "1"))
data = Dataset(X[perm], y[perm], schema, None)
print(f"dataset: {data.n} rows x {data.d} features (10% contaminated)")

# ---------------------------------------------------------------------------
# 2. Score every row with both detectors.
# ---------------------------------------------------------------------------
backbone = train_backbone(data)
weibull_gate = fit_openmax(backbone, data, norm="l2", tail=50)
scores_w = openmax_score(weibull_gate, data.features)

fit_part, cal_part = split(data, RngStream(5, 0))
temp_gate = fit_temperature(train_backbone(fit_part), cal_part)
scores_t = temp_score(temp_gate, data.features)
print(f"temperature fitted on a held-out slice: tau = {temp_gate.temperature:.3f}")

# ---------------------------------------------------------------------------
# 3. Look at the histograms: threshold picking is a human decision, so the
#    library hands you bins and counts rather than choosing for you.
# ---------------------------------------------------------------------------
for name, scores in (("weibull-recalibration", scores_w), ("temperature", scores_t)):
    counts, edges = score_histogram(scores, bins=20)
    print(f"\nscore histogram ({name}):")
    peak = counts.max()
    for lo, hi, count in zip(edges[:-1], edges[1:], counts):
        bar = "#" * max(1, int(40 * count / peak)) if count else ""
        print(f"  [{lo:+.3f}, {hi:+.3f})  {count:5d} {bar}")

# ---------------------------------------------------------------------------
# 4. Cut each score distribution at its 90th percentile and validate: split
#    the kept rows into train and test, fit a probe on the train rows, and
#    score it on the test rows and on every split-off row.  A sound split
#    keeps train/test agreement and collapses on the out-of-distribution side.
# ---------------------------------------------------------------------------
for name, scores in (("weibull-recalibration", scores_w), ("temperature", scores_t)):
    threshold = float(np.quantile(scores, 0.90))
    pair = split_by_threshold(data, scores, threshold)
    report, id_train, id_test = validate_split(pair, RngStream(17, 0))
    print(f"\n{name}: threshold {threshold:+.4f} -> M={pair.m} "
          f"({id_train.n} train, {id_test.n} test), N={pair.n}")
    print("  probe macro-F1   ID train  ID test  OOD")
    print(f"                   {report.id_train:.4f}    {report.id_test:.4f}   {report.ood:.4f}")
    print(f"  degradation (ID test - OOD): {report.degradation:+.4f}")
