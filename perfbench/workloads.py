"""Workload definitions: seeded input generators and the pipeline each runs.

Every workload writes one headered CSV plus the ground-truth contamination
mask (``mask.npy``) before any timed window.  The program only ever sees the
CSV.  Each table mixes in-distribution rows with a contaminating cluster
whose labelling rule is flipped, the recipe of the test suite's
``shifted_cluster_data``.

Why each workload exists (the layer it stresses, measured at the defining
commit with the traced run):

* ``train-wide``: contrastive training dominates (64 wide numeric columns,
  40 fixed epochs), so a training-step change shows here.
* ``gate-tall``: many rows and a narrow encoding make the full-batch softmax
  fits (backbone, split probe, head) dominate; it makes one ``weibull_cdf``
  call per row and is the only user of imputation and one-hot encoding.
  Two TCL epochs keep contrastive training a small share.
* ``cli-regression``: the same stages driven through the CLI, where every
  subcommand re-reads the previous artifact, so the per-cell CSV read and
  write paths dominate.  Only user of the temperature detector, target
  discretization, mask noise, the ridge head and ``load_model``; it makes
  no ``weibull_cdf`` call.

``inputs`` is how many inputs one end-to-end run covers, sized so that a
run takes about ``RUN_SECONDS`` in ``run.py``; a traced run covers a third
of them.
"""

from __future__ import annotations

import os

import numpy as np

PLAN = "plan"
CLI = "cli"

WORKLOADS = {
    "train-wide": {
        "kind": PLAN,
        "task": "classification",
        "target": "label",
        "shape": {"rows": 700, "numeric": 64, "classes": 4, "contamination": 0.1},
        "detector": {"detector": "openmax", "norm": "l2", "tail": 20, "quantile": 0.9},
        "tcl": {"noise": "gaussian", "max_epochs": 40, "tolerance": 0.0},
        "head": "logistic",
        "inputs": 10,
        "why": "contrastive.train_tcl is the largest share: wide rows, 40 fixed epochs",
    },
    "gate-tall": {
        "kind": PLAN,
        "task": "classification",
        "target": "label",
        "shape": {"rows": 4000, "numeric": 8, "categorical": (6, 8, 10, 12),
                  "classes": 3, "contamination": 0.1, "missing": 0.01},
        "detector": {"detector": "openmax", "norm": "l2", "tail": 30, "quantile": 0.9},
        "tcl": {"noise": "gaussian", "max_epochs": 2, "tolerance": 0.0},
        "head": "logistic",
        "inputs": 9,
        "why": "softmax-regression fits dominate on tall, narrow, mixed-type rows",
    },
    "cli-regression": {
        "kind": CLI,
        "task": "regression",
        "target": "value",
        "shape": {"rows": 1500, "numeric": 24, "contamination": 0.1},
        "detector": {"detector": "temperature", "quantile": 0.9},
        "tcl": {"noise": "mask", "max_epochs": 4, "tolerance": 0.0},
        "head": "linear",
        "inputs": 14,
        "why": "CLI chain re-reads every artifact, so per-cell CSV parsing dominates",
    },
}

# Quality floors: absolute backstops against a change that breaks the model
# or the OOD gate.  Gradual loss shows in the ``quality`` and ``ood_auroc``
# metrics instead.  Over about 400 inputs at the defining commit the worst
# values seen were F1 0.32 / 0.63, AUROC 0.83 / 0.94 / 0.79 and RMSE 4.95
# (mean 3.97; predicting the mean gives about 5.7), and the floors sit well
# below them, because one failed input fails the whole run.  The train-wide
# F1 floor is chance for four classes.  ``loss_ratio_max`` bounds the last
# epoch's total loss over the first: at the defining commit it was 0.036-0.037
# / 0.35-0.37 / 0.45-0.47 on 8 inputs each, and about 1.0 when the optimiser
# step is made a no-op.
FLOORS = {
    "train-wide": {"ood_auroc_min": 0.7, "f1_macro_min": 0.25, "loss_ratio_max": 0.2},
    "gate-tall": {"ood_auroc_min": 0.8, "f1_macro_min": 0.45, "loss_ratio_max": 0.6},
    "cli-regression": {"ood_auroc_min": 0.65, "rmse_max": 6.0, "loss_ratio_max": 0.7},
}


def _class_geometry(rng, n: int, n_ood: int, classes: int, sep: float):
    """Class centres on a circle in the first two dimensions.

    In-distribution rows sit around their class centre; contaminating rows
    sit between the classes, at the origin, and take the label of the
    centre opposite their position (the flipped rule).
    """
    n_id = n - n_ood
    angles = 2 * np.pi * np.arange(classes) / classes
    centres = sep * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    y = rng.integers(0, classes, size=n)
    xy = rng.standard_normal((n, 2))
    xy[:n_id] += centres[y[:n_id]]
    nearest_opposite = np.argmin(
        ((-xy[n_id:, None, :] - centres[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    y[n_id:] = nearest_opposite
    return xy, y


def _classification_table(rng, shape: dict):
    n = shape["rows"]
    n_ood = int(round(shape["contamination"] * n))
    n_id = n - n_ood
    d = shape["numeric"]
    X = rng.standard_normal((n, d))
    xy, y = _class_geometry(rng, n, n_ood, shape["classes"], sep=4.0)
    X[:, :2] = xy
    X[n_id:, 2] += 4.0  # the cluster's shift, orthogonal to the class plane

    columns = {f"x{j}": [f"{v:.6g}" for v in X[:, j]] for j in range(d)}
    missing = shape.get("missing", 0.0)
    if missing:
        for j in range(d):
            cells = columns[f"x{j}"]
            for i in np.flatnonzero(rng.random(n) < missing):
                cells[i] = ""
    for k, levels in enumerate(shape.get("categorical", ())):
        # In-distribution rows lean toward a class-dependent level; the
        # cluster draws its levels uniformly.
        lean = (y * 2 + k) % levels
        noise = rng.integers(0, levels, size=n)
        keep = rng.random(n) < 0.6
        level = np.where(keep, lean, noise)
        level[n_id:] = noise[n_id:]
        columns[f"c{k}"] = [f"L{v}" for v in level]
    columns["label"] = [f"c{v}" for v in y]
    mask = np.zeros(n, dtype=bool)
    mask[n_id:] = True
    return columns, mask


def _regression_table(rng, shape: dict):
    """Bimodal in-distribution target; the cluster sits in the gap between
    the modes and its target has the opposite sign."""
    n = shape["rows"]
    n_ood = int(round(shape["contamination"] * n))
    n_id = n - n_ood
    d = shape["numeric"]
    X = rng.standard_normal((n, d))
    mode = np.where(rng.random(n_id) < 0.5, -1.0, 1.0)
    X[:n_id, 0] = 6.0 * mode + 0.5 * X[:n_id, 0]
    X[n_id:, 0] *= 0.5
    t = X[:, 0] + 0.2 * np.sin(2.0 * X[:, d - 1]) + 0.1 * rng.standard_normal(n)
    t[n_id:] = -t[n_id:]
    columns = {f"x{j}": [f"{v:.6g}" for v in X[:, j]] for j in range(d)}
    columns["value"] = [f"{v:.6g}" for v in t]
    mask = np.zeros(n, dtype=bool)
    mask[n_id:] = True
    return columns, mask


def generate(workload: str, seed: int, out_dir: str) -> tuple[str, str]:
    """Write ``input.csv`` and ``mask.npy`` for one workload and seed.

    Rows are shuffled so the cluster is spread through the file.  Returns
    the two paths.
    """
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    if spec["task"] == "classification":
        columns, mask = _classification_table(rng, spec["shape"])
    else:
        columns, mask = _regression_table(rng, spec["shape"])
    order = rng.permutation(mask.size)
    names = list(columns)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "input.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        cols = [columns[name] for name in names]
        fh.writelines(",".join(col[i] for col in cols) + "\n" for i in order)
    mask_path = os.path.join(out_dir, "mask.npy")
    np.save(mask_path, mask[order])
    return csv_path, mask_path
