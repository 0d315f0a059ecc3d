"""Acceptance suite.

Each test exercises one gate criterion end to end at its stated tolerance
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them).
The final test enforces the whole-suite wall-clock budget, so this module
is deliberately self-contained and CPU-cheap.
"""

import time

import numpy as np
import pytest

from tabcl.bench import ExperimentPlan, run_experiment, tradeoff
from tabcl.contrastive import (
    PARAM_KEYS,
    TclConfig,
    augment,
    embed,
    encode,
    grad_on_views,
    init_model,
    loss_on_views,
    train_tcl,
)
from tabcl.heads import fit_logistic, metric_accuracy, predict
from tabcl.numerics import RngStream
from tabcl.ood import (
    _nll_at_temperature,
    fit_openmax,
    fit_temperature,
    fit_temperature_on_logits,
    openmax_score,
    split_by_threshold,
    temp_score,
    train_backbone,
    validate_split,
)
from tabcl.data import split as split_rows
from tabcl.weibull import weibull_mle

from conftest import auroc, shifted_cluster_data, write_classification_csv, xor_data
from oracles import (
    draw_integers,
    finite_diff_grad,
    loss_contrastive,
    loss_distance,
    loss_reconstruction,
    oracle_loss,
    ref_decode,
    replace_params,
    weibull_sample,
)

_SUITE_START = time.perf_counter()


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def _as_float64(model):
    """The float64 copy of a model that criteria 02 and 03 check: training
    makes float32 models, which run the same code, and float64 keeps the
    finite-difference oracle and the bit-exact identities at full strength."""
    return replace_params(model, model.vector.astype(np.float64))


@pytest.fixture(scope="module")
def xor_run():
    """Shared dataset/model for criteria 7 and 8: defaults, 15 epochs."""
    X, y = xor_data(n=4000, d=2, seed=2024)
    n_train = 3200
    config = TclConfig(input_dim=2, max_epochs=15, tolerance=0.0, seed=0)
    model, trace = train_tcl(X[:n_train], config)
    return X, y, n_train, model, trace


def test_criterion_01_tradeoff_reproduces_published_cells():
    start = time.perf_counter()
    cells = [
        ("classification", 0.831, 15.0, 0.055),  # contrastive model, census data
        ("classification", 0.782, 1027.0, 0.00076),  # transformer baseline
        ("classification", 0.574, 21.0, 0.027),  # residual baseline
        ("regression", 0.892, 15.0, 0.075),  # residual baseline, housing data
        ("regression", 6.491, 240.0, 0.00064),  # contrastive model, year data
    ]
    worst = 0.0
    for task, p, t, printed in cells:
        got = tradeoff(p, t, task)
        unit = 10.0 ** np.floor(np.log10(printed) - 1)  # 1 unit in the last digit
        assert abs(got - printed) <= unit + 1e-15, (task, p, t, got, printed)
        worst = max(worst, abs(got - printed) / unit)
    elapsed = time.perf_counter() - start
    _line(1, "trade-off arithmetic matches published cells", elapsed < 1.0,
          f"worst error {worst:.2f} last-digit units, {elapsed:.2f}s")


def test_criterion_02_gradient_check_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(3, 9))
        h = int(rng.integers(4, 17))
        k = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        noise = "gaussian" if i % 2 == 0 else "mask"
        config = TclConfig(
            input_dim=d, hidden_dim=h, latent_dim=k, noise=noise,
            sigma=0.3, mask_prob=0.3, seed=1000 + i,
        )
        model = _as_float64(init_model(config))
        stream = RngStream(2000 + i, 0)
        x = stream.normal(n, d)
        x1, x2 = augment(x, config, stream)
        _, _, grads = grad_on_views(model, x1, x2, x)
        analytic = np.concatenate([grads[key].ravel() for key in PARAM_KEYS])
        f = lambda t: oracle_loss(replace_params(model, t), x1, x2, x)
        numeric = finite_diff_grad(f, model.vector, eps=1e-5)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max())
        rel = float(np.abs(analytic - numeric).max() / scale)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _line(2, "analytic gradients match central differences",
          worst < 1e-4 and elapsed < 30.0,
          f"20 instances, both noise modes, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_loss_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    models = []
    for j in range(10):
        config = TclConfig(
            input_dim=int(rng.integers(2, 7)),
            hidden_dim=int(rng.integers(4, 10)),
            latent_dim=int(rng.integers(2, 6)),
            sigma=0.2,
            seed=3000 + j,
        )
        models.append(_as_float64(init_model(config)))
    checked = 0
    for case in range(1000):
        model = models[case % len(models)]
        d = model.config.input_dim
        n = int(rng.integers(2, 7))
        stream = RngStream(case, 3)
        x = stream.normal(n, d)
        x1, x2 = augment(x, model.config, stream)

        total, comps = loss_on_views(model, x1, x2, x)
        e1, e2 = encode(model, x1), encode(model, x2)
        r = loss_reconstruction(ref_decode(model.params, e1)["out"],
                                ref_decode(model.params, e2)["out"], x)
        c = loss_contrastive(e1, e2)
        dist = loss_distance(e1, e2)
        assert total == r + c + dist  # decomposition, bit-exact
        assert r >= 0.0 and c >= 0.0 and dist >= 0.0

        perm = stream.permutation(n)
        total_p, _ = loss_on_views(model, x1[perm], x2[perm], x[perm])
        assert abs(total - total_p) <= 1e-12 * max(1.0, abs(total))
        checked += 1
    elapsed = time.perf_counter() - start
    _line(3, "loss identities hold (decomposition, non-negativity, "
             "row-permutation invariance)",
          checked == 1000 and elapsed < 10.0, f"{checked} random cases, {elapsed:.1f}s")


def test_criterion_04_ood_gate_end_to_end():
    start = time.perf_counter()
    dataset, is_ood = shifted_cluster_data(
        n_id=9000, n_ood=1000, d=6, sep=4.0, shift=4.0, seed=1234
    )

    backbone = train_backbone(dataset)
    om = fit_openmax(backbone, dataset, norm="l2", tail=50)
    scores_om = openmax_score(om, dataset.features)
    auroc_om = auroc(scores_om, is_ood)

    fit_part, cal_part = split_rows(dataset, RngStream(5, 0))
    backbone_t = train_backbone(fit_part)
    tm = fit_temperature(backbone_t, cal_part)
    scores_t = temp_score(tm, dataset.features)
    auroc_t = auroc(scores_t, is_ood)

    degradations = {}
    for name, scores in (("openmax", scores_om), ("temperature", scores_t)):
        threshold = float(np.quantile(scores, 0.90))
        pair = split_by_threshold(dataset, scores, threshold)
        report, _, _ = validate_split(pair, RngStream(17, 0))
        degradations[name] = report.degradation

    elapsed = time.perf_counter() - start
    ok = (
        auroc_om > 0.9
        and auroc_t > 0.9
        and all(d >= 0.10 for d in degradations.values())
        and elapsed < 60.0
    )
    _line(4, "OOD gate: detectors separate a 4-sigma shifted cluster and the "
             "split degrades the probe",
          ok,
          f"AUROC openmax {auroc_om:.3f} / temperature {auroc_t:.3f}, "
          f"degradation {degradations['openmax']:.2f} / {degradations['temperature']:.2f}, "
          f"{elapsed:.1f}s")


def test_criterion_04_openmax_auroc_over_seeds():
    # Criterion 04 reads one draw of the data, and a few other seeds fall
    # below its floor; the mean over twelve draws tells a change to the
    # detector from the luck of that one draw.
    start = time.perf_counter()
    aurocs = []
    for seed in range(1234, 1246):
        dataset, is_ood = shifted_cluster_data(
            n_id=9000, n_ood=1000, d=6, sep=4.0, shift=4.0, seed=seed
        )
        om = fit_openmax(train_backbone(dataset), dataset, norm="l2", tail=50)
        aurocs.append(auroc(openmax_score(om, dataset.features), is_ood))
    mean = float(np.mean(aurocs))
    elapsed = time.perf_counter() - start
    _line(4, "OOD gate: mean openmax AUROC over seeds 1234-1245 is at least 0.92",
          mean >= 0.92, f"mean {mean:.4f}, min {min(aurocs):.3f}, {elapsed:.1f}s")


def test_criterion_05_weibull_fit_oracle():
    start = time.perf_counter()
    errors = []
    for shape, scale in ((2.0, 1.0), (0.8, 3.0)):
        x = weibull_sample(1000, shape, scale, RngStream(42, 1))
        shape_hat, scale_hat = weibull_mle(x)
        errors.append(abs(shape_hat - shape) / shape)
        errors.append(abs(scale_hat - scale) / scale)
    elapsed = time.perf_counter() - start
    _line(5, "Weibull MLE recovers known parameters within 10%",
          max(errors) < 0.10 and elapsed < 5.0,
          f"max rel err {max(errors):.3f}, {elapsed:.2f}s")


def test_criterion_06_temperature_calibration():
    start = time.perf_counter()
    rng = RngStream(7, 0)
    n, n_classes = 4000, 4
    raw = rng.uniform(n, n_classes) + 0.05
    posterior = raw / raw.sum(axis=1, keepdims=True)
    u = rng.uniform(n, 1)[:, 0]
    y = (u[:, None] > np.cumsum(posterior, axis=1)).sum(axis=1).astype(np.int64)
    logits = 5.0 * np.log(posterior)
    tau = fit_temperature_on_logits(logits, y)

    never_worse = True
    for trial in range(25):
        stream = RngStream(600 + trial, 0)
        trial_logits = stream.normal(300, 3) * (0.3 + trial * 0.4)
        trial_y = draw_integers(stream, 0, 3, 300).astype(np.int64)
        trial_tau = fit_temperature_on_logits(trial_logits, trial_y)
        if _nll_at_temperature(trial_logits, trial_y, trial_tau) > _nll_at_temperature(
            trial_logits, trial_y, 1.0
        ) + 1e-9:
            never_worse = False
    elapsed = time.perf_counter() - start
    _line(6, "temperature fit recovers a 5x overconfidence factor and never "
             "loses to the identity temperature",
          abs(tau - 5.0) / 5.0 < 0.10 and never_worse and elapsed < 5.0,
          f"tau {tau:.3f}, {elapsed:.2f}s")


def test_criterion_07_representation_benefit(xor_run):
    start = time.perf_counter()
    X, y, n_train, model, _ = xor_run
    x_train, y_train = X[:n_train], y[:n_train]
    x_test, y_test = X[n_train:], y[n_train:]

    raw_head = fit_logistic(x_train, y_train)
    acc_raw = metric_accuracy(y_test, predict(raw_head, x_test))

    e_train = embed(model, x_train)
    e_test = embed(model, x_test)
    emb_head = fit_logistic(e_train, y_train)
    acc_emb = metric_accuracy(y_test, predict(emb_head, e_test))

    elapsed = time.perf_counter() - start
    _line(7, "logistic head on learned embeddings beats the raw-feature head "
             "by >= 0.05 on a nonlinear boundary",
          acc_emb >= acc_raw + 0.05 and elapsed < 120.0,
          f"raw {acc_raw:.3f} vs embedding {acc_emb:.3f}, {elapsed:.1f}s")


def test_criterion_08_training_behavior(xor_run):
    _, _, _, _, trace = xor_run
    ratio = trace.total[14] / trace.total[0]
    ok = (
        trace.epochs == 15
        and ratio <= 0.5
        and trace.stop_reason == "max-epochs"
        and trace.seconds > 0.0
        and len(trace.reconstruction) == 15
        and all(np.isfinite(v) and v >= 0 for v in trace.total)
    )
    _line(8, "epoch-mean loss after 15 default-batch epochs is <= half the "
             "first epoch's; stop reason and trace recorded",
          ok, f"ratio {ratio:.3f}, stop {trace.stop_reason}")


def test_criterion_09_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    dataset, _ = shifted_cluster_data(n_id=540, n_ood=60, d=4, seed=808)
    csv_path = tmp_path / "determinism.csv"
    write_classification_csv(csv_path, dataset.features, dataset.labels)

    def run(name):
        plan = ExperimentPlan(
            dataset=str(csv_path), target="label", model_name="tcl",
            detector={"detector": "openmax", "norm": "l2", "tail": 25, "quantile": 0.9},
            tcl={"max_epochs": 6, "batch_size": 64},
            seed=11, out_dir=str(tmp_path / name),
        )
        report = run_experiment(plan)
        split_bytes = (
            (tmp_path / name / "split" / "d_in.csv").read_bytes(),
            (tmp_path / name / "split" / "d_ood.csv").read_bytes(),
        )
        model_bytes = (tmp_path / name / "model.json").read_bytes()
        return report, split_bytes, model_bytes

    r1, split1, model1 = run("first")
    r2, split2, model2 = run("second")
    ok = r1.p == r2.p and split1 == split2 and model1 == model2
    elapsed = time.perf_counter() - start
    _line(9, "fixed plan and seed reproduce identical metric, split "
             "memberships, and model parameters bit-exactly",
          ok, f"P {r1.p:.4f} twice, {elapsed:.1f}s")


def test_criterion_10_whole_suite_budget():
    elapsed = time.perf_counter() - _SUITE_START
    _line(10, "criteria 1-9 completed within the 5-minute single-core budget",
          elapsed < 300.0, f"{elapsed:.1f}s elapsed")
