import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabcl import ood
from tabcl.data import Dataset, split
from tabcl.exceptions import NumericError
from tabcl.heads import Head, logits, predict
from tabcl.numerics import RngStream
from tabcl.ood import (
    OpenMaxModel,
    TemperatureModel,
    discretize_target,
    fit_openmax,
    fit_temperature,
    fit_temperature_on_logits,
    openmax_score,
    score_histogram,
    split_by_threshold,
    temp_score,
    train_backbone,
    validate_split,
    write_histogram_csv,
)

from conftest import auroc, numeric_schema, shifted_cluster_data


def toy_dataset(n=200, d=4, sep=5.0, seed=50):
    rng = RngStream(seed, 0)
    y = (np.arange(n) % 2).astype(np.int64)
    X = rng.normal(n, d)
    X[:, 0] += sep * (2 * y - 1)
    return Dataset(X, y, numeric_schema(d), None)


def eye_backbone():
    """A two-class backbone whose logits are the two features themselves."""
    return Head("logistic", np.eye(2), np.zeros(2), 2)


class TestBackbone:
    def test_separable_data(self):
        ds = toy_dataset()
        backbone = train_backbone(ds)
        assert (backbone.kind, backbone.classes) == ("logistic", 2)
        acc = float(np.mean(predict(backbone, ds.features) == ds.labels))
        assert acc >= 0.99

    def test_shuffled_labels_stay_near_chance(self):
        rng = RngStream(51, 0)
        X = rng.normal(200, 5)
        y = (rng.uniform(200, 1)[:, 0] < 0.5).astype(np.int64)  # labels independent of X
        ds = Dataset(X, y, numeric_schema(5), None)
        backbone = train_backbone(ds)
        acc = float(np.mean(predict(backbone, ds.features) == ds.labels))
        assert acc <= 0.65

    def test_deterministic(self):
        ds = toy_dataset()
        b1 = train_backbone(ds)
        b2 = train_backbone(ds)
        np.testing.assert_array_equal(b1.weights, b2.weights)

    def test_single_class_rejected(self):
        X = RngStream(52, 0).normal(20, 3)
        ds = Dataset(X, np.zeros(20, dtype=np.int64), numeric_schema(3), None)
        with pytest.raises(ValueError, match="needs at least 2 classes present"):
            train_backbone(ds)

    def test_non_finite_feature_raises(self):
        ds = toy_dataset()
        ds.features[3, 2] = np.nan  # past the Dataset's own check
        with pytest.raises(NumericError, match="^non-finite values in softmax regression "):
            train_backbone(ds)

    def test_label_outside_class_range_rejected(self):
        ds = toy_dataset()
        ds.labels[7] = -1
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            train_backbone(ds)


def regression_shaped_table(n, d, seed):
    """A bimodal real target along feature 0, discretized into 10 bins as
    the detect stage does, with a tenth of the rows in the gap between the
    modes and their target's sign flipped.  Returns (Dataset, is_ood)."""
    rng = RngStream(seed, 0)
    n_id = n - n // 10
    X = rng.normal(n, d)
    mode = np.where(rng.uniform(n_id, 1)[:, 0] < 0.5, -1.0, 1.0)
    X[:n_id, 0] = 6.0 * mode + 0.5 * X[:n_id, 0]
    X[n_id:, 0] *= 0.5
    t = X[:, 0] + 0.2 * np.sin(2.0 * X[:, d - 1]) + 0.1 * rng.normal(n, 1)[:, 0]
    t[n_id:] = -t[n_id:]
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    labels = discretize_target(t, 10)
    schema = numeric_schema(d, classes=tuple(str(i) for i in range(10)))
    return Dataset(X, labels, schema, None), np.arange(n) >= n_id


class TestBackboneScale:
    """The detectors read the scale of the backbone's logits, which its
    weight penalty (``ood._L2 = 0.2``) sets.  On this table at seeds 0-3
    the temperature detector scores the gap cluster at AUROC 0.89-0.93;
    with a backbone solved at the heads' own penalty of 1e-4 (largest
    weight about 75 times larger), at 0.09-0.22."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_temperature_detector_finds_the_gap_cluster(self, seed):
        ds, is_ood = regression_shaped_table(600, 8, seed)
        fit_part, cal_part = split(ds, (0.8, 0.2), RngStream(seed, 11))
        model = fit_temperature(train_backbone(fit_part), cal_part)
        assert auroc(temp_score(model, ds.features), is_ood) >= 0.65


class TestDiscretize:
    def test_quartiles_are_balanced(self):
        labels = discretize_target(np.arange(1.0, 101.0), 4)
        np.testing.assert_array_equal(np.bincount(labels), [25, 25, 25, 25])

    def test_two_bins_is_a_median_split(self):
        y = RngStream(53, 0).normal(101, 1)[:, 0]
        labels = discretize_target(y, 2)
        np.testing.assert_array_equal(labels, (y > np.median(y)).astype(int))

    def test_ties_break_by_row_order(self):
        labels = discretize_target(np.array([1.0, 1.0, 1.0, 2.0]), 2)
        np.testing.assert_array_equal(labels, [0, 0, 1, 1])

    def test_errors(self):
        with pytest.raises(ValueError):
            discretize_target(np.ones(10), 2)
        with pytest.raises(ValueError):
            discretize_target(np.arange(10.0), 1)


class TestOpenMax:
    def test_mavs_far_apart_for_separated_classes(self):
        ds = toy_dataset(n=400, sep=6.0)
        backbone = train_backbone(ds)
        model = fit_openmax(backbone, ds, norm="l2", tail=30)
        z = logits(backbone, ds.features)
        mav_gap = np.linalg.norm(model.mavs[0] - model.mavs[1])
        within = []
        for cls in (0, 1):
            acts = z[(predict(backbone, ds.features) == ds.labels) & (ds.labels == cls)]
            diff = acts - model.mavs[cls]
            within.extend(np.sqrt((diff * diff).sum(axis=1)))
        assert mav_gap > 10.0 * float(np.mean(within))

    def test_class_below_tail_threshold_names_class(self):
        ds = toy_dataset(n=60)
        backbone = train_backbone(ds)
        with pytest.raises(ValueError, match="class 0"):
            fit_openmax(backbone, ds, tail=50)

    def test_identical_class_rows_are_degenerate(self):
        rng = RngStream(54, 0)
        X = np.vstack([np.tile([5.0, 0.0, 0.0], (40, 1)), rng.normal(40, 3) - 5.0])
        y = np.array([0] * 40 + [1] * 40, dtype=np.int64)
        ds = Dataset(X, y, numeric_schema(3), None)
        backbone = train_backbone(ds)
        with pytest.raises(NumericError, match="class 0"):
            fit_openmax(backbone, ds, tail=20)

    def test_score_zero_at_mav_and_one_far_away(self):
        mavs = np.array([[3.0, 0.0], [0.0, 3.0]])
        model = OpenMaxModel(eye_backbone(), mavs, np.array([2.0, 2.0]), np.array([1.0, 1.0]),
                             10, "l2")
        scores = openmax_score(model, np.array([[3.0, 0.0], [300.0, 0.0]]))
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(1.0)

    def test_score_at_scale_distance(self):
        mavs = np.array([[3.0, 0.0], [0.0, 3.0]])
        model = OpenMaxModel(eye_backbone(), mavs, np.array([1.3, 1.3]), np.array([2.0, 2.0]),
                             10, "l2")
        # distance from class-0 MAV exactly equals the scale parameter
        (score,) = openmax_score(model, np.array([[5.0, 0.0]]))
        assert score == pytest.approx(1 - np.exp(-1), abs=1e-12)

    def test_score_monotone_in_distance(self):
        mavs = np.array([[3.0, 0.0], [0.0, 3.0]])
        model = OpenMaxModel(eye_backbone(), mavs, np.array([1.7, 1.7]), np.array([0.8, 0.8]),
                             10, "l2")
        xs = np.array([[3.0 + t, 0.0] for t in np.linspace(0, 20, 40)])
        scores = openmax_score(model, xs)
        assert np.all(np.diff(scores) >= 0)

    def test_single_row_vector_rejected(self):
        mavs = np.array([[3.0, 0.0], [0.0, 3.0]])
        model = OpenMaxModel(eye_backbone(), mavs, np.ones(2), np.ones(2), 10, "l2")
        with pytest.raises(ValueError, match="2-D matrix"):
            openmax_score(model, np.array([3.0, 0.0]))


def reference_openmax_score(model, x):
    """The score by the plain formula on fresh arrays: numpy's array power,
    all rows at once."""
    z = logits(model.backbone, x)
    pred = np.argmax(z, axis=1)
    dist = ood._distances(z - model.mavs[pred], model.norm)
    power = (np.maximum(dist, 0.0) / model.scales[pred]) ** model.shapes[pred]
    return np.where(dist > 0, -np.expm1(-power), 0.0)


def per_row_openmax_score(model, x):
    """The score as first written: one CDF per row, whose scalar power is
    libm ``pow``.  numpy's array power can differ from it in the last bit."""
    z = logits(model.backbone, x)
    pred = np.argmax(z, axis=1)
    dist = ood._distances(z - model.mavs[pred], model.norm)
    return np.array([
        -np.expm1(-((d / model.scales[c]) ** model.shapes[c])) if d > 0 else 0.0
        for d, c in zip(dist, pred)
    ])


class TestOpenMaxMatchesReference:
    """openmax_score evaluates the CDF for all rows in one weibull_cdf call;
    every score must keep the bits of the plain array formula, and agree
    to rounding with the per-row scalar formula."""

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_bit_equal_on_a_fitted_model(self, norm):
        # Enough rows that numpy's array power, which can differ from libm
        # pow in the last bit on a few percent of inputs, would show.
        ds, _ = shifted_cluster_data(n_id=1800, n_ood=200, seed=61)
        backbone = train_backbone(ds)
        model = fit_openmax(backbone, ds, norm=norm, tail=20)
        scores = openmax_score(model, ds.features)
        assert scores.shape == (2000,)
        assert scores.tobytes() == reference_openmax_score(model, ds.features).tobytes()
        np.testing.assert_allclose(
            scores, per_row_openmax_score(model, ds.features), rtol=1e-14, atol=0)

    def test_overflowing_power_scores_exactly_one(self):
        mavs = np.array([[3.0, 0.0], [0.0, 3.0]])
        model = OpenMaxModel(eye_backbone(), mavs, np.array([500.0, 500.0]),
                             np.array([1.0, 1.0]), 10, "l2")
        x = np.array([[1e3, 0.0], [3.0, 0.0], [0.0, 1e3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = openmax_score(model, x)
            one_row = openmax_score(model, x[:1])
        assert scores.tolist() == [1.0, 0.0, 1.0]
        assert one_row.tolist() == [1.0]
        with np.errstate(over="ignore"):
            assert scores.tobytes() == reference_openmax_score(model, x).tobytes()

    def test_non_positive_parameters_rejected(self):
        mavs = np.array([[3.0, 0.0], [0.0, 3.0]])
        model = OpenMaxModel(eye_backbone(), mavs, np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                             10, "l2")
        assert openmax_score(model, np.array([[4.0, 0.0]]))[0] > 0.0  # class 0 is sound
        with pytest.raises(ValueError, match="must be positive"):
            openmax_score(model, np.array([[0.0, 4.0]]))


def reference_nll(logits, y, tau):
    """_nll_at_temperature by the plain class-major formula on fresh arrays."""
    z = np.ascontiguousarray(logits.T) / tau
    z = z - z.max(axis=0)
    logp = z - np.log(np.exp(z).sum(axis=0))
    return -float(np.mean(logp[y, np.arange(y.size)]))


def row_major_nll(logits, y, tau):
    """_nll_at_temperature as first written, on row-major logits: numpy sums
    each contiguous row in another order, so it agrees to rounding."""
    z = logits / tau
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -float(np.mean(logp[np.arange(y.size), y]))


def calibration_problem(seed, n, classes, scale):
    rng = RngStream(seed, 0)
    return scale * rng.normal(n, classes), rng.integers(0, classes, n).astype(np.int64)


class TestTemperatureMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 300), st.integers(2, 12),
           st.sampled_from([0.1, 1.0, 30.0, 1e3]), st.floats(0.05, 10.0))
    def test_nll_bit_equal(self, seed, n, classes, scale, tau):
        logits, y = calibration_problem(seed, n, classes, scale)
        got = ood._nll_at_temperature(logits, y, tau)
        assert got.hex() == reference_nll(logits, y, tau).hex()
        # An NLL near 0 carries the class sum's rounding as an absolute
        # error, so the cross-check also allows one of 1e-15.
        np.testing.assert_allclose(got, row_major_nll(logits, y, tau), rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("n, classes, scale", [
        (4000, 3, 1.0), (400, 7, 5.0), (400, 8, 5.0), (400, 9, 0.3), (800, 12, 30.0),
        (300, 130, 3.0),
    ])
    def test_fitted_temperature_bit_equal(self, n, classes, scale):
        logits, y = calibration_problem(n + classes, n, classes, scale)
        with mock.patch.object(ood, "_nll_at_temperature", reference_nll):
            expected = fit_temperature_on_logits(logits, y)
        assert fit_temperature_on_logits(logits, y).hex() == expected.hex()

    @pytest.mark.parametrize("bad", [3, -1])
    def test_label_outside_class_range_rejected(self, bad):
        # The NLL gathers each row's true-class entry by flat index, so an
        # unchecked label would read a neighbouring row's entry.
        logits, y = calibration_problem(5, 40, 3, 1.0)
        y[7] = bad
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            ood._nll_at_temperature(logits, y, 1.0)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            fit_temperature_on_logits(logits, y)

    def test_labels_not_one_per_row_rejected(self):
        logits, y = calibration_problem(5, 40, 3, 1.0)
        for labels in (y[:-1], np.append(y, 0)):
            with pytest.raises(ValueError, match="labels must be one per row"):
                fit_temperature_on_logits(logits, labels)


class TestTemperature:
    def _posterior_sample(self, n, C, seed):
        rng = RngStream(seed, 0)
        raw = rng.uniform(n, C) + 0.05
        p = raw / raw.sum(axis=1, keepdims=True)
        u = rng.uniform(n, 1)[:, 0]
        y = (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
        return p, y.astype(np.int64)

    def test_calibrated_logits_give_unit_temperature(self):
        p, y = self._posterior_sample(4000, 3, 55)
        tau = fit_temperature_on_logits(np.log(p), y)
        assert abs(tau - 1.0) < 0.05

    def test_overconfident_logits_recover_factor(self):
        p, y = self._posterior_sample(4000, 4, 56)
        tau = fit_temperature_on_logits(5.0 * np.log(p), y)
        assert abs(tau - 5.0) / 5.0 < 0.10

    def test_never_worse_than_identity(self):
        rng = RngStream(57, 0)
        for trial in range(20):
            logits = rng.normal(200, 3) * (0.5 + trial)
            y = rng.integers(0, 3, 200).astype(np.int64)
            tau = fit_temperature_on_logits(logits, y)
            from tabcl.ood import _nll_at_temperature

            assert _nll_at_temperature(logits, y, tau) <= _nll_at_temperature(logits, y, 1.0) + 1e-9
            assert 0.05 <= tau <= 10.0

    def test_dataset_level_wrapper(self):
        ds = toy_dataset(n=400)
        fit_part, cal_part = split(ds, (0.7, 0.3), RngStream(58, 0))
        backbone = train_backbone(fit_part)
        model = fit_temperature(backbone, cal_part)
        assert model.nll_calibrated <= model.nll_uncalibrated + 1e-9
        assert 0.05 <= model.temperature <= 10.0

    def test_score_limits(self):
        model = TemperatureModel(eye_backbone(), 1.0, 0.0, 0.0)
        scores = temp_score(model, np.array([[50.0, 0.0], [0.0, 0.0]]))
        assert scores[0] == pytest.approx(-1.0, abs=1e-9)
        assert scores[1] == pytest.approx(-0.5)
        hot = TemperatureModel(eye_backbone(), 1e9, 0.0, 0.0)
        assert temp_score(hot, np.array([[17.0, -4.0]]))[0] == pytest.approx(-0.5, abs=1e-6)

    def test_single_row_vector_rejected(self):
        model = TemperatureModel(eye_backbone(), 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="2-D matrix"):
            temp_score(model, np.array([50.0, 0.0]))

    def test_score_matches_inline_reference(self):
        # the plain class-major formula on fresh arrays, and to rounding
        # the score as first written, with a row-major softmax; 10 classes
        # is the cli-regression calibration, and from 8 and 130 numpy sums
        # a contiguous row in another order.
        rng = RngStream(57, 0)
        for classes in (4, 8, 10, 130):
            backbone = Head("logistic", rng.normal(6, classes), rng.normal(1, classes)[0], classes)
            x = 3.0 * rng.normal(200, 6)
            for tau in (0.05, 0.7, 1.0, 9.5):
                z = np.ascontiguousarray(logits(backbone, x).T) / tau
                p = np.exp(z - z.max(axis=0))
                p /= p.sum(axis=0)
                scores = temp_score(TemperatureModel(backbone, tau, 0.0, 0.0), x)
                assert scores.tobytes() == (-p.max(axis=0)).tobytes()
                zr = logits(backbone, x) / tau
                pr = np.exp(zr - zr.max(axis=1, keepdims=True))
                pr /= pr.sum(axis=1, keepdims=True)
                np.testing.assert_allclose(scores, -pr.max(axis=1), rtol=1e-14, atol=0)

    def test_score_decreases_with_confidence(self):
        model = TemperatureModel(eye_backbone(), 1.3, 0.0, 0.0)
        xs = np.array([[t, 0.0] for t in np.linspace(0.0, 10.0, 25)])
        scores = temp_score(model, xs)
        assert np.all(np.diff(scores) < 0)  # more confident -> lower score


class TestHistogram:
    def test_identical_scores_occupy_one_bin(self):
        hist = score_histogram(np.full(10, 0.3), bins=10)
        assert hist.counts.sum() == 10
        assert (hist.counts > 0).sum() == 1

    def test_uniform_grid(self):
        hist = score_histogram(np.linspace(0.0, 1.0, 100), bins=10)
        np.testing.assert_array_equal(hist.counts, np.full(10, 10))

    def test_bimodal_scores_show_a_valley(self):
        rng = RngStream(59, 0)
        scores = np.concatenate(
            [rng.normal(500, 1)[:, 0] * 0.05, rng.normal(500, 1)[:, 0] * 0.05 + 1.0]
        )
        hist = score_histogram(scores, bins=30)
        mid = hist.counts[10:20]
        assert mid.min() <= 2

    def test_csv_emission(self, tmp_path):
        hist = score_histogram(np.linspace(0, 1, 50), bins=5)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 6
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 50


class TestSplitByThreshold:
    def test_empty_side_is_an_error(self):
        ds = toy_dataset(n=50)
        scores = np.linspace(0, 1, 50)
        with pytest.raises(ValueError, match="pick another point"):
            split_by_threshold(ds, scores, scores.max())
        with pytest.raises(ValueError, match="pick another point"):
            split_by_threshold(ds, scores, -1.0)

    def test_percentile_threshold_ratio(self):
        ds = toy_dataset(n=1000)
        scores = RngStream(60, 0).uniform(1000, 1)[:, 0]
        thr = float(np.quantile(scores, 0.9))
        pair = split_by_threshold(ds, scores, thr)
        assert pair.m + pair.n == 1000
        assert abs(pair.m / pair.n - 9.0) < 0.2

    def test_settings_are_recorded(self):
        ds = toy_dataset(n=30)
        scores = np.linspace(0, 1, 30) * 0.3
        pair = split_by_threshold(ds, scores, 0.1628, detector="openmax", norm="l2", seed=9)
        assert pair.threshold == 0.1628
        assert pair.detector == "openmax"
        assert pair.norm == "l2"
        assert pair.seed == 9
        assert pair.m + pair.n == 30

    def test_raising_threshold_is_monotone(self):
        ds = toy_dataset(n=80)
        scores = RngStream(61, 0).uniform(80, 1)[:, 0]
        thresholds = np.sort(scores)[10:70:10]
        prev = None
        for thr in thresholds:
            mask = scores <= thr
            if prev is not None:
                assert np.all(mask[prev])  # rows never leave the ID side
            prev = mask


class TestValidateSplit:
    def test_same_distribution_null_shows_no_degradation(self):
        rng = RngStream(62, 0)
        n, d = 10000, 5
        y = (rng.uniform(n, 1)[:, 0] < 0.5).astype(np.int64)
        X = rng.normal(n, d)
        X[:, 0] += 2.5 * (2 * y - 1)
        ds = Dataset(X, y, numeric_schema(d), None)
        fake_scores = rng.uniform(n, 1)[:, 0]  # split carries no signal
        pair = split_by_threshold(ds, fake_scores, float(np.quantile(fake_scores, 0.9)))
        report = validate_split(pair, RngStream(63, 0))
        assert abs(report.degradation) < 0.05

    def test_shifted_cluster_degrades(self):
        ds, is_ood = shifted_cluster_data(n_id=1800, n_ood=200, d=5, seed=64)
        scores = is_ood.astype(float) + RngStream(65, 0).uniform(len(is_ood), 1)[:, 0] * 0.1
        pair = split_by_threshold(ds, scores, float(np.quantile(scores, 0.9)))
        report = validate_split(pair, RngStream(66, 0))
        assert report.degradation >= 0.10
        assert report.id_test > 0.9

    def test_small_ood_side_rejected(self):
        ds = toy_dataset(n=100)
        scores = np.zeros(100)
        scores[:5] = 1.0
        pair = split_by_threshold(ds, scores, 0.5)
        with pytest.raises(ValueError, match="too small"):
            validate_split(pair, RngStream(67, 0))

    def test_report_fields_complete(self):
        ds = toy_dataset(n=300)
        scores = RngStream(68, 0).uniform(300, 1)[:, 0]
        pair = split_by_threshold(ds, scores, float(np.quantile(scores, 0.9)), detector="t")
        report = validate_split(pair, RngStream(69, 0))
        d = report.to_dict()
        assert list(d) == ["task", "id_train", "id_test", "ood_train", "ood_test", "m", "n",
                           "threshold", "detector", "norm", "degradation"]
        assert d["degradation"] == report.id_test - report.ood_test
        assert d["m"] + d["n"] == 300
