import numpy as np
import pytest

from tabcl import heads
from tabcl.data import ingest_csv
from tabcl.exceptions import ConfigError, FormatError, NumericError
from tabcl.heads import (
    Head,
    fit_head,
    fit_linear,
    fit_logistic,
    fit_softmax_regression,
    load_head,
    logits,
    metric_accuracy,
    metric_f1_macro,
    metric_r2,
    metric_rmse,
    predict,
    save_head,
    task_rules,
)
from tabcl.numerics import RngStream

from conftest import load_workloads
from oracles import draw_integers, finite_diff_grad, hessian_product


def bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def separable_toy(n=100, seed=40):
    rng = RngStream(seed, 0)
    y = (np.arange(n) % 2).astype(np.int64)
    X = rng.normal(n, 2)
    X[:, 0] += 6.0 * (2 * y - 1)
    return X, y


class TestLogistic:
    def test_separable_data_fits(self):
        X, y = separable_toy()
        head = fit_logistic(X, y)
        assert metric_accuracy(y, predict(head, X)) >= 0.99

    def test_huge_penalty_collapses_to_majority(self):
        X, y = separable_toy()
        y = y.copy()
        y[:70] = 1  # make class 1 the majority
        baseline = fit_logistic(X, y)
        head = fit_logistic(X, y, l2=100.0)
        assert np.abs(head.weights).max() < 0.05 * np.abs(baseline.weights).max()
        assert np.all(predict(head, X) == 1)

    def test_deterministic(self):
        X, y = separable_toy()
        h1 = fit_logistic(X, y)
        h2 = fit_logistic(X, y)
        np.testing.assert_array_equal(h1.weights, h2.weights)
        np.testing.assert_array_equal(h1.bias, h2.bias)

    def test_single_class_rejected(self):
        X = RngStream(41, 0).normal(10, 2)
        with pytest.raises(ValueError):
            fit_logistic(X, np.zeros(10, dtype=np.int64))

    def test_negative_penalty_rejected(self):
        X, y = separable_toy()
        with pytest.raises(ValueError, match="l2 must be >= 0"):
            fit_logistic(X, y, l2=-1e-4)

    @pytest.mark.parametrize("l2", [float("nan"), float("inf"), np.float32("nan")],
                             ids=["nan", "inf", "float32-nan"])
    def test_non_finite_penalty_rejected(self, l2):
        X, y = separable_toy()
        with pytest.raises(ValueError, match="l2 must be >= 0 and finite"):
            fit_logistic(X, y, l2=l2)

    @pytest.mark.parametrize("labels", [(0, 1), (0, 2)])
    def test_separable_data_stops_with_finite_weights(self, labels):
        # Separable classes, and with labels {0, 2} an absent class 1 whose
        # unpenalized bias has no finite optimum: the fit still ends on its
        # tolerance, well within its step cap.
        X, y = separable_toy()
        y = np.asarray(labels)[y]
        head = fit_logistic(X, y)
        assert head.classes == max(labels) + 1
        assert np.isfinite(head.weights).all() and np.isfinite(head.bias).all()
        assert np.abs(plain_gradient(X, y, head.classes, heads.L2, head.weights,
                                     head.bias)).max() <= heads._TOL
        pred = predict(head, X)
        assert np.array_equal(np.unique(pred), np.unique(y))
        assert metric_accuracy(y, pred) == 1.0

    def test_float32_features_fit_as_their_float64_widening(self):
        # Embeddings are float32; the fit widens them itself, bit for bit.
        X, y = softmax_problem(43, 400, 6, 4, 2.0)
        X32 = X.astype(np.float32)
        narrow, wide = fit_logistic(X32, y), fit_logistic(X32.astype(np.float64), y)
        assert bits_equal(narrow.weights, wide.weights) and bits_equal(narrow.bias, wide.bias)

    def test_shape_mismatch_never_truncates(self):
        X, y = separable_toy()
        head = fit_logistic(X, y)
        with pytest.raises(ValueError):
            predict(head, X[:, :1])


class TestLogits:
    def test_overflow_raises(self):
        head = Head("logistic", np.array([[1e308, 0.0], [1e308, 0.0]]), np.zeros(2), 2)
        X = np.array([[1.0, 0.0], [10.0, 10.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="non-finite logits"):
                logits(head, X)
            with pytest.raises(NumericError, match="non-finite logits"):
                predict(head, X)

    def test_predict_is_the_argmax_of_the_plain_logits(self):
        X, y = softmax_problem(41, 500, 6, 7, 3.0)
        head = fit_logistic(X, y)
        plain = np.argmax(X @ head.weights + head.bias, axis=1)
        assert bits_equal(predict(head, X), plain)
        assert bits_equal(logits(head, X), X @ head.weights + head.bias)

    def test_one_row_must_be_a_matrix(self):
        X, y = separable_toy()
        head = fit_logistic(X, y)
        with pytest.raises(ValueError, match="2-D matrix"):
            logits(head, X[0])
        assert logits(head, X[:1]).shape == (1, 2)


class TestHeadClasses:
    def test_head_fitted_without_the_top_class_has_one_output_per_class(self):
        X, y = separable_toy()
        head = fit_head(X, y, "classification", classes=3)
        assert head.classes == 3 and head.weights.shape == (2, 3) and head.bias.shape == (3,)
        assert set(predict(head, X)) <= {0, 1}
        assert fit_head(X, y, "classification").classes == 2  # the labels' count, by default
        assert fit_head(X, y.astype(np.float64), "regression", classes=3).classes is None


class TestMetricDirection:
    @pytest.mark.parametrize("task, higher", [("classification", True), ("regression", False)])
    def test_each_task(self, task, higher):
        assert task_rules(task).higher_is_better is higher

    def test_unknown_task_is_value_error(self):
        with pytest.raises(ValueError, match="^unknown task: 'ranking'$"):
            task_rules("ranking")


class TestFitHead:
    def test_kind_follows_the_task(self):
        X, y = separable_toy()
        assert fit_head(X, y, "classification").kind == "logistic"
        assert fit_head(X, y.astype(np.float64), "regression").kind == "linear"
        assert task_rules("classification").head == "logistic"
        assert task_rules("regression").head == "linear"
        task_rules("classification").check_head("logistic")  # the kind that fits passes
        task_rules("regression").check_head("linear")

    @pytest.mark.parametrize("task, kind", [
        ("classification", "linear"), ("regression", "logistic"), ("classification", "ridge"),
    ])
    def test_kind_that_does_not_fit_the_task_rejected(self, task, kind):
        X, y = separable_toy()
        with pytest.raises(ConfigError, match="does not fit"):
            fit_head(X, y, task, kind)


def softmax_problem(seed, n, d, classes, scale):
    """Labels from a noisy linear rule, so the fit has something to learn."""
    rng = RngStream(seed, 0)
    X = scale * rng.normal(n, d)
    y = np.argmax(X @ rng.normal(d, classes) + rng.normal(n, classes), axis=1)
    return X, y


class TestSoftmaxRegression:
    """The label and feature checks of the Newton fit, which every logistic
    head and the OOD backbone go through."""

    @pytest.mark.parametrize("bad", [3, -1])
    def test_label_outside_class_range_rejected(self, bad):
        # The fit gathers each row's true-class probability by flat index,
        # so an unchecked label would read a neighbouring row's entry.
        X, y = softmax_problem(7, 30, 4, 3, 1.0)
        y = y.copy()
        y[5] = bad
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            fit_softmax_regression(X, y, 3, 1e-4)

    def test_labels_not_one_per_row_rejected(self):
        X, y = softmax_problem(7, 30, 4, 3, 1.0)
        for labels in (y[:-1], y[:1], np.append(y, 0)):
            with pytest.raises(ValueError, match="labels must be one per row"):
                fit_softmax_regression(X, labels, 3, 1e-4)
        with pytest.raises(ValueError, match="with at least one row"):
            fit_softmax_regression(X[:0], y[:0], 3, 1e-4)

    @pytest.mark.parametrize("bad", [0.5, 1.7, -0.5, np.nan, np.inf])
    def test_label_not_a_whole_number_rejected(self, bad):
        # a cast to an integer would truncate 0.5 and 1.7 to other classes
        X, y = separable_toy(n=8)
        labels = y.astype(np.float64)
        labels[3] = bad
        with pytest.raises(ValueError, match="whole numbers"):
            fit_logistic(X, labels)
        with pytest.raises(ValueError, match="whole numbers"):
            fit_logistic(X, labels, classes=2)
        with pytest.raises(ValueError, match="whole numbers"):
            fit_softmax_regression(X, labels, 2, 1e-4)

    def test_integral_float_labels_are_labels(self):
        X, y = separable_toy()
        head = fit_logistic(X, y.astype(np.float64))
        assert head.classes == 2
        assert bits_equal(head.weights, fit_logistic(X, y).weights)

    def test_non_finite_features_rejected(self):
        X, y = softmax_problem(7, 30, 4, 3, 1.0)
        X[3, 2] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            fit_softmax_regression(X, y, 3, 1e-4)

    @pytest.mark.parametrize("big", [1e39, -3.5e38, 1e300])
    def test_features_beyond_float32_range_rejected(self, big):
        # The Hessian-vector products read the features in float32, where
        # such a value would be infinite.
        X, y = softmax_problem(7, 30, 4, 3, 1.0)
        X[3, 2] = big
        with pytest.raises(ValueError, match="beyond the float32 range"):
            fit_softmax_regression(X, y, 3, 1e-4)
        with pytest.raises(ValueError, match="beyond the float32 range"):
            fit_logistic(X, y)


def plain_objective(X, y, classes, l2, W, b):
    """Mean NLL plus ``0.5 * l2 * |W|^2`` by the row-major textbook formula."""
    z = X @ W + b
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -float(np.mean(logp[np.arange(len(y)), y])) + 0.5 * l2 * float(np.sum(W * W))


def plain_gradient(X, y, classes, l2, W, b):
    """The objective's gradient, weights then bias stacked as (d + 1, C)."""
    z = X @ W + b
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(y)), y] -= 1.0
    return np.vstack([X.T @ p / len(y) + l2 * W, p.mean(axis=0)])


def explicit_newton(X, y, classes, l2, steps=200):
    """Reference optimum: damped Newton with the explicit ((d + 1) C)^2
    Hessian and Armijo backtracking, to a gradient max-norm of 1e-11."""
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    pen = np.full(d + 1, l2)
    pen[d] = 0.0
    theta = np.zeros((d + 1, classes))  # column c: class c's weights and bias

    def f(t):
        return plain_objective(X, y, classes, l2, t[:d], t[d])

    for _ in range(steps):
        g = plain_gradient(X, y, classes, l2, theta[:d], theta[d])
        if np.abs(g).max() <= 1e-11:
            break
        z = Xa @ theta
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        # H[(j, a), (k, b)] = mean_i x_ij x_ik (p_ia [a == b] - p_ia p_ib)
        Q = (Xa[:, :, None] * p[:, None, :]).reshape(n, -1)
        H = -(Q.T @ Q) / n
        for a in range(classes):
            H[a::classes, a::classes] += (Xa.T * p[:, a]) @ Xa / n + np.diag(pen)
        # Shifting every bias by one constant leaves the objective as it
        # is, so H is singular: least squares picks the shortest step.
        step = np.linalg.lstsq(H, -g.reshape(-1), rcond=None)[0].reshape(d + 1, classes)
        slope = float(np.vdot(g, step))
        t, f0 = 1.0, f(theta)
        while f(theta + t * step) > f0 + 1e-4 * t * slope and t > 1e-12:
            t *= 0.5
        theta = theta + t * step
    return f(theta)


def every_class_present(X, y, classes, seed):
    """``softmax_problem``'s data with one random row relabelled to each
    class, so every class is present and the objective has a minimum."""
    y = y.copy()
    y[RngStream(seed, 1).permutation(len(y))[:classes]] = np.arange(classes)
    return X, y


WORKLOAD_SHAPES = [(4000, 44, 3), (700, 64, 4), (1200, 24, 10), (900, 6, 130), (1500, 1, 3),
                   (2, 1, 2)]


class TestNewton:
    """The head's truncated-Newton fit against independent references."""

    @pytest.mark.parametrize("n, d, classes", [(40, 3, 2), (60, 4, 5), (30, 1, 3)])
    def test_gradient_and_hessian_product_match_central_differences(self, n, d, classes):
        X, y = softmax_problem(n + d, n, d, classes, 1.0)
        rng = RngStream(n, 2)
        obj = heads._Objective(X, y, classes, 0.3)
        theta = rng.normal(classes, d + 1)
        v = rng.normal(classes, d + 1)

        def gradient(t):
            obj.value(t)
            return obj.gradient(t)

        numeric = finite_diff_grad(lambda t: obj.value(t.reshape(theta.shape)), theta.ravel())
        np.testing.assert_allclose(gradient(theta).ravel(), numeric, rtol=1e-6, atol=1e-8)

        eps = 1e-5
        diff = (gradient(theta + eps * v) - gradient(theta - eps * v)) / (2 * eps)
        obj.value(theta)
        np.testing.assert_allclose(obj.hessian_product(v), diff, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("n, d, classes", WORKLOAD_SHAPES)
    def test_gradient_at_return_within_tolerance(self, n, d, classes):
        X, y = softmax_problem(n + d, n, d, classes, 1.0)
        W, b = fit_softmax_regression(X, y, classes, 1e-4)
        assert np.abs(plain_gradient(X, y, classes, 1e-4, W, b)).max() <= heads._TOL

    @pytest.mark.parametrize("n, d, classes", WORKLOAD_SHAPES)
    def test_reaches_the_explicit_newton_optimum(self, n, d, classes):
        X, y = every_class_present(*softmax_problem(n + d, n, d, classes, 1.0), classes, n)
        W, b = fit_softmax_regression(X, y, classes, 1e-4)
        best = explicit_newton(X, y, classes, 1e-4)
        assert abs(plain_objective(X, y, classes, 1e-4, W, b) - best) <= 1e-6

    @pytest.mark.parametrize("n, d, classes", WORKLOAD_SHAPES[:3])
    def test_two_fits_give_identical_bits(self, n, d, classes):
        X, y = softmax_problem(n + d, n, d, classes, 1.0)
        W1, b1 = fit_softmax_regression(X, y, classes, 1e-4)
        W2, b2 = fit_softmax_regression(X, y, classes, 1e-4)
        assert bits_equal(W1, W2) and bits_equal(b1, b2)

    def test_objective_never_rises(self, monkeypatch):
        # The fit capped at k Newton steps returns its k-th iterate.
        X, y = softmax_problem(11, 300, 5, 4, 3.0)
        values = []
        for cap in range(12):
            monkeypatch.setattr(heads, "_NEWTON_STEPS", cap)
            values.append(plain_objective(X, y, 4, 1e-4, *fit_softmax_regression(X, y, 4, 1e-4)))
        assert values[0] == pytest.approx(np.log(4))
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] / 2


class TestMixedPrecision:
    """The fit takes its Hessian-vector products in float32, and all else in
    float64; the float64 product (``oracles.hessian_product``) is the
    reference."""

    @pytest.mark.parametrize("l2", [1e-4, 0.2])
    @pytest.mark.parametrize("n, d, classes", WORKLOAD_SHAPES)
    def test_product_matches_the_float64_reference(self, n, d, classes, l2):
        # Within 1e-5 of the largest entry, about 80 float32 epsilons; these
        # cases read 6e-7 at most.
        X, y = softmax_problem(n + d, n, d, classes, 1.0)
        obj = heads._Objective(X, y, classes, l2)
        rng = RngStream(n, 3)
        for theta in (np.zeros((classes, d + 1)), rng.normal(classes, d + 1)):
            obj.value(theta)
            for _ in range(3):
                v = rng.normal(classes, d + 1)
                got, want = obj.hessian_product(v), hessian_product(obj, v)
                assert got.dtype == np.float64 and got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    @pytest.mark.parametrize("n, d, classes", WORKLOAD_SHAPES)
    def test_fit_predicts_as_with_the_float64_product(self, n, d, classes, monkeypatch):
        X, y = softmax_problem(n + d, n, d, classes, 1.0)
        mixed = fit_softmax_regression(X, y, classes, 1e-4)
        monkeypatch.setattr(heads._Objective, "hessian_product", hessian_product)
        double = fit_softmax_regression(X, y, classes, 1e-4)
        for W, b in (mixed, double):
            assert np.abs(plain_gradient(X, y, classes, 1e-4, W, b)).max() <= heads._TOL
        (W1, b1), (W2, b2) = mixed, double
        assert bits_equal(np.argmax(X @ W1 + b1, axis=1), np.argmax(X @ W2 + b2, axis=1))

    def test_products_per_fit_on_a_gate_tall_table(self, tmp_path, monkeypatch):
        """The Hessian-vector products that the backbone's and the heads'
        penalties take on the gate-tall benchmark's input 0 (4000 rows, 48
        encoded columns, 3 classes).  A change to the solver or its forcing
        term shows here as a new count."""
        workloads = load_workloads()
        path, _ = workloads.generate("gate-tall", 0, str(tmp_path))
        ds = ingest_csv(path, target="label")
        products = []
        product = heads._Objective.hessian_product

        def counted(obj, v):
            products.append(1)
            return product(obj, v)

        monkeypatch.setattr(heads._Objective, "hessian_product", counted)
        counts = []
        for l2 in (0.2, heads.L2):
            products.clear()
            fit_logistic(ds.features, ds.labels, l2=l2)
            counts.append(len(products))
        assert counts == [12, 79]


class TestLinear:
    def test_constant_target(self):
        X = RngStream(43, 0).normal(30, 2)
        head = fit_linear(X, np.full(30, 7.5))
        assert np.max(np.abs(head.weights)) < 1e-9
        assert abs(head.bias[0] - 7.5) < 1e-9

    def test_matches_normal_equation_oracle(self):
        rng = RngStream(44, 0)
        X = rng.normal(40, 4)
        y = rng.normal(40, 1)[:, 0]
        head = fit_linear(X, y)
        # brute-force oracle: assemble and solve the penalized system directly
        Xa = np.hstack([X, np.ones((40, 1))])
        P = heads.RIDGE * np.eye(5)
        P[4, 4] = 0.0
        coef = np.linalg.solve(Xa.T @ Xa + P, Xa.T @ y)
        np.testing.assert_allclose(np.append(head.weights, head.bias[0]), coef, atol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        X = RngStream(45, 0).normal(4, 2)
        with pytest.raises(ValueError, match="targets must be finite"):
            fit_linear(X, [1.0, bad, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        X = RngStream(46, 0).normal(4, 2)
        X[1, 0] = bad
        with pytest.raises(NumericError, match="non-finite values in linear regression features"):
            fit_linear(X, [1.0, 0.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_raises(self, bad):
        # as logits does for a logistic head
        head = fit_linear(RngStream(47, 0).normal(6, 2), [1.0, 0.0, 2.0, 3.0, 1.0, 2.0])
        X = np.array([[1.0, 2.0], [bad, 0.0]])
        with pytest.raises(NumericError, match="non-finite values in linear predictions"):
            predict(head, X)
        assert np.isfinite(predict(head, X[:1])).all()


class TestMetrics:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 1])
        assert metric_accuracy(y, y) == 1.0
        assert metric_f1_macro(y, y) == 1.0
        r = np.array([1.5, -2.0, 0.0])
        assert metric_rmse(r, r) == 0.0
        assert metric_r2(r, r) == 1.0

    def test_constant_prediction_has_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, y.mean())
        assert metric_r2(y, pred) == 0.0

    def test_f1_macro_hand_count(self):
        # confusion matrix per class: TP=1, FP=1, FN=1, TN=1
        y_true = np.array([1, 0, 1, 0])
        y_pred = np.array([1, 1, 0, 0])
        assert metric_f1_macro(y_true, y_pred) == 0.5

    def test_f1_skips_absent_classes(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 0, 1, 1])
        # class 2 appears nowhere; macro-F1 over {0, 1} only
        assert metric_f1_macro(y_true, y_pred) == 1.0

    def test_relabeling_invariance(self):
        rng = RngStream(46, 0)
        y_true = draw_integers(rng, 0, 4, 200)
        y_pred = draw_integers(rng, 0, 4, 200)
        perm = np.array([2, 0, 3, 1])
        assert metric_accuracy(y_true, y_pred) == metric_accuracy(perm[y_true], perm[y_pred])
        assert abs(
            metric_f1_macro(y_true, y_pred) - metric_f1_macro(perm[y_true], perm[y_pred])
        ) < 1e-12

    def test_r2_can_go_negative(self):
        y = np.array([0.0, 1.0, 2.0])
        pred = np.array([10.0, 11.0, 12.0])
        assert metric_r2(y, pred) < 0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            metric_accuracy([], [])
        with pytest.raises(ValueError):
            metric_rmse([1.0], [1.0, 2.0])


class TestHeadPersistence:
    def test_round_trip(self, tmp_path):
        X, y = separable_toy()
        head = fit_logistic(X, y)
        save_head(head, tmp_path / "head.json")
        loaded = load_head(tmp_path / "head.json")
        np.testing.assert_array_equal(loaded.weights, head.weights)
        np.testing.assert_array_equal(loaded.bias, head.bias)
        assert loaded.kind == head.kind and loaded.classes == head.classes

    def test_corrupt_file(self, tmp_path):
        (tmp_path / "head.json").write_text("{not json")
        with pytest.raises(FormatError):
            load_head(tmp_path / "head.json")

    @pytest.mark.parametrize("head, message", [
        (Head("linear", np.array([0.5, np.nan]), np.array([0.25]), None), "non-finite"),
        (Head("linear", np.array([0.5, -1.0]), np.array([np.inf]), None), "non-finite"),
        (Head("logistic", np.full((2, 2), -np.inf), np.zeros(2), 2), "non-finite"),
        (Head("logistic", np.zeros((2, 2)), np.array([0.0, np.nan]), 2), "non-finite"),
    ])
    def test_non_finite_parameters_rejected(self, tmp_path, head, message):
        save_head(head, tmp_path / "head.json")
        with pytest.raises(FormatError, match=message):
            load_head(tmp_path / "head.json")

    @pytest.mark.parametrize("head", [
        Head("linear", np.array([0.5, -1.0]), np.array([0.25, 3.0]), None),
        Head("linear", np.array([0.5, -1.0]), np.zeros(0), None),
        Head("logistic", np.zeros((2, 2)), np.zeros(5), 2),
        Head("logistic", np.zeros((2, 2)), np.zeros((1, 2)), 2),
    ])
    def test_bias_shape_must_match_weights(self, tmp_path, head):
        save_head(head, tmp_path / "head.json")
        with pytest.raises(FormatError, match="bias has shape"):
            load_head(tmp_path / "head.json")

    @pytest.mark.parametrize("head", [
        Head("logistic", np.zeros((2, 2)), np.zeros(2), 3),
        Head("logistic", np.zeros((2, 2)), np.zeros(2), None),
        Head("linear", np.array([0.5, -1.0]), np.array([0.25]), 2),
    ])
    def test_classes_must_match_weights(self, tmp_path, head):
        save_head(head, tmp_path / "head.json")
        with pytest.raises(FormatError, match="classes"):
            load_head(tmp_path / "head.json")

    @pytest.mark.parametrize("head", [
        Head("linear", np.array([0.5, -1.0]), np.array([0.25]), None),
        Head("logistic", np.array([[0.5, -1.0], [2.0, 0.0]]), np.array([0.0, -0.5]), 2),
    ])
    def test_well_formed_heads_load(self, tmp_path, head):
        save_head(head, tmp_path / "head.json")
        loaded = load_head(tmp_path / "head.json")
        assert bits_equal(loaded.weights, head.weights) and bits_equal(loaded.bias, head.bias)
        assert loaded.classes == head.classes
