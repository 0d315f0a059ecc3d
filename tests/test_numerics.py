import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabcl.exceptions import NumericError
from tabcl.numerics import (
    RngStream,
    add_bias,
    elementwise_apply,
    finite_diff_grad,
    gaussian_noise,
    matmul,
    mse,
    softmax,
)

finite_floats = st.floats(min_value=-20, max_value=20, allow_nan=False)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_analytic_point(self):
        np.testing.assert_allclose(softmax([math.log(2), 0.0]), [2 / 3, 1 / 3], atol=1e-12)

    def test_matches_direct_formula(self):
        # oracle: naive unstabilized evaluation, valid for small magnitudes
        v = RngStream(5, 0).normal(1, 5)[0]
        naive = np.exp(v) / np.exp(v).sum()
        np.testing.assert_allclose(softmax(v), naive, atol=1e-12)

    def test_output_is_distribution(self):
        rng = RngStream(6, 0)
        for _ in range(100):
            p = softmax(rng.normal(1, 7)[0] * 10)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(finite_floats, min_size=1, max_size=8),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_shift_invariance(self, v, c):
        np.testing.assert_allclose(softmax(np.array(v) + c), softmax(v), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            softmax([1.0, np.nan])
        with pytest.raises(NumericError):
            softmax([1.0, np.inf])


class TestMse:
    def test_identity_is_zero(self):
        a = RngStream(1, 0).normal(3, 4)
        assert mse(a, a) == 0.0

    def test_analytic(self):
        assert mse(np.ones((1, 2)), np.zeros((1, 2))) == 1.0

    def test_matches_loop_oracle(self):
        rng = RngStream(2, 0)
        a, b = rng.normal(3, 4), rng.normal(3, 4)
        total = 0.0
        for i in range(3):
            for j in range(4):
                total += (a[i, j] - b[i, j]) ** 2
        assert abs(mse(a, b) - total / 12) < 1e-12

    def test_symmetry(self):
        rng = RngStream(3, 0)
        a, b = rng.normal(2, 5), rng.normal(2, 5)
        assert mse(a, b) == mse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestGaussianNoise:
    def test_zero_sigma_is_exact_zero(self):
        out = gaussian_noise(4, 7, 0.0, RngStream(0, 0))
        assert np.all(out == 0.0)

    def test_law_of_large_numbers(self):
        out = gaussian_noise(100, 100, 1.0, RngStream(8, 0))
        assert abs(out.mean()) < 0.05
        assert abs(out.std() - 1.0) < 0.05

    def test_same_stream_is_bit_identical(self):
        a = gaussian_noise(5, 5, 0.3, RngStream(9, 2))
        b = gaussian_noise(5, 5, 0.3, RngStream(9, 2))
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_noise(2, 2, -0.1, RngStream(0, 0))


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t @ t), np.array([1.0, 2.0]), eps=1e-5)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 3.5, np.array([1.0, -2.0, 0.5]))
        assert np.all(grad == 0.0)

    def test_degree_two_polynomial_is_exact_to_eps_squared(self):
        # central differences are exact on quadratics up to roundoff
        A = RngStream(10, 0).normal(4, 4)
        A = A + A.T
        b = RngStream(10, 1).normal(1, 4)[0]
        theta = RngStream(10, 2).normal(1, 4)[0]
        f = lambda t: float(0.5 * t @ A @ t + b @ t)
        np.testing.assert_allclose(finite_diff_grad(f, theta, 1e-5), A @ theta + b, atol=1e-8)

    def test_non_finite_function_rejected(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda t: float("nan"), np.array([1.0]))


class TestMatrixOps:
    def test_identity(self):
        a = RngStream(11, 0).normal(3, 3)
        np.testing.assert_array_equal(matmul(np.eye(3), a), a)

    def test_scalar(self):
        assert matmul(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0

    def test_matches_triple_loop_oracle(self):
        rng = RngStream(12, 0)
        a, b = rng.normal(3, 4), rng.normal(4, 2)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                acc = 0.0
                for k in range(4):
                    acc += a[i, k] * b[k, j]
                expected[i, j] = acc
        np.testing.assert_allclose(matmul(a, b), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_add_bias(self):
        out = add_bias(np.zeros((2, 3)), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out, [[1, 2, 3], [1, 2, 3]])
        with pytest.raises(ValueError):
            add_bias(np.zeros((2, 3)), np.array([1.0, 2.0]))

    def test_elementwise_apply(self):
        out = elementwise_apply(np.array([[-1.0, 4.0]]), np.abs)
        np.testing.assert_array_equal(out, [[1.0, 4.0]])
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            elementwise_apply(np.array([[0.0]]), lambda m: np.log(m))


class TestRngStream:
    def test_same_key_means_same_draws(self):
        a, b = RngStream(100, 3), RngStream(100, 3)
        assert np.array_equal(a.normal(4, 4), b.normal(4, 4))
        assert np.array_equal(a.permutation(10), b.permutation(10))

    def test_different_stream_ids_differ(self):
        a, b = RngStream(100, 0), RngStream(100, 1)
        assert not np.array_equal(a.normal(4, 4), b.normal(4, 4))

    def test_clone_preserves_position(self):
        a = RngStream(7, 0)
        a.normal(2, 2)
        b = a.clone()
        assert np.array_equal(a.normal(3, 3), b.normal(3, 3))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
