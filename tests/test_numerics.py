import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tabcl.exceptions import NumericError
from tabcl.numerics import (
    RngStream,
    finite_diff_grad,
    gaussian_noise,
    softmax_classes,
)

finite_floats = st.floats(min_value=-20, max_value=20, allow_nan=False)


def softmax(v) -> np.ndarray:
    """softmax_classes on a single column."""
    return softmax_classes(np.array(v, dtype=np.float64).reshape(-1, 1))[:, 0]


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


def plain_softmax_classes(z):
    """Reference: the class-major softmax on fresh arrays, with numpy's own
    reductions over the classes."""
    z = np.ascontiguousarray(z)
    z = z - z.max(axis=0)
    e = np.exp(z)
    return e / e.sum(axis=0)


def plain_softmax_rows(z):
    """The row-major softmax as first written, on a C-contiguous copy, as
    the row-major fits ran it: numpy sums a contiguous row pairwise, in
    another order than the class-major sum, so it agrees to rounding."""
    z = np.ascontiguousarray(z)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# A subnormal probability is rounded to a fixed absolute step, so the
# cross-checks against the row-major formula allow an error below the
# smallest normal float.
SUBNORMAL = 1e-300


class TestSoftmaxRowsBits:
    """softmax_classes works in place on a class-major (C, n) matrix; it
    must hold exactly the bits of the plain class-major formula, and agree
    to rounding with the row-major softmax of the (n, C) transpose, so that
    a reduction over the wrong axis fails.  Widths 7, 8, 9, 128, 129 and 300
    straddle the widths from which numpy sums a contiguous row in another
    order."""

    @settings(max_examples=150, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 16), st.integers(1, 40)),
                  elements=st.floats(min_value=-1e3, max_value=1e3)))
    def test_matches_plain_reductions(self, z):
        expected = plain_softmax_classes(z)
        p = z.copy()
        assert softmax_classes(p) is p
        assert p.tobytes() == expected.tobytes()
        np.testing.assert_allclose(p, plain_softmax_rows(z.T).T, rtol=1e-14, atol=SUBNORMAL)

    @pytest.mark.parametrize("cols", [1, 2, 3, 4, 6, 7, 8, 9, 12, 16, 128, 129, 300])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 1e3])
    def test_matches_plain_reductions_on_tall_matrices(self, cols, scale):
        n = 4000 if cols <= 16 else 203
        z = scale * RngStream(cols, 0).normal(cols, n)
        expected = plain_softmax_classes(z)
        row_major = plain_softmax_rows(z.T).T
        assert softmax_classes(z).tobytes() == expected.tobytes()
        np.testing.assert_allclose(z, row_major, rtol=1e-14, atol=SUBNORMAL)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 40)),
                  elements=st.floats(min_value=-1e3, max_value=1e3)))
    @example(np.vstack([[37.0, 0.0], np.zeros((15, 2))]))
    def test_log_matches_plain_formula(self, z):
        zc = z - z.max(axis=0)
        expected = zc - np.log(np.exp(zc).sum(axis=0))
        zt = np.ascontiguousarray(z.T)
        zt = zt - zt.max(axis=1, keepdims=True)
        row_major = (zt - np.log(np.exp(zt).sum(axis=1, keepdims=True))).T
        got = softmax_classes(z.copy(), log=True)
        assert got.tobytes() == expected.tobytes()
        # A log-probability near 0 carries the sum's rounding as an
        # absolute error, and a sum of C terms may round by about C * eps:
        # at the column [37, 0 x 15] the class-major sum gives 0.0 and the
        # row-major one -1.33e-15, where the exact value is -1.28e-15.
        np.testing.assert_allclose(got, row_major, rtol=1e-14,
                                   atol=z.shape[0] * np.finfo(float).eps)


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

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf"), True])
    def test_non_finite_sigma_rejected(self, sigma):
        # NaN would fill the matrix with NaN, and inf with +-inf
        with pytest.raises(ValueError, match="finite"):
            gaussian_noise(2, 3, sigma, RngStream(0, 0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_draws_in_the_asked_dtype(self, dtype):
        out = gaussian_noise(5, 4, 0.3, RngStream(9, 2), dtype)
        expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            9, spawn_key=(2,)))).standard_normal((5, 4), dtype=dtype)
        expected *= 0.3
        assert out.dtype == dtype and out.tobytes() == expected.tobytes()
        zero = gaussian_noise(5, 4, 0.0, RngStream(9, 2), dtype)
        assert zero.dtype == dtype and np.all(zero == 0.0)


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


class TestRngStream:
    def test_same_key_means_same_draws(self):
        a, b = RngStream(100, 3), RngStream(100, 3)
        assert np.array_equal(a.normal(4, 4), b.normal(4, 4))
        assert np.array_equal(a.permutation(10), b.permutation(10))

    def test_float32_draws_continue_one_stream(self):
        # one draw of 2n rows holds the bits of two successive n-row draws
        a, b = RngStream(101, 1), RngStream(101, 1)
        for draw in ("normal", "uniform"):
            whole = getattr(a, draw)(6, 5, np.float32)
            halves = np.vstack([getattr(b, draw)(3, 5, np.float32) for _ in range(2)])
            assert whole.dtype == np.float32 and whole.tobytes() == halves.tobytes()
        assert np.array_equal(a.uniform(1, 3), b.uniform(1, 3))

    def test_different_stream_ids_differ(self):
        a, b = RngStream(100, 0), RngStream(100, 1)
        assert not np.array_equal(a.normal(4, 4), b.normal(4, 4))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
