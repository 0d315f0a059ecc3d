import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tabcl.exceptions import NumericError
from tabcl.numerics import (
    RngStream,
    gaussian_noise,
    is_finite_number,
    largest_noise,
    softmax_classes,
)

from oracles import finite_diff_grad

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
        # the Box-Muller formula in the asked dtype on the same stream's
        # uniforms: radii times cosines, then radii times sines
        out = gaussian_noise(5, 4, 0.3, RngStream(9, 2), dtype)
        u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            9, spawn_key=(2,)))).random((2, 10), dtype=dtype)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[0])) * 0.3
        angle = 2.0 * math.pi * u[1]
        expected = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        assert out.dtype == dtype and out.tobytes() == expected.tobytes()
        zero = gaussian_noise(5, 4, 0.0, RngStream(9, 2), dtype)
        assert zero.dtype == dtype and np.all(zero == 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_distribution(self, dtype):
        m = 2**20
        z = gaussian_noise(1, m, 1.0, RngStream(12, 0), dtype)[0].astype(np.float64)
        # moments, each within five standard errors of N(0, 1)'s
        c = z - z.mean()
        var = np.mean(c * c)
        assert abs(z.mean()) < 5 / math.sqrt(m)
        assert abs(var - 1.0) < 5 * math.sqrt(2 / m)
        assert abs(np.mean(c**4) / var**2 - 3.0) < 5 * math.sqrt(24 / m)
        # Kolmogorov-Smirnov distance to the normal CDF; 1.95 / sqrt(m) is
        # the 0.1% critical value
        z.sort()
        cdf = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2.0)).astype(np.float64))
        ranks = np.arange(m + 1) / m
        ks = max(np.max(ranks[1:] - cdf), np.max(cdf - ranks[:-1]))
        assert ks < 1.95 / math.sqrt(m)
        assert np.max(np.abs(z)) <= largest_noise(1.0, dtype)
        # each cosine and its paired sine, and their squares, are uncorrelated
        pairs = gaussian_noise(2, m // 2, 1.0, RngStream(13, 0), dtype).astype(np.float64)
        for a, b in (pairs, pairs**2):
            assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(m // 2)

    def test_float32_tail_bound(self):
        # the largest float32 uniform is 1 - 2**-24, so no draw exceeds
        # sigma * sqrt(-2 ln 2**-24), about 5.77 sigma
        bound = largest_noise(1.0, np.float32)
        assert bound == pytest.approx(math.sqrt(48 * math.log(2)), rel=1e-6)
        assert largest_noise(2.5, np.float32) == pytest.approx(2.5 * bound, rel=1e-6)
        assert largest_noise(1e39, np.float32) == math.inf
        assert math.isfinite(largest_noise(1e39, np.float64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigma_beyond_the_dtype_rejected(self, dtype):
        sigma = np.finfo(dtype).max / 4
        with pytest.raises(ValueError, match="overflows"):
            gaussian_noise(2, 3, float(sigma), RngStream(0, 0), dtype)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 5), (7, 9)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_odd_count_drops_the_last_sine(self, rows, cols, dtype):
        # an odd count draws one pair more than it needs; the stream then
        # stands where a draw of rows * cols + 1 values leaves it
        m = rows * cols
        out = gaussian_noise(rows, cols, 0.5, RngStream(14, 3), dtype)
        rng = RngStream(14, 3)
        whole = gaussian_noise(1, m + 1, 0.5, rng, dtype)[0]
        half = (m + 1) // 2
        assert out.shape == (rows, cols) and out.dtype == dtype
        assert out.tobytes() == np.concatenate([whole[:half], whole[half : m]]).tobytes()
        fresh, after = RngStream(14, 3), RngStream(14, 3)
        gaussian_noise(rows, cols, 0.5, after, dtype)
        fresh.uniform(2, half, dtype)
        assert same_stream_state(after, fresh)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_writes_into_out(self, dtype):
        out = np.empty((4, 6), dtype)
        assert gaussian_noise(4, 6, 0.2, RngStream(15, 0), dtype, out=out) is out
        assert out.tobytes() == gaussian_noise(4, 6, 0.2, RngStream(15, 0), dtype).tobytes()
        for bad in (np.empty((6, 4), dtype), np.empty((4, 12), dtype)[:, ::2],
                    np.empty((4, 6), np.float16)):
            with pytest.raises(ValueError, match="out must be"):
                gaussian_noise(4, 6, 0.2, RngStream(15, 0), dtype, out=bad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_sigma_leaves_the_stream_untouched(self, dtype):
        rng = RngStream(16, 2)
        out = np.full((3, 4), 7.0, dtype)
        gaussian_noise(3, 4, 0.0, rng, dtype, out=out)
        assert np.all(out == 0.0) and not np.signbit(out).any()
        after = gaussian_noise(3, 4, 0.4, rng, dtype)
        assert after.tobytes() == gaussian_noise(3, 4, 0.4, RngStream(16, 2), dtype).tobytes()


def same_stream_state(a: RngStream, b: RngStream) -> bool:
    """The next draws of both streams agree."""
    return a.uniform(1, 4).tobytes() == b.uniform(1, 4).tobytes()


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
    @pytest.mark.parametrize("seed, stream_id", [
        (1.5, 0.7), (1.0, 0), (3, 1.0), (True, 0), (3, False), (np.float64(3), 1), (3, None),
    ], ids=repr)
    def test_key_that_is_not_an_integer_is_rejected(self, seed, stream_id):
        with pytest.raises(ValueError, match="seed and stream_id must be non-negative integers"):
            RngStream(seed, stream_id)

    def test_numpy_integer_keys_draw_as_python_ints(self):
        stream = RngStream(np.int64(3), np.int32(1))
        assert (stream.seed, stream.stream_id) == (3, 1)
        assert type(stream.seed) is int and type(stream.stream_id) is int
        assert stream.normal(4, 3).tobytes() == RngStream(3, 1).normal(4, 3).tobytes()

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


class TestIsFiniteNumber:
    # pytest turns warnings into errors, so a cast that overflows on the way
    # fails these tests even where the answer is right
    @pytest.mark.parametrize("value", [
        np.float16(2.0), np.float32(2.0), np.float32(-3.4e38), np.float64(1e308),
        np.int64(-5), np.uint64(2**64 - 1), 0, 2.5, -sys.float_info.max,
        int(sys.float_info.max), Fraction(1, 3),
    ])
    def test_finite_numbers(self, value):
        assert is_finite_number(value) is True

    @pytest.mark.parametrize("value", [
        True, False, np.bool_(True), None, "1.0", [1.0], complex(1.0),
        np.float16(np.inf), np.float32(np.nan), np.float64(-np.inf), float("nan"),
        # integers beyond the float range, the first just past the largest float
        int(sys.float_info.max) + 1, -(10**400), Fraction(10**400, 3),
    ])
    def test_everything_else(self, value):
        assert is_finite_number(value) is False

    def test_tolerance_as_a_numpy_scalar(self):
        from tabcl.contrastive import TclConfig

        for tolerance in (np.float16(2.0), np.float32(2.0)):
            stored = TclConfig(input_dim=2, tolerance=tolerance).tolerance
            assert type(stored) is float and stored == 2.0
