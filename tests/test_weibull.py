import math
import warnings

import numpy as np
import pytest

from tabcl.exceptions import NumericError
from tabcl.numerics import RngStream
from tabcl.weibull import weibull_cdf, weibull_mle

from oracles import weibull_sample


class TestCdf:
    def test_matches_direct_formula(self):
        rng = RngStream(20, 0)
        x = np.abs(rng.normal(1, 50)[0]) * 3
        for shape, scale in [(0.7, 2.0), (1.0, 1.0), (3.5, 0.4)]:
            direct = 1.0 - np.exp(-((x / scale) ** shape))
            np.testing.assert_allclose(weibull_cdf(x, shape, scale), direct, atol=1e-12)

    def test_at_scale_is_one_minus_inv_e(self):
        assert abs(weibull_cdf(1.0, 2.0, 1.0) - (1 - math.exp(-1))) < 1e-12
        assert abs(weibull_cdf(3.0, 0.8, 3.0) - (1 - math.exp(-1))) < 1e-12

    def test_limits_and_monotonicity(self):
        assert weibull_cdf(0.0, 2.0, 1.0) == 0.0
        assert weibull_cdf(-1.0, 2.0, 1.0) == 0.0
        assert weibull_cdf(1e6, 2.0, 1.0) == pytest.approx(1.0)
        xs = np.linspace(0, 10, 200)
        cdf = weibull_cdf(xs, 1.7, 2.2)
        assert np.all(np.diff(cdf) >= 0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            weibull_cdf(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            weibull_cdf(1.0, 1.0, -2.0)
        with pytest.raises(ValueError, match="must be positive"):
            weibull_cdf(np.ones(3), np.array([1.0, 0.0, 2.0]), 1.0)

    @pytest.mark.parametrize("shape, scale", [
        (math.nan, 1.0), (1.0, math.nan), (np.array([1.0, math.nan]), 1.0),
        (1.0, np.array([2.0, math.nan])),
    ], ids=["nan-shape", "nan-scale", "nan-shape-entry", "nan-scale-entry"])
    def test_nan_parameters_rejected(self, shape, scale):
        with pytest.raises(ValueError, match="must be positive"):
            weibull_cdf(np.ones(2), shape, scale)

    def test_scalar_keeps_numpy_scalar_power_bits(self):
        # A scalar call keeps the bits of the plain formula with numpy's
        # array power, and agrees to rounding with libm pow, which numpy's
        # scalar power and the formula as first written use.
        rng = RngStream(21, 0)
        xs, shapes, scales = np.exp(3.0 * rng.normal(3, 500))
        with np.errstate(over="ignore"):
            expected = -np.expm1(-((np.maximum(xs, 0.0) / scales) ** shapes))
            libm = [-np.expm1(-((x / s) ** k)) for x, k, s in zip(xs, shapes, scales)]
        for x, shape, scale, e, l in zip(xs.tolist(), shapes.tolist(), scales.tolist(), expected,
                                         libm):
            got = weibull_cdf(x, shape, scale)
            assert got.hex() == e.hex()
            assert got == pytest.approx(l, rel=1e-14, abs=0)

    def test_per_element_parameters_match_scalar_calls_bit_for_bit(self):
        # More than a thousand elements, so that the SIMD loop of numpy's
        # array power runs on full vectors as well as on a remainder.
        rng = RngStream(22, 0)
        x = 4.0 * rng.normal(1, 3000)[0]
        shape = 0.2 + 8.0 * rng.uniform(1, 3000)[0]
        scale = np.exp(rng.normal(1, 3000)[0])
        got = weibull_cdf(x, shape, scale)
        assert got.shape == (3000,)
        expected = [weibull_cdf(a, k, s) for a, k, s in zip(x.tolist(), shape.tolist(), scale.tolist())]
        assert got.tobytes() == np.array(expected).tobytes()
        grid = weibull_cdf(np.abs(x).reshape(30, 100), shape[:100], 2.0)
        assert grid.shape == (30, 100)
        assert grid[7].tobytes() == weibull_cdf(np.abs(x[700:800]), shape[:100], 2.0).tobytes()

    def test_overflowing_power_is_exactly_one_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weibull_cdf(1e300, 2.0, 1.0) == 1.0
            assert weibull_cdf(np.array([1e300, 1.0, -1.0]), 2.0, 1.0).tolist() == [
                1.0, -math.expm1(-1.0), 0.0]


class TestSampling:
    def test_median_matches_analytic(self):
        # median of Weibull(k, lam) is lam * ln(2)^(1/k)
        for k, lam in [(2.0, 1.0), (0.8, 3.0)]:
            x = weibull_sample(20000, k, lam, RngStream(21, 0))
            expected = lam * math.log(2) ** (1 / k)
            assert abs(np.median(x) - expected) / expected < 0.05

    def test_positive(self):
        x = weibull_sample(1000, 0.5, 2.0, RngStream(22, 0))
        assert np.all(x > 0)


class TestMle:
    def test_recovers_known_parameters(self):
        # the same oracle the acceptance suite uses: sample with known
        # parameters, fit, demand <10% relative error
        for k, lam in [(2.0, 1.0), (0.8, 3.0)]:
            x = weibull_sample(1000, k, lam, RngStream(42, 1))
            k_hat, lam_hat = weibull_mle(x)
            assert abs(k_hat - k) / k < 0.10
            assert abs(lam_hat - lam) / lam < 0.10

    def test_scale_equivariance(self):
        x = weibull_sample(500, 1.5, 1.0, RngStream(23, 0))
        k1, lam1 = weibull_mle(x)
        k2, lam2 = weibull_mle(x * 100.0)
        assert abs(k1 - k2) < 1e-6
        assert abs(lam2 - 100 * lam1) / (100 * lam1) < 1e-6

    def test_extreme_shapes(self):
        for k in (0.4, 8.0):
            x = weibull_sample(2000, k, 2.0, RngStream(24, 0))
            k_hat, lam_hat = weibull_mle(x)
            assert abs(k_hat - k) / k < 0.10
            assert abs(lam_hat - 2.0) / 2.0 < 0.10

    def test_degenerate_sample_rejected(self):
        with pytest.raises(NumericError):
            weibull_mle(np.full(50, 3.0))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            weibull_mle(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            weibull_mle(np.array([1.0, -1.0, 2.0]))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            weibull_mle(np.array([1.0]))

    def test_near_degenerate_sample_rejected(self):
        # distinct values so close together that the shape passes 1e3
        with pytest.raises(NumericError, match="shape parameter out of range"):
            weibull_mle(1.0 + 1e-9 * np.arange(20))

    def test_shape_is_the_root_of_the_score_to_rounding(self):
        # The profile score changes sign within 1e-12 (relative) of every
        # fitted shape: the bisection runs to adjacent floats.  A fit that
        # stops on a step tolerance misses this on some tails.
        def score(k, x):
            ln_z = np.log(x) - np.log(x).mean()
            w = np.exp(k * ln_z)
            return w @ ln_z / w.sum() - 1.0 / k - ln_z.mean()

        shapes = 0.3 + 9.7 * RngStream(25, 0).uniform(1, 200)[0]
        missed = []
        for i, k in enumerate(shapes):
            x = weibull_sample((20, 30, 50)[i % 3], k, 1.0 + i % 5, RngStream(26, i))
            k_hat, _ = weibull_mle(x)
            if not score(k_hat * (1 - 1e-12), x) < 0 < score(k_hat * (1 + 1e-12), x):
                missed.append((i, k_hat))
        assert missed == []
