"""Two-parameter Weibull distribution: CDF, sampling, and maximum likelihood.

The shape parameter is found by safeguarded Newton iteration on the profile
likelihood score; the scale then follows in closed form.  Samples must be
strictly positive.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericError
from .numerics import RngStream

_SHAPE_LO = 1e-3
_SHAPE_HI = 1e3
_MLE_TOL = 1e-8  # Newton stops once a shape step is below this
_MLE_MAX_ITER = 200


def weibull_cdf(x, shape, scale):
    """CDF ``1 - exp(-(x/scale)^shape)``; zero for x <= 0.

    ``shape`` and ``scale`` are scalars or arrays that broadcast against
    ``x``, such as one pair per row.  A power that overflows gives exactly
    1.0, without a warning.
    """
    x, shape, scale = np.broadcast_arrays(*(np.asarray(v, np.float64) for v in (x, shape, scale)))
    if np.any(shape <= 0) or np.any(scale <= 0):
        raise ValueError("shape and scale must be positive")
    with np.errstate(over="ignore"):
        power = (np.maximum(x, 0.0) / scale) ** shape
    out = np.where(x > 0, -np.expm1(-power), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def weibull_sample(n: int, shape: float, scale: float, rng: RngStream) -> np.ndarray:
    """Inverse-CDF sampling: ``scale * (-log(1-u))**(1/shape)``."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    u = rng.uniform(1, n)[0]
    return scale * (-np.log1p(-u)) ** (1.0 / shape)


def _profile_score(k: float, z: np.ndarray, ln_z: np.ndarray, mean_ln: float):
    """Score g(k) of the profile log-likelihood and its derivative.

    g is strictly increasing in k, so the root is unique.
    """
    zk = z**k
    szk = zk.sum()
    szk_ln = (zk * ln_z).sum()
    szk_ln2 = (zk * ln_z * ln_z).sum()
    g = szk_ln / szk - 1.0 / k - mean_ln
    gp = (szk_ln2 * szk - szk_ln * szk_ln) / (szk * szk) + 1.0 / (k * k)
    return g, gp


def weibull_mle(x) -> tuple[float, float]:
    """Fit (shape, scale) by maximum likelihood.

    Newton iteration on the shape with a bisection fallback whenever a step
    misbehaves (leaves the bracket or goes non-finite).  Values are rescaled
    by their geometric mean first so powers stay well conditioned.

    Raises ValueError for non-positive samples and NumericError when the
    sample is degenerate (all values equal) or the iteration fails.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 samples to fit a Weibull")
    if not np.isfinite(x).all() or np.any(x <= 0):
        raise ValueError("all samples must be positive and finite")
    if np.all(x == x[0]):
        raise NumericError("degenerate sample: all values equal")

    ln_x = np.log(x)
    c = float(np.exp(ln_x.mean()))  # geometric mean
    z = x / c
    ln_z = ln_x - np.log(c)
    mean_ln = float(ln_z.mean())

    # Bracket the unique root: g(k->0+) = -inf, g(k->inf) > 0.
    lo, hi = _SHAPE_LO, 1.0
    g_hi, _ = _profile_score(hi, z, ln_z, mean_ln)
    while g_hi < 0 and hi < _SHAPE_HI:
        hi *= 2.0
        g_hi, _ = _profile_score(hi, z, ln_z, mean_ln)
    if g_hi < 0:
        raise NumericError("shape parameter out of range (near-degenerate sample)")

    k = min(max(1.0, lo), hi)
    for _ in range(_MLE_MAX_ITER):
        g, gp = _profile_score(k, z, ln_z, mean_ln)
        if np.isfinite(g):
            if g < 0:
                lo = max(lo, k)
            else:
                hi = min(hi, k)
        step_ok = np.isfinite(g) and np.isfinite(gp) and gp > 0
        if step_ok:
            k_new = k - g / gp
            if not (lo < k_new < hi) or not np.isfinite(k_new):
                k_new = 0.5 * (lo + hi)
        else:
            k_new = 0.5 * (lo + hi)
        if abs(k_new - k) < _MLE_TOL:
            k = k_new
            break
        k = k_new
    else:
        if hi - lo > 1e-6:
            raise NumericError("Weibull MLE did not converge")

    scale = float(np.mean(z**k) ** (1.0 / k)) * c
    if not (np.isfinite(k) and np.isfinite(scale)) or k <= 0 or scale <= 0:
        raise NumericError("Weibull MLE produced invalid parameters")
    return float(k), scale
