"""Two-parameter Weibull distribution: CDF and maximum likelihood.

The shape parameter is found by bisection on the profile likelihood score;
the scale then follows in closed form.  Samples must be strictly positive.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericError

_SHAPE_LO = 1e-3
_SHAPE_HI = 1e3


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


def _profile_score(k: float, z: np.ndarray, ln_z: np.ndarray, mean_ln: float) -> float:
    """Score g(k) of the profile log-likelihood.

    g is strictly increasing in k (its derivative is a weighted variance of
    ln z plus 1/k^2), so the root is unique.
    """
    zk = z**k
    return float((zk * ln_z).sum() / zk.sum() - 1.0 / k - mean_ln)


def weibull_mle(x) -> tuple[float, float]:
    """Fit (shape, scale) by maximum likelihood.

    Bisection on the shape: the bracket is halved until its midpoint equals
    one of its ends, so the shape is the float64 root of the score.  Values
    are rescaled by their geometric mean first so powers stay well
    conditioned.

    Raises ValueError for non-positive samples and NumericError when the
    sample is degenerate (all values equal, or so close that the shape
    passes 1e3).
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
    while _profile_score(hi, z, ln_z, mean_ln) < 0:
        if hi >= _SHAPE_HI:
            raise NumericError("shape parameter out of range (near-degenerate sample)")
        lo, hi = hi, 2.0 * hi
    while True:
        k = 0.5 * (lo + hi)
        if k in (lo, hi):
            break
        if _profile_score(k, z, ln_z, mean_ln) < 0:
            lo = k
        else:
            hi = k

    scale = float(np.mean(z**k) ** (1.0 / k)) * c
    if not (np.isfinite(k) and np.isfinite(scale)) or k <= 0 or scale <= 0:
        raise NumericError("Weibull MLE produced invalid parameters")
    return k, scale
