"""Dense numeric primitives shared by every other module.

Public operations work on float64 arrays, except the random draws, which
also come in float32 for the contrastive training step.  All but
:func:`softmax_classes`, which sits on the training hot path, validate
their inputs and guarantee finite outputs.  Randomness goes through
:class:`RngStream` so that every stochastic operation is a pure function of
``(seed, stream_id)``.

:func:`softmax_classes` is the one softmax.  It works in place on a
class-major (C, n) matrix, so every step walks rows of length n.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

import numpy as np

from .exceptions import NumericError

Array = np.ndarray

# The stream id of each stochastic step; every RngStream in the package names its id here.
STREAMS = {"init": 0, "views": 1, "calibration": 11, "id-split": 22}


class RngStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    Two streams constructed from the same pair produce bit-identical draw
    sequences on every run (same numpy version and floating-point settings).
    A stream is stateful and must not be shared across threads without
    external coordination.  Both keys are non-negative integers (numpy
    integers too, not bools); any other key raises ValueError.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not (is_integer(seed) and is_integer(stream_id) and seed >= 0 and stream_id >= 0):
            raise ValueError(
                f"seed and stream_id must be non-negative integers, got {seed!r} and {stream_id!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def normal(self, rows: int, cols: int, dtype=np.float64) -> Array:
        """Standard-normal matrix of the given shape, float64 or float32."""
        return self._gen.standard_normal((rows, cols), dtype=dtype)

    def uniform(self, rows: int, cols: int, dtype=np.float64, out: Array | None = None) -> Array:
        """Uniform [0, 1) matrix of the given shape, float64 or float32,
        written into ``out`` if given."""
        return self._gen.random((rows, cols), dtype=dtype, out=out)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _class_index(y: Array, n_classes: int, n: int) -> Array:
    """Flat position of each row's label in a class-major (C, n) matrix.
    A label outside ``[0, C)`` would read a neighbouring row: ValueError."""
    y = np.asarray(y)
    if y.shape != (n,) or n == 0:
        raise ValueError("labels must be one per row, with at least one row")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return y * n + np.arange(n)


def softmax_classes(p: Array, log: bool = False) -> Array:
    """Stable softmax (with ``log``, log-softmax) over the classes of a
    class-major (C, n) logit matrix, in place; returns ``p``.  Unchecked
    input; column i is row i of the (n, C) transpose's softmax."""
    p -= p.max(axis=0)
    if log:
        p -= np.log(np.exp(p).sum(axis=0))
    else:
        np.exp(p, out=p)
        p /= p.sum(axis=0)
    return p


# The largest uniform draw in each dtype: numpy draws k * 2**-24 (float32)
# and k * 2**-53 (float64) for an integer k, so 1 - u is never 0.
_LARGEST_UNIFORM = {np.dtype(np.float32): 1.0 - 2.0**-24, np.dtype(np.float64): 1.0 - 2.0**-53}


def _radii(u: Array, sigma: float) -> Array:
    """The Box-Muller radii ``sigma * sqrt(-2 ln(1 - u))``, in place."""
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    u *= -2.0
    np.sqrt(u, out=u)
    u *= sigma
    return u


@functools.lru_cache(maxsize=64)  # every draw checks its sigma
def largest_noise(sigma: float, dtype=np.float64) -> float:
    """The largest magnitude :func:`gaussian_noise` can return at ``sigma``
    in ``dtype``, computed as the sampler computes it; inf if it overflows
    the dtype.  About 5.77 sigma in float32 and 8.57 sigma in float64."""
    u = np.array([_LARGEST_UNIFORM[np.dtype(dtype)]], dtype=dtype)
    with np.errstate(over="ignore"):
        return float(_radii(u, sigma)[0])


def gaussian_noise(rows: int, cols: int, sigma: float, rng: RngStream,
                   dtype=np.float64, out: Array | None = None) -> Array:
    """i.i.d. draws from N(0, sigma^2) in ``dtype`` (float64 or float32),
    written into ``out`` if given.

    Box-Muller transform (Box & Muller, 1958), computed in ``dtype``: one
    uniform draw of ``2 * ceil(m / 2)`` values for ``m = rows * cols``.
    The first half gives the radii ``sigma * sqrt(-2 ln(1 - u))`` and the
    second the angles ``2 pi u``.  The output, read in C order, holds the
    radii times the cosines, then the radii times the sines; an odd ``m``
    drops the last sine.  Each value is at most :func:`largest_noise` in
    magnitude.  A sigma whose largest draw overflows the dtype is a
    ValueError.  sigma = 0 returns exact zeros and draws nothing.
    """
    if not is_finite_number(sigma) or sigma < 0:
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma!r}")
    if out is None:
        out = np.empty((rows, cols), dtype)
    elif out.shape != (rows, cols) or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {rows} x {cols} {np.dtype(dtype).name} array")
    if sigma == 0:
        out.fill(0.0)
        return out
    if not math.isfinite(largest_noise(sigma, dtype)):
        raise ValueError(f"sigma {sigma!r} overflows {np.dtype(dtype).name} noise")
    m = rows * cols
    half = (m + 1) // 2
    radius, angle = rng.uniform(2, half, dtype)
    _radii(radius, sigma)
    angle *= 2.0 * math.pi
    flat = out.reshape(m)
    np.multiply(radius, np.cos(angle, out=flat[:half]), out=flat[:half])
    np.multiply(radius[: m - half], np.sin(angle[: m - half], out=flat[half:]), out=flat[half:])
    return out


_FLOAT_MAX = np.float64(sys.float_info.max)


def is_finite_number(value) -> bool:
    """A real number, not a bool, within the float range (so not NaN).

    An integer is compared exactly with the largest float.  Any other value
    is compared with it as a numpy float64, so a float16 or float32 scalar
    is widened to float64 instead of the bound being cast down to its type,
    which overflows with a warning."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    bound = sys.float_info.max if isinstance(value, numbers.Integral) else _FLOAT_MAX
    return bool(abs(value) <= bound)


def is_integer(value) -> bool:
    """An integral number (a numpy integer too), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def plain_number(value):
    """A checked number as a Python ``int`` if integral, else ``float`` (None
    stays None), so that settings holding numpy scalars can be written as JSON."""
    return value if value is None else int(value) if is_integer(value) else float(value)


def check_finite(a: Array, where: str, mask: Array | None = None) -> Array:
    """Raise :class:`NumericError` naming ``where`` if any entry is non-finite.
    ``mask``, a 1-D bool array of at least ``a.size`` entries, takes the
    test's result instead of a fresh array."""
    if not np.isfinite(a, out=None if mask is None else mask[: a.size].reshape(a.shape)).all():
        raise NumericError(f"non-finite values in {where}")
    return a
