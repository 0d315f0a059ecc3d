"""Dense numeric primitives shared by every other module.

All public operations work on float64 arrays.  All but
:func:`softmax_rows`, which sits on the training hot path, validate their
inputs and guarantee finite outputs.  Randomness goes through
:class:`RngStream` so that every stochastic operation is a pure function of
``(seed, stream_id)``.

Logit matrices have few columns, and numpy reduces a short last axis
slowly.  So :func:`softmax_rows` takes each row's max as a loop of
elementwise maxima over the columns, which is exact at any width, and keeps
numpy's row sum, whose order a column loop would match only below 8
columns.  The result is bit-equal to the plain reductions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .exceptions import NumericError

Array = np.ndarray


class RngStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    Two streams constructed from the same pair produce bit-identical draw
    sequences on every run (same numpy version and floating-point settings).
    A stream is stateful and must not be shared across threads without
    external coordination.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def clone(self) -> "RngStream":
        """Copy of this stream, including its current position."""
        other = RngStream(self.seed, self.stream_id)
        other._gen.bit_generator.state = self._gen.bit_generator.state
        return other

    def normal(self, rows: int, cols: int) -> Array:
        """Standard-normal matrix of the given shape."""
        return self._gen.standard_normal((rows, cols))

    def uniform(self, rows: int, cols: int) -> Array:
        """Uniform [0, 1) matrix of the given shape."""
        return self._gen.random((rows, cols))

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size: int) -> Array:
        return self._gen.integers(low, high, size=size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _row_max(z: Array) -> Array:
    """``z.max(axis=1)`` of a matrix with at least one column, bit for bit,
    as one elementwise maximum per column."""
    m = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(m, z[:, j], out=m)
    return m


def softmax_rows(z: Array) -> Array:
    """Stable softmax of each row of a logit matrix.

    Max-subtraction keeps large logits from overflowing.  The input is not
    checked: callers check finiteness where the result is used.  The
    result is bit-equal to ``exp(z - max) / sum`` with numpy's own row
    reductions (see the module docstring).
    """
    e = z - _row_max(z)[:, None]
    np.exp(e, out=e)
    e /= e.sum(axis=1)[:, None]
    return e


def gaussian_noise(rows: int, cols: int, sigma: float, rng: RngStream) -> Array:
    """i.i.d. draws from N(0, sigma^2); sigma = 0 returns an exact zero matrix."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.zeros((rows, cols))
    return sigma * rng.normal(rows, cols)


def finite_diff_grad(f: Callable[[Array], float], theta, eps: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function.

    Evaluates ``(f(theta + eps*e_i) - f(theta - eps*e_i)) / (2*eps)`` per
    coordinate.  This is the independent oracle used to verify analytic
    gradients elsewhere in the package.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = np.asarray(theta, dtype=np.float64).copy()
    if t.ndim != 1:
        raise ValueError("theta must be a 1-D parameter vector")
    grad = np.zeros_like(t)
    for i in range(t.size):
        orig = t[i]
        t[i] = orig + eps
        hi = float(f(t))
        t[i] = orig - eps
        lo = float(f(t))
        t[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite function value at coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def check_finite(a: Array, where: str) -> Array:
    """Raise :class:`NumericError` naming ``where`` if any entry is non-finite."""
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite values in {where}")
    return a
