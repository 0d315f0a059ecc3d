"""Dense numeric primitives shared by every other module.

All public operations work on float64 arrays, validate their inputs, and
guarantee finite outputs.  Randomness goes through :class:`RngStream` so
that every stochastic operation is a pure function of ``(seed, stream_id)``.
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


def _as_matrix(a, name: str = "matrix") -> Array:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def softmax(logits) -> Array:
    """Stable softmax of a logit vector.

    Uses max-subtraction so large logits cannot overflow; the result is
    non-negative and sums to 1 within 1e-12.
    """
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("softmax expects a non-empty 1-D vector")
    if not np.isfinite(v).all():
        raise NumericError("softmax input contains non-finite entries")
    z = np.exp(v - v.max())
    return z / z.sum()


def mse(a, b) -> float:
    """Mean squared difference over all entries of two equal-shape arrays."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    d = x - y
    return float(np.mean(d * d))


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


def matmul(a, b) -> Array:
    """Matrix product with explicit dimension checking."""
    x = _as_matrix(a, "a")
    y = _as_matrix(b, "b")
    if x.shape[1] != y.shape[0]:
        raise ValueError(f"inner dimensions disagree: {x.shape} x {y.shape}")
    return x @ y


def add_bias(m, bias) -> Array:
    """Add a bias row-vector to every row of a matrix."""
    x = _as_matrix(m)
    b = np.asarray(bias, dtype=np.float64)
    if b.ndim != 1 or b.size != x.shape[1]:
        raise ValueError(f"bias length {b.size} does not match {x.shape[1]} columns")
    return x + b


def elementwise_apply(m, fn: Callable[[Array], Array]) -> Array:
    """Apply a vectorized function entrywise; the result must stay finite."""
    x = _as_matrix(m)
    out = np.asarray(fn(x), dtype=np.float64)
    if out.shape != x.shape:
        raise ValueError("fn changed the matrix shape")
    if not np.isfinite(out).all():
        raise NumericError("elementwise_apply produced non-finite entries")
    return out


def check_finite(a: Array, where: str) -> Array:
    """Raise :class:`NumericError` naming ``where`` if any entry is non-finite."""
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite values in {where}")
    return a
