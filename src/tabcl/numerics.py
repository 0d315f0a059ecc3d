"""Dense numeric primitives shared by every other module.

All public operations work on float64 arrays.  All but
:func:`softmax_classes`, which sits on the training hot path, validate
their inputs and guarantee finite outputs.  Randomness goes through
:class:`RngStream` so that every stochastic operation is a pure function of
``(seed, stream_id)``.

:func:`softmax_classes` is the one softmax.  It works in place on a
class-major (C, n) matrix, so every step walks rows of length n, and sums
the classes in the order of numpy's pairwise row sum of the (n, C)
transpose: the bits equal the plain row-major formula's.
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


def _class_index(y: Array, n_classes: int, n: int) -> Array:
    """Flat position of each row's label in a class-major (C, n) matrix.
    A label outside ``[0, C)`` would read a neighbouring row: ValueError."""
    y = np.asarray(y)
    if y.shape != (n,) or n == 0:
        raise ValueError("labels must be one per row, with at least one row")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return y * n + np.arange(n)


def _class_sum(p: Array, acc: Array) -> Array:
    """``p.T.sum(axis=1)`` of a (C, n) matrix, bit for bit, into ``acc[0]``
    of its ``min(C, 8)`` work rows, in numpy's pairwise order: one by one
    below 8 rows, 8 running sums to 128, halves (cut at a multiple of 8)."""
    s, C = acc[0], p.shape[0]
    if C < 8:
        return np.sum(p, axis=0, out=s)  # adds the rows in order
    if C > 128:
        h = C // 2 - C // 2 % 8
        right = _class_sum(p[h:], acc).copy()
        return np.add(_class_sum(p[:h], acc), right, out=s)
    k = C - C % 8
    np.add(p[:8], 0.0, out=acc)  # + 0.0: numpy starts its sums at +0.0
    for i in range(8, k, 8):
        acc += p[i:i + 8]
    for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        acc[i] += acc[j]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for row in p[k:]:
        s += row
    return s


def softmax_classes(p: Array, work: Array | None = None, log: bool = False) -> Array:
    """Stable softmax (with ``log``, log-softmax) over the classes of a
    C-contiguous class-major (C, n) logit matrix, in place; returns ``p``.
    ``work`` is ``min(C, 8)`` rows of length n.  Unchecked input; column i
    is bit-equal to the plain formula on row i of the (n, C) transpose."""
    work = np.empty((min(p.shape[0], 8), p.shape[1])) if work is None else work
    p -= np.max(p, axis=0, out=work[0])
    if log:
        p -= np.log(_class_sum(np.exp(p), work))
    else:
        np.exp(p, out=p)
        p /= _class_sum(p, work)
    return p


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
