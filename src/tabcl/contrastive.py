"""Contrastive representation learning for tabular rows.

Training corrupts each minibatch into two full-width noisy views (no column
slicing), stacks them into one batch of 2n rows, runs it through a narrow
encoder/decoder, and minimizes an unweighted three-part loss:

* reconstruction: mean squared error of each decoded view against the clean
  batch, averaged over the two views;
* contrastive: per-row dot product of the paired embeddings, squared,
  averaged;
* distance: mean squared error between the two embedded views.

The widths derive from the input width; the noise levels, the batch size
and the learning rate are the constants below (:class:`TclConfig`).

At inference only the encoder runs: :func:`embed` maps rows to the latent
space with no noise and no decoder.  It runs both matrix products on the
whole input and the LeakyReLU and LayerNorm in cache-sized row blocks, and
its output is bit-identical to the training step's encoder on the same
matrix.

The encoder is Linear -> LeakyReLU -> LayerNorm -> Linear and the decoder
Linear -> LeakyReLU -> Linear; gradients are computed analytically and are
checked against central finite differences in the test suite.  A training
step is one forward and one backward pass over the stacked views, in work
arrays that training allocates once and reuses for every step.

LayerNorm's affine is folded into the second encoder layer:
``(xhat * gamma + beta) @ w2 + b2`` is computed as
``xhat @ (gamma[:, None] * w2) + (beta @ w2 + b2)``, and the gradients of
``w2``, ``gamma`` and ``beta`` come from the one (h, k) product
``xhat.T @ d_e``.  So the affine costs (h, k) work per step instead of
passes over the (rows, h) activations; ``gamma`` and ``beta`` stay
parameters.  LayerNorm's row means are einsum row sums, which depend on
their row alone, and each bias gradient is a row of ones times its seed.

Every computation runs in the dtype of the model's parameters.  Training
makes float32 models; a float64 model runs the same code, and the test
suite uses one as the reference of the finite-difference checks.
"""

from __future__ import annotations

import binascii
import math
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .artifacts import fields, read_json, write_json
from .exceptions import TrainingError
from .numerics import (STREAMS, RngStream, check_finite, gaussian_noise, is_finite_number,
                       is_integer, plain_number)

LEAKY_SLOPE = 0.01
LN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
SIGMA = 0.1  # std of the additive Gaussian noise
MASK_PROB = 0.1  # probability that the mask zeroes an entry
BATCH_SIZE = 256
LEARNING_RATE = 1e-3
STABLE_WINDOW = 3  # epochs over which relative improvement is measured

GAUSSIAN = "gaussian"
MASK = "mask"

PARAM_KEYS = ("w1", "b1", "gamma", "beta", "w2", "b2", "w3", "b3", "w4", "b4")

MODEL_FORMAT = "tcl-model"
MODEL_VERSION = 5
DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class TclConfig:
    """The settings a run varies: the ``noise`` mode, "gaussian" (additive,
    std ``SIGMA``) or "mask" (entries zeroed with probability
    ``MASK_PROB``), and the stopping rule; ``input_dim`` is the data's width
    and ``seed`` the run's.  The widths derive from ``input_dim``:
    ``hidden_dim`` is clamp(2d, 16, 256) and ``latent_dim`` clamp(d, 8, 128).
    Every number is stored as a Python ``int`` or ``float``.
    """

    input_dim: int
    noise: str = GAUSSIAN
    max_epochs: int = 100
    tolerance: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name, least in (("input_dim", 1), ("max_epochs", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (is_finite_number(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be a finite number >= 0, got {self.tolerance!r}")
        object.__setattr__(self, "tolerance", plain_number(self.tolerance))
        if self.noise not in (GAUSSIAN, MASK):
            raise ValueError(f"unknown noise mode: {self.noise!r}")

    @property
    def hidden_dim(self) -> int:
        return max(16, min(256, 2 * self.input_dim))

    @property
    def latent_dim(self) -> int:
        return max(8, min(128, self.input_dim))

    @property
    def batch_size(self) -> int:  # the benchmark's step phases read it
        return BATCH_SIZE

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TclConfig":
        return TclConfig(**d)


def _split(vector: np.ndarray, config: TclConfig) -> dict[str, np.ndarray]:
    """Per-key views into a flat vector of ``config``'s parameters, laid out
    as :attr:`TclModel.vector` is: the keys in ``PARAM_KEYS`` order."""
    d, h, k = config.input_dim, config.hidden_dim, config.latent_dim
    shapes = {"w1": (d, h), "b1": (h,), "gamma": (h,), "beta": (h,), "w2": (h, k), "b2": (k,),
              "w3": (k, h), "b3": (h,), "w4": (h, d), "b4": (d,)}
    ends = np.cumsum([math.prod(shapes[key]) for key in PARAM_KEYS])
    if vector.size != ends[-1]:
        raise ValueError(f"parameter vector has {vector.size} entries, expected {ends[-1]}")
    parts = np.split(vector, ends[:-1])
    return {key: part.reshape(shapes[key]) for key, part in zip(PARAM_KEYS, parts)}


def _cast(x, dtype) -> np.ndarray:
    """``x`` as an array of ``dtype``, copied only if it is not one already.
    A float64 value beyond the float32 range becomes inf, which the finite
    checks downstream report."""
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=dtype)


@dataclass(eq=False)  # holds arrays: compared by identity
class TclModel:
    """The config and one flat parameter vector, float32 or float64, laid out
    key by key in ``PARAM_KEYS`` order.  ``params`` holds each key's view of
    the vector; every computation on the model runs in its dtype."""

    config: TclConfig
    vector: np.ndarray
    params: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        v = self.vector
        if not (isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype in DTYPES):
            raise ValueError("parameters must be one float32 or float64 vector, got shape "
                             f"{np.shape(v)} of {np.asarray(v).dtype}")
        self.params = _split(v, self.config)

    @property
    def dtype(self) -> np.dtype:
        return self.vector.dtype


@dataclass
class LossComponents:
    reconstruction: float
    contrastive: float
    distance: float

    @property
    def total(self) -> float:
        return self.reconstruction + self.contrastive + self.distance


@dataclass
class TrainTrace:
    """Per-epoch loss and wall-clock record, total seconds, the stop reason,
    and ``array_bytes``, the bytes of the arrays, in the model's dtype, that
    training allocated once: the flat parameter, gradient and Adam vectors
    (six of the parameter count) and the work arrays of the stacked views,
    their views' buffer and the folded (h, k) second encoder layer
    included.  The epoch losses are means of the terms that each step's
    gradient seed computes."""

    total: list[float] = field(default_factory=list)
    reconstruction: list[float] = field(default_factory=list)
    contrastive: list[float] = field(default_factory=list)
    distance: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    seconds: float = 0.0
    epochs: int = 0
    stop_reason: str = ""
    array_bytes: int = 0


def init_model(config: TclConfig) -> TclModel:
    """Seeded parameter initialization (He-style for pre-activation layers),
    drawn in float64 and cast to float32.

    Pre-activation biases get a little noise so that an all-masked row
    cannot land exactly on the LeakyReLU kink, which would make the loss
    non-differentiable at the starting point.
    """
    rng = RngStream(config.seed, STREAMS["init"])
    d, h, k = config.input_dim, config.hidden_dim, config.latent_dim
    params = {
        "w1": rng.normal(d, h) * np.sqrt(2.0 / d),
        "b1": rng.normal(1, h)[0] * 0.01,
        "gamma": np.ones(h),
        "beta": np.zeros(h),
        "w2": rng.normal(h, k) * np.sqrt(1.0 / h),
        "b2": np.zeros(k),
        "w3": rng.normal(k, h) * np.sqrt(2.0 / k),
        "b3": rng.normal(1, h)[0] * 0.01,
        "w4": rng.normal(h, d) * np.sqrt(1.0 / h),
        "b4": np.zeros(d),
    }
    return TclModel(config, np.concatenate([params[key].ravel() for key in PARAM_KEYS])
                    .astype(np.float32))


def _views(x: np.ndarray, config: TclConfig, rng: RngStream,
           out: np.ndarray | None = None) -> np.ndarray:
    """Both noisy views of ``x`` as one (2n, d) matrix in ``x``'s dtype, view
    1's rows first, written into ``out`` if given.

    Gaussian noise is drawn by one :func:`gaussian_noise` call per view,
    because a Box-Muller draw pairs its first half with its second; a mask
    is one 2n-row uniform draw, which equals two n-row draws.  Either way
    the views hold the bits of two successive per-view draws, stream state
    included, and the draw becomes the views in place."""
    n, d = x.shape
    views = np.empty((2 * n, d), x.dtype) if out is None else out
    halves = views.reshape(2, n, d)
    if config.noise == GAUSSIAN:
        for half in halves:
            gaussian_noise(n, d, SIGMA, rng, x.dtype, out=half)
        halves += x
    else:
        rng.uniform(2 * n, d, x.dtype, out=views)
        np.greater_equal(halves, MASK_PROB, out=halves)  # 1.0 keeps an entry
        halves *= x
    return views


def augment(batch, config: TclConfig, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Two independently corrupted full copies of the batch, float32 for a
    float32 batch and float64 otherwise."""
    x = _cast(batch, np.float32 if np.asarray(batch).dtype == np.float32 else np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("batch must be a non-empty 2-D matrix")
    views = _views(x, config, rng)
    return views[: x.shape[0]], views[x.shape[0] :]


def _check_input(x, width: int, what: str, dtype) -> np.ndarray:
    x = _cast(x, dtype)
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"{what} must be 2-D with {width} columns, got shape {x.shape}")
    return x


# The forward and backward pass write every intermediate into the work
# arrays named in this table.  A width of d (input_dim), h (hidden_dim), k
# (latent_dim) or 1 makes an array of one row per row of the stacked views;
# a tuple of widths makes one whole array of that shape.  Training allocates
# them once, for two full batches, and hands row-slices of the row arrays to
# a shorter last batch; ``views`` receives each step's noisy views, ``ones``
# holds 1.0 in every row, and ``w2f`` and ``b2f`` hold the second encoder
# layer with LayerNorm's affine folded in (see :func:`_fold`).  The loss seed
# reads ``out`` once and then keeps squared residuals there.  Inference
# (encode) uses none of them: it runs the encoder in row blocks.
_WORK_ARRAYS = {
    "views": "d",
    "z1": "h", "xhat": "h", "e": "k", "mu": 1, "inv_std": 1,
    "z3": "h", "a3": "h", "out": "d",
    "d_out": "d", "d_e": "k", "t_k": "k", "d_h": "h", "t_h": "h",
    "dots": 1, "mean_dx": 1, "mean_dx_xhat": 1, "ones": 1,
    "w2f": ("h", "k"), "b2f": ("k",),
}


def _work_arrays(model: TclModel, rows: int) -> dict[str, np.ndarray]:
    c = model.config
    widths = {"d": c.input_dim, "h": c.hidden_dim, "k": c.latent_dim, 1: 1}
    arrays = {
        name: np.empty(tuple(widths[x] for x in width) if isinstance(width, tuple)
                       else (rows, widths[width]), model.dtype)
        for name, width in _WORK_ARRAYS.items()
    }
    arrays["ones"].fill(1.0)
    return arrays


def _rows(work: dict, rows: int) -> dict[str, np.ndarray]:
    """The work arrays of a step over the first ``rows`` stacked rows."""
    return {name: a if isinstance(_WORK_ARRAYS[name], tuple) else a[:rows]
            for name, a in work.items()}


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.matmul(x, w, out=out)
    out += b
    return out


def _leaky(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    # max(z, slope * z) equals "z if z > 0 else slope * z" for finite z,
    # signed zeros included
    np.multiply(z, LEAKY_SLOPE, out=out)
    return np.maximum(z, out, out=out)


def _leaky_slope(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    # 1 where z > 0, else LEAKY_SLOPE; 0.99 + 0.01 == 1.0 in binary64 and in
    # binary32, and the arithmetic is several times faster than np.where
    np.greater(z, 0.0, out=out)
    out *= 1.0 - LEAKY_SLOPE
    out += LEAKY_SLOPE
    return out


def _row_mean(out: np.ndarray, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Mean of each row of ``a`` (of ``a * b``) into the (rows, 1) ``out``.

    einsum sums each row on its own, with no temporary, so a row's mean does
    not depend on the rows stacked with it or on where the rows start in
    memory.  A BLAS matrix-vector product would: its blocking spans rows."""
    if b is None:
        np.einsum("ij->i", a, out=out[:, 0])
    else:
        np.einsum("ij,ij->i", a, b, out=out[:, 0])
    out /= a.shape[1]
    return out


def _hidden(z1: np.ndarray, xhat: np.ndarray, mu: np.ndarray, inv_std: np.ndarray,
            out: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """LeakyReLU then LayerNorm, without its affine, of the pre-activations
    ``z1`` into ``out``.

    ``xhat`` is scratch for the centred rows; ``out`` may be ``xhat`` or
    ``z1``.  ``mask`` is scratch for the finite checks (see
    :func:`check_finite`).  The affine is folded into the next layer (see
    :func:`_fold`)."""
    check_finite(z1, "encoder linear 1", mask)
    _leaky(z1, xhat)
    # layernorm per row: the population variance is the mean square of the
    # centred row, as np.var computes it
    xhat -= _row_mean(mu, xhat)
    _row_mean(inv_std, xhat, xhat)
    inv_std += LN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    np.multiply(xhat, inv_std, out=out)
    return check_finite(out, "encoder layernorm", mask)


def _fold(p: dict, w2f: np.ndarray, b2f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The second encoder layer with LayerNorm's affine folded in, into
    ``w2f`` and ``b2f``:

        (xhat * gamma + beta) @ w2 + b2 == xhat @ (gamma[:, None] * w2) + (beta @ w2 + b2)

    Both are (h, k) work or less, once per step, in place of (rows, h)
    passes for the affine forward and backward."""
    np.multiply(p["gamma"][:, None], p["w2"], out=w2f)
    np.matmul(p["beta"], p["w2"], out=b2f)
    b2f += p["b2"]
    return w2f, b2f


def _encode(p: dict, x: np.ndarray, w: dict) -> np.ndarray:
    """Encoder forward pass of ``x`` into the work arrays ``w``."""
    z1 = _linear(x, p["w1"], p["b1"], w["z1"])
    xhat = _hidden(z1, w["xhat"], w["mu"], w["inv_std"], w["xhat"])
    w2f, b2f = _fold(p, w["w2f"], w["b2f"])
    return check_finite(_linear(xhat, w2f, b2f, w["e"]), "encoder linear 2")


def _decode(p: dict, e: np.ndarray, w: dict) -> np.ndarray:
    """Decoder forward pass of ``e`` into the work arrays ``w``."""
    check_finite(_linear(e, p["w3"], p["b3"], w["z3"]), "decoder linear 1")
    _leaky(w["z3"], w["a3"])
    return check_finite(_linear(w["a3"], p["w4"], p["b4"], w["out"]), "decoder linear 2")


# Rows per block of inference: a block of hidden activations takes about
# this many bytes, so the LeakyReLU and LayerNorm passes over it stay in the
# per-core cache instead of streaming n x h arrays through memory.
_BLOCK_BYTES = 256 * 1024
_ALIGN = 64  # bytes: where each scratch array of inference starts
_scratch = threading.local()


def _scratch_arrays(*specs) -> list[np.ndarray]:
    """One array per ``(shape, dtype)`` of ``specs``, carved from this
    thread's inference scratch.

    The scratch is one byte buffer per thread that grows to the largest
    request and is kept for the thread's next call.  Repeated calls then
    reuse its pages; fresh temporaries of this size would be handed back to
    the operating system and faulted in again on every call, as the heap
    that earlier code left behind decides.  The arrays of the last request
    are kept too, and a request of the same specs gets them again."""
    if getattr(_scratch, "specs", None) == specs:
        return _scratch.arrays
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    starts = np.cumsum([0] + [-(-size // _ALIGN) * _ALIGN for size in sizes]).tolist()
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or buffer.size < starts[-1] + _ALIGN:
        buffer = _scratch.buffer = np.empty(starts[-1] + _ALIGN, np.uint8)
    base = -buffer.ctypes.data % _ALIGN
    _scratch.specs, _scratch.arrays = specs, [
        buffer[base + start : base + start + size].view(dtype).reshape(shape)
        for (shape, dtype), start, size in zip(specs, starts, sizes)]
    return _scratch.arrays


def encode(model: TclModel, x) -> np.ndarray:
    """Deterministic encoder forward pass (n x latent_dim).

    Both matrix products run on the whole matrix, and the row-local
    LeakyReLU and LayerNorm run in row blocks of about ``_BLOCK_BYTES``, so
    the output is bit-identical to the training step's encoder on the same
    matrix.  The input is cast to the parameters' dtype once.  The blocks
    work in place on the first product's output.  Every array but the
    output is carved from the thread's scratch (:func:`_scratch_arrays`):
    the cast input, the first product, one block of scratch rows, the folded
    second layer and the finite checks' mask.  The output is a fresh array.
    """
    dtype = model.dtype
    c, p = model.config, model.params
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != c.input_dim:
        raise ValueError(f"input must be 2-D with {c.input_dim} columns, got shape {x.shape}")
    n, h, k = x.shape[0], c.hidden_dim, c.latent_dim
    rows = max(1, _BLOCK_BYTES // (dtype.itemsize * h))
    r = min(rows, n)
    cast, a, xhat, stats, w2f, b2f, mask = _scratch_arrays(
        (x.shape if x.dtype != dtype else (0,), dtype), ((n, h), dtype), ((r, h), dtype),
        ((2, r, 1), dtype), ((h, k), dtype), ((k,), dtype), ((max(r * h, n * k),), bool))
    if x.dtype != dtype:
        with np.errstate(over="ignore"):  # beyond float32's range: inf, which the checks report
            np.copyto(cast, x, casting="unsafe")
        x = cast
    mu, inv_std = stats
    np.matmul(x, p["w1"], out=a)
    for lo in range(0, n, rows):
        block = a[lo : lo + rows]
        m = block.shape[0]
        block += p["b1"]
        _hidden(block, xhat[:m], mu[:m], inv_std[:m], block, mask)
    _fold(p, w2f, b2f)
    return check_finite(_linear(a, w2f, b2f, np.empty((n, k), dtype)), "encoder linear 2", mask)


# Encoder-only inference: no noise, no decoder.
embed = encode


def _stack_views(model: TclModel, x1, x2, x_clean) -> tuple[np.ndarray, np.ndarray]:
    """The checked views stacked into one matrix, and the clean batch."""
    d, dtype = model.config.input_dim, model.dtype
    x_clean = _check_input(x_clean, d, "clean batch", dtype)
    x1 = _check_input(x1, d, "view 1", dtype)
    x2 = _check_input(x2, d, "view 2", dtype)
    if x1.shape != x_clean.shape or x2.shape != x_clean.shape:
        raise ValueError("views and clean batch must share one shape")
    return np.concatenate((x1, x2)), x_clean


def _forward(p: dict, x: np.ndarray, w: dict) -> None:
    """Stacked views through encoder and decoder, into w["e"] and w["out"]."""
    _decode(p, _encode(p, x, w), w)


def loss_on_views(model: TclModel, x1, x2, x_clean) -> tuple[float, LossComponents]:
    """Total loss for two fixed noisy views against the clean batch: the
    forward pass and the loss terms of a training step, with no backward
    pass.  Pure in the parameters."""
    x, x_clean = _stack_views(model, x1, x2, x_clean)
    w = _work_arrays(model, x.shape[0])
    _forward(model.params, x, w)
    comps = _seed(model.config, x_clean, w)
    return comps.total, comps


def _seed(config: TclConfig, x_clean: np.ndarray, w: dict) -> LossComponents:
    """dL/d(out) and dL/d(e) of the stacked views into d_out and d_e, and the
    three loss terms.

    Each term is the mean of the squares of an array the seed forms anyway:
    the residuals out - x, e1 - e2 and the row dots.  The means run on
    contiguous arrays of the shapes that the loss formulas reduce, so each
    term holds the bits of its ``loss_*`` oracle in ``tests/oracles.py``."""
    n, d = x_clean.shape
    k = config.latent_dim
    # (2, n, width) views: index 0 is view 1, index 1 is view 2
    e, d_e, t_k = (w[name].reshape(2, n, k) for name in ("e", "d_e", "t_k"))
    out, d_out = (w[name].reshape(2, n, d) for name in ("out", "d_out"))
    dots, dots_sq = w["dots"][:n], w["dots"][n:]

    # reconstruction: L_r = (mse(out1, x) + mse(out2, x)) / 2
    np.subtract(out, x_clean, out=d_out)
    np.square(d_out, out=out)
    reconstruction = 0.5 * (float(np.mean(out[0])) + float(np.mean(out[1])))
    d_out /= n * d
    # distance: L_d = mean((e1 - e2)^2)
    np.subtract(e[0], e[1], out=d_e[0])
    distance = float(np.mean(np.square(d_e[0], out=t_k[0])))
    d_e[0] *= 2.0
    d_e[0] /= n * k
    np.negative(d_e[0], out=d_e[1])
    # contrastive: L_c = mean(rowdot^2); each view gains dots * the other
    np.multiply(e[0], e[1], out=t_k[0])
    np.sum(t_k[0], axis=1, keepdims=True, out=dots)
    contrastive = float(np.mean(np.square(dots, out=dots_sq)))
    dots *= 2.0 / n
    d_e += np.multiply(dots, e[::-1], out=t_k)
    return LossComponents(reconstruction, contrastive, distance)


def _backward(p: dict, x: np.ndarray, w: dict, grads: dict) -> None:
    """Parameter gradients of the stacked views ``x`` into ``grads``, from the
    seeds d_out and d_e.  Each weight gradient is one product over all rows;
    each bias gradient is the product of a row of ones with its seed, as
    gradients sum over every row."""
    d_out, d_e, d_h, t_h, t_k = w["d_out"], w["d_e"], w["d_h"], w["t_h"], w["t_k"]
    ones = w["ones"][:, 0]
    # decoder
    np.matmul(w["a3"].T, d_out, out=grads["w4"])
    np.matmul(ones, d_out, out=grads["b4"])
    np.matmul(d_out, p["w4"].T, out=d_h)
    d_h *= _leaky_slope(w["z3"], t_h)  # d_z3
    np.matmul(w["e"].T, d_h, out=grads["w3"])
    np.matmul(ones, d_h, out=grads["b3"])
    d_e += np.matmul(d_h, p["w3"].T, out=t_k)
    # encoder, through the folded layer e = xhat @ w2f + b2f: from
    # G = xhat^T d_e, d_w2 = gamma * G + beta (x) d_b2, d_gamma = rowsum(w2 * G)
    # and d_beta = w2 d_b2, all (h, k) work
    g = np.matmul(w["xhat"].T, d_e, out=grads["w2"])  # G
    np.matmul(ones, d_e, out=grads["b2"])
    np.einsum("ij,ij->i", p["w2"], g, out=grads["gamma"])
    np.matmul(p["w2"], grads["b2"], out=grads["beta"])
    np.matmul(d_e, w["w2f"].T, out=d_h)  # d_xhat
    g *= p["gamma"][:, None]
    g += np.multiply.outer(p["beta"], grads["b2"], out=w["w2f"])  # w2f is spent
    # layernorm backward (per row, population variance):
    # d_a1 = (d_xhat - mean(d_xhat) - xhat * mean(d_xhat * xhat)) * inv_std
    _row_mean(w["mean_dx"], d_h)
    _row_mean(w["mean_dx_xhat"], d_h, w["xhat"])
    d_h -= w["mean_dx"]
    d_h -= np.multiply(w["xhat"], w["mean_dx_xhat"], out=t_h)
    d_h *= w["inv_std"]  # d_a1
    d_h *= _leaky_slope(w["z1"], t_h)  # d_z1
    np.matmul(x.T, d_h, out=grads["w1"])
    np.matmul(ones, d_h, out=grads["b1"])


def _grad_into(model: TclModel, x, x_clean, w: dict, grad: np.ndarray,
               grads: dict) -> LossComponents:
    """Loss of the stacked views ``x``; its gradients go into ``grads``, the
    per-key views of the flat vector ``grad``.  One finite check covers the
    whole vector; only a failed one looks for the key to name."""
    _forward(model.params, x, w)
    comps = _seed(model.config, x_clean, w)
    _backward(model.params, x, w, grads)
    if not np.isfinite(grad).all():
        for key, g in grads.items():
            check_finite(g, f"gradient of {key}")
    return comps


def grad_on_views(
    model: TclModel, x1, x2, x_clean
) -> tuple[float, LossComponents, dict[str, np.ndarray]]:
    """Loss and analytic parameter gradients for two fixed views."""
    x, x_clean = _stack_views(model, x1, x2, x_clean)
    w = _work_arrays(model, x.shape[0])
    grad = np.empty_like(model.vector)
    grads = _split(grad, model.config)
    comps = _grad_into(model, x, x_clean, w, grad, grads)
    return comps.total, comps, grads


class _Adam:
    """Minimal Adam optimizer over one flat parameter vector, updated in
    place from a flat gradient of the same layout.

    The moments ``m`` and ``v`` and two scratch vectors are flat vectors of
    the parameters' dtype, so a step is a dozen whole-vector ufunc calls.
    Every operation is elementwise, so the result holds the bits of the same
    update applied key by key."""

    def __init__(self, params: np.ndarray):
        self.params = params
        # four vectors, not one (4, P) block: with the block, the gate-tall
        # benchmark's peak RSS read about 1 MiB higher (the block is past
        # glibc's initial 128 KiB mmap threshold; the vectors are not)
        self.m, self.v, self._num, self._den = (np.zeros_like(params) for _ in range(4))
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        m, v, num, den = self.m, self.v, self._num, self._den
        # m = beta1 * m + (1 - beta1) * g
        m *= ADAM_BETA1
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=num)
        # v = beta2 * v + (1 - beta2) * (g * g)
        v *= ADAM_BETA2
        np.multiply(grad, grad, out=num)
        num *= 1.0 - ADAM_BETA2
        v += num
        # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.divide(m, b1t, out=num)
        num *= LEARNING_RATE
        np.divide(v, b2t, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        num /= den
        self.params -= num


def train_tcl(X, config: TclConfig) -> tuple[TclModel, TrainTrace]:
    """Minibatch training loop with loss-stabilization early stopping, on
    the n x ``config.input_dim`` feature matrix ``X``.

    Each epoch shuffles the rows, walks them in batches of ``BATCH_SIZE``
    rows (the last one shorter), and applies Adam updates from the analytic
    gradients.  Training stops once the relative change of the epoch-mean
    total loss over the last three epochs falls below ``config.tolerance``,
    or at ``config.max_epochs``.  An epoch-mean loss above ten times the
    first epoch's raises TrainingError.

    The model is float32, and the data is cast to float32 once; finite
    data beyond float32's range is a ValueError.  Each step runs one
    forward and one backward pass over the batch's two noisy views stacked
    into one matrix.  The gradient and Adam's state are flat vectors like
    the model's, which Adam updates in place; the per-key gradients are
    views of the gradient.  These and the work arrays (for two full
    batches, the views among them) are allocated once, in the model's
    dtype, before the first epoch.  The trace records their bytes, per-epoch
    means of all loss components, each epoch's wall-clock seconds, and the
    wall-clock seconds spent inside this function.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("training data must be a non-empty 2-D matrix")
    if X.shape[1] != config.input_dim:
        raise ValueError(f"data has {X.shape[1]} columns, config expects {config.input_dim}")
    n = X.shape[0]
    batch = min(BATCH_SIZE, n)

    start = time.perf_counter()
    model = init_model(config)
    cast = _cast(X, model.dtype)
    if not np.isfinite(cast).all() and np.isfinite(X).all():
        raise ValueError(f"training data holds values beyond the {model.dtype.name} range")
    X = cast
    rng = RngStream(config.seed, STREAMS["views"])
    adam = _Adam(model.vector)
    grad = np.empty_like(model.vector)
    grads = _split(grad, config)
    work = _work_arrays(model, 2 * batch)
    held = (adam.params, grad, adam.m, adam.v, adam._num, adam._den, *work.values())
    trace = TrainTrace(array_bytes=sum(a.nbytes for a in held))
    stop_reason = "max-epochs"
    initial_loss = None  # first batch at the initial parameters

    for epoch in range(config.max_epochs):
        epoch_start = time.perf_counter()
        order = rng.permutation(n)
        sums = np.zeros(3)
        batches = 0
        for lo in range(0, n, batch):
            x = X[order[lo : lo + batch]]
            rows = 2 * x.shape[0]
            w = work if rows == 2 * batch else _rows(work, rows)
            views = _views(x, config, rng, out=w["views"])
            comps = _grad_into(model, views, x, w, grad, grads)
            if initial_loss is None:
                initial_loss = comps.total
            adam.step(grad)
            sums += (comps.reconstruction, comps.contrastive, comps.distance)
            batches += 1
        means = sums / batches
        trace.reconstruction.append(float(means[0]))
        trace.contrastive.append(float(means[1]))
        trace.distance.append(float(means[2]))
        trace.total.append(float(means.sum()))
        trace.epoch_seconds.append(time.perf_counter() - epoch_start)

        if trace.total[-1] > 10.0 * initial_loss + 1e-12:
            raise TrainingError(
                f"loss diverged at epoch {epoch} ({trace.total[-1]:.4g} vs initial "
                f"{initial_loss:.4g})"
            )
        if epoch >= STABLE_WINDOW:
            ref = trace.total[-1 - STABLE_WINDOW]
            change = abs(ref - trace.total[-1]) / max(abs(ref), 1e-12)
            if change < config.tolerance:
                stop_reason = "stabilized"
                break

    trace.epochs = len(trace.total)
    trace.stop_reason = stop_reason
    trace.seconds = time.perf_counter() - start
    return model, trace


def save_model(model: TclModel, path) -> None:
    """Write the model as a JSON container with its dtype and config.  Its
    ``params`` is one base64 string of the little-endian bytes of
    :attr:`TclModel.vector`, so every value round-trips bit-exactly and two
    saves of one model write the same bytes."""
    block = model.vector.astype(model.dtype.newbyteorder("<"), copy=False)
    write_json(path, {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dtype": model.dtype.name,
        "config": model.config.to_dict(),
        "params": binascii.b2a_base64(block.tobytes(), newline=False).decode("ascii"),
    })


def load_model(path) -> TclModel:
    """Read a model in the dtype its file records, each parameter a view of
    one decoded vector.  A block that is not a string of strict base64,
    that holds other than the config's parameter count or a non-finite
    value is a format error."""
    payload = read_json(path, "model file", MODEL_FORMAT, MODEL_VERSION)
    with fields(path, "model file"):
        config = TclConfig.from_dict(payload["config"])
        dtype = payload["dtype"]
        if dtype not in DTYPES:
            raise ValueError(f"model dtype must be float32 or float64, got {dtype!r}")
        # a block that is not a string is a TypeError, bad base64 a binascii.Error (ValueError)
        raw = binascii.a2b_base64(payload["params"], strict_mode=True)
        vector = np.frombuffer(raw, np.dtype(dtype).newbyteorder("<")).astype(dtype)
        model = TclModel(config, vector)
        for key, value in model.params.items():
            if not np.isfinite(value).all():
                raise ValueError(f"model parameter {key!r} holds a non-finite value")
        return model
