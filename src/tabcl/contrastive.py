"""Contrastive representation learning for tabular rows.

Training duplicates each minibatch into two full-width noisy views (no
column slicing), runs both through a narrow encoder/decoder, and minimizes
an unweighted three-part loss:

* reconstruction: mean squared error of each decoded view against the clean
  batch, averaged over the two views;
* contrastive: per-row dot product of the paired embeddings, squared,
  averaged, divided by the temperature;
* distance: mean squared error between the two embedded views.

At inference only the encoder runs: :func:`embed` maps rows to the latent
space with no noise and no decoder.  It runs both matrix products on the
whole input and the LeakyReLU and LayerNorm in cache-sized row blocks, and
its output is bit-identical to the training step's encoder on the same
matrix.

The encoder is Linear -> LeakyReLU -> LayerNorm -> Linear and the decoder
Linear -> LeakyReLU -> Linear; gradients are computed analytically and are
checked against central finite differences in the test suite.  The forward
and backward pass write into per-view work arrays, which training allocates
once and reuses for every step.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .artifacts import fields, read_json, write_json
from .exceptions import TrainingError
from .numerics import RngStream, check_finite, gaussian_noise, is_finite_number

LEAKY_SLOPE = 0.01
LN_EPS = 1e-5
STABLE_WINDOW = 3  # epochs over which relative improvement is measured

GAUSSIAN = "gaussian"
MASK = "mask"

PARAM_KEYS = ("w1", "b1", "gamma", "beta", "w2", "b2", "w3", "b3", "w4", "b4")

MODEL_FORMAT = "tcl-model"
MODEL_VERSION = 1


def _clamp(v: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, v))


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TclConfig:
    """Architecture, noise, and optimization settings.

    ``hidden_dim`` defaults to clamp(2d, 16, 256) and ``latent_dim`` to
    clamp(d, 8, 128).  ``noise`` is "gaussian" (additive, std ``sigma``) or
    "mask" (entries zeroed with probability ``mask_prob``).
    """

    input_dim: int
    hidden_dim: int | None = None
    latent_dim: int | None = None
    noise: str = GAUSSIAN
    sigma: float = 0.1
    mask_prob: float = 0.1
    temperature: float = 1.0
    batch_size: int = 256
    max_epochs: int = 100
    tolerance: float = 1e-4
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.input_dim) or self.input_dim < 1:
            raise ValueError(f"input_dim must be an integer >= 1, got {self.input_dim!r}")
        if self.hidden_dim is None:
            object.__setattr__(self, "hidden_dim", _clamp(2 * self.input_dim, 16, 256))
        if self.latent_dim is None:
            object.__setattr__(self, "latent_dim", _clamp(self.input_dim, 8, 128))
        for name in ("hidden_dim", "latent_dim", "batch_size", "max_epochs", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("sigma", "mask_prob", "temperature", "tolerance", "learning_rate"):
            if not is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.hidden_dim < 1 or self.latent_dim < 1:
            raise ValueError("hidden_dim and latent_dim must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.noise not in (GAUSSIAN, MASK):
            raise ValueError(f"unknown noise mode: {self.noise!r}")
        if self.sigma < 0 or not (0.0 <= self.mask_prob <= 1.0):
            raise ValueError("sigma must be >= 0 and mask_prob in [0, 1]")
        if self.max_epochs < 1 or self.learning_rate <= 0 or self.tolerance < 0:
            raise ValueError("bad optimization settings")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TclConfig":
        return TclConfig(**d)


def _param_shapes(config: TclConfig) -> dict[str, tuple[int, ...]]:
    d, h, k = config.input_dim, config.hidden_dim, config.latent_dim
    return {
        "w1": (d, h), "b1": (h,), "gamma": (h,), "beta": (h,),
        "w2": (h, k), "b2": (k,),
        "w3": (k, h), "b3": (h,), "w4": (h, d), "b4": (d,),
    }


@dataclass
class TclModel:
    """Encoder/decoder parameter sets plus the config that shaped them."""

    config: TclConfig
    params: dict[str, np.ndarray]

    def __post_init__(self):
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in self.params.items()}
        expected = _param_shapes(self.config)
        for key in PARAM_KEYS:
            if key not in self.params:
                raise ValueError(f"missing parameter {key!r}")
            if self.params[key].shape != expected[key]:
                raise ValueError(
                    f"parameter {key!r} has shape {self.params[key].shape}, "
                    f"expected {expected[key]}"
                )


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
    and ``array_bytes``, the bytes of the float64 arrays that training
    allocated once: parameters, gradients, gradient scratch, Adam's state
    and both views' work arrays."""

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
    """Seeded parameter initialization (He-style for pre-activation layers).

    Pre-activation biases get a little noise so that an all-masked row
    cannot land exactly on the LeakyReLU kink, which would make the loss
    non-differentiable at the starting point.
    """
    rng = RngStream(config.seed, stream_id=0)
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
    return TclModel(config, params)


def augment(batch, config: TclConfig, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Two independently corrupted full copies of the batch."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("batch must be a non-empty 2-D matrix")
    n, d = x.shape
    if config.noise == GAUSSIAN:
        return (
            x + gaussian_noise(n, d, config.sigma, rng),
            x + gaussian_noise(n, d, config.sigma, rng),
        )
    keep1 = rng.uniform(n, d) >= config.mask_prob
    keep2 = rng.uniform(n, d) >= config.mask_prob
    return x * keep1, x * keep2


def _check_input(x, width: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"{what} must be 2-D with {width} columns, got shape {x.shape}")
    return x


# The forward and backward pass write every intermediate into per-view work
# arrays, named in these tables.  Each array has one row per batch row and a
# width of d (input_dim), h (hidden_dim), k (latent_dim) or 1.  Training
# allocates all three tables for each view, once for the full batch, and
# hands row-slices of them to a shorter last batch.  Inference (encode)
# uses none of them: it runs the encoder in row blocks.
_ENCODER_ARRAYS = {"z1": "h", "xhat": "h", "ln": "h", "e": "k", "mu": 1, "inv_std": 1}
_DECODER_ARRAYS = {"z3": "h", "a3": "h", "out": "d"}
_BACKWARD_ARRAYS = {
    "d_out": "d", "d_e": "k", "t_k": "k", "d_h": "h", "t_h": "h",
    "dots": 1, "mean_dx": 1, "mean_dx_xhat": 1,
}
_FORWARD_ARRAYS = {**_ENCODER_ARRAYS, **_DECODER_ARRAYS}
_TRAINING_ARRAYS = {**_FORWARD_ARRAYS, **_BACKWARD_ARRAYS}


def _work_arrays(config: TclConfig, rows: int, table: dict) -> dict[str, np.ndarray]:
    widths = {"d": config.input_dim, "h": config.hidden_dim, "k": config.latent_dim, 1: 1}
    return {name: np.empty((rows, widths[w])) for name, w in table.items()}


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
    # 1 where z > 0, else LEAKY_SLOPE; 0.99 + 0.01 == 1.0 in binary64, and
    # the arithmetic is several times faster than np.where
    np.greater(z, 0.0, out=out)
    out *= 1.0 - LEAKY_SLOPE
    out += LEAKY_SLOPE
    return out


def _hidden(p: dict, z1: np.ndarray, xhat: np.ndarray, ln: np.ndarray,
            mu: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """LeakyReLU then LayerNorm of the pre-activations ``z1`` into ``ln``.

    ``xhat`` receives the normalized rows; ``ln`` holds their squares until
    it is written, so it may be ``z1`` itself."""
    check_finite(z1, "encoder linear 1")
    _leaky(z1, xhat)
    # layernorm per row: the population variance is the mean square of the
    # centred row, as np.var computes it
    np.mean(xhat, axis=1, keepdims=True, out=mu)
    xhat -= mu
    np.square(xhat, out=ln)
    np.mean(ln, axis=1, keepdims=True, out=inv_std)
    inv_std += LN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, p["gamma"], out=ln)
    ln += p["beta"]
    return check_finite(ln, "encoder layernorm")


def _encode(p: dict, x: np.ndarray, w: dict) -> np.ndarray:
    """Encoder forward pass of ``x`` into the work arrays ``w``."""
    z1 = _linear(x, p["w1"], p["b1"], w["z1"])
    ln = _hidden(p, z1, w["xhat"], w["ln"], w["mu"], w["inv_std"])
    return check_finite(_linear(ln, p["w2"], p["b2"], w["e"]), "encoder linear 2")


def _decode(p: dict, e: np.ndarray, w: dict) -> np.ndarray:
    """Decoder forward pass of ``e`` into the work arrays ``w``."""
    check_finite(_linear(e, p["w3"], p["b3"], w["z3"]), "decoder linear 1")
    _leaky(w["z3"], w["a3"])
    return check_finite(_linear(w["a3"], p["w4"], p["b4"], w["out"]), "decoder linear 2")


# Rows per block of inference: a block of hidden activations takes about
# this many bytes, so the LeakyReLU and LayerNorm passes over it stay in the
# per-core cache instead of streaming n x h arrays through memory.
_BLOCK_BYTES = 256 * 1024


def encode(model: TclModel, x) -> np.ndarray:
    """Deterministic encoder forward pass (n x latent_dim).

    Both matrix products run on the whole matrix, and the row-local
    LeakyReLU and LayerNorm run in row blocks of about ``_BLOCK_BYTES``, so
    the output is bit-identical to the training step's encoder on the same
    matrix.  The blocks work in place on the first product's output; one
    block of scratch rows is the only other temporary.
    """
    x = _check_input(x, model.config.input_dim, "input")
    p, n, h = model.params, x.shape[0], model.config.hidden_dim
    rows = max(1, _BLOCK_BYTES // (8 * h))
    a = np.matmul(x, p["w1"])
    xhat = np.empty((min(rows, n), h))
    mu, inv_std = np.empty((2, min(rows, n), 1))
    for lo in range(0, n, rows):
        block = a[lo : lo + rows]
        m = block.shape[0]
        block += p["b1"]
        _hidden(p, block, xhat[:m], block, mu[:m], inv_std[:m])
    e = np.matmul(a, p["w2"])
    e += p["b2"]
    return check_finite(e, "encoder linear 2")


def decode(model: TclModel, e) -> np.ndarray:
    """Deterministic decoder forward pass (n x input_dim)."""
    e = _check_input(e, model.config.latent_dim, "embedding")
    return _decode(model.params, e, _work_arrays(model.config, e.shape[0], _DECODER_ARRAYS))


def embed(model: TclModel, x) -> np.ndarray:
    """Encoder-only inference: no noise, no decoder."""
    return encode(model, x)


def loss_reconstruction(xhat1, xhat2, x_clean) -> float:
    """Mean over both views of the MSE against the clean batch."""
    a = np.asarray(xhat1, dtype=np.float64)
    b = np.asarray(xhat2, dtype=np.float64)
    x = np.asarray(x_clean, dtype=np.float64)
    if a.shape != x.shape or b.shape != x.shape:
        raise ValueError("reconstructions and clean batch must share one shape")
    return 0.5 * (float(np.mean((a - x) ** 2)) + float(np.mean((b - x) ** 2)))


def loss_distance(e1, e2) -> float:
    """MSE between the two embedded views."""
    a = np.asarray(e1, dtype=np.float64)
    b = np.asarray(e2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def loss_contrastive(e1, e2, temperature: float) -> float:
    """Mean squared per-row dot product of paired embeddings, over temperature."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    a = np.asarray(e1, dtype=np.float64)
    b = np.asarray(e2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    dots = (a * b).sum(axis=1)
    return float(np.mean(dots * dots)) / temperature


def _check_views(model: TclModel, x1, x2, x_clean):
    d = model.config.input_dim
    x_clean = _check_input(x_clean, d, "clean batch")
    x1 = _check_input(x1, d, "view 1")
    x2 = _check_input(x2, d, "view 2")
    if x1.shape != x_clean.shape or x2.shape != x_clean.shape:
        raise ValueError("views and clean batch must share one shape")
    return x1, x2, x_clean


def _forward(model: TclModel, x1, x2, x_clean, w1: dict, w2: dict) -> LossComponents:
    """Both views through encoder and decoder, and the three loss terms."""
    p = model.params
    e1, e2 = _encode(p, x1, w1), _encode(p, x2, w2)
    out1, out2 = _decode(p, e1, w1), _decode(p, e2, w2)
    return LossComponents(
        reconstruction=loss_reconstruction(out1, out2, x_clean),
        contrastive=loss_contrastive(e1, e2, model.config.temperature),
        distance=loss_distance(e1, e2),
    )


def loss_on_views(model: TclModel, x1, x2, x_clean) -> tuple[float, LossComponents]:
    """Total loss for two fixed noisy views against the clean batch.

    Pure in the parameters, which makes it the target for the
    finite-difference gradient oracle.
    """
    x1, x2, x_clean = _check_views(model, x1, x2, x_clean)
    w1, w2 = (_work_arrays(model.config, x_clean.shape[0], _FORWARD_ARRAYS) for _ in range(2))
    comps = _forward(model, x1, x2, x_clean, w1, w2)
    return comps.total, comps


def _zero_grads(model: TclModel) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in model.params.items()}


def _seed(config: TclConfig, x_clean: np.ndarray, w1: dict, w2: dict) -> None:
    """dL/d(out) and dL/d(e) of both views into their d_out and d_e arrays."""
    n, d = x_clean.shape
    k = config.latent_dim
    tau = config.temperature
    e1, e2 = w1["e"], w2["e"]
    d_e1, d_e2 = w1["d_e"], w2["d_e"]
    dots = w1["dots"]  # view 1's serves both views

    # reconstruction: L_r = (mse(out1, x) + mse(out2, x)) / 2
    for w in (w1, w2):
        np.subtract(w["out"], x_clean, out=w["d_out"])
        w["d_out"] /= n * d
    # distance: L_d = mean((e1 - e2)^2)
    np.subtract(e1, e2, out=d_e1)
    d_e1 *= 2.0
    d_e1 /= n * k
    np.negative(d_e1, out=d_e2)
    # contrastive: L_c = mean(rowdot^2) / tau
    np.multiply(e1, e2, out=w1["t_k"])
    np.sum(w1["t_k"], axis=1, keepdims=True, out=dots)
    dots *= 2.0 / (n * tau)
    d_e1 += np.multiply(dots, e2, out=w1["t_k"])
    d_e2 += np.multiply(dots, e1, out=w2["t_k"])


def _backward(p: dict, x: np.ndarray, w: dict, grads: dict, scratch: dict) -> None:
    """Add one view's parameter gradients to ``grads``, from its seeds d_out
    and d_e; ``scratch`` holds one product at a time before it is added."""
    d_out, d_e, d_h, t_h, t_k = w["d_out"], w["d_e"], w["d_h"], w["t_h"], w["t_k"]

    def add_product(key, a, b):
        grads[key] += np.matmul(a.T, b, out=scratch[key])

    def add_column_sums(key, a):
        grads[key] += np.sum(a, axis=0, out=scratch[key])

    # decoder
    add_product("w4", w["a3"], d_out)
    add_column_sums("b4", d_out)
    np.matmul(d_out, p["w4"].T, out=d_h)
    d_h *= _leaky_slope(w["z3"], t_h)  # d_z3
    add_product("w3", w["e"], d_h)
    add_column_sums("b3", d_h)
    d_e += np.matmul(d_h, p["w3"].T, out=t_k)
    # encoder
    add_product("w2", w["ln"], d_e)
    add_column_sums("b2", d_e)
    np.matmul(d_e, p["w2"].T, out=d_h)  # d_ln
    add_column_sums("gamma", np.multiply(d_h, w["xhat"], out=t_h))
    add_column_sums("beta", d_h)
    d_h *= p["gamma"]  # d_xhat
    # layernorm backward (per row, population variance):
    # d_a1 = (d_xhat - mean(d_xhat) - xhat * mean(d_xhat * xhat)) * inv_std
    np.mean(d_h, axis=1, keepdims=True, out=w["mean_dx"])
    np.mean(np.multiply(d_h, w["xhat"], out=t_h), axis=1, keepdims=True, out=w["mean_dx_xhat"])
    d_h -= w["mean_dx"]
    d_h -= np.multiply(w["xhat"], w["mean_dx_xhat"], out=t_h)
    d_h *= w["inv_std"]  # d_a1
    d_h *= _leaky_slope(w["z1"], t_h)  # d_z1
    add_product("w1", x, d_h)
    add_column_sums("b1", d_h)


def _grad_into(
    model: TclModel, x1, x2, x_clean, w1: dict, w2: dict, grads: dict, scratch: dict
) -> LossComponents:
    """Loss of two views, and its gradients written into ``grads``."""
    comps = _forward(model, x1, x2, x_clean, w1, w2)
    _seed(model.config, x_clean, w1, w2)
    # each sum is 0.0 + view 1 + view 2, so a -0.0 comes out as it would
    # from fresh zero arrays
    for g in grads.values():
        g.fill(0.0)
    _backward(model.params, x1, w1, grads, scratch)
    _backward(model.params, x2, w2, grads, scratch)
    for key, g in grads.items():
        check_finite(g, f"gradient of {key}")
    return comps


def grad_on_views(
    model: TclModel, x1, x2, x_clean
) -> tuple[float, LossComponents, dict[str, np.ndarray]]:
    """Loss and analytic parameter gradients for two fixed views."""
    x1, x2, x_clean = _check_views(model, x1, x2, x_clean)
    w1, w2 = (_work_arrays(model.config, x_clean.shape[0], _TRAINING_ARRAYS) for _ in range(2))
    grads = _zero_grads(model)
    comps = _grad_into(model, x1, x2, x_clean, w1, w2, grads, _zero_grads(model))
    return comps.total, comps, grads


def param_vector(model: TclModel) -> np.ndarray:
    """Flatten all parameters in declared layer order."""
    return np.concatenate([model.params[k].ravel() for k in PARAM_KEYS])


def replace_params(model: TclModel, vector: np.ndarray) -> TclModel:
    """New model with parameters taken from a flat vector (inverse of
    :func:`param_vector`)."""
    vector = np.asarray(vector, dtype=np.float64)
    params = {}
    offset = 0
    for key in PARAM_KEYS:
        shape = model.params[key].shape
        size = model.params[key].size
        params[key] = vector[offset : offset + size].reshape(shape).copy()
        offset += size
    if offset != vector.size:
        raise ValueError(f"parameter vector has {vector.size} entries, expected {offset}")
    return TclModel(model.config, params)


def parameter_count(model: TclModel) -> int:
    return sum(v.size for v in model.params.values())


class _Adam:
    """Minimal Adam optimizer over a parameter dict, updating it in place."""

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._num = {k: np.empty_like(v) for k, v in params.items()}
        self._den = {k: np.empty_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for k, p in params.items():
            g, m, v, num, den = grads[k], self.m[k], self.v[k], self._num[k], self._den[k]
            # m = beta1 * m + (1 - beta1) * g
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=num)
            # v = beta2 * v + (1 - beta2) * (g * g)
            v *= self.beta2
            np.multiply(g, g, out=num)
            num *= 1.0 - self.beta2
            v += num
            # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
            np.divide(m, b1t, out=num)
            num *= self.lr
            np.divide(v, b2t, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            p -= num


def train_tcl(data, config: TclConfig) -> tuple[TclModel, TrainTrace]:
    """Minibatch training loop with loss-stabilization early stopping.

    Each epoch shuffles the rows, walks them in batches, and applies Adam
    updates from the analytic gradients.  Training stops once the relative
    change of the epoch-mean total loss over the last three epochs falls
    below ``config.tolerance``, or at ``config.max_epochs``.  An epoch-mean
    loss above ten times the first epoch's raises TrainingError.

    The work arrays of both views, the gradients and Adam's state are
    allocated once, before the first epoch.  The trace records their bytes,
    per-epoch means of all loss components, each epoch's wall-clock
    seconds, and the wall-clock seconds spent inside this function.
    """
    X = np.asarray(data.features if hasattr(data, "features") else data, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("training data must be a non-empty 2-D matrix")
    if X.shape[1] != config.input_dim:
        raise ValueError(f"data has {X.shape[1]} columns, config expects {config.input_dim}")
    n = X.shape[0]
    batch = min(config.batch_size, n)

    start = time.perf_counter()
    model = init_model(config)
    rng = RngStream(config.seed, stream_id=1)
    adam = _Adam(model.params, config.learning_rate)
    grads, scratch = _zero_grads(model), _zero_grads(model)
    views = [_work_arrays(config, batch, _TRAINING_ARRAYS) for _ in range(2)]
    held = (model.params, grads, scratch, adam.m, adam.v, adam._num, adam._den, *views)
    trace = TrainTrace(array_bytes=sum(a.nbytes for arrays in held for a in arrays.values()))
    stop_reason = "max-epochs"
    initial_loss = None  # first batch at the initial parameters

    for epoch in range(config.max_epochs):
        epoch_start = time.perf_counter()
        order = rng.permutation(n)
        sums = np.zeros(3)
        batches = 0
        for lo in range(0, n, batch):
            x = X[order[lo : lo + batch]]
            x1, x2 = augment(x, config, rng)
            w1, w2 = ({name: a[: x.shape[0]] for name, a in w.items()} for w in views)
            comps = _grad_into(model, x1, x2, x, w1, w2, grads, scratch)
            if initial_loss is None:
                initial_loss = comps.total
            adam.step(model.params, grads)
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
                f"{initial_loss:.4g}); use a smaller learning rate"
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
    """Write the model as a JSON container; floats round-trip bit-exactly."""
    write_json(path, {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": model.config.to_dict(),
        "params": {k: model.params[k].tolist() for k in PARAM_KEYS},
    })


def load_model(path) -> TclModel:
    payload = read_json(path, "model file", MODEL_FORMAT, MODEL_VERSION)
    with fields(path, "model file"):
        config = TclConfig.from_dict(payload["config"])
        params = {k: np.asarray(payload["params"][k], dtype=np.float64) for k in PARAM_KEYS}
        for key, value in params.items():
            if not np.isfinite(value).all():
                raise ValueError(f"model parameter {key!r} holds a non-finite value")
        return TclModel(config, params)
