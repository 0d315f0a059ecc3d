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
space with no noise and no decoder.

The encoder is Linear -> LeakyReLU -> LayerNorm -> Linear and the decoder
Linear -> LeakyReLU -> Linear; gradients are computed analytically and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .artifacts import fields, read_json, write_json
from .exceptions import TrainingError
from .numerics import RngStream, check_finite, gaussian_noise

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
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.hidden_dim is None:
            object.__setattr__(self, "hidden_dim", _clamp(2 * self.input_dim, 16, 256))
        if self.latent_dim is None:
            object.__setattr__(self, "latent_dim", _clamp(self.input_dim, 8, 128))
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
        return {
            "input_dim": self.input_dim,
            "hidden_dim": self.hidden_dim,
            "latent_dim": self.latent_dim,
            "noise": self.noise,
            "sigma": self.sigma,
            "mask_prob": self.mask_prob,
            "temperature": self.temperature,
            "batch_size": self.batch_size,
            "max_epochs": self.max_epochs,
            "tolerance": self.tolerance,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "TclConfig":
        return TclConfig(**d)


@dataclass
class TclModel:
    """Encoder/decoder parameter sets plus the config that shaped them."""

    config: TclConfig
    params: dict[str, np.ndarray]

    def __post_init__(self):
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in self.params.items()}
        d, h, k = self.config.input_dim, self.config.hidden_dim, self.config.latent_dim
        expected = {
            "w1": (d, h), "b1": (h,), "gamma": (h,), "beta": (h,),
            "w2": (h, k), "b2": (k,),
            "w3": (k, h), "b3": (h,), "w4": (h, d), "b4": (d,),
        }
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
    """Per-epoch loss record, wall-clock time, and the stop reason."""

    total: list[float] = field(default_factory=list)
    reconstruction: list[float] = field(default_factory=list)
    contrastive: list[float] = field(default_factory=list)
    distance: list[float] = field(default_factory=list)
    seconds: float = 0.0
    epochs: int = 0
    stop_reason: str = ""


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


def _leaky(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0.0, z, LEAKY_SLOPE * z)


def _leaky_grad(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0.0, 1.0, LEAKY_SLOPE)


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


def _check_input(model: TclModel, x, width: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"{what} must be 2-D with {width} columns, got shape {x.shape}")
    return x


def _encode_cached(model: TclModel, x: np.ndarray) -> dict:
    p = model.params
    z1 = check_finite(x @ p["w1"] + p["b1"], "encoder linear 1")
    a1 = _leaky(z1)
    mu = a1.mean(axis=1, keepdims=True)
    var = a1.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (a1 - mu) * inv_std
    ln = check_finite(xhat * p["gamma"] + p["beta"], "encoder layernorm")
    e = check_finite(ln @ p["w2"] + p["b2"], "encoder linear 2")
    return {"x": x, "z1": z1, "xhat": xhat, "inv_std": inv_std, "ln": ln, "e": e}


def _decode_cached(model: TclModel, e: np.ndarray) -> dict:
    p = model.params
    z3 = check_finite(e @ p["w3"] + p["b3"], "decoder linear 1")
    a3 = _leaky(z3)
    out = check_finite(a3 @ p["w4"] + p["b4"], "decoder linear 2")
    return {"z3": z3, "a3": a3, "out": out}


def encode(model: TclModel, x) -> np.ndarray:
    """Deterministic encoder forward pass (n x latent_dim)."""
    x = _check_input(model, x, model.config.input_dim, "input")
    return _encode_cached(model, x)["e"]


def decode(model: TclModel, e) -> np.ndarray:
    """Deterministic decoder forward pass (n x input_dim)."""
    e = _check_input(model, e, model.config.latent_dim, "embedding")
    return _decode_cached(model, e)["out"]


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


def _forward(model: TclModel, x1, x2, x_clean):
    """Both views through encoder and decoder, and the three loss terms."""
    x_clean = _check_input(model, x_clean, model.config.input_dim, "clean batch")
    enc1 = _encode_cached(model, _check_input(model, x1, model.config.input_dim, "view 1"))
    enc2 = _encode_cached(model, _check_input(model, x2, model.config.input_dim, "view 2"))
    dec1 = _decode_cached(model, enc1["e"])
    dec2 = _decode_cached(model, enc2["e"])
    comps = LossComponents(
        reconstruction=loss_reconstruction(dec1["out"], dec2["out"], x_clean),
        contrastive=loss_contrastive(enc1["e"], enc2["e"], model.config.temperature),
        distance=loss_distance(enc1["e"], enc2["e"]),
    )
    return x_clean, enc1, enc2, dec1, dec2, comps


def loss_on_views(model: TclModel, x1, x2, x_clean) -> tuple[float, LossComponents]:
    """Total loss for two fixed noisy views against the clean batch.

    Pure in the parameters, which makes it the target for the
    finite-difference gradient oracle.
    """
    comps = _forward(model, x1, x2, x_clean)[-1]
    return comps.total, comps


def loss_total(batch, model: TclModel, rng: RngStream) -> tuple[float, LossComponents]:
    """Draw two noisy views from ``rng`` and evaluate the three-part loss."""
    x = np.asarray(batch, dtype=np.float64)
    x1, x2 = augment(x, model.config, rng)
    return loss_on_views(model, x1, x2, x)


def _zero_grads(model: TclModel) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in model.params.items()}


def _backward_view(
    model: TclModel, enc: dict, dec: dict, d_out: np.ndarray, d_e: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate gradients for one view given dL/d(out) and dL/d(e)."""
    p = model.params
    # decoder
    grads["w4"] += dec["a3"].T @ d_out
    grads["b4"] += d_out.sum(axis=0)
    d_a3 = d_out @ p["w4"].T
    d_z3 = d_a3 * _leaky_grad(dec["z3"])
    grads["w3"] += enc["e"].T @ d_z3
    grads["b3"] += d_z3.sum(axis=0)
    d_e = d_e + d_z3 @ p["w3"].T
    # encoder
    grads["w2"] += enc["ln"].T @ d_e
    grads["b2"] += d_e.sum(axis=0)
    d_ln = d_e @ p["w2"].T
    grads["gamma"] += (d_ln * enc["xhat"]).sum(axis=0)
    grads["beta"] += d_ln.sum(axis=0)
    d_xhat = d_ln * p["gamma"]
    # layernorm backward (per row, population variance)
    mean_dx = d_xhat.mean(axis=1, keepdims=True)
    mean_dx_xhat = (d_xhat * enc["xhat"]).mean(axis=1, keepdims=True)
    d_a1 = (d_xhat - mean_dx - enc["xhat"] * mean_dx_xhat) * enc["inv_std"]
    d_z1 = d_a1 * _leaky_grad(enc["z1"])
    grads["w1"] += enc["x"].T @ d_z1
    grads["b1"] += d_z1.sum(axis=0)


def grad_on_views(
    model: TclModel, x1, x2, x_clean
) -> tuple[float, LossComponents, dict[str, np.ndarray]]:
    """Loss and analytic parameter gradients for two fixed views."""
    x_clean, enc1, enc2, dec1, dec2, comps = _forward(model, x1, x2, x_clean)
    n, d = x_clean.shape
    k = model.config.latent_dim
    tau = model.config.temperature
    e1, e2 = enc1["e"], enc2["e"]

    # reconstruction: L_r = (mse(out1, x) + mse(out2, x)) / 2
    d_out1 = (dec1["out"] - x_clean) / (n * d)
    d_out2 = (dec2["out"] - x_clean) / (n * d)
    # distance: L_d = mean((e1 - e2)^2)
    d_e1 = 2.0 * (e1 - e2) / (n * k)
    d_e2 = -d_e1
    # contrastive: L_c = mean(rowdot^2) / tau
    dots = (e1 * e2).sum(axis=1, keepdims=True)
    d_e1 = d_e1 + (2.0 / (n * tau)) * dots * e2
    d_e2 = d_e2 + (2.0 / (n * tau)) * dots * e1

    grads = _zero_grads(model)
    _backward_view(model, enc1, dec1, d_out1, d_e1, grads)
    _backward_view(model, enc2, dec2, d_out2, d_e2, grads)
    for key, g in grads.items():
        check_finite(g, f"gradient of {key}")
    return comps.total, comps, grads


def grad_loss(
    model: TclModel, batch, rng: RngStream
) -> tuple[float, LossComponents, dict[str, np.ndarray]]:
    """Draw noise once, then return loss, components, and analytic gradients."""
    x = np.asarray(batch, dtype=np.float64)
    x1, x2 = augment(x, model.config, rng)
    return grad_on_views(model, x1, x2, x)


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
    """Minimal Adam optimizer over a parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for k in params:
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            mhat = self.m[k] / b1t
            vhat = self.v[k] / b2t
            params[k] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def train_tcl(data, config: TclConfig) -> tuple[TclModel, TrainTrace]:
    """Minibatch training loop with loss-stabilization early stopping.

    Each epoch shuffles the rows, walks them in batches, and applies Adam
    updates from the analytic gradients.  Training stops once the relative
    change of the epoch-mean total loss over the last three epochs falls
    below ``config.tolerance``, or at ``config.max_epochs``.  An epoch-mean
    loss above ten times the first epoch's raises TrainingError.

    The trace records per-epoch means of all loss components and the
    wall-clock seconds spent inside this function.
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
    trace = TrainTrace()
    stop_reason = "max-epochs"
    initial_loss = None  # first batch at the initial parameters

    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        sums = np.zeros(3)
        batches = 0
        for lo in range(0, n, batch):
            rows = order[lo : lo + batch]
            total, comps, grads = grad_loss(model, X[rows], rng)
            if initial_loss is None:
                initial_loss = total
            adam.step(model.params, grads)
            sums += (comps.reconstruction, comps.contrastive, comps.distance)
            batches += 1
        means = sums / batches
        trace.reconstruction.append(float(means[0]))
        trace.contrastive.append(float(means[1]))
        trace.distance.append(float(means[2]))
        trace.total.append(float(means.sum()))

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
        return TclModel(config, params)
