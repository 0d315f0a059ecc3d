"""Reference implementations that the tests check the package against.

None of these runs in the pipeline.  The three ``loss_*`` functions are the
loss terms as written down, each on its own arrays; the training step's
gradient seed (``contrastive._seed``) computes the same terms from the
residuals and row dots it forms anyway, and the tests hold it to their bits.
:func:`oracle_terms` evaluates them on :func:`tabcl.contrastive.encode` and
:func:`ref_decode`, and :func:`oracle_loss` sums them, so the
finite-difference checks of the analytic gradients do not run the code
they check.  :func:`hessian_product` is the
logistic fit's Hessian-vector product in float64, the reference for the
package's float32 one.  :func:`read_split_csv` reads a split side's CSV
export, which the package writes and never reads back.
"""

import csv
import warnings
from typing import Callable

import numpy as np

from tabcl.contrastive import LEAKY_SLOPE, TclModel, encode
from tabcl.data import LABEL_TYPES
from tabcl.exceptions import NumericError
from tabcl.numerics import RngStream

Array = np.ndarray


# The loss terms compute in their inputs' dtype and return a Python float.

def _floats(*arrays) -> list[Array]:
    """The arrays in one dtype: float32 if all are float32, else float64."""
    arrays = [np.asarray(a) for a in arrays]
    dtype = np.float32 if all(a.dtype == np.float32 for a in arrays) else np.float64
    return [a.astype(dtype, copy=False) for a in arrays]


def loss_reconstruction(xhat1, xhat2, x_clean) -> float:
    """Mean over both views of the MSE against the clean batch."""
    a, b, x = _floats(xhat1, xhat2, x_clean)
    if a.shape != x.shape or b.shape != x.shape:
        raise ValueError("reconstructions and clean batch must share one shape")
    return 0.5 * (float(np.mean((a - x) ** 2)) + float(np.mean((b - x) ** 2)))


def loss_distance(e1, e2) -> float:
    """MSE between the two embedded views."""
    a, b = _floats(e1, e2)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def loss_contrastive(e1, e2) -> float:
    """Mean squared per-row dot product of paired embeddings."""
    a, b = _floats(e1, e2)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    dots = (a * b).sum(axis=1)
    return float(np.mean(dots * dots))


def ref_leaky(z):
    return np.where(z > 0.0, z, LEAKY_SLOPE * z)


def ref_decode(p, e):
    """The decoder Linear -> LeakyReLU -> Linear on fresh arrays."""
    z3 = e @ p["w3"] + p["b3"]
    a3 = ref_leaky(z3)
    return {"z3": z3, "a3": a3, "out": a3 @ p["w4"] + p["b4"]}


def oracle_terms(model: TclModel, x1, x2, x_clean) -> tuple[float, float, float]:
    """The reconstruction, contrastive and distance terms of two fixed
    views: the ``loss_*`` formulas on :func:`encode` and :func:`ref_decode`
    of the views stacked into one matrix, as a training step stacks them.
    (A BLAS product over the n rows of one view can differ in the last bit
    from the same rows inside the 2n-row stack.)"""
    n = len(x1)
    e = encode(model, np.concatenate((x1, x2)))
    out = ref_decode(model.params, e)["out"]
    return (loss_reconstruction(out[:n], out[n:], x_clean),
            loss_contrastive(e[:n], e[n:]),
            loss_distance(e[:n], e[n:]))


def oracle_loss(model: TclModel, x1, x2, x_clean) -> float:
    """Total loss of two fixed views: the sum of :func:`oracle_terms`."""
    r, c, d = oracle_terms(model, x1, x2, x_clean)
    return r + c + d


def hessian_product(obj, v) -> Array:
    """The Hessian-vector product of a ``tabcl.heads._Objective`` in float64
    throughout, at the probabilities its last ``value`` left: each row's
    block of H is ``diag(p) - p p^T``.  The package takes the same product
    in float32."""
    zv = v @ obj.xt
    q = (zv - (obj.p * zv).sum(axis=0)) * obj.p
    return q @ obj.xt.T / obj.n + obj.pen * v


def finite_diff_grad(f: Callable[[Array], float], theta, eps: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function.

    Evaluates ``(f(theta + eps*e_i) - f(theta - eps*e_i)) / (2*eps)`` per
    coordinate.  This is the independent oracle used to verify analytic
    gradients.
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


def weibull_sample(n: int, shape: float, scale: float, rng: RngStream) -> np.ndarray:
    """Inverse-CDF sampling: ``scale * (-log(1-u))**(1/shape)``."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    u = rng.uniform(1, n)[0]
    return scale * (-np.log1p(-u)) ** (1.0 / shape)


def draw_integers(rng: RngStream, low: int, high: int, size: int) -> np.ndarray:
    """``size`` integers in ``[low, high)`` from ``rng``'s generator, such as
    random class labels; the pipeline draws none."""
    return rng._gen.integers(low, high, size=size)


def replace_params(model: TclModel, vector: np.ndarray) -> TclModel:
    """New model of ``model``'s config holding a copy of the flat ``vector``
    (laid out as :attr:`TclModel.vector`), in the vector's dtype."""
    return TclModel(model.config, np.array(vector))


def read_split_csv(path, schema) -> tuple[Array, Array]:
    """The features and labels of a split side's CSV export, as strictly as
    the writer writes it; anything else raises ValueError or numpy's warning.

    ``csv.reader`` reads the header, so a quoted encoded name matches, and
    the header must be the schema's encoded names and target.  One
    ``np.loadtxt`` call parses the body, and any warning it gives is an
    error: numpy 1.x reads a class label such as ``1.0`` as 1 and only
    warns."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = [name.strip() for name in next(csv.reader(fh), ())]
        if header != [*schema.encoded_names(), schema.target]:
            raise ValueError(f"{path}: header does not match the stored schema")
        lines = fh.read().split("\n")
    dtype = [("f", np.float64, (len(header) - 1,)), ("y", LABEL_TYPES[schema.task])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=dtype)
    return table["f"].copy(), table["y"].copy()  # C-contiguous
