"""Dense neural-network machinery with manual backprop.

Plain-numpy MLP backbones, softmax/sigmoid primitives with their analytic
gradients, SGD with momentum on a linear learning-rate schedule, a
central-difference gradient checker, and a bit-exact binary checkpoint
container.

All math is float64. A weight matrix of shape (out_dim, in_dim) maps
x -> x @ W.T + b; batches are row-stacked.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError

ACTIVATIONS = ("relu", "linear")


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    """Uniform init in (-a, a) with a = sqrt(6 / (fan_in + fan_out)).

    Keeps initial feature dot products small so the pair-loss sigmoid starts
    well away from saturation.
    """
    a = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-a, a, size=(out_dim, in_dim))


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def softmax_cross_entropy(logits: np.ndarray, label: int):
    """Softmax cross-entropy for one sample.

    Returns (loss, grad_logits); grad is softmax(logits) minus the one-hot
    target. Uses max-subtraction for stability.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ShapeError(f"logits must be a non-empty vector, got shape {logits.shape}")
    if not 0 <= label < logits.size:
        raise ShapeError(f"label {label} out of range for {logits.size} classes")
    z = logits - np.max(logits)
    lse = math.log(np.sum(np.exp(z)))
    loss = lse - z[label]
    grad = np.exp(z - lse)
    grad[label] -= 1.0
    return float(loss), grad


def softmax_cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Row-wise softmax cross-entropy. Returns (losses (N,), grads (N, C))."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or logits.shape[1] == 0:
        raise ShapeError(f"expected (N, C) logits, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ShapeError("labels must align with logit rows")
    if np.any(labels < 0) or np.any(labels >= logits.shape[1]):
        raise ShapeError("label out of range")
    z = logits - np.max(logits, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1))
    rows = np.arange(logits.shape[0])
    losses = lse - z[rows, labels]
    grads = np.exp(z - lse[:, None])
    grads[rows, labels] -= 1.0
    return losses, grads


def binary_cross_entropy_with_logit(d: float, t: int):
    """Stable BCE of sigmoid(d) against target t in {0, 1}.

    loss = max(d, 0) - d*t + log(1 + exp(-|d|)); grad = sigmoid(d) - t.
    Avoids overflow for large |d|.
    """
    d = float(d)
    if not math.isfinite(d):
        raise NumericError("non-finite pair logit")
    loss = max(d, 0.0) - d * t + math.log1p(math.exp(-abs(d)))
    grad = sigmoid(d) - t
    return loss, grad


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray  # (out,)
    activation: str  # "relu" for hidden layers, "linear" for the feature layer

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ShapeError("layer weight/bias shapes disagree")


class MlpBackbone:
    """Fully connected feature extractor; the final feature layer is linear."""

    def __init__(self, layers):
        if not layers:
            raise ConfigError("backbone needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ShapeError("consecutive layer shapes do not chain")
        self.layers = list(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    @classmethod
    def build(cls, dims, rng: np.random.Generator) -> "MlpBackbone":
        """Create a backbone from [input_dim, hidden..., feature_dim]."""
        dims = [int(d) for d in dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ConfigError(f"bad backbone dims {dims}")
        layers = []
        for k, (din, dout) in enumerate(zip(dims, dims[1:])):
            act = "linear" if k == len(dims) - 2 else "relu"
            layers.append(Layer(glorot_uniform(rng, dout, din), np.zeros(dout), act))
        return cls(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Feature vector(s) for an input vector (D,) or batch (N, D)."""
        feats, _ = self.forward_cached(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        if np.asarray(x).ndim == 1:
            return feats[0]
        return feats

    def forward_cached(self, x: np.ndarray):
        """Batch forward returning (features, cache) for backward()."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.input_dim:
            raise ShapeError(
                f"input shape {a.shape} does not match backbone input dim {self.input_dim}"
            )
        cache = []
        for layer in self.layers:
            z = a @ layer.weights.T + layer.biases
            cache.append((a, z))
            a = relu(z) if layer.activation == "relu" else z
        if not np.all(np.isfinite(a)):
            raise NumericError("non-finite activation in backbone forward pass")
        return a, cache

    def backward(self, cache, dfeat: np.ndarray):
        """Gradients for all layer parameters given d(loss)/d(features).

        Returns a flat list [dW0, db0, dW1, db1, ...] matching parameters().
        """
        grads = [None] * (2 * len(self.layers))
        g = np.asarray(dfeat, dtype=np.float64)
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            a_in, z = cache[k]
            if layer.activation == "relu":
                g = g * (z > 0)
            grads[2 * k] = g.T @ a_in
            grads[2 * k + 1] = g.sum(axis=0)
            if k > 0:
                g = g @ layer.weights
        return grads

    def parameters(self):
        """Live parameter arrays in the order mirrored by backward()."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out


@dataclass
class ClassifierHead:
    """Last fully connected layer: logits = f @ W.T + b."""

    weights: np.ndarray  # (num_classes, feature_dim)
    biases: np.ndarray  # (num_classes,)

    def __post_init__(self):
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ShapeError("head weight/bias shapes disagree")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def build(cls, num_classes, feature_dim, rng) -> "ClassifierHead":
        return cls(glorot_uniform(rng, int(num_classes), int(feature_dim)), np.zeros(int(num_classes)))

    def logits(self, feats: np.ndarray) -> np.ndarray:
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape[-1] != self.feature_dim:
            raise ShapeError(
                f"feature dim {feats.shape[-1]} does not match head dim {self.feature_dim}"
            )
        return feats @ self.weights.T + self.biases

    def parameters(self):
        return [self.weights, self.biases]


@dataclass
class SgdConfig:
    """SGD-with-momentum settings and the linear learning-rate schedule."""

    momentum: float = 0.9
    lr_start: float = 0.01
    lr_end: float = 0.0001
    total_steps: int = 1
    batch_size: int = 28
    epochs: int = 5

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        # lr_end == 0 is allowed as a degenerate no-op schedule (useful in tests)
        if not self.lr_start >= self.lr_end >= 0.0:
            raise ConfigError(f"need lr_start >= lr_end >= 0, got {self.lr_start}, {self.lr_end}")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")

    def learning_rate(self, step: int) -> float:
        """Affine interpolation from lr_start at step 0 to lr_end at the last step."""
        if not 0 <= step < self.total_steps:
            raise ConfigError(f"step {step} outside schedule of {self.total_steps} steps")
        if self.total_steps == 1:
            return self.lr_start
        frac = step / (self.total_steps - 1)
        # symmetric form lands exactly on lr_end at the final step
        return (1.0 - frac) * self.lr_start + frac * self.lr_end


def sgd_step(params, grads, velocity, step_index: int, config: SgdConfig) -> None:
    """One in-place momentum update over aligned parameter/grad/velocity lists.

    velocity <- momentum * velocity - lr(step) * grad; param <- param + velocity.
    """
    if not (len(params) == len(grads) == len(velocity)):
        raise ShapeError("params, grads, and velocity lists must align")
    lr = config.learning_rate(step_index)
    for p, g, v in zip(params, grads, velocity):
        if p.shape != g.shape or p.shape != v.shape:
            raise ShapeError(f"shape mismatch in sgd_step: {p.shape}, {g.shape}, {v.shape}")
        v *= config.momentum
        v -= lr * g
        p += v


def finite_diff_check(loss_and_grad, theta: np.ndarray, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_and_grad(theta) must return (loss, grad) and be deterministic.
    Relative error per coordinate is |a - n| / max(1, |a|, |n|).
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    loss0, grad = loss_and_grad(theta)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ShapeError("analytic gradient shape does not match parameters")
    if not (math.isfinite(loss0) and np.all(np.isfinite(grad))):
        raise NumericError("non-finite loss or gradient at the base point")
    worst = 0.0
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = epsilon
        lp = loss_and_grad(theta + bump)[0]
        lm = loss_and_grad(theta - bump)[0]
        if not (math.isfinite(lp) and math.isfinite(lm)):
            raise NumericError(f"non-finite loss at perturbed coordinate {i}")
        numeric = (lp - lm) / (2.0 * epsilon)
        rel = abs(grad[i] - numeric) / max(1.0, abs(grad[i]), abs(numeric))
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Checkpoint container
#
# Layout (little-endian):
#   bytes 0..3   magic "MDCK"
#   bytes 4..7   uint32 format version (currently 1)
#   bytes 8..11  uint32 header length H
#   H bytes      UTF-8 JSON: {"meta": {...}, "arrays": [{"name", "shape"}, ...]}
#   then         the arrays' float64 little-endian C-order bytes, in order
# Round trips are bit-exact.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MDCK"
CHECKPOINT_VERSION = 1


def write_checkpoint(path, meta: dict, arrays) -> None:
    """Write named float64 arrays plus a JSON meta block."""
    entries = []
    blobs = []
    for name, arr in arrays:
        arr = np.asarray(arr, dtype="<f8", order="C")
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.uint32(CHECKPOINT_VERSION).tobytes())
        fh.write(np.uint32(len(header)).tobytes())
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def read_checkpoint(path):
    """Read a checkpoint written by write_checkpoint; returns (meta, {name: array})."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    if len(raw) < 12:
        raise DataError(f"{path}: truncated checkpoint header")
    version = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise DataError(f"{path}: corrupt checkpoint header: {exc}") from exc
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)):
        raise DataError(f"{path}: checkpoint header needs a meta object and an arrays list")
    offset = 12 + hlen
    out = {}
    for entry in header["arrays"]:
        try:
            name = str(entry["name"])
            shape = tuple(int(d) for d in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed array entry {entry!r}") from exc
        if any(d < 0 for d in shape):
            raise DataError(f"{path}: negative dimension in array {name}")
        count = int(np.prod(shape)) if shape else 1
        blob = raw[offset : offset + 8 * count]
        if len(blob) != 8 * count:
            raise DataError(f"{path}: truncated array {name}")
        out[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
        offset += 8 * count
    return header["meta"], out
