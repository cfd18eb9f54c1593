"""Dense neural-network machinery with manual backprop.

Plain-numpy MLP backbones, softmax/sigmoid primitives with their analytic
gradients, SGD with momentum on a linear learning-rate schedule, a
central-difference gradient checker, and a bit-exact binary checkpoint
container.

All math is float64. A weight matrix of shape (out_dim, in_dim) maps
x -> x @ W.T + b; batches are row-stacked.

A model being trained keeps its parameters in one contiguous vector:
pack_parameters() copies every weight and bias into it and rebinds each
Layer/ClassifierHead attribute to its view, and hands back a gradient vector
of the same layout whose views backward() writes into. sgd_step() then runs
over whole vectors, block by block, without allocating per step. backward()
multiplies out a ReLU layer's weight-gradient rows only for the units that
fired; a LiveRows record, kept by the gradient's owner, tells it which rows
of the arrays the last call left non-zero.

A training also proves first-layer ReLU rows dead and frozen: a FrozenRows
record, kept beside LiveRows by the training loop, certifies every
FREEZE_EVERY steps that a row's unit cannot fire on any input its network is
fed, however far the momentum tail of its update still moves it (dead), and
that a dead row's momentum update is a no-op (frozen), so that it can never
change again. Once a first layer has at most SUBSET_WIDTH live rows, rows
not dead, forward_cached() multiplies out those rows only, padded with dead
ones to the narrowest width that gives the full product's bits, and
sgd_step() updates only them in that matrix. The steps a dead row is left
out of pend; the record replays them in bulk at each certificate, until the
row is frozen, and once more when the training ends. All of it writes the
bytes of the full path.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .pgm import write_file

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


class LiveRows:
    """Weight-gradient rows of ReLU units that fired, kept between backward()
    calls by whoever owns the gradient arrays.

    A unit whose masked gradient column is zero on every batch row has an
    exactly zero weight-gradient row, and the full product g.T @ a writes it
    as +0.0. weight_gradient() multiplies out only the other rows, so every
    row it skips must already hold +0.0. For each array it wrote (matched with
    `is`, and held here, so that the match cannot be a reused object) this
    record keeps the rows the last write may have left non-zero; the next
    write clears just those that are now dead. An array it does not know is
    first cleared of every dead row. Nothing else may write those arrays
    between two calls.
    """

    def __init__(self):
        # [array, rows it may hold non-zero, rows non-zero in a call since fired() read them]
        self._written = []
        self._scratch = np.empty(0)  # the live-row product, sized to the largest array

    def _entry(self, dw):
        return next((entry for entry in self._written if entry[0] is dw), None)

    def weight_gradient(self, g: np.ndarray, a_in: np.ndarray, dw: np.ndarray) -> None:
        """dw = g.T @ a_in, bit for bit, with the rows of zero columns of g
        not multiplied out."""
        fired = g.any(axis=0)
        live = np.flatnonzero(fired)
        entry = self._entry(dw)
        if entry is None:  # an array not written here may hold anything in any row
            entry = [dw, np.arange(fired.size), np.zeros(fired.size, dtype=bool)]
            self._written.append(entry)
        entry[2] |= fired
        # All rows, or one: NumPy takes a vector path for a single row, whose
        # sums need not match the GEMM's.
        if live.size in (1, fired.size):
            np.matmul(g.T, a_in, out=dw)
        else:
            written = entry[1]
            dw[written[~fired[written]]] = 0.0  # rows this array may hold that are dead now
            if live.size:
                if self._scratch.size < live.size * a_in.shape[1]:
                    self._scratch = np.empty(dw.size)
                product = self._scratch[: live.size * a_in.shape[1]].reshape(live.size, -1)
                np.matmul(g[:, live].T, a_in, out=product)
                dw[live] = product
        entry[1] = live

    def fired(self, dw: np.ndarray) -> np.ndarray:
        """Mask of the rows of dw that a call since the last fired(dw) may have
        made non-zero: the units that fired there with a non-zero gradient."""
        entry = self._entry(dw)
        if entry is None:
            return np.zeros(dw.shape[0], dtype=bool)
        mask, entry[2] = entry[2], np.zeros_like(entry[2])
        return mask


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
        """Features (N, feature_dim) of an input batch (N, D)."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray, frozen_rows=None):
        """Batch forward returning (features, cache) for backward().

        frozen_rows, the FrozenRows record of a training, may give a first
        layer's pre-activation from its live rows only (see
        FrozenRows.pre_activation); the bytes of a, z > 0 and the features
        are those of the full product.
        """
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.input_dim:
            raise ShapeError(
                f"input shape {a.shape} does not match backbone input dim {self.input_dim}"
            )
        cache = []
        for layer in self.layers:
            z = None if frozen_rows is None else frozen_rows.pre_activation(layer, a)
            if z is None:
                z = a @ layer.weights.T + layer.biases
            cache.append((a, z))
            a = relu(z) if layer.activation == "relu" else z
        if not np.all(np.isfinite(a)):
            raise NumericError("non-finite activation in backbone forward pass")
        return a, cache

    def backward(self, cache, dfeat: np.ndarray, out, live_rows: LiveRows):
        """Gradients for all layer parameters given d(loss)/d(features).

        Writes [dW0, db0, dW1, db1, ...], matching parameters(), into `out`
        (arrays of those shapes, e.g. gradient views from pack_parameters)
        and returns it. A ReLU layer's weight gradient goes through
        live_rows.weight_gradient, which multiplies out only the rows of units
        that fired; live_rows is the record of what earlier calls left in
        those arrays (a new LiveRows() for arrays of unknown content).
        """
        g = np.asarray(dfeat, dtype=np.float64)
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            a_in, z = cache[k]
            if layer.activation == "relu":
                g = g * (z > 0)
                live_rows.weight_gradient(g, a_in, out[2 * k])
            else:
                np.matmul(g.T, a_in, out=out[2 * k])
            np.sum(g, axis=0, out=out[2 * k + 1])
            if k > 0:
                g = g @ layer.weights
        return out

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


def pack_parameters(units):
    """Move the weights and biases of `units` into one contiguous vector.

    `units` are Layers and ClassifierHeads in parameter order. Each one's
    `weights` and `biases` are copied into the vector and rebound to their
    views, so parameters() returns the views. Returns (params, grad,
    grad_views): the parameter vector, a zero gradient vector of the same
    layout, and its views in parameter order.
    """
    params = np.empty(sum(unit.weights.size + unit.biases.size for unit in units))
    grad = np.zeros_like(params)
    grad_views = []
    offset = 0
    for unit in units:
        for name in ("weights", "biases"):
            array = getattr(unit, name)
            end = offset + array.size
            view = params[offset:end].reshape(array.shape)
            view[...] = array
            setattr(unit, name, view)
            grad_views.append(grad[offset:end].reshape(array.shape))
            offset = end
    return params, grad, grad_views


# Elements per block of sgd_step: one block of params, grad, velocity and the
# lr * grad scratch (4 x 128 KiB) stays in L2 across the three passes. Much
# smaller blocks pay more in per-block call overhead than they save.
SGD_BLOCK = 16384


def sgd_step(params, grads, velocity, step_index: int, config: SgdConfig,
             frozen_rows=None) -> None:
    """One in-place momentum update over aligned parameter/grad/velocity lists.

    velocity <- momentum * velocity - lr(step) * grad; param <- param + velocity.
    Runs block by block with one reused lr * grad buffer; grads are not
    modified. Every array must be C-contiguous, so that the update reaches it
    and not a copy. frozen_rows, the FrozenRows record over the packed
    vectors, takes the first-layer matrices on its subset path out of the
    blocks and updates their live rows alone: a dead row's step pends until
    the record replays it, and a frozen row's update is a no-op.
    """
    if not (len(params) == len(grads) == len(velocity)):
        raise ShapeError("params, grads, and velocity lists must align")
    if frozen_rows is not None and frozen_rows.momentum != config.momentum:
        raise ConfigError("sgd_step momentum differs from the FrozenRows record's")
    lr = config.learning_rate(step_index)
    scratch = np.empty(SGD_BLOCK)
    for p, g, v in zip(params, grads, velocity):
        if p.shape != g.shape or p.shape != v.shape:
            raise ShapeError(f"shape mismatch in sgd_step: {p.shape}, {g.shape}, {v.shape}")
        if not (p.flags.c_contiguous and g.flags.c_contiguous and v.flags.c_contiguous):
            raise ShapeError("sgd_step needs C-contiguous params, grads and velocity")
        skipped = () if frozen_rows is None else frozen_rows.subset_spans(p)
        p, g, v = p.reshape(-1), g.reshape(-1), v.reshape(-1)
        start = 0
        for skip_start, skip_end in (*skipped, (p.size, p.size)):
            for block in range(start, skip_start, SGD_BLOCK):
                end = min(block + SGD_BLOCK, skip_start)
                vb = v[block:end]
                lr_g = np.multiply(g[block:end], lr, out=scratch[: end - block])
                vb *= config.momentum
                vb -= lr_g
                p[block:end] += vb
            start = skip_end
    if frozen_rows is not None:
        frozen_rows.update_live_rows(lr)


# Steps between two certificates of a training's first-layer rows.
FREEZE_EVERY = 20
# Most columns of a first layer's subset product: its live rows, padded with
# dead ones to a multiple of 8 columns and to SUBSET_MIN_WIDTH at least. On
# OpenBLAS at 1024 inputs, 40 to 64 columns reproduced the bits of the full
# 256-row product for a batch of 28 and 48 to 64 for one of 24, and no
# narrower multiple of 8 did; at 128 columns the subset is no faster than the
# full product.
SUBSET_WIDTH = 64
SUBSET_MIN_WIDTH = 40
# Half an ulp of the smallest subnormal, 2**-1075, is what rounding can add to
# a decaying velocity element a step; twice that over 2**64 steps is the floor
# under the geometric bound of what the element's tail moves its parameter.
_TAIL_FLOOR = 2.0 ** -1010


def _update_is_a_no_op(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mask of the elements for which p + v rounds to p bit for bit, and
    keeps doing so while v only shrinks: |v| < |p| * 2**-54, under half an
    ulp of p, or v == 0 with p not -0.0 (-0.0 + +0.0 is +0.0)."""
    return (np.abs(v) < np.abs(p) * 2.0 ** -54) | ((v == 0) & ((p != 0) | ~np.signbit(p)))


class _FirstLayer:
    """A first ReLU layer's views into the packed vectors and its proof state."""

    def __init__(self, layer, blocks, grad_views, velocity, start):
        rows, width = layer.weights.shape
        self.layer = layer
        self.blocks = blocks
        self.grad_weights, self.grad_biases = grad_views
        self.velocity_weights = velocity[start : start + rows * width].reshape(rows, width)
        self.velocity_biases = velocity[start + rows * width : start + rows * (width + 1)]
        self.span = (start, start + rows * (width + 1))
        self.dead = np.zeros(rows, dtype=bool)
        self.frozen = np.zeros(rows, dtype=bool)  # dead rows whose update is a no-op
        self.pending = 0  # steps the dead rows that are not frozen were left out of
        self.live = np.arange(rows)
        self.subset = None  # (SUBSET_WIDTH, width): the live rows of weights, then dead ones
        self.exact = {}  # subset width -> whether its product reproduced the full one


class FrozenRows:
    """First-layer ReLU rows that a training has proven dead, whose unit can
    never fire again, and frozen, which can never change again. The training
    loop keeps this record beside its LiveRows, over its packed vectors
    (pack_parameters) and with its momentum m, for one training.

    certify() tests both certificates every FREEZE_EVERY steps:

    - A row, a unit's weights w and its bias b, is dead when
      max z + D + 2 * gamma * (||w||_1 + |b| + D) < 0 over every input its
      network is fed, with z the computed pre-activation,
      gamma = (k+2)u / (1 - (k+2)u) for k inputs in [-1, 1] and u = 2**-53,
      and D = (2q * (||v_w||_1 + |v_b|) + k * _TAIL_FLOOR) / (1 - q) for
      the row's velocity v and q = m * (1 + 2**-52) (no row is dead if
      q >= 1). gamma bounds the rounding error of any summation order of
      the k + 1 terms (Higham, Accuracy and Stability of Numerical
      Algorithms, 3.1), with one term to spare for the bound's own rounding.
      A unit that does not fire gets a +0.0 gradient row (LiveRows), so its
      update is v <- fl(m * v); p <- fl(p + v), with |fl(m * v)| <= q|v|
      (plus 2**-1075 below the normal range) and |fl(p + v) - p| <= 2|v|:
      D bounds all that this tail can still move z over 2**64 steps. So the
      unit does not fire at the next step, nor, by induction, ever again.
      The rows tested are those not dead that LiveRows has not seen fire
      since the last certificate.
    - A dead row is frozen once its momentum update is a no-op: for every
      element, |v| < |p| * 2**-54, or v == 0 with p not -0.0.

    While a first layer has more than SUBSET_WIDTH live rows (rows not dead),
    nothing here changes a step. With SUBSET_WIDTH or fewer, pre_activation()
    multiplies out the live rows, padded with dead ones, whose columns are
    discarded, to the narrowest width that reproduces the full product
    (_width), and writes 0.0 for the dead columns; sgd_step() updates the
    live rows by gather and scatter and leaves the dead ones out. What a dead
    row was left out of is its pending tail, the update with its +0.0
    gradient row of each step. It is replayed in bulk, bit for bit, at two
    catch-up points: at each certify(), until the row is frozen, and by
    catch_up(), which the training loop calls before it returns, so that the
    packed vectors hold the weights of the full path. A subset width whose
    product does not reproduce the full product's bits on its first batch (a
    matter of the BLAS kernel the shapes select) falls back to SUBSET_WIDTH
    columns; a layer where that fails too keeps the full product and the full
    update until rows that die make a width it has not tried its narrowest.

    feeds pairs first layers with a callable that yields, in blocks, the
    inputs of every image their network is fed. A layer that is not a ReLU
    layer of units is left alone.
    """

    def __init__(self, units, params, grad_views, velocity, feeds, momentum: float):
        self.params = params
        self.momentum = momentum
        self._layers = []
        start = 0
        for k, unit in enumerate(units):
            blocks = next((blocks for layer, blocks in feeds if layer is unit), None)
            if blocks is not None and unit.activation == "relu":
                self._layers.append(_FirstLayer(unit, blocks, grad_views[2 * k : 2 * k + 2],
                                                velocity, start))
            start += unit.weights.size + unit.biases.size
        width = max((entry.layer.weights.shape[1] for entry in self._layers), default=0)
        # 2 * SUBSET_WIDTH rows: the gathered gradient and velocity rows of the
        # live-row update or the weight and velocity rows of a tail replay, one
        # half each, or the rows of a fire test
        self._scratch = np.empty(2 * SUBSET_WIDTH * width)

    def _scratch_rows(self, entry, count, first=0):
        """count rows of entry's width in the scratch buffer, from row first."""
        width = entry.layer.weights.shape[1]
        return self._scratch[first * width : (first + count) * width].reshape(count, width)

    def certify(self, live_rows: LiveRows) -> None:
        """Replay the dead rows' pending tails and prove frozen those whose
        update is now a no-op, prove dead what rows now can be, and regroup
        the live rows of each layer where that changed."""
        for entry in self._layers:
            fired = live_rows.fired(entry.grad_weights)
            self._catch_up(entry)
            candidates = np.flatnonzero(~entry.dead & ~fired)
            if not candidates.size:
                continue
            dead = self._never_fire(entry, candidates)
            if dead.any():
                entry.dead[candidates[dead]] = True
                self._regroup(entry)

    def catch_up(self) -> None:
        """Replay every dead row's pending tail."""
        for entry in self._layers:
            self._catch_up(entry)

    def _catch_up(self, entry):
        """Replay the steps that entry's dead rows that are not frozen were
        left out of, then prove frozen those whose update is now a no-op;
        SUBSET_WIDTH rows at a time, through the two halves of scratch."""
        rows = np.flatnonzero(entry.dead & ~entry.frozen)
        steps, entry.pending = entry.pending, 0
        if not rows.size:
            return
        layer = entry.layer
        biases, velocity = layer.biases[rows, None], entry.velocity_biases[rows, None]
        still = self._replay(biases, velocity, steps)
        layer.biases[rows], entry.velocity_biases[rows] = biases[:, 0], velocity[:, 0]
        for at in range(0, rows.size, SUBSET_WIDTH):
            picked = rows[at : at + SUBSET_WIDTH]
            p = np.take(layer.weights, picked, axis=0, mode="clip",
                        out=self._scratch_rows(entry, picked.size))
            v = np.take(entry.velocity_weights, picked, axis=0, mode="clip",
                        out=self._scratch_rows(entry, picked.size, SUBSET_WIDTH))
            still[at : at + SUBSET_WIDTH] &= self._replay(p, v, steps)
            if steps:
                layer.weights[picked] = p
                entry.velocity_weights[picked] = v
        entry.frozen[rows[still]] = True

    def _replay(self, p, v, steps):
        """steps of v <- m * v; p <- p + v on the rows p and v in place, the
        update of the blocks with a +0.0 gradient row, bit for bit; returns
        the mask of the rows whose update is then a no-op, SGD_BLOCK
        elements at a time."""
        for _ in range(steps):
            v *= self.momentum
            p += v
        chunk = max(1, SGD_BLOCK // p.shape[1])
        return np.concatenate([_update_is_a_no_op(p[at : at + chunk], v[at : at + chunk]).all(axis=1)
                               for at in range(0, p.shape[0], chunk)])

    def _row_norms(self, entry, matrix, rows):
        """1-norms of rows of one of entry's (rows, width) matrices, taken
        through scratch."""
        norms = np.empty(rows.size)
        for at in range(0, rows.size, 2 * SUBSET_WIDTH):
            picked = rows[at : at + 2 * SUBSET_WIDTH]
            chunk = np.take(matrix, picked, axis=0, mode="clip",
                            out=self._scratch_rows(entry, picked.size))
            np.abs(chunk, out=chunk).sum(axis=1, out=norms[at : at + picked.size])
        return norms

    def _never_fire(self, entry, rows):
        """Mask of rows proven dead (see the class docstring). Each block of
        inputs is mapped once. The rows that may still be dead are multiplied
        out of the weights in place, or, once at most 2 * SUBSET_WIDTH,
        gathered into scratch, again whenever their count halves; the scan
        stops once no row may be dead."""
        weights, biases = entry.layer.weights, entry.layer.biases
        k = weights.shape[1] + 2
        gamma = k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
        q = self.momentum * (1.0 + 2.0 ** -52)
        moved = 2.0 * q * (self._row_norms(entry, entry.velocity_weights, rows)
                           + np.abs(entry.velocity_biases[rows])) + k * _TAIL_FLOOR
        tail = moved / (1.0 - q) if q < 1.0 else np.full(rows.size, np.inf)
        slack = tail + 2.0 * gamma * (self._row_norms(entry, weights, rows)
                                      + np.abs(biases[rows]) + tail)
        top = np.full(rows.size, -np.inf)  # each row's largest z so far
        maybe = top + slack < 0
        taken = None  # the positions in rows of the rows multiplied out
        for x in entry.blocks():
            if taken is None or 2 * np.count_nonzero(maybe) <= taken.size:
                taken = np.flatnonzero(maybe)
                if taken.size <= 2 * SUBSET_WIDTH:
                    matrix, columns = np.take(weights, rows[taken], axis=0, mode="clip",
                                              out=self._scratch_rows(entry, taken.size)), slice(None)
                else:
                    matrix, columns = weights, rows[taken]
            z = (x @ matrix.T)[:, columns].max(axis=0) + biases[rows[taken]]
            top[taken] = np.maximum(top[taken], z)
            maybe = top + slack < 0
            if not maybe.any():
                break
        return maybe

    def _regroup(self, entry):
        """Live rows of entry, and its subset buffer once they are few enough."""
        entry.live = np.flatnonzero(~entry.dead)
        rows = entry.dead.size
        if entry.live.size > SUBSET_WIDTH or rows <= SUBSET_WIDTH:
            return
        if entry.subset is None:
            entry.subset = np.empty((SUBSET_WIDTH, entry.layer.weights.shape[1]))
        pad = np.flatnonzero(entry.dead)[: SUBSET_WIDTH - entry.live.size]
        np.take(entry.layer.weights, np.concatenate([entry.live, pad]), axis=0, mode="clip",
                out=entry.subset)

    @staticmethod
    def _width(entry):
        """Columns of entry's subset product, or None while the layer takes
        the full product: its live rows rounded up to a multiple of 8, at
        least SUBSET_MIN_WIDTH and at most SUBSET_WIDTH, or SUBSET_WIDTH once
        the narrower product has differed from the full one."""
        if entry.subset is None:
            return None
        narrowest = min(SUBSET_WIDTH, max(SUBSET_MIN_WIDTH, -(-entry.live.size // 8) * 8))
        return next((width for width in (narrowest, SUBSET_WIDTH)
                     if entry.exact.get(width) is not False), None)

    def _subset_layers(self):
        return [entry for entry in self._layers if self._width(entry) is not None]

    def pre_activation(self, layer, a: np.ndarray):
        """z of layer for inputs a from its live rows, with 0.0 in the dead
        columns, or None while the layer takes the full product."""
        entry = next((entry for entry in self._layers if entry.layer is layer), None)
        width = None if entry is None else self._width(entry)
        if width is None:
            return None
        live = entry.live
        z = np.zeros((a.shape[0], entry.dead.size))
        if live.size:
            z[:, live] = (a @ entry.subset[:width].T)[:, : live.size] + layer.biases[live]
            if width not in entry.exact:
                full = a @ layer.weights.T + layer.biases
                entry.exact[width] = np.array_equal(full[:, live].view(np.uint64),
                                                    z[:, live].view(np.uint64))
                if not entry.exact[width]:
                    if self._width(entry) is None:  # the layer leaves the subset path
                        self._catch_up(entry)
                    return full
        return z

    def subset_spans(self, params: np.ndarray):
        """Sorted (start, end) spans of the flat params that sgd_step leaves
        to update_live_rows: the weights and biases of each layer on the
        subset path."""
        if params is not self.params:
            return []
        return sorted(entry.span for entry in self._subset_layers())

    def update_live_rows(self, lr: float) -> None:
        """The momentum update of the live rows that subset_spans() left out,
        element for element the update of the blocks; the dead rows' steps
        pend."""
        for entry in self._subset_layers():
            entry.pending += 1
            live, layer = entry.live, entry.layer
            g = np.take(entry.grad_weights, live, axis=0, mode="clip",
                        out=self._scratch_rows(entry, live.size))
            v = np.take(entry.velocity_weights, live, axis=0, mode="clip",
                        out=self._scratch_rows(entry, live.size, SUBSET_WIDTH))
            np.multiply(g, lr, out=g)
            v *= self.momentum
            v -= g
            entry.velocity_weights[live] = v
            rows = entry.subset[: live.size]
            rows += v
            layer.weights[live] = rows
            v = entry.velocity_biases[live] * self.momentum
            v -= entry.grad_biases[live] * lr
            entry.velocity_biases[live] = v
            layer.biases[live] += v


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
    arrays = [(name, np.asarray(arr, dtype="<f8", order="C")) for name, arr in arrays]
    entries = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    head = [CHECKPOINT_MAGIC, np.uint32(CHECKPOINT_VERSION).tobytes(),
            np.uint32(len(header)).tobytes(), header]
    # the arrays' own buffers, not copies: the file is never held in memory
    write_file(path, itertools.chain(head, (arr.data for _name, arr in arrays)))


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
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: malformed array entry {entry!r}") from exc
        if any(d < 0 for d in shape):
            raise DataError(f"{path}: negative dimension in array {name}")
        count = math.prod(shape)  # Python ints: a huge shape must not wrap to a small count
        blob = raw[offset : offset + 8 * count]
        if len(blob) != 8 * count:
            raise DataError(f"{path}: truncated array {name}")
        out[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
        offset += 8 * count
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes after the last array")
    return header["meta"], out
