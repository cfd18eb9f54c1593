"""Network primitives: forward/backward math, optimizer, checkpoints.

The backbone forward pass is cross-checked against an explicit scalar-loop
reference, and every gradient path against central differences.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_product_backward
from morphdet.errors import ConfigError, DataError, NumericError, ShapeError
from morphdet.nncore import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ClassifierHead,
    FrozenRows,
    Layer,
    LiveRows,
    MlpBackbone,
    SGD_BLOCK,
    SUBSET_WIDTH,
    SgdConfig,
    binary_cross_entropy_with_logit,
    finite_diff_check,
    glorot_uniform,
    read_checkpoint,
    pack_parameters,
    sgd_step,
    sigmoid,
    softmax_cross_entropy,
    softmax_cross_entropy_batch,
    write_checkpoint,
)


def scalar_reference_forward(backbone, x):
    """Pure-Python forward pass: explicit loops, no vectorization."""
    a = [float(v) for v in x]
    for layer in backbone.layers:
        out = []
        for row in range(layer.weights.shape[0]):
            s = float(layer.biases[row])
            for col in range(layer.weights.shape[1]):
                s += float(layer.weights[row, col]) * a[col]
            out.append(max(s, 0.0) if layer.activation == "relu" else s)
        a = out
    return np.array(a)


def test_forward_matches_scalar_reference():
    rng = np.random.default_rng(1)
    backbone = MlpBackbone.build([7, 5, 4], rng)
    for trial in range(5):
        x = rng.normal(size=7)
        expected = scalar_reference_forward(backbone, x)
        assert np.allclose(backbone.forward(x[None]), expected[None], rtol=0, atol=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(2)
    backbone = MlpBackbone.build([6, 8, 3], rng)
    batch = rng.normal(size=(4, 6))
    feats = backbone.forward(batch)
    for i in range(4):
        assert np.allclose(feats[i:i + 1], backbone.forward(batch[i:i + 1]), atol=1e-12)


def test_backbone_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    backbone = MlpBackbone.build([5, 6, 3], rng)
    x = rng.normal(size=(2, 5))
    target = rng.normal(size=(2, 3))
    _params, _grad, grad_views = pack_parameters(backbone.layers)
    params = backbone.parameters()
    shapes = [p.shape for p in params]

    def unflatten(theta):
        out = []
        k = 0
        for shape in shapes:
            n = int(np.prod(shape))
            out.append(theta[k : k + n].reshape(shape))
            k += n
        return out

    def loss_and_grad(theta):
        saved = [p.copy() for p in params]
        for p, v in zip(params, unflatten(theta)):
            p[...] = v
        feats, cache = backbone.forward_cached(x)
        diff = feats - target
        loss = 0.5 * float(np.sum(diff * diff))
        grads = backbone.backward(cache, diff, grad_views, LiveRows())
        flat = np.concatenate([g.reshape(-1) for g in grads])
        for p, v in zip(params, saved):
            p[...] = v
        return loss, flat

    theta0 = np.concatenate([p.reshape(-1) for p in params])
    assert finite_diff_check(loss_and_grad, theta0) < 1e-7


def test_relu_gate_uses_preactivation_sign():
    # one relu layer with a negative preactivation must block the gradient
    layer = Layer(np.array([[-1.0]]), np.array([0.0]), "relu")
    feature = Layer(np.array([[1.0]]), np.array([0.0]), "linear")
    backbone = MlpBackbone([layer, feature])
    _params, _grad, grad_views = pack_parameters(backbone.layers)
    feats, cache = backbone.forward_cached(np.array([[2.0]]))
    assert feats[0, 0] == 0.0
    grads = backbone.backward(cache, np.array([[1.0]]), grad_views, LiveRows())
    assert grads[0][0, 0] == 0.0  # gradient blocked by the dead relu


def test_glorot_bounds_and_determinism():
    w1 = glorot_uniform(np.random.default_rng(9), 4, 6)
    w2 = glorot_uniform(np.random.default_rng(9), 4, 6)
    assert np.array_equal(w1, w2)
    bound = math.sqrt(6.0 / 10.0)
    assert np.all(np.abs(w1) < bound)


@settings(max_examples=50, deadline=None)
@given(st.floats(-700, 700, allow_nan=False))
def test_sigmoid_stable_and_bounded(x):
    y = sigmoid(x)
    assert 0.0 <= y <= 1.0
    assert math.isfinite(y)


def test_sigmoid_matches_direct_formula_in_safe_range():
    xs = np.linspace(-30, 30, 301)
    direct = 1.0 / (1.0 + np.exp(-xs))
    assert np.allclose(sigmoid(xs), direct, rtol=0, atol=1e-15)


def test_softmax_ce_matches_direct_formula():
    rng = np.random.default_rng(4)
    for _ in range(20):
        logits = rng.normal(scale=3.0, size=7)
        label = int(rng.integers(7))
        loss, grad = softmax_cross_entropy(logits, label)
        p = np.exp(logits) / np.sum(np.exp(logits))
        assert abs(loss - (-math.log(p[label]))) < 1e-12
        one_hot = np.zeros(7)
        one_hot[label] = 1.0
        assert np.allclose(grad, p - one_hot, atol=1e-12)


def test_softmax_ce_batch_matches_single():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(4, size=6)
    losses, grads = softmax_cross_entropy_batch(logits, labels)
    for i in range(6):
        loss_i, grad_i = softmax_cross_entropy(logits[i], int(labels[i]))
        assert abs(losses[i] - loss_i) < 1e-12
        assert np.allclose(grads[i], grad_i, atol=1e-12)


def test_softmax_ce_stable_at_extreme_logits():
    loss, grad = softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
    assert loss == 0.0 and np.all(np.isfinite(grad))
    loss, _ = softmax_cross_entropy(np.array([1000.0, 0.0]), 1)
    assert math.isfinite(loss) and loss >= 999.0


def test_softmax_ce_validation():
    with pytest.raises(ShapeError):
        softmax_cross_entropy(np.zeros((2, 2)), 0)
    with pytest.raises(ShapeError):
        softmax_cross_entropy(np.zeros(3), 5)
    with pytest.raises(ShapeError):
        softmax_cross_entropy_batch(np.zeros((2, 3)), np.array([0, 7]))


def test_bce_matches_direct_formula():
    # independent oracle: -t*log(p) - (1-t)*log(q) with q computed directly
    # as 1/(1+e^d) rather than 1-p, which would cancel catastrophically
    for d in np.linspace(-20, 20, 101):
        for t in (0, 1):
            loss, grad = binary_cross_entropy_with_logit(d, t)
            p = 1.0 / (1.0 + math.exp(-d))
            q = 1.0 / (1.0 + math.exp(d))
            direct = -(t * math.log(p) + (1 - t) * math.log(q))
            assert abs(loss - direct) < 1e-12 * max(1.0, abs(direct))
            assert abs(grad - (p - t)) < 1e-12


def test_bce_stable_at_extreme_logits():
    loss, grad = binary_cross_entropy_with_logit(5000.0, 1)
    assert loss == 0.0 and grad == 0.0
    loss, grad = binary_cross_entropy_with_logit(-5000.0, 0)
    assert loss == 0.0 and grad == 0.0
    loss, _ = binary_cross_entropy_with_logit(5000.0, 0)
    assert loss == 5000.0
    with pytest.raises(NumericError):
        binary_cross_entropy_with_logit(float("nan"), 0)


def test_head_logits_affine():
    head = ClassifierHead(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, 1.0]))
    feats = np.array([3.0, 4.0])
    assert np.allclose(head.logits(feats), [3 + 8 + 0.5, -4 + 1.0])
    with pytest.raises(ShapeError):
        head.logits(np.zeros(5))


def test_lr_schedule_hits_both_endpoints():
    cfg = SgdConfig(total_steps=11)
    assert cfg.learning_rate(0) == cfg.lr_start
    assert cfg.learning_rate(10) == cfg.lr_end
    mid = cfg.learning_rate(5)
    assert cfg.lr_end < mid < cfg.lr_start
    with pytest.raises(ConfigError):
        cfg.learning_rate(11)
    assert SgdConfig(total_steps=1).learning_rate(0) == 0.01


def test_sgd_config_validation():
    with pytest.raises(ConfigError):
        SgdConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        SgdConfig(lr_start=0.001, lr_end=0.01)
    with pytest.raises(ConfigError):
        SgdConfig(total_steps=0)
    SgdConfig(lr_start=0.01, lr_end=0.0)  # zero lr_end is legal


def test_sgd_momentum_matches_hand_computation():
    cfg = SgdConfig(momentum=0.5, lr_start=0.1, lr_end=0.1, total_steps=3)
    p = np.array([1.0])
    v = np.array([0.0])
    g = np.array([2.0])
    sgd_step([p], [g], [v], 0, cfg)
    # v = -0.1*2 = -0.2; p = 0.8
    assert np.allclose(p, [0.8]) and np.allclose(v, [-0.2])
    sgd_step([p], [g], [v], 1, cfg)
    # v = 0.5*(-0.2) - 0.2 = -0.3; p = 0.5
    assert np.allclose(p, [0.5]) and np.allclose(v, [-0.3])


def test_sgd_step_shape_validation():
    cfg = SgdConfig(total_steps=1)
    with pytest.raises(ShapeError):
        sgd_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], 0, cfg)
    with pytest.raises(ShapeError):
        sgd_step([np.zeros(2)], [np.zeros(2)], [], 0, cfg)


def _reference_sgd_step(params, grads, velocity, lr, momentum):
    """The per-array update the blocked sgd_step must reproduce bit for bit."""
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v -= lr * g
        p += v


@pytest.mark.parametrize("shape", [(5,), (SGD_BLOCK,), (3 * SGD_BLOCK,),
                                   (2 * SGD_BLOCK + 123,), (3, 70, 150)])
def test_blocked_sgd_matches_the_per_array_update(shape):
    rng = np.random.default_rng(len(shape) + shape[0])
    cfg = SgdConfig(momentum=0.9, lr_start=0.3, lr_end=0.01, total_steps=4)
    p, v = rng.normal(size=shape), np.zeros(shape)
    p_ref, v_ref = p.copy(), v.copy()
    for step in range(cfg.total_steps):
        g = rng.normal(size=shape)
        g_before = g.copy()
        sgd_step([p], [g], [v], step, cfg)
        _reference_sgd_step([p_ref], [g], [v_ref], cfg.learning_rate(step), cfg.momentum)
        assert np.array_equal(g, g_before)  # the gradient is left as it was
        assert np.array_equal(p, p_ref) and np.array_equal(v, v_ref)


def test_sgd_step_rejects_non_contiguous_arrays():
    cfg = SgdConfig(total_steps=1)
    strided = np.zeros((4, 6))[:, ::2]
    flat = np.zeros((4, 3))
    for args in ((strided, flat, flat), (flat, strided, flat), (flat, flat, strided),
                 (flat.T, flat.T.copy(), flat.T.copy())):
        with pytest.raises(ShapeError, match="contiguous"):
            sgd_step([args[0]], [args[1]], [args[2]], 0, cfg)


def test_pack_parameters_rebinds_every_array_to_a_view():
    rng = np.random.default_rng(8)
    backbone = MlpBackbone.build([5, 4, 3], rng)
    head = ClassifierHead.build(2, 3, rng)
    before = [p.copy() for p in backbone.parameters() + head.parameters()]
    params, grad, grad_views = pack_parameters(backbone.layers + [head])
    after = backbone.parameters() + head.parameters()
    assert params.shape == grad.shape == (sum(p.size for p in before),)
    assert np.array_equal(params, np.concatenate([p.reshape(-1) for p in before]))
    assert not grad.any()
    for p, old, g in zip(after, before, grad_views):
        assert np.array_equal(p, old) and p.base is params
        assert g.shape == p.shape and g.base is grad
    params[0] = 42.0
    assert backbone.layers[0].weights[0, 0] == 42.0


def bits(arrays):
    """The bytes of float64 arrays as uint64, so that -0.0 differs from +0.0."""
    return np.concatenate([np.ascontiguousarray(a).reshape(-1) for a in arrays]).view(np.uint64)


def full_product_bits(backbone, cache, dfeat):
    out = [np.empty_like(p) for p in backbone.parameters()]
    return bits(full_product_backward(backbone, cache, dfeat, out))


def test_backward_writes_into_gradient_views():
    rng = np.random.default_rng(9)
    backbone = MlpBackbone.build([5, 6, 3], rng)
    x = rng.normal(size=(4, 5))
    dfeat = rng.normal(size=(4, 3))
    _params, grad, grad_views = pack_parameters(backbone.layers)
    _feats, cache = backbone.forward_cached(x)
    assert backbone.backward(cache, dfeat, grad_views, LiveRows()) is grad_views
    assert np.array_equal(bits([grad]), full_product_bits(backbone, cache, dfeat))


def with_live_units(backbone, n_live, rng):
    """Set the first-layer biases so that n_live units, drawn at random, fire
    on inputs in [-1, 1] and the rest fire on none."""
    biases = backbone.layers[0].biases
    biases[...] = -1e3
    biases[rng.permutation(biases.size)[:n_live]] = 3.0


def count_fired(cache):
    return int(np.count_nonzero((cache[0][1] > 0).any(axis=0)))


# (batch rows, backbone dims): the desk training shape and a selftest-sized one
SHAPES = [(28, (1024, 256, 64)), (6, (20, 8, 6))]


@pytest.mark.parametrize("batch, dims", SHAPES)
def test_live_row_weight_gradient_is_the_full_product_bit_for_bit(batch, dims):
    rng = np.random.default_rng(21)
    backbone = MlpBackbone.build(dims, rng)
    _params, grad, grad_views = pack_parameters(backbone.layers)
    x = rng.uniform(-1.0, 1.0, size=(batch, dims[0]))
    for n_live in range(dims[1] + 1):
        with_live_units(backbone, n_live, rng)
        dfeat = rng.normal(size=(batch, dims[-1]))
        _feats, cache = backbone.forward_cached(x)
        assert count_fired(cache) == n_live
        grad[...] = 0.0
        backbone.backward(cache, dfeat, grad_views, LiveRows())
        assert np.array_equal(bits([grad]), full_product_bits(backbone, cache, dfeat)), n_live


@pytest.mark.parametrize("batch, dims", SHAPES)
def test_backward_into_a_used_or_nan_buffer_writes_the_bytes_of_a_zeroed_one(batch, dims):
    rng = np.random.default_rng(22)
    backbone = MlpBackbone.build(dims, rng)
    x = rng.uniform(-1.0, 1.0, size=(batch, dims[0]))
    shapes = [p.shape for p in backbone.parameters()]
    width = dims[1]
    # live -> dead -> live, the single-row case and back to every unit
    live_counts = [width, width // 2, 0, 1, 3, 0, width - 1, 2, 1, width, 2]

    def filled(value):
        return [np.full(shape, value) for shape in shapes]

    kept, kept_record = filled(0.0), LiveRows()  # one buffer and its record, as in training
    kept_bare = filled(0.0)  # one buffer, a new record each call: it clears every dead row
    nan_first, nan_record = filled(np.nan), LiveRows()
    for n_live in live_counts:
        with_live_units(backbone, n_live, rng)
        dfeat = rng.normal(size=(batch, dims[-1]))
        _feats, cache = backbone.forward_cached(x)
        assert count_fired(cache) == n_live
        expected = full_product_bits(backbone, cache, dfeat)
        results = [
            backbone.backward(cache, dfeat, filled(0.0), LiveRows()),
            backbone.backward(cache, dfeat, filled(np.nan), LiveRows()),
            backbone.backward(cache, dfeat, kept, kept_record),
            backbone.backward(cache, dfeat, kept_bare, LiveRows()),
            backbone.backward(cache, dfeat, nan_first, nan_record),
            # the record matches arrays by identity, not by shape or content
            backbone.backward(cache, dfeat, filled(np.nan), kept_record),
        ]
        for k, result in enumerate(results):
            assert np.array_equal(bits(result), expected), (n_live, k)


def frozen_record(backbone, images, block_rows=28, head=None, momentum=0.9):
    """A FrozenRows record over the packed parameters of backbone (and head),
    whose first layer is fed images; returns (record, params, grad,
    grad_views, velocity)."""
    units = backbone.layers + ([head] if head is not None else [])
    params, grad, grad_views = pack_parameters(units)
    velocity = np.zeros_like(params)
    feed = (backbone.layers[0], lambda: (images[at : at + block_rows]
                                         for at in range(0, len(images), block_rows)))
    record = FrozenRows(units, params, grad_views, velocity, [feed], momentum)
    return record, params, grad, grad_views, velocity


def test_subset_forward_is_the_full_product_bit_for_bit():
    """Every live count the subset path takes, at the desk training shape:
    the live rows padded with dead ones to the subset width."""
    batch, dims = 28, (1024, 256, 64)
    rng = np.random.default_rng(23)
    backbone = MlpBackbone.build(dims, rng)
    x = rng.uniform(-1.0, 1.0, size=(batch, dims[0]))
    for n_live in range(SUBSET_WIDTH + 1):
        with_live_units(backbone, n_live, rng)
        record, *_arrays = frozen_record(backbone, x)
        record.certify(LiveRows())
        feats, cache = backbone.forward_cached(x, record)
        full_feats, full_cache = backbone.forward_cached(x)
        (a, z), (full_a, full_z) = cache[1], full_cache[1]
        live = np.flatnonzero(backbone.layers[0].biases > 0)
        dead = np.flatnonzero(backbone.layers[0].biases < 0)
        assert not cache[0][1][:, dead].any(), n_live  # the subset path ran
        assert np.array_equal(bits([cache[0][1][:, live]]), bits([full_cache[0][1][:, live]]))
        assert np.array_equal(bits([a, z, feats]), bits([full_a, full_z, full_feats])), n_live


def test_a_subset_forward_that_differs_from_the_full_product_is_not_taken():
    """A batch of 7 rows selects another OpenBLAS kernel for the subset
    product than for the full one; the forward must keep the full bytes."""
    rng = np.random.default_rng(24)
    backbone = MlpBackbone.build((1024, 256, 64), rng)
    with_live_units(backbone, 40, rng)
    x = rng.uniform(-1.0, 1.0, size=(7, 1024))
    record, *_arrays = frozen_record(backbone, x)
    record.certify(LiveRows())
    for _ in range(2):
        feats, cache = backbone.forward_cached(x, record)
        full_feats, full_cache = backbone.forward_cached(x)
        assert np.array_equal(bits([feats, cache[0][0], cache[1][1]]),
                              bits([full_feats, full_cache[0][0], full_cache[1][1]]))


def test_subset_width_is_the_live_rows_rounded_up_to_eight_and_forty_at_least():
    """At the desk training shape every width from 40 to 64 reproduces the
    full product, so the first product of each is taken and kept."""
    rng = np.random.default_rng(31)
    backbone = MlpBackbone.build((1024, 256, 64), rng)
    x = rng.uniform(-1.0, 1.0, size=(28, 1024))
    for n_live, width in [(1, 40), (40, 40), (41, 48), (48, 48), (57, 64), (64, 64)]:
        with_live_units(backbone, n_live, rng)
        record, *_arrays = frozen_record(backbone, x)
        record.certify(LiveRows())
        backbone.forward_cached(x, record)
        (entry,) = record._layers
        assert entry.exact == {width: True}, n_live


def test_subset_width_falls_back_to_the_widest_then_to_the_full_product(monkeypatch):
    """A width whose first product differs from the full one gives way to
    SUBSET_WIDTH columns; where that differs too, the layer takes the full
    product and the full update, and its dead rows' pending tail is replayed
    first. Parameters, velocities and features keep the full path's bits."""
    rng = np.random.default_rng(32)
    backbone = MlpBackbone.build((1024, 256, 64), rng)
    with_live_units(backbone, 20, rng)
    x = rng.uniform(-1.0, 1.0, size=(28, 1024))
    record, params, grad, _grad_views, velocity = frozen_record(backbone, x)
    velocity[...] = rng.normal(scale=1e-3, size=velocity.size)  # a tail to replay
    record.certify(LiveRows())
    (entry,) = record._layers
    dead = np.zeros(params.size, dtype=bool)
    dead[: 256 * 1025] = np.concatenate([np.repeat(entry.dead, 1024), entry.dead])
    cfg = SgdConfig(momentum=0.9, lr_start=0.1, lr_end=0.1, total_steps=3)
    p_ref, v_ref = params.copy(), velocity.copy()
    monkeypatch.setattr(np, "array_equal", lambda a, b: False)  # every product differs
    for step, exact in enumerate([{40: False}] + [{40: False, 64: False}] * 2):
        feats, _cache = backbone.forward_cached(x, record)
        assert entry.exact == exact
        assert bits([feats]).tobytes() == bits([backbone.forward(x)]).tobytes()
        if step == 1:
            assert entry.pending == 0
            assert bits([params, velocity]).tobytes() == bits([p_ref, v_ref]).tobytes()
        grad[...] = rng.normal(size=grad.size)
        grad[dead] = 0.0  # a unit that does not fire has a +0.0 gradient row
        sgd_step([params], [grad], [velocity], step, cfg, record)
        _reference_sgd_step([p_ref], [grad], [v_ref], cfg.learning_rate(step), cfg.momentum)
        assert entry.pending == (1 if step == 0 else 0)
    assert bits([params, velocity]).tobytes() == bits([p_ref, v_ref]).tobytes()


def one_image_unit(images, row, backbone, fires):
    """Set row of the first layer so that its unit fires on exactly one of
    images, moved to the end (fires=True), or on none of them."""
    layer = backbone.layers[0]
    if fires:
        top = np.argmax(images @ layer.weights[row])
        images[[top, -1]] = images[[-1, top]]
    z = np.sort(images @ layer.weights[row])
    layer.biases[row] = -0.5 * (z[-1] + z[-2]) if fires else -z[-1] - 1e-3


def frozen_rows_of(record):
    """The rows of the record's one first layer proven frozen so far."""
    (entry,) = record._layers
    return np.flatnonzero(entry.frozen).tolist()


def dead_rows_of(record):
    """The rows of the record's one first layer proven dead so far."""
    (entry,) = record._layers
    return np.flatnonzero(entry.dead).tolist()


def test_a_row_that_fires_on_one_image_does_not_freeze():
    """A unit that fires on the last fed image only is proven neither dead
    nor frozen. A row not dead is tested at every certificate, unless
    LiveRows has seen its unit fire since the last one."""
    rng = np.random.default_rng(25)
    backbone = MlpBackbone.build((20, 8, 6), rng)
    layer = backbone.layers[0]
    images = rng.uniform(-1.0, 1.0, size=(30, 20))
    one_image_unit(images, 0, backbone, fires=True)
    one_image_unit(images, 1, backbone, fires=False)
    assert np.flatnonzero(images @ layer.weights[0] + layer.biases[0] > 0).tolist() == [29]
    record, params, _grad, grad_views, velocity = frozen_record(backbone, images, block_rows=4)
    # a velocity far below half an ulp of every weight: both updates are no-ops
    velocity[:40] = params[:40] * 2.0 ** -60
    live_rows = LiveRows()
    record.certify(live_rows)
    assert dead_rows_of(record) == [1]
    assert frozen_rows_of(record) == []  # tested for a no-op update from the next certificate
    # row 0's unit fires on a batch, and then can fire on no image: it is not
    # tested at the next certificate
    _feats, cache = backbone.forward_cached(images[-1:])
    backbone.backward(cache, np.ones((1, 6)), grad_views, live_rows)
    assert grad_views[0][0].any()
    layer.biases[0] = -1e3
    record.certify(live_rows)
    assert dead_rows_of(record) == [1]
    assert frozen_rows_of(record) == [1]
    # a unit seen firing in an array that is not the record's does not count
    g = np.zeros((1, 8))
    g[0, 0] = 1.0
    live_rows.weight_gradient(g, images[:1], np.zeros((8, 20)))
    record.certify(live_rows)
    assert dead_rows_of(record) == [0, 1]
    record.certify(live_rows)
    assert frozen_rows_of(record) == [0, 1]


def test_a_negative_zero_weight_with_a_positive_zero_velocity_does_not_freeze():
    """-0.0 + +0.0 is +0.0: the update of such a weight is not a no-op."""
    rng = np.random.default_rng(26)
    backbone = MlpBackbone.build((20, 8, 6), rng)
    images = rng.uniform(-1.0, 1.0, size=(10, 20))
    backbone.layers[0].biases[...] = -1e3  # no unit fires
    backbone.layers[0].weights[0, 3] = -0.0
    backbone.layers[0].weights[1, 3] = +0.0
    record, *_arrays, velocity = frozen_record(backbone, images)
    assert not velocity.any() and not np.signbit(velocity).any()
    record.certify(LiveRows())
    record.certify(LiveRows())
    assert dead_rows_of(record) == list(range(8))
    assert frozen_rows_of(record) == list(range(1, 8))


def test_sgd_step_leaves_frozen_rows_and_their_velocity_alone():
    """With a first layer on its subset path, sgd_step updates its live rows
    and every other element as the blocked update does, and touches no dead
    row's weights, bias or velocity; catch_up() then replays the dead rows'
    momentum tail to the bits of the blocked update with their zero
    gradient rows."""
    rng = np.random.default_rng(27)
    backbone = MlpBackbone.build((300, 100, 5), rng)
    head = ClassifierHead.build(3, 5, rng)
    with_live_units(backbone, 17, rng)
    x = rng.uniform(-1.0, 1.0, size=(28, 300))
    record, params, grad, _grad_views, velocity = frozen_record(backbone, x, head=head)
    velocity[...] = rng.normal(scale=1e-3, size=velocity.size)  # a tail to replay
    record.certify(LiveRows())
    dead = backbone.layers[0].biases < 0
    cfg = SgdConfig(momentum=0.9, lr_start=0.3, lr_end=0.01, total_steps=3)
    p_ref, v_ref = params.copy(), velocity.copy()
    skipped = np.zeros(params.size, dtype=bool)
    skipped[: 100 * 300] = np.repeat(dead, 300)
    skipped[100 * 300 : 100 * 301] = dead
    dead_before = params[skipped].copy(), velocity[skipped].copy()
    for step in range(cfg.total_steps):
        grad[...] = rng.normal(size=grad.size)
        grad[skipped] = 0.0  # a unit that does not fire has a +0.0 gradient row
        sgd_step([params], [grad], [velocity], step, cfg, record)
        _reference_sgd_step([p_ref], [grad], [v_ref], cfg.learning_rate(step), cfg.momentum)
        assert np.array_equal(bits([params[~skipped], velocity[~skipped]]),
                              bits([p_ref[~skipped], v_ref[~skipped]]))
        assert np.array_equal(bits([params[skipped], velocity[skipped]]), bits(dead_before))
    assert not np.array_equal(bits([params]), bits([p_ref]))
    record.catch_up()
    assert np.array_equal(bits([params, velocity]), bits([p_ref, v_ref]))


def test_a_certificate_maps_each_fed_block_once():
    """With more candidate rows than SUBSET_WIDTH, certify() maps every block
    of the feed once, and gathers no matrix of all candidate rows (2 MiB
    here): beside the subset buffer of the layer it puts on the subset path,
    it allocates under 128 KiB."""
    rng = np.random.default_rng(29)
    backbone = MlpBackbone.build((1024, 256, 8), rng)
    backbone.layers[0].biases[...] = -1e3  # no unit fires: every block is scanned
    images = rng.uniform(-1.0, 1.0, size=(60, 1024))
    units = backbone.layers
    params, _grad, grad_views = pack_parameters(units)
    velocity = np.zeros_like(params)
    yields = []

    def blocks():
        for at in range(0, len(images), 7):
            yields.append(at)
            yield images[at : at + 7]

    record = FrozenRows(units, params, grad_views, velocity, [(units[0], blocks)], 0.9)
    tracemalloc.start()
    try:
        record.certify(LiveRows())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert yields == list(range(0, 60, 7))
    assert dead_rows_of(record) == list(range(256))
    assert peak < SUBSET_WIDTH * 1024 * 8 + 2 ** 17, peak


def tail_rows(rng, momentum, rows, width, images, margins):
    """A first layer of rows units of width inputs, a velocity that the
    momentum tail turns into a rise of every unit's pre-activation, and
    biases that put each unit's top pre-activation over images at
    -margin * S, S = m / (1 - m) * (||v_w||_1 + |v_b|) the most the exact
    tail can raise it: (weights, biases, velocity weights, velocity biases)."""
    weights = rng.uniform(-0.5, 0.5, size=(rows, width))
    scale = 10.0 ** rng.uniform(-5.0, -1.0, size=rows)
    v_weights = rng.normal(size=(rows, width)) * (scale / width)[:, None]
    v_biases = rng.uniform(0.5, 1.0, size=rows) * scale
    reach = momentum / (1.0 - momentum) * (np.abs(v_weights).sum(axis=1) + v_biases)
    biases = -(images @ weights.T).max(axis=0) - margins * reach
    return weights, biases, v_weights, v_biases


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), momentum=st.sampled_from([0.5, 0.9, 0.99]))
def test_a_dead_row_never_fires_through_its_velocity_tail(seed, momentum):
    """Random small layers, certified and then run through 400 zero-gradient
    steps: the computed pre-activation of every row proven dead stays <= 0
    on every fed image. Rows whose margin is below their tail's rise cross
    zero, and a certificate without the tail's bound D proves them dead."""
    rng = np.random.default_rng(seed)
    rows, width = 12, int(rng.integers(2, 24))
    images = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 30)), width))
    backbone = MlpBackbone.build((width, rows, 3), rng)
    layer = backbone.layers[0]
    record, params, grad, _grad_views, velocity = frozen_record(
        backbone, images, block_rows=5, momentum=momentum)
    (entry,) = record._layers
    weights, biases, v_weights, v_biases = tail_rows(rng, momentum, rows, width, images,
                                                     rng.uniform(0.0, 3.0, size=rows))
    layer.weights[...], layer.biases[...] = weights, biases
    entry.velocity_weights[...], entry.velocity_biases[...] = v_weights, v_biases
    record.certify(LiveRows())
    dead = np.array(dead_rows_of(record), dtype=np.intp)
    cfg = SgdConfig(momentum=momentum, lr_start=0.1, lr_end=0.1, total_steps=400)
    for step in range(cfg.total_steps):
        sgd_step([params], [grad], [velocity], step, cfg, record)
        z = images @ layer.weights[dead].T + layer.biases[dead]
        assert not (z > 0).any(), (step, dead[(z > 0).any(axis=0)])


def test_a_row_whose_velocity_tail_crosses_zero_is_not_proven_dead():
    """The same units without velocity are dead; with the velocity, those
    whose tail would raise the pre-activation past zero are not, and
    neither are those too close to zero for the tail's bound."""
    rng = np.random.default_rng(30)
    rows, width, momentum = 6, 10, 0.9
    images = rng.uniform(-1.0, 1.0, size=(20, width))
    backbone = MlpBackbone.build((width, rows, 3), rng)
    layer = backbone.layers[0]
    record, *_arrays = frozen_record(backbone, images, momentum=momentum)
    margins = np.array([0.2, 0.5, 0.9, 1.5, 2.5, 4.0])
    layer.weights[...], layer.biases[...], v_weights, v_biases = tail_rows(
        rng, momentum, rows, width, images, margins)
    record.certify(LiveRows())
    assert dead_rows_of(record) == list(range(rows))
    record, *_arrays = frozen_record(backbone, images, momentum=momentum)
    (entry,) = record._layers
    entry.velocity_weights[...], entry.velocity_biases[...] = v_weights, v_biases
    record.certify(LiveRows())
    crossed = np.zeros(rows, dtype=bool)
    weights, biases = layer.weights.copy(), layer.biases.copy()
    for _ in range(400):
        v_weights *= momentum
        v_biases *= momentum
        weights += v_weights
        biases += v_biases
        crossed |= (images @ weights.T + biases > 0).any(axis=0)
    assert crossed[0] and not crossed[4:].any()
    # D = 2q / (1 - q) * (||v_w||_1 + |v_b|), about twice the tail's reach
    assert dead_rows_of(record) == [4, 5]


def test_finite_diff_check_flags_a_wrong_gradient():
    def good(theta):
        return float(np.sum(theta**2)), 2.0 * theta

    def bad(theta):
        return float(np.sum(theta**2)), 2.5 * theta

    theta = np.array([0.3, -1.2, 0.7])
    assert finite_diff_check(good, theta) < 1e-9
    assert finite_diff_check(bad, theta) > 1e-2
    with pytest.raises(ConfigError):
        finite_diff_check(good, theta, epsilon=0.0)


def test_backbone_shape_validation():
    rng = np.random.default_rng(6)
    with pytest.raises(ConfigError):
        MlpBackbone.build([4], rng)
    with pytest.raises(ConfigError):
        MlpBackbone.build([4, 0, 2], rng)
    backbone = MlpBackbone.build([4, 3], rng)
    with pytest.raises(ShapeError):
        backbone.forward(np.zeros((1, 5)))
    with pytest.raises(ShapeError):
        backbone.forward(np.zeros(4))
    with pytest.raises(NumericError):
        backbone.forward(np.array([[np.inf, 0.0, 0.0, 0.0]]))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    arrays = [
        ("alpha", rng.normal(size=(3, 4))),
        ("beta", rng.normal(size=7)),
        ("gamma", np.array(2.5)),
    ]
    meta = {"kind": "test", "nested": {"a": 1}, "seed": 7}
    path = tmp_path / "model.mdck"
    write_checkpoint(path, meta, arrays)
    meta2, loaded = read_checkpoint(path)
    assert meta2 == meta
    assert set(loaded) == {"alpha", "beta", "gamma"}
    for name, arr in arrays:
        assert loaded[name].shape == np.asarray(arr).shape
        assert np.array_equal(loaded[name], arr)
        # bit-exact, not merely close
        assert loaded[name].tobytes() == np.ascontiguousarray(arr, "<f8").tobytes()


def test_checkpoint_write_is_deterministic(tmp_path):
    arrays = [("w", np.arange(6.0).reshape(2, 3))]
    write_checkpoint(tmp_path / "a.mdck", {"z": 1, "a": 2}, arrays)
    write_checkpoint(tmp_path / "b.mdck", {"a": 2, "z": 1}, arrays)
    assert (tmp_path / "a.mdck").read_bytes() == (tmp_path / "b.mdck").read_bytes()


def test_checkpoint_rejects_foreign_and_truncated(tmp_path):
    bad = tmp_path / "bad.mdck"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        read_checkpoint(bad)
    good = tmp_path / "good.mdck"
    write_checkpoint(good, {}, [("w", np.zeros((4, 4)))])
    raw = good.read_bytes()
    (tmp_path / "cut.mdck").write_bytes(raw[:-8])
    with pytest.raises(DataError):
        read_checkpoint(tmp_path / "cut.mdck")
    with pytest.raises(DataError):
        read_checkpoint(tmp_path / "absent.mdck")


def _checkpoint_bytes(header: bytes, payload: bytes = b"") -> bytes:
    return (CHECKPOINT_MAGIC + np.uint32(CHECKPOINT_VERSION).tobytes()
            + np.uint32(len(header)).tobytes() + header + payload)


@pytest.mark.parametrize("header", [
    b'{"meta": {}, "arrays": [',  # cut JSON
    b"\xff\xfe{}",  # not UTF-8
    b"[]",  # not an object
    b'{"arrays": []}',  # no meta
    b'{"meta": {}}',  # no arrays
    b'{"meta": [], "arrays": []}',  # meta not an object
    b'{"meta": {}, "arrays": {}}',  # arrays not a list
    b'{"meta": {}, "arrays": [{"name": "w"}]}',  # entry without a shape
    b'{"meta": {}, "arrays": [{"name": "w", "shape": ["a"]}]}',
    b'{"meta": {}, "arrays": [{"name": "w", "shape": [-1, -1]}]}',
    # 2**64 elements: counted in int64 the product wraps to 0
    b'{"meta": {}, "arrays": [{"name": "w", "shape": [4294967296, 4294967296]}]}',
    b'{"meta": {}, "arrays": [{"name": "w", "shape": [1e400]}]}',  # int(inf)
    b"[" * 100000,  # nesting deeper than the JSON decoder recurses
])
def test_checkpoint_rejects_corrupt_headers(tmp_path, header):
    path = tmp_path / "corrupt.mdck"
    path.write_bytes(_checkpoint_bytes(header, b"\x00" * 8))
    with pytest.raises(DataError):
        read_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.mdck"
    write_checkpoint(path, {}, [("w", np.zeros((2, 2)))])
    path.write_bytes(path.read_bytes() + b"\x00" * 7)
    with pytest.raises(DataError, match="7 trailing bytes"):
        read_checkpoint(path)


def test_checkpoint_rejects_a_cut_preamble(tmp_path):
    path = tmp_path / "short.mdck"
    path.write_bytes(CHECKPOINT_MAGIC + b"\x01\x00")
    with pytest.raises(DataError, match="truncated"):
        read_checkpoint(path)


def test_checkpoint_bytes_match_the_documented_layout(tmp_path):
    path = tmp_path / "w.mdck"
    write_checkpoint(path, {"kind": "test"}, [("w", np.array([1.5, -2.0]))])
    header = b'{"arrays":[{"name":"w","shape":[2]}],"meta":{"kind":"test"}}'
    assert path.read_bytes() == _checkpoint_bytes(
        header, np.array([1.5, -2.0], dtype="<f8").tobytes())
