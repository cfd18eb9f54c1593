"""Network primitives: forward/backward math, optimizer, checkpoints.

The backbone forward pass is cross-checked against an explicit scalar-loop
reference, and every gradient path against central differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphdet.errors import ConfigError, DataError, NumericError, ShapeError
from morphdet.nncore import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ClassifierHead,
    Layer,
    MlpBackbone,
    SgdConfig,
    binary_cross_entropy_with_logit,
    finite_diff_check,
    glorot_uniform,
    read_checkpoint,
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
        assert np.allclose(backbone.forward(x), expected, rtol=0, atol=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(2)
    backbone = MlpBackbone.build([6, 8, 3], rng)
    batch = rng.normal(size=(4, 6))
    feats = backbone.forward(batch)
    for i in range(4):
        assert np.allclose(feats[i], backbone.forward(batch[i]), atol=1e-12)


def test_backbone_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    backbone = MlpBackbone.build([5, 6, 3], rng)
    x = rng.normal(size=(2, 5))
    target = rng.normal(size=(2, 3))
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
        grads = backbone.backward(cache, diff)
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
    feats, cache = backbone.forward_cached(np.array([[2.0]]))
    assert feats[0, 0] == 0.0
    grads = backbone.backward(cache, np.array([[1.0]]))
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
        backbone.forward(np.zeros(5))
    with pytest.raises(NumericError):
        backbone.forward(np.array([np.inf, 0.0, 0.0, 0.0]))


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
])
def test_checkpoint_rejects_corrupt_headers(tmp_path, header):
    path = tmp_path / "corrupt.mdck"
    path.write_bytes(_checkpoint_bytes(header, b"\x00" * 8))
    with pytest.raises(DataError):
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
