"""Fused-loss math: label allocation, loss identities, analytic gradients.

Direct-formula oracles throughout; the batch form is held to the mean of the
pairwise form at 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphdet.errors import NumericError, RangeError, ShapeError
from morphdet.fusedloss import (
    KIND_BONAFIDE,
    KIND_MORPH_LATENT,
    KIND_MORPH_LM,
    KIND_SELFMORPH_LATENT,
    KIND_SELFMORPH_LM,
    VARIANTS,
    DualLabels,
    LossWeights,
    allocate_labels,
    batch_pair_loss,
    check_variant,
    cross_label,
    detection_score,
    head_class_count,
    is_morph_kind,
    pair_loss,
)
from morphdet.nncore import ClassifierHead, softmax_cross_entropy

FEAT = 5
C = 4


def make_heads(variant, rng):
    n = head_class_count(variant, C)
    first = ClassifierHead.build(n, FEAT, rng)
    second = ClassifierHead.build(n, FEAT, rng)
    return first, second


def test_kind_taxonomy():
    assert is_morph_kind(KIND_MORPH_LM) and is_morph_kind(KIND_MORPH_LATENT)
    for kind in (KIND_BONAFIDE, KIND_SELFMORPH_LM, KIND_SELFMORPH_LATENT):
        assert not is_morph_kind(kind)
    with pytest.raises(RangeError):
        is_morph_kind("sprite")
    with pytest.raises(RangeError):
        check_variant("fc-v3")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 50), st.integers(0, 50))
def test_cross_label_is_disagreement_indicator(a, b):
    assert cross_label(a, b) == (0 if a == b else 1)
    assert cross_label(a, a) == 0


def test_head_class_count_doubles_only_for_v2():
    assert head_class_count("bc", C) == C
    assert head_class_count("fc-v1", C) == C
    assert head_class_count("fc-v2", C) == 2 * C


def test_allocate_labels_table():
    bona = DualLabels(2, 2)
    morph = DualLabels(1, 3)
    for variant in ("bc", "fc-v1"):
        assert allocate_labels(bona, KIND_BONAFIDE, variant, C) == (2, 2)
        assert allocate_labels(morph, KIND_MORPH_LM, variant, C) == (1, 3)
    # v2 shifts morphs into their own class block, bona fide kinds never move
    assert allocate_labels(bona, KIND_BONAFIDE, "fc-v2", C) == (2, 2)
    assert allocate_labels(bona, KIND_SELFMORPH_LM, "fc-v2", C) == (2, 2)
    assert allocate_labels(morph, KIND_MORPH_LM, "fc-v2", C) == (1 + C, 3 + C)
    assert allocate_labels(morph, KIND_MORPH_LATENT, "fc-v2", C) == (1 + C, 3 + C)
    with pytest.raises(RangeError):
        allocate_labels(DualLabels(0, C), KIND_BONAFIDE, "bc", C)
    with pytest.raises(RangeError):
        allocate_labels(DualLabels(-1, 0), KIND_BONAFIDE, "bc", C)


def test_loss_weights_by_variant():
    for variant in VARIANTS:
        w = LossWeights.for_variant(variant, pair_weight=0.25)
        assert w.w3 == 0.25
        if variant == "bc":
            assert w.w1 == 0.0 and w.w2 == 0.0
        else:
            assert w.w1 == 1.0 and w.w2 == 1.0
    with pytest.raises(RangeError):
        LossWeights(-0.1, 1.0, 1.0)


def test_uniform_logits_give_ln_c():
    for classes in (2, 3, 7, 48, 96):
        loss, _ = softmax_cross_entropy(np.zeros(classes), 0)
        assert abs(loss - math.log(classes)) < 1e-12


def test_pair_loss_at_zero_dot_is_ln_two():
    rng = np.random.default_rng(0)
    first, second = make_heads("bc", rng)
    f = np.zeros(FEAT)
    weights = LossWeights.for_variant("bc")
    for t in (0, 1):
        breakdown, _ = pair_loss(f, f, first, second, 0, 0, t, weights)
        assert abs(breakdown.l3 - math.log(2.0)) < 1e-12
        assert breakdown.dot == 0.0


def test_pair_logit_monotonicity_over_grid():
    rng = np.random.default_rng(1)
    first, second = make_heads("bc", rng)
    weights = LossWeights.for_variant("bc")
    grid = np.linspace(-20.0, 20.0, 161)
    for t in (0, 1):
        losses = []
        for d in grid:
            f1 = np.zeros(FEAT)
            f1[0] = d
            f2 = np.zeros(FEAT)
            f2[0] = 1.0
            breakdown, _ = pair_loss(f1, f2, first, second, 0, 0, t, weights)
            assert abs(breakdown.dot - d) < 1e-12
            losses.append(breakdown.l3)
        diffs = np.diff(losses)
        if t == 1:
            assert np.all(diffs < 0)  # larger D, smaller loss toward 0
        else:
            assert np.all(diffs > 0)


def test_pair_loss_direct_formula_cross_check():
    rng = np.random.default_rng(2)
    for variant in VARIANTS:
        first, second = make_heads(variant, rng)
        weights = LossWeights.for_variant(variant, pair_weight=0.7)
        f1 = rng.normal(size=FEAT)
        f2 = rng.normal(size=FEAT)
        c1 = int(rng.integers(head_class_count(variant, C)))
        c2 = int(rng.integers(head_class_count(variant, C)))
        breakdown, _ = pair_loss(f1, f2, first, second, c1, c2, 1, weights)
        d = float(f1 @ f2)
        p = 1.0 / (1.0 + math.exp(-d))
        assert abs(breakdown.l3 - (-math.log(p))) < 1e-12
        if variant == "bc":
            assert breakdown.l1 == 0.0 and breakdown.l2 == 0.0
            assert abs(breakdown.total - weights.w3 * breakdown.l3) < 1e-12
        else:
            exp1, _ = softmax_cross_entropy(first.logits(f1), c1)
            exp2, _ = softmax_cross_entropy(second.logits(f2), c2)
            assert abs(breakdown.l1 - exp1) < 1e-12
            assert abs(breakdown.l2 - exp2) < 1e-12
            expected = exp1 + exp2 + weights.w3 * breakdown.l3
            assert abs(breakdown.total - expected) < 1e-12


def flatten_pair_state(f1, f2, first, second):
    return np.concatenate([
        f1, f2,
        first.weights.reshape(-1), first.biases,
        second.weights.reshape(-1), second.biases,
    ])


def test_pair_loss_gradients_match_finite_differences():
    from morphdet.nncore import finite_diff_check

    rng = np.random.default_rng(3)
    for variant in VARIANTS:
        n_head = head_class_count(variant, C)
        first, second = make_heads(variant, rng)
        weights = LossWeights.for_variant(variant, pair_weight=0.6)
        f1 = rng.normal(size=FEAT)
        f2 = rng.normal(size=FEAT)
        c1 = int(rng.integers(n_head))
        c2 = int(rng.integers(n_head))
        for t in (0, 1):
            def loss_and_grad(theta):
                k = 0
                tf1 = theta[k : k + FEAT]; k += FEAT
                tf2 = theta[k : k + FEAT]; k += FEAT
                w1 = theta[k : k + n_head * FEAT].reshape(n_head, FEAT); k += n_head * FEAT
                b1 = theta[k : k + n_head]; k += n_head
                w2 = theta[k : k + n_head * FEAT].reshape(n_head, FEAT); k += n_head * FEAT
                b2 = theta[k : k + n_head]
                h1 = ClassifierHead(w1.copy(), b1.copy())
                h2 = ClassifierHead(w2.copy(), b2.copy())
                breakdown, grads = pair_loss(tf1, tf2, h1, h2, c1, c2, t, weights)
                flat = np.concatenate([
                    grads.d_first_feat, grads.d_second_feat,
                    grads.d_first_weights.reshape(-1), grads.d_first_biases,
                    grads.d_second_weights.reshape(-1), grads.d_second_biases,
                ])
                return breakdown.total, flat

            theta0 = flatten_pair_state(f1, f2, first, second)
            assert finite_diff_check(loss_and_grad, theta0) < 1e-7, (variant, t)


def test_batch_loss_equals_mean_of_pairs():
    rng = np.random.default_rng(4)
    n = 6
    for variant in VARIANTS:
        n_head = head_class_count(variant, C)
        first, second = make_heads(variant, rng)
        weights = LossWeights.for_variant(variant, pair_weight=0.3)
        f1 = rng.normal(size=(n, FEAT))
        f2 = rng.normal(size=(n, FEAT))
        c1 = rng.integers(n_head, size=n)
        c2 = rng.integers(n_head, size=n)
        t = rng.integers(2, size=n)

        batch, batch_grads = batch_pair_loss(f1, f2, first, second, c1, c2, t, weights)

        parts = [pair_loss(f1[i], f2[i], first, second, int(c1[i]), int(c2[i]),
                           int(t[i]), weights) for i in range(n)]
        assert abs(batch.l1 - np.mean([p[0].l1 for p in parts])) < 1e-12
        assert abs(batch.l2 - np.mean([p[0].l2 for p in parts])) < 1e-12
        assert abs(batch.l3 - np.mean([p[0].l3 for p in parts])) < 1e-12
        assert abs(batch.total - np.mean([p[0].total for p in parts])) < 1e-12
        assert batch.t_ratio == pytest.approx(np.mean(t), abs=1e-15)

        for i in range(n):
            assert np.allclose(batch_grads.d_first_feats[i],
                               parts[i][1].d_first_feat / n, atol=1e-12)
            assert np.allclose(batch_grads.d_second_feats[i],
                               parts[i][1].d_second_feat / n, atol=1e-12)
        assert np.allclose(batch_grads.d_first_weights,
                           np.mean([p[1].d_first_weights for p in parts], axis=0),
                           atol=1e-12)
        assert np.allclose(batch_grads.d_second_biases,
                           np.mean([p[1].d_second_biases for p in parts], axis=0),
                           atol=1e-12)


def test_zero_weight_components_send_no_gradient():
    rng = np.random.default_rng(5)
    first, second = make_heads("bc", rng)
    weights = LossWeights.for_variant("bc")
    f1 = rng.normal(size=FEAT)
    f2 = rng.normal(size=FEAT)
    _, grads = pair_loss(f1, f2, first, second, 1, 2, 0, weights)
    assert np.all(grads.d_first_weights == 0.0)
    assert np.all(grads.d_first_biases == 0.0)
    assert np.all(grads.d_second_weights == 0.0)
    assert np.all(grads.d_second_biases == 0.0)
    # pair-loss gradient still flows into the features
    assert np.any(grads.d_first_feat != 0.0)


def test_detection_score_is_sigmoid_of_dot():
    rng = np.random.default_rng(6)
    f1 = rng.normal(size=FEAT)
    f2 = rng.normal(size=FEAT)
    expected = 1.0 / (1.0 + math.exp(-float(f1 @ f2)))
    assert abs(detection_score(f1, f2) - expected) < 1e-15
    big = np.full(FEAT, 100.0)
    assert detection_score(big, big) == 1.0  # saturates cleanly


def test_feature_validation():
    with pytest.raises(ShapeError):
        detection_score(np.zeros(3), np.zeros(4))
    with pytest.raises(NumericError):
        detection_score(np.array([np.nan]), np.array([1.0]))
    rng = np.random.default_rng(7)
    first, second = make_heads("bc", rng)
    weights = LossWeights.for_variant("bc")
    with pytest.raises(RangeError):
        pair_loss(np.zeros(FEAT), np.zeros(FEAT), first, second, 0, 0, 2, weights)
    with pytest.raises(ShapeError):
        batch_pair_loss(np.zeros((2, FEAT)), np.zeros((2, FEAT)), first, second,
                        [0, 0], [0, 0], [0, 0, 0], weights)
