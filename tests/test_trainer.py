"""Dual-network training loop, checkpoints, and the identity classifier."""

import re

import numpy as np
import pytest

from conftest import build_corpus, full_product_backward
from morphdet.datamine import assemble_dataset
from morphdet.evalbench import GT_BONAFIDE, GT_MORPH, ProtocolEntry, score_protocol
from morphdet.errors import ConfigError, CoverageError, DataError, NumericError, ShapeError
from morphdet.fusedloss import DualLabels, KIND_MORPH_LM
from morphdet.nncore import FrozenRows, Layer, LiveRows, MlpBackbone, SgdConfig
from morphdet.trainer import (
    ImageCache,
    build_dual_model,
    extract_features,
    identity_similarity,
    load_identity_model,
    load_model,
    morph_separation_stat,
    pixel_features,
    save_identity_model,
    save_model,
    _schedule,
    train,
    train_identity_classifier,
)

SMALL = dict(hidden_dims=(16,), feature_dim=8)
FAST_SGD = SgdConfig(epochs=2, batch_size=7)


@pytest.fixture(scope="module")
def tiny_training(tiny_corpus):
    corpus = assemble_dataset(tiny_corpus.bonafides, tiny_corpus.selfmorphs,
                              tiny_corpus.morphs, 0)
    model, report = train(tiny_corpus.root, corpus, tiny_corpus.bonafides,
                          tiny_corpus.plan, 6, FAST_SGD, "fc-v2", 0, **SMALL)
    return corpus, model, report


def test_pixel_features_center_the_intensity_range():
    raw = np.array([0.0, 0.25, 0.5, 1.0])
    out = pixel_features(raw)
    assert np.array_equal(out, np.array([-1.0, -0.5, 0.0, 1.0]))
    assert np.array_equal(raw, np.array([0.0, 0.25, 0.5, 1.0]))
    stacked = pixel_features(np.full((2, 3), 0.5))
    assert stacked.shape == (2, 3)
    assert np.all(stacked == 0.0)


def test_build_is_deterministic_with_independent_components():
    a = build_dual_model(64, (16,), 8, 4, "fc-v1", 0)
    b = build_dual_model(64, (16,), 8, 4, "fc-v1", 0)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    c = build_dual_model(64, (16,), 8, 4, "fc-v1", 1)
    assert not np.array_equal(a.parameters()[0], c.parameters()[0])
    # the two backbones never share weights
    assert not np.array_equal(a.first_backbone.layers[0].weights,
                              a.second_backbone.layers[0].weights)
    assert not np.array_equal(a.first_head.weights, a.second_head.weights)


def test_head_sizes_follow_the_variant():
    for variant, rows in (("bc", 4), ("fc-v1", 4), ("fc-v2", 8)):
        model = build_dual_model(64, (16,), 8, 4, variant, 0)
        assert model.first_head.num_classes == rows
        assert model.second_head.num_classes == rows
        assert model.num_classes == 4
    with pytest.raises(ConfigError):
        build_dual_model(64, (16,), 8, 1, "bc", 0)


def test_image_cache_returns_flat_raw_intensities(tiny_corpus):
    cache = ImageCache(tiny_corpus.root)
    rel = tiny_corpus.bonafides[0].relpath
    flat = cache.flat(rel)
    assert flat.shape == (256,)
    assert flat.min() >= 0.0 and flat.max() <= 1.0
    assert cache.flat(rel) is flat
    with pytest.raises(DataError):
        cache.flat("images/absent.pgm")


def test_training_runs_the_exact_step_count(tiny_training):
    corpus, _, report = tiny_training
    steps_per_epoch = len(corpus) // FAST_SGD.batch_size
    assert len(report.records) == FAST_SGD.epochs * steps_per_epoch
    assert [r.step for r in report.records] == list(range(len(report.records)))
    assert report.records[0].lr == FAST_SGD.lr_start
    assert report.records[-1].lr == FAST_SGD.lr_end
    for row in report.records:
        assert np.isfinite([row.l1, row.l2, row.l3, row.total]).all()
        assert 0.0 <= row.t_ratio <= 1.0


def test_training_is_deterministic(tiny_corpus, tiny_training):
    corpus, model, report = tiny_training
    again_model, again_report = train(
        tiny_corpus.root, corpus, tiny_corpus.bonafides, tiny_corpus.plan,
        6, FAST_SGD, "fc-v2", 0, **SMALL)
    for pa, pb in zip(model.parameters(), again_model.parameters()):
        assert np.array_equal(pa, pb)
    assert report.records == again_report.records


def _packed_into_one_vector(arrays):
    """True when every array is a view of one 1-D vector holding exactly them."""
    vector = arrays[0].base
    return (vector is not None and vector.ndim == 1
            and vector.size == sum(a.size for a in arrays)
            and all(a.base is vector and np.shares_memory(a, vector) for a in arrays))


def test_training_leaves_parameters_in_one_vector(tiny_training):
    _, model, _ = tiny_training
    assert _packed_into_one_vector(model.parameters())


def test_identity_classifier_leaves_parameters_in_one_vector(tiny_corpus):
    backbone, head, _ = train_identity_classifier(
        tiny_corpus.root, tiny_corpus.bonafides, 6,
        SgdConfig(epochs=1, batch_size=6), 0, **SMALL)
    assert _packed_into_one_vector(backbone.parameters() + head.parameters())


def test_bc_total_is_the_weighted_pair_loss_only(tiny_corpus):
    corpus = assemble_dataset(tiny_corpus.bonafides, tiny_corpus.selfmorphs,
                              tiny_corpus.morphs, 0)
    _, report = train(tiny_corpus.root, corpus, tiny_corpus.bonafides,
                      tiny_corpus.plan, 6, SgdConfig(epochs=1, batch_size=7),
                      "bc", 0, pair_weight=0.25, **SMALL)
    for row in report.records:
        # zero-weighted identity components are skipped and report as 0
        assert row.l1 == 0.0 and row.l2 == 0.0
        assert row.l3 > 0.0
        assert abs(row.total - 0.25 * row.l3) < 1e-12


def test_report_csv_round_trip(tmp_path, tiny_training):
    _, _, report = tiny_training
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,lr,l1,l2,l3,total,t_ratio"
    assert len(lines) == len(report.records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == float(f"{report.records[0].lr:.9g}")
    assert float(first[5]) == float(f"{report.records[0].total:.9g}")


def _tiny_protocol(corpus):
    """A morph pair and a bona fide pair against the same trusted image."""
    trusted = corpus.bonafides[0].relpath
    return [ProtocolEntry("m0", corpus.morphs[0].relpath, trusted, GT_MORPH),
            ProtocolEntry("b0", corpus.bonafides[1].relpath, trusted, GT_BONAFIDE)]


def test_scores_are_probabilities(tiny_corpus, tiny_training):
    _, model, _ = tiny_training
    scores, exclusions = score_protocol(model, _tiny_protocol(tiny_corpus),
                                        ImageCache(tiny_corpus.root))
    assert exclusions == [] and [pair_id for pair_id, _ in scores] == ["m0", "b0"]
    assert all(0.0 < score < 1.0 for _, score in scores)


def test_model_checkpoint_round_trip_is_bit_exact(tmp_path, tiny_corpus, tiny_training):
    _, model, _ = tiny_training
    path = tmp_path / "model.mdck"
    save_model(path, model, seed=0, extra_meta={"note": "tiny"})
    loaded, meta = load_model(path)
    assert meta["kind"] == "dual" and meta["variant"] == "fc-v2"
    assert meta["note"] == "tiny"
    assert loaded.num_classes == model.num_classes
    for pa, pb in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(pa, pb)
    entries = _tiny_protocol(tiny_corpus)
    cache = ImageCache(tiny_corpus.root)
    assert score_protocol(model, entries, cache) == score_protocol(loaded, entries, cache)


def test_checkpoint_kinds_do_not_cross(tmp_path, tiny_training):
    _, model, _ = tiny_training
    dual_path = tmp_path / "dual.mdck"
    save_model(dual_path, model, seed=0)
    with pytest.raises(DataError, match="identity"):
        load_identity_model(dual_path)
    rng = np.random.default_rng(0)
    backbone = MlpBackbone.build([4, 3], rng)
    from morphdet.nncore import ClassifierHead

    head = ClassifierHead.build(2, 3, rng)
    ident_path = tmp_path / "ident.mdck"
    save_identity_model(ident_path, backbone, head, seed=0)
    with pytest.raises(DataError, match="dual"):
        load_model(ident_path)


def test_checkpoint_without_a_meta_key_or_array_is_a_data_error(tmp_path, tiny_training):
    from morphdet.nncore import read_checkpoint, write_checkpoint

    _, model, _ = tiny_training
    dual = tmp_path / "dual.mdck"
    save_model(dual, model, seed=0)
    ident = tmp_path / "ident.mdck"
    save_identity_model(ident, model.first_backbone, model.first_head, seed=0)
    broken = tmp_path / "broken.mdck"
    for loader, path, keys in ((load_model, dual, ("n_layers", "variant", "num_classes")),
                               (load_identity_model, ident, ("n_layers",))):
        meta, arrays = read_checkpoint(path)
        for key in keys:
            write_checkpoint(broken, {k: v for k, v in meta.items() if k != key},
                             arrays.items())
            with pytest.raises(DataError, match=key):
                loader(broken)
        write_checkpoint(broken, dict(meta, n_layers="two"), arrays.items())
        with pytest.raises(DataError, match="malformed"):
            loader(broken)
        write_checkpoint(broken, dict(meta, n_layers=0), arrays.items())
        with pytest.raises(DataError, match="n_layers must be at least 1"):
            loader(broken)
        for name in arrays:
            write_checkpoint(broken, meta, [(k, v) for k, v in arrays.items() if k != name])
            with pytest.raises(DataError, match=name):
                loader(broken)


def test_checkpoint_head_must_fit_its_backbone(tmp_path, tiny_training):
    from morphdet.nncore import read_checkpoint, write_checkpoint

    _, model, _ = tiny_training
    dual = tmp_path / "dual.mdck"
    save_model(dual, model, seed=0)
    ident = tmp_path / "ident.mdck"
    save_identity_model(ident, model.first_backbone, model.first_head, seed=0)
    broken = tmp_path / "broken.mdck"
    for loader, path, head in ((load_model, dual, "first.head"), (load_model, dual, "second.head"),
                               (load_identity_model, ident, "head")):
        meta, arrays = read_checkpoint(path)
        classes, features = arrays[f"{head}.weights"].shape
        arrays[f"{head}.weights"] = np.zeros((classes, features + 1))
        write_checkpoint(broken, meta, arrays.items())
        with pytest.raises(DataError, match=f"{head} takes {features + 1} features"):
            loader(broken)


def test_checkpoint_heads_must_fit_the_meta(tmp_path, tiny_training):
    from morphdet.nncore import read_checkpoint, write_checkpoint

    _, model, _ = tiny_training
    dual = tmp_path / "dual.mdck"
    save_model(dual, model, seed=0)
    ident = tmp_path / "ident.mdck"
    save_identity_model(ident, model.first_backbone, model.first_head, seed=0)
    broken = tmp_path / "broken.mdck"
    meta, arrays = read_checkpoint(dual)
    classes = meta["num_classes"]
    assert meta["variant"] == "fc-v2" and meta["head_classes"] == 2 * classes
    second_cut = dict(arrays, **{"second.head.weights": arrays["second.head.weights"][:classes],
                                 "second.head.biases": arrays["second.head.biases"][:classes]})
    for bad_meta, bad_arrays, message in (
            (dict(meta, num_classes=classes + 1, head_classes=2 * classes + 2), arrays,
             f"first.head has {2 * classes} classes"),
            (dict(meta, head_classes=2 * classes + 1), arrays, "head_classes"),
            (dict(meta, variant="fc-v1"), arrays, "head_classes"),
            (dict(meta, variant="fc-v9"), arrays, "unknown variant"),
            (meta, second_cut, f"second.head has {classes} classes"),
            (meta, dict(arrays, **{"first.layer9.weights": np.zeros(1)}), "first.layer9"),
    ):
        write_checkpoint(broken, bad_meta, bad_arrays.items())
        with pytest.raises(DataError, match=message):
            load_model(broken)
    meta, arrays = read_checkpoint(ident)
    for bad_meta, bad_arrays, message in (
            (dict(meta, num_classes=meta["num_classes"] - 1), arrays, "head has"),
            (meta, dict(arrays, extra=np.zeros(1)), "extra"),
    ):
        write_checkpoint(broken, bad_meta, bad_arrays.items())
        with pytest.raises(DataError, match=message):
            load_identity_model(broken)


def test_extract_features_validation(tiny_training):
    _, model, _ = tiny_training
    backbone = model.first_backbone
    images = [np.full(256, 0.25), np.full((16, 16), 0.75)]
    feats = extract_features(backbone, images)
    assert feats.shape == (2, 8)
    for feat, image in zip(feats, images):
        row = pixel_features(np.reshape(image, (1, 256)))
        assert np.array_equal(feat, backbone.forward(row)[0])
    assert extract_features(backbone, []).shape == (0, 8)
    with pytest.raises(ShapeError):
        extract_features(backbone, [np.zeros(100)])


def test_separation_stat_on_an_untrained_model(tiny_corpus):
    model = build_dual_model(256, (16,), 8, 6, "fc-v1", 3)
    cache = ImageCache(tiny_corpus.root)
    records = tiny_corpus.bonafides + tiny_corpus.morphs
    stat = morph_separation_stat(model, records, cache)
    assert np.isfinite(stat.first_ratio) and stat.first_ratio > 0.0
    assert np.isfinite(stat.second_ratio) and stat.second_ratio > 0.0
    assert not stat.degenerate


def test_separation_stat_coverage_errors(tiny_corpus):
    model = build_dual_model(256, (16,), 8, 6, "fc-v1", 3)
    cache = ImageCache(tiny_corpus.root)
    with pytest.raises(CoverageError):
        morph_separation_stat(model, tiny_corpus.bonafides, cache)
    from morphdet.datamine import CorpusRecord

    stray = CorpusRecord(tiny_corpus.morphs[0].relpath, DualLabels(99, 0), KIND_MORPH_LM)
    with pytest.raises(CoverageError, match="99"):
        morph_separation_stat(model, tiny_corpus.bonafides + [stray], cache)


def test_separation_stat_flags_degenerate_features(tiny_corpus):
    model = build_dual_model(256, (16,), 8, 6, "fc-v1", 3)
    for backbone in (model.first_backbone, model.second_backbone):
        for layer in backbone.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
    cache = ImageCache(tiny_corpus.root)
    records = tiny_corpus.bonafides + tiny_corpus.morphs
    stat = morph_separation_stat(model, records, cache)
    assert stat.degenerate
    assert stat.first_ratio == stat.second_ratio == 0.0


def test_training_rejects_undersized_corpus(tiny_corpus):
    corpus = assemble_dataset(tiny_corpus.bonafides, tiny_corpus.selfmorphs,
                              tiny_corpus.morphs, 0)
    with pytest.raises(ConfigError, match="smaller than one batch"):
        train(tiny_corpus.root, corpus, tiny_corpus.bonafides, tiny_corpus.plan,
              6, SgdConfig(epochs=1, batch_size=1000), "bc", 0, **SMALL)


LAST_GOOD = re.compile(r"last good step (\d+): lr (\S+), l1 (\S+), l2 (\S+), l3 (\S+)$")


def _last_good_step(message, sgd):
    """The step the divergence message names as the last good one, after
    checking that its lr is the schedule's and its losses are finite."""
    match = LAST_GOOD.search(message)
    assert match, message
    step = int(match.group(1))
    assert match.group(2) == f"{sgd.learning_rate(step):.9g}"
    assert np.isfinite([float(match.group(k)) for k in (3, 4, 5)]).all()
    return step


def test_divergence_raises_a_numeric_error(tiny_corpus):
    corpus = assemble_dataset(tiny_corpus.bonafides, tiny_corpus.selfmorphs,
                              tiny_corpus.morphs, 0)
    wild = SgdConfig(epochs=2, batch_size=7, lr_start=1e8, lr_end=1e7)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="diverged") as raised:
        train(tiny_corpus.root, corpus, tiny_corpus.bonafides,
              tiny_corpus.plan, 6, wild, "fc-v1", 0, **SMALL)
    message = str(raised.value)
    failed = int(re.search(r"diverged at step (\d+)", message).group(1))
    assert _last_good_step(message, _schedule(wild, len(corpus), "corpus")) == failed - 1


def test_an_identity_classifier_divergence_names_the_last_good_step(tiny_corpus):
    wild = SgdConfig(epochs=20, batch_size=6, lr_start=1e8, lr_end=1e7)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as raised:
        train_identity_classifier(tiny_corpus.root, tiny_corpus.bonafides, 6, wild, 0, **SMALL)
    message = str(raised.value)
    assert "non-finite" in message or "diverged" in message
    assert _last_good_step(message, _schedule(wild, len(tiny_corpus.bonafides), "set")) >= 0


@pytest.fixture(scope="module")
def desk_shaped_corpus(tmp_path_factory):
    """32 px images, so the networks have the desk shape: 1024 inputs."""
    return build_corpus(tmp_path_factory.mktemp("desk_shaped"), 3, 6, 4, 32)


DESK_NET = dict(hidden_dims=(256,), feature_dim=64)


def _train_desk_shaped(corpus, model, **sgd):
    """The detector (batch 28, 10 epochs of three steps) or the identity
    classifier (batch 24, 30 epochs of one step), with sgd overriding those
    and other SgdConfig keywords; returns the trained parameters and the
    report."""
    if model == "identity":
        sgd = SgdConfig(**{"epochs": 30, "batch_size": 24, **sgd})
        backbone, head, report = train_identity_classifier(
            corpus.root, corpus.bonafides, 6, sgd, 0, **DESK_NET)
        return backbone.parameters() + head.parameters(), report
    records = assemble_dataset(corpus.bonafides, corpus.selfmorphs, corpus.morphs, 0)
    sgd = SgdConfig(**{"epochs": 10, "batch_size": 28, **sgd})  # 96 records: 3 steps per epoch
    dual, report = train(corpus.root, records, corpus.bonafides, corpus.plan, 6, sgd,
                         "fc-v2", 0, pair_weight=0.25, **DESK_NET)
    return dual.parameters(), report


@pytest.mark.parametrize("model", ["detector", "identity"])
def test_live_row_training_matches_full_product_training(desk_shaped_corpus, monkeypatch,
                                                         tmp_path, model):
    fired = []
    weight_gradient = LiveRows.weight_gradient

    def counting(self, g, a_in, dw):
        fired.append(int(np.count_nonzero(g.any(axis=0))))
        weight_gradient(self, g, a_in, dw)

    monkeypatch.setattr(LiveRows, "weight_gradient", counting)
    params, report = _train_desk_shaped(desk_shaped_corpus, model)
    monkeypatch.setattr(MlpBackbone, "backward", full_product_backward)
    full_params, full_report = _train_desk_shaped(desk_shaped_corpus, model)
    assert len(report.records) == 30
    # the live-row path ran, with units dead and alive in one batch
    assert any(2 <= count < 256 for count in fired)
    for mine, full in zip(params, full_params):
        assert np.array_equal(mine.view(np.uint64), full.view(np.uint64))
    report.write_csv(tmp_path / "live.csv")
    full_report.write_csv(tmp_path / "full.csv")
    assert (tmp_path / "live.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    assert report.records == full_report.records


# A learning rate at which desk-shaped units die mid-run, most by step 40,
# and a momentum at which their velocity tails die out within 120 steps of
# either model; "cut" ends at step 45, while those tails pend.
SCHEDULES = {
    "dying": {"detector": dict(epochs=40, lr_start=0.05, lr_end=0.0005, momentum=0.5),
              "identity": dict(epochs=120, lr_start=0.05, lr_end=0.0005, momentum=0.5)},
    "cut": {"detector": dict(epochs=15, lr_start=0.05, lr_end=0.0005, momentum=0.5),
            "identity": dict(epochs=45, lr_start=0.05, lr_end=0.0005, momentum=0.5)},
}


# the silenced cases keep the ids they had before the dying and cut ones
FROZEN_CASES = [(case, model) for case in ("silenced", "dying", "cut")
                for model in ("detector", "identity")]


@pytest.mark.parametrize("case, model", FROZEN_CASES, ids=[
    model if case == "silenced" else f"{case}-{model}" for case, model in FROZEN_CASES])
def test_frozen_row_training_matches_full_path_training(desk_shaped_corpus, monkeypatch,
                                                        tmp_path, model, case):
    """silenced: with all but 40 first-layer units silenced by -1e3 biases,
    as selftest does, rows are proven dead at step 0 and every step takes
    the subset forward (but where a width is first found inexact) and the
    live-row update. dying: units die after step 0, certify() replays the
    pending tails of dead rows in bulk, and rows that died freeze. cut: the
    training ends while dead rows' tails pend, and its last catch-up
    replays them. The full path, where no row is ever proven dead, must give
    the same bytes."""
    if case == "silenced":
        build = MlpBackbone.build.__func__

        def silenced(cls, dims, rng):
            backbone = build(cls, dims, rng)
            backbone.layers[0].biases[40:] = -1e3
            return backbone

        monkeypatch.setattr(MlpBackbone, "build", classmethod(silenced))
    sgd = SCHEDULES[case][model] if case in SCHEDULES else {}
    forwards, certificates, replays = [], [], []
    pre_activation, certify, replay = (FrozenRows.pre_activation, FrozenRows.certify,
                                       FrozenRows._catch_up)

    def counting(self, layer, a):
        z = pre_activation(self, layer, a)
        if any(entry.layer is layer for entry in self._layers):  # a first layer
            forwards.append(None if z is None else int(np.count_nonzero(z.any(axis=0))))
        return z

    def certifying(self, live_rows):
        certify(self, live_rows)
        certificates.append([(entry.dead.copy(), entry.frozen.copy(), entry.exact)
                             for entry in self._layers])

    def replaying(self, entry):
        if (entry.dead & ~entry.frozen).any():
            replays.append(entry.pending)
        replay(self, entry)

    monkeypatch.setattr(FrozenRows, "pre_activation", counting)
    monkeypatch.setattr(FrozenRows, "certify", certifying)
    monkeypatch.setattr(FrozenRows, "_catch_up", replaying)
    params, report = _train_desk_shaped(desk_shaped_corpus, model, **sgd)
    monkeypatch.setattr(FrozenRows, "pre_activation", pre_activation)
    monkeypatch.setattr(FrozenRows, "certify", lambda self, live_rows: None)
    full_params, full_report = _train_desk_shaped(desk_shaped_corpus, model, **sgd)
    first, last = certificates[0], certificates[-1]
    if case == "silenced":
        # rows died at step 0: every step's first layers took the subset
        # product, or the full one where a width first differed from it
        assert len(forwards) == len(report.records) * len(first)
        subset = [count for count in forwards if count is not None and count <= 40]
        inexact = sum(list(exact.values()).count(False) for _dead, _frozen, exact in last)
        assert len(forwards) - len(subset) == inexact
        assert max(subset) > 0
    elif case == "cut":
        assert replays[-1] >= 2  # the tails pending when the training ended
    else:
        died = [dead & ~dead_first for (dead, _frozen, _exact), (dead_first, _, _)
                in zip(last, first)]
        assert any(rows.any() for rows in died)  # units died after step 0
        assert max(replays) >= 2  # tails replayed in bulk
        assert any((rows & frozen).any() for rows, (_dead, frozen, _exact) in zip(died, last))
        assert any(count is not None for count in forwards)
    for mine, full in zip(params, full_params):
        assert np.array_equal(mine.view(np.uint64), full.view(np.uint64))
    report.write_csv(tmp_path / "frozen.csv")
    full_report.write_csv(tmp_path / "full.csv")
    assert (tmp_path / "frozen.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_identity_classifier_learns_the_tiny_corpus(tiny_corpus):
    backbone, head, report = train_identity_classifier(
        tiny_corpus.root, tiny_corpus.bonafides, 6,
        SgdConfig(epochs=20, batch_size=6), 0, **SMALL)
    assert head.num_classes == 6
    first_loss = report.records[0].l1
    last_loss = report.records[-1].l1
    assert last_loss < first_loss
    again, _, again_report = train_identity_classifier(
        tiny_corpus.root, tiny_corpus.bonafides, 6,
        SgdConfig(epochs=20, batch_size=6), 0, **SMALL)
    for pa, pb in zip(backbone.parameters(), again.parameters()):
        assert np.array_equal(pa, pb)
    assert report.records == again_report.records


def test_identity_classifier_needs_bona_fides(tiny_corpus):
    with pytest.raises(ConfigError):
        train_identity_classifier(tiny_corpus.root, tiny_corpus.morphs, 6,
                                  SgdConfig(epochs=1, batch_size=4), 0, **SMALL)
    with pytest.raises(ConfigError, match="smaller than one batch"):
        train_identity_classifier(tiny_corpus.root, tiny_corpus.bonafides, 6,
                                  SgdConfig(epochs=1, batch_size=1000), 0, **SMALL)


def test_identity_similarity_bounds(tiny_corpus):
    backbone, _, _ = train_identity_classifier(
        tiny_corpus.root, tiny_corpus.bonafides, 6,
        SgdConfig(epochs=1, batch_size=6), 0, **SMALL)
    cache = ImageCache(tiny_corpus.root)
    fa, fb = extract_features(backbone, [cache.flat(r.relpath) for r in tiny_corpus.bonafides[:2]])
    assert abs(identity_similarity(fa, fa) - 1.0) <= 1e-12
    assert abs(identity_similarity(fa, -fa)) <= 1e-12
    sim = identity_similarity(fa, fb)
    assert 0.0 <= sim <= 1.0
    assert identity_similarity(fb, fa) == sim


def test_identity_similarity_rejects_zero_features():
    backbone = MlpBackbone([Layer(np.zeros((3, 4)), np.zeros(3), "linear")])
    fa, fb = extract_features(backbone, [np.zeros(4), np.ones(4)])
    with pytest.raises(NumericError):
        identity_similarity(fa, fb)
    with pytest.raises(NumericError):
        identity_similarity(np.ones(3), fb)
