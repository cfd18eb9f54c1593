"""Dual-network training loop, checkpoints, and the identity classifier."""

import numpy as np
import pytest

from morphdet.datamine import assemble_dataset
from morphdet.errors import ConfigError, CoverageError, DataError, NumericError, ShapeError
from morphdet.fusedloss import DualLabels, KIND_BONAFIDE, KIND_MORPH_LM
from morphdet.nncore import Layer, MlpBackbone, SgdConfig
from morphdet.trainer import (
    DualModel,
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
    score_pair,
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
    assert report.variant == "fc-v2"
    assert report.config_echo["total_steps"] == len(report.records)


def test_training_is_deterministic(tiny_corpus, tiny_training):
    corpus, model, report = tiny_training
    again_model, again_report = train(
        tiny_corpus.root, corpus, tiny_corpus.bonafides, tiny_corpus.plan,
        6, FAST_SGD, "fc-v2", 0, **SMALL)
    for pa, pb in zip(model.parameters(), again_model.parameters()):
        assert np.array_equal(pa, pb)
    assert report.records == again_report.records


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


def test_scores_are_probabilities(tiny_corpus, tiny_training):
    _, model, _ = tiny_training
    cache = ImageCache(tiny_corpus.root)
    suspect = cache.flat(tiny_corpus.morphs[0].relpath)
    trusted = cache.flat(tiny_corpus.bonafides[0].relpath)
    score = score_pair(model, suspect, trusted)
    assert 0.0 < score < 1.0


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
    cache = ImageCache(tiny_corpus.root)
    suspect = cache.flat(tiny_corpus.morphs[0].relpath)
    trusted = cache.flat(tiny_corpus.bonafides[0].relpath)
    assert score_pair(model, suspect, trusted) == score_pair(loaded, suspect, trusted)


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
        for name in arrays:
            write_checkpoint(broken, meta, [(k, v) for k, v in arrays.items() if k != name])
            with pytest.raises(DataError, match=name):
                loader(broken)


def test_extract_features_validation(tiny_training):
    _, model, _ = tiny_training
    image = np.zeros(256)
    assert extract_features(model, image, "first").shape == (8,)
    with pytest.raises(ConfigError):
        extract_features(model, image, "suspect")
    with pytest.raises(ShapeError):
        extract_features(model, np.zeros(100), "first")


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


def test_divergence_raises_a_numeric_error(tiny_corpus):
    corpus = assemble_dataset(tiny_corpus.bonafides, tiny_corpus.selfmorphs,
                              tiny_corpus.morphs, 0)
    wild = SgdConfig(epochs=2, batch_size=7, lr_start=1e8, lr_end=1e7)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="diverged"):
            train(tiny_corpus.root, corpus, tiny_corpus.bonafides,
                  tiny_corpus.plan, 6, wild, "fc-v1", 0, **SMALL)


def test_identity_classifier_learns_the_tiny_corpus(tiny_corpus):
    backbone, head, report = train_identity_classifier(
        tiny_corpus.root, tiny_corpus.bonafides, 6,
        SgdConfig(epochs=20, batch_size=6), 0, **SMALL)
    assert head.num_classes == 6
    first_loss = report.records[0].l1
    last_loss = report.records[-1].l1
    assert last_loss < first_loss
    assert report.variant == "identity"
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


def test_identity_similarity_bounds(tiny_corpus):
    backbone, _, _ = train_identity_classifier(
        tiny_corpus.root, tiny_corpus.bonafides, 6,
        SgdConfig(epochs=1, batch_size=6), 0, **SMALL)
    cache = ImageCache(tiny_corpus.root)
    a = cache.flat(tiny_corpus.bonafides[0].relpath)
    b = cache.flat(tiny_corpus.bonafides[1].relpath)
    assert abs(identity_similarity(backbone, a, a) - 1.0) <= 1e-12
    sim = identity_similarity(backbone, a, b)
    assert 0.0 <= sim <= 1.0


def test_identity_similarity_rejects_zero_features():
    layers = [Layer(np.zeros((3, 4)), np.zeros(3), "linear")]
    backbone = MlpBackbone(layers)
    with pytest.raises(NumericError):
        identity_similarity(backbone, np.zeros(4), np.ones(4))
