"""Shared fixtures: a tiny on-disk corpus for module tests and the full
desk benchmark (data, nine detector trainings, identity classifiers,
protocol evaluations) reused by the acceptance tests."""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from morphdet import datamine, evalbench, morphgen, synthfaces, trainer
from morphdet.nncore import SgdConfig

TINY = dict(seed=5, n_identities=6, images_per_identity=3, image_size=16)

BENCH = dict(
    data_seed=0,
    n_identities=48,
    images_per_identity=8,
    image_size=32,
    train_seeds=(0, 1, 2),
    variants=("bc", "fc-v1", "fc-v2"),
    epochs=60,
    pair_weight=0.25,
    hidden_dims=(256,),
    feature_dim=64,
    morph_per_bona=5,
    train_family="landmark",
    heldout_family="latent",
)


@dataclass
class CorpusHandle:
    root: str
    dataset_rows: list
    morph_rows: list
    identities: list
    plan: datamine.SplitPlan
    cross_pairs: list
    synth_config: synthfaces.SynthConfig
    bonafides: list = field(default_factory=list)
    selfmorphs: list = field(default_factory=list)
    morphs: list = field(default_factory=list)

    def __post_init__(self):
        self.bonafides, self.selfmorphs, self.morphs = (
            datamine.records_from_manifests(self.dataset_rows, self.morph_rows)
        )


def build_corpus(root, seed, n_identities, images_per_identity, image_size):
    config = synthfaces.SynthConfig(image_size=image_size)
    dataset_rows = synthfaces.generate_dataset(
        root, seed, n_identities, images_per_identity, config)
    identities = synthfaces.build_identities(seed, n_identities, config)
    plan = datamine.split_identities([i for _, i, _ in dataset_rows], seed)
    n_cross, _ = morphgen.morph_counts(len(dataset_rows))
    cross_pairs = datamine.plan_morph_pairs(plan, n_cross, seed)
    morph_rows = morphgen.generate_morph_corpus(
        root, seed, identities, cross_pairs, images_per_identity,
        synth_config=config)
    return CorpusHandle(str(root), dataset_rows, morph_rows, identities, plan,
                        cross_pairs, config)


def full_product_backward(backbone, cache, dfeat, out, live_rows=None):
    """MlpBackbone.backward with every weight gradient the full product
    g.T @ a: the oracle of the live-row path, in the method's signature so
    that a test can patch it in."""
    g = dfeat
    for k in range(len(backbone.layers) - 1, -1, -1):
        a_in, z = cache[k]
        if backbone.layers[k].activation == "relu":
            g = g * (z > 0)
        np.matmul(g.T, a_in, out=out[2 * k])
        np.sum(g, axis=0, out=out[2 * k + 1])
        if k > 0:
            g = g @ backbone.layers[k].weights
    return out


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    return build_corpus(root, TINY["seed"], TINY["n_identities"],
                        TINY["images_per_identity"], TINY["image_size"])


@pytest.fixture(scope="session")
def tiny_model(tiny_corpus):
    corpus = datamine.assemble_dataset(tiny_corpus.bonafides,
                                       tiny_corpus.selfmorphs,
                                       tiny_corpus.morphs, 0)
    model, _report = trainer.train(
        tiny_corpus.root, corpus, tiny_corpus.bonafides, tiny_corpus.plan,
        TINY["n_identities"], SgdConfig(epochs=2, batch_size=7), "fc-v2", 0,
        hidden_dims=(16,), feature_dim=8)
    return model


@dataclass
class BenchResult:
    root: str
    handle: CorpusHandle
    protocols: dict  # family -> [ProtocolEntry]
    corpora: dict  # train seed -> balanced landmark-family corpus
    models: dict  # (seed, variant) -> DualModel
    apcer: dict  # (seed, variant, family) -> float at delta=0.1
    separation: dict  # (seed, variant) -> SeparationStat, fc variants only
    fr_backbones: dict  # seed -> identity backbone
    fused_apcer: dict  # (seed, family) -> float, fc-v2 + dissimilarity fusion
    detector_seconds: float  # wall time of the 9 trainings + their evals
    cache: trainer.ImageCache

    def median(self, variant, family):
        return float(np.median(
            [self.apcer[(s, variant, family)] for s in BENCH["train_seeds"]]))

    def median_fused(self, family):
        return float(np.median(
            [self.fused_apcer[(s, family)] for s in BENCH["train_seeds"]]))


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    handle = build_corpus(root, BENCH["data_seed"], BENCH["n_identities"],
                          BENCH["images_per_identity"], BENCH["image_size"])

    protocols = {}
    for family in morphgen.MORPH_FAMILIES:
        protocols[family] = evalbench.generate_protocol(
            handle.dataset_rows, handle.morph_rows, family,
            BENCH["data_seed"], BENCH["morph_per_bona"])

    family = (BENCH["train_family"],)
    selfm = datamine.filter_families(handle.selfmorphs, family)
    morphs = datamine.filter_families(handle.morphs, family)

    cache = trainer.ImageCache(str(root))
    corpora = {}
    models = {}
    apcer = {}
    separation = {}
    t0 = time.time()
    for seed in BENCH["train_seeds"]:
        corpus = datamine.assemble_dataset(handle.bonafides, selfm, morphs, seed)
        corpora[seed] = corpus
        for variant in BENCH["variants"]:
            model, _report = trainer.train(
                str(root), corpus, handle.bonafides, handle.plan,
                BENCH["n_identities"], SgdConfig(epochs=BENCH["epochs"]),
                variant, seed, hidden_dims=BENCH["hidden_dims"],
                feature_dim=BENCH["feature_dim"],
                pair_weight=BENCH["pair_weight"])
            models[(seed, variant)] = model
            for fam, entries in protocols.items():
                scores, excluded = evalbench.score_protocol(
                    model, entries, cache)
                assert not excluded
                values, is_attack = evalbench.align_scores(entries, scores)
                apcer[(seed, variant, fam)], _ = evalbench.apcer_at_bpcer(
                    values, is_attack, 0.1)
            if variant != "bc":
                separation[(seed, variant)] = trainer.morph_separation_stat(
                    model, corpus, cache)
    detector_seconds = time.time() - t0

    fr_backbones = {}
    fused_apcer = {}
    for seed in BENCH["train_seeds"]:
        backbone, _head, _report = trainer.train_identity_classifier(
            str(root), handle.bonafides, BENCH["n_identities"],
            SgdConfig(epochs=BENCH["epochs"]), seed)
        fr_backbones[seed] = backbone
        for fam, entries in protocols.items():
            scores, _ = evalbench.score_protocol(
                models[(seed, "fc-v2")], entries, cache)
            sims, excluded = evalbench.fr_similarities(
                backbone, entries, cache)
            assert not excluded
            fused = evalbench.fuse_score_lists(
                scores, sims, evalbench.FUSE_DISSIMILARITY)
            values, is_attack = evalbench.align_scores(entries, fused)
            fused_apcer[(seed, fam)], _ = evalbench.apcer_at_bpcer(
                values, is_attack, 0.1)

    return BenchResult(str(root), handle, protocols, corpora, models, apcer,
                       separation, fr_backbones, fused_apcer,
                       detector_seconds, cache)
