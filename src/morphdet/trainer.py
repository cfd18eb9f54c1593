"""Dual-network training orchestration.

Two independent backbones plus classifier heads (no parameter sharing) are
trained jointly with the fused pair objective: the First network consumes
suspect images, the Second network consumes trusted bona fide images sampled
per the first-identity rule. The same machinery also trains the standalone
identity classifier used as a face-recognition analog for score fusion.

Before the first step a model's parameters are packed into one vector
(nncore.pack_parameters); backward passes write into the matching gradient
vector, and all parameters update every step through one SGD-with-momentum
call over the two vectors. The learning rate decays linearly across the full
planned step count. Reports are per-step CSV rows
`step,lr,l1,l2,l3,total,t_ratio`.
"""

import contextlib
import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .datamine import (
    SplitPlan,
    bonafide_pools,
    sample_batch,
    validate_corpus,
)
from .errors import ConfigError, CoverageError, DataError, NumericError, ShapeError
from .fusedloss import (
    KIND_BONAFIDE,
    LossWeights,
    allocate_labels,
    batch_pair_loss,
    check_variant,
    detection_score,
    head_class_count,
    is_morph_kind,
)
from .nncore import (
    ClassifierHead,
    MlpBackbone,
    SgdConfig,
    pack_parameters,
    read_checkpoint,
    sgd_step,
    softmax_cross_entropy_batch,
    write_checkpoint,
)
from .pgm import read_pgm
from .seeding import FR_BATCH_STREAM, INIT_STREAM, derive_rng

DEFAULT_HIDDEN_DIMS = (256,)
DEFAULT_FEATURE_DIM = 64


@dataclass
class DualModel:
    first_backbone: MlpBackbone
    second_backbone: MlpBackbone
    first_head: ClassifierHead
    second_head: ClassifierHead
    variant: str
    num_classes: int  # base identity class count C (heads hold C or 2C rows)

    def parameters(self):
        return (
            self.first_backbone.parameters()
            + self.first_head.parameters()
            + self.second_backbone.parameters()
            + self.second_head.parameters()
        )

    def units(self):
        """Layers and heads in parameters() order, for pack_parameters."""
        return (self.first_backbone.layers + [self.first_head]
                + self.second_backbone.layers + [self.second_head])


@dataclass
class TrainRecord:
    step: int
    lr: float
    l1: float
    l2: float
    l3: float
    total: float
    t_ratio: float


@dataclass
class TrainReport:
    records: list
    seed: int
    variant: str
    config_echo: dict

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("step,lr,l1,l2,l3,total,t_ratio\n")
            for r in self.records:
                fh.write(
                    f"{r.step},{r.lr:.9g},{r.l1:.9g},{r.l2:.9g},"
                    f"{r.l3:.9g},{r.total:.9g},{r.t_ratio:.9g}\n"
                )


def pixel_features(pixels: np.ndarray) -> np.ndarray:
    """Map raw pixel intensities in [0, 1] to network inputs in [-1, 1].

    Zero-centered inputs keep the first-layer gradient directions balanced;
    with raw intensities (mean well above zero) the shared positive component
    dominates early updates and the pair loss stalls at its saddle. Applied
    uniformly at every model entry point, for training and scoring alike.
    """
    return 2.0 * (np.asarray(pixels, dtype=np.float64) - 0.5)


class ImageCache:
    """Lazy image loader keyed by manifest-relative path; values are flat
    float64 vectors of raw intensities in [0, 1]. Cached arrays are shared;
    callers must not mutate."""

    def __init__(self, root):
        self.root = os.fspath(root)
        self._store = {}

    def flat(self, relpath: str) -> np.ndarray:
        hit = self._store.get(relpath)
        if hit is None:
            try:
                pixels = read_pgm(os.path.join(self.root, relpath))
            except OSError as exc:
                raise DataError(f"cannot load image {relpath}: {exc}") from exc
            hit = pixels.reshape(-1)
            self._store[relpath] = hit
        return hit


def build_dual_model(input_dim: int, hidden_dims, feature_dim: int,
                     num_classes: int, variant: str, seed: int) -> DualModel:
    """Fresh dual model; the four components draw from disjoint init streams."""
    check_variant(variant)
    if num_classes < 2:
        raise ConfigError("need at least 2 identity classes")
    dims = [int(input_dim)] + [int(d) for d in hidden_dims] + [int(feature_dim)]
    head_classes = head_class_count(variant, num_classes)
    first_backbone = MlpBackbone.build(dims, derive_rng(seed, INIT_STREAM, 0))
    first_head = ClassifierHead.build(head_classes, feature_dim, derive_rng(seed, INIT_STREAM, 1))
    second_backbone = MlpBackbone.build(dims, derive_rng(seed, INIT_STREAM, 2))
    second_head = ClassifierHead.build(head_classes, feature_dim, derive_rng(seed, INIT_STREAM, 3))
    return DualModel(first_backbone, second_backbone, first_head, second_head,
                     variant, num_classes)


def _batch_arrays(batch, cache: ImageCache, variant: str, num_classes: int):
    suspects = pixel_features(np.stack([cache.flat(p.first.relpath) for p in batch]))
    trusted = pixel_features(np.stack([cache.flat(p.second.relpath) for p in batch]))
    first_classes = np.array(
        [allocate_labels(p.first.labels, p.first.kind, variant, num_classes)[0]
         for p in batch],
        dtype=np.int64,
    )
    second_classes = np.array(
        [allocate_labels(p.second.labels, p.second.kind, variant, num_classes)[1]
         for p in batch],
        dtype=np.int64,
    )
    t = np.array([p.t for p in batch], dtype=np.float64)
    return suspects, trusted, first_classes, second_classes, t


def loss_and_grads(model: DualModel, batch_arrays, weights: LossWeights, grad_views):
    """Fused loss of one batch; writes its gradients into grad_views.

    batch_arrays is (suspects, trusted, first_classes, second_classes, t) as
    built by _batch_arrays; grad_views are the gradient views returned by
    pack_parameters(model.units()). Gradients are written only when the total
    loss is finite. Returns the BatchLossBreakdown.
    """
    suspects, trusted, first_classes, second_classes, t = batch_arrays
    first_feats, first_cache = model.first_backbone.forward_cached(suspects)
    second_feats, second_cache = model.second_backbone.forward_cached(trusted)
    breakdown, grads = batch_pair_loss(
        first_feats, second_feats, model.first_head, model.second_head,
        first_classes, second_classes, t, weights,
    )
    if np.isfinite(breakdown.total):
        # each network's views: its backbone's [dW0, db0, ...], then its head's two
        n = len(model.first_backbone.parameters()) + 2
        first, second = grad_views[:n], grad_views[n:]
        model.first_backbone.backward(first_cache, grads.d_first_feats, out=first[:-2])
        first[-2][...] = grads.d_first_weights
        first[-1][...] = grads.d_first_biases
        model.second_backbone.backward(second_cache, grads.d_second_feats, out=second[:-2])
        second[-2][...] = grads.d_second_weights
        second[-1][...] = grads.d_second_biases
    return breakdown


def train(root, corpus, trusted_records, plan: SplitPlan, num_classes: int,
          sgd: SgdConfig, variant: str, seed: int,
          hidden_dims=DEFAULT_HIDDEN_DIMS, feature_dim: int = DEFAULT_FEATURE_DIM,
          pair_weight: float = 1.0):
    """Train a dual model on a balanced corpus.

    trusted_records are the original bona fides eligible as trusted images
    (drawn from the full dataset manifest, independent of corpus balancing).
    Runs epochs * floor(len(corpus) / batch_size) steps exactly.
    """
    check_variant(variant)
    validate_corpus(corpus, plan)
    pools = bonafide_pools(trusted_records)
    steps_per_epoch = len(corpus) // sgd.batch_size
    if steps_per_epoch < 1:
        raise ConfigError(
            f"corpus of {len(corpus)} records is smaller than one batch of {sgd.batch_size}"
        )
    total_steps = sgd.epochs * steps_per_epoch
    sgd = dataclasses.replace(sgd, total_steps=total_steps)

    cache = ImageCache(root)
    probe = cache.flat(corpus[0].relpath)
    model = build_dual_model(probe.size, hidden_dims, feature_dim,
                             num_classes, variant, seed)
    weights = LossWeights.for_variant(variant, pair_weight)
    params, grad, grad_views = pack_parameters(model.units())
    velocity = np.zeros_like(params)

    records = []
    for step in range(total_steps):
        batch = sample_batch(corpus, pools, sgd.batch_size, seed, step)
        batch_arrays = _batch_arrays(batch, cache, variant, num_classes)
        breakdown = loss_and_grads(model, batch_arrays, weights, grad_views)
        if not np.isfinite(breakdown.total):
            kinds = ",".join(p.first.kind for p in batch[:5])
            raise NumericError(
                f"training diverged at step {step} "
                f"(batch head: {batch[0].first.relpath} kinds: {kinds})"
            )
        lr = sgd.learning_rate(step)
        sgd_step([params], [grad], [velocity], step, sgd)
        records.append(TrainRecord(step, lr, breakdown.l1, breakdown.l2,
                                   breakdown.l3, breakdown.total, breakdown.t_ratio))

    echo = {
        "momentum": sgd.momentum, "lr_start": sgd.lr_start, "lr_end": sgd.lr_end,
        "batch_size": sgd.batch_size, "epochs": sgd.epochs,
        "total_steps": total_steps, "hidden_dims": list(hidden_dims),
        "feature_dim": feature_dim, "num_classes": num_classes,
        "pair_weight": pair_weight,
    }
    return model, TrainReport(records, seed, variant, echo)


def extract_features(model: DualModel, image, which: str) -> np.ndarray:
    """Backbone features (no head) for a single image or flat vector."""
    if which == "first":
        backbone = model.first_backbone
    elif which == "second":
        backbone = model.second_backbone
    else:
        raise ConfigError(f"which must be 'first' or 'second', got {which!r}")
    flat = np.asarray(image, dtype=np.float64).reshape(-1)
    if flat.size != backbone.input_dim:
        raise ShapeError(
            f"image with {flat.size} pixels does not fit input dim {backbone.input_dim}"
        )
    return backbone.forward(pixel_features(flat))


def score_pair(model: DualModel, suspect_image, trusted_image) -> float:
    """Morph-detection score for one suspect/trusted pair; higher = attack."""
    return detection_score(
        extract_features(model, suspect_image, "first"),
        extract_features(model, trusted_image, "second"),
    )


# ---------------------------------------------------------------------------
# Feature-geometry diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationStat:
    """Mean morph-to-own-class-centroid distance over mean inter-centroid
    distance, per network. Larger = morphs pushed further from their source
    identity clusters."""

    first_ratio: float
    second_ratio: float
    degenerate: bool = False


def morph_separation_stat(model: DualModel, records, cache: ImageCache) -> SeparationStat:
    """Compute the separation ratios on a labeled record set.

    Centroids come from original bona fide images only. Morph features are
    measured against the centroid of their y1 class (First network) and y2
    class (Second network).
    """
    bona = [r for r in records if r.kind == KIND_BONAFIDE]
    morphs = [r for r in records if is_morph_kind(r.kind)]
    if not bona or not morphs:
        raise CoverageError("separation stat needs bona fides and morphs")

    ratios = []
    for which, label_of in (("first", lambda r: r.labels.y1),
                            ("second", lambda r: r.labels.y2)):
        feats_by_id = {}
        for record in bona:
            feats_by_id.setdefault(record.labels.y1, []).append(
                extract_features(model, cache.flat(record.relpath), which)
            )
        centroids = {i: np.mean(np.stack(f), axis=0) for i, f in feats_by_id.items()}
        ids = sorted(centroids)
        pair_dists = [
            float(np.linalg.norm(centroids[a] - centroids[b]))
            for k, a in enumerate(ids) for b in ids[k + 1 :]
        ]
        scale = float(np.mean(pair_dists)) if pair_dists else 0.0
        if scale < 1e-12:
            return SeparationStat(0.0, 0.0, degenerate=True)
        dists = []
        for record in morphs:
            target = label_of(record)
            if target not in centroids:
                raise CoverageError(f"no bona fide samples for identity {target}")
            feat = extract_features(model, cache.flat(record.relpath), which)
            dists.append(float(np.linalg.norm(feat - centroids[target])))
        ratios.append(float(np.mean(dists)) / scale)
    return SeparationStat(ratios[0], ratios[1])


# ---------------------------------------------------------------------------
# Checkpoint wrappers
# ---------------------------------------------------------------------------


def _backbone_arrays(prefix: str, backbone: MlpBackbone):
    out = []
    for k, layer in enumerate(backbone.layers):
        out.append((f"{prefix}.layer{k}.weights", layer.weights))
        out.append((f"{prefix}.layer{k}.biases", layer.biases))
    return out


def _backbone_from_arrays(prefix: str, arrays: dict, n_layers: int) -> MlpBackbone:
    from .nncore import Layer

    if n_layers < 1:  # raised inside _checkpoint_fields, which makes it a DataError
        raise ValueError(f"n_layers must be at least 1, got {n_layers}")
    layers = []
    for k in range(n_layers):
        weights = arrays[f"{prefix}.layer{k}.weights"]
        biases = arrays[f"{prefix}.layer{k}.biases"]
        act = "linear" if k == n_layers - 1 else "relu"
        layers.append(Layer(weights, biases, act))
    return MlpBackbone(layers)


@contextlib.contextmanager
def _checkpoint_fields(path):
    """Turn a missing or malformed checkpoint meta key or array into DataError."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint has no {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint field: {exc}") from exc


def save_model(path, model: DualModel, seed: int, extra_meta: dict = None) -> None:
    meta = {
        "kind": "dual",
        "variant": model.variant,
        "num_classes": model.num_classes,
        "head_classes": model.first_head.num_classes,
        "n_layers": len(model.first_backbone.layers),
        "seed": seed,
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = (
        _backbone_arrays("first", model.first_backbone)
        + [("first.head.weights", model.first_head.weights),
           ("first.head.biases", model.first_head.biases)]
        + _backbone_arrays("second", model.second_backbone)
        + [("second.head.weights", model.second_head.weights),
           ("second.head.biases", model.second_head.biases)]
    )
    write_checkpoint(path, meta, arrays)


def load_model(path):
    """Returns (DualModel, meta) for a checkpoint written by save_model."""
    meta, arrays = read_checkpoint(path)
    if meta.get("kind") != "dual":
        raise DataError(f"{path}: not a dual-model checkpoint")
    with _checkpoint_fields(path):
        n_layers = int(meta["n_layers"])
        model = DualModel(
            first_backbone=_backbone_from_arrays("first", arrays, n_layers),
            second_backbone=_backbone_from_arrays("second", arrays, n_layers),
            first_head=ClassifierHead(arrays["first.head.weights"],
                                      arrays["first.head.biases"]),
            second_head=ClassifierHead(arrays["second.head.weights"],
                                       arrays["second.head.biases"]),
            variant=str(meta["variant"]),
            num_classes=int(meta["num_classes"]),
        )
    return model, meta


# ---------------------------------------------------------------------------
# Identity classifier (face-recognition analog for score fusion)
# ---------------------------------------------------------------------------


def train_identity_classifier(root, bonafide_records, num_classes: int,
                              sgd: SgdConfig, seed: int,
                              hidden_dims=DEFAULT_HIDDEN_DIMS,
                              feature_dim: int = DEFAULT_FEATURE_DIM):
    """Plain softmax identity classifier on original bona fides.

    Returns (backbone, head, TrainReport); the report reuses the fused-loss
    CSV columns with the classification loss under l1.
    """
    records = [r for r in bonafide_records if r.kind == KIND_BONAFIDE]
    if not records:
        raise ConfigError("identity classifier needs original bona fide records")
    steps_per_epoch = len(records) // sgd.batch_size
    if steps_per_epoch < 1:
        raise ConfigError("fewer bona fide records than one batch")
    total_steps = sgd.epochs * steps_per_epoch
    sgd = dataclasses.replace(sgd, total_steps=total_steps)

    cache = ImageCache(root)
    probe = cache.flat(records[0].relpath)
    backbone = MlpBackbone.build(
        [probe.size] + [int(d) for d in hidden_dims] + [int(feature_dim)],
        derive_rng(seed, INIT_STREAM, 10),
    )
    head = ClassifierHead.build(num_classes, feature_dim, derive_rng(seed, INIT_STREAM, 11))
    params, grad, grad_views = pack_parameters(backbone.layers + [head])
    velocity = np.zeros_like(params)

    rows = []
    for step in range(total_steps):
        rng = derive_rng(seed, FR_BATCH_STREAM, step)
        picks = rng.integers(len(records), size=sgd.batch_size)
        batch = [records[int(i)] for i in picks]
        x = pixel_features(np.stack([cache.flat(r.relpath) for r in batch]))
        labels = np.array([r.labels.y1 for r in batch], dtype=np.int64)
        feats, fwd_cache = backbone.forward_cached(x)
        logits = head.logits(feats)
        losses, dlogits = softmax_cross_entropy_batch(logits, labels)
        loss = float(np.mean(losses))
        if not np.isfinite(loss):
            raise NumericError(f"identity classifier diverged at step {step}")
        dlogits = dlogits / len(batch)
        np.matmul(dlogits.T, feats, out=grad_views[-2])
        np.sum(dlogits, axis=0, out=grad_views[-1])
        dfeats = dlogits @ head.weights
        backbone.backward(fwd_cache, dfeats, out=grad_views[:-2])
        lr = sgd.learning_rate(step)
        sgd_step([params], [grad], [velocity], step, sgd)
        rows.append(TrainRecord(step, lr, loss, 0.0, 0.0, loss, 0.0))

    echo = {
        "momentum": sgd.momentum, "lr_start": sgd.lr_start, "lr_end": sgd.lr_end,
        "batch_size": sgd.batch_size, "epochs": sgd.epochs,
        "total_steps": total_steps, "hidden_dims": list(hidden_dims),
        "feature_dim": feature_dim, "num_classes": num_classes,
    }
    return backbone, head, TrainReport(rows, seed, "identity", echo)


def save_identity_model(path, backbone: MlpBackbone, head: ClassifierHead,
                        seed: int, extra_meta: dict = None) -> None:
    meta = {
        "kind": "identity",
        "num_classes": head.num_classes,
        "n_layers": len(backbone.layers),
        "seed": seed,
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = _backbone_arrays("backbone", backbone) + [
        ("head.weights", head.weights),
        ("head.biases", head.biases),
    ]
    write_checkpoint(path, meta, arrays)


def load_identity_model(path):
    """Returns (backbone, head, meta) for an identity-classifier checkpoint."""
    meta, arrays = read_checkpoint(path)
    if meta.get("kind") != "identity":
        raise DataError(f"{path}: not an identity-classifier checkpoint")
    with _checkpoint_fields(path):
        backbone = _backbone_from_arrays("backbone", arrays, int(meta["n_layers"]))
        head = ClassifierHead(arrays["head.weights"], arrays["head.biases"])
    return backbone, head, meta


def identity_similarity(backbone: MlpBackbone, image_a, image_b) -> float:
    """Cosine feature similarity mapped to [0, 1]."""
    fa = backbone.forward(pixel_features(np.asarray(image_a, dtype=np.float64).reshape(-1)))
    fb = backbone.forward(pixel_features(np.asarray(image_b, dtype=np.float64).reshape(-1)))
    na = float(np.linalg.norm(fa))
    nb = float(np.linalg.norm(fb))
    if na < 1e-12 or nb < 1e-12:
        raise NumericError("zero-norm feature in similarity computation")
    cos = float(np.dot(fa, fb) / (na * nb))
    return 0.5 * (1.0 + max(-1.0, min(1.0, cos)))
