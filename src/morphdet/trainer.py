"""Dual-network training orchestration.

Two independent backbones plus classifier heads (no parameter sharing) are
trained jointly with the fused pair objective: the First network consumes
suspect images, the Second network consumes trusted bona fide images sampled
per the first-identity rule. The standalone identity classifier used as a
face-recognition analog for score fusion is trained by the same loop.

That loop (_fit) packs a model's parameters into one vector
(nncore.pack_parameters) and runs epochs * floor(records / batch) steps. Each
step calls the model's objective, which writes the gradient views:
loss_and_grads for the dual model, identity_loss_and_grads for the identity
classifier. The loop also owns the views' nncore.LiveRows record, so that
each backward clears only the weight-gradient rows the previous one left
non-zero, and beside it an nncore.FrozenRows record: every
nncore.FREEZE_EVERY steps it proves first-layer rows dead, against every
image their network is fed and however far their momentum tail moves them,
and once a first layer has few live rows the forward and the update skip
the dead ones. The steps a dead row skips pend; the record replays them at
each certificate, until the row is frozen, and once more after the last
step, before the model is returned. Both records live for one training.
Then one SGD-with-momentum call updates the whole vector. The
learning rate decays linearly across the planned step count. Reports are
per-step CSV rows `step,lr,l1,l2,l3,total,t_ratio`. Both models are saved and
loaded through one checkpoint writer and one reader, keyed by model kind.

Each training reads its images once into one (N, D) uint8 matrix
(_image_rows) and builds its label arrays once, so a step is index draws,
gathers and the elementwise map to network inputs (_inputs). ImageCache
serves scoring.
"""

import contextlib
import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .datamine import (
    SplitPlan,
    bonafide_pools,
    pair_rows,
    sample_batch,
    validate_corpus,
)
from .errors import ConfigError, CoverageError, DataError, NumericError, RangeError
from .fusedloss import (
    KIND_BONAFIDE,
    LossWeights,
    allocate_labels,
    batch_pair_loss,
    check_variant,
    head_class_count,
    is_morph_kind,
)
from .nncore import (
    FREEZE_EVERY,
    ClassifierHead,
    FrozenRows,
    Layer,
    LiveRows,
    MlpBackbone,
    SgdConfig,
    pack_parameters,
    read_checkpoint,
    sgd_step,
    softmax_cross_entropy_batch,
    write_checkpoint,
)
from .pgm import read_pgm, read_pgm_bytes, write_file
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
        return [array for unit in self.units() for array in (unit.weights, unit.biases)]

    def units(self):
        """Layers and heads in parameter order, for pack_parameters."""
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

    def write_csv(self, path) -> None:
        write_file(path, ["step,lr,l1,l2,l3,total,t_ratio\n"] + [
            f"{r.step},{r.lr:.9g},{r.l1:.9g},{r.l2:.9g},{r.l3:.9g},{r.total:.9g},{r.t_ratio:.9g}\n"
            for r in self.records])


def pixel_features(pixels: np.ndarray) -> np.ndarray:
    """Map raw pixel intensities in [0, 1] to network inputs in [-1, 1].

    Zero-centered inputs keep the first-layer gradient directions balanced;
    with raw intensities (mean well above zero) the shared positive component
    dominates early updates and the pair loss stalls at its saddle. Applied
    uniformly at every model entry point, for training and scoring alike.
    """
    return 2.0 * (np.asarray(pixels, dtype=np.float64) - 0.5)


def _image_rows(root, relpaths):
    """(pixels, rows): the uint8 pixels of each distinct image of relpaths,
    read once, one row each, and the row of every entry of relpaths. An
    image shaped unlike the first is a DataError naming its path."""
    row_of = {}
    for relpath in relpaths:
        row_of.setdefault(relpath, len(row_of))
    pixels = None
    for relpath, row in row_of.items():
        path = os.path.join(root, relpath)
        image = read_pgm_bytes(path)
        if pixels is None:
            shape = image.shape
            pixels = np.empty((len(row_of), image.size), dtype=np.uint8)
        elif image.shape != shape:
            raise DataError(f"{path}: {image.shape[1]}x{image.shape[0]} image, the first "
                            f"training image is {shape[1]}x{shape[0]}")
        pixels[row] = image.reshape(-1)
    return pixels, np.array([row_of[relpath] for relpath in relpaths], dtype=np.int64)


def _inputs(pixels, rows):
    """Network inputs of the given rows of _image_rows pixels: the float
    operations of read_pgm, then pixel_features, so the bytes match."""
    return pixel_features(pixels[rows] / 255.0)


def _feed(pixels, rows, block_rows: int):
    """A callable yielding the inputs of the distinct images at rows of
    _image_rows pixels, block_rows at a time: what FrozenRows proves a
    network's first layer against."""
    rows = np.unique(rows)
    return lambda: (_inputs(pixels, rows[at : at + block_rows])
                    for at in range(0, rows.size, block_rows))


class ImageCache:
    """Lazy image loader for scoring, keyed by manifest-relative path; values
    are flat float64 vectors of raw intensities in [0, 1]. Cached arrays are
    shared; callers must not mutate."""

    def __init__(self, root):
        self.root = os.fspath(root)
        self._store = {}

    def flat(self, relpath: str) -> np.ndarray:
        hit = self._store.get(relpath)
        if hit is None:
            hit = read_pgm(os.path.join(self.root, relpath)).reshape(-1)
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


def loss_and_grads(model: DualModel, batch_arrays, weights: LossWeights, grad_views,
                   live_rows: LiveRows, frozen_rows: FrozenRows = None):
    """Fused loss of one batch; writes its gradients into grad_views.

    batch_arrays is (suspects, trusted, first_classes, second_classes, t),
    the two networks' input rows, head classes and the cross labels;
    grad_views are the gradient views returned by
    pack_parameters(model.units()), and live_rows their record (see
    MlpBackbone.backward); frozen_rows is the training's FrozenRows record,
    if any. Gradients are written only when the total loss is finite.
    Returns the BatchLossBreakdown.
    """
    suspects, trusted, first_classes, second_classes, t = batch_arrays
    first_feats, first_cache = model.first_backbone.forward_cached(suspects, frozen_rows)
    second_feats, second_cache = model.second_backbone.forward_cached(trusted, frozen_rows)
    breakdown, grads = batch_pair_loss(
        first_feats, second_feats, model.first_head, model.second_head,
        first_classes, second_classes, t, weights,
    )
    if np.isfinite(breakdown.total):
        # each network's views: its backbone's [dW0, db0, ...], then its head's two
        n = len(model.first_backbone.parameters()) + 2
        first, second = grad_views[:n], grad_views[n:]
        model.first_backbone.backward(first_cache, grads.d_first_feats, first[:-2], live_rows)
        first[-2][...] = grads.d_first_weights
        first[-1][...] = grads.d_first_biases
        model.second_backbone.backward(second_cache, grads.d_second_feats, second[:-2],
                                       live_rows)
        second[-2][...] = grads.d_second_weights
        second[-1][...] = grads.d_second_biases
    return breakdown


def identity_loss_and_grads(backbone: MlpBackbone, head: ClassifierHead, x, labels,
                            grad_views, live_rows: LiveRows,
                            frozen_rows: FrozenRows = None) -> float:
    """Mean softmax cross-entropy of one identity-classifier batch of
    pixel_features rows x; writes its gradients into grad_views, those of
    pack_parameters(backbone.layers + [head]) with their record live_rows,
    when the loss is finite; frozen_rows as in loss_and_grads. Returns the
    loss.
    """
    feats, fwd_cache = backbone.forward_cached(x, frozen_rows)
    losses, dlogits = softmax_cross_entropy_batch(head.logits(feats), labels)
    loss = float(np.mean(losses))
    if np.isfinite(loss):
        dlogits = dlogits / len(labels)
        np.matmul(dlogits.T, feats, out=grad_views[-2])
        np.sum(dlogits, axis=0, out=grad_views[-1])
        backbone.backward(fwd_cache, dlogits @ head.weights, grad_views[:-2], live_rows)
    return loss


def _schedule(sgd: SgdConfig, n_records: int, what: str) -> SgdConfig:
    """sgd planned for epochs * floor(n_records / batch_size) steps."""
    steps_per_epoch = n_records // sgd.batch_size
    if steps_per_epoch < 1:
        raise ConfigError(f"{what} of {n_records} records is smaller than one batch "
                          f"of {sgd.batch_size}")
    return dataclasses.replace(sgd, total_steps=sgd.epochs * steps_per_epoch)


def _fit(units, sgd: SgdConfig, objective, feeds) -> TrainReport:
    """The SGD loop both models train with, over sgd from _schedule.

    units are the model's layers and heads in parameter order, and feeds
    pairs each network's first layer with the _feed of its images.
    objective(step, grad_views, live_rows, frozen_rows) writes one batch's
    gradients into grad_views, with live_rows their LiveRows record and
    frozen_rows the FrozenRows record for the forward, and returns its
    (l1, l2, l3, total, t_ratio), or raises NumericError, which is re-raised
    with the last good step's report row. After the last step frozen_rows
    replays the steps its dead rows still pend, so that units hold the
    weights of the full path.
    """
    params, grad, grad_views = pack_parameters(units)
    live_rows = LiveRows()
    velocity = np.zeros_like(params)
    frozen_rows = FrozenRows(units, params, grad_views, velocity, feeds, sgd.momentum)
    records = []
    for step in range(sgd.total_steps):
        if step % FREEZE_EVERY == 0:
            frozen_rows.certify(live_rows)
        try:
            losses = objective(step, grad_views, live_rows, frozen_rows)
        except NumericError as exc:
            if not records:
                raise
            last = records[-1]
            raise NumericError(f"{exc}; last good step {last.step}: lr {last.lr:.9g}, "
                               f"l1 {last.l1:.9g}, l2 {last.l2:.9g}, l3 {last.l3:.9g}") from exc
        lr = sgd.learning_rate(step)
        sgd_step([params], [grad], [velocity], step, sgd, frozen_rows)
        records.append(TrainRecord(step, lr, *losses))
    frozen_rows.catch_up()
    return TrainReport(records)


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
    rows = pair_rows(corpus, bonafide_pools(trusted_records))
    sgd = _schedule(sgd, len(corpus), "corpus")
    pixels, image_row = _image_rows(root, [r.relpath for r in rows.corpus + rows.trusted])
    suspect_image, trusted_image = image_row[:len(corpus)], image_row[len(corpus):]
    first_classes = np.array([allocate_labels(r.labels, r.kind, variant, num_classes)[0]
                              for r in rows.corpus], dtype=np.int64)
    second_classes = np.array([allocate_labels(r.labels, r.kind, variant, num_classes)[1]
                               for r in rows.trusted], dtype=np.int64)
    suspect_y2 = np.array([r.labels.y2 for r in rows.corpus], dtype=np.int64)
    trusted_y2 = np.array([r.labels.y2 for r in rows.trusted], dtype=np.int64)
    model = build_dual_model(pixels.shape[1], hidden_dims, feature_dim,
                             num_classes, variant, seed)
    weights = LossWeights.for_variant(variant, pair_weight)

    def objective(step, grad_views, live_rows, frozen_rows):
        suspects, trusted = sample_batch(rows, sgd.batch_size, seed, step)
        batch_arrays = (_inputs(pixels, suspect_image[suspects]),
                        _inputs(pixels, trusted_image[trusted]),
                        first_classes[suspects], second_classes[trusted],
                        (suspect_y2[suspects] != trusted_y2[trusted]).astype(np.float64))
        breakdown = loss_and_grads(model, batch_arrays, weights, grad_views, live_rows,
                                   frozen_rows)
        if not np.isfinite(breakdown.total):
            head = rows.pairs(suspects[:5], trusted[:5])
            raise NumericError(
                f"training diverged at step {step} (batch head: {head[0].first.relpath} "
                f"kinds: {','.join(p.first.kind for p in head)})"
            )
        return breakdown.l1, breakdown.l2, breakdown.l3, breakdown.total, breakdown.t_ratio

    feeds = [(model.first_backbone.layers[0], _feed(pixels, suspect_image, sgd.batch_size)),
             (model.second_backbone.layers[0], _feed(pixels, trusted_image, sgd.batch_size))]
    report = _fit(model.units(), sgd, objective, feeds)
    return model, report


def extract_features(backbone: MlpBackbone, images) -> np.ndarray:
    """(N, feature_dim) backbone features (no head) of N images, each raw
    intensities in [0, 1] of backbone.input_dim pixels, in any shape: one
    single-row forward per image."""
    feats = np.empty((len(images), backbone.feature_dim))
    for row, image in enumerate(images):
        feats[row] = backbone.forward(pixel_features(np.reshape(image, (1, -1))))[0]
    return feats


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

    rows_by_id = {}
    for row, record in enumerate(bona):
        rows_by_id.setdefault(record.labels.y1, []).append(row)
    ratios = []
    for backbone, label_of in ((model.first_backbone, lambda r: r.labels.y1),
                               (model.second_backbone, lambda r: r.labels.y2)):
        feats = extract_features(backbone, [cache.flat(r.relpath) for r in bona + morphs])
        centroids = {i: np.mean(feats[rows], axis=0) for i, rows in rows_by_id.items()}
        ids = sorted(centroids)
        pair_dists = [
            float(np.linalg.norm(centroids[a] - centroids[b]))
            for k, a in enumerate(ids) for b in ids[k + 1 :]
        ]
        scale = float(np.mean(pair_dists)) if pair_dists else 0.0
        if scale < 1e-12:
            return SeparationStat(0.0, 0.0, degenerate=True)
        dists = []
        for record, feat in zip(morphs, feats[len(bona):]):
            target = label_of(record)
            if target not in centroids:
                raise CoverageError(f"no bona fide samples for identity {target}")
            dists.append(float(np.linalg.norm(feat - centroids[target])))
        ratios.append(float(np.mean(dists)) / scale)
    return SeparationStat(ratios[0], ratios[1])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


# Array-name prefixes of each network, backbone then head, per checkpoint kind.
_NETWORK_PREFIXES = {
    "dual": (("first", "first.head"), ("second", "second.head")),
    "identity": (("backbone", "head"),),
}


@contextlib.contextmanager
def _checkpoint_fields(path):
    """Turn a missing or malformed checkpoint meta key or array into DataError."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint has no {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError, RangeError) as exc:
        raise DataError(f"{path}: malformed checkpoint field: {exc}") from exc


def _save_networks(path, kind: str, networks, meta: dict, extra_meta) -> None:
    """Write (backbone, head) networks under the prefixes of kind; extra_meta
    entries override meta ones."""
    meta = {"kind": kind, "n_layers": len(networks[0][0].layers), **meta, **(extra_meta or {})}
    arrays = []
    for (prefix, head_prefix), (backbone, head) in zip(_NETWORK_PREFIXES[kind], networks):
        for k, layer in enumerate(backbone.layers):
            arrays.append((f"{prefix}.layer{k}.weights", layer.weights))
            arrays.append((f"{prefix}.layer{k}.biases", layer.biases))
        arrays.append((f"{head_prefix}.weights", head.weights))
        arrays.append((f"{head_prefix}.biases", head.biases))
    write_checkpoint(path, meta, arrays)


def _load_networks(path, kind: str):
    """Returns ([(backbone, head), ...] in prefix order, meta) of a kind checkpoint."""
    meta, arrays = read_checkpoint(path)
    if meta.get("kind") != kind:
        raise DataError(f"{path}: checkpoint kind is {meta.get('kind')!r}, not {kind!r}")
    networks = []
    unread = dict(arrays)
    with _checkpoint_fields(path):
        n_layers = int(meta["n_layers"])
        if n_layers < 1:
            raise ValueError(f"n_layers must be at least 1, got {n_layers}")
        head_rows = _head_rows(path, kind, meta)
        for prefix, head_prefix in _NETWORK_PREFIXES[kind]:
            backbone = MlpBackbone([
                Layer(unread.pop(f"{prefix}.layer{k}.weights"),
                      unread.pop(f"{prefix}.layer{k}.biases"),
                      "linear" if k == n_layers - 1 else "relu")
                for k in range(n_layers)
            ])
            head = ClassifierHead(unread.pop(head_prefix + ".weights"),
                                  unread.pop(head_prefix + ".biases"))
            if head.feature_dim != backbone.feature_dim:
                raise DataError(f"{path}: {head_prefix} takes {head.feature_dim} features, "
                                f"{prefix} gives {backbone.feature_dim}")
            if head.num_classes != head_rows:
                raise DataError(f"{path}: {head_prefix} has {head.num_classes} classes, "
                                f"the meta gives {head_rows}")
            networks.append((backbone, head))
    if unread:
        raise DataError(f"{path}: unexpected arrays in a {kind!r} checkpoint: {sorted(unread)}")
    return networks, meta


def _head_rows(path, kind: str, meta: dict) -> int:
    """Classifier-head rows the meta of a kind checkpoint implies."""
    if kind == "identity":
        return int(meta["num_classes"])
    rows = head_class_count(str(meta["variant"]), int(meta["num_classes"]))
    if int(meta["head_classes"]) != rows:
        raise DataError(f"{path}: head_classes {meta['head_classes']} does not fit "
                        f"{meta['num_classes']} classes of variant {meta['variant']}")
    return rows


def save_model(path, model: DualModel, seed: int, extra_meta: dict = None) -> None:
    meta = {"variant": model.variant, "num_classes": model.num_classes,
            "head_classes": model.first_head.num_classes, "seed": seed}
    _save_networks(path, "dual", [(model.first_backbone, model.first_head),
                                  (model.second_backbone, model.second_head)], meta, extra_meta)


def load_model(path):
    """Returns (DualModel, meta) for a checkpoint written by save_model."""
    ((first, first_head), (second, second_head)), meta = _load_networks(path, "dual")
    with _checkpoint_fields(path):
        return DualModel(first, second, first_head, second_head,
                         str(meta["variant"]), int(meta["num_classes"])), meta


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
    sgd = _schedule(sgd, len(records), "bona fide set")
    pixels, image_row = _image_rows(root, [r.relpath for r in records])
    labels = np.array([r.labels.y1 for r in records], dtype=np.int64)
    backbone = MlpBackbone.build(
        [pixels.shape[1]] + [int(d) for d in hidden_dims] + [int(feature_dim)],
        derive_rng(seed, INIT_STREAM, 10),
    )
    head = ClassifierHead.build(num_classes, feature_dim, derive_rng(seed, INIT_STREAM, 11))

    def objective(step, grad_views, live_rows, frozen_rows):
        rng = derive_rng(seed, FR_BATCH_STREAM, step)
        picks = rng.integers(len(records), size=sgd.batch_size)
        loss = identity_loss_and_grads(backbone, head, _inputs(pixels, image_row[picks]),
                                       labels[picks], grad_views, live_rows, frozen_rows)
        if not np.isfinite(loss):
            raise NumericError(f"identity classifier diverged at step {step}")
        return loss, 0.0, 0.0, loss, 0.0

    feeds = [(backbone.layers[0], _feed(pixels, image_row, sgd.batch_size))]
    report = _fit(backbone.layers + [head], sgd, objective, feeds)
    return backbone, head, report


def save_identity_model(path, backbone: MlpBackbone, head: ClassifierHead,
                        seed: int, extra_meta: dict = None) -> None:
    meta = {"num_classes": head.num_classes, "seed": seed}
    _save_networks(path, "identity", [(backbone, head)], meta, extra_meta)


def load_identity_model(path):
    """Returns (backbone, head, meta) for an identity-classifier checkpoint."""
    ((backbone, head),), meta = _load_networks(path, "identity")
    return backbone, head, meta


def identity_similarity(fa, fb) -> float:
    """Cosine similarity of two identity-classifier features mapped to [0, 1]."""
    na = float(np.linalg.norm(fa))
    nb = float(np.linalg.norm(fb))
    if na < 1e-12 or nb < 1e-12:
        raise NumericError("zero-norm feature in similarity computation")
    cos = float(np.dot(fa, fb) / (na * nb))
    return 0.5 * (1.0 + max(-1.0, min(1.0, cos)))
