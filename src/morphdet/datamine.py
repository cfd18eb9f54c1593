"""Dataset assembly and pair sampling for dual-network training.

Identities are split into two disjoint subsets. Cross-identity morphs take
their first label from the first subset and their second label from the
second subset. A training pair puts a suspect image (any corpus record) in
front of the First network and a trusted image in front of the Second
network, where the trusted image is always an original bona fide of the
suspect's first identity. That selection rule makes the pair target t
biconditional with the suspect's kind: morph suspects always give t = 1,
bona fide and selfmorph suspects always give t = 0.

pair_rows lays a corpus and its trusted pools out as rows once per training;
sample_batch then draws each batch as suspect rows and trusted rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CoverageError, DataError
from .fusedloss import (
    FAMILY_OF_KIND,
    KIND_BONAFIDE,
    DualLabels,
    cross_label,
    is_morph_kind,
)
from .morphgen import MORPH_FAMILIES
from .pgm import read_table, write_file
from .seeding import (
    BALANCE_STREAM,
    BATCH_STREAM,
    HOLDOUT_STREAM,
    MORPH_PAIR_STREAM,
    SPLIT_STREAM,
    derive_rng,
)

SUBSET_FIRST = "first"
SUBSET_SECOND = "second"


@dataclass(frozen=True)
class SplitPlan:
    first_subset: tuple
    second_subset: tuple

    def __post_init__(self):
        first = set(self.first_subset)
        second = set(self.second_subset)
        if first & second:
            raise ConfigError(f"identity subsets overlap: {sorted(first & second)}")
        if abs(len(first) - len(second)) > 1:
            raise ConfigError("identity subsets must differ in size by at most 1")

    @property
    def all_ids(self):
        return tuple(sorted(set(self.first_subset) | set(self.second_subset)))


@dataclass(frozen=True)
class CorpusRecord:
    relpath: str
    labels: DualLabels
    kind: str


@dataclass(frozen=True)
class PairSample:
    first: CorpusRecord  # suspect, consumed by the First network
    second: CorpusRecord  # trusted bona fide, consumed by the Second network

    @property
    def t(self) -> int:
        # recomputed on access so it can never go stale
        return cross_label(self.first.labels.y2, self.second.labels.y2)


def split_identities(ids, seed: int) -> SplitPlan:
    """Deterministic disjoint half-split of the identity set."""
    unique = sorted(set(int(i) for i in ids))
    if len(unique) < 2:
        raise ConfigError("need at least 2 identities to split")
    rng = derive_rng(seed, SPLIT_STREAM)
    perm = rng.permutation(len(unique))
    half = (len(unique) + 1) // 2
    first = tuple(sorted(unique[i] for i in perm[:half]))
    second = tuple(sorted(unique[i] for i in perm[half:]))
    return SplitPlan(first, second)


def write_split_plan(path, plan: SplitPlan) -> None:
    write_file(path, [f"{identity}\t{SUBSET_FIRST}\n" for identity in plan.first_subset]
               + [f"{identity}\t{SUBSET_SECOND}\n" for identity in plan.second_subset])


def read_split_plan(path) -> SplitPlan:
    subsets = {SUBSET_FIRST: [], SUBSET_SECOND: []}
    seen = set()
    for identity, subset in read_table(path, "split plan", 2):
        if subset not in subsets:
            raise DataError(f"{path}: unknown subset {subset!r}")
        try:
            identity = int(identity)
        except ValueError as exc:
            raise DataError(f"{path}: non-integer identity {identity!r}") from exc
        if identity in seen:
            raise DataError(f"{path}: duplicate identity {identity}")
        seen.add(identity)
        subsets[subset].append(identity)
    first, second = (tuple(sorted(subsets[name])) for name in (SUBSET_FIRST, SUBSET_SECOND))
    try:
        return SplitPlan(first, second)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc


def plan_morph_pairs(plan: SplitPlan, count: int, seed: int):
    """Cross-subset identity pairs for morphing.

    Pairs cycle through shuffles of the full cross product, so no pair
    repeats more than ceil(count / (|first| * |second|)) times.
    """
    if count < 0:
        raise ConfigError("pair count must be nonnegative")
    if not plan.first_subset or not plan.second_subset:
        raise ConfigError("both identity subsets must be non-empty")
    if count == 0:
        return []
    cross = [(a, b) for a in plan.first_subset for b in plan.second_subset]
    rng = derive_rng(seed, MORPH_PAIR_STREAM)
    pairs = []
    for _ in range(math.ceil(count / len(cross))):
        for index in rng.permutation(len(cross)):
            pairs.append(cross[index])
    return pairs[:count]


def records_from_manifests(dataset_rows, morph_rows):
    """CorpusRecords from manifest rows, separated by role.

    Returns (bonafides, selfmorphs, morphs). Bona fide rows carry one
    identity; both labels get it. Morph rows carry two.
    """
    bonafides = []
    for rel, identity, kind in dataset_rows:
        if kind != KIND_BONAFIDE:
            raise DataError(f"dataset manifest row {rel} has non-bona-fide kind {kind}")
        bonafides.append(CorpusRecord(rel, DualLabels(identity, identity), kind))
    selfmorphs, morphs = [], []
    for rel, id_first, id_second, kind in morph_rows:
        record = CorpusRecord(rel, DualLabels(id_first, id_second), kind)
        if is_morph_kind(kind):
            morphs.append(record)
        else:
            if id_first != id_second:
                raise DataError(f"selfmorph row {rel} carries two identities")
            selfmorphs.append(record)
    return bonafides, selfmorphs, morphs


def assemble_dataset(bonafides, selfmorphs, morphs, seed: int):
    """Balanced training corpus: |bona fide + selfmorph| = |morphs| after a
    seeded down-sample of the larger side."""
    bona_side = list(bonafides) + list(selfmorphs)
    morph_side = list(morphs)
    if not bona_side or not morph_side:
        raise ConfigError("corpus needs both bona-fide-side and morph-side samples")
    rng = derive_rng(seed, BALANCE_STREAM)

    def down_sample(records, size):
        keep = rng.choice(len(records), size=size, replace=False)
        return [records[i] for i in sorted(keep)]

    if len(bona_side) > len(morph_side):
        bona_side = down_sample(bona_side, len(morph_side))
    elif len(morph_side) > len(bona_side):
        morph_side = down_sample(morph_side, len(bona_side))
    return bona_side + morph_side


def filter_families(records, families):
    """Drop morph-side records whose family is not selected.

    Original bona fides have no family and always pass.
    """
    for family in families:
        if family not in MORPH_FAMILIES:
            raise ConfigError(f"unknown morph family {family!r}")
    kept = []
    for record in records:
        family = FAMILY_OF_KIND.get(record.kind)
        if family is None or family in families:
            kept.append(record)
    return kept


def validate_corpus(corpus, plan: SplitPlan) -> None:
    """Morph labels must respect the subset split; bona labels must agree."""
    first = set(plan.first_subset)
    second = set(plan.second_subset)
    for record in corpus:
        if is_morph_kind(record.kind):
            if record.labels.y1 not in first:
                raise DataError(
                    f"morph {record.relpath}: first label {record.labels.y1} "
                    "outside the first subset"
                )
            if record.labels.y2 not in second:
                raise DataError(
                    f"morph {record.relpath}: second label {record.labels.y2} "
                    "outside the second subset"
                )
        else:
            if record.labels.y1 != record.labels.y2:
                raise DataError(f"bona fide {record.relpath} with split labels")


def bonafide_pools(bonafides):
    """Original bona fide records per identity, for trusted-image sampling."""
    pools = {}
    for record in bonafides:
        if record.kind != KIND_BONAFIDE:
            raise DataError(f"trusted pool takes only original bona fides, got {record.kind}")
        pools.setdefault(record.labels.y1, []).append(record)
    return pools


@dataclass(frozen=True)
class PairRows:
    """Suspect row r is corpus[r]. The trusted records sit pool after pool,
    each in pool order, so the pool of corpus[r]'s first identity is the
    pool_size[r] trusted rows from pool_start[r]; size 0 means no pool."""

    corpus: tuple
    trusted: tuple
    pool_start: np.ndarray
    pool_size: np.ndarray

    def pairs(self, suspect_rows, trusted_rows):
        """The PairSamples of rows drawn by sample_batch."""
        return [PairSample(self.corpus[s], self.trusted[t])
                for s, t in zip(suspect_rows, trusted_rows)]


def pair_rows(corpus, pools) -> PairRows:
    """PairRows of a corpus and the trusted pools of bonafide_pools."""
    trusted = []
    start = {}
    for identity, pool in pools.items():
        start[identity] = len(trusted)
        trusted.extend(pool)
    first_ids = [record.labels.y1 for record in corpus]
    return PairRows(tuple(corpus), tuple(trusted),
                    np.array([start.get(i, 0) for i in first_ids], dtype=np.int64),
                    np.array([len(pools.get(i, ())) for i in first_ids], dtype=np.int64))


def sample_batch(rows: PairRows, batch_size: int, seed: int, step: int):
    """One deterministic training batch as (suspect rows, trusted rows).

    Suspects are drawn uniformly from the corpus, trusted images uniformly
    from the original bona fides sharing the suspect's first identity.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if not rows.corpus:
        raise ConfigError("empty corpus")
    rng = derive_rng(seed, BATCH_STREAM, step)
    suspects = rng.integers(len(rows.corpus), size=batch_size)
    sizes = rows.pool_size[suspects]
    if not sizes.all():
        orphan = rows.corpus[suspects[np.argmin(sizes)]]
        raise CoverageError(f"no original bona fide image for identity {orphan.labels.y1}")
    # an array of bounds draws as one scalar call per suspect, in order
    return suspects, rows.pool_start[suspects] + rng.integers(sizes)


def holdout_identities(plan: SplitPlan, seed: int, fraction: float):
    """Reserve a fraction of identities per subset as unseen validation ids.

    Returns (training SplitPlan, tuple of held-out ids). fraction 0 keeps
    everything trainable.
    """
    if not 0.0 <= fraction < 1.0:
        raise ConfigError(f"validation fraction must be in [0, 1), got {fraction}")
    if fraction == 0.0:
        return plan, ()
    rng = derive_rng(seed, HOLDOUT_STREAM)
    held = []
    kept = []
    for subset in (plan.first_subset, plan.second_subset):
        n_hold = int(math.floor(fraction * len(subset)))
        perm = rng.permutation(len(subset))
        chosen = set(subset[i] for i in perm[:n_hold])
        held.extend(sorted(chosen))
        kept.append(tuple(i for i in subset if i not in chosen))
    train_plan = SplitPlan(kept[0], kept[1])
    return train_plan, tuple(sorted(held))


def drop_identities(records, identity_ids):
    """Remove records touching any of the given identities."""
    banned = set(identity_ids)
    return [
        r for r in records
        if r.labels.y1 not in banned and r.labels.y2 not in banned
    ]
