"""Dataset assembly and pair sampling contracts.

The exhaustive epoch test is the load-bearing one: every sampled pair in a
full epoch must use an original bona fide trusted image whose two identity
labels agree, with the cross label matching second-label disagreement.
"""

import numpy as np
import pytest

from morphdet.datamine import (
    CorpusRecord,
    PairSample,
    SplitPlan,
    assemble_dataset,
    bonafide_pools,
    filter_families,
    holdout_identities,
    pair_rows,
    plan_morph_pairs,
    read_split_plan,
    records_from_manifests,
    sample_batch,
    split_identities,
    validate_corpus,
    write_split_plan,
)
from morphdet.errors import ConfigError, CoverageError, DataError
from morphdet.seeding import BATCH_STREAM, derive_rng
from morphdet.fusedloss import (
    DualLabels,
    KIND_BONAFIDE,
    KIND_MORPH_LATENT,
    KIND_MORPH_LM,
    KIND_SELFMORPH_LM,
    LANDMARK_FAMILY,
    LATENT_FAMILY,
    cross_label,
)


def test_split_is_a_deterministic_half_partition():
    ids = list(range(11))
    plan = split_identities(ids, 3)
    again = split_identities(ids, 3)
    assert plan == again
    assert set(plan.first_subset) | set(plan.second_subset) == set(ids)
    assert not set(plan.first_subset) & set(plan.second_subset)
    assert len(plan.first_subset) == 6 and len(plan.second_subset) == 5
    assert plan.first_subset == tuple(sorted(plan.first_subset))
    other = split_identities(ids, 4)
    assert other != plan
    assert plan.all_ids == tuple(ids)


def test_split_rejects_tiny_input():
    with pytest.raises(ConfigError):
        split_identities([7], 0)


def test_split_plan_validation():
    with pytest.raises(ConfigError, match="overlap"):
        SplitPlan((1, 2), (2, 3))
    with pytest.raises(ConfigError, match="at most 1"):
        SplitPlan((1, 2, 3, 4), (5, 6))
    plan = SplitPlan((1, 3), (2,))
    assert plan.all_ids == (1, 2, 3)


def test_split_plan_file_round_trip(tmp_path):
    plan = split_identities(range(9), 5)
    path = tmp_path / "split.tsv"
    write_split_plan(path, plan)
    assert read_split_plan(path) == plan


def test_split_plan_read_errors(tmp_path):
    with pytest.raises(DataError):
        read_split_plan(tmp_path / "absent.tsv")
    bad = tmp_path / "bad.tsv"
    bad.write_text("3\tquux\n")
    with pytest.raises(DataError):
        read_split_plan(bad)
    # a corrupt plan is a data error (exit 2), not a usage error from SplitPlan
    for text, message in (("1\tfirst\n1\tsecond\n", "duplicate identity 1"),
                          ("1\tfirst\n1\tfirst\n2\tsecond\n", "duplicate identity 1"),
                          ("1\tfirst\n2\tfirst\n3\tfirst\n4\tsecond\n", "at most 1")):
        bad.write_text(text)
        with pytest.raises(DataError, match=message):
            read_split_plan(bad)


def test_morph_pairs_cross_the_split():
    plan = split_identities(range(10), 1)
    pairs = plan_morph_pairs(plan, 60, 1)
    assert len(pairs) == 60
    first = set(plan.first_subset)
    second = set(plan.second_subset)
    for a, b in pairs:
        assert a in first and b in second
    # cycling through shuffled cross products caps repeats at ceil(60/25)
    counts = {}
    for pair in pairs:
        counts[pair] = counts.get(pair, 0) + 1
    assert max(counts.values()) <= 3
    assert pairs == plan_morph_pairs(plan, 60, 1)
    assert plan_morph_pairs(plan, 0, 1) == []


def test_morph_pairs_validation():
    plan = split_identities(range(4), 0)
    with pytest.raises(ConfigError):
        plan_morph_pairs(plan, -1, 0)


def test_records_from_manifests_classification():
    dataset_rows = [("images/a.pgm", 0, KIND_BONAFIDE), ("images/b.pgm", 1, KIND_BONAFIDE)]
    morph_rows = [
        ("morphs/m.pgm", 0, 1, KIND_MORPH_LM),
        ("morphs/s.pgm", 1, 1, KIND_SELFMORPH_LM),
    ]
    bona, selfm, morphs = records_from_manifests(dataset_rows, morph_rows)
    assert [r.relpath for r in bona] == ["images/a.pgm", "images/b.pgm"]
    assert bona[0].labels == DualLabels(0, 0)
    assert [r.kind for r in selfm] == [KIND_SELFMORPH_LM]
    assert selfm[0].labels == DualLabels(1, 1)
    assert [r.kind for r in morphs] == [KIND_MORPH_LM]
    assert morphs[0].labels == DualLabels(0, 1)


def test_records_from_manifests_rejects_bad_rows():
    with pytest.raises(DataError, match="non-bona-fide"):
        records_from_manifests([("x.pgm", 0, KIND_MORPH_LM)], [])
    with pytest.raises(DataError, match="two identities"):
        records_from_manifests([], [("s.pgm", 0, 1, KIND_SELFMORPH_LM)])


def _record(rel, y1, y2, kind):
    return CorpusRecord(rel, DualLabels(y1, y2), kind)


def test_assemble_dataset_balances_exactly():
    bona = [_record(f"b{i}.pgm", i % 3, i % 3, KIND_BONAFIDE) for i in range(8)]
    selfm = [_record(f"s{i}.pgm", i % 3, i % 3, KIND_SELFMORPH_LM) for i in range(4)]
    morphs = [_record(f"m{i}.pgm", 0, 1, KIND_MORPH_LM) for i in range(5)]
    corpus = assemble_dataset(bona, selfm, morphs, 0)
    bona_side = [r for r in corpus if r.kind != KIND_MORPH_LM]
    morph_side = [r for r in corpus if r.kind == KIND_MORPH_LM]
    assert len(bona_side) == len(morph_side) == 5
    assert corpus == assemble_dataset(bona, selfm, morphs, 0)
    assert corpus != assemble_dataset(bona, selfm, morphs, 1)
    # down-sample keeps the original relative order
    names = [r.relpath for r in bona_side]
    pool = [r.relpath for r in bona + selfm]
    assert names == [n for n in pool if n in set(names)]


def test_assemble_dataset_downsamples_morph_side_too():
    bona = [_record(f"b{i}.pgm", 0, 0, KIND_BONAFIDE) for i in range(3)]
    morphs = [_record(f"m{i}.pgm", 0, 1, KIND_MORPH_LM) for i in range(9)]
    corpus = assemble_dataset(bona, [], morphs, 2)
    assert len(corpus) == 6
    with pytest.raises(ConfigError):
        assemble_dataset(bona, [], [], 0)


def test_filter_families():
    records = [
        _record("b.pgm", 0, 0, KIND_BONAFIDE),
        _record("m1.pgm", 0, 1, KIND_MORPH_LM),
        _record("m2.pgm", 0, 1, KIND_MORPH_LATENT),
    ]
    kept = filter_families(records, (LANDMARK_FAMILY,))
    assert [r.relpath for r in kept] == ["b.pgm", "m1.pgm"]
    both = filter_families(records, (LANDMARK_FAMILY, LATENT_FAMILY))
    assert both == records
    with pytest.raises(ConfigError):
        filter_families(records, ("pixel",))


def test_validate_corpus_flags_split_violations():
    plan = SplitPlan((0, 1), (2, 3))
    good = [
        _record("b.pgm", 0, 0, KIND_BONAFIDE),
        _record("m.pgm", 1, 2, KIND_MORPH_LM),
    ]
    validate_corpus(good, plan)
    with pytest.raises(DataError, match="first label"):
        validate_corpus([_record("m.pgm", 2, 3, KIND_MORPH_LM)], plan)
    with pytest.raises(DataError, match="second label"):
        validate_corpus([_record("m.pgm", 0, 1, KIND_MORPH_LM)], plan)
    with pytest.raises(DataError, match="split labels"):
        validate_corpus([_record("b.pgm", 0, 1, KIND_BONAFIDE)], plan)


def test_bonafide_pools_reject_derived_records():
    bona = [_record("b0.pgm", 0, 0, KIND_BONAFIDE), _record("b1.pgm", 0, 0, KIND_BONAFIDE)]
    pools = bonafide_pools(bona)
    assert sorted(pools) == [0]
    assert len(pools[0]) == 2
    with pytest.raises(DataError):
        bonafide_pools([_record("s.pgm", 0, 0, KIND_SELFMORPH_LM)])


def test_sample_batch_is_deterministic_and_typed(tiny_corpus):
    corpus = assemble_dataset(tiny_corpus.bonafides, tiny_corpus.selfmorphs,
                              tiny_corpus.morphs, 0)
    rows = pair_rows(corpus, bonafide_pools(tiny_corpus.bonafides))
    suspects, trusted = sample_batch(rows, 8, seed=3, step=0)
    assert suspects.shape == trusted.shape == (8,)
    assert suspects.dtype == trusted.dtype == np.int64
    again = sample_batch(rows, 8, seed=3, step=0)
    assert np.array_equal(again[0], suspects) and np.array_equal(again[1], trusted)
    moved = sample_batch(rows, 8, seed=3, step=1)
    assert not (np.array_equal(moved[0], suspects) and np.array_equal(moved[1], trusted))
    for pair in rows.pairs(suspects, trusted):
        assert pair.second.kind == KIND_BONAFIDE
        assert pair.second.labels.y1 == pair.second.labels.y2
        assert pair.second.labels.y1 == pair.first.labels.y1
        assert pair.t == cross_label(pair.first.labels.y2, pair.second.labels.y2)


def test_sample_batch_errors(tiny_corpus):
    pools = bonafide_pools(tiny_corpus.bonafides)
    with pytest.raises(ConfigError):
        sample_batch(pair_rows([], pools), 4, 0, 0)
    corpus = [tiny_corpus.morphs[0]]
    with pytest.raises(ConfigError):
        sample_batch(pair_rows(corpus, pools), 0, 0, 0)
    orphan_pools = {k: v for k, v in pools.items()
                    if k != corpus[0].labels.y1}
    with pytest.raises(CoverageError, match=str(corpus[0].labels.y1)):
        sample_batch(pair_rows(corpus, orphan_pools), 16, 0, 0)


def _scalar_sample_batch(corpus, pools, batch_size, seed, step):
    """Oracle: the per-suspect loop sample_batch once ran. Returns the
    suspect indices and, per suspect, the index of its trusted image within
    its pool."""
    rng = derive_rng(seed, BATCH_STREAM, step)
    picks = rng.integers(len(corpus), size=batch_size)
    within = []
    for index in picks:
        y1 = corpus[int(index)].labels.y1
        pool = pools.get(y1)
        if not pool:
            raise CoverageError(f"no original bona fide image for identity {y1}")
        within.append(int(rng.integers(len(pool))))
    return picks, np.array(within, dtype=np.int64)


@pytest.mark.parametrize("pool_sizes", ["desk", "uneven"])
def test_sample_batch_draws_as_the_scalar_loop(pool_sizes):
    """Same suspects and same trusted images as the oracle, at the desk pool
    size of 8 and at uneven sizes 1-8, over many seeds and steps."""
    shuffle = np.random.default_rng(17)
    n_ids = 48
    sizes = [8] * n_ids if pool_sizes == "desk" else shuffle.integers(1, 9, size=n_ids)
    bona = [_record(f"b{i}_{k}.pgm", i, i, KIND_BONAFIDE)
            for i in range(n_ids) for k in range(sizes[i])]
    # pools fill in an order other than identity order
    pools = bonafide_pools([bona[i] for i in shuffle.permutation(len(bona))])
    corpus = bona + [_record(f"m{i}.pgm", i, (i + 1) % n_ids, KIND_MORPH_LM)
                     for i in range(n_ids)]
    rows = pair_rows(corpus, pools)
    for seed in range(40):
        for step in range(0, 1620, 163):
            suspects, trusted = sample_batch(rows, 28, seed, step)
            picks, within = _scalar_sample_batch(corpus, pools, 28, seed, step)
            assert np.array_equal(suspects, picks)
            assert np.array_equal(trusted - rows.pool_start[suspects], within)
            assert [pair.second for pair in rows.pairs(suspects, trusted)] == \
                [pools[corpus[s].labels.y1][w] for s, w in zip(picks, within)]


def test_full_epoch_pairs_satisfy_the_trusted_contract(tiny_corpus):
    """Every pair in an exhaustive epoch: trusted is an original bona fide
    of the suspect's first identity with agreeing labels, and the cross
    label is exactly second-label disagreement."""
    corpus = assemble_dataset(tiny_corpus.bonafides, tiny_corpus.selfmorphs,
                              tiny_corpus.morphs, 0)
    validate_corpus(corpus, tiny_corpus.plan)
    pools = bonafide_pools(tiny_corpus.bonafides)
    rows = pair_rows(corpus, pools)
    batch_size = 7
    steps = len(corpus) // batch_size
    assert steps >= 3
    checked = 0
    for step in range(steps):
        suspects, trusted = sample_batch(rows, batch_size, seed=1, step=step)
        for s, pair in zip(suspects, rows.pairs(suspects, trusted)):
            assert pair.first is corpus[s]
            assert pair.second in pools[pair.first.labels.y1]
            assert pair.second.kind == KIND_BONAFIDE
            assert pair.second.labels.y1 == pair.second.labels.y2
            assert pair.second.labels.y1 == pair.first.labels.y1
            expected_t = int(pair.first.labels.y2 != pair.second.labels.y2)
            assert pair.t == expected_t
            if pair.first.kind == KIND_BONAFIDE:
                assert pair.t == 0
            checked += 1
    assert checked == steps * batch_size


def test_pair_sample_cross_label_tracks_labels():
    bona = _record("b.pgm", 2, 2, KIND_BONAFIDE)
    morph = _record("m.pgm", 2, 5, KIND_MORPH_LM)
    assert PairSample(bona, bona).t == 0
    assert PairSample(morph, bona).t == 1


def test_holdout_identities_split_and_validation():
    plan = split_identities(range(20), 9)
    kept, held = holdout_identities(plan, 4, 0.25)
    assert len(held) == 4  # floor(0.25 * 10) per subset
    assert set(held) <= set(plan.all_ids)
    assert set(kept.all_ids) | set(held) == set(plan.all_ids)
    assert not set(kept.all_ids) & set(held)
    again_kept, again_held = holdout_identities(plan, 4, 0.25)
    assert (kept, held) == (again_kept, again_held)
    same_plan, none_held = holdout_identities(plan, 4, 0.0)
    assert same_plan == plan and none_held == ()
    with pytest.raises(ConfigError):
        holdout_identities(plan, 4, 1.0)
    with pytest.raises(ConfigError):
        holdout_identities(plan, 4, -0.1)
