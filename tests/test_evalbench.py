"""Benchmark harness: protocols, error rates, fusion, comparison output.

The operating-point routines are checked against a brute-force oracle that
scans every candidate threshold by direct counting, which is the reference
semantics for all reported numbers.
"""

import math

import numpy as np
import pytest

from morphdet.errors import DataError, MetricError, NumericError, ProtocolError, RangeError
from morphdet.evalbench import (
    DEFAULT_DELTAS,
    FUSE_DISSIMILARITY,
    FUSE_SIMILARITY,
    GT_BONAFIDE,
    GT_MORPH,
    ProtocolEntry,
    align_scores,
    apcer_at_bpcer,
    apcer_bpcer,
    compare_runs,
    det_curve,
    det_svg,
    format_comparison_table,
    fr_similarities,
    fuse_fr_score,
    fuse_score_lists,
    generate_protocol,
    read_protocol,
    read_scores,
    score_protocol,
    write_comparison_csv,
    write_det_csv,
    write_det_svg,
    write_protocol,
    write_scores,
)
from morphdet.fusedloss import KIND_MORPH_LATENT, KIND_MORPH_LM
from morphdet.nncore import SgdConfig
from morphdet.trainer import ImageCache, train_identity_classifier


def oracle_operating_point(scores, is_attack, delta):
    """Brute-force APCER@BPCER: scan every candidate threshold by counting.

    Feasible thresholds are those with BPCER <= delta; among them the
    minimal APCER wins, ties broken toward the smallest threshold.
    """
    attack = [s for s, a in zip(scores, is_attack) if a]
    bona = [s for s, a in zip(scores, is_attack) if not a]
    feasible = []
    for tau in sorted(set(scores)) + [math.inf]:
        bpcer = sum(1 for s in bona if s >= tau) / len(bona)
        if bpcer <= delta:
            apcer = sum(1 for s in attack if s < tau) / len(attack)
            feasible.append((apcer, tau))
    return min(feasible)


def test_operating_point_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(4, 200))
        # quantized scores force ties, the hard case for threshold search
        grid = int(rng.integers(2, 12))
        scores = rng.integers(0, grid, size=n) / max(grid - 1, 1)
        is_attack = rng.random(n) < 0.5
        if is_attack.all() or not is_attack.any():
            is_attack[0] = True
            is_attack[-1] = False
        for delta in (0.01, 0.1, 0.25, 0.5):
            apcer, tau = apcer_at_bpcer(scores, is_attack, delta)
            oracle_apcer, oracle_tau = oracle_operating_point(scores, is_attack, delta)
            assert apcer == oracle_apcer
            assert tau == oracle_tau


def test_operating_point_on_continuous_scores():
    rng = np.random.default_rng(23)
    for trial in range(10):
        n = int(rng.integers(10, 120))
        scores = rng.random(n)
        is_attack = np.arange(n) % 2 == 0
        apcer, tau = apcer_at_bpcer(scores, is_attack, 0.1)
        oracle_apcer, oracle_tau = oracle_operating_point(scores, is_attack, 0.1)
        assert (apcer, tau) == (oracle_apcer, oracle_tau)


def test_apcer_bpcer_by_direct_counting():
    scores = np.array([0.1, 0.4, 0.55, 0.6, 0.9])
    is_attack = np.array([False, False, True, True, True])
    apcer, bpcer = apcer_bpcer(scores, is_attack, 0.5)
    assert apcer == 0.0 and bpcer == 0.0
    apcer, bpcer = apcer_bpcer(scores, is_attack, 0.58)
    assert apcer == pytest.approx(1.0 / 3.0) and bpcer == 0.0
    apcer, bpcer = apcer_bpcer(scores, is_attack, 0.4)
    assert apcer == 0.0 and bpcer == 0.5
    # threshold comparison is exactly >= for bona fide misclassification
    apcer, bpcer = apcer_bpcer(scores, is_attack, 0.9)
    assert apcer == pytest.approx(2.0 / 3.0) and bpcer == 0.0


def test_perfect_and_inverted_separations():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    is_attack = np.array([False, False, True, True])
    apcer, tau = apcer_at_bpcer(scores, is_attack, 0.1)
    assert apcer == 0.0 and tau == 0.8
    inverted = np.array([0.8, 0.9, 0.1, 0.2])
    apcer, tau = apcer_at_bpcer(inverted, is_attack, 0.1)
    assert apcer == 1.0


def test_metric_validation():
    scores = np.array([0.5, 0.6])
    with pytest.raises(MetricError):
        apcer_bpcer(scores, np.array([True, True]), 0.5)
    with pytest.raises(MetricError):
        apcer_bpcer(scores, np.array([False, False]), 0.5)
    with pytest.raises(MetricError):
        apcer_bpcer(scores, np.array([True]), 0.5)
    with pytest.raises(RangeError):
        apcer_at_bpcer(scores, np.array([True, False]), 0.0)
    with pytest.raises(RangeError):
        apcer_at_bpcer(scores, np.array([True, False]), 1.0)


def test_det_curve_consists_of_pointwise_rates():
    rng = np.random.default_rng(5)
    scores = rng.integers(0, 6, size=40) / 5.0
    is_attack = np.arange(40) % 3 == 0
    curve = det_curve(scores, is_attack)
    thresholds = [row[0] for row in curve.rows]
    assert thresholds == sorted(set(float(s) for s in scores))
    for tau, apcer, bpcer in curve.rows:
        direct_apcer, direct_bpcer = apcer_bpcer(scores, is_attack, tau)
        assert apcer == direct_apcer
        assert bpcer == direct_bpcer
    # apcer grows with the threshold, bpcer shrinks
    apcers = [row[1] for row in curve.rows]
    bpcers = [row[2] for row in curve.rows]
    assert apcers == sorted(apcers)
    assert bpcers == sorted(bpcers, reverse=True)


@pytest.fixture(scope="module")
def tiny_protocol(tiny_corpus):
    return generate_protocol(tiny_corpus.dataset_rows, tiny_corpus.morph_rows,
                             "landmark", seed=2, morph_per_bona=5)


def test_protocol_composition(tiny_corpus, tiny_protocol):
    morph_rows = [row for row in tiny_corpus.morph_rows if row[3] == KIND_MORPH_LM]
    n_bona = max(1, len(morph_rows) // 5)
    bona_entries = [e for e in tiny_protocol if e.ground_truth == GT_BONAFIDE]
    morph_entries = [e for e in tiny_protocol if e.ground_truth == GT_MORPH]
    assert len(bona_entries) == n_bona
    assert len(morph_entries) == len(morph_rows)
    id_of_image = {rel: identity for rel, identity, _ in tiny_corpus.dataset_rows}
    for entry in bona_entries:
        assert entry.path_a != entry.path_b
        assert id_of_image[entry.path_a] == id_of_image[entry.path_b]
    parents = {rel: (id_first, id_second)
               for rel, id_first, id_second, _ in morph_rows}
    for entry in morph_entries:
        assert entry.path_a in parents
        assert id_of_image[entry.path_b] in parents[entry.path_a]
    pair_ids = [e.pair_id for e in tiny_protocol]
    assert len(set(pair_ids)) == len(pair_ids)


def test_protocol_generation_is_deterministic_and_family_scoped(tiny_corpus, tiny_protocol):
    again = generate_protocol(tiny_corpus.dataset_rows, tiny_corpus.morph_rows,
                              "landmark", seed=2, morph_per_bona=5)
    assert again == tiny_protocol
    latent = generate_protocol(tiny_corpus.dataset_rows, tiny_corpus.morph_rows,
                               "latent", seed=2, morph_per_bona=5)
    latent_kinds = {row[0]: row[3] for row in tiny_corpus.morph_rows}
    for entry in latent:
        if entry.ground_truth == GT_MORPH:
            assert latent_kinds[entry.path_a] == KIND_MORPH_LATENT
    with pytest.raises(ProtocolError):
        generate_protocol(tiny_corpus.dataset_rows, tiny_corpus.morph_rows,
                          "pixel", seed=2)
    with pytest.raises(ProtocolError, match="no morphs"):
        generate_protocol(tiny_corpus.dataset_rows, [], "landmark", seed=2)


def test_single_image_identities_are_skipped_with_warning(capsys):
    dataset_rows = [
        ("images/id0000_v000.pgm", 0, "bonafide"),
        ("images/id0000_v001.pgm", 0, "bonafide"),
        ("images/id0001_v000.pgm", 1, "bonafide"),
    ]
    morph_rows = [("morphs/m.pgm", 0, 1, KIND_MORPH_LM)]
    entries = generate_protocol(dataset_rows, morph_rows, "landmark", seed=0)
    err = capsys.readouterr().err
    assert "identity 1" in err and "one image" in err
    bona = [e for e in entries if e.ground_truth == GT_BONAFIDE]
    assert all("id0000" in e.path_a for e in bona)
    lonely = [("a.pgm", 0, "bonafide"), ("b.pgm", 1, "bonafide")]
    with pytest.raises(ProtocolError, match="two or more"):
        generate_protocol(lonely, morph_rows, "landmark", seed=0)


def test_protocol_file_round_trip(tmp_path, tiny_protocol):
    path = tmp_path / "protocol.tsv"
    write_protocol(path, tiny_protocol)
    assert read_protocol(path) == tiny_protocol
    text = path.read_text()
    assert text.startswith("# pair_id\t")


def test_protocol_read_errors(tmp_path):
    with pytest.raises(DataError):
        read_protocol(tmp_path / "absent.tsv")
    empty = tmp_path / "empty.tsv"
    empty.write_text("# header only\n")
    with pytest.raises(ProtocolError, match="empty"):
        read_protocol(empty)
    dup = tmp_path / "dup.tsv"
    dup.write_text("p0\ta\tb\tmorph\np0\ta\tb\tmorph\n")
    with pytest.raises(ProtocolError, match="duplicate"):
        read_protocol(dup)
    malformed = tmp_path / "bad.tsv"
    malformed.write_text("p0\ta\tb\n")
    with pytest.raises(ProtocolError, match="malformed"):
        read_protocol(malformed)
    with pytest.raises(ProtocolError, match="ground truth"):
        ProtocolEntry("p0", "a", "b", "attack")


def test_score_files_round_trip(tmp_path):
    scores = [("b00000", 0.123456789), ("m00000", 1.0 / 3.0)]
    path = tmp_path / "scores.tsv"
    write_scores(path, scores)
    loaded = read_scores(path)
    assert [pair for pair, _ in loaded] == ["b00000", "m00000"]
    for (_, original), (_, parsed) in zip(scores, loaded):
        assert parsed == float(f"{original:.9g}")
    bad = tmp_path / "bad.tsv"
    bad.write_text("p0 0.5\n")
    with pytest.raises(DataError):
        read_scores(bad)
    bad.write_text("p0\thigh\n")
    with pytest.raises(DataError, match="non-numeric"):
        read_scores(bad)
    with pytest.raises(DataError):
        read_scores(tmp_path / "absent.tsv")


def test_align_scores_orders_and_validates(tiny_protocol):
    scores = [(e.pair_id, i / 100.0) for i, e in enumerate(reversed(tiny_protocol))]
    values, is_attack = align_scores(tiny_protocol, scores)
    assert values.shape == (len(tiny_protocol),)
    by_id = dict(scores)
    assert values[0] == by_id[tiny_protocol[0].pair_id]
    assert is_attack.sum() == sum(e.ground_truth == GT_MORPH for e in tiny_protocol)
    with pytest.raises(ProtocolError, match="missing"):
        align_scores(tiny_protocol, scores[:-1])
    with pytest.raises(ProtocolError, match="duplicate"):
        align_scores(tiny_protocol, scores + [scores[0]])
    with pytest.raises(ProtocolError, match="unknown"):
        align_scores(tiny_protocol, scores + [("zz999", 0.5)])
    for bad in (math.nan, math.inf, -math.inf):
        spoiled = scores[:2] + [(scores[2][0], bad)] + scores[3:]
        with pytest.raises(NumericError, match=scores[2][0]):
            align_scores(tiny_protocol, spoiled)


def test_score_protocol_reports_exclusions(tiny_corpus, tiny_protocol, tiny_model):
    broken = list(tiny_protocol) + [
        ProtocolEntry("x0001", "images/absent.pgm", tiny_protocol[0].path_b, GT_MORPH)
    ]
    scores, exclusions = score_protocol(tiny_model, broken, tiny_corpus.root)
    assert len(scores) == len(tiny_protocol)
    assert [pair for pair, _ in exclusions] == ["x0001"]
    assert all(0.0 < s < 1.0 for _, s in scores)
    assert [pair for pair, _ in scores] == [e.pair_id for e in tiny_protocol]


def test_fr_similarities_cover_the_protocol(tiny_corpus, tiny_protocol):
    backbone, _, _ = train_identity_classifier(
        tiny_corpus.root, tiny_corpus.bonafides, 6,
        SgdConfig(epochs=1, batch_size=6), 0, hidden_dims=(16,), feature_dim=8)
    sims, exclusions = fr_similarities(backbone, tiny_protocol, tiny_corpus.root)
    assert not exclusions
    assert len(sims) == len(tiny_protocol)
    assert all(0.0 <= s <= 1.0 for _, s in sims)


def test_fusion_math_and_validation():
    assert fuse_fr_score(0.8, 0.25, FUSE_SIMILARITY) == 0.8 * 0.25
    assert fuse_fr_score(0.8, 0.25, FUSE_DISSIMILARITY) == 0.8 * 0.75
    assert fuse_fr_score(0.0, 1.0) == 0.0
    assert fuse_fr_score(1.0, 0.0, FUSE_DISSIMILARITY) == 1.0
    with pytest.raises(RangeError):
        fuse_fr_score(1.2, 0.5)
    with pytest.raises(RangeError):
        fuse_fr_score(0.5, -0.1)
    with pytest.raises(RangeError):
        fuse_fr_score(0.5, 0.5, "product")


def test_fuse_score_lists_aligns_by_pair_id():
    mad = [("p0", 0.5), ("p1", 1.0)]
    sims = [("p1", 0.2), ("p0", 0.5)]
    fused = fuse_score_lists(mad, sims, FUSE_DISSIMILARITY)
    assert fused == [("p0", 0.5 * 0.5), ("p1", 1.0 * 0.8)]
    with pytest.raises(ProtocolError, match="p2"):
        fuse_score_lists(mad + [("p2", 0.1)], sims)


def test_compare_runs_and_csv(tmp_path):
    entries = [
        ProtocolEntry("b0", "a", "b", GT_BONAFIDE),
        ProtocolEntry("b1", "c", "d", GT_BONAFIDE),
        ProtocolEntry("m0", "e", "f", GT_MORPH),
        ProtocolEntry("m1", "g", "h", GT_MORPH),
    ]
    sharp = [("b0", 0.1), ("b1", 0.2), ("m0", 0.8), ("m1", 0.9)]
    dull = [("b0", 0.8), ("b1", 0.9), ("m0", 0.1), ("m1", 0.2)]
    rows = compare_runs([("sharp", sharp), ("dull", dull)], entries, deltas=(0.1,))
    assert [row[0] for row in rows] == ["sharp", "dull"]
    assert rows[0][2] == 0.0
    assert rows[1][2] == 1.0
    path = tmp_path / "compare.csv"
    write_comparison_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,delta,apcer,threshold"
    assert lines[1].startswith("sharp,0.1,0,")
    table = format_comparison_table(rows, protocol_name="toy")
    assert "sharp" in table and "dull" in table and "toy" in table
    assert "apcer@bpcer<=0.1" in table
    assert "0.0000" in table and "1.0000" in table


def test_default_deltas_are_pinned():
    assert DEFAULT_DELTAS == (0.1, 0.01)


def test_det_outputs_are_deterministic(tmp_path):
    scores = np.array([0.1, 0.2, 0.6, 0.9])
    is_attack = np.array([False, False, True, True])
    curve = det_curve(scores, is_attack)
    csv_path = tmp_path / "det.csv"
    write_det_csv(csv_path, curve)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "threshold,apcer,bpcer"
    assert len(lines) == len(curve.rows) + 1
    svg = det_svg(curve, title="toy curve")
    assert svg.lstrip().startswith("<svg")
    assert "toy curve" in svg
    assert svg == det_svg(curve, title="toy curve")
    svg_path = tmp_path / "det.svg"
    write_det_svg(svg_path, curve, title="toy curve")
    assert svg_path.read_text() == svg
