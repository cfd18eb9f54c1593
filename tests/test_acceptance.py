"""Acceptance checks, one test per criterion, each printing a verdict line.

Criteria 5 through 8 and 10 consume the session benchmark fixture, which
trains all three variants on three seeds with the landmark morph family and
evaluates them on both protocol families.
"""

import math
import time

import numpy as np

from morphdet import cli, datamine, evalbench, fusedloss, morphgen, nncore, trainer
from morphdet.synthfaces import SynthConfig, make_identity, render

from conftest import BENCH


def announce(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} {verdict}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    t0 = time.perf_counter()
    errors = {}
    for variant in fusedloss.VARIANTS:
        model = trainer.build_dual_model(20, (8,), 6, 3, variant, 7)
        n_params = sum(p.size for p in model.parameters())
        assert n_params <= 2000, f"{variant} selftest model has {n_params} parameters"
        errors[variant] = cli.selftest_gradients(variant, seed=7)
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    announce(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"max relative gradient error {worst:.3e} < 1e-4 across "
        f"{'/'.join(errors)} (models <= 2000 params) in {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 2. loss identities
# ---------------------------------------------------------------------------


def test_criterion_02_loss_identities():
    ce_err = 0.0
    for c in (2, 3, 7, 48, 96):
        loss, _ = nncore.softmax_cross_entropy(np.zeros(c), 0)
        ce_err = max(ce_err, abs(loss - math.log(c)))
        loss, _ = nncore.softmax_cross_entropy(np.full(c, 3.7), c - 1)
        ce_err = max(ce_err, abs(loss - math.log(c)))

    feature_dim = 5
    head = nncore.ClassifierHead.build(3, feature_dim, np.random.default_rng(0))
    zero = np.zeros(feature_dim)
    l3_err = 0.0
    for t in (0, 1):
        breakdown, _ = fusedloss.pair_loss(
            zero, zero, head, head, 0, 0, t, fusedloss.LossWeights()
        )
        assert breakdown.dot == 0.0
        l3_err = max(l3_err, abs(breakdown.l3 - math.log(2.0)))

    grid = np.linspace(-20.0, 20.0, 161)
    attack_losses = [nncore.binary_cross_entropy_with_logit(d, 1.0)[0] for d in grid]
    bona_losses = [nncore.binary_cross_entropy_with_logit(d, 0.0)[0] for d in grid]
    monotone = all(a > b for a, b in zip(attack_losses, attack_losses[1:])) and all(
        a < b for a, b in zip(bona_losses, bona_losses[1:])
    )
    limits = attack_losses[-1] < 1e-8 and bona_losses[0] < 1e-8

    announce(
        2,
        ce_err <= 1e-12 and l3_err <= 1e-12 and monotone and limits,
        f"uniform CE off ln C by {ce_err:.2e} <= 1e-12, pair loss at D=0 off "
        f"ln 2 by {l3_err:.2e} <= 1e-12, strict monotonicity with vanishing "
        f"endpoint losses over D in [-20, 20]",
    )


# ---------------------------------------------------------------------------
# 3. metric oracle equivalence
# ---------------------------------------------------------------------------


def _oracle_rates(attack, bona, tau):
    return (
        float(np.count_nonzero(attack < tau)) / attack.size,
        float(np.count_nonzero(bona >= tau)) / bona.size,
    )


def _oracle_operating_point(attack, bona, delta):
    candidates = sorted(set(np.concatenate([attack, bona]).tolist())) + [math.inf]
    feasible = []
    for tau in candidates:
        apcer, bpcer = _oracle_rates(attack, bona, tau)
        if bpcer <= delta:
            feasible.append((apcer, tau))
    return min(feasible)


def test_criterion_03_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    for k in range(200):
        n = int(rng.integers(4, 501))
        if k % 2 == 0:
            grid = int(rng.integers(2, 16))
            scores = rng.integers(0, grid, size=n) / max(grid - 1, 1)
        else:
            scores = rng.random(n)
        is_attack = rng.random(n) < float(rng.uniform(0.2, 0.8))
        if is_attack.all() or not is_attack.any():
            is_attack[0] = True
            is_attack[-1] = False
        attack = scores[is_attack]
        bona = scores[~is_attack]

        for tau in (0.25, 0.5, float(scores[0])):
            assert evalbench.apcer_bpcer(scores, is_attack, tau) == _oracle_rates(
                attack, bona, tau
            )
        for delta in (0.05, 0.1, 0.3):
            fast = evalbench.apcer_at_bpcer(scores, is_attack, delta)
            assert fast == _oracle_operating_point(attack, bona, delta)
        curve = evalbench.det_curve(scores, is_attack)
        for tau, apcer, bpcer in curve.rows:
            assert (apcer, bpcer) == _oracle_rates(attack, bona, tau)
        checked += 1
    elapsed = time.perf_counter() - t0
    announce(
        3,
        checked == 200 and elapsed < 10.0,
        f"apcer_bpcer, apcer_at_bpcer, det_curve equal the brute-force "
        f"counting oracle exactly on {checked} seeded sets (n <= 500) "
        f"in {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 4. morph geometry
# ---------------------------------------------------------------------------


def test_criterion_04_morph_geometry():
    config = SynthConfig(image_size=32)
    faces = [render(make_identity(1, i, config), (1, i, 0), config) for i in range(4)]

    midpoint_err = 0.0
    for a, b in ((faces[0], faces[1]), (faces[2], faces[3])):
        result = morphgen.morph_landmark(a, b)
        midpoint_err = max(
            midpoint_err,
            float(np.max(np.abs(result.landmarks - 0.5 * (a.landmarks + b.landmarks)))),
        )

    self_result = morphgen.morph_landmark(faces[0], faces[0])
    interior_err = float(
        np.max(np.abs(self_result.pixels - faces[0].pixels)[1:-1, 1:-1])
    )

    a, b = faces[0], faces[1]
    border = morphgen.border_points(32, 32)
    dst = np.vstack([0.5 * (a.landmarks + b.landmarks), border])
    tri = morphgen.triangulate(dst)
    partition_ok = True
    for face in (a, b):
        acc = morphgen.warp_image(face.pixels, np.vstack([face.landmarks, border]),
                                  dst, tri)
        partition_ok = partition_ok and bool(np.all(acc.hits == 1))

    announce(
        4,
        midpoint_err <= 1e-12 and interior_err <= 1e-9 and partition_ok,
        f"midpoint landmarks off by {midpoint_err:.2e} <= 1e-12, self-blend "
        f"interior pixel error {interior_err:.2e} <= 1e-9, every warp "
        f"claims every pixel exactly once",
    )


# ---------------------------------------------------------------------------
# 5. sampling contract
# ---------------------------------------------------------------------------


def test_criterion_05_sampling_contract(bench):
    corpus = bench.corpora[BENCH["train_seeds"][0]]
    pools = datamine.bonafide_pools(bench.handle.bonafides)
    rows = datamine.pair_rows(corpus, pools)
    batch_size = 28
    steps = len(corpus) // batch_size
    violations = 0
    pairs = 0
    for step in range(steps):
        suspects, trusted = datamine.sample_batch(rows, batch_size, 0, step)
        for s, pair in zip(suspects, rows.pairs(suspects, trusted)):
            pairs += 1
            trusted_is_original = (pair.first is corpus[s]
                                   and pair.second in pools[pair.first.labels.y1]
                                   and pair.second.kind == fusedloss.KIND_BONAFIDE)
            labels_match = (
                pair.second.labels.y1 == pair.second.labels.y2 == pair.first.labels.y1
            )
            t_iff_morph = (pair.t == 1) == fusedloss.is_morph_kind(pair.first.kind)
            t_consistent = pair.t == int(
                pair.first.labels.y2 != pair.second.labels.y2
            )
            if not (trusted_is_original and labels_match and t_iff_morph
                    and t_consistent):
                violations += 1
    announce(
        5,
        pairs == steps * batch_size and violations == 0,
        f"all {pairs} pairs of a full epoch use an original bona fide "
        f"trusted image with matching identity labels and a cross label "
        f"equivalent to the suspect being a morph ({violations} violations)",
    )


# ---------------------------------------------------------------------------
# 6. held-out family benchmark
# ---------------------------------------------------------------------------


def test_criterion_06_heldout_family_benchmark(bench):
    family = BENCH["heldout_family"]
    bc = bench.median("bc", family)
    v1 = bench.median("fc-v1", family)
    v2 = bench.median("fc-v2", family)
    soft = "holds" if v2 <= v1 else "does not hold"
    print(
        f"held-out {family} APCER@BPCER=0.1 medians over "
        f"{len(BENCH['train_seeds'])} seeds: bc {bc:.4f}, fc-v1 {v1:.4f}, "
        f"fc-v2 {v2:.4f}; soft expectation fc-v2 <= fc-v1 {soft}; "
        f"detector wall time {bench.detector_seconds:.0f}s"
    )
    announce(
        6,
        v2 < bc and v1 < bc and v2 <= 0.8 * bc
        and bench.detector_seconds < 900.0,
        f"fc-v2 {v2:.4f} and fc-v1 {v1:.4f} both beat bc {bc:.4f} on the "
        f"held-out {family} protocol, gate fc-v2 <= 0.8 x bc = {0.8 * bc:.4f}, "
        f"nine trainings and evaluations in {bench.detector_seconds:.0f}s < 900s",
    )


# ---------------------------------------------------------------------------
# 7. morph separation
# ---------------------------------------------------------------------------


def test_criterion_07_morph_separation(bench):
    seeds = BENCH["train_seeds"]
    v1 = float(np.median([bench.separation[(s, "fc-v1")].first_ratio for s in seeds]))
    v2 = float(np.median([bench.separation[(s, "fc-v2")].first_ratio for s in seeds]))
    second_v1 = float(
        np.median([bench.separation[(s, "fc-v1")].second_ratio for s in seeds])
    )
    second_v2 = float(
        np.median([bench.separation[(s, "fc-v2")].second_ratio for s in seeds])
    )
    print(
        f"first-network morph separation medians: fc-v2 {v2:.4f} vs fc-v1 "
        f"{v1:.4f}; second-network (trains on bona fides only): "
        f"fc-v2 {second_v2:.4f} vs fc-v1 {second_v1:.4f}"
    )
    announce(
        7,
        v2 > v1,
        f"separate morph classes push morph features further from their "
        f"source-identity centroids: first-network ratio {v2:.4f} > {v1:.4f} "
        f"(median over {len(seeds)} seeds)",
    )


# ---------------------------------------------------------------------------
# 8. identity-similarity fusion
# ---------------------------------------------------------------------------


def test_criterion_08_fusion_beats_unfused(bench):
    lines = []
    ok = True
    for family in ("latent", "landmark"):
        unfused = bench.median("fc-v2", family)
        fused = bench.median_fused(family)
        ok = ok and fused <= unfused
        lines.append(f"{family} fused {fused:.4f} vs unfused {unfused:.4f}")
    announce(
        8,
        ok,
        "dissimilarity fusion APCER@BPCER=0.1 <= unfused fc-v2 on both "
        "protocols (medians over 3 seeds): " + "; ".join(lines),
    )


# ---------------------------------------------------------------------------
# 9. command reruns are bit-identical
# ---------------------------------------------------------------------------


def test_criterion_09_reruns_bit_identical(tmp_path):
    flags = dict(
        data=["--n-identities", "6", "--images-per-identity", "3",
              "--image-size", "16"],
        morphs=["--image-size", "16"],
        train=["--variant", "fc-v2", "--train-families", "landmark",
               "--epochs", "2", "--batch-size", "7",
               "--hidden-dims", "16", "--feature-dim", "8"],
    )

    def run_pipeline(base):
        data = base / "data"
        out = base / "out"
        for args in (
            ["gen-data", "--data-dir", data, "--seed", "4"] + flags["data"],
            ["gen-morphs", "--data-dir", data, "--seed", "4"] + flags["morphs"],
            ["gen-protocol", "--data-dir", data, "--seed", "4",
             "--family", "landmark"],
            ["train", "--data-dir", data, "--out-dir", out, "--seed", "4"]
            + flags["train"],
            ["eval", "--data-dir", data, "--out-dir", out,
             "--checkpoint", out / "checkpoint.mdck",
             "--protocol", data / "protocol-landmark.tsv"],
        ):
            assert cli.main([str(a) for a in args]) == 0
        return {
            rel: (base / rel).read_bytes()
            for rel in (
                "data/manifest.tsv", "data/morphs.tsv",
                "data/protocol-landmark.tsv", "out/checkpoint.mdck",
                "out/train_report.csv", "out/scores.tsv", "out/metrics.csv",
                "out/det.csv",
            )
        }

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    differing = [rel for rel in first if first[rel] != second[rel]]
    announce(
        9,
        not differing,
        f"rerunning every pipeline command with identical config and seed "
        f"reproduced all {len(first)} artifacts byte for byte "
        f"(score files, metric CSVs, checkpoints, manifests)"
        + (f"; differing: {differing}" if differing else ""),
    )


# ---------------------------------------------------------------------------
# 10. checkpoint round trip
# ---------------------------------------------------------------------------


def test_criterion_10_checkpoint_round_trip(bench, tmp_path):
    model = bench.models[(BENCH["train_seeds"][0], "fc-v2")]
    probe = bench.protocols[BENCH["heldout_family"]][:100]
    assert len(probe) == 100
    before, excluded = evalbench.score_protocol(model, probe, bench.cache)
    assert not excluded

    path = tmp_path / "roundtrip.mdck"
    trainer.save_model(path, model, seed=0)
    loaded, _meta = trainer.load_model(path)
    after, excluded = evalbench.score_protocol(loaded, probe, bench.cache)
    assert not excluded

    identical = before == after
    announce(
        10,
        identical and len(before) == 100,
        f"saved and reloaded detector reproduces all {len(before)} probe "
        f"scores bit-exactly",
    )
