"""Differential benchmark harness.

Protocols pair a suspect image (path_a) with a trusted live image (path_b).
Bona fide entries pair two images of one identity; morph entries pair a
morph with a bona fide of one of its source identities. Scores follow the
fixed orientation "higher = attack". Error rates are the ISO-style pair:
APCER (attacks classified bona fide) and BPCER (bona fides classified
attack), with operating points picked from the empirical score set so every
number is exactly reproducible by brute-force counting.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    MetricError,
    NumericError,
    ProtocolError,
    RangeError,
)
from .fusedloss import FAMILY_OF_KIND, detection_score, is_morph_kind
from .morphgen import MORPH_FAMILIES
from .pgm import read_lines, read_table, write_file
from .seeding import PROTOCOL_STREAM, derive_rng
from .trainer import DualModel, ImageCache, extract_features, identity_similarity

GT_BONAFIDE = "bonafide"
GT_MORPH = "morph"

FUSE_SIMILARITY = "similarity"
FUSE_DISSIMILARITY = "dissimilarity"
FUSE_MODES = (FUSE_SIMILARITY, FUSE_DISSIMILARITY)

DEFAULT_DELTAS = (0.1, 0.01)
DEFAULT_BONA_MORPH_RATIO = 5  # morph pairs per bona fide pair in a protocol


@dataclass(frozen=True)
class ProtocolEntry:
    pair_id: str
    path_a: str  # suspect (document) image
    path_b: str  # trusted live image
    ground_truth: str

    def __post_init__(self):
        if self.ground_truth not in (GT_BONAFIDE, GT_MORPH):
            raise ProtocolError(f"bad ground truth {self.ground_truth!r}")


@dataclass(frozen=True)
class DetCurve:
    rows: tuple  # ((threshold, apcer, bpcer), ...) with thresholds strictly increasing


# ---------------------------------------------------------------------------
# Protocol generation and files
# ---------------------------------------------------------------------------


def generate_protocol(dataset_rows, morph_rows, family: str, seed: int,
                      morph_per_bona: int = DEFAULT_BONA_MORPH_RATIO):
    """Build one evaluation protocol for a single morph family.

    Every family morph becomes one entry against a bona fide of a randomly
    chosen source identity. Bona fide pairs (two distinct images of one
    identity) are added at roughly one per morph_per_bona morph entries.
    Identities with a single image cannot form bona fide pairs and are
    skipped with a warning.
    """
    if family not in MORPH_FAMILIES:
        raise ProtocolError(f"unknown morph family {family!r}")
    images_by_id = {}
    for rel, identity, _kind in dataset_rows:
        images_by_id.setdefault(identity, []).append(rel)
    morphs = [row for row in morph_rows
              if is_morph_kind(row[3]) and FAMILY_OF_KIND[row[3]] == family]
    if not morphs:
        raise ProtocolError(f"no morphs of family {family!r} in the manifest")

    rng = derive_rng(seed, PROTOCOL_STREAM, MORPH_FAMILIES.index(family))
    entries = []

    pairable = [i for i in sorted(images_by_id) if len(images_by_id[i]) >= 2]
    for identity in sorted(images_by_id):
        if len(images_by_id[identity]) < 2:
            print(f"warning: identity {identity} has one image, skipped for bona fide pairs",
                  file=sys.stderr)
    if not pairable:
        raise ProtocolError("no identity has two or more images for bona fide pairs")
    n_bona = max(1, len(morphs) // morph_per_bona)
    for k in range(n_bona):
        identity = pairable[k % len(pairable)]
        pool = images_by_id[identity]
        v_a, v_b = rng.choice(len(pool), size=2, replace=False)
        entries.append(ProtocolEntry(f"b{k:05d}", pool[int(v_a)], pool[int(v_b)],
                                     GT_BONAFIDE))

    for k, (rel, id_first, id_second, _kind) in enumerate(morphs):
        source = id_first if int(rng.integers(2)) == 0 else id_second
        pool = images_by_id.get(source)
        if not pool:
            raise ProtocolError(f"morph {rel} references identity {source} with no images")
        trusted = pool[int(rng.integers(len(pool)))]
        entries.append(ProtocolEntry(f"m{k:05d}", rel, trusted, GT_MORPH))
    return entries


def write_protocol(path, entries) -> None:
    write_file(path, ["# pair_id\tpath_a\tpath_b\tground_truth\n"] + [
        f"{e.pair_id}\t{e.path_a}\t{e.path_b}\t{e.ground_truth}\n" for e in entries])


def read_protocol(path):
    entries = []
    seen = set()
    for line in read_lines(path, "protocol"):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ProtocolError(f"{path}: malformed protocol line {line!r}")
        if parts[0] in seen:
            raise ProtocolError(f"{path}: duplicate pair_id {parts[0]!r}")
        seen.add(parts[0])
        entries.append(ProtocolEntry(*parts))
    if not entries:
        raise ProtocolError(f"{path}: empty protocol")
    return entries


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def score_protocol(model: DualModel, entries, cache: ImageCache):
    """Score every protocol pair; higher = attack.

    Returns (scores, exclusions): scores as (pair_id, float) in protocol
    order; exclusions as (pair_id, reason) for entries with an image that
    failed to load or does not fit the network. Excluded entries carry no
    score and the caller must surface a nonzero exit if any exist.
    """
    return _score_pairs(entries, cache, model.first_backbone, model.second_backbone,
                        detection_score)


def fr_similarities(backbone, entries, cache: ImageCache):
    """Identity-feature similarity in [0, 1] for every protocol pair, as
    (sims, exclusions) in the form of score_protocol."""
    return _score_pairs(entries, cache, backbone, backbone, identity_similarity)


def _score_pairs(entries, cache: ImageCache, first, second, pair_score):
    """pair_score of the features of path_a by first and of path_b by second
    per entry, from one feature table per network: each distinct image is
    read once through cache and goes once through each network it feeds."""
    inputs = {first: [e.path_a for e in entries]}
    inputs[second] = inputs.get(second, []) + [e.path_b for e in entries]
    unusable = {}  # relpath -> reason
    tables = {}  # network -> {relpath: feature row}, rows of one matrix
    for network, relpaths in inputs.items():
        images = {}
        for relpath in dict.fromkeys(p for p in relpaths if p not in unusable):
            try:
                image = cache.flat(relpath)
                if image.size != network.input_dim:
                    raise DataError(f"{relpath}: image of {image.size} pixels, the network "
                                    f"takes {network.input_dim}")
                images[relpath] = image
            except DataError as exc:
                unusable[relpath] = str(exc)
        tables[network] = dict(zip(images, extract_features(network, list(images.values()))))
    scores = []
    exclusions = []
    for entry in entries:
        reason = unusable.get(entry.path_a) or unusable.get(entry.path_b)
        if reason:
            exclusions.append((entry.pair_id, reason))
        else:
            scores.append((entry.pair_id, pair_score(tables[first][entry.path_a],
                                                     tables[second][entry.path_b])))
    return scores, exclusions


def write_scores(path, scores) -> None:
    write_file(path, (f"{pair_id}\t{score:.9g}\n" for pair_id, score in scores))


def read_scores(path):
    scores = []
    for pair_id, score in read_table(path, "scores file", 2):
        try:
            scores.append((pair_id, float(score)))
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric score {score!r} for {pair_id!r}") from exc
    return scores


def align_scores(entries, scores):
    """Order scores by protocol entry; reject missing/duplicate/stray ids
    and non-finite scores.

    Returns (score array, is_attack bool array).
    """
    by_id = {}
    for pair_id, score in scores:
        if pair_id in by_id:
            raise ProtocolError(f"duplicate score for pair {pair_id!r}")
        by_id[pair_id] = float(score)
    missing = [e.pair_id for e in entries if e.pair_id not in by_id]
    if missing:
        raise ProtocolError(f"scores missing for {len(missing)} pairs, first {missing[0]!r}")
    stray = set(by_id) - set(e.pair_id for e in entries)
    if stray:
        raise ProtocolError(f"scores for unknown pairs: {sorted(stray)[:3]}")
    values = np.array([by_id[e.pair_id] for e in entries], dtype=np.float64)
    nonfinite = np.flatnonzero(~np.isfinite(values))
    if nonfinite.size:
        first = entries[int(nonfinite[0])].pair_id
        raise NumericError(f"{nonfinite.size} non-finite scores, first {first!r}: "
                           f"{values[nonfinite[0]]}")
    is_attack = np.array([e.ground_truth == GT_MORPH for e in entries], dtype=bool)
    return values, is_attack


# ---------------------------------------------------------------------------
# Error rates
# ---------------------------------------------------------------------------


def _split_classes(scores, is_attack):
    scores = np.asarray(scores, dtype=np.float64)
    is_attack = np.asarray(is_attack, dtype=bool)
    if scores.shape != is_attack.shape or scores.ndim != 1:
        raise MetricError("scores and ground truths must be aligned 1-D arrays")
    attack = scores[is_attack]
    bona = scores[~is_attack]
    if attack.size == 0 or bona.size == 0:
        raise MetricError("metrics need both attack and bona fide entries")
    return attack, bona


def apcer_bpcer(scores, is_attack, threshold: float):
    """Error-rate pair at one threshold; score >= threshold reads as attack."""
    attack, bona = _split_classes(scores, is_attack)
    apcer = float(np.count_nonzero(attack < threshold)) / attack.size
    bpcer = float(np.count_nonzero(bona >= threshold)) / bona.size
    return apcer, bpcer


def apcer_at_bpcer(scores, is_attack, delta: float):
    """APCER at the smallest candidate threshold whose BPCER <= delta.

    Candidates are the thresholds of det_curve, the sorted unique scores,
    plus +inf, so the operating point is a row of the DET table and exactly
    reproducible from the score set alone. Returns (apcer, threshold).
    """
    if not 0.0 < delta < 1.0:
        raise RangeError(f"delta must be in (0, 1), got {delta}")
    for tau, apcer, bpcer in det_curve(scores, is_attack).rows:
        if bpcer <= delta:
            return apcer, tau
    return 1.0, np.inf


def det_curve(scores, is_attack) -> DetCurve:
    """(threshold, apcer, bpcer) swept over all unique scores."""
    attack, bona = _split_classes(scores, is_attack)
    attack_sorted = np.sort(attack)
    bona_sorted = np.sort(bona)
    thresholds = np.unique(np.concatenate([attack_sorted, bona_sorted]))
    apcer = np.searchsorted(attack_sorted, thresholds, side="left") / attack.size
    bpcer = (bona.size - np.searchsorted(bona_sorted, thresholds, side="left")) / bona.size
    rows = tuple(
        (float(t), float(a), float(b)) for t, a, b in zip(thresholds, apcer, bpcer)
    )
    return DetCurve(rows)


# ---------------------------------------------------------------------------
# Score fusion with the identity-classifier similarity
# ---------------------------------------------------------------------------


def fuse_fr_score(mad_score: float, fr_similarity: float,
                  mode: str = FUSE_DISSIMILARITY) -> float:
    """Combine a morph-detection score with a face-recognition similarity.

    similarity mode multiplies the raw similarity in; dissimilarity mode
    multiplies (1 - similarity), treating the pair's identity mismatch as
    corroborating evidence. Both inputs live in [0, 1], as does the result.
    """
    if mode not in FUSE_MODES:
        raise RangeError(f"unknown fusion mode {mode!r}")
    if not 0.0 <= mad_score <= 1.0:
        raise RangeError(f"mad_score outside [0, 1]: {mad_score}")
    if not 0.0 <= fr_similarity <= 1.0:
        raise RangeError(f"fr_similarity outside [0, 1]: {fr_similarity}")
    if mode == FUSE_SIMILARITY:
        return mad_score * fr_similarity
    return mad_score * (1.0 - fr_similarity)


def fuse_score_lists(mad_scores, sims, mode: str = FUSE_DISSIMILARITY):
    """Pairwise fusion of two aligned (pair_id, value) lists."""
    sim_by_id = dict(sims)
    fused = []
    for pair_id, mad in mad_scores:
        if pair_id not in sim_by_id:
            raise ProtocolError(f"no similarity for pair {pair_id!r}")
        fused.append((pair_id, fuse_fr_score(mad, sim_by_id[pair_id], mode)))
    return fused


# ---------------------------------------------------------------------------
# Method comparison
# ---------------------------------------------------------------------------


def compare_runs(named_scores, entries, deltas=DEFAULT_DELTAS):
    """APCER@BPCER operating points for several scored methods.

    named_scores: list of (method name, [(pair_id, score), ...]). Returns
    rows (method, delta, apcer, threshold) in input order, deltas inner.
    """
    rows = []
    for name, scores in named_scores:
        values, is_attack = align_scores(entries, scores)
        for delta in deltas:
            apcer, tau = apcer_at_bpcer(values, is_attack, delta)
            rows.append((name, float(delta), apcer, tau))
    return rows


def write_comparison_csv(path, rows) -> None:
    write_file(path, ["method,delta,apcer,threshold\n"] + [
        f"{method},{delta:.9g},{apcer:.9g},{tau:.9g}\n" for method, delta, apcer, tau in rows])


def format_comparison_table(rows, protocol_name: str = "protocol") -> str:
    """Fixed-width table, one line per method, one column per delta."""
    deltas = []
    for _method, delta, _apcer, _tau in rows:
        if delta not in deltas:
            deltas.append(delta)
    by_method = {}
    order = []
    for method, delta, apcer, _tau in rows:
        if method not in by_method:
            by_method[method] = {}
            order.append(method)
        by_method[method][delta] = apcer
    width = max(12, max(len(m) for m in order) + 2)
    proto_width = max(10, len(protocol_name) + 2)
    header = "method".ljust(width) + "protocol".ljust(proto_width)
    header += "".join(f"apcer@bpcer<={d:g}".ljust(20) for d in deltas)
    lines = [header, "-" * len(header)]
    for method in order:
        line = method.ljust(width) + protocol_name.ljust(proto_width)
        for delta in deltas:
            value = by_method[method].get(delta)
            line += (f"{value:.4f}" if value is not None else "-").ljust(20)
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# DET curve emission (CSV + self-contained SVG, no plotting dependencies)
# ---------------------------------------------------------------------------


def write_det_csv(path, curve: DetCurve) -> None:
    write_file(path, ["threshold,apcer,bpcer\n"] + [
        f"{threshold:.9g},{apcer:.9g},{bpcer:.9g}\n" for threshold, apcer, bpcer in curve.rows])


def det_svg(curve: DetCurve, title: str = "DET") -> str:
    """Static log-log DET plot (APCER horizontal, BPCER vertical)."""
    size = 480
    margin = 60
    floor = 1e-3  # zero rates clamp to the axis floor on the log scale
    span = float(np.log10(1.0 / floor))

    def to_xy(apcer, bpcer):
        ax = max(apcer, floor)
        by = max(bpcer, floor)
        x = margin + (np.log10(ax / floor) / span) * (size - 2 * margin)
        y = size - margin - (np.log10(by / floor) / span) * (size - 2 * margin)
        return x, y

    points = " ".join(
        f"{x:.2f},{y:.2f}" for x, y in (to_xy(a, b) for _t, a, b in curve.rows)
    )
    grid = []
    labels = []
    for exponent in range(0, 4):
        value = 10.0 ** (-exponent)
        gx, _ = to_xy(value, 1.0)
        _, gy = to_xy(1.0, value)
        grid.append(
            f'<line x1="{gx:.2f}" y1="{margin}" x2="{gx:.2f}" y2="{size - margin}" '
            f'stroke="#ccc" stroke-width="1"/>'
        )
        grid.append(
            f'<line x1="{margin}" y1="{gy:.2f}" x2="{size - margin}" y2="{gy:.2f}" '
            f'stroke="#ccc" stroke-width="1"/>'
        )
        labels.append(
            f'<text x="{gx:.2f}" y="{size - margin + 18}" font-size="11" '
            f'text-anchor="middle">{value:g}</text>'
        )
        labels.append(
            f'<text x="{margin - 8}" y="{gy + 4:.2f}" font-size="11" '
            f'text-anchor="end">{value:g}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
        + "\n".join(grid) + "\n" + "\n".join(labels) + "\n"
        + f'<rect x="{margin}" y="{margin}" width="{size - 2 * margin}" '
        f'height="{size - 2 * margin}" fill="none" stroke="#333" stroke-width="1.5"/>\n'
        f'<polyline points="{points}" fill="none" stroke="#c0392b" stroke-width="2"/>\n'
        f'<text x="{size / 2:.0f}" y="{size - 14}" font-size="13" '
        f'text-anchor="middle">APCER</text>\n'
        f'<text x="16" y="{size / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {size / 2:.0f})">BPCER</text>\n'
        f'<text x="{size / 2:.0f}" y="24" font-size="14" '
        f'text-anchor="middle">{title}</text>\n'
        "</svg>\n"
    )


def write_det_svg(path, curve: DetCurve, title: str = "DET") -> None:
    write_file(path, [det_svg(curve, title)])
