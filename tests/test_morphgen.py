"""Morph geometry: triangulation, affine warps, blending, corpus output.

The triangulation tests cross-check the library Delaunay routine against a
brute-force empty-circumcircle verifier, so the geometric contract does not
rest on the library alone.
"""

import math

import numpy as np
import pytest

from morphdet.errors import DataError, GeometryError, RangeError, TopologyError
from morphdet.fusedloss import (
    KIND_MORPH_LATENT,
    KIND_MORPH_LM,
    KIND_SELFMORPH_LATENT,
    KIND_SELFMORPH_LM,
    LANDMARK_FAMILY,
    LATENT_FAMILY,
)
from morphdet import morphgen
from morphdet.morphgen import (
    MorphConfig,
    WarpAccumulator,
    _bilinear,
    affine_map,
    border_points,
    generate_morph_corpus,
    morph_counts,
    morph_landmark,
    morph_latent,
    morph_relpath,
    triangle_areas,
    triangulate,
    warp_affine_triangle,
    warp_image,
)
from morphdet.pgm import read_landmarks, read_pgm, write_pgm
from morphdet.synthfaces import SynthConfig, generate_dataset, make_identity, render

CFG = SynthConfig(image_size=16)


@pytest.fixture(scope="module")
def face_pair():
    a = render(make_identity(0, 0, CFG), (0, 0, 0), CFG)
    b = render(make_identity(0, 1, CFG), (0, 1, 0), CFG)
    return a, b


def circumcircle(p0, p1, p2):
    """Center and squared radius of the circle through three points.

    Independent of the triangulation code; used as the Delaunay oracle.
    """
    ax, ay = p0
    bx, by = p1
    cx, cy = p2
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return (ux, uy), (ax - ux) ** 2 + (ay - uy) ** 2


def assert_delaunay_by_brute_force(points, triangles):
    """Every triangle's circumcircle must be empty of other input points."""
    points = np.asarray(points, dtype=np.float64)
    for tri in triangles:
        (ux, uy), r2 = circumcircle(*points[tri])
        for k, (px, py) in enumerate(points):
            if k in tri:
                continue
            d2 = (px - ux) ** 2 + (py - uy) ** 2
            assert d2 >= r2 * (1.0 - 1e-9), (
                f"point {k} lies inside the circumcircle of triangle {tri}"
            )


def test_border_points_frame_a_16x16_image():
    pts = border_points(16, 16)
    expected = np.array(
        [
            [-0.5, -0.5],
            [15.5, -0.5],
            [-0.5, 15.5],
            [15.5, 15.5],
            [7.5, -0.5],
            [7.5, 15.5],
            [-0.5, 7.5],
            [15.5, 7.5],
        ]
    )
    assert np.array_equal(pts, expected)


def test_triangle_areas_known_values():
    points = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [4.0, 3.0]])
    tris = np.array([[0, 1, 2], [1, 2, 3]])
    assert np.allclose(triangle_areas(points, tris), [6.0, 6.0], atol=1e-14)


def test_triangulation_tiles_the_frame_exactly():
    tri = triangulate(border_points(16, 16))
    total = float(triangle_areas(tri.points, tri.triangles).sum())
    assert abs(total - 256.0) < 1e-9


def test_triangulation_with_interior_points_tiles_exactly():
    rng = np.random.default_rng(3)
    interior = rng.uniform(1.0, 14.0, size=(13, 2))
    tri = triangulate(np.vstack([interior, border_points(16, 16)]))
    total = float(triangle_areas(tri.points, tri.triangles).sum())
    assert abs(total - 256.0) < 1e-9
    # every input point is a vertex of the tessellation
    assert set(np.unique(tri.triangles)) == set(range(len(tri.points)))


def test_triangulation_is_delaunay_by_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(5):
        interior = rng.uniform(0.5, 15.0, size=(12, 2))
        pts = np.vstack([interior, border_points(16, 16)])
        tri = triangulate(pts)
        assert_delaunay_by_brute_force(tri.points, tri.triangles)


def test_face_morph_point_set_is_delaunay(face_pair):
    a, b = face_pair
    mid = 0.5 * (a.landmarks + b.landmarks)
    tri = triangulate(np.vstack([mid, border_points(16, 16)]))
    assert_delaunay_by_brute_force(tri.points, tri.triangles)


def test_triangulation_order_is_canonical():
    rng = np.random.default_rng(7)
    pts = np.vstack([rng.uniform(1.0, 14.0, size=(10, 2)), border_points(16, 16)])
    tri = triangulate(pts)
    rows = [tuple(row) for row in tri.triangles]
    for row in rows:
        assert row[0] < row[1] < row[2]
    assert rows == sorted(rows)
    again = triangulate(pts)
    assert np.array_equal(tri.triangles, again.triangles)


def test_triangulation_rejects_bad_input():
    square = border_points(16, 16)
    with pytest.raises(GeometryError, match="duplicate"):
        triangulate(np.vstack([square, square[2:3]]))
    line = np.column_stack([np.arange(5.0), np.arange(5.0)])
    with pytest.raises(GeometryError):
        triangulate(line)
    with pytest.raises(GeometryError):
        triangulate(np.zeros((2, 2)))
    with pytest.raises(GeometryError):
        triangulate(np.zeros((4, 3)))


def test_affine_map_identity_is_bit_exact():
    tri = np.array([[0.0, 0.0], [5.0, 1.0], [2.0, 7.0]])
    m = affine_map(tri, tri)
    assert np.array_equal(m, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))


def test_affine_map_sends_vertices_onto_targets():
    rng = np.random.default_rng(2)
    for trial in range(20):
        src = rng.uniform(-5.0, 5.0, size=(3, 2))
        dst = rng.uniform(-5.0, 5.0, size=(3, 2))
        if abs(np.linalg.det(src[1:] - src[0])) < 1e-3:
            continue
        m = affine_map(src, dst)
        mapped = np.column_stack([src, np.ones(3)]) @ m
        assert np.max(np.abs(mapped - dst)) < 1e-9


def test_affine_map_recovers_a_known_transform():
    linear = np.array([[1.5, 0.25], [-0.5, 2.0]])
    offset = np.array([3.0, -1.0])
    src = np.array([[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]])
    dst = src @ linear + offset
    m = affine_map(src, dst)
    probe = np.array([[2.0, 2.0], [-1.0, 3.5], [0.3, 0.7]])
    mapped = np.column_stack([probe, np.ones(3)]) @ m
    assert np.max(np.abs(mapped - (probe @ linear + offset))) < 1e-9


def test_affine_map_rejects_degenerate_triangles():
    flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(GeometryError):
        affine_map(flat, flat + 1.0)  # not bit-identical, hits the solver
    with pytest.raises(GeometryError):
        affine_map(np.zeros((2, 2)), np.zeros((3, 2)))


def test_affine_map_solves_a_stack_like_single_triples():
    rng = np.random.default_rng(5)
    src = rng.uniform(-5.0, 5.0, size=(6, 3, 2))
    dst = rng.uniform(-5.0, 5.0, size=(6, 3, 2))
    dst[2] = src[2]
    # a bit-identical pair keeps the identity shortcut even when degenerate
    src[4] = dst[4] = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    maps = affine_map(src, dst)
    assert maps.shape == (6, 3, 2)
    for k in range(6):
        assert np.array_equal(maps[k], affine_map(src[k], dst[k]))
    identity = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(maps[2], identity)
    assert np.array_equal(maps[4], identity)
    dst[4] = dst[4] + 1.0
    with pytest.raises(GeometryError):
        affine_map(src, dst)
    with pytest.raises(GeometryError):
        affine_map(src, dst[:5])


def reference_warp(src_image, src_points, dst_points, tri):
    """Triangle-by-triangle warp: each triangle solves its own inverse map,
    tests the pixel centers of its bounding-box window and claims those no
    lower-index triangle took. Returns (pixels, owner, hits)."""
    height, width = src_image.shape
    pixels = np.zeros((height, width))
    owner = np.full((height, width), -1, dtype=np.int64)
    hits = np.zeros((height, width), dtype=np.int64)
    for index, triple in enumerate(tri.triangles):
        dst = dst_points[triple]
        src = src_points[triple]
        if np.array_equal(dst, src):
            inverse = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        else:
            inverse = np.linalg.solve(np.column_stack([dst, np.ones(3)]), src)
        x_lo = max(int(math.floor(dst[:, 0].min())), 0)
        x_hi = min(int(math.ceil(dst[:, 0].max())), width - 1)
        y_lo = max(int(math.floor(dst[:, 1].min())), 0)
        y_hi = min(int(math.ceil(dst[:, 1].max())), height - 1)
        ys, xs = np.mgrid[y_lo : y_hi + 1, x_lo : x_hi + 1].astype(np.float64)
        e1 = dst[1] - dst[0]
        e2 = dst[2] - dst[0]
        det = e1[0] * e2[1] - e1[1] * e2[0]
        rx = xs - dst[0, 0]
        ry = ys - dst[0, 1]
        u = (rx * e2[1] - ry * e2[0]) / det
        v = (ry * e1[0] - rx * e1[1]) / det
        inside = (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1.0 + 1e-9)
        claim = inside & (owner[y_lo : y_hi + 1, x_lo : x_hi + 1] < 0)
        px, py = xs[claim], ys[claim]
        sxy = np.column_stack([px, py, np.ones_like(px)]) @ inverse
        iy, ix = py.astype(np.int64), px.astype(np.int64)
        pixels[iy, ix] = _bilinear(src_image, sxy[:, 0], sxy[:, 1])
        owner[iy, ix] = index
        hits[iy, ix] += 1
    return pixels, owner, hits


def warp_geometries(size, rng):
    """(image, src points, dst points): face landmarks, uniform random
    points, and a jittered source onto an integer mesh whose triangle edges
    run through pixel centers."""
    cfg = SynthConfig(image_size=size)
    border = border_points(size, size)
    for k in range(4):
        a = render(make_identity(size, 2 * k, cfg), (size, k, 0), cfg)
        b = render(make_identity(size, 2 * k + 1, cfg), (size, k, 1), cfg)
        src = np.vstack([a.landmarks, border])
        yield a.pixels, src, np.vstack([0.5 * (a.landmarks + b.landmarks), border])
        yield a.pixels, src, np.vstack([rng.uniform(1.0, size - 2.0, a.landmarks.shape),
                                        border])
        step = size // 4
        mesh = np.array([[x, y] for x in range(step, size - 1, step)
                         for y in range(step, size - 1, step)], dtype=np.float64)
        jitter = mesh + rng.uniform(-1.0, 1.0, mesh.shape)
        yield a.pixels, np.vstack([jitter, border]), np.vstack([mesh, border])


@pytest.mark.parametrize("size", [16, 32])
def test_batched_warp_matches_the_per_triangle_loop(size):
    rng = np.random.default_rng(size)
    for image, src, dst in warp_geometries(size, rng):
        tri = triangulate(dst)
        pixels, owner, hits = reference_warp(image, src, dst, tri)
        acc = warp_image(image, src, dst, tri)
        assert np.array_equal(acc.pixels, pixels)
        assert np.array_equal(acc.owner, owner)
        assert np.array_equal(acc.hits, hits)
        assert np.all(acc.hits == 1)


def test_stacked_call_claims_like_sequential_calls():
    image = np.arange(64.0).reshape(8, 8) / 64.0
    half = np.array([[-0.5, -0.5], [7.5, -0.5], [-0.5, 7.5]])
    whole = np.array([[-0.5, -0.5], [15.5, -0.5], [-0.5, 15.5]])
    src = np.stack([half + [0.25, 0.5], 0.5 * whole])
    dst = np.stack([half, whole])

    def claimed_row_zero():
        acc = WarpAccumulator.zeros(8, 8)
        acc.pixels[0] = 7.0
        acc.owner[0] = 5
        return acc

    sequential = claimed_row_zero()
    written = sum(warp_affine_triangle(image, src[k], dst[k], sequential, k) for k in (0, 1))
    stacked = claimed_row_zero()
    assert warp_affine_triangle(image, src, dst, stacked, np.array([0, 1])) == written == 56
    assert np.array_equal(stacked.pixels, sequential.pixels)
    assert np.array_equal(stacked.owner, sequential.owner)
    assert np.array_equal(stacked.hits, sequential.hits)
    # the lower index wins the overlap; the earlier claim is never overwritten
    ys, xs = np.mgrid[0:8, 0:8]
    in_half = xs + ys <= 7
    assert np.all(stacked.owner[1:][in_half[1:]] == 0)
    assert np.all(stacked.owner[1:][~in_half[1:]] == 1)
    assert np.all(stacked.owner[0] == 5) and np.all(stacked.pixels[0] == 7.0)
    assert np.all(stacked.hits[0] == 0) and np.all(stacked.hits[1:] == 1)
    # in reverse order the covering triangle claims every free pixel
    reverse = claimed_row_zero()
    assert warp_affine_triangle(image, src[::-1], dst[::-1], reverse, 0) == 56
    assert np.all(reverse.owner[1:] == 0)


def test_identity_warp_reproduces_the_image_exactly(face_pair):
    a, _ = face_pair
    pts = np.vstack([a.landmarks, border_points(16, 16)])
    tri = triangulate(pts)
    acc = warp_image(a.pixels, pts, pts, tri)
    assert np.array_equal(acc.pixels, a.pixels)
    assert np.all(acc.hits == 1)
    assert np.all(acc.owner >= 0)


def test_warp_partition_claims_every_pixel_exactly_once(face_pair):
    a, b = face_pair
    src = np.vstack([a.landmarks, border_points(16, 16)])
    dst = np.vstack([0.5 * (a.landmarks + b.landmarks), border_points(16, 16)])
    tri = triangulate(dst)
    acc = warp_image(a.pixels, src, dst, tri)
    assert np.all(acc.hits == 1)
    assert np.all(acc.owner >= 0)
    assert np.all(acc.owner < len(tri.triangles))
    # bilinear samples cannot leave the source value range
    assert acc.pixels.min() >= a.pixels.min() - 1e-12
    assert acc.pixels.max() <= a.pixels.max() + 1e-12


def test_warp_triangle_respects_prior_ownership():
    image = np.arange(64.0).reshape(8, 8) / 64.0
    big = np.array([[-0.5, -0.5], [7.5, -0.5], [-0.5, 7.5]])
    acc = WarpAccumulator.zeros(8, 8)
    first = warp_affine_triangle(image, big, big, acc, tri_index=0)
    assert first > 0
    before = acc.pixels.copy()
    second = warp_affine_triangle(image, big, big, acc, tri_index=1)
    assert second == 0
    assert np.array_equal(acc.pixels, before)
    assert not np.any(acc.owner == 1)


def test_warp_image_rejects_mismatched_point_sets(face_pair):
    a, _ = face_pair
    pts = np.vstack([a.landmarks, border_points(16, 16)])
    tri = triangulate(pts)
    with pytest.raises(TopologyError):
        warp_image(a.pixels, pts[:-1], pts, tri)


def test_morph_landmarks_are_the_exact_midpoint(face_pair):
    a, b = face_pair
    result = morph_landmark(a, b)
    assert np.max(np.abs(result.landmarks - 0.5 * (a.landmarks + b.landmarks))) <= 1e-12
    assert result.kind == KIND_MORPH_LM
    assert (result.id_first, result.id_second) == (0, 1)
    assert result.pixels.min() >= 0.0 and result.pixels.max() <= 1.0


def test_morph_landmarks_respect_custom_alpha(face_pair):
    a, b = face_pair
    result = morph_landmark(a, b, MorphConfig(blend_alpha=0.3))
    expected = 0.7 * a.landmarks + 0.3 * b.landmarks
    assert np.max(np.abs(result.landmarks - expected)) <= 1e-12


def test_morph_of_an_image_with_itself_reproduces_it(face_pair):
    a, _ = face_pair
    result = morph_landmark(a, a)
    interior = np.abs(result.pixels - a.pixels)[1:-1, 1:-1]
    assert interior.max() <= 1e-9
    assert np.array_equal(result.pixels, a.pixels)
    assert result.kind == KIND_SELFMORPH_LM


def test_morph_landmark_rejects_mismatched_inputs(face_pair):
    a, b = face_pair
    clipped = type(a)(b.pixels, b.landmarks[:-1], b.identity_id)
    with pytest.raises(TopologyError):
        morph_landmark(a, clipped)
    small = type(a)(b.pixels[:-1, :], b.landmarks, b.identity_id)
    with pytest.raises(TopologyError):
        morph_landmark(a, small)


def test_morph_latent_matches_the_interpolated_render():
    from morphdet.synthfaces import latent_interpolate

    a = make_identity(0, 0, CFG)
    b = make_identity(0, 1, CFG)
    seed = (9, 9, 9, 0)
    result = morph_latent(a, b, seed, MorphConfig(), CFG)
    _, face = latent_interpolate(a, b, 0.5, seed, CFG)
    assert np.array_equal(result.pixels, face.pixels)
    assert np.array_equal(result.landmarks, face.landmarks)
    assert result.kind == KIND_MORPH_LATENT
    same = morph_latent(a, a, seed, MorphConfig(), CFG)
    assert same.kind == KIND_SELFMORPH_LATENT


def test_selfmorph_kinds_and_latent_freshness(face_pair):
    a, _ = face_pair
    a2 = render(make_identity(0, 0, CFG), (0, 0, 1), CFG)
    lm = morph_landmark(a, a2)
    assert lm.kind == KIND_SELFMORPH_LM
    assert lm.id_first == lm.id_second == 0
    ident = make_identity(0, 0, CFG)
    seed = (4, 4, 4, 0)
    lat = morph_latent(ident, ident, seed, synth_config=CFG)
    assert lat.kind == KIND_SELFMORPH_LATENT
    assert lat.id_first == lat.id_second == 0
    # identical latents interpolate to themselves, so the output is simply a
    # fresh render of the identity under the given seed
    fresh = render(ident, seed, CFG)
    assert np.max(np.abs(lat.pixels - fresh.pixels)) <= 1e-9


def test_morph_config_validation():
    with pytest.raises(RangeError):
        MorphConfig(blend_alpha=0.0)
    with pytest.raises(RangeError):
        MorphConfig(blend_alpha=1.0)
    assert MorphConfig(blend_alpha=0.25).blend_alpha == 0.25


def test_morph_counts_ratio():
    assert morph_counts(10) == (10, 5)
    assert morph_counts(7) == (7, 3)
    assert morph_counts(0) == (0, 0)


def test_generated_corpus_structure(tiny_corpus):
    rows = tiny_corpus.morph_rows
    n_bona = len(tiny_corpus.dataset_rows)
    n_cross, n_self = morph_counts(n_bona)
    by_kind = {}
    for rel, id_first, id_second, kind in rows:
        by_kind.setdefault(kind, []).append((rel, id_first, id_second))
    assert len(by_kind[KIND_MORPH_LM]) == n_cross
    assert len(by_kind[KIND_MORPH_LATENT]) == n_cross
    assert len(by_kind[KIND_SELFMORPH_LM]) == n_self
    assert len(by_kind[KIND_SELFMORPH_LATENT]) == n_self
    for job, (rel, id_first, id_second, kind) in enumerate(rows):
        assert rel == morph_relpath(kind, job, id_first, id_second)
        if kind in (KIND_SELFMORPH_LM, KIND_SELFMORPH_LATENT):
            assert id_first == id_second
        else:
            assert id_first != id_second
        pixels = read_pgm(f"{tiny_corpus.root}/{rel}")
        assert pixels.shape == (16, 16)
        lms = read_landmarks(f"{tiny_corpus.root}/{rel}.lms")
        assert np.all(lms >= 0.0) and np.all(lms <= 15.0)
    # the same cross pairs serve both families
    lm_pairs = [(i, j) for _, i, j in by_kind[KIND_MORPH_LM]]
    latent_pairs = [(i, j) for _, i, j in by_kind[KIND_MORPH_LATENT]]
    assert lm_pairs == latent_pairs == list(tiny_corpus.cross_pairs)


def _small_corpus_inputs(root):
    from morphdet.datamine import plan_morph_pairs, split_identities
    from morphdet.synthfaces import build_identities

    generate_dataset(root, 6, 4, 2, CFG)
    identities = build_identities(6, 4, CFG)
    plan = split_identities([i.identity_id for i in identities], 6)
    return identities, plan_morph_pairs(plan, 4, 6)


def test_morph_corpus_rerun_is_byte_identical(tmp_path):
    digests = []
    for name in ("a", "b"):
        root = tmp_path / name
        identities, pairs = _small_corpus_inputs(root)
        rows = generate_morph_corpus(root, 6, identities, pairs, 2,
                                     synth_config=CFG)
        blob = (root / "morphs.tsv").read_bytes()
        for rel, _, _, _ in rows:
            blob += (root / rel).read_bytes() + (root / (rel + ".lms")).read_bytes()
        digests.append(blob)
    assert digests[0] == digests[1]


def test_morph_corpus_needs_two_images_per_identity(tmp_path):
    root = tmp_path / "c"
    generate_dataset(root, 1, 3, 1, CFG)
    from morphdet.synthfaces import build_identities

    idents = build_identities(1, 3, CFG)
    with pytest.raises(DataError, match="at least 2"):
        generate_morph_corpus(root, 1, idents, [(0, 1)], 1, synth_config=CFG)


def test_a_latent_corpus_reads_no_dataset_image(tmp_path):
    """Latent morphs and selfmorphs render from the identity models alone,
    so a dataset whose images are gone yields the same corpus."""
    import shutil

    identities, pairs = _small_corpus_inputs(tmp_path)
    rows = generate_morph_corpus(tmp_path, 6, identities, pairs, 2,
                                 families=(LATENT_FAMILY,), synth_config=CFG)
    assert {kind for *_, kind in rows} == {KIND_MORPH_LATENT, KIND_SELFMORPH_LATENT}
    written = {rel: (tmp_path / rel).read_bytes() for rel, *_ in rows}
    shutil.rmtree(tmp_path / "images")
    assert generate_morph_corpus(tmp_path, 6, identities, pairs, 2,
                                 families=(LATENT_FAMILY,), synth_config=CFG) == rows
    assert {rel: (tmp_path / rel).read_bytes() for rel in written} == written


def test_a_landmark_corpus_reads_two_images_per_job(tmp_path, monkeypatch):
    identities, pairs = _small_corpus_inputs(tmp_path)
    reads = []
    monkeypatch.setattr(morphgen, "read_pgm", lambda path: reads.append(path) or read_pgm(path))
    rows = generate_morph_corpus(tmp_path, 6, identities, pairs, 2,
                                 families=(LANDMARK_FAMILY,), synth_config=CFG)
    n_cross, n_self = morph_counts(len(pairs))
    assert len(rows) == n_self + n_cross
    assert len(reads) == 2 * (n_self + n_cross)
    # a selfmorph blends two distinct views of its identity
    for (rel, id_first, id_second, kind), pair in zip(rows, zip(reads[::2], reads[1::2])):
        assert all(f"/id{i:04d}_" in path for i, path in zip((id_first, id_second), pair))
        if kind == KIND_SELFMORPH_LM:
            assert pair[0] != pair[1]


def test_a_cross_pair_of_one_identity_draws_like_a_cross_pair(tmp_path):
    """A job's place in the job list, not its two ids, says how it draws its
    views: a cross pair whose ids are equal keeps its two integer draws."""
    from morphdet.seeding import MORPH_JOB_STREAM, derive_rng

    identities, _ = _small_corpus_inputs(tmp_path)
    pairs = [(0, 1), (2, 2)]
    rows = generate_morph_corpus(tmp_path, 6, identities, pairs, 2,
                                 families=(LANDMARK_FAMILY,), synth_config=CFG)
    assert [kind for *_, kind in rows] == [KIND_SELFMORPH_LM, KIND_MORPH_LM, KIND_SELFMORPH_LM]
    job = 2
    rng = derive_rng(6, MORPH_JOB_STREAM, job)
    views = int(rng.integers(2)), int(rng.integers(2))
    a, b = (morphgen._load_face(str(tmp_path), 2, v) for v in views)
    write_pgm(tmp_path / "expected.pgm", morph_landmark(a, b).pixels)
    assert (tmp_path / rows[job][0]).read_bytes() == (tmp_path / "expected.pgm").read_bytes()
