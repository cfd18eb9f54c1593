"""Landmark-based image morphing and selfmorph generation.

Pipeline for one landmark morph: average the two landmark sets, triangulate
the averaged set (plus 8 fixed border points) once, warp both source images
onto the averaged geometry with inverse affine maps and bilinear sampling,
then alpha-blend the warped images. Each warp is one batched pass over all
triangles: one stacked affine solve, one barycentric test of every pixel
center against each triangle whose bounding box holds it, one matrix
product for the source coordinates and one bilinear gather.

Latent-family morphs delegate to the generator's latent interpolation and
carry no warp artifacts at all.

A selfmorph is a morph of one identity with itself, and both morph
functions give a same-identity result its selfmorph kind. It is labeled
bona fide downstream, to stop detectors from keying on blend artifacts. A
landmark selfmorph blends two images of the identity; a latent selfmorph
is a fresh render of the identity's own latent, which interpolates to
itself, and reads no image.

Rasterization contract: destination pixels are partitioned among triangles.
A pixel center on a shared edge belongs to the lowest-index triangle in the
canonical ordering. Every pixel is written exactly once per warp.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GeometryError, RangeError, TopologyError
from .fusedloss import (
    FAMILY_OF_KIND,
    KIND_MORPH_LATENT,
    KIND_MORPH_LM,
    KIND_SELFMORPH_LATENT,
    KIND_SELFMORPH_LM,
    LANDMARK_FAMILY,
    LATENT_FAMILY,
)
from .pgm import (
    landmark_path, read_landmarks, read_pgm, read_table, write_file, write_landmarks, write_pgm,
)
from .seeding import MORPH_JOB_STREAM, derive_rng
from .synthfaces import FaceImage, IdentityModel, SynthConfig, image_relpath, latent_interpolate

MORPH_FAMILIES = (LANDMARK_FAMILY, LATENT_FAMILY)

_EDGE_EPS = 1e-9  # barycentric tolerance for the pixel-in-triangle test
_DUPLICATE_EPS = 1e-9


@dataclass(frozen=True)
class MorphConfig:
    blend_alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.blend_alpha < 1.0:
            raise RangeError(f"blend_alpha must be in (0, 1), got {self.blend_alpha}")


@dataclass(frozen=True)
class Triangulation:
    points: np.ndarray  # (N, 2)
    triangles: np.ndarray  # (T, 3) indices, canonically ordered


@dataclass
class MorphResult:
    pixels: np.ndarray
    landmarks: np.ndarray
    id_first: int
    id_second: int
    kind: str


def border_points(width: int, height: int) -> np.ndarray:
    """8 fixed frame points: corners and edge midpoints of the pixel rectangle.

    Placed half a pixel outside the outermost pixel centers so that every
    pixel center lies strictly inside the convex hull and the hull area is
    exactly width x height.
    """
    left, right = -0.5, width - 0.5
    top, bottom = -0.5, height - 0.5
    mid_x, mid_y = 0.5 * (left + right), 0.5 * (top + bottom)
    return np.array(
        [
            [left, top],
            [right, top],
            [left, bottom],
            [right, bottom],
            [mid_x, top],
            [mid_x, bottom],
            [left, mid_y],
            [right, mid_y],
        ]
    )


def triangle_areas(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = points[triangles[:, 0]]
    e1 = points[triangles[:, 1]] - p0
    e2 = points[triangles[:, 2]] - p0
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def triangulate(points) -> Triangulation:
    """Delaunay triangulation with a canonical triangle order.

    Vertex indices are sorted within each triangle and triangles sorted
    lexicographically, which pins down the "lowest triangle index" pixel
    tie rule.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"expected (N, 2) points, got {pts.shape}")
    if pts.shape[0] < 3:
        raise GeometryError("triangulation needs at least 3 points")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    if float(dist.min()) < _DUPLICATE_EPS:
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        raise GeometryError(f"duplicate points {i} and {j} make degenerate triangles")
    # imported here, by its one user: loading scipy.spatial is most of the
    # package's import time, which no command but gen-morphs should pay
    from scipy.spatial import Delaunay, QhullError

    try:
        tess = Delaunay(pts)
    except QhullError as exc:
        raise GeometryError(f"degenerate point set (collinear?): {exc}") from exc
    tris = np.sort(tess.simplices.astype(np.int64), axis=1)
    tris = tris[np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))]
    areas = triangle_areas(pts, tris)
    scale = float(dist[np.isfinite(dist)].max()) if np.isfinite(dist).any() else 1.0
    if np.any(areas <= 1e-12 * max(scale, 1.0) ** 2):
        raise GeometryError("degenerate (zero-area) triangle in triangulation")
    return Triangulation(pts, tris)


def affine_map(from_tri, to_tri) -> np.ndarray:
    """3x2 matrix M with [x, y, 1] @ M mapping from_tri vertices onto to_tri.

    Also maps two (T, 3, 2) stacks of triples to the (T, 3, 2) stack of
    matrices, solved in one stacked call. A map is the exact identity when
    its two triangles are bit-identical, so warps between equal geometries
    reproduce pixels exactly.
    """
    src = np.asarray(from_tri, dtype=np.float64)
    dst = np.asarray(to_tri, dtype=np.float64)
    if src.shape != dst.shape or src.ndim not in (2, 3) or src.shape[-2:] != (3, 2):
        raise GeometryError("affine_map expects two point triples or two stacks of them")
    stack_src = src.reshape(-1, 3, 2)
    stack_dst = dst.reshape(-1, 3, 2)
    maps = np.tile(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), (len(stack_src), 1, 1))
    moved = ~np.all(stack_src == stack_dst, axis=(1, 2))
    if moved.any():
        homogeneous = np.concatenate(
            [stack_src[moved], np.ones((int(moved.sum()), 3, 1))], axis=2)
        try:
            maps[moved] = np.linalg.solve(homogeneous, stack_dst[moved])
        except np.linalg.LinAlgError as exc:
            raise GeometryError(f"degenerate triangle, affine map undefined: {exc}") from exc
    return maps.reshape(src.shape)


@dataclass
class WarpAccumulator:
    pixels: np.ndarray  # (H, W) output buffer
    owner: np.ndarray  # (H, W) int64, claiming triangle index, -1 if unclaimed
    hits: np.ndarray  # (H, W) int64 write counts (exactly-once audit trail)

    @classmethod
    def zeros(cls, height: int, width: int) -> "WarpAccumulator":
        return cls(
            pixels=np.zeros((height, width)),
            owner=np.full((height, width), -1, dtype=np.int64),
            hits=np.zeros((height, width), dtype=np.int64),
        )


def _bilinear(image: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    h, w = image.shape
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    top = image[y0, x0] * (1.0 - fx) + image[y0, x1] * fx
    bot = image[y1, x0] * (1.0 - fx) + image[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def warp_affine_triangle(src_image, src_tri, dst_tri, acc: WarpAccumulator,
                         tri_index=0) -> int:
    """Fill the dst_tri pixels of the accumulator from src_image.

    src_tri and dst_tri are one (3, 2) point triple each, or two (T, 3, 2)
    stacks warped in one pass. tri_index is the owner index recorded for the
    triangle: a (T,) array for a stack, or a scalar that numbers the stack
    upward from itself. A pixel center is claimed by the first triangle in
    the stack that contains it, unless the accumulator already owns it;
    claimed pixels are inverse-mapped through their triangle's affine
    transform dst -> src and bilinearly sampled. Returns the number of
    pixels written.
    """
    dst = np.asarray(dst_tri, dtype=np.float64)
    inverse = affine_map(dst, src_tri).reshape(-1, 3, 2)
    dst = dst.reshape(-1, 3, 2)
    indices = np.asarray(tri_index, dtype=np.int64)
    if indices.ndim == 0:
        indices = indices + np.arange(len(dst))
    if indices.shape != (len(dst),):
        raise GeometryError(f"expected {len(dst)} triangle indices, got {indices.shape}")
    height, width = acc.owner.shape

    # candidate (pixel, triangle) pairs: every unclaimed pixel center in a
    # triangle's bounding box, pixel by pixel with triangles ascending
    lo = np.floor(dst.min(axis=1))
    hi = np.ceil(dst.max(axis=1))
    cols = np.arange(width)[:, None]
    rows = np.arange(height)[:, None]
    in_cols = (cols >= lo[:, 0]) & (cols <= hi[:, 0])
    in_rows = (rows >= lo[:, 1]) & (rows <= hi[:, 1])
    near = in_rows[:, None, :] & in_cols[None, :, :] & (acc.owner < 0)[:, :, None]
    pix, tri = np.divmod(np.flatnonzero(near), len(dst))

    # one barycentric inside test over all pairs
    e1 = dst[:, 1] - dst[:, 0]
    e2 = dst[:, 2] - dst[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(np.abs(det) < 1e-12):
        raise GeometryError("degenerate destination triangle")
    py, px = np.divmod(pix, width)
    rx = px - dst[tri, 0, 0]
    ry = py - dst[tri, 0, 1]
    u = (rx * e2[tri, 1] - ry * e2[tri, 0]) / det[tri]
    v = (ry * e1[tri, 0] - rx * e1[tri, 1]) / det[tri]
    inside = (u >= -_EDGE_EPS) & (v >= -_EDGE_EPS) & (u + v <= 1.0 + _EDGE_EPS)
    pix, tri = pix[inside], tri[inside]

    # a pixel's first inside pair is its lowest-index triangle, which claims it
    lead = np.flatnonzero(np.diff(pix, prepend=-1))
    pixel, first = pix[lead], tri[lead]
    iy, ix = np.divmod(pixel, width)

    # one product maps every claimed pixel through every triangle's inverse
    # map; each pixel then keeps the source point under its own triangle
    homogeneous = np.column_stack([ix, iy, np.ones(pixel.size)])
    mapped = homogeneous @ inverse.transpose(1, 0, 2).reshape(3, -1)
    sxy = mapped.reshape(pixel.size, len(dst), 2)[np.arange(pixel.size), first]
    values = _bilinear(np.asarray(src_image, dtype=np.float64), sxy[:, 0], sxy[:, 1])

    acc.pixels[iy, ix] = values
    acc.owner[iy, ix] = indices[first]
    acc.hits += np.bincount(pixel, minlength=height * width).reshape(height, width)
    return int(pixel.size)


def warp_image(src_image, src_points, dst_points, tri: Triangulation) -> WarpAccumulator:
    """Piecewise-affine warp of a full image onto dst geometry.

    All triangles go through warp_affine_triangle in one stacked call, in
    canonical order, so a pixel center on a shared edge goes to the
    lowest-index triangle. Raises if any pixel center ends up unclaimed;
    the hit mask then reads exactly 1 everywhere.
    """
    src_image = np.asarray(src_image, dtype=np.float64)
    src_points = np.asarray(src_points, dtype=np.float64)
    dst_points = np.asarray(dst_points, dtype=np.float64)
    if src_points.shape != dst_points.shape:
        raise TopologyError(
            f"point set shapes differ: {src_points.shape} vs {dst_points.shape}"
        )
    acc = WarpAccumulator.zeros(*src_image.shape)
    warp_affine_triangle(src_image, src_points[tri.triangles], dst_points[tri.triangles], acc)
    missed = int((acc.owner < 0).sum())
    if missed:
        raise TopologyError(f"warp left {missed} pixels uncovered")
    return acc


def morph_landmark(a: FaceImage, b: FaceImage,
                   config: MorphConfig = MorphConfig()) -> MorphResult:
    """Blend two face images over their averaged landmark geometry."""
    if a.landmarks.shape != b.landmarks.shape:
        raise TopologyError(
            f"landmark topology mismatch: {a.landmarks.shape} vs {b.landmarks.shape}"
        )
    if a.pixels.shape != b.pixels.shape:
        raise TopologyError(f"image shape mismatch: {a.pixels.shape} vs {b.pixels.shape}")
    alpha = config.blend_alpha
    target = (1.0 - alpha) * a.landmarks + alpha * b.landmarks
    height, width = a.pixels.shape
    border = border_points(width, height)
    dst_points = np.vstack([target, border])
    tri = triangulate(dst_points)
    warp_a = warp_image(a.pixels, np.vstack([a.landmarks, border]), dst_points, tri)
    warp_b = warp_image(b.pixels, np.vstack([b.landmarks, border]), dst_points, tri)
    pixels = np.clip((1.0 - alpha) * warp_a.pixels + alpha * warp_b.pixels, 0.0, 1.0)
    kind = KIND_SELFMORPH_LM if a.identity_id == b.identity_id else KIND_MORPH_LM
    return MorphResult(pixels, target, a.identity_id, b.identity_id, kind)


def morph_latent(a: IdentityModel, b: IdentityModel, variation_seed,
                 config: MorphConfig = MorphConfig(),
                 synth_config: SynthConfig = SynthConfig()) -> MorphResult:
    """Morph two identities by rendering their interpolated latent."""
    _, face = latent_interpolate(a, b, config.blend_alpha, variation_seed, synth_config)
    kind = KIND_SELFMORPH_LATENT if a.identity_id == b.identity_id else KIND_MORPH_LATENT
    return MorphResult(face.pixels, face.landmarks, a.identity_id, b.identity_id, kind)


# ---------------------------------------------------------------------------
# Morph corpus generation
#
# Manifest rows: relative_path<TAB>id_first<TAB>id_second<TAB>kind, where
# kind is one of morph-lm, morph-latent, selfmorph-lm, selfmorph-latent.
# Counts follow the 2:1:1:2:2 composition, bona fides being the 2-unit
# reference: per family, morphs match the bona fide count and selfmorphs
# are half of it.
# ---------------------------------------------------------------------------

MORPH_MANIFEST = "morphs.tsv"
MORPH_DIR = "morphs"


def morph_counts(n_bonafide: int):
    """(cross-identity morphs, selfmorphs) per family for a bona fide count."""
    return n_bonafide, n_bonafide // 2


def morph_relpath(kind: str, job: int, id_first: int, id_second: int) -> str:
    return f"{MORPH_DIR}/{kind}-{job:05d}-a{id_first:04d}-b{id_second:04d}.pgm"


def _load_face(root, identity_id, variation) -> FaceImage:
    path = os.path.join(root, image_relpath(identity_id, variation))
    return FaceImage(read_pgm(path), read_landmarks(landmark_path(path)), identity_id)


def generate_morph_corpus(root, seed: int, identities, cross_pairs,
                          images_per_identity: int,
                          families=MORPH_FAMILIES,
                          config: MorphConfig = MorphConfig(),
                          synth_config: SynthConfig = SynthConfig()):
    """Write the morph/selfmorph corpus next to an existing bona fide dataset.

    cross_pairs lists (id_first, id_second) identity pairs, one per
    cross-identity morph per family (the same pairs serve both families so
    family comparisons are like for like). Each family runs one job list:
    the selfmorphs first, as (i, i) with identities taken round-robin, then
    the cross pairs; the job number counts across families. A landmark job
    draws its two views from its own job stream, distinct ones for a
    selfmorph, and reads them from root; a latent job reads no image.
    Returns the manifest rows.
    """
    if images_per_identity < 2:
        raise DataError("selfmorphs need at least 2 images per identity")
    root = os.fspath(root)
    os.makedirs(os.path.join(root, MORPH_DIR), exist_ok=True)
    by_id = {ident.identity_id: ident for ident in identities}
    all_ids = sorted(by_id)
    _, n_self = morph_counts(len(cross_pairs))
    jobs = [(all_ids[j % len(all_ids)],) * 2 for j in range(n_self)] + list(cross_pairs)
    rows = []
    for family in families:
        if family not in MORPH_FAMILIES:
            raise RangeError(f"unknown morph family {family!r}")
        for slot, (id_first, id_second) in enumerate(jobs):
            job = len(rows)
            if family == LATENT_FAMILY:
                # 4-element seed tuples cannot collide with the 3-element bona
                # fide render seeds, whatever the identity numbering
                result = morph_latent(by_id[id_first], by_id[id_second],
                                      (seed, MORPH_JOB_STREAM, job, 0), config, synth_config)
            else:
                rng = derive_rng(seed, MORPH_JOB_STREAM, job)
                if slot < n_self:
                    views = rng.choice(images_per_identity, 2, replace=False)
                else:
                    views = rng.integers(images_per_identity), rng.integers(images_per_identity)
                result = morph_landmark(_load_face(root, id_first, int(views[0])),
                                        _load_face(root, id_second, int(views[1])), config)
            rel = morph_relpath(result.kind, job, result.id_first, result.id_second)
            write_pgm(os.path.join(root, rel), result.pixels)
            write_landmarks(landmark_path(os.path.join(root, rel)), result.landmarks)
            rows.append((rel, result.id_first, result.id_second, result.kind))
    write_morph_manifest(os.path.join(root, MORPH_MANIFEST), rows)
    return rows


def write_morph_manifest(path, rows) -> None:
    write_file(path, (f"{rel}\t{id_first}\t{id_second}\t{kind}\n"
                      for rel, id_first, id_second, kind in rows))


def read_morph_manifest(path):
    """Rows of (relative_path, id_first, id_second, kind)."""
    rows = []
    for rel, id_first, id_second, kind in read_table(path, "morph manifest", 4):
        if kind not in FAMILY_OF_KIND:
            raise DataError(f"{path}: unknown morph kind {kind!r}")
        try:
            rows.append((rel, int(id_first), int(id_second), kind))
        except ValueError as exc:
            raise DataError(f"{path}: non-integer identity pair "
                            f"{id_first!r}, {id_second!r}") from exc
    return rows
