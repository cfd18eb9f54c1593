"""Procedural generator of identity-conditioned synthetic face images.

Each identity is a unit latent vector; fixed random projections map the
latent to a landmark layout (geometry) and an intensity palette (texture), so
interpolating latents interpolates both kinds of identity evidence. Renders
add per-image pose/landmark jitter and pixel noise, all bounded so tests can
assert hard drift limits.

Images are square grayscale float64 grids in [0, 1] with K = 13 landmarks in
a fixed semantic order. Everything is a pure function of (seed, config).
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GeometryError, RangeError
from .pgm import landmark_path, read_table, write_file, write_landmarks, write_pgm
from .seeding import IDENTITY_STREAM, RENDER_STREAM, STYLE_BASIS_STREAM, derive_rng

LANDMARK_NAMES = (
    "left_eye",
    "right_eye",
    "left_brow",
    "right_brow",
    "nose",
    "mouth_left",
    "mouth_right",
    "chin",
    "left_cheek",
    "right_cheek",
    "forehead",
    "left_jaw",
    "right_jaw",
)
LANDMARK_COUNT = len(LANDMARK_NAMES)

# canonical layout in normalized face coordinates (x, y), y down
_BASE_LAYOUT = np.array(
    [
        [0.35, 0.40],
        [0.65, 0.40],
        [0.33, 0.29],
        [0.67, 0.29],
        [0.50, 0.55],
        [0.38, 0.71],
        [0.62, 0.71],
        [0.50, 0.87],
        [0.26, 0.57],
        [0.74, 0.57],
        [0.50, 0.17],
        [0.31, 0.79],
        [0.69, 0.79],
    ]
)

_PALETTE_KEYS = (
    "background",
    "skin",
    "eye",
    "brow",
    "nose",
    "mouth",
    "head_rx",
    "head_ry",
    "eye_sigma",
    "mouth_sigma",
)
# (low, span) per palette entry; radii and sigmas are in normalized units
_PALETTE_RANGES = {
    "background": (0.06, 0.16),
    "skin": (0.42, 0.34),
    "eye": (0.04, 0.24),
    "brow": (0.08, 0.24),
    "nose": (0.30, 0.40),
    "mouth": (0.12, 0.30),
    "head_rx": (0.30, 0.07),
    "head_ry": (0.36, 0.07),
    "eye_sigma": (0.028, 0.014),
    "mouth_sigma": (0.030, 0.014),
}


@dataclass(frozen=True)
class SynthConfig:
    image_size: int = 32
    latent_dim: int = 16
    geometry_scale: float = 1.8  # max identity landmark offset, px
    pose_jitter: float = 1.0  # max global per-render shift, px
    landmark_jitter: float = 0.4  # max per-landmark per-render jitter, px
    pixel_noise: float = 0.02  # max additive intensity noise
    min_latent_angle: float = 0.15  # radians; pairwise floor across a dataset

    def __post_init__(self):
        if self.image_size < 16:
            raise RangeError("image_size must be at least 16")
        if self.latent_dim < 2:
            raise RangeError("latent_dim must be at least 2")
        if min(self.geometry_scale, self.pose_jitter, self.landmark_jitter,
               self.pixel_noise, self.min_latent_angle) < 0:
            raise RangeError("synthesis parameters must be nonnegative")

    @property
    def render_drift_bound(self) -> float:
        """Hard per-coordinate bound on landmark drift between two renders."""
        return 2.0 * (self.pose_jitter + self.landmark_jitter)


@dataclass(frozen=True)
class IdentityModel:
    identity_id: int
    latent: np.ndarray  # unit vector, shape (latent_dim,)
    landmarks: np.ndarray  # canonical jitter-free layout, shape (K, 2), px
    palette: dict  # intensity/shape parameters, all derived from the latent


@dataclass
class FaceImage:
    pixels: np.ndarray  # (H, W) float64 in [0, 1]
    landmarks: np.ndarray  # (K, 2) pixel coordinates (x, y)
    identity_id: int  # -1 for cross-identity morphs


_style_basis_cache = {}


def _style_basis(latent_dim: int):
    """Fixed projection matrices latent -> (geometry offsets, palette logits).

    Frozen per latent_dim; part of the generator definition, not of any
    particular dataset.
    """
    key = int(latent_dim)
    if key not in _style_basis_cache:
        rng = derive_rng(STYLE_BASIS_STREAM, key)
        geo = rng.normal(size=(2 * LANDMARK_COUNT, key)) / math.sqrt(key)
        pal = rng.normal(size=(len(_PALETTE_KEYS), key)) * 2.0 / math.sqrt(key)
        _style_basis_cache[key] = (geo, pal)
    return _style_basis_cache[key]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def model_from_latent(latent: np.ndarray, identity_id: int, config: SynthConfig) -> IdentityModel:
    """Derive the full identity model (geometry + palette) from a unit latent."""
    latent = np.asarray(latent, dtype=np.float64)
    if latent.shape != (config.latent_dim,):
        raise RangeError(f"latent shape {latent.shape} != ({config.latent_dim},)")
    geo_basis, pal_basis = _style_basis(config.latent_dim)
    offsets = np.tanh(geo_basis @ latent).reshape(LANDMARK_COUNT, 2) * config.geometry_scale
    size = config.image_size
    landmarks = np.clip(_BASE_LAYOUT * size + offsets, 1.0, size - 2.0)
    raw = _sigmoid(pal_basis @ latent)
    palette = {
        key: _PALETTE_RANGES[key][0] + _PALETTE_RANGES[key][1] * raw[i]
        for i, key in enumerate(_PALETTE_KEYS)
    }
    return IdentityModel(int(identity_id), latent, landmarks, palette)


def make_identity(seed: int, identity_id: int, config: SynthConfig = SynthConfig()) -> IdentityModel:
    """Deterministically sample an identity latent on the unit sphere."""
    rng = derive_rng(seed, IDENTITY_STREAM, identity_id)
    while True:
        z = rng.normal(size=config.latent_dim)
        norm = float(np.linalg.norm(z))
        if norm > 1e-8:
            break
    return model_from_latent(z / norm, identity_id, config)


def pairwise_min_angle(latents) -> float:
    """Smallest pairwise angle (radians) among unit latents."""
    mat = np.asarray(latents, dtype=np.float64)
    if mat.shape[0] < 2:
        return math.pi
    cos = np.clip(mat @ mat.T, -1.0, 1.0)
    np.fill_diagonal(cos, -1.0)
    return float(np.arccos(np.max(cos)))


def _grid(size: int):
    ys, xs = np.mgrid[0:size, 0:size]
    return xs.astype(np.float64), ys.astype(np.float64)


def _blob(xs, ys, cx, cy, sigma_px, intensity, image):
    w = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma_px**2))
    return image * (1.0 - w) + w * intensity


def render(identity: IdentityModel, variation_seed, config: SynthConfig = SynthConfig()) -> FaceImage:
    """Render one image of an identity.

    variation_seed may be an int or a tuple of ints; it controls pose shift,
    per-landmark jitter, and pixel noise (in that fixed draw order), nothing
    else. With all jitter amplitudes zero the render is seed-independent.
    """
    if isinstance(variation_seed, (tuple, list)):
        rng = derive_rng(RENDER_STREAM, *variation_seed)
    else:
        rng = derive_rng(RENDER_STREAM, variation_seed)
    size = config.image_size
    shift = rng.uniform(-config.pose_jitter, config.pose_jitter, size=2)
    jitter = rng.uniform(-config.landmark_jitter, config.landmark_jitter,
                         size=(LANDMARK_COUNT, 2))
    landmarks = np.clip(identity.landmarks + shift + jitter, 1.0, size - 2.0)

    pal = identity.palette
    xs, ys = _grid(size)
    cx = 0.5 * size + shift[0]
    cy = 0.53 * size + shift[1]
    q = ((xs - cx) / (pal["head_rx"] * size)) ** 2 + ((ys - cy) / (pal["head_ry"] * size)) ** 2
    head = 1.0 / (1.0 + np.exp(-6.0 * (1.0 - q)))
    image = pal["background"] + (pal["skin"] - pal["background"]) * head

    eye_sigma = pal["eye_sigma"] * size
    mouth_sigma = pal["mouth_sigma"] * size
    lm = {name: landmarks[i] for i, name in enumerate(LANDMARK_NAMES)}
    image = _blob(xs, ys, *lm["left_eye"], eye_sigma, pal["eye"], image)
    image = _blob(xs, ys, *lm["right_eye"], eye_sigma, pal["eye"], image)
    image = _blob(xs, ys, *lm["left_brow"], 0.9 * eye_sigma, pal["brow"], image)
    image = _blob(xs, ys, *lm["right_brow"], 0.9 * eye_sigma, pal["brow"], image)
    image = _blob(xs, ys, *lm["nose"], 1.1 * eye_sigma, pal["nose"], image)
    image = _blob(xs, ys, *lm["mouth_left"], mouth_sigma, pal["mouth"], image)
    image = _blob(xs, ys, *lm["mouth_right"], mouth_sigma, pal["mouth"], image)
    mouth_mid = 0.5 * (lm["mouth_left"] + lm["mouth_right"])
    image = _blob(xs, ys, mouth_mid[0], mouth_mid[1], 1.2 * mouth_sigma, pal["mouth"], image)
    # low-contrast structural blobs make the outline geometry visible in pixels
    shade = 0.92 * pal["skin"]
    for name in ("chin", "left_cheek", "right_cheek", "forehead", "left_jaw", "right_jaw"):
        image = _blob(xs, ys, *lm[name], 1.3 * eye_sigma, shade, image)

    noise = rng.uniform(-config.pixel_noise, config.pixel_noise, size=(size, size))
    image = np.clip(image + noise, 0.0, 1.0)
    return FaceImage(image, landmarks, identity.identity_id)


def latent_interpolate(a: IdentityModel, b: IdentityModel, alpha: float,
                       variation_seed, config: SynthConfig = SynthConfig()):
    """Blend two identities in latent space and render the result.

    Returns (interpolated latent, FaceImage). Endpoints alpha = 0 / 1
    reproduce the corresponding identity's render exactly.
    """
    if not 0.0 <= alpha <= 1.0:
        raise RangeError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        latent = a.latent.copy()
        ident = a
    elif alpha == 1.0:
        latent = b.latent.copy()
        ident = b
    else:
        mixed = (1.0 - alpha) * a.latent + alpha * b.latent
        norm = float(np.linalg.norm(mixed))
        if norm < 1e-6:
            raise GeometryError("near-antipodal latents give a degenerate interpolation")
        latent = mixed / norm
        ident = model_from_latent(latent, -1, config)
    return latent, render(ident, variation_seed, config)


# ---------------------------------------------------------------------------
# Dataset generation
#
# Manifest: one line per image, "relative_path<TAB>identity_id<TAB>kind".
# Each image gets a ".lms" landmark sidecar. Images are 8-bit P5 graymaps.
# ---------------------------------------------------------------------------

DATASET_MANIFEST = "manifest.tsv"
IMAGE_DIR = "images"


def image_relpath(identity_id: int, variation: int) -> str:
    return f"{IMAGE_DIR}/id{identity_id:04d}_v{variation:03d}.pgm"


def build_identities(seed: int, count: int, config: SynthConfig):
    """All identity models for a dataset, with the pairwise-angle floor enforced."""
    if count < 1:
        raise RangeError("need at least one identity")
    identities = [make_identity(seed, i, config) for i in range(count)]
    angle = pairwise_min_angle([ident.latent for ident in identities])
    if angle <= config.min_latent_angle:
        raise DataError(
            f"identity latents too close: min pairwise angle {angle:.4f} rad "
            f"<= floor {config.min_latent_angle}"
        )
    return identities


def generate_dataset(out_root, seed: int, n_identities: int, images_per_identity: int,
                     config: SynthConfig = SynthConfig()):
    """Render the bona fide corpus to disk; returns the manifest rows.

    Pure function of (seed, n_identities, images_per_identity, config):
    reruns produce byte-identical files.
    """
    if images_per_identity < 1:
        raise RangeError("images_per_identity must be >= 1")
    out_root = os.fspath(out_root)
    os.makedirs(os.path.join(out_root, IMAGE_DIR), exist_ok=True)
    identities = build_identities(seed, n_identities, config)
    rows = []
    for ident in identities:
        for v in range(images_per_identity):
            face = render(ident, (seed, ident.identity_id, v), config)
            rel = image_relpath(ident.identity_id, v)
            write_pgm(os.path.join(out_root, rel), face.pixels)
            write_landmarks(landmark_path(os.path.join(out_root, rel)), face.landmarks)
            rows.append((rel, ident.identity_id, "bonafide"))
    write_dataset_manifest(os.path.join(out_root, DATASET_MANIFEST), rows)
    return rows


def write_dataset_manifest(path, rows) -> None:
    write_file(path, (f"{rel}\t{identity_id}\t{kind}\n" for rel, identity_id, kind in rows))


def read_dataset_manifest(path):
    """Rows of (relative_path, identity_id, kind)."""
    rows = []
    for rel, identity, kind in read_table(path, "dataset manifest", 3):
        try:
            rows.append((rel, int(identity), kind))
        except ValueError as exc:
            raise DataError(f"{path}: non-integer identity {identity!r}") from exc
    return rows
