"""Portable graymap (P5) and landmark sidecar I/O.

Images are stored as 8-bit binary PGM; in memory they are float64 arrays in
[0, 1]. Landmarks travel in a text sidecar next to the image (same path plus
".lms"): one "x y" line per landmark, full float precision.
"""

import os

import numpy as np

from .errors import DataError, NumericError

LANDMARK_SUFFIX = ".lms"


def write_pgm(path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2:
        raise DataError(f"expected 2-D grayscale image, got shape {pixels.shape}")
    if not np.all(np.isfinite(pixels)):
        raise NumericError(f"non-finite pixel values writing {path}")
    quant = np.rint(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = quant.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.tobytes())


def read_pgm(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc}") from exc
    tokens, offset = _header_tokens(raw, path)
    if tokens[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    if not all(t.isdigit() for t in tokens[1:4]):
        raise DataError(f"{path}: non-integer PGM header fields {tokens[1:4]!r}")
    w, h, maxval = (int(t) for t in tokens[1:4])
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    data = raw[offset : offset + w * h]
    if len(data) != w * h:
        raise DataError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).astype(np.float64) / 255.0


def _header_tokens(raw: bytes, path):
    """Collect the 4 header tokens (magic, w, h, maxval), skipping comments."""
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(raw):
            raise DataError(f"{path}: truncated PGM header")
        c = raw[i : i + 1]
        if c == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace():
                j += 1
            tokens.append(raw[i:j])
            i = j
    # exactly one whitespace byte separates the header from pixel data
    return tokens, i + 1


def write_landmarks(path, landmarks: np.ndarray) -> None:
    landmarks = np.asarray(landmarks, dtype=np.float64)
    if landmarks.ndim != 2 or landmarks.shape[1] != 2:
        raise DataError(f"expected (K, 2) landmarks, got shape {landmarks.shape}")
    lines = [f"{x:.17g} {y:.17g}" for x, y in landmarks]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_landmarks(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="ascii") as fh:
            rows = [line.split() for line in fh if line.strip()]
    except OSError as exc:
        raise DataError(f"cannot read landmarks {path}: {exc}") from exc
    if not rows or any(len(r) != 2 for r in rows):
        raise DataError(f"{path}: malformed landmark sidecar")
    return np.array([[float(x), float(y)] for x, y in rows], dtype=np.float64)


def landmark_path(image_path) -> str:
    return os.fspath(image_path) + LANDMARK_SUFFIX
