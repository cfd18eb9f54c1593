"""File I/O: binary graymaps, landmark sidecars, and the one text reader and
one atomic writer that every other artifact goes through.

Images are stored as 8-bit binary PGM; in memory they are float64 arrays in
[0, 1] (read_pgm), or their uint8 pixels (read_pgm_bytes). Landmarks travel
in a text sidecar next to the image (same path plus ".lms"): one "x y" line
per landmark, full float precision.

write_file writes a temporary file beside its target and renames it into
place, so an interrupted command leaves the earlier file or none, never a
truncated one. Images and sidecars are plain writes: a corpus has thousands,
and its manifest, written last, records that they are complete.
remove_files is the one place that deletes artifacts: an earlier run's
outputs that a command will not rewrite.
"""

import contextlib
import glob
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
    """Pixels of a binary PGM as float64 intensities in [0, 1]."""
    return read_pgm_bytes(path).astype(np.float64) / 255.0


def read_pgm_bytes(path) -> np.ndarray:
    """The (h, w) uint8 pixels of a binary PGM with maxval 255."""
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
    try:
        w, h, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:  # int() refuses more than 4300 digits
        raise DataError(f"{path}: PGM header field too long") from exc
    if w == 0 or h == 0:
        raise DataError(f"{path}: empty {w}x{h} image")
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    data = raw[offset : offset + w * h]
    if len(data) != w * h:
        raise DataError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


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


def read_lines(path, what: str, encoding: str = "utf-8"):
    """The non-blank lines of a text file, without their newlines."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not {encoding.upper()} text: {exc}") from exc


def read_table(path, what: str, columns: int):
    """The tab-separated rows of a text file, each exactly `columns` fields."""
    rows = []
    for line in read_lines(path, what):
        fields = line.split("\t")
        if len(fields) != columns:
            raise DataError(f"{path}: malformed {what} line {line!r}")
        rows.append(fields)
    return rows


def write_file(path, chunks) -> None:
    """Write str (UTF-8) or bytes-like chunks, in turn, to path atomically.

    The chunks go to `<path>.tmp` in the same directory, which then replaces
    path; on any exception the temporary file is removed and path is left as
    it was. Chunks are never joined, so a large file needs no second copy.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def remove_files(directory, patterns) -> None:
    """Remove the files of directory whose names match any of the glob
    patterns, so that no earlier run's output can pass as a later one's."""
    for pattern in patterns:
        for path in glob.glob(os.path.join(glob.escape(os.fspath(directory)), pattern)):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def write_landmarks(path, landmarks: np.ndarray) -> None:
    landmarks = np.asarray(landmarks, dtype=np.float64)
    if landmarks.ndim != 2 or landmarks.shape[1] != 2:
        raise DataError(f"expected (K, 2) landmarks, got shape {landmarks.shape}")
    lines = [f"{x:.17g} {y:.17g}" for x, y in landmarks]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_landmarks(path) -> np.ndarray:
    rows = [line.split() for line in read_lines(path, "landmark sidecar", "ascii")]
    if not rows or any(len(r) != 2 for r in rows):
        raise DataError(f"{path}: malformed landmark sidecar")
    try:
        landmarks = np.array([[float(x), float(y)] for x, y in rows], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric landmark coordinate: {exc}") from exc
    if not np.all(np.isfinite(landmarks)):
        raise DataError(f"{path}: non-finite landmark coordinate")
    return landmarks


def landmark_path(image_path) -> str:
    return os.fspath(image_path) + LANDMARK_SUFFIX
