"""PGM and landmark sidecar round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphdet.errors import DataError, NumericError
from morphdet.pgm import (
    landmark_path,
    read_landmarks,
    read_pgm,
    write_landmarks,
    write_pgm,
)


def test_quantized_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.uniform(size=(9, 7))
    path = tmp_path / "img.pgm"
    write_pgm(path, pixels)
    back = read_pgm(path)
    assert back.shape == (9, 7)
    # 8-bit quantization: worst case half a level
    assert np.max(np.abs(back - pixels)) <= 0.5 / 255.0 + 1e-12


def test_exact_round_trip_on_8bit_grid(tmp_path):
    levels = np.arange(256, dtype=np.float64) / 255.0
    pixels = levels.reshape(16, 16)
    path = tmp_path / "grid.pgm"
    write_pgm(path, pixels)
    assert np.array_equal(read_pgm(path), pixels)


def test_write_is_deterministic(tmp_path):
    pixels = np.random.default_rng(0).uniform(size=(5, 5))
    write_pgm(tmp_path / "a.pgm", pixels)
    write_pgm(tmp_path / "b.pgm", pixels)
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_values_clip_to_unit_interval(tmp_path):
    path = tmp_path / "clip.pgm"
    write_pgm(path, np.array([[-0.5, 1.5], [0.0, 1.0]]))
    back = read_pgm(path)
    assert back.min() == 0.0 and back.max() == 1.0


def test_comment_lines_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + body)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert np.array_equal(img, np.frombuffer(body, np.uint8).reshape(2, 3) / 255.0)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\nx")
    with pytest.raises(DataError):
        read_pgm(path)


def test_truncated_data_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(DataError):
        read_pgm(path)


@pytest.mark.parametrize("header", [b"P5\nx 4\n255\n", b"P5\n4 4.0\n255\n",
                                    b"P5\n4 4\n-255\n", b"P5\n4 -4\n255\n"])
def test_non_integer_header_fields_rejected(tmp_path, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(DataError, match="non-integer"):
        read_pgm(path)


def test_missing_file_raises_data_error(tmp_path):
    with pytest.raises(DataError):
        read_pgm(tmp_path / "absent.pgm")
    with pytest.raises(DataError):
        read_landmarks(tmp_path / "absent.lms")


def test_non_finite_pixels_rejected(tmp_path):
    with pytest.raises(NumericError):
        write_pgm(tmp_path / "nan.pgm", np.array([[np.nan, 0.0]]))


def test_non_2d_rejected(tmp_path):
    with pytest.raises(DataError):
        write_pgm(tmp_path / "x.pgm", np.zeros(4))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False)), min_size=1, max_size=20))
def test_landmark_round_trip_is_exact(tmp_path_factory, points):
    path = tmp_path_factory.mktemp("lms") / "p.lms"
    landmarks = np.array(points, dtype=np.float64)
    write_landmarks(path, landmarks)
    assert np.array_equal(read_landmarks(path), landmarks)


def test_landmark_shape_validated(tmp_path):
    with pytest.raises(DataError):
        write_landmarks(tmp_path / "x.lms", np.zeros((3, 3)))
    bad = tmp_path / "bad.lms"
    bad.write_text("1 2 3\n")
    with pytest.raises(DataError):
        read_landmarks(bad)


def test_landmark_path_appends_suffix():
    assert landmark_path("images/a.pgm") == "images/a.pgm.lms"
