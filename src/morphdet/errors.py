"""Shared exception types and process exit codes."""

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class MorphdetError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_DATA


class ConfigError(MorphdetError):
    """Bad configuration value or unusable invocation."""

    exit_code = EXIT_USAGE


class ShapeError(MorphdetError):
    """Array dimensions do not match the declared contract."""


class NumericError(MorphdetError):
    """Non-finite value where a finite one is required."""

    exit_code = EXIT_NUMERIC


class DataError(MorphdetError):
    """Missing or inconsistent dataset artifacts."""


class CoverageError(DataError):
    """A required identity or class has no usable samples."""


class GeometryError(MorphdetError):
    """Degenerate geometry: zero-area triangle, collinear points, zero latent."""


class TopologyError(MorphdetError):
    """Landmark topology mismatch between images."""


class RangeError(MorphdetError):
    """Scalar argument outside its documented range."""


class MetricError(MorphdetError):
    """Metric undefined for the given inputs (e.g. single-class score set)."""


class ProtocolError(MorphdetError):
    """Malformed, empty, or misaligned verification protocol."""
