"""Flat key=value run configuration with typed schema and CLI overrides.

Precedence: built-in defaults < config file < command-line flags. Every
command writes its fully resolved configuration next to its outputs so any
artifact can be regenerated from one file and one seed.
"""

from dataclasses import dataclass

from .errors import ConfigError
from .pgm import write_file

def _parse_int(text):
    try:
        return int(str(text).strip())
    except ValueError as exc:
        raise ConfigError(f"expected integer, got {text!r}") from exc


def _parse_float(text):
    try:
        return float(str(text).strip())
    except ValueError as exc:
        raise ConfigError(f"expected number, got {text!r}") from exc


def _parse_str(text):
    return str(text).strip()


def _parse_str_list(text):
    if isinstance(text, (list, tuple)):
        return tuple(str(v) for v in text)
    items = [part.strip() for part in str(text).split(",") if part.strip()]
    return tuple(items)


def _parse_int_list(text):
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    return tuple(_parse_int(part) for part in _parse_str_list(text))


def _parse_float_list(text):
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    return tuple(_parse_float(part) for part in _parse_str_list(text))


@dataclass(frozen=True)
class ConfigKey:
    name: str
    parse: callable
    default: object
    help: str


SCHEMA = {}


def _key(name, parse, default, help_text):
    SCHEMA[name] = ConfigKey(name, parse, default, help_text)


_key("seed", _parse_int, 0, "root seed; every random stream derives from it")
_key("data_dir", _parse_str, "runs/data", "dataset root (manifests, images, morphs, protocols)")
_key("out_dir", _parse_str, "runs/out", "output directory for the command's artifacts")
_key("n_identities", _parse_int, 200, "number of synthetic identities")
_key("images_per_identity", _parse_int, 20, "bona fide renders per identity")
_key("image_size", _parse_int, 32, "square image edge length in pixels")
_key("latent_dim", _parse_int, 16, "identity latent dimensionality")
_key("geometry_scale", _parse_float, 1.8, "max identity-driven landmark offset, px")
_key("pose_jitter", _parse_float, 1.0, "max global per-render shift, px")
_key("landmark_jitter", _parse_float, 0.4, "max per-landmark per-render jitter, px")
_key("pixel_noise", _parse_float, 0.02, "max additive intensity noise per pixel")
_key("min_latent_angle", _parse_float, 0.15, "pairwise identity-latent angle floor, rad")
_key("blend_alpha", _parse_float, 0.5, "morph blending coefficient")
_key("families", _parse_str_list, ("landmark", "latent"),
     "morph families to generate (comma separated)")
_key("train_families", _parse_str_list, ("landmark", "latent"),
     "morph families admitted to the training corpus")
_key("family", _parse_str, "landmark", "single morph family for protocol generation")
_key("variant", _parse_str, "fc-v2", "training variant: bc, fc-v1, or fc-v2")
_key("hidden_dims", _parse_int_list, (256,), "backbone hidden layer widths")
_key("feature_dim", _parse_int, 64, "backbone output feature dimensionality")
_key("momentum", _parse_float, 0.9, "SGD momentum")
_key("lr_start", _parse_float, 0.01, "initial learning rate")
_key("lr_end", _parse_float, 0.0001, "final learning rate (linear schedule)")
_key("epochs", _parse_int, 5, "training epochs (one pass of suspect candidates each)")
_key("batch_size", _parse_int, 28, "training batch size")
_key("pair_weight", _parse_float, 1.0, "weight of the binary pair loss term")
_key("validation_fraction", _parse_float, 0.0,
     "fraction of identities per subset held out of training")
_key("morph_per_bona", _parse_int, 5, "morph pairs per bona fide pair in protocols")
_key("deltas", _parse_float_list, (0.1, 0.01), "BPCER operating points for reports")
_key("fuse_mode", _parse_str, "dissimilarity",
     "score fusion mode: similarity or dissimilarity")
_key("checkpoint", _parse_str, "", "path to a trained dual-model checkpoint")
_key("fr_checkpoint", _parse_str, "", "path to an identity-classifier checkpoint")
_key("protocol", _parse_str, "", "path to a protocol file")


def parse_config_file(path):
    """Read flat `key = value` lines; # starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        name, value = (part.strip() for part in stripped.split("=", 1))
        if name not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {name!r}")
        raw[name] = value
    return raw


def resolve_config(config_path=None, overrides=None):
    """Fully resolved, typed configuration dict."""
    resolved = {name: key.default for name, key in SCHEMA.items()}
    if config_path:
        for name, value in parse_config_file(config_path).items():
            resolved[name] = SCHEMA[name].parse(value)
    for name, value in (overrides or {}).items():
        if name not in SCHEMA:
            raise ConfigError(f"unknown config key {name!r}")
        if value is not None:
            resolved[name] = SCHEMA[name].parse(value)
    return resolved


def format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(format_value(v) for v in value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_resolved_config(path, config) -> None:
    write_file(path, (f"{name} = {format_value(config[name])}\n" for name in sorted(config)))
