"""Every reader of an outside file turns arbitrary bytes into a MorphdetError.

Hypothesis feeds each reader raw bytes and byte strings shaped like the
reader's own format (tab- or space-separated fields of likely tokens,
checkpoint headers with arbitrary JSON). Runs are derandomized, so the
examples are the same on every run.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from morphdet import cli
from morphdet.config import parse_config_file
from morphdet.datamine import read_split_plan
from morphdet.errors import MorphdetError
from morphdet.evalbench import read_protocol, read_scores
from morphdet.morphgen import read_morph_manifest
from morphdet.nncore import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ClassifierHead,
    MlpBackbone,
    read_checkpoint,
    write_checkpoint,
)
from morphdet.pgm import read_landmarks, read_pgm
from morphdet.synthfaces import read_dataset_manifest
from morphdet.trainer import (
    build_dual_model,
    load_identity_model,
    load_model,
    save_identity_model,
    save_model,
)

FUZZ = settings(derandomize=True, max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_TOKENS = st.sampled_from([
    "0", "1", "7", "-3", "x", "", " ", "1e3", "nan", "inf", "first", "second",
    "bonafide", "morph", "morph-lm", "selfmorph-latent", "images/a.pgm", "#",
    "seed = 1", "=", "9" * 5000,
])
_FIELD = st.one_of(_TOKENS, st.text(max_size=6))
_LINE = st.builds(lambda sep, fields: sep.join(fields),
                  st.sampled_from(["\t", " "]), st.lists(_FIELD, max_size=5))
_TEXT = st.lists(_LINE, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-8"))
_TEXT_THEN_JUNK = st.builds(bytes.__add__, _TEXT, st.binary(min_size=1, max_size=4))
_BYTES = st.one_of(st.binary(max_size=200), _TEXT, _TEXT_THEN_JUNK)

TEXT_READERS = {
    "dataset-manifest": read_dataset_manifest,
    "dataset": lambda path: cli._read_dataset(path.parent),
    "morph-manifest": read_morph_manifest,
    "split-plan": read_split_plan,
    "protocol": read_protocol,
    "scores": read_scores,
    "landmarks": read_landmarks,
    "config": parse_config_file,
}


def _raises_only_typed_errors(reader, path):
    try:
        reader(path)
    except MorphdetError:
        pass


@pytest.mark.parametrize("name", sorted(TEXT_READERS))
@FUZZ
@given(raw=_BYTES)
@example(raw=b"a\t" + b"9" * 5000 + b"\tbonafide\n")
def test_text_readers_raise_only_typed_errors(tmp_path, name, raw):
    path = tmp_path / "manifest.tsv"  # the name cli._read_dataset looks for
    path.write_bytes(raw)
    _raises_only_typed_errors(TEXT_READERS[name], path)


_PGM_TOKENS = st.sampled_from([b"P5", b"P2", b"0", b"2", b"3", b"255", b"65535",
                               b"#note\n", b"x", b"9" * 5000])
_PGM = st.builds(lambda tokens, pixels: b" ".join(tokens) + b"\n" + pixels,
                 st.lists(_PGM_TOKENS, max_size=5), st.binary(max_size=16))


@FUZZ
@given(raw=st.one_of(st.binary(max_size=200), _PGM))
@example(raw=b"P5 " + b"9" * 5000 + b" 2 255\n")
def test_read_pgm_raises_only_typed_errors(tmp_path, raw):
    path = tmp_path / "image.pgm"
    path.write_bytes(raw)
    _raises_only_typed_errors(read_pgm, path)


def _checkpoint_bytes(header: bytes, payload: bytes) -> bytes:
    return (CHECKPOINT_MAGIC + np.uint32(CHECKPOINT_VERSION).tobytes()
            + np.uint32(len(header)).tobytes() + header + payload)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=8,
)
_DIM = st.one_of(st.integers(-2, 3), st.integers(2**31, 2**65), st.floats(), st.text(max_size=2))
_ENTRY = st.one_of(_JSON, st.fixed_dictionaries(
    {"name": st.text(max_size=3), "shape": st.lists(_DIM, max_size=3)}))
_HEADER = st.one_of(_JSON, st.fixed_dictionaries(
    {"meta": _JSON, "arrays": st.lists(_ENTRY, max_size=3)}))
_CHECKPOINT = st.builds(lambda header, payload: _checkpoint_bytes(json.dumps(header).encode(),
                                                                  payload),
                        _HEADER, st.binary(max_size=64))


@FUZZ
@given(raw=st.one_of(st.binary(max_size=200),
                     st.binary(max_size=64).map(lambda tail: CHECKPOINT_MAGIC + tail),
                     _CHECKPOINT))
@example(raw=_checkpoint_bytes(b"[" * 100000, b""))
def test_read_checkpoint_raises_only_typed_errors(tmp_path, raw):
    path = tmp_path / "model.mdck"
    path.write_bytes(raw)
    _raises_only_typed_errors(read_checkpoint, path)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """(meta, arrays) of a small dual checkpoint and a small identity one."""
    base = tmp_path_factory.mktemp("fuzz_checkpoints")
    save_model(base / "dual.mdck", build_dual_model(4, (3,), 2, 2, "fc-v2", 0), seed=0)
    rng = np.random.default_rng(0)
    save_identity_model(base / "ident.mdck", MlpBackbone.build([4, 3, 2], rng),
                        ClassifierHead.build(2, 2, rng), seed=0)
    return [read_checkpoint(base / name) for name in ("dual.mdck", "ident.mdck")]


@FUZZ
@given(which=st.integers(0, 1),
       meta=st.dictionaries(st.sampled_from(["kind", "n_layers", "variant", "num_classes"]),
                            st.one_of(_JSON, st.sampled_from(["dual", "identity"]))),
       drop=st.integers(-1, 7),
       reshape=st.tuples(st.integers(-1, 7), st.lists(st.integers(0, 5), max_size=3)))
@example(which=0, meta={"n_layers": float("inf")}, drop=-1, reshape=(-1, []))
@example(which=0, meta={"num_classes": float("inf")}, drop=-1, reshape=(-1, []))
def test_model_loaders_raise_only_typed_errors(tmp_path, checkpoints, which, meta, drop,
                                               reshape):
    base_meta, arrays = checkpoints[which]
    items = [(name, np.zeros(reshape[1]) if k == reshape[0] else array)
             for k, (name, array) in enumerate(arrays.items()) if k != drop]
    path = tmp_path / "model.mdck"
    write_checkpoint(path, dict(base_meta, **meta), items)
    for loader in (load_model, load_identity_model):
        _raises_only_typed_errors(loader, path)
