"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions of the `morphdet` package from outside: each call
becomes a span (name, start, end, parent) kept in a list, and a few wrappers
also record counts (rows, pixels, bytes). Nothing inside the package is
edited, and every wrapper is removed again by `uninstall()`.

Many modules bind their imports by name (`from .pgm import read_pgm`), so a
function is replaced at every module attribute that holds it, not only in
its defining module. Methods are replaced on their class.
"""

import functools
import os
import sys
import time
from contextlib import contextmanager

class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._open = []
        self._patches = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def _end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, observe=None):
        """Traced stand-in for fn; observe(tracer, args, result) adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- installing ------------------------------------------------------

    def patch_function(self, module, attribute, name, observe=None):
        """Replace module.attribute at every `morphdet` module binding it."""
        original = getattr(module, attribute)
        traced = self.wrap(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "morphdet" or mod_name.startswith("morphdet.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attribute, name, observe=None):
        original = cls.__dict__[attribute]
        self._patches.append((cls, attribute, original))
        setattr(cls, attribute, self.wrap(name, original, observe))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def write_spans(path, rounds):
    """Write one (round, name, start, end, parent) row per span; rounds is a
    list of (round index, spans)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round\tname\tstart\tend\tparent\n")
        for round_index, spans in rounds:
            for name, start, end, parent in spans:
                fh.write(f"{round_index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def round_totals(spans, counts):
    """Additive totals of one traced round: `<span>.calls`, `<span>.s`
    (inclusive) and `<span>.self_s` (minus direct children) per span name,
    the counts recorded by the wrappers, and `trainer.image_cache.hits`."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    # a cache lookup that had to read the image has a pgm.read_pgm child
    readers = {parent for name, _start, _end, parent in spans if name == "pgm.read_pgm"}
    totals = dict(counts)
    for index, (name, start, end, _parent) in enumerate(spans):
        for key, amount in ((".calls", 1), (".s", end - start),
                            (".self_s", end - start - child_time[index])):
            totals[name + key] = totals.get(name + key, 0) + amount
        if name == "trainer.image_cache" and index not in readers:
            totals["trainer.image_cache.hits"] = totals.get("trainer.image_cache.hits", 0) + 1
    return totals


# ---------------------------------------------------------------------------
# What the benchmark traces
# ---------------------------------------------------------------------------


def _forward_rows(tracer, args, _result):
    backbone, x = args[0], args[1]
    rows = int(x.shape[0])
    weights = sum(layer.weights.size for layer in backbone.layers)
    tracer.count("nncore.forward.rows", rows)
    tracer.count("nncore.forward.flop", 2 * rows * weights)


def _sgd_bytes(tracer, args, _result):
    # minimum traffic of one momentum update: read params, grads and
    # velocity, write params and velocity, 8 bytes per float64
    elements = sum(p.size for p in args[0])
    tracer.count("nncore.sgd_step.bytes", 5 * 8 * elements)


def _warp_pixels(tracer, _args, written):
    tracer.count("morphgen.pixels_written", written)
    if written == 0:
        tracer.count("morphgen.warp_affine_triangle.empty")


def _file_size(counter):
    def observe(tracer, args, _result):
        tracer.count(counter, os.path.getsize(args[0]))

    return observe


def _pairs_scored(tracer, _args, result):
    scores, _exclusions = result
    tracer.count("evalbench.pairs_scored", len(scores))


def install(tracer):
    """Wrap the public functions of every traced module.

    Span names are `<module>.<function>`; the two MlpBackbone methods are
    `nncore.forward` and `nncore.backward`, ImageCache.flat is
    `trainer.image_cache`. CLI command spans are recorded by the caller.
    """
    from morphdet import (
        config, datamine, evalbench, fusedloss, morphgen, nncore, pgm, seeding,
        synthfaces, trainer,
    )

    functions = [
        (config, "resolve_config", None),
        (seeding, "derive_rng", None),
        (synthfaces, "render", None),
        (synthfaces, "build_identities", None),
        (morphgen, "triangulate", None),
        (morphgen, "warp_image", None),
        (morphgen, "warp_affine_triangle", _warp_pixels),
        (pgm, "write_pgm", _file_size("pgm.write_pgm.bytes")),
        (pgm, "read_pgm", None),
        (pgm, "write_landmarks", None),
        (pgm, "read_landmarks", None),
        (datamine, "sample_batch", None),
        (datamine, "assemble_dataset", None),
        (trainer, "train", None),
        (trainer, "train_identity_classifier", None),
        (trainer, "extract_features", None),
        (trainer, "identity_similarity", None),
        (trainer, "save_model", None),
        (trainer, "load_model", None),
        (nncore, "sgd_step", _sgd_bytes),
        (nncore, "softmax_cross_entropy_batch", None),
        (nncore, "write_checkpoint", _file_size("nncore.checkpoint.bytes_written")),
        (nncore, "read_checkpoint", _file_size("nncore.checkpoint.bytes_read")),
        (fusedloss, "batch_pair_loss", None),
        (fusedloss, "detection_score", None),
        (evalbench, "read_protocol", None),
        (evalbench, "score_protocol", _pairs_scored),
        (evalbench, "fr_similarities", None),
        (evalbench, "compare_runs", None),
        (evalbench, "det_curve", None),
        (evalbench, "write_det_svg", None),
    ]
    for module, attribute, observe in functions:
        name = f"{module.__name__.split('.')[-1]}.{attribute}"
        tracer.patch_function(module, attribute, name, observe)
    tracer.patch_method(nncore.MlpBackbone, "forward_cached", "nncore.forward", _forward_rows)
    tracer.patch_method(nncore.MlpBackbone, "backward", "nncore.backward")
    tracer.patch_method(trainer.ImageCache, "flat", "trainer.image_cache")


# Per-layer metrics read straight from the round totals.
TOTALS = (
    "cli.gen_data.s", "cli.gen_morphs.s", "cli.gen_protocol.s", "cli.train.s",
    "cli.train_fr.s", "cli.eval.s",
    "seeding.derive_rng.calls", "seeding.derive_rng.s",
    "synthfaces.render.calls", "synthfaces.render.self_s", "synthfaces.build_identities.s",
    "morphgen.triangulate.calls", "morphgen.triangulate.s",
    "morphgen.warp_image.calls", "morphgen.warp_image.self_s",
    "morphgen.warp_affine_triangle.calls", "morphgen.warp_affine_triangle.s",
    "morphgen.pixels_written",
    "pgm.write_pgm.calls", "pgm.write_pgm.s", "pgm.write_pgm.bytes",
    "pgm.read_pgm.calls", "pgm.read_pgm.s", "pgm.write_landmarks.s", "pgm.read_landmarks.s",
    "datamine.sample_batch.calls", "datamine.sample_batch.s", "datamine.assemble_dataset.s",
    "trainer.train.self_s", "trainer.train_identity_classifier.self_s",
    "trainer.extract_features.calls", "trainer.extract_features.self_s",
    "trainer.identity_similarity.calls", "trainer.identity_similarity.self_s",
    "trainer.save_model.s", "trainer.load_model.s",
    "nncore.forward.calls", "nncore.forward.s", "nncore.forward.flop",
    "nncore.backward.calls", "nncore.backward.s",
    "nncore.sgd_step.calls", "nncore.sgd_step.s", "nncore.sgd_step.bytes",
    "nncore.softmax_cross_entropy_batch.s",
    "nncore.checkpoint.bytes_written", "nncore.checkpoint.bytes_read",
    "fusedloss.batch_pair_loss.calls", "fusedloss.batch_pair_loss.s",
    "fusedloss.detection_score.calls", "fusedloss.detection_score.s",
    "evalbench.read_protocol.s", "evalbench.score_protocol.self_s",
    "evalbench.fr_similarities.self_s", "evalbench.compare_runs.s", "evalbench.det_curve.s",
    "evalbench.write_det_svg.s", "evalbench.pairs_scored",
    "config.resolve_config.s",
)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(totals):
    """The per-layer metrics from (summed) round totals."""
    out = {name: totals.get(name, 0) for name in TOTALS}
    out["morphgen.warp_affine_triangle.empty_ratio"] = _ratio(
        totals.get("morphgen.warp_affine_triangle.empty", 0),
        totals.get("morphgen.warp_affine_triangle.calls", 0))
    out["trainer.image_cache.lookups"] = totals.get("trainer.image_cache.calls", 0)
    out["trainer.image_cache.hit_ratio"] = _ratio(
        totals.get("trainer.image_cache.hits", 0), totals.get("trainer.image_cache.calls", 0))
    out["nncore.forward.rows_per_call"] = _ratio(
        totals.get("nncore.forward.rows", 0), totals.get("nncore.forward.calls", 0))
    return out


def is_count(metric):
    """Counts, and ratios of counts, repeat exactly between rounds of one
    seed; times do not."""
    return not (metric.endswith(".s") or metric.endswith("_s"))


def unit(metric):
    if not is_count(metric):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".flop"):
        return "flop"
    if metric.endswith("bytes") or metric.endswith("bytes_written") or metric.endswith("bytes_read"):
        return "B"
    if metric.endswith("rows_per_call"):
        return "rows"
    return "count"
