"""Command-line entry point.

One binary, subcommands for each pipeline stage:

  gen-data      render the bona fide dataset
  gen-morphs    build the morph/selfmorph corpus and the identity split
  gen-protocol  build an evaluation protocol for one morph family
  train         train a dual-network detector (bc, fc-v1, fc-v2)
  train-fr      train the standalone identity classifier used for fusion
  eval          score a protocol and emit metrics, DET CSV and SVG
  compare       tabulate APCER operating points across score files
  selftest      gradient checks of both models and metric-oracle cross-checks

Configuration comes from built-in defaults, an optional `key = value` file
(--config), and per-key flags, in that precedence order. Every command
writes its resolved configuration next to its outputs. Exit codes: 0
success, 1 usage error, 2 data error, 3 numeric error.
"""

import argparse
import os
import re
import sys

import numpy as np

from . import config as cfgmod
from . import datamine, evalbench, fusedloss, morphgen, nncore, synthfaces, trainer
from .errors import ConfigError, DataError, MorphdetError, NumericError
from .pgm import remove_files
from .seeding import derive_rng

CHECKPOINT_NAME = "checkpoint.mdck"
FR_CHECKPOINT_NAME = "fr.mdck"
SPLIT_NAME = "split.tsv"
# the eval outputs that only a run with --fr-checkpoint writes
FUSED_OUTPUTS = ("scores_fused.tsv", "det_fused-*.csv", "det_fused-*.svg")


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise ConfigError(message)


def _add_keys(parser, names):
    for name in names:
        key = cfgmod.SCHEMA[name]
        parser.add_argument(
            f"--{name.replace('_', '-')}",
            dest=name,
            default=None,
            metavar="V",
            help=f"{key.help} (default: {cfgmod.format_value(key.default)})",
        )


_DATASET_KEYS = (
    "seed", "data_dir", "n_identities", "images_per_identity", "image_size",
    "latent_dim", "geometry_scale", "pose_jitter", "landmark_jitter",
    "pixel_noise", "min_latent_angle",
)
_MORPH_KEYS = ("seed", "data_dir", "image_size", "latent_dim", "geometry_scale",
               "pose_jitter", "landmark_jitter", "pixel_noise", "min_latent_angle",
               "blend_alpha", "families")
_PROTOCOL_KEYS = ("seed", "data_dir", "family", "morph_per_bona")
_TRAIN_KEYS = ("seed", "data_dir", "out_dir", "variant", "train_families",
               "hidden_dims", "feature_dim", "momentum", "lr_start", "lr_end",
               "epochs", "batch_size", "pair_weight", "validation_fraction")
_TRAIN_FR_KEYS = ("seed", "data_dir", "out_dir", "hidden_dims", "feature_dim",
                  "momentum", "lr_start", "lr_end", "epochs", "batch_size")
_EVAL_KEYS = ("data_dir", "out_dir", "checkpoint", "protocol", "fr_checkpoint",
              "fuse_mode", "deltas")
_COMPARE_KEYS = ("out_dir", "protocol", "deltas")


def build_parser() -> _Parser:
    parser = _Parser(prog="morphdet",
                     description="differential face-morphing detection workbench")
    sub = parser.add_subparsers(dest="command", metavar="command")
    commands = {
        "gen-data": _DATASET_KEYS,
        "gen-morphs": _MORPH_KEYS,
        "gen-protocol": _PROTOCOL_KEYS,
        "train": _TRAIN_KEYS,
        "train-fr": _TRAIN_FR_KEYS,
        "eval": _EVAL_KEYS,
        "compare": _COMPARE_KEYS,
        "selftest": (),
    }
    for name, keys in commands.items():
        p = sub.add_parser(name, help=f"{name} stage")
        p.add_argument("--config", default=None, metavar="FILE",
                       help="flat key = value configuration file")
        _add_keys(p, keys)
        if name == "compare":
            p.add_argument("scores", nargs="+", metavar="NAME=PATH",
                           help="score files to compare, labeled")
    return parser


def _resolve(args, keys):
    overrides = {name: getattr(args, name) for name in keys}
    return cfgmod.resolve_config(args.config, overrides)


def _synth_config(cfg) -> synthfaces.SynthConfig:
    return synthfaces.SynthConfig(
        image_size=cfg["image_size"],
        latent_dim=cfg["latent_dim"],
        geometry_scale=cfg["geometry_scale"],
        pose_jitter=cfg["pose_jitter"],
        landmark_jitter=cfg["landmark_jitter"],
        pixel_noise=cfg["pixel_noise"],
        min_latent_angle=cfg["min_latent_angle"],
    )


def _sgd_config(cfg) -> nncore.SgdConfig:
    return nncore.SgdConfig(
        momentum=cfg["momentum"],
        lr_start=cfg["lr_start"],
        lr_end=cfg["lr_end"],
        batch_size=cfg["batch_size"],
        epochs=cfg["epochs"],
    )


def _write_config(cfg, directory, stage):
    os.makedirs(directory, exist_ok=True)
    cfgmod.write_resolved_config(os.path.join(directory, f"{stage}.config"), cfg)


def _read_dataset(data_dir):
    path = os.path.join(data_dir, synthfaces.DATASET_MANIFEST)
    rows = synthfaces.read_dataset_manifest(path)
    if not rows:
        raise DataError(f"{path}: empty dataset manifest")
    ids = sorted(set(identity for _rel, identity, _kind in rows))
    counts = {i: 0 for i in ids}
    for _rel, identity, _kind in rows:
        counts[identity] += 1
    per_identity = counts[ids[0]]
    if any(c != per_identity for c in counts.values()):
        raise DataError("dataset manifest has uneven images per identity")
    return rows, ids, per_identity


def cmd_gen_data(args) -> int:
    cfg = _resolve(args, _DATASET_KEYS)
    rows = synthfaces.generate_dataset(
        cfg["data_dir"], cfg["seed"], cfg["n_identities"],
        cfg["images_per_identity"], _synth_config(cfg),
    )
    _write_config(cfg, cfg["data_dir"], "gen-data")
    print(f"wrote {len(rows)} bona fide images under {cfg['data_dir']}")
    return 0


def cmd_gen_morphs(args) -> int:
    cfg = _resolve(args, _MORPH_KEYS)
    data_dir = cfg["data_dir"]
    rows, ids, per_identity = _read_dataset(data_dir)
    synth_config = _synth_config(cfg)
    identities = [synthfaces.make_identity(cfg["seed"], i, synth_config) for i in ids]
    plan = datamine.split_identities(ids, cfg["seed"])
    datamine.write_split_plan(os.path.join(data_dir, SPLIT_NAME), plan)
    n_cross, _ = morphgen.morph_counts(len(rows))
    pairs = datamine.plan_morph_pairs(plan, n_cross, cfg["seed"])
    morph_rows = morphgen.generate_morph_corpus(
        data_dir, cfg["seed"], identities, pairs, per_identity,
        families=cfg["families"],
        config=morphgen.MorphConfig(cfg["blend_alpha"]),
        synth_config=synth_config,
    )
    _write_config(cfg, data_dir, "gen-morphs")
    kinds = {}
    for _rel, _a, _b, kind in morph_rows:
        kinds[kind] = kinds.get(kind, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items()))
    print(f"wrote {len(morph_rows)} morph-corpus images ({summary})")
    return 0


def cmd_gen_protocol(args) -> int:
    cfg = _resolve(args, _PROTOCOL_KEYS)
    data_dir = cfg["data_dir"]
    rows, _ids, _per = _read_dataset(data_dir)
    morph_rows = morphgen.read_morph_manifest(os.path.join(data_dir, morphgen.MORPH_MANIFEST))
    entries = evalbench.generate_protocol(
        rows, morph_rows, cfg["family"], cfg["seed"], cfg["morph_per_bona"]
    )
    path = os.path.join(data_dir, f"protocol-{cfg['family']}.tsv")
    evalbench.write_protocol(path, entries)
    _write_config(cfg, data_dir, f"gen-protocol-{cfg['family']}")
    n_bona = sum(1 for e in entries if e.ground_truth == evalbench.GT_BONAFIDE)
    print(f"wrote {path}: {n_bona} bona fide pairs, {len(entries) - n_bona} morph pairs")
    return 0


def _load_training_records(cfg):
    """Manifests -> (bona, selfmorphs, morphs, plan, num_classes) after
    family selection and optional identity holdout."""
    data_dir = cfg["data_dir"]
    rows, ids, _per = _read_dataset(data_dir)
    morph_rows = morphgen.read_morph_manifest(os.path.join(data_dir, morphgen.MORPH_MANIFEST))
    bona, selfmorphs, morphs = datamine.records_from_manifests(rows, morph_rows)
    split_path = os.path.join(data_dir, SPLIT_NAME)
    if os.path.exists(split_path):
        plan = datamine.read_split_plan(split_path)
    else:
        plan = datamine.split_identities(ids, cfg["seed"])
    selfmorphs = datamine.filter_families(selfmorphs, cfg["train_families"])
    morphs = datamine.filter_families(morphs, cfg["train_families"])
    plan, held = datamine.holdout_identities(plan, cfg["seed"], cfg["validation_fraction"])
    if held:
        bona = datamine.drop_identities(bona, held)
        selfmorphs = datamine.drop_identities(selfmorphs, held)
        morphs = datamine.drop_identities(morphs, held)
        print(f"holding out {len(held)} identities from training")
    return bona, selfmorphs, morphs, plan, len(ids)


def cmd_train(args) -> int:
    cfg = _resolve(args, _TRAIN_KEYS)
    bona, selfmorphs, morphs, plan, num_classes = _load_training_records(cfg)
    corpus = datamine.assemble_dataset(bona, selfmorphs, morphs, cfg["seed"])
    model, report = trainer.train(
        cfg["data_dir"], corpus, bona, plan, num_classes,
        _sgd_config(cfg), cfg["variant"], cfg["seed"],
        hidden_dims=cfg["hidden_dims"], feature_dim=cfg["feature_dim"],
        pair_weight=cfg["pair_weight"],
    )
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    checkpoint = os.path.join(out_dir, CHECKPOINT_NAME)
    trainer.save_model(checkpoint, model, cfg["seed"])
    report.write_csv(os.path.join(out_dir, "train_report.csv"))
    _write_config(cfg, out_dir, "train")
    last = report.records[-1]
    print(
        f"trained {cfg['variant']} for {len(report.records)} steps on "
        f"{len(corpus)} records; final losses l1={last.l1:.4f} "
        f"l2={last.l2:.4f} l3={last.l3:.4f}; checkpoint {checkpoint}"
    )
    return 0


def cmd_train_fr(args) -> int:
    cfg = _resolve(args, _TRAIN_FR_KEYS)
    data_dir = cfg["data_dir"]
    rows, ids, _per = _read_dataset(data_dir)
    bona, _selfmorphs, _morphs = datamine.records_from_manifests(rows, [])
    backbone, head, report = trainer.train_identity_classifier(
        data_dir, bona, len(ids), _sgd_config(cfg), cfg["seed"],
        hidden_dims=cfg["hidden_dims"], feature_dim=cfg["feature_dim"],
    )
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    checkpoint = os.path.join(out_dir, FR_CHECKPOINT_NAME)
    trainer.save_identity_model(checkpoint, backbone, head, cfg["seed"])
    report.write_csv(os.path.join(out_dir, "fr_report.csv"))
    _write_config(cfg, out_dir, "train-fr")
    print(
        f"trained identity classifier for {len(report.records)} steps; "
        f"final loss {report.records[-1].l1:.4f}; checkpoint {checkpoint}"
    )
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(args, _EVAL_KEYS)
    if not cfg["checkpoint"]:
        raise ConfigError("eval needs --checkpoint")
    if not cfg["protocol"]:
        raise ConfigError("eval needs --protocol")
    model, _meta = trainer.load_model(cfg["checkpoint"])
    entries = evalbench.read_protocol(cfg["protocol"])
    cache = trainer.ImageCache(cfg["data_dir"])
    scores, exclusions = evalbench.score_protocol(model, entries, cache)

    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    # no fused output of an earlier eval may pass as this run's: a fused run
    # writes its own again, perhaps under another --fuse-mode name
    remove_files(out_dir, FUSED_OUTPUTS)
    evalbench.write_scores(os.path.join(out_dir, "scores.tsv"), scores)
    named = [("mad", scores)]

    if cfg["fr_checkpoint"]:
        backbone, _head, _meta2 = trainer.load_identity_model(cfg["fr_checkpoint"])
        mad = dict(scores)
        sims, sim_exclusions = evalbench.fr_similarities(
            backbone, [e for e in entries if e.pair_id in mad], cache)
        exclusions.extend(sim_exclusions)
        # fusion and metrics cover the pairs that both scorers kept
        named = [("mad", [(pair_id, mad[pair_id]) for pair_id, _ in sims])]
        fused = evalbench.fuse_score_lists(named[0][1], sims, cfg["fuse_mode"])
        evalbench.write_scores(os.path.join(out_dir, "scores_fused.tsv"), fused)
        named.append((f"fused-{cfg['fuse_mode']}", fused))

    for pair_id, reason in exclusions:
        print(f"excluded {pair_id}: {reason}", file=sys.stderr)
    kept = set(pair_id for pair_id, _ in named[0][1])
    scored_entries = [e for e in entries if e.pair_id in kept]
    unscored = set(e.ground_truth for e in entries) - set(e.ground_truth for e in scored_entries)
    if unscored:
        raise DataError(f"{len(exclusions)} protocol entries could not be scored, "
                        f"leaving no {' or '.join(sorted(unscored))} pair")
    rows = evalbench.compare_runs(named, scored_entries, cfg["deltas"])
    evalbench.write_comparison_csv(os.path.join(out_dir, "metrics.csv"), rows)
    protocol_name = os.path.basename(cfg["protocol"])
    for name, method_scores in named:
        values, is_attack = evalbench.align_scores(scored_entries, method_scores)
        curve = evalbench.det_curve(values, is_attack)
        suffix = "" if name == "mad" else f"_{name}"
        evalbench.write_det_csv(os.path.join(out_dir, f"det{suffix}.csv"), curve)
        evalbench.write_det_svg(os.path.join(out_dir, f"det{suffix}.svg"), curve,
                                title=f"{protocol_name} {name}")
    _write_config(cfg, out_dir, "eval")
    print(evalbench.format_comparison_table(rows, protocol_name))
    if exclusions:
        raise DataError(f"{len(exclusions)} protocol entries could not be scored")
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve(args, _COMPARE_KEYS)
    if not cfg["protocol"]:
        raise ConfigError("compare needs --protocol")
    entries = evalbench.read_protocol(cfg["protocol"])
    named = []
    for item in args.scores:
        if "=" not in item:
            raise ConfigError(f"score argument must be NAME=PATH, got {item!r}")
        name, path = item.split("=", 1)
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
            raise ConfigError(f"method name {name!r} has unsafe characters")
        named.append((name, evalbench.read_scores(path)))
    rows = evalbench.compare_runs(named, entries, cfg["deltas"])
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    evalbench.write_comparison_csv(os.path.join(out_dir, "comparison.csv"), rows)
    for name, scores in named:
        values, is_attack = evalbench.align_scores(entries, scores)
        evalbench.write_det_csv(os.path.join(out_dir, f"det-{name}.csv"),
                                evalbench.det_curve(values, is_attack))
    _write_config(cfg, out_dir, "compare")
    print(evalbench.format_comparison_table(rows, os.path.basename(cfg["protocol"])))
    return 0


# ---------------------------------------------------------------------------
# Selftest: full-loss gradient checks and metric oracle cross-checks
# ---------------------------------------------------------------------------


def _gradient_error(units, loss_of):
    """finite_diff_check over the packed parameters of units (at most 2000);
    loss_of(grad_views, live_rows) returns the loss and writes its gradients
    there. The gradient starts as NaN, so a row that backward skips and
    fails to clear shows as a non-finite gradient."""
    params, grad, grad_views = nncore.pack_parameters(units)
    if params.size > 2000:
        raise ConfigError(f"selftest model too large: {params.size} parameters")
    grad[...] = np.nan
    live_rows = nncore.LiveRows()

    def loss_and_grad(theta):
        params[...] = theta
        return loss_of(grad_views, live_rows), grad.copy()

    return nncore.finite_diff_check(loss_and_grad, params.copy())


# The first-layer units left able to fire in the dead-unit cases: a partly
# dead layer and a layer with one live unit, the paths of
# nncore.LiveRows.weight_gradient besides the all-live one.
DEAD_UNIT_CASES = ((0, 1, 2, 3), (0,))


def _silence_units(backbone, live_units) -> None:
    """Give every first-layer unit outside live_units (None: all stay) a
    bias that no selftest input overcomes, so that it never fires."""
    if live_units is not None:
        dead = np.ones(backbone.layers[0].biases.size, dtype=bool)
        dead[list(live_units)] = False
        backbone.layers[0].biases[dead] = -1e3


def selftest_gradients(variant: str, seed: int = 7):
    """Max relative error between analytic and central-difference gradients
    of the full fused loss on a small seeded dual model, computed by the
    same trainer.loss_and_grads that training runs, over the model's packed
    parameter vector: with every hidden unit alive, then with the first
    backbone partly dead and the second down to one live unit."""
    rng = derive_rng(seed, 999, fusedloss.VARIANTS.index(variant))
    num_classes = 3
    batch = 6
    x1 = rng.normal(size=(batch, 20))
    x2 = rng.normal(size=(batch, 20))
    kinds = [fusedloss.KIND_MORPH_LM if i % 2 else fusedloss.KIND_BONAFIDE
             for i in range(batch)]
    first_classes = []
    second_classes = []
    t = []
    for i, kind in enumerate(kinds):
        y1 = int(rng.integers(num_classes))
        y2 = int(rng.integers(num_classes)) if kind == fusedloss.KIND_MORPH_LM else y1
        labels = fusedloss.DualLabels(y1, y2)
        first_classes.append(fusedloss.allocate_labels(labels, kind, variant, num_classes)[0])
        second_classes.append(y1)
        t.append(fusedloss.cross_label(y2, y1))
    batch_arrays = (x1, x2, np.array(first_classes), np.array(second_classes),
                    np.array(t, dtype=np.float64))
    weights = fusedloss.LossWeights.for_variant(variant)
    errors = []
    for first_live, second_live in ((None, None), DEAD_UNIT_CASES):
        model = trainer.build_dual_model(
            input_dim=20, hidden_dims=(8,), feature_dim=6,
            num_classes=num_classes, variant=variant, seed=seed,
        )
        _silence_units(model.first_backbone, first_live)
        _silence_units(model.second_backbone, second_live)
        errors.append(_gradient_error(model.units(), lambda views, live_rows: (
            trainer.loss_and_grads(model, batch_arrays, weights, views, live_rows).total)))
    return max(errors)


def selftest_identity_gradients(seed: int = 7):
    """Max relative error between analytic and central-difference gradients
    of the identity classifier's loss on a small seeded model, computed by
    the same trainer.identity_loss_and_grads that training runs: with every
    hidden unit alive, then in each of DEAD_UNIT_CASES."""
    errors = []
    for live_units in (None,) + DEAD_UNIT_CASES:
        rng = derive_rng(seed, 999, len(fusedloss.VARIANTS))
        backbone = nncore.MlpBackbone.build([20, 8, 6], rng)
        head = nncore.ClassifierHead.build(3, 6, rng)
        x = rng.normal(size=(6, 20))
        labels = rng.integers(3, size=6)
        _silence_units(backbone, live_units)
        errors.append(_gradient_error(backbone.layers + [head], lambda views, live_rows: (
            trainer.identity_loss_and_grads(backbone, head, x, labels, views, live_rows))))
    return max(errors)


def _oracle_rates(scores, is_attack, tau):
    attack_missed = sum(1 for s, a in zip(scores, is_attack) if a and s < tau)
    bona_rejected = sum(1 for s, a in zip(scores, is_attack) if not a and s >= tau)
    n_attack = sum(1 for a in is_attack if a)
    n_bona = len(is_attack) - n_attack
    return attack_missed / n_attack, bona_rejected / n_bona


def selftest_metrics(instances: int = 20, seed: int = 11) -> int:
    """Cross-check fast metrics against direct counting; returns instance count."""
    rng = derive_rng(seed, 998)
    for k in range(instances):
        n = int(rng.integers(10, 60))
        scores = rng.random(n)
        is_attack = rng.random(n) < 0.5
        if is_attack.all() or not is_attack.any():
            is_attack[0] = True
            is_attack[-1] = False
        for tau in np.concatenate([scores[:3], [0.5]]):
            fast = evalbench.apcer_bpcer(scores, is_attack, float(tau))
            slow = _oracle_rates(list(scores), list(is_attack), float(tau))
            if fast != slow:
                raise NumericError(
                    f"metric mismatch at instance {k}, tau {tau}: {fast} vs {slow}"
                )
        delta = 0.1
        apcer, tau = evalbench.apcer_at_bpcer(scores, is_attack, delta)
        _, bpcer_at = evalbench.apcer_bpcer(scores, is_attack, tau)
        if bpcer_at > delta:
            raise NumericError(f"operating point violates bpcer <= {delta}")
        if evalbench.apcer_bpcer(scores, is_attack, tau)[0] != apcer:
            raise NumericError("operating-point apcer does not recompute")
    return instances


def cmd_selftest(_args) -> int:
    worst = 0.0
    errors = [(variant, selftest_gradients(variant)) for variant in fusedloss.VARIANTS]
    for name, err in errors + [("identity", selftest_identity_gradients())]:
        worst = max(worst, err)
        print(f"gradient check {name}: max relative error {err:.3e}")
        if err >= 1e-4:
            raise NumericError(f"gradient check failed for {name}: {err:.3e} >= 1e-4")
    n = selftest_metrics()
    print(f"metric oracle cross-check: {n} instances ok")
    print(f"selftest ok (worst gradient error {worst:.3e})")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "gen-morphs": cmd_gen_morphs,
    "gen-protocol": cmd_gen_protocol,
    "train": cmd_train,
    "train-fr": cmd_train_fr,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return _COMMANDS[args.command](args)
    except MorphdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
