"""One benchmark run of the desk pipeline.

`run.py` starts this file with the BLAS thread variables set in its
environment. Every stage is a call of the public entry point
`morphdet.cli.main` with the README's arguments, exactly as a user would
type them:

  corpus  gen-data, gen-morphs, gen-protocol latent, gen-protocol landmark
  train   train (fc-v2 on the landmark family) and train-fr
  score   eval with --fr-checkpoint on both protocols

Every workload reports every end-to-end metric, so each run runs every
stage. The stages follow the workload's CYCLE, repeated, for --seconds: a
stage starts only when, at its last wall time, it ends in time, and a run
goes on until every stage has its least number of rounds. Each workload
gives its own stage the most rounds, and the samples of every rate are
spread over the run. `startup` times the start-up of the CLI in a
fresh interpreter, one process at a time; all load of the stages comes from
this one process.

While a command runs, `speedprobe` measures how fast the machine is, and
the wall times behind every rate and behind `setup_s` are scaled to the
probe's reference speed.

One operation is one CLI command together with its output check: the
command must exit 0, its outputs must exist and agree with their manifests,
repeat byte for byte within the run, and, for the default seed, match the
reference digests in `reference_seed0.json`.

The last line of standard output is the JSON result.
"""

import time


def _loadavg():
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


_LOADAVG_START = _loadavg()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE_PATH = BENCH_DIR / "reference_seed0.json"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from morphdet import cli  # noqa: E402

import speedprobe  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("corpus", "train")
FAMILIES = ("latent", "landmark")
HELDOUT_FAMILY = "latent"
HELDOUT_DELTA = "0.1"

# README quick start: 48 identities x 8 renders at 32 px, fc-v2 trained on
# the landmark family for 60 epochs at pair weight 0.25; the rest are the
# package defaults, spelled out so both configurations share one code path.
DESK = dict(n_identities=48, images_per_identity=8, image_size=32, epochs=60,
            batch_size=28, hidden_dims="256", feature_dim=64, pair_weight=0.25)
# The harness self-test configuration.
TINY = dict(n_identities=6, images_per_identity=3, image_size=16, epochs=2,
            batch_size=7, hidden_dims="16", feature_dim=8, pair_weight=0.25)

# The stages of a run, in the order they repeat: the workload's own stage
# three times, the other stage once, eval rounds between. `setup` builds the
# input corpus of `train`; `startup` is a start-up probe.
CYCLE = {
    "corpus": ("startup", "corpus", "train", "score", "score",
               "startup", "corpus", "score", "score", "corpus", "score", "score"),
    "train": ("startup", "setup", "train", "score", "score",
              "startup", "train", "score", "score", "train", "score", "score"),
}
# Rounds at least: one of every stage; two of the workload's own stage and
# of eval, whose second round reruns the first and must repeat it byte for
# byte; three of a traced stage, one untraced and two traced rounds to
# compare counts.
MIN_RERUN = {"corpus": ("corpus", "score"), "train": ("train", "score")}
MIN_TRACED_ROUNDS = 3
# Traced stages: scoring is traced where no training is, so the single-row
# forwards of eval and the batched forwards of training stay apart.
TRACED_STAGES = {"corpus": ("corpus", "score"), "train": ("train",)}


class OpFailed(Exception):
    """A command that did not exit 0; the workload cannot continue."""


class CheckFailed(Exception):
    """An output that is missing or disagrees with its manifest."""


@dataclass
class Timing:
    """Work done by one or more commands and the wall time it took at the
    probe's reference speed."""

    units: int = 0
    reference_wall: float = 0.0

    def __add__(self, other):
        return Timing(self.units + other.units, self.reference_wall + other.reference_wall)

    @property
    def rate(self):
        """Work units per second at the reference speed."""
        return self.units / self.reference_wall


@dataclass
class Op:
    key: str  # unique name of the operation within a run
    span: str  # trace span around the CLI call
    argv: list
    base: str  # directory the outputs are relative to
    outputs: tuple  # outputs digested after the command
    count: object = None  # base -> work units done, raises CheckFailed


def digest_path(path):
    """sha256 of a file, or of the sorted (name, file digest) list of a tree."""
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    if not os.path.isdir(path):
        raise CheckFailed(f"missing output {path}")
    outer = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            outer.update(os.path.relpath(full, path).encode() + b"\0")
            outer.update(digest_path(full).encode() + b"\n")
    return outer.hexdigest()


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#"))


def _rows_matching_files(manifest, directory):
    def count(base):
        rows = _data_lines(os.path.join(base, manifest))
        files = sum(1 for name in os.listdir(os.path.join(base, directory))
                    if name.endswith(".pgm"))
        if rows == 0 or rows != files:
            raise CheckFailed(f"{manifest} lists {rows} images, {directory}/ holds {files}")
        return rows
    return count


def _report_steps(report):
    def count(base):
        steps = _data_lines(os.path.join(base, report)) - 1  # minus the CSV header
        if steps < 1:
            raise CheckFailed(f"{report} records no steps")
        return steps
    return count


def _scored_pairs(protocol):
    def count(base):
        pairs = _data_lines(os.path.join(base, "scores.tsv"))
        expected = _data_lines(protocol)
        if pairs != expected:
            raise CheckFailed(f"scored {pairs} of {expected} protocol pairs")
        return pairs
    return count


def corpus_ops(data, seed, cfg):
    common = ["--data-dir", data, "--seed", str(seed)]
    size = ["--image-size", str(cfg["image_size"])]
    ops = [
        Op("gen-data", "cli.gen_data",
           ["gen-data", *common, "--n-identities", str(cfg["n_identities"]),
            "--images-per-identity", str(cfg["images_per_identity"]), *size],
           data, ("images", "manifest.tsv"), _rows_matching_files("manifest.tsv", "images")),
        Op("gen-morphs", "cli.gen_morphs", ["gen-morphs", *common, *size],
           data, ("morphs", "morphs.tsv", "split.tsv"), _rows_matching_files("morphs.tsv", "morphs")),
    ]
    for family in FAMILIES:
        ops.append(Op(f"gen-protocol {family}", "cli.gen_protocol",
                      ["gen-protocol", *common, "--family", family],
                      data, (f"protocol-{family}.tsv",)))
    return ops


def train_ops(data, out, seed, cfg):
    common = ["--data-dir", data, "--seed", str(seed), "--epochs", str(cfg["epochs"]),
              "--batch-size", str(cfg["batch_size"]), "--hidden-dims", cfg["hidden_dims"],
              "--feature-dim", str(cfg["feature_dim"])]
    v2 = os.path.join(out, "v2")
    fr = os.path.join(out, "fr")
    return [
        Op("train", "cli.train",
           ["train", *common, "--out-dir", v2, "--variant", "fc-v2",
            "--train-families", "landmark", "--pair-weight", str(cfg["pair_weight"])],
           v2, ("checkpoint.mdck",), _report_steps("train_report.csv")),
        Op("train-fr", "cli.train_fr", ["train-fr", *common, "--out-dir", fr],
           fr, ("fr.mdck",), _report_steps("fr_report.csv")),
    ]


def score_ops(data, models, out):
    ops = []
    for family in FAMILIES:
        protocol = os.path.join(data, f"protocol-{family}.tsv")
        target = os.path.join(out, f"eval-{family}")
        ops.append(Op(
            f"eval {family}", "cli.eval",
            ["eval", "--data-dir", data, "--out-dir", target,
             "--checkpoint", os.path.join(models, "v2", "checkpoint.mdck"),
             "--fr-checkpoint", os.path.join(models, "fr", "fr.mdck"),
             "--fuse-mode", "dissimilarity", "--protocol", protocol],
            target, ("scores.tsv", "scores_fused.tsv", "metrics.csv"), _scored_pairs(protocol)))
    return ops


class Runner:
    """Runs operations through the CLI and checks their outputs."""

    def __init__(self, reference=None):
        self.reference = reference  # {op key: {output: digest}} or None
        self.digests = {}  # first digests seen in this run
        self.attempted = 0
        self.failures = {}  # attempt index -> problems
        self.tracer = None  # set while a round is traced
        self.probe = None  # speedprobe.SpeedProbe of an untraced run
        self.timings = []  # (op key, wall, slowdown) per command

    def fail(self, problem, attempt=None):
        """Record a problem against the current operation, or against
        attempt 0, which stands for the checks of the whole run."""
        key = self.attempted if attempt is None else attempt
        self.failures.setdefault(key, []).append(problem)

    def run(self, op):
        """Run one command; returns its Timing."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(op.span) if self.tracer else contextlib.nullcontext()
        samples = []
        probe = self.probe.sampling(samples) if self.probe else contextlib.nullcontext()
        with span, probe, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(op.argv)
            wall = time.perf_counter() - start
        slowdown = speedprobe.slowdown(samples)
        self.timings.append((op.key, wall, slowdown))
        if code != 0:
            raise OpFailed(f"{op.key} exited {code}: {err.getvalue().strip()[-400:]}")
        units = 0
        try:
            for output in op.outputs:
                digest = digest_path(os.path.join(op.base, output))
                first = self.digests.setdefault(op.key, {}).setdefault(output, digest)
                if digest != first:
                    self.fail(f"{op.key}: {output} differs from its first run")
                if self.reference is not None:
                    expected = self.reference.get(op.key, {}).get(output)
                    if digest != expected:
                        self.fail(f"{op.key}: {output} differs from the reference digest")
            if op.count is not None:
                units = op.count(op.base)
        except CheckFailed as exc:
            self.fail(f"{op.key}: {exc}")
        return Timing(units, wall / slowdown)

    def run_stage(self, ops):
        """Run ops in order; returns their summed Timing."""
        return sum((self.run(op) for op in ops), Timing())


@dataclass
class Rates:
    """Rate samples, each at the probe's reference speed."""

    corpus: list = field(default_factory=list)  # images written per second
    detector: list = field(default_factory=list)  # detector steps per second
    fr: list = field(default_factory=list)  # identity-classifier steps per second
    score: list = field(default_factory=list)  # protocol pairs scored per second
    build_s: list = field(default_factory=list)  # seconds per corpus build


@dataclass
class Phase:
    """The rounds of one stage in a run."""

    stage: str
    walls: list = field(default_factory=list)  # (traced, wall seconds) per round
    totals: list = field(default_factory=list)  # tracer round totals per traced round
    spans: list = field(default_factory=list)  # (round, spans) per traced round


class Bench:
    """One workload run: its CYCLE of stages, as the module docstring says."""

    def __init__(self, workload, seed, seconds, trace, cfg=DESK, work=None, reference=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cfg = cfg
        self.work = Path(work) if work else WORK_ROOT / f"{workload}-s{seed}{'-trace' if trace else ''}"
        self.runner = Runner(reference)
        if not trace:
            self.runner.probe = speedprobe.SpeedProbe()
        self.rates = Rates()
        self.startups = []  # start-up probe wall times at the reference speed
        self.startup_walls = []  # and as measured
        self.phases = {}  # stage -> Phase
        self.traced_stages = TRACED_STAGES[workload] if trace else ()
        self.heldout = None  # (unfused, fused) APCER from the last latent eval

    def path(self, *parts):
        return str(self.work.joinpath(*parts))

    # -- stages ----------------------------------------------------------

    def corpus(self, name):
        data = self.path(name, "data")
        timing = self.runner.run_stage(corpus_ops(data, self.seed, self.cfg))
        self.rates.corpus.append(timing.rate)
        self.rates.build_s.append(timing.reference_wall)
        return data

    def train(self, data, name):
        out = self.path(name)
        ops = train_ops(data, out, self.seed, self.cfg)
        self.rates.detector.append(self.runner.run(ops[0]).rate)
        self.rates.fr.append(self.runner.run(ops[1]).rate)
        return out

    def score(self, data, models, name):
        out = self.path(name)
        self.rates.score.append(self.runner.run_stage(score_ops(data, models, out)).rate)
        metrics = os.path.join(out, f"eval-{HELDOUT_FAMILY}", "metrics.csv")
        with open(metrics, "r", encoding="utf-8") as fh:
            rows = [line.strip().split(",") for line in fh.readlines()[1:]]
        apcer = {method: float(value) for method, delta, value, _tau in rows
                 if delta == HELDOUT_DELTA}
        self.heldout = (apcer["mad"], apcer["fused-dissimilarity"])

    # -- the run ---------------------------------------------------------

    def stage_round(self, stage, run_round):
        """One round of a stage. In trace mode a traced stage runs its first
        round untraced and every later round traced."""
        phase = self.phases.setdefault(stage, Phase(stage))
        index = len(phase.walls)
        tracer = tracing.Tracer() if stage in self.traced_stages and index > 0 else None
        if tracer:
            tracing.install(tracer)
            self.runner.tracer = tracer
        began = time.perf_counter()
        try:
            result = run_round(f"{stage}-r{index}")
        finally:
            if tracer:
                tracer.uninstall()
                self.runner.tracer = None
        phase.walls.append((tracer is not None, time.perf_counter() - began))
        if tracer:
            phase.totals.append(tracing.round_totals(tracer.spans, tracer.counts))
            phase.spans.append((index, tracer.spans))
        return result

    def rounds(self, stage):
        """(rounds run, rounds needed, last wall time) of a stage."""
        if stage == "startup":
            walls = self.startup_walls
        else:
            walls = [wall for _traced, wall in self.phases.get(stage, Phase(stage)).walls]
        if stage in self.traced_stages:
            least = MIN_TRACED_ROUNDS
        else:
            least = 2 if stage in MIN_RERUN[self.workload] else 1
        return len(walls), least, walls[-1] if walls else 0.0

    def execute(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cycle = CYCLE[self.workload]
        start = time.perf_counter()
        for position in itertools.count():
            stage = cycle[position % len(cycle)]
            short = any(run < least for run, least, _wall in map(self.rounds, cycle))
            if not short and time.perf_counter() - start + self.rounds(stage)[2] > self.seconds:
                break
            if stage == "startup":
                wall, reference_wall = startup_time(probed=self.runner.probe is not None)
                self.startup_walls.append(wall)
                self.startups.append(reference_wall)
            elif stage in ("corpus", "setup"):
                data = self.stage_round(stage, self.corpus)
            elif stage == "train":
                models = self.stage_round(stage, lambda name: self.train(data, name))
            else:
                self.stage_round(stage, lambda name: self.score(data, models, name))

    # -- results ---------------------------------------------------------

    @property
    def setup_s(self):
        """Start-up of the CLI, plus on `train` one build of the input corpus
        at the reference speed; each the median over the run's samples,
        which a single cold or disturbed sample does not move."""
        build = statistics.median(self.rates.build_s) if "setup" in self.phases else 0.0
        return statistics.median(self.startups) + build

    def end_to_end(self):
        return {
            "setup_s": (self.setup_s, "s"),
            "corpus_images_per_s": (statistics.median(self.rates.corpus), "1/s"),
            "detector_steps_per_s": (statistics.median(self.rates.detector), "1/s"),
            "fr_steps_per_s": (statistics.median(self.rates.fr), "1/s"),
            "score_pairs_per_s": (statistics.median(self.rates.score), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self):
        """Per traced phase: counts of its traced rounds, which must repeat
        exactly, and medians of its times; then summed over phases."""
        totals = {}
        overhead = 0.0
        for phase in self.phases.values():
            if not phase.totals:
                continue
            for key in set().union(*phase.totals):
                values = [round_totals.get(key, 0) for round_totals in phase.totals]
                if tracing.is_count(key):
                    if any(v != values[0] for v in values):
                        self.runner.fail(f"{phase.stage}: count {key} differs between "
                                         f"traced rounds: {values}", 0)
                    value = values[0]
                else:
                    value = statistics.median(values)
                totals[key] = totals.get(key, 0) + value
            traced = [wall for is_traced, wall in phase.walls if is_traced]
            untraced = [wall for is_traced, wall in phase.walls if not is_traced]
            overhead += statistics.median(traced) - statistics.median(untraced)
        out = {name: (value, tracing.unit(name))
               for name, value in tracing.layer_metrics(totals).items()}
        unfused, fused = self.heldout
        out["evalbench.heldout_apcer"] = (unfused, "ratio")
        out["evalbench.fused_heldout_apcer"] = (fused, "ratio")
        out["trace.overhead_s"] = (overhead, "s")
        out["failed_ops_ratio"] = (self.failed / self.runner.attempted, "ratio")
        return out

    @property
    def failed(self):
        return len(self.runner.failures)

    def result(self):
        metrics = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": self.failed == 0,
            "attempted": self.runner.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }

    def write_artifacts(self, result, machine):
        """Keep the result, the failures, the round walls and the spans; drop
        the generated data."""
        for entry in self.work.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry)
        details = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "machine": machine, "result": result,
            "reference_checked": self.runner.reference is not None,
            "failures": self.runner.failures, "rates": self.rates.__dict__,
            "startups": self.startups, "timings": self.runner.timings,
            "round_walls": {stage: phase.walls for stage, phase in self.phases.items()},
        }
        with open(self.work / "result.json", "w", encoding="utf-8") as fh:
            json.dump(details, fh, indent=1, sort_keys=True)
        traced = [(f"{phase.stage}-r{index}", spans)
                  for phase in self.phases.values() for index, spans in phase.spans]
        if traced:
            tracing.write_spans(self.work / "spans.tsv", traced)


# The start-up probe: import the CLI with the loop-only speed probe running,
# then print its kernel times.
STARTUP_SCRIPT = """\
import json, speedprobe
samples = []
with speedprobe.SpeedProbe(products=False).sampling(samples):
    import morphdet.cli
print(json.dumps(samples))
"""


def startup_time(probed):
    """Wall time of a fresh interpreter that imports the CLI, which every
    `morphdet` command pays before it starts work: as measured, and at the
    probe's reference speed if `probed`."""
    command = [sys.executable, "-c", STARTUP_SCRIPT if probed else "import morphdet.cli"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]))
    start = time.perf_counter()
    done = subprocess.run(command, env=env, cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if not probed:
        return wall, wall
    samples = json.loads(done.stdout)
    return wall, wall / speedprobe.slowdown(samples, speedprobe.REFERENCE_LOOP_MS)


def numeric_platform():
    """What output bytes depend on besides the code: the NumPy build, its
    SIMD level and the BLAS build."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "simd": config.get("SIMD Extensions", {}).get("found"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def machine_facts():
    import scipy

    return {
        **numeric_platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "loadavg_start": _LOADAVG_START,
        "loadavg_end": _loadavg(),
    }


def load_reference(seed):
    """The seed-0 reference digests, when they apply: output bytes are only
    promised equal on the numeric platform they were recorded on."""
    if seed != 0:
        return None
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    if reference["platform"] != numeric_platform():
        print(f"note: reference digests were recorded on {reference['platform']}; "
              "checking reruns only", file=sys.stderr)
        return None
    return reference["digests"]


def main(argv=None):
    # run.py passes its command line through unchanged, so usage names it
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  reference=load_reference(args.seed))
    try:
        bench.execute()
    except OpFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = bench.result()
    machine = machine_facts()
    bench.write_artifacts(result, machine)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
