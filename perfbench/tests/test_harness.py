"""Self-test of the benchmark harness on a tiny corpus (6 identities x 3
renders at 16 px). Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import speedprobe  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module", params=worker.WORKLOADS)
def traced_bench(request, tmp_path_factory):
    """A traced run: in each traced phase round 0 is untraced, rounds 1 and
    2 are traced."""
    bench = worker.Bench(request.param, 3, 0.0, True, cfg=worker.TINY,
                         work=tmp_path_factory.mktemp(request.param))
    bench.execute()
    return bench


def check_nesting(spans):
    """Problems with the span tree: a child outside its parent's interval,
    overlapping siblings, or a negative self time. Empty when well formed."""
    problems = []
    last_child_end = {}
    child_time = [0.0] * len(spans)
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} {name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end, _ = spans[parent]
            if parent >= index or start < p_start or end > p_end:
                problems.append(f"span {index} {name} is not inside parent {parent} {p_name}")
            if start < last_child_end.get(parent, p_start):
                problems.append(f"span {index} {name} overlaps an earlier sibling")
            last_child_end[parent] = end
            child_time[parent] += end - start
    for index, (name, start, end, _parent) in enumerate(spans):
        if (end - start) - child_time[index] < 0.0:
            problems.append(f"span {index} {name} has negative self time")
    return problems


def _traced_phases(bench):
    return [phase for phase in bench.phases.values() if phase.totals]


def test_traced_outputs_are_byte_identical_to_untraced(traced_bench):
    # every op's outputs are digested and compared with its first run,
    # which in a traced phase is the untraced round 0
    assert traced_bench.runner.failures == {}
    assert traced_bench.runner.digests
    for phase in _traced_phases(traced_bench):
        assert [traced for traced, _wall in phase.walls][:3] == [False, True, True]


def test_spans_nest_under_their_parents_with_nonnegative_self_time(traced_bench):
    for phase in _traced_phases(traced_bench):
        for _index, spans in phase.spans:
            assert spans
            assert check_nesting(spans) == []
            roots = {name for name, _start, _end, parent in spans if parent < 0}
            assert roots and all(name.startswith("cli.") for name in roots)
        for totals in phase.totals:
            self_times = {k: v for k, v in totals.items() if k.endswith(".self_s")}
            assert self_times and min(self_times.values()) >= 0.0


def test_counts_repeat_between_traced_rounds(traced_bench):
    metrics = traced_bench.per_layer()
    assert traced_bench.runner.failures == {}
    assert metrics["failed_ops_ratio"][0] == 0.0
    for phase in _traced_phases(traced_bench):
        first, second = phase.totals[:2]
        assert {k: v for k, v in first.items() if tracer.is_count(k)} == \
            {k: v for k, v in second.items() if tracer.is_count(k)}


def test_layers_of_each_workload(traced_bench):
    metrics = {name: value for name, (value, _unit) in traced_bench.per_layer().items()}
    if traced_bench.workload == "corpus":
        assert metrics["morphgen.warp_affine_triangle.calls"] > 0
        assert metrics["pgm.write_pgm.calls"] > 0
        # the traced eval rounds: single-row forwards, no training
        assert metrics["nncore.backward.calls"] == 0
        assert metrics["nncore.forward.rows_per_call"] == 1.0
        assert metrics["evalbench.pairs_scored"] > 0
    else:
        assert metrics["morphgen.warp_affine_triangle.calls"] == 0
        assert metrics["evalbench.pairs_scored"] == 0
        # two backbones per detector step, one per identity-classifier step
        assert metrics["nncore.backward.calls"] == \
            metrics["datamine.sample_batch.calls"] + metrics["nncore.sgd_step.calls"]
        assert metrics["nncore.forward.rows_per_call"] == worker.TINY["batch_size"]
    assert 0.0 < metrics["evalbench.heldout_apcer"] <= 1.0


def test_benchmark_json_lists_exactly_the_reported_metrics(traced_bench):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = traced_bench.result()["metrics"]
    assert per_layer == {name: entry["unit"] for name, entry in reported.items()}


def test_tracing_is_removed_after_a_round(traced_bench):
    from morphdet import nncore, pgm, trainer

    assert trainer.read_pgm is pgm.read_pgm
    assert not hasattr(pgm.read_pgm, "__wrapped__")
    assert not hasattr(nncore.MlpBackbone.forward_cached, "__wrapped__")
    assert not hasattr(trainer.sgd_step, "__wrapped__")


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bench = worker.Bench("train", 3, 0.0, False, cfg=worker.TINY, work=tmp_path)
    bench.execute()
    result = bench.result()
    assert result["correct"] and result["failed"] == 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_a_changed_output_counts_as_a_failed_operation(tmp_path):
    reference = {"gen-data": {"images": "0" * 64}}
    bench = worker.Bench("corpus", 3, 0.0, False, cfg=worker.TINY, work=tmp_path,
                         reference=reference)
    bench.execute()
    problems = [p for items in bench.runner.failures.values() for p in items]
    assert any("gen-data: images differs from the reference digest" in p for p in problems)
    assert bench.result()["correct"] is False


def test_speed_probe_samples_while_running_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    samples = []
    with speedprobe.SpeedProbe().sampling(samples):
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(samples) > 1 and min(samples) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speedprobe.slowdown([]) == 1.0
    assert speedprobe.slowdown([2 * speedprobe.REFERENCE_MS]) == 2.0
