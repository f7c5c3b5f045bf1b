"""Self-test of the benchmark at toy size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math

import pytest

import run
import tracing
from layers import LAYER_MAP, PER_LAYER_METRICS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 3


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module", params=WORKLOADS)
def workload(request):
    return request.param


def test_benchmark_json_matches_the_code():
    workloads = run.load_program()
    assert WORKLOADS == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert list(_units("per_layer")) == PER_LAYER_METRICS
    assert list(LAYER_MAP) == list(tracing.LAYERS)
    assert {layer for layer, *_ in tracing.TARGETS} == set(tracing.LAYERS)


def test_end_to_end_metrics_emitted_with_units(workload):
    out = run.measure(workload, SEED, 0, False, toy=True)
    result = out["result"]
    assert result["correct"], out["report"]["failures"]
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]), name
        assert out["report"]["samples"][name] >= 1, name


def test_traced_run_decomposes_and_unwraps(workload):
    out = run.measure(workload, SEED, 0, True, toy=True)
    result = out["result"]
    assert result["correct"], out["report"]["failures"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    parts = [
        metrics[f"trace.self.{layer}_s"]["value"] for layer in tracing.LAYERS
    ]
    parts.append(metrics["trace.unattributed_s"]["value"])
    assert math.fsum(parts) == pytest.approx(
        metrics["trace.wall_s"]["value"], rel=1e-9, abs=1e-12
    )
    assert min(parts) >= 0.0
    assert out["report"]["wrappers_removed"]
    assert tracing.wrappers_removed()


def test_wrappers_removed_when_the_traced_block_raises():
    run.load_program()
    recorder = tracing.SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracing.traced(recorder):
            assert not tracing.wrappers_removed()
            raise RuntimeError("boom")
    assert tracing.wrappers_removed()


def test_self_time_excludes_children():
    spans = [
        ["run_policy", 0.0, 10.0, -1],
        ["relaxation", 1.0, 4.0, 0],
        ["list_schedule", 5.0, 6.0, 0],
        ["replay", 11.0, 12.0, -1],
        ["replay", 11.2, 11.8, 3],
    ]
    summary = tracing.summarize(spans)
    assert summary["self_by_name"]["run_policy"] == pytest.approx(6.0)
    assert summary["self_by_layer"]["schedulers"] == pytest.approx(4.0)
    assert summary["inclusive"]["replay"] == pytest.approx(1.0)
    assert summary["top_level"] == pytest.approx(11.0)
    assert math.fsum(summary["self_by_layer"].values()) == pytest.approx(
        summary["top_level"]
    )


def _chosen(spans, t0=0.0, t1=20.0):
    return {"units": [{"key": 0, "spans": spans, "t0": t0, "t1": t1}]}


def _metrics(self_time=0.0, unattributed=0.0):
    metrics = {
        f"trace.self.{layer}_s": (self_time, "s")
        for layer in tracing.LAYERS
    }
    metrics["trace.unattributed_s"] = (unattributed, "s")
    return metrics


def test_span_checks_pass_nested_spans():
    spans = [["run_policy", 1.0, 10.0, -1], ["relaxation", 2.0, 4.0, 0]]
    assert run._span_problems(tracing, _chosen(spans), _metrics()) == []


@pytest.mark.parametrize(
    "spans, t1, metrics",
    [
        # a top-level span ends after its unit
        ([["run_policy", 1.0, 30.0, -1]], 20.0, _metrics()),
        # a child outlives its parent, so the parent's self time is < 0
        ([["run_policy", 1.0, 3.0, -1], ["relaxation", 2.0, 5.0, 0]],
         20.0, _metrics()),
        ([["run_policy", 1.0, 3.0, -1]], 20.0, _metrics(self_time=-1.0)),
        ([["run_policy", 1.0, 3.0, -1]], 20.0, _metrics(unattributed=-1.0)),
    ],
)
def test_span_checks_catch_broken_decompositions(spans, t1, metrics):
    assert run._span_problems(tracing, _chosen(spans, t1=t1), metrics)


class _Raising:
    operations = 3

    def evaluate(self, inp, raw, full):
        raise AssertionError("not reached")


def test_counts_depend_on_inputs_not_repetitions():
    def boom():
        raise RuntimeError("boom")

    book = run.Book(_Raising(), keys=[1, 2, 3, 4])
    for _ in range(5):
        assert book.attempt(2, boom, label="timed") is None
    assert (book.attempted, book.failed) == (12, 3)
    assert not book.wrong
    book.fail_run("a whole-run check failed")
    assert (book.attempted, book.failed) == (12, 12)
    assert book.wrong


def test_host_speed_samples_are_positive():
    speed = run.HostSpeed()
    assert speed.sample() > 0.0
    assert len(speed.samples) == 1
