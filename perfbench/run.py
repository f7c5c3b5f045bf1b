"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_compare --seed 1 \
        --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's tracing
off; their times are at a reference host speed (see ``HostSpeed``).
``--trace 1`` makes the separate traced run that gives the per-layer
metrics, in wall-clock seconds. The last line of standard output is the
result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it a report with the seed, the workload shape, the
host fingerprint, sample counts and every failure. Metric names, units
and bounds are in ``BENCHMARK.json``; the layer map is in
``perfbench/layers.py``. Compare numbers only from one host.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where the traced run writes its spans when it ends.
OUT_DIR = ROOT / ".perfbench_out"

#: Timed set-up passes over all sub-workloads; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Timed operations per sub-workload, at least, whatever ``--seconds``.
MIN_ROUNDS = 2


def load_program():
    """Import the program from ``src/``; returns the workloads module."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )
    import workloads

    return workloads


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Book:
    """Inputs attempted and failed, and the determinism guard.

    Each input counts once, with the workload's ``operations``: it is
    attempted once per run and failed if any of its runs raised or failed
    a check. So ``attempted`` and ``failed`` depend on the seed only, not
    on how many repetitions fit in the run, and the failed share is the
    share of failing inputs. An input that raised is run again on every
    round like the others. The first outcome of each input fixes its
    deterministic values; every later outcome of that input (repetitions,
    and the traced run) must match them exactly, or the input fails.
    ``wrong`` is set when an output was wrong, which makes the run
    incorrect; an input that only raised leaves it unset.
    """

    def __init__(self, workload, keys) -> None:
        self.workload = workload
        self.keys = list(keys)
        self.failed_keys: set[int] = set()
        self.wrong = False
        self.errors: list[str] = []
        self.values: dict[int, dict] = {}
        self.outcomes: dict[int, object] = {}

    @property
    def attempted(self) -> int:
        return self.workload.operations * len(self.keys)

    @property
    def failed(self) -> int:
        return self.workload.operations * len(self.failed_keys)

    def attempt(self, key: int, run, *, label: str):
        """``run()`` → ``(input, raw result)``, evaluated; None on failure."""
        full = key not in self.values
        try:
            inp, raw = run()
            outcome = self.workload.evaluate(inp, raw, full)
        except Exception:  # the benchmark keeps going and reports it
            self.failed_keys.add(key)
            self.errors.append(f"{label} input {key}: raised\n"
                               + traceback.format_exc())
            return None
        problems = list(outcome.failures)
        reference = self.values.setdefault(key, outcome.values)
        self.outcomes.setdefault(key, outcome)
        if outcome.values != reference:
            changed = sorted(
                k for k in reference.keys() | outcome.values.keys()
                if reference.get(k) != outcome.values.get(k)
            )
            problems.append(f"non-deterministic values: {changed}")
        if problems:
            self.failed_keys.add(key)
            self.wrong = True
            self.errors.extend(f"{label} input {key}: {p}" for p in problems)
        return outcome

    def fail_run(self, *errors: str) -> None:
        """A check of the whole run failed: every input counts as failed."""
        self.failed_keys.update(self.keys)
        self.wrong = True
        self.errors.extend(errors)


#: Iterations of the calibration loop, which takes about ``REF_LOOP_S``
#: on an idle core of a 2.1 GHz Xeon.
CAL_ITERATIONS = 45_000
#: The calibration loop's time at the reference host speed, in seconds.
REF_LOOP_S = 0.005
#: Calibration loops per sample; a sample takes the fastest.
CAL_REPEATS = 3


def _calibration_loop() -> int:
    acc = 0
    table = {}
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc


class HostSpeed:
    """How slow the host runs now, from a fixed pure-Python loop.

    A shared host's cores change speed by half within a minute as
    neighbours come and go, and the program slows with them. The timed
    metrics are therefore wall-clock times divided by the host's
    slowness, sampled right before and right after each timed stretch:
    seconds at the reference speed, where the calibration loop takes
    ``REF_LOOP_S``. The raw wall-clock figures are in the report.

    Measured on a 2-vCPU shared VM, the log of an operation's time rises
    with the log of this loop's time with a slope of 0.75-1.0 across the
    workloads. A loop of random reads from a large dict followed the
    program less well (slope 0.6-1.4), so it is not used.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Slowness now: the loop's time over ``REF_LOOP_S``."""
        best = math.inf
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            _calibration_loop()
            best = min(best, time.perf_counter() - start)
        slowness = best / REF_LOOP_S
        self.samples.append(slowness)
        return slowness


# ----------------------------------------------------------------------
def _keys(seed: int, shape: dict) -> list[int]:
    return [seed * shape["subworkloads"] + k
            for k in range(shape["subworkloads"])]


def measure_end_to_end(wl, seed: int, seconds: float, shape: dict) -> dict:
    """The untraced run: every end-to-end metric.

    Timed metrics are at the reference host speed (see ``HostSpeed``):
    each timed stretch is divided by the slowness sampled around it.
    """
    from workloads import rounds_scale

    keys = _keys(seed, shape)
    book = Book(wl, keys)
    scales = {key: rounds_scale(key, shape) for key in keys}
    base_rss = _maxrss_bytes()

    # Peak memory first, in a process that has only imported: the run's
    # inputs plus the largest working set of one warm-up pass over them.
    # The warm-up runs the registry's own schedulers, so it also anchors
    # the determinism guard for the decision-timing subclasses.
    inputs = [wl.prepare(key, shape, scales[key]) for key in keys]
    for inp in inputs:
        gc.collect()
        book.attempt(inp.key, lambda inp=inp: (inp, wl.run(inp, None)),
                     label="warm-up")
    peak_mem_b = _maxrss_bytes() - base_rss
    references = {inp.key: wl.reference(inp) for inp in inputs}
    speed = HostSpeed()

    # Set-up: whole passes over the inputs, each between two samples of
    # the host's speed; setup_s is the median pass, per input.
    setup_passes: list[float] = []
    setup_walls: list[float] = []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        wall = 0.0
        for key in keys:
            gc.collect()
            start = time.perf_counter()
            wl.prepare(key, shape, scales[key])
            wall += time.perf_counter() - start
        slowness = (before + speed.sample()) / 2
        setup_walls.append(wall / len(keys))
        setup_passes.append(wall / len(keys) / slowness)

    # Operations round-robin over the inputs until the time is up, each
    # between two samples of the host's speed. An input makes the same
    # decisions on every repetition, so each decision's time is the
    # median of its repetitions, which keeps host noise out of the tail.
    decision_reps: dict[int, list[list[float]]] = {key: [] for key in keys}
    op_times: dict[int, list[float]] = {key: [] for key in keys}
    op_walls: dict[int, list[float]] = {key: [] for key in keys}
    ops = 0
    deadline = time.perf_counter() + seconds
    while ops < MIN_ROUNDS * len(inputs) or time.perf_counter() < deadline:
        inp = inputs[ops % len(inputs)]
        ops += 1
        gc.collect()
        timing: list[float] = []
        samples: list[float] = []

        def timed_run(inp=inp, timing=timing, samples=samples):
            start = time.perf_counter()
            raw = wl.run(inp, samples)
            timing.append(time.perf_counter() - start)
            return inp, raw

        before = speed.sample()
        outcome = book.attempt(inp.key, timed_run, label="timed")
        slowness = (before + speed.sample()) / 2
        if outcome is not None:
            op_walls[inp.key].append(timing[0])
            op_times[inp.key].append(timing[0] / slowness)
            decision_reps[inp.key].append([d / slowness for d in samples])

    done = [k for k in keys if op_times[k] and k in book.outcomes]
    metrics: dict[str, dict] = {}
    report = {
        "ops": ops,
        "host_slowness": _spread(speed.samples),
        "wall_setup_s": statistics.median(setup_walls),
    }
    if done:
        tasks = sum(book.outcomes[k].tasks for k in done)
        busy = sum(statistics.median(op_times[k]) for k in done)
        wjct = [book.outcomes[k].wjct for k in done]
        reference = [
            references[k] if references[k] is not None
            else book.values[k]["reference"]
            for k in done
        ]
        decisions = [
            statistics.median(reps)
            for k in done for reps in zip(*decision_reps[k])
        ]
        p50, p90 = _percentiles(decisions, (50, 90))
        metrics = {
            "setup_s": (statistics.median(setup_passes), "s"),
            "tasks_per_s": (tasks / busy, "tasks/s"),
            "decision_p50_ms": (p50 * 1e3, "ms"),
            "decision_p90_ms": (p90 * 1e3, "ms"),
            "peak_mem_mb": (peak_mem_b / 2**20, "MB"),
            "weighted_jct_s": (statistics.fmean(wjct), "sim_s"),
            "jct_gain_x": (sum(reference) / sum(wjct), "x"),
            "success_frac": (1.0 - book.failed / book.attempted, "frac"),
        }
        report["wall_tasks_per_s"] = tasks / sum(
            statistics.median(op_walls[k]) for k in done
        )
        report["samples"] = {
            "setup_s": len(setup_passes),
            "tasks_per_s": sum(len(op_times[k]) for k in done),
            "decision_p50_ms": len(decisions),
            "decision_p90_ms": len(decisions),
            "peak_mem_mb": 1,
            "weighted_jct_s": len(done),
            "jct_gain_x": len(done),
            "success_frac": len(keys),
        }
        report["per_input"] = {
            str(k): {
                "tasks": book.outcomes[k].tasks,
                "op_s_median": statistics.median(op_times[k]),
                "wall_op_s_median": statistics.median(op_walls[k]),
                "ops": len(op_times[k]),
                "weighted_jct_s": book.outcomes[k].wjct,
                "reference_wjct_s": ref,
                **book.outcomes[k].report,
            }
            for k, ref in zip(done, reference)
        }
    return _result(book, metrics, report)


def _spread(values: list[float]) -> dict:
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values)}


def _percentiles(samples: list[float], qs) -> list[float]:
    if not samples:
        return [math.nan for _ in qs]
    import numpy

    return [float(v) for v in numpy.percentile(samples, qs)]


# ----------------------------------------------------------------------
def measure_per_layer(wl, seed: int, seconds: float, shape: dict) -> dict:
    """The traced run: every per-layer metric.

    Each round runs every sub-workload untraced and then traced, from
    set-up to validated result. The reported round is the one with the
    median traced wall time, so its layer self times and
    ``trace.unattributed_s`` sum to its ``trace.wall_s`` exactly.
    """
    import tracing
    from layers import LAYER_MAP
    from workloads import rounds_scale

    keys = _keys(seed, shape)
    book = Book(wl, keys)
    scales = {key: rounds_scale(key, shape) for key in keys}

    def unit(key: int, decisions, out: list):
        return _unit(wl, key, shape, scales[key], decisions, out)

    for key in keys:  # warm-up; fixes each input's deterministic values
        book.attempt(key, lambda key=key: unit(key, None, []),
                     label="warm-up")

    rounds: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        plain_wall = traced_wall = 0.0
        units = []
        for key in keys:
            plain: list = []
            gc.collect()
            if book.attempt(
                key,
                lambda key=key, plain=plain: unit(key, [], plain),
                label="untraced",
            ) is not None:
                plain_wall += plain[1]

            recorder = tracing.SpanRecorder()
            traced: list = []
            gc.collect()

            def traced_unit(key=key, recorder=recorder, traced=traced):
                with tracing.traced(recorder):
                    return unit(key, [], traced)

            outcome = book.attempt(key, traced_unit, label="traced")
            if outcome is None:
                continue
            inp, wall, t0, t1 = traced
            traced_wall += wall
            units.append({
                "key": key,
                "wall_s": wall,
                "input": inp,
                "outcome": outcome,
                "spans": recorder.spans,
                "items": recorder.items,
                "t0": t0,
                "t1": t1,
            })
        rounds.append({
            "plain_wall": plain_wall,
            "traced_wall": traced_wall,
            "units": units,
        })

    removed = tracing.wrappers_removed()
    if not removed:
        book.fail_run("span wrappers were not removed")
    # A round is complete when every input that ever ran cleanly ran
    # cleanly in it; an input that always raises is in no round.
    healthy = len(book.outcomes)
    complete = [r for r in rounds if healthy and len(r["units"]) == healthy]
    metrics: dict[str, dict] = {}
    report = {"rounds": len(rounds), "layer_map": LAYER_MAP}
    if complete:
        ordered = sorted(complete, key=lambda r: r["traced_wall"])
        chosen = ordered[(len(ordered) - 1) // 2]
        overhead = (
            statistics.median(r["traced_wall"] for r in complete)
            / statistics.median(r["plain_wall"] for r in complete)
            - 1.0
        )
        metrics = _layer_metrics(tracing, chosen, overhead)
        problems = _span_problems(tracing, chosen, metrics)
        if problems:
            book.fail_run(*problems)
        report["samples"] = {"rounds": len(complete)}
        report["spans_file"] = str(_write_spans(wl.name, seed, chosen))
    report["wrappers_removed"] = removed
    return _result(book, metrics, report)


def _unit(wl, key: int, shape: dict, scale: float, decisions, out: list):
    """Set up one input and run it.

    ``out`` gets ``[input, wall seconds, start, end]``. The traced run's
    unit of work: its spans cover set-up too, so the ``workload`` layer
    is measured.
    """
    start = time.perf_counter()
    inp = wl.prepare(key, shape, scale)
    raw = wl.run(inp, decisions)
    end = time.perf_counter()
    out[:] = [inp, end - start, start, end]
    return inp, raw


#: Slack for float rounding in the span checks, in seconds.
SPAN_SLACK_S = 1e-9


def _span_problems(tracing, chosen: dict, metrics: dict) -> list[str]:
    """Checks the traced decomposition can fail.

    Every span lies inside its unit's wall interval and inside its
    parent; so no span's self time, no layer's self time and not
    ``trace.unattributed_s`` can be negative.
    """
    problems = []
    for unit in chosen["units"]:
        spans = unit["spans"]
        for i, (name, start, end, parent) in enumerate(spans):
            lo, hi = ((unit["t0"], unit["t1"]) if parent < 0
                      else spans[parent][1:3])
            if not lo <= start <= end <= hi:
                problems.append(
                    f"input {unit['key']}: span {i} ({name}) "
                    f"[{start!r}, {end!r}] leaves [{lo!r}, {hi!r}]"
                )
        own = tracing.summarize(spans)["self_by_span"]
        if own and min(own) < -SPAN_SLACK_S:
            problems.append(
                f"input {unit['key']}: negative span self time {min(own)!r}"
            )
    for layer in tracing.LAYERS:
        value = metrics[f"trace.self.{layer}_s"][0]
        if value < -SPAN_SLACK_S:
            problems.append(f"negative self time of layer {layer}: {value!r}")
    unattributed = metrics["trace.unattributed_s"][0]
    if unattributed < -SPAN_SLACK_S:
        problems.append(f"negative trace.unattributed_s: {unattributed!r}")
    return problems


def _layer_metrics(tracing, chosen: dict, overhead: float):
    spans: list[list] = []
    items: dict[str, int] = {}
    for unit in chosen["units"]:
        offset = len(spans)
        spans.extend(
            [n, s, e, p + offset if p >= 0 else -1]
            for n, s, e, p in unit["spans"]
        )
        for name, n in unit["items"].items():
            items[name] = items.get(name, 0) + n
    summary = tracing.summarize(spans)
    inc = summary["inclusive"]
    self_by_name = summary["self_by_name"]
    outcomes = [u["outcome"] for u in chosen["units"]]

    def total(name: str) -> float:
        return sum(o.values.get(name, 0) for o in outcomes)

    def timing(name: str, combine=sum) -> float:
        found = [o.timings[name] for o in outcomes if name in o.timings]
        return combine(found) if found else 0.0

    wall = chosen["traced_wall"]
    unattributed = wall - summary["top_level"]
    placed = items.get("list_schedule", 0)
    hits, misses = (total("kernel.residual_cache_hits"),
                    total("kernel.residual_cache_misses"))
    imbalance = [o.values["cells.load_imbalance"] for o in outcomes
                 if "cells.load_imbalance" in o.values]
    values = {
        "workload.generate_s": (inc.get("generate", 0.0), "s"),
        "workload.profile_s": (inc.get("profile", 0.0), "s"),
        "workload.matrix_bytes": (
            sum(u["input"].matrix_bytes for u in chosen["units"]), "B"
        ),
        "schedulers.relaxation_s": (inc.get("relaxation", 0.0), "s"),
        "schedulers.relaxation_calls": (
            summary["calls"].get("relaxation", 0), "count"
        ),
        "schedulers.order_s": (inc.get("order", 0.0), "s"),
        "schedulers.list_schedule_s": (inc.get("list_schedule", 0.0), "s"),
        "schedulers.tasks_placed": (placed, "count"),
        "schedulers.baselines_s": (inc.get("baseline", 0.0), "s"),
        "kernel.loop_s": (self_by_name.get("run_policy", 0.0), "s"),
        "kernel.events": (total("kernel.events"), "count"),
        "kernel.commitments": (total("kernel.commitments"), "count"),
        "kernel.replans": (total("kernel.replans"), "count"),
        "kernel.retracted_rounds": (total("kernel.retracted_rounds"), "count"),
        "kernel.useful_ratio": (
            sum(o.tasks for o in outcomes) / placed if placed else 0.0,
            "ratio",
        ),
        "kernel.residual_build_s": (inc.get("residual_build", 0.0), "s"),
        "kernel.residual_solve_s": (inc.get("residual_solve", 0.0), "s"),
        "kernel.residual_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        ),
        "cells.partition_s": (inc.get("partition", 0.0), "s"),
        "cells.admission_s": (inc.get("admission", 0.0), "s"),
        "cells.cell_sum_s": (timing("cells.cell_sum_s"), "s"),
        "cells.cell_max_s": (timing("cells.cell_max_s", max), "s"),
        "cells.merge_s": (self_by_name.get("run_sharded", 0.0), "s"),
        "cells.load_imbalance": (
            statistics.fmean(imbalance) if imbalance else 0.0, "ratio"
        ),
        "sim.replay_s": (inc.get("replay", 0.0), "s"),
        "sim.tasks_completed": (total("sim.tasks_completed"), "count"),
        "core.validate_s": (inc.get("validate", 0.0), "s"),
        "obs.sink_s": (inc.get("record", 0.0), "s"),
        "obs.records": (total("obs.records"), "count"),
        "obs.diagnose_s": (inc.get("diagnose", 0.0), "s"),
        "obs.attribution_s": (inc.get("attribution", 0.0), "s"),
        "heal.actions_applied": (total("heal.actions_applied"), "count"),
        "control.plan_s": (timing("control.plan_s"), "s"),
        "control.replans": (total("control.replans"), "count"),
        "control.lost_rounds": (total("control.lost_rounds"), "count"),
        "faults.detection_s": (inc.get("detection", 0.0), "s"),
        "faults.heartbeats_sent": (total("faults.heartbeats_sent"), "count"),
        "faults.rpc_retries": (total("faults.rpc_retries"), "count"),
        "trace.wall_s": (wall, "s"),
        **{
            f"trace.self.{layer}_s": (seconds, "s")
            for layer, seconds in summary["self_by_layer"].items()
        },
        "trace.unattributed_s": (unattributed, "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    return values


def _write_spans(workload: str, seed: int, chosen: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["name", "start_s", "end_s", "parent"],
        "units": [
            {
                "key": u["key"],
                "wall_s": u["wall_s"],
                "spans": [
                    [n, s - u["t0"], e - u["t0"], p]
                    for n, s, e, p in u["spans"]
                ],
            }
            for u in chosen["units"]
        ],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path


def _result(book: Book, metrics: dict, report: dict) -> dict:
    report["failures"] = book.errors
    return {
        "report": report,
        "result": {
            "correct": not book.wrong and bool(metrics),
            "attempted": book.attempted,
            "failed": book.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
    }


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool,
            *, toy: bool = False) -> dict:
    """One benchmark run; returns ``{"report": ..., "result": ...}``.

    ``toy`` picks the toy-size shapes, for the self-test.
    """
    workloads = load_program()
    wl = workloads.WORKLOADS[workload]
    shape = wl.shapes["toy" if toy else "full"]
    run = measure_per_layer if trace else measure_end_to_end
    out = run(wl, seed, seconds, shape)
    out["report"] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "shape": shape,
        "host": host_fingerprint(),
        **out["report"],
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_compare", "online_replan",
                                 "sharded_cells", "chaos_recovery"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["report"]["failures"]:
        print(line, file=sys.stderr)
    if not out["result"]["metrics"]:
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
