"""The benchmark's four workloads.

Every workload is a fixed-size batch: arrivals happen in simulated time,
so throughput is reported at the stated input size, not under a live
arrival rate. A run of one workload covers ``subworkloads`` independent
inputs drawn from the run's seed (sub-seed ``seed * subworkloads + k``),
so the deterministic metrics average over several inputs and stay steady
from seed to seed.

Each workload provides

* ``prepare(key, shape, scale)`` — the set-up step: generate the workload
  and cluster and profile them into a ``ProblemInstance`` (``setup_s``);
  ``scale`` is the input's :func:`rounds_scale`, worked out beforehand,
  outside every timed region;
* ``reference(inp)`` — the reference weighted JCT for ``jct_gain_x``,
  computed once per input outside every timed region;
* ``run(inp, decisions)`` — the timed operation, from instance in hand
  to a validated result; with a ``decisions`` list it runs Hare through
  a timing subclass that appends the host time of each scheduling
  decision, without it the registry's own scheduler;
* ``evaluate(inp, raw, full)`` — the output checks and the deterministic
  values, outside every timed region.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import DEFAULT_SCHEMES, ExperimentSpec, compare, run_experiment
from repro.cluster.cluster import scaled_cluster
from repro.control import ControlPlane
from repro.core.metrics import metrics_from_schedule
from repro.core.schedule import validate_schedule
from repro.faults import (
    FaultScenario,
    GpuCrash,
    GpuSlowdown,
    HeartbeatConfig,
    RpcFlakiness,
)
from repro.harness import experiments
from repro.kernel import ARRAY_KERNEL_TASK_LIMIT
from repro.obs import Obs, use
from repro.schedulers import HareScheduler, create
from repro.schedulers.online import OnlineHarePolicy, OnlineHareScheduler
from repro.sim.simulator import simulate_plan
from repro.workload.jobs import WorkloadConfig

#: Attribution components must sum to each job's JCT within this.
ATTRIBUTION_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# Decision timing: subclasses that only add a clock around the decision.
class TimedHare(HareScheduler):
    """Offline Hare; appends the host time of each ``schedule`` call."""

    def __init__(self, decisions: list[float]) -> None:
        super().__init__()
        self.decisions = decisions

    def schedule(self, instance):
        start = time.perf_counter()
        plan = super().schedule(instance)
        self.decisions.append(time.perf_counter() - start)
        return plan


class TimedOnlineHarePolicy(OnlineHarePolicy):
    """Online Hare; appends the host time of each re-planning wake-up."""

    def __init__(self, decisions: list[float], **kwargs) -> None:
        super().__init__(**kwargs)
        self.decisions = decisions

    def on_event(self, event, state):
        replans = self.replans
        start = time.perf_counter()
        out = super().on_event(event, state)
        if self.replans != replans:
            self.decisions.append(time.perf_counter() - start)
        return out


class TimedOnlineHare(OnlineHareScheduler):
    def __init__(self, decisions: list[float]) -> None:
        super().__init__()
        self.decisions = decisions

    def make_policy(self, instance):
        return TimedOnlineHarePolicy(
            self.decisions,
            relaxation=self.relaxation,
            placement=self.placement,
        )


# ----------------------------------------------------------------------
@dataclass
class Input:
    """One sub-workload: its sub-seed and everything set-up built."""

    key: int
    cluster: object
    jobs: tuple
    instance: object
    extra: dict = field(default_factory=dict)

    @property
    def matrix_bytes(self) -> int:
        inst = self.instance
        return int(inst.train_time.nbytes + inst.sync_time.nbytes)


@dataclass
class Outcome:
    """What one operation produced, as the benchmark checks and reports it.

    ``values`` holds everything deterministic (compared exactly across
    repetitions and between the traced and untraced runs); ``timings``
    holds host times the program measured itself; ``report`` goes into
    the run's per-input report.
    """

    tasks: int
    wjct: float
    values: dict
    failures: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)


def schedule_digest(schedule) -> str:
    """Content hash of a schedule's assignments (order-independent)."""
    rows = sorted(
        (
            a.task.job_id, a.task.round_idx, a.task.slot, a.gpu,
            a.start, a.train_time, a.sync_time,
        )
        for a in schedule.assignments.values()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _counter(snapshot: dict, name: str) -> float:
    entry = snapshot.get(name)
    return entry["value"] if entry is not None else 0


def _hist_total(snapshot: dict, name: str) -> float:
    entry = snapshot.get(name)
    return entry["total"] if entry is not None else 0.0


def rounds_scale(key: int, shape: dict) -> float:
    """The ``rounds_scale`` that gives input *key* its fixed total work.

    Every input carries the same total work, ``shape["work_gpu_s"]``
    seconds of fastest-GPU time: the round counts are scaled to it, so
    seeds vary the job mix and arrivals but not the size of the batch.
    This draws the workload once more, so callers work it out before
    they start timing set-up.
    """
    drawn = experiments.make_workload(shape["jobs"], seed=key)
    return shape["work_gpu_s"] / math.fsum(
        experiments.job_min_work(job) for job in drawn
    )


def _loaded_input(key: int, shape: dict, scale: float) -> Input:
    """Cluster, loaded Google-like workload and profiled instance.

    Functions are looked up on the harness module, where the traced
    run's wrappers see the calls.
    """
    cluster = scaled_cluster(shape["gpus"])
    jobs = experiments.make_loaded_workload(
        shape["jobs"],
        reference_gpus=cluster.num_gpus,
        load=shape["load"],
        seed=key,
        config=WorkloadConfig(rounds_scale=scale),
    )
    return Input(
        key=key,
        cluster=cluster,
        jobs=tuple(jobs),
        instance=experiments.make_problem(cluster, jobs),
    )


def _validate(schedule, failures: list[str], label: str, **kwargs) -> None:
    try:
        validate_schedule(schedule, **kwargs)
    except Exception as exc:  # any constraint violation is a failed op
        failures.append(f"{label}: invalid schedule: {exc}")


def _fifo_reference(inp: Input, *, simulate: bool, **streaming) -> float:
    """Gavel_FIFO's failure-free weighted JCT on the same input."""
    if streaming:
        result = run_experiment(
            ExperimentSpec(
                cluster=inp.cluster, workload=inp.jobs,
                scheduler="gavel_fifo", arrivals="streaming",
                simulate=simulate, trace=False, **streaming,
            )
        )
        return result.weighted_jct
    plan = create("gavel_fifo").plan(inp.instance)
    if not simulate:
        return metrics_from_schedule(plan).total_weighted_completion
    sim = simulate_plan(inp.cluster, inp.instance, plan)
    return sim.metrics.total_weighted_completion


#: Per-layer counts read from a run's metrics registry (the gang
#: baselines' kernels expose no KernelResult), by counter name.
_REGISTRY_COUNTS = {
    "kernel.events": "kernel.events",
    "kernel.commitments": "kernel.commitments",
    "kernel.replans": "kernel.replans",
    "kernel.retracted_rounds": "kernel.retractions",
    "sim.tasks_completed": "sim.tasks_completed",
}


def _kernel_values(kernel) -> dict:
    return {
        "kernel.events": kernel.events,
        "kernel.commitments": kernel.commitments,
        "kernel.replans": kernel.replans,
        "kernel.retracted_rounds": kernel.retracted_rounds,
    }


def _residual_values(snapshot: dict) -> dict:
    return {
        "kernel.residual_cache_hits": _counter(
            snapshot, "kernel.residual_cache_hits"
        ),
        "kernel.residual_cache_misses": _counter(
            snapshot, "kernel.residual_cache_misses"
        ),
        "sim.tasks_completed": _counter(snapshot, "sim.tasks_completed"),
    }


# ----------------------------------------------------------------------
class PaperCompare:
    name = "paper_compare"
    #: Operations per run: one per compared scheme.
    operations = len(DEFAULT_SCHEMES)
    why = (
        "the paper's Figs 14-15 setting: its five schemes planned on 12 "
        "loaded 100-job workloads and replayed on the DES; planners, sim "
        "and validation do the work"
    )
    shapes = {
        "full": {
            "subworkloads": 12, "jobs": 100, "gpus": 80,
            "work_gpu_s": 130.0, "load": 1.5,
        },
        "toy": {
            "subworkloads": 2, "jobs": 8, "gpus": 8,
            "work_gpu_s": 10.0, "load": 1.5,
        },
    }

    def prepare(self, key: int, shape: dict, scale: float) -> Input:
        return _loaded_input(key, shape, scale)

    def reference(self, inp: Input) -> float | None:
        return None  # the best baseline comes from the operation itself

    def run(self, inp: Input, decisions: list[float] | None):
        schemes = list(DEFAULT_SCHEMES)
        if decisions is not None:
            schemes[schemes.index("hare")] = TimedHare(decisions)
        return compare(
            cluster=inp.cluster,
            workload=inp.jobs,
            schedulers=schemes,
            seed=inp.key,
            simulate=True,
            trace=False,
        )

    def evaluate(self, inp: Input, raw, full: bool) -> Outcome:
        failures: list[str] = []
        values: dict = dict.fromkeys(_REGISTRY_COUNTS, 0)
        for name, run in raw.results.items():
            if full:
                _validate(run.plan, failures, name)
            values[f"wjct.{name}"] = run.weighted_jct
            values[f"digest.{name}"] = schedule_digest(run.plan)
            snap = run.metrics_snapshot()
            for key, counter in _REGISTRY_COUNTS.items():
                values[key] += _counter(snap, counter)
        hare = raw["Hare"].weighted_jct
        values["reference"] = min(
            r.weighted_jct for n, r in raw.results.items() if n != "Hare"
        )
        return Outcome(
            tasks=inp.instance.num_tasks,
            wjct=hare,
            values=values,
            failures=failures,
        )


class OnlineReplan:
    operations = 1
    name = "online_replan"
    why = (
        "the live-scheduler path: online Hare re-plans at every arrival of "
        "16 streamed 50-job workloads with two crashes each; recorder, "
        "monitors, heal and attribution ride along"
    )
    shapes = {
        "full": {
            "subworkloads": 16, "jobs": 50, "gpus": 20,
            "work_gpu_s": 65.0, "load": 1.5,
        },
        "toy": {
            "subworkloads": 2, "jobs": 10, "gpus": 6,
            "work_gpu_s": 13.0, "load": 1.5,
        },
    }

    def prepare(self, key: int, shape: dict, scale: float) -> Input:
        inp = _loaded_input(key, shape, scale)
        # Two permanent crashes inside the arrival window, so re-planning
        # retracts and re-places work while jobs are still arriving.
        rng = np.random.default_rng(key)
        last = max(job.arrival for job in inp.jobs)
        gpus = rng.choice(inp.cluster.num_gpus, size=2, replace=False)
        inp.extra["crashes"] = (
            (0.3 * last, int(gpus[0])),
            (0.6 * last, int(gpus[1])),
        )
        return inp

    def reference(self, inp: Input) -> float:
        return _fifo_reference(inp, simulate=True)

    def run(self, inp: Input, decisions: list[float] | None):
        return run_experiment(
            ExperimentSpec(
                cluster=inp.cluster,
                workload=inp.jobs,
                scheduler=(
                    "hare_online" if decisions is None
                    else TimedOnlineHare(decisions)
                ),
                seed=inp.key,
                arrivals="streaming",
                heal=True,
                crashes=inp.extra["crashes"],
                trace=False,
            )
        )

    def evaluate(self, inp: Input, raw, full: bool) -> Outcome:
        failures: list[str] = []
        if full:
            _validate(raw.plan, failures, "hare_online")
            errors = raw.diagnosis.errors()
            if errors:
                failures.append(
                    f"diagnosis: {len(errors)} ERROR finding(s): "
                    f"{errors[0].message}"
                )
            residual = max(
                (
                    abs(math.fsum(job.components.values()) - job.jct)
                    for job in raw.attribution().jobs
                ),
                default=0.0,
            )
            if residual > ATTRIBUTION_TOLERANCE:
                failures.append(
                    f"attribution residual {residual!r} > "
                    f"{ATTRIBUTION_TOLERANCE}"
                )
        snap = raw.metrics_snapshot()
        values = {
            "wjct": raw.weighted_jct,
            "digest": schedule_digest(raw.plan),
            **_kernel_values(raw.kernel),
            **_residual_values(snap),
            "heal.actions_applied": sum(
                1 for rec in raw.remediation.records if rec.applied
            ),
            "obs.records": raw.diagnosis.records_seen,
        }
        return Outcome(
            tasks=inp.instance.num_tasks,
            wjct=raw.weighted_jct,
            values=values,
            failures=failures,
        )


class ShardedCells:
    operations = 1
    name = "sharded_cells"
    why = (
        "the contended scale tier: 2 workloads of 1000 jobs on 400 GPUs in "
        "8 cells run partition, admission, merge and the array-kernel fast "
        "path on the largest dense matrices"
    )
    shapes = {
        "full": {
            "subworkloads": 2, "jobs": 1000, "gpus": 400, "cells": 8,
            "work_gpu_s": 4500.0, "load": 1.5,
        },
        "toy": {
            "subworkloads": 1, "jobs": 40, "gpus": 32, "cells": 2,
            "work_gpu_s": 1100.0, "load": 1.5,
        },
    }

    def prepare(self, key: int, shape: dict, scale: float) -> Input:
        inp = _loaded_input(key, shape, scale)
        inp.extra["cells"] = shape["cells"]
        return inp

    def reference(self, inp: Input) -> float:
        return _fifo_reference(inp, simulate=False, cells=inp.extra["cells"])

    def run(self, inp: Input, decisions: list[float] | None):
        return run_experiment(
            ExperimentSpec(
                cluster=inp.cluster,
                workload=inp.jobs,
                scheduler="hare" if decisions is None else TimedHare(decisions),
                seed=inp.key,
                arrivals="streaming",
                cells=inp.extra["cells"],
                simulate=False,
                trace=False,
            )
        )

    def evaluate(self, inp: Input, raw, full: bool) -> Outcome:
        failures: list[str] = []
        admission = raw.kernel.admission_plan
        # The workload exists to run every cell on the array kernel's
        # PlannedPolicy fast path, which "auto" picks from this size up.
        cell_tasks = [
            sum(inp.instance.jobs[n].num_tasks
                for n in admission.jobs_in(cell))
            for cell in range(raw.kernel.partition.num_cells)
        ]
        if full:
            _validate(raw.plan, failures, "hare")
            if min(cell_tasks) < ARRAY_KERNEL_TASK_LIMIT:
                failures.append(
                    f"cells: a cell has {min(cell_tasks)} tasks, below "
                    f"ARRAY_KERNEL_TASK_LIMIT={ARRAY_KERNEL_TASK_LIMIT}, "
                    "so it misses the array-kernel fast path"
                )
        stats = raw.kernel.cell_stats
        loads = [s["load_s"] for s in stats]
        walls = [s["wall_s"] for s in stats]
        values = {
            "wjct": raw.weighted_jct,
            "digest": schedule_digest(raw.plan),
            **_kernel_values(raw.kernel),
            "cells.tasks": tuple(cell_tasks),
            "cells.load_imbalance": max(loads) / (sum(loads) / len(loads)),
        }
        return Outcome(
            tasks=inp.instance.num_tasks,
            wjct=raw.weighted_jct,
            values=values,
            failures=failures,
            timings={
                "cells.cell_sum_s": sum(walls),
                "cells.cell_max_s": max(walls),
            },
            report={"cell_tasks": cell_tasks},
        )


class ChaosRecovery:
    operations = 1
    name = "chaos_recovery"
    why = (
        "the only path through control and faults: 10 40-job workloads, "
        "each with 4 seeded crashes over a fixed 300 s window, a slowdown "
        "and RPC drops"
    )
    shapes = {
        "full": {
            "subworkloads": 10, "jobs": 40, "gpus": 20,
            "work_gpu_s": 440.0, "load": 1.5, "crashes": 4,
            "fault_window_s": 300.0,
        },
        "toy": {
            "subworkloads": 2, "jobs": 6, "gpus": 8,
            "work_gpu_s": 33.0, "load": 1.5, "crashes": 2,
            "fault_window_s": 20.0,
        },
    }

    def prepare(self, key: int, shape: dict, scale: float) -> Input:
        inp = _loaded_input(key, shape, scale)
        # The fault timeline ignores the workload, as a real failure
        # trace would: some crashes land after the last job completes.
        rng = np.random.default_rng(key)
        gpus = rng.choice(
            inp.cluster.num_gpus, size=shape["crashes"] + 1, replace=False
        )
        times = np.sort(rng.uniform(0.0, shape["fault_window_s"],
                                    shape["crashes"]))
        inp.extra["scenario"] = FaultScenario(
            crashes=tuple(
                GpuCrash(time=float(t), gpu_id=int(g))
                for t, g in zip(times, gpus[:-1])
            ),
            slowdowns=(
                GpuSlowdown(
                    gpu_id=int(gpus[-1]),
                    start=float(rng.uniform(0.0, 30.0)),
                    duration=20.0,
                    factor=2.0,
                ),
            ),
            flakiness=RpcFlakiness(drop_rate=0.05, seed=key),
        ).validate(inp.cluster.num_gpus)
        return inp

    def reference(self, inp: Input) -> float:
        return _fifo_reference(inp, simulate=True)

    def run(self, inp: Input, decisions: list[float] | None):
        # The decision timed here is the control plane's plan of the
        # submitted jobs. Recovery re-plans are shorter and too few per
        # run for steady percentiles; mixing both kinds would make the
        # median jump between them. They show in control.plan_s.
        plans: list[float] = []
        obs = Obs.start(trace=False)
        with use(obs):
            plane = ControlPlane(
                cluster=inp.cluster,
                scheduler=(
                    HareScheduler() if decisions is None
                    else TimedHare(plans)
                ),
                checkpoint_interval=2,
            )
            plane.submit(list(inp.jobs))
            result = plane.run_chaos(
                inp.extra["scenario"],
                heartbeat=HeartbeatConfig(interval_s=1.0, lease_s=5.0),
            )
        if decisions is not None:
            decisions.append(plans[0])
        return result, obs

    def evaluate(self, inp: Input, raw, full: bool) -> Outcome:
        result, obs = raw
        failures: list[str] = []
        if full:
            missing = len(inp.jobs) - len(result.completions)
            if missing:
                failures.append(f"chaos: {missing} job(s) never completed")
            _validate(
                result.realized, failures, "chaos", check_durations=False
            )
        report = result.report
        snap = obs.metrics.snapshot()
        values = {
            "wjct": report.degraded_weighted_jct,
            "failure_free_wjct": report.failure_free_weighted_jct,
            "digest": schedule_digest(result.realized),
            "completions": len(result.completions),
            "kernel.replans": _counter(snap, "kernel.replans"),
            **_residual_values(snap),
            "control.replans": report.replans,
            "control.lost_rounds": report.total_lost_rounds,
            "faults.heartbeats_sent": report.heartbeats_sent,
            "faults.rpc_retries": report.rpc_retries,
        }
        return Outcome(
            tasks=inp.instance.num_tasks,
            wjct=report.degraded_weighted_jct,
            values=values,
            failures=failures,
            timings={"control.plan_s": _hist_total(snap, "ctrl.plan_s")},
        )


WORKLOADS = {
    w.name: w
    for w in (PaperCompare(), OnlineReplan(), ShardedCells(), ChaosRecovery())
}
