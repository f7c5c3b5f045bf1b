"""Workload and problem builders shared by the API, CLI and benchmarks.

A run's inputs are a cluster and a job list: :func:`make_loaded_workload`
draws the loaded Google-like mix of the paper's experiments and
:func:`make_problem` profiles it into a :class:`ProblemInstance`. Running
schedulers on them is :mod:`repro.api`'s job (``compare`` /
``run_experiment``).
"""

from __future__ import annotations

from ..cluster.cluster import Cluster
from ..core.job import Job, ProblemInstance
from ..workload.jobs import WorkloadConfig, generate_jobs
from ..workload.profiler import TaskProfiler, build_instance
from ..workload.trace import GoogleLikeTrace


def make_workload(
    num_jobs: int,
    *,
    seed: int = 0,
    config: WorkloadConfig | None = None,
    trace: GoogleLikeTrace | None = None,
) -> list[Job]:
    """Default workload: Google-like arrivals × Table 2 job mix."""
    trace = trace or GoogleLikeTrace()
    arrivals = trace.sample(num_jobs, seed=seed)
    return generate_jobs(arrivals, config, seed=seed + 1)


def job_min_work(job: Job) -> float:
    """Fastest-GPU serial work of a job (seconds of GPU time).

    Uses the calibrated profile's best batch time across the catalog; the
    load controller below uses it to size arrival windows.
    """
    from ..core.types import GPUModel
    from ..workload.profiles import profile_for

    try:
        prof = profile_for(job.model)
        best = min(prof.batch_time(g) for g in GPUModel)
    except Exception:
        best = 0.1  # synthetic models: nominal tenth of a second per batch
    return job.num_rounds * job.sync_scale * best * job.batch_scale


def make_loaded_workload(
    num_jobs: int,
    *,
    reference_gpus: int,
    load: float = 1.2,
    seed: int = 0,
    config: WorkloadConfig | None = None,
    trace: GoogleLikeTrace | None = None,
) -> list[Job]:
    """A workload whose arrival window produces a target cluster load.

    The Google-like arrival *pattern* is kept, but its time axis is rescaled
    so that ``total fastest-GPU work / (reference_gpus × span) = load``.
    ``load >= 1`` produces the sustained contention of the paper's
    experiments (queues build up and scheduling quality matters);
    ``load < 1`` approaches the uncontended regime where every scheme ties.

    The same workload is reused across a GPU sweep (Fig. 14) by fixing
    ``reference_gpus`` to the largest cluster of the sweep.
    """
    jobs = make_workload(num_jobs, seed=seed, config=config, trace=trace)
    if load <= 0:
        raise ValueError("load must be > 0")
    total_work = sum(job_min_work(j) for j in jobs)
    span = total_work / (reference_gpus * load)
    max_arrival = max((j.arrival for j in jobs), default=0.0)
    scale = span / max_arrival if max_arrival > 0 else 0.0
    rescaled = [
        Job(
            job_id=j.job_id,
            model=j.model,
            arrival=j.arrival * scale,
            weight=j.weight,
            num_rounds=j.num_rounds,
            sync_scale=j.sync_scale,
            batch_scale=j.batch_scale,
        )
        for j in jobs
    ]
    return rescaled


def make_problem(
    cluster: Cluster,
    jobs: list[Job],
    *,
    profiler: TaskProfiler | None = None,
) -> ProblemInstance:
    """Profile the workload on the cluster into a ProblemInstance."""
    return build_instance(jobs, cluster, profiler=profiler)
