"""Fig. 15 — total weighted JCT vs number of jobs (fixed cluster).

Paper: on 160 GPUs, weighted JCT grows with the job count under every
scheme and the gap between Hare and the baselines widens — Hare wins by
54.6-80.5 % at 300 jobs. We sweep 40-160 jobs on a fixed 48-GPU cluster.
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import scaled_cluster
from repro.core import improvement_percent
from repro.harness import render_series
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig

JOB_COUNTS = (40, 80, 160)


def test_fig15_num_jobs(benchmark, report):
    cluster = scaled_cluster(48)

    def run():
        series: dict[str, list[float]] = {}
        for n in JOB_COUNTS:
            jobs = make_loaded_workload(
                n,
                reference_gpus=48,
                load=1.5 * n / JOB_COUNTS[0],  # same arrival window per job count
                seed=9,
                config=WorkloadConfig(rounds_scale=0.2),
            )
            results = compare(
                cluster=cluster, workload=jobs, trace=False
            ).results
            for name, r in results.items():
                series.setdefault(name, []).append(
                    r.plan_metrics.total_weighted_flow
                )
        return series

    series = run_once(benchmark, run)
    report(
        render_series(
            "#jobs",
            list(JOB_COUNTS),
            series,
            title="Fig. 15 — weighted JCT vs number of jobs (48 GPUs)",
            float_fmt="{:.0f}",
        )
    )

    # JCT grows with the job count for every scheme
    for name, vals in series.items():
        assert vals[0] < vals[-1], name
    # Hare best at every point, and its lead grows with load
    reductions = []
    for i in range(len(JOB_COUNTS)):
        col = {name: vals[i] for name, vals in series.items()}
        assert col["Hare"] == min(col.values())
        worst = max(v for k, v in col.items() if k != "Hare")
        reductions.append(improvement_percent(worst, col["Hare"]))
    assert reductions[-1] > reductions[0]
    # at the heaviest point Hare wins big (paper: 54.6-80.5%)
    assert reductions[-1] >= 45.0
