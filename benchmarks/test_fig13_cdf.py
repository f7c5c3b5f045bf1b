"""Fig. 13 — CDF of job completion times on the testbed workload.

Paper: about 90.5 % of jobs complete within 25 minutes under Hare, versus
66.7 % (Sched_Allox) and 56.5 % (Sched_Homo). We regenerate the CDF and
check the same dominance at a horizon calibrated to our workload scale
(the paper's wall-clock minutes belong to its testbed's job sizes).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.api import compare
from repro.core import jct_cdf
from repro.harness import render_series


def test_fig13_cdf(benchmark, report, testbed, testbed_jobs):
    results = run_once(
        benchmark,
        lambda: compare(
            cluster=testbed, workload=testbed_jobs, trace=False
        ).results,
    )
    metrics = {name: r.plan_metrics for name, r in results.items()}

    # horizon: 4x the median Hare flow time — the "most jobs done" regime
    # (the paper's 25-minute mark plays the same role for its job sizes)
    horizon = float(np.median(metrics["Hare"].flow_times()) * 4)
    grid = np.linspace(0, 4 * horizon, 9)
    series = {}
    for name, m in metrics.items():
        _, frac = jct_cdf(m, grid=grid)
        series[name] = list(frac)
    report(
        render_series(
            "t (s)",
            [f"{x:.0f}" for x in grid],
            series,
            title="Fig. 13 — CDF of job completion time",
        )
    )

    fracs = {
        name: m.fraction_done_within(horizon) for name, m in metrics.items()
    }
    # Hare completes the largest share of jobs by the horizon…
    assert fracs["Hare"] == max(fracs.values())
    assert fracs["Hare"] >= 0.80  # paper: 90.5%
    # …with Allox ahead of the heterogeneity-oblivious Sched_Homo
    assert fracs["Sched_Allox"] >= fracs["Sched_Homo"] - 0.05
    # and the CDFs are monotone (sanity of the estimator)
    for vals in series.values():
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
