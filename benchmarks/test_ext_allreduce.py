"""Extension — parameter server vs ring all-reduce aggregation (§2.1, §8).

The paper adopts the PS scheme "due to its simplicity" and cites All-Reduce
as the alternative. We measure the trade-off twice: (a) the raw per-round
synchronization cost curves as the worker group grows, and (b) end-to-end
weighted JCT when the whole workload synchronizes through each fabric.
With the paper's small sync scales (≤ 4 tasks/round) and a sharded PS, the
PS choice is justified; ring wins only for much wider groups.
"""

from benchmarks.conftest import run_once
from repro.cluster import NetworkConfig, scaled_cluster
from repro.harness import render_series
from repro.harness.experiments import make_loaded_workload
from repro.schedulers import HareScheduler
from repro.sync import ps_round_sync_time, ring_allreduce_time
from repro.workload import TaskProfiler, WorkloadConfig, build_instance
from repro.workload.models import model_spec

WORKERS = (2, 4, 8, 16, 32, 64)


def test_ext_allreduce(benchmark, report):
    net = NetworkConfig(ps_shards=4)
    bert = model_spec("Bert_base").model_bytes
    cluster = scaled_cluster(16)
    jobs = make_loaded_workload(
        24, reference_gpus=16, load=1.8, seed=47,
        config=WorkloadConfig(rounds_scale=0.1),
    )

    def run():
        curves = {
            "PS (4 shards)": [
                ps_round_sync_time(bert, k, net) * 1e3 for k in WORKERS
            ],
            "ring all-reduce": [
                ring_allreduce_time(bert, k, net) * 1e3 for k in WORKERS
            ],
        }
        flows = {}
        for fabric in ("ps", "ring"):
            profiler = TaskProfiler(cluster, sync_fabric=fabric)
            instance = build_instance(jobs, cluster, profiler=profiler)
            plan = HareScheduler(relaxation="fluid").schedule(instance)
            from repro.core import metrics_from_schedule

            flows[fabric] = metrics_from_schedule(plan).total_weighted_flow
        return curves, flows

    curves, flows = run_once(benchmark, run)
    text = render_series(
        "workers",
        list(WORKERS),
        curves,
        title="Extension — per-round sync cost, Bert_base gradients (ms)",
        float_fmt="{:.1f}",
    )
    text += (
        f"\n\nEnd-to-end weighted JCT (Hare, 16 GPUs, 24 jobs): "
        f"PS {flows['ps']:.1f} s vs ring {flows['ring']:.1f} s"
    )
    report(text)

    ps_curve = curves["PS (4 shards)"]
    ring_curve = curves["ring all-reduce"]
    # PS wins for tiny groups (the paper's regime)…
    assert ps_curve[0] < ring_curve[0]
    # …ring wins at scale (server ingress is the PS bottleneck)
    assert ring_curve[-1] < ps_curve[-1] / 3
    # end-to-end, with sync scales ≤ 4, the two fabrics are close —
    # the paper's "PS for simplicity" choice costs little
    assert abs(flows["ps"] - flows["ring"]) / flows["ps"] < 0.25
