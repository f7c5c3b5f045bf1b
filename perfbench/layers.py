"""Which end-to-end metric each layer should move, and on which workload.

``BENCHMARK.json`` has a fixed schema, so the layer map lives here. It is
printed in the report line of every traced run; cite it by layer and
metric name.
"""

from __future__ import annotations

#: layer -> per-layer metrics, the end-to-end metrics they should move,
#: the workloads where the layer is heavy, and where it is light/absent.
LAYER_MAP = {
    "workload": {
        "metrics": [
            "workload.generate_s", "workload.profile_s",
            "workload.matrix_bytes",
        ],
        "moves": ["setup_s", "peak_mem_mb"],
        "heavy_on": ["sharded_cells"],
        "light_on": ["online_replan"],
    },
    "schedulers": {
        "metrics": [
            "schedulers.relaxation_s", "schedulers.relaxation_calls",
            "schedulers.order_s", "schedulers.list_schedule_s",
            "schedulers.tasks_placed", "schedulers.baselines_s",
        ],
        "moves": [
            "tasks_per_s on paper_compare",
            "decision_p50_ms, decision_p90_ms on online_replan",
        ],
        "heavy_on": ["paper_compare", "online_replan"],
        "light_on": ["chaos_recovery"],
    },
    "kernel": {
        "metrics": [
            "kernel.loop_s", "kernel.events", "kernel.commitments",
            "kernel.replans", "kernel.retracted_rounds",
            "kernel.useful_ratio", "kernel.residual_build_s",
            "kernel.residual_solve_s", "kernel.residual_cache_hit_ratio",
        ],
        "moves": [
            "decision_p50_ms, decision_p90_ms, tasks_per_s on online_replan",
            "tasks_per_s on sharded_cells",
        ],
        "heavy_on": ["online_replan", "sharded_cells"],
        "light_on": ["paper_compare"],
    },
    "cells": {
        "metrics": [
            "cells.partition_s", "cells.admission_s", "cells.cell_sum_s",
            "cells.cell_max_s", "cells.merge_s", "cells.load_imbalance",
        ],
        "moves": ["tasks_per_s, weighted_jct_s on sharded_cells"],
        "heavy_on": ["sharded_cells"],
        "light_on": ["paper_compare", "online_replan", "chaos_recovery"],
    },
    "sim": {
        "metrics": ["sim.replay_s", "sim.tasks_completed"],
        "moves": ["tasks_per_s on paper_compare"],
        "heavy_on": ["paper_compare"],
        "light_on": ["sharded_cells"],
    },
    "core": {
        "metrics": ["core.validate_s"],
        "moves": ["tasks_per_s on paper_compare"],
        "heavy_on": ["paper_compare"],
        "light_on": [],
    },
    "obs": {
        "metrics": [
            "obs.sink_s", "obs.records", "obs.diagnose_s",
            "obs.attribution_s", "heal.actions_applied",
        ],
        "moves": [
            "decision_p50_ms, decision_p90_ms, tasks_per_s, "
            "weighted_jct_s on online_replan",
        ],
        "heavy_on": ["online_replan"],
        "light_on": ["paper_compare", "sharded_cells", "chaos_recovery"],
    },
    "control": {
        "metrics": [
            "control.plan_s", "control.replans", "control.lost_rounds",
            "faults.detection_s", "faults.heartbeats_sent",
            "faults.rpc_retries",
        ],
        "moves": ["tasks_per_s, weighted_jct_s on chaos_recovery"],
        "heavy_on": ["chaos_recovery"],
        "light_on": ["paper_compare", "online_replan", "sharded_cells"],
    },
}

#: Whole-run metrics of the traced run: the traced wall time, each
#: layer's self time, the remainder no layer covers, and the tracing
#: overhead against the untraced run of the same inputs.
TRACE_METRICS = [
    "trace.wall_s",
    *(f"trace.self.{layer}_s" for layer in LAYER_MAP),
    "trace.unattributed_s",
    "trace.overhead_frac",
]

PER_LAYER_METRICS = [
    *(m for entry in LAYER_MAP.values() for m in entry["metrics"]),
    *TRACE_METRICS,
]
