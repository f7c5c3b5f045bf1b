"""Bench-side tracing: spans around the layers' public entry points.

Nothing in the program changes. :func:`traced` patches each entry point
listed in :data:`TARGETS` at every name its callers look it up under (a
module-level function is replaced in every ``repro.*`` module that
imported it; a method is replaced on the class that defines it), records
one span per call, and puts every original back on exit.

Each span is ``[name, start, end, parent]``: ``parent`` is the index of
the innermost enclosing span, or ``-1``. A span's self time is its
duration minus its children's durations, so the self times of all spans
sum to the duration of the top-level spans, and the traced wall time
minus that sum is ``trace.unattributed_s`` (the ``api``/``harness``
glue the layers do not cover).

No wrapper replaces ``on_event`` on any policy class: the array kernel
picks the ``PlannedPolicy``/``GangPolicy`` fast paths by method identity.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: ``(layer, span name, module, attribute path, counter)`` per entry point.
#: ``counter(args, kwargs)`` adds to the span's item count (the tasks
#: handed to ``list_schedule``). Layers are the ``src/repro`` modules:
#: ``obs`` includes ``heal`` (the remediation engine is a recorder
#: consumer), ``control`` includes ``faults``.
TARGETS = (
    ("workload", "generate", "repro.harness.experiments", "make_workload", None),
    ("workload", "generate", "repro.harness.experiments", "make_loaded_workload", None),
    ("workload", "profile", "repro.workload.profiler", "build_instance", None),
    ("schedulers", "relaxation", "repro.schedulers.relaxation", "ExactRelaxationSolver.solve", None),
    ("schedulers", "relaxation", "repro.schedulers.relaxation", "FluidRelaxationSolver.solve", None),
    ("schedulers", "order", "repro.schedulers.hare", "_precedence_safe_order", None),
    ("schedulers", "list_schedule", "repro.schedulers.hare", "list_schedule",
     lambda args, kwargs: args[0].num_tasks),
    ("schedulers", "baseline", "repro.schedulers.fifo", "GavelFifoScheduler.schedule", None),
    ("schedulers", "baseline", "repro.schedulers.srtf", "SrtfScheduler.schedule", None),
    ("schedulers", "baseline", "repro.schedulers.homo", "SchedHomoScheduler.schedule", None),
    ("schedulers", "baseline", "repro.schedulers.allox", "SchedAlloxScheduler.schedule", None),
    ("kernel", "run_policy", "repro.kernel.runner", "run_policy", None),
    ("kernel", "residual_build", "repro.kernel.residual", "ResidualPlanner.residual", None),
    ("kernel", "residual_solve", "repro.kernel.residual", "ResidualPlanner.solve_relaxation", None),
    ("kernel", "residual_solve", "repro.kernel.residual", "ResidualPlanner.plan", None),
    ("cells", "run_sharded", "repro.cells.sharded", "run_sharded", None),
    ("cells", "partition", "repro.cells.partition", "CellPartitioner.partition", None),
    ("cells", "admission", "repro.cells.admission", "GlobalAdmission.admit", None),
    ("cells", "cell_instance", "repro.cells.sharded", "cell_instance", None),
    ("sim", "replay", "repro.sim.simulator", "simulate_plan", None),
    ("sim", "replay", "repro.sim.simulator", "ClusterSimulator.run", None),
    ("core", "validate", "repro.core.schedule", "validate_schedule", None),
    ("obs", "record", "repro.obs.recorder", "FlightRecorder.record", None),
    ("obs", "diagnose", "repro.obs.recorder", "FlightRecorder.diagnose", None),
    ("obs", "attribution", "repro.obs.attrib", "AttributionEngine.report", None),
    ("control", "run_chaos", "repro.control.controlplane", "ControlPlane.run_chaos", None),
    ("control", "detection", "repro.faults.detector", "run_detection", None),
)

#: Layer of each span name.
SPAN_LAYER = {name: layer for layer, name, *_ in TARGETS}

LAYERS = (
    "workload", "schedulers", "kernel", "cells", "sim", "core", "obs",
    "control",
)


class SpanRecorder:
    """In-memory span log; spans are written out only when the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.items: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, items = self.spans, self._stack, self.items
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if counter is not None:
                    items[name] = items.get(name, 0) + counter(args, kwargs)

        wrapper.perfbench_span = name
        return wrapper


def _resolve(module: str, path: str):
    """``(owner, attribute, original)`` for one target."""
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


def _repro_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def patch_sites() -> list[tuple[object, str, object, int]]:
    """Every ``(owner, attribute, original, target index)`` to patch.

    A method is patched on its defining class; a function on every
    loaded ``repro`` module that holds it under any name.
    """
    sites = []
    modules = _repro_modules()
    for index, (_, _, module, path, _) in enumerate(TARGETS):
        owner, attr, original = _resolve(module, path)
        if isinstance(owner, type):
            sites.append((owner, attr, original, index))
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    sites.append((mod, name, original, index))
    return sites


@contextmanager
def traced(recorder: SpanRecorder):
    """Install the span wrappers for the block's extent, then remove them."""
    sites = patch_sites()
    wrappers: dict[int, object] = {}
    installed = []
    try:
        for owner, attr, original, index in sites:
            _, name, _, _, counter = TARGETS[index]
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = recorder.wrap(
                    name, original, counter
                )
            setattr(owner, attr, wrapper)
            installed.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def wrappers_removed() -> bool:
    """True when no ``repro`` module or target class holds a span wrapper."""
    owners = _repro_modules() + [
        _resolve(module, path)[0] for _, _, module, path, _ in TARGETS
    ]
    return not any(
        hasattr(value, "perfbench_span")
        for owner in owners
        for value in list(vars(owner).values())
    )


# ----------------------------------------------------------------------
def summarize(spans: list[list]) -> dict:
    """Per-name inclusive time and calls; self time per span, name, layer.

    Inclusive time counts only the outermost span of each name, so a
    recursive or nested call of the same entry point is not counted
    twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_span = [0.0] * len(spans)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    top_level = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        own = self_by_span[i] = duration - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        self_by_layer[SPAN_LAYER[name]] += own
        if parent < 0:
            top_level += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return {
        "inclusive": inclusive,
        "calls": calls,
        "self_by_span": self_by_span,
        "self_by_name": self_by_name,
        "self_by_layer": self_by_layer,
        "top_level": top_level,
    }
