"""Equivalence suite: vectorized hot paths vs the ``_reference_`` originals.

The tentpole fast paths (vectorized ``list_schedule``, single-pass
``_precedence_safe_order``, incremental warm-started cut LP, the
parallel sweep runner) are all pure refactors: same schedules, same
objectives, same metrics. This suite pins that —
byte-identical ``Schedule``s against the kept reference implementations,
objective agreement within 1e-9 for the relaxation, and per-cell metric
equality between ``repro.api.sweep`` and serial ``run_experiment``.
The scalar fluid relaxation has its own oracle suite,
``test_fluid_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import validate_schedule
from repro.schedulers import available, create
from repro.schedulers.hare import (
    _precedence_safe_order,
    _reference_list_schedule,
    _reference_precedence_safe_order,
    list_schedule,
)
from repro.schedulers.relaxation import (
    ExactRelaxationSolver,
    FluidRelaxationSolver,
    _highs_core,
    greedy_assignment,
)
from tests.conftest import make_random_instance

PLACEMENTS = ("earliest_available", "earliest_finish")

LP_BACKENDS = ["linprog"] + (["highs"] if _highs_core is not None else [])


def _fluid_order(instance):
    relaxation = FluidRelaxationSolver().solve(instance)
    return _precedence_safe_order(instance, relaxation)


class TestListScheduleEquivalence:
    """Vectorized ``list_schedule`` must be byte-identical to the heap
    reference — same GPU, same start, same durations, for every task."""

    @given(seed=st.integers(0, 10_000), placement=st.sampled_from(PLACEMENTS))
    @settings(max_examples=40, deadline=None)
    def test_byte_identical_schedules(self, seed, placement):
        inst = make_random_instance(
            seed, max_jobs=5, max_gpus=4, max_rounds=3, max_scale=3
        )
        order = _fluid_order(inst)
        vec = list_schedule(inst, order, placement=placement)
        ref = _reference_list_schedule(inst, order, placement=placement)
        assert vec.assignments == ref.assignments

    def test_single_gpu_degenerate(self):
        inst = make_random_instance(3, max_gpus=1, max_scale=2)
        order = _fluid_order(inst)
        for placement in PLACEMENTS:
            vec = list_schedule(inst, order, placement=placement)
            ref = _reference_list_schedule(inst, order, placement=placement)
            assert vec.assignments == ref.assignments


class TestOrderEquivalence:
    """The bucketing pass must reproduce the quadratic rescan exactly."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_same_order(self, seed):
        inst = make_random_instance(
            seed, max_jobs=5, max_gpus=4, max_rounds=4, max_scale=3
        )
        relaxation = FluidRelaxationSolver().solve(inst)
        fast = _precedence_safe_order(inst, relaxation)
        slow = _reference_precedence_safe_order(inst, relaxation)
        assert fast == slow


class TestExactSolverEquivalence:
    """Incremental CSR + cut dedup + warm starts vs the cold-start loop.

    The LP is degenerate enough that task start times can differ between
    optimal bases, but the objective is unique — pinned to 1e-9.
    """

    @pytest.mark.parametrize("backend", LP_BACKENDS)
    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=10, deadline=None)
    def test_objective_matches_reference(self, backend, seed):
        inst = make_random_instance(
            seed, max_jobs=3, max_gpus=3, max_rounds=2, max_scale=2
        )
        solver = ExactRelaxationSolver(lp_backend=backend)
        y = greedy_assignment(inst)
        fast = solver._solve_fixed_y(inst, y)
        ref = solver._reference_solve_fixed_y(inst, y)
        assert fast.objective == pytest.approx(
            ref.objective, rel=1e-9, abs=1e-9
        )

    def test_auto_backend_end_to_end(self, tiny_instance):
        result = ExactRelaxationSolver().solve(tiny_instance)
        ref = ExactRelaxationSolver(lp_backend="linprog").solve(tiny_instance)
        assert result.objective == pytest.approx(ref.objective, rel=1e-9)

    def test_unknown_backend_rejected(self, tiny_instance):
        from repro.core import SolverError

        with pytest.raises(SolverError, match="unknown lp_backend"):
            ExactRelaxationSolver(lp_backend="simplex??").solve(tiny_instance)


class TestCutDedup:
    """``_separate`` with an emitted set must not re-emit a prefix whose
    task set was already cut, and must leave the cut math untouched."""

    def _violated_inputs(self):
        machine_tasks = {0: [0, 1, 2]}
        q = np.array([1.0, 2.0, 3.0])
        x_sol = np.zeros(5)  # everything at t=0: maximally violated
        return machine_tasks, q, x_sol

    def test_prefix_emitted_once(self):
        solver = ExactRelaxationSolver()
        machine_tasks, q, x_sol = self._violated_inputs()
        emitted: set[tuple[int, ...]] = set()
        first = solver._separate(machine_tasks, q, x_sol, emitted)
        assert first, "crafted inputs must violate a prefix"
        assert tuple(sorted(first[0])) in emitted
        again = solver._separate(machine_tasks, q, x_sol, emitted)
        assert again == []

    def test_reference_behaviour_without_emitted(self):
        solver = ExactRelaxationSolver()
        machine_tasks, q, x_sol = self._violated_inputs()
        first = solver._separate(machine_tasks, q, x_sol)
        # No dedup state: the same violated prefix separates every time.
        assert solver._separate(machine_tasks, q, x_sol) == first

    def test_dedup_keys_on_task_set_not_order(self):
        solver = ExactRelaxationSolver()
        machine_tasks, q, x_sol = self._violated_inputs()
        emitted: set[tuple[int, ...]] = set()
        prefix = solver._separate(machine_tasks, q, x_sol, emitted)[0]
        # Same set listed in a different order is still a duplicate.
        reordered = {0: list(reversed(prefix))}
        assert solver._separate(reordered, q, x_sol, emitted) == []


class TestAllRegisteredSchedulers:
    """Every registered scheme still produces a valid, deterministic
    schedule through the vectorized hot paths."""

    @pytest.mark.parametrize("key", available())
    def test_valid_and_deterministic(self, key, small_instance):
        first = create(key).plan(small_instance)
        validate_schedule(first)
        second = create(key).plan(small_instance)
        assert first.assignments == second.assignments


class TestSweepMatchesSerial:
    """``repro.api.sweep`` across worker processes must reproduce serial
    ``run_experiment`` metrics byte-for-byte, cell by cell."""

    def test_parallel_equals_serial(self):
        from repro.api import run_experiment, sweep

        result = sweep(
            seeds=2,
            schedulers=("hare",),
            scales=(6,),
            jobs=5,
            load=1.2,
            rounds_scale=0.1,
            workers=2,
        )
        assert len(result) == 2
        for point in result:
            serial = run_experiment(
                gpus=point.gpus,
                jobs=5,
                scheduler="hare",
                seed=point.seed,
                load=1.2,
                rounds_scale=0.1,
                trace=False,
            )
            assert point.weighted_jct == serial.weighted_jct
            assert point.makespan == serial.makespan
            assert point.weighted_flow == serial.metrics.total_weighted_flow

    def test_serial_worker_path_matches_pool_layout(self):
        from repro.api import sweep

        serial = sweep(
            seeds=(0, 1), schedulers=("hare",), scales=(6,),
            jobs=4, load=1.0, rounds_scale=0.1, workers=1,
        )
        assert [p.key for p in serial] == [
            ("Hare", 0, 6, 1), ("Hare", 1, 6, 1),
        ]
        metrics = serial.metrics()
        assert "sweep.Hare.seed0.gpus6.weighted_jct" in metrics
        assert "sweep.Hare.mean_makespan" in metrics
