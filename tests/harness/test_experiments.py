"""Tests for the experiment harness."""

import pytest

from repro.cluster import scaled_cluster
from repro.api import compare
from repro.harness import make_problem, make_workload
from repro.harness.experiments import job_min_work, make_loaded_workload
from repro.schedulers import HareScheduler
from repro.workload import WorkloadConfig


class TestMakeWorkload:
    def test_count_and_order(self):
        jobs = make_workload(10, seed=0)
        assert len(jobs) == 10
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)

    def test_deterministic(self):
        a = make_workload(5, seed=4)
        b = make_workload(5, seed=4)
        assert [(j.model, j.arrival) for j in a] == [
            (j.model, j.arrival) for j in b
        ]


class TestLoadedWorkload:
    def test_load_controls_span(self):
        heavy = make_loaded_workload(20, reference_gpus=8, load=4.0, seed=1)
        light = make_loaded_workload(20, reference_gpus=8, load=0.5, seed=1)
        assert max(j.arrival for j in heavy) < max(j.arrival for j in light)

    def test_work_preserved(self):
        base = make_workload(20, seed=1)
        loaded = make_loaded_workload(20, reference_gpus=8, load=2.0, seed=1)
        assert [j.num_rounds for j in base] == [j.num_rounds for j in loaded]

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            make_loaded_workload(4, reference_gpus=4, load=0.0)

    def test_job_min_work_positive(self):
        for job in make_workload(6, seed=2):
            assert job_min_work(job) > 0


class TestRunComparison:
    """The paper's five schemes on one (cluster, workload) pair through
    :func:`repro.api.compare` — the one comparison path."""

    def test_all_schedulers_reported(self, testbed, small_workload):
        results = compare(
            cluster=testbed, workload=small_workload, trace=False
        ).results
        assert set(results) == {
            "Gavel_FIFO", "SRTF", "Sched_Homo", "Sched_Allox", "Hare"
        }
        for r in results.values():
            assert r.weighted_jct > 0
            assert r.sim is None
            assert r.metrics is r.plan_metrics

    def test_simulation_toggle(self, testbed):
        jobs = make_workload(4, seed=9, config=WorkloadConfig(rounds_scale=0.05))
        results = compare(
            cluster=testbed, workload=jobs, schedulers=[HareScheduler()],
            simulate=True, trace=False,
        )
        r = results["Hare"]
        assert r.sim is not None
        assert r.metrics is r.sim.metrics

    def test_subset_of_schedulers(self, testbed, small_workload):
        results = compare(
            cluster=testbed, workload=small_workload,
            schedulers=[HareScheduler()], trace=False,
        )
        assert results.names == ["Hare"]


class TestQuickCompare:
    """A small self-contained comparison, the README quick-start shape."""

    def test_returns_metrics(self):
        out = compare(
            gpus=6, jobs=5, seed=1, rounds_scale=0.05, trace=False
        ).summary()
        assert len(out) == 5
        for m in out.values():
            assert m.total_weighted_completion > 0

    def test_problem_builder(self, testbed, small_workload):
        inst = make_problem(testbed, small_workload)
        assert inst.num_gpus == 15
        assert inst.num_jobs == len(small_workload)
