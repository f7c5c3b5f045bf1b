"""Tests for CSV trace import/export."""

import pytest

from repro.api import compare
from repro.core import Job
from repro.core.errors import ConfigurationError
from repro.harness import make_workload
from repro.workload import load_jobs_csv, save_jobs_csv


class TestRoundTrip:
    def test_round_trip_preserves_jobs(self, tmp_path):
        jobs = make_workload(8, seed=3)
        path = tmp_path / "trace.csv"
        save_jobs_csv(jobs, path)
        loaded = load_jobs_csv(path)
        assert loaded == jobs

    def test_float_precision_preserved(self, tmp_path):
        jobs = [Job(job_id=0, model="m", arrival=1.2345678901234567)]
        path = tmp_path / "t.csv"
        save_jobs_csv(jobs, path)
        assert load_jobs_csv(path)[0].arrival == jobs[0].arrival

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "job_id,model,arrival,weight,num_rounds,sync_scale,"
            "batch_scale,comment\n"
            "0,VGG19,0.0,1.0,5,2,1.0,hello\n"
        )
        (job,) = load_jobs_csv(path)
        assert job.model == "VGG19" and job.sync_scale == 2


class TestValidation:
    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("job_id,model\n0,VGG19\n")
        with pytest.raises(ConfigurationError):
            load_jobs_csv(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "job_id,model,arrival,weight,num_rounds,sync_scale,batch_scale\n"
            "0,VGG19,zero,1.0,5,2,1.0\n"
        )
        with pytest.raises(ConfigurationError) as e:
            load_jobs_csv(path)
        assert ":2:" in str(e.value)  # line number in the error

    def test_non_dense_ids(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "job_id,model,arrival,weight,num_rounds,sync_scale,batch_scale\n"
            "1,VGG19,0.0,1.0,5,2,1.0\n"
        )
        with pytest.raises(ConfigurationError):
            load_jobs_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            load_jobs_csv(path)

    def test_invalid_job_fields_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "job_id,model,arrival,weight,num_rounds,sync_scale,batch_scale\n"
            "0,VGG19,0.0,1.0,0,2,1.0\n"  # num_rounds=0
        )
        with pytest.raises(ConfigurationError):
            load_jobs_csv(path)


class TestIntegration:
    def test_loaded_trace_schedules(self, tmp_path, testbed):
        from repro.workload import WorkloadConfig

        jobs = make_workload(
            5, seed=8, config=WorkloadConfig(rounds_scale=0.05)
        )
        path = tmp_path / "trace.csv"
        save_jobs_csv(jobs, path)
        results = compare(
            cluster=testbed, workload=load_jobs_csv(path), trace=False
        )
        assert len(results) == 5
