"""Unit tests for the job-output storage extension.

The paper's evaluation ignores output costs (outputs are "of negligible
size as compared to input"); with ``output_fraction > 0`` jobs write an
output file to their execution site's storage on completion.
"""

import pytest

from repro import SimulationConfig, run_single
from repro.grid import Dataset, Job, JobState


def make_job(job_id=0, origin="site00", inputs=("d0",), runtime=100.0,
             output_mb=0.0):
    job = Job(job_id=job_id, user="u", origin_site=origin,
              input_files=list(inputs), runtime_s=runtime,
              output_size_mb=output_mb)
    job.advance(JobState.READY, 0.0)
    job.advance(JobState.DISPATCHED, 0.0)
    job.execution_site = origin
    return job


class TestOutputStorage:
    def test_negative_output_rejected(self):
        with pytest.raises(ValueError):
            make_job(output_mb=-1)

    def test_output_written_and_registered(self, small_grid):
        sim, grid = small_grid
        job = make_job(job_id=7, output_mb=250)
        p = grid.sites["site00"].enqueue(job)
        sim.run(until=p)
        assert "output-job7" in grid.storages["site00"]
        assert grid.catalog.has_replica("output-job7", "site00")
        assert grid.sites["site00"].outputs["output-job7"].size_mb == 250

    def test_zero_output_writes_nothing(self, small_grid):
        sim, grid = small_grid
        p = grid.sites["site00"].enqueue(make_job(job_id=8))
        sim.run(until=p)
        assert "output-job8" not in grid.storages["site00"]
        assert grid.sites["site00"].outputs == {}

    def test_output_evictable_under_lru(self, small_grid):
        sim, grid = small_grid
        job = make_job(job_id=9, output_mb=500)
        p = grid.sites["site00"].enqueue(job)
        sim.run(until=p)
        # Force pressure: a 9.2 GB file on the 10 GB site (d0 = 500 MB
        # primary is pinned; the output is not).
        filler = Dataset("filler", 9200)
        grid.datasets.add(filler)
        grid.storages["site00"].add(filler, now=sim.now)
        assert "output-job9" not in grid.storages["site00"]
        assert not grid.catalog.has_replica("output-job9", "site00")

    def test_dropped_when_storage_all_pinned(self, small_grid):
        sim, grid = small_grid
        storage = grid.storages["site03"]
        for i in range(9):
            blk = Dataset(f"blk{i}", 1000)
            grid.datasets.add(blk)
            storage.add(blk, now=0, pin=True)
        # 9.0 of 10 GB pinned; a 1.5 GB output cannot fit.
        job = make_job(job_id=10, origin="site03", inputs=("d3",),
                       output_mb=1500)
        grid.datasets.add(Dataset("d3", 400))
        grid.place_initial_replica("d3", "site03")
        p = grid.sites["site03"].enqueue(job)
        sim.run(until=p)
        assert grid.sites["site03"].outputs_dropped == 1
        assert job.state is JobState.DONE  # job itself succeeds


class TestOutputWorkload:
    def test_generator_sets_output_sizes(self):
        config = SimulationConfig.paper().scaled(0.05).with_(
            output_fraction=0.1)
        from repro.experiments.runner import make_workload
        workload = make_workload(config, seed=0)
        for jobs in workload.user_jobs.values():
            for job in jobs:
                input_mb = sum(workload.datasets.get(f).size_mb
                               for f in job.input_files)
                assert job.output_size_mb == pytest.approx(0.1 * input_mb)

    def test_full_run_with_outputs(self):
        config = SimulationConfig.paper().scaled(0.05).with_(
            output_fraction=0.05)
        m = run_single(config, "JobDataPresent", "DataRandom", seed=0)
        assert m.n_jobs == config.n_jobs
        assert m.outputs_dropped == 0  # plenty of space at this scale

    def test_outputs_do_not_change_response_ordering(self):
        """Outputs occupy storage but cost no time; response times of a
        run with and without small outputs match exactly unless storage
        pressure forces different evictions."""
        config = SimulationConfig.paper().scaled(0.05)
        base = run_single(config, "JobLocal", "DataDoNothing", seed=0)
        with_out = run_single(config.with_(output_fraction=0.01),
                              "JobLocal", "DataDoNothing", seed=0)
        assert with_out.avg_response_time_s == pytest.approx(
            base.avg_response_time_s, rel=0.05)
