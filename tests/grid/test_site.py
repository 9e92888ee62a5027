"""Unit tests for site job execution: FIFO, data waits, idle accounting."""

import pytest

from repro.grid import Job, JobState


def make_job(job_id=0, origin="site00", inputs=("d0",), runtime=100.0):
    job = Job(job_id=job_id, user="u", origin_site=origin,
              input_files=list(inputs), runtime_s=runtime)
    job.advance(JobState.READY, 0.0)
    job.advance(JobState.DISPATCHED, 0.0)
    job.execution_site = origin
    return job


class TestExecution:
    def test_local_data_job_runs_immediately(self, small_grid):
        sim, grid = small_grid
        job = make_job()
        p = grid.sites["site00"].enqueue(job)
        result = sim.run(until=p)
        assert result is job
        assert job.state is JobState.DONE
        assert job.completed_at == pytest.approx(100.0)
        assert job.queue_time == 0.0
        assert job.transfer_time == 0.0
        assert job.fetched_mb == 0.0

    def test_remote_data_job_waits_for_fetch(self, small_grid):
        sim, grid = small_grid
        job = make_job(origin="site01", inputs=("d0",))
        p = grid.sites["site01"].enqueue(job)
        sim.run(until=p)
        # 500 MB over 2 hops at 10 MB/s = 50 s fetch, then 100 s compute.
        assert job.completed_at == pytest.approx(150.0)
        assert job.transfer_time == pytest.approx(50.0)
        assert job.fetched_mb == 500.0

    def test_fifo_jobs_share_processors(self, small_grid):
        sim, grid = small_grid
        site = grid.sites["site00"]
        jobs = [make_job(job_id=i) for i in range(4)]
        procs = [site.enqueue(j) for j in jobs]
        sim.run(until=sim.all_of(procs))
        # 2 processors, 4 jobs of 100 s: two waves.
        assert sorted(j.completed_at for j in jobs) == [100, 100, 200, 200]
        assert jobs[2].queue_time == pytest.approx(100.0)

    def test_transfer_overlaps_queueing(self, small_grid):
        sim, grid = small_grid
        site = grid.sites["site01"]
        # Two long local-data jobs occupy both processors...
        blockers = [
            make_job(job_id=i, origin="site01", inputs=("d1",), runtime=200)
            for i in range(2)
        ]
        # ...while a remote-data job queues; its 50 s fetch overlaps the
        # 200 s queue wait entirely.
        fetcher = make_job(job_id=9, origin="site01", inputs=("d0",),
                           runtime=100)
        procs = [site.enqueue(j) for j in blockers]
        procs.append(site.enqueue(fetcher))
        sim.run(until=sim.all_of(procs))
        assert fetcher.queue_time == pytest.approx(200.0)
        assert fetcher.transfer_time == pytest.approx(0.0)  # overlapped
        assert fetcher.completed_at == pytest.approx(300.0)

    def test_completion_listener_called(self, small_grid):
        sim, grid = small_grid
        done = []
        grid.sites["site00"].completion_listeners.append(
            lambda j: done.append(j.job_id))
        p = grid.sites["site00"].enqueue(make_job(job_id=42))
        sim.run(until=p)
        assert done == [42]

    def test_jobs_completed_counter(self, small_grid):
        sim, grid = small_grid
        site = grid.sites["site00"]
        procs = [site.enqueue(make_job(job_id=i)) for i in range(3)]
        sim.run(until=sim.all_of(procs))
        assert site.jobs_completed == 3
        assert site.jobs_in_system == 0

    def test_input_unpinned_after_completion(self, small_grid):
        # Use a *cached* replica (primaries at their home site are pinned
        # forever by design): run a d0 job at site01.
        sim, grid = small_grid
        job = make_job(origin="site01", inputs=("d0",))
        p = grid.sites["site01"].enqueue(job)
        sim.run(until=p)
        assert "d0" in grid.storages["site01"]
        assert not grid.storages["site01"].is_pinned("d0")

    def test_input_pinned_while_running(self, small_grid):
        sim, grid = small_grid
        site = grid.sites["site01"]
        job = make_job(origin="site01", inputs=("d0",), runtime=100)
        site.enqueue(job)
        sim.run(until=100)  # fetch done at 50, compute until 150
        assert grid.storages["site01"].is_pinned("d0")

    def test_multi_input_job_waits_for_all(self, small_grid):
        sim, grid = small_grid
        job = make_job(origin="site03", inputs=("d0", "d1"), runtime=10)
        p = grid.sites["site03"].enqueue(job)
        sim.run(until=p)
        # d0: 500 MB, d1: 1000 MB share site03's downlink; the pair
        # completes when the slower one lands.  Both also cross their
        # own source uplinks.  Bottleneck share: 5 MB/s each while both
        # are active.
        assert job.fetched_mb == 1500.0
        assert job.completed_at > 100.0

    def test_load_counts_only_processorless_jobs(self, small_grid):
        sim, grid = small_grid
        site = grid.sites["site00"]
        for i in range(5):
            site.enqueue(make_job(job_id=i, runtime=1000))
        assert site.load == 3  # 2 running on processors

    def test_compute_busy_time_excludes_data_wait(self, small_grid):
        sim, grid = small_grid
        job = make_job(origin="site01", inputs=("d0",), runtime=100)
        p = grid.sites["site01"].enqueue(job)
        sim.run(until=p)
        ce = grid.sites["site01"].compute
        assert ce.busy_processor_seconds() == pytest.approx(100.0)
        # 50 s of the 150 s horizon was data wait on one processor.
        assert ce.idle_fraction() == pytest.approx(1 - 100 / (2 * 150))
