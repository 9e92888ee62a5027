"""Unit tests for the dispatch-mode data-aware local scheduler."""

import pytest

from repro.grid import JobState
from repro.scheduling import DataAwareFIFOScheduler
from repro.scheduling.base import QueuedJob

from tests.scheduling.conftest import build_grid, make_job


def enqueue(grid, job):
    job.advance(JobState.READY, grid.sim.now)
    job.advance(JobState.DISPATCHED, grid.sim.now)
    job.execution_site = job.origin_site
    return grid.sites[job.origin_site].enqueue(job)


class TestDispatchMechanics:
    def test_flag(self):
        ls = DataAwareFIFOScheduler()
        assert ls.dispatches
        assert not ls.uses_priorities

    def test_pick_prefers_first_ready(self):
        class FakeEvent:
            def __init__(self, triggered):
                self.triggered = triggered

        entries = [
            QueuedJob(make_job(0), 0.0, FakeEvent(False)),
            QueuedJob(make_job(1), 1.0, FakeEvent(True)),
            QueuedJob(make_job(2), 2.0, FakeEvent(True)),
        ]
        assert DataAwareFIFOScheduler().pick(entries, now=5.0) == 1

    def test_pick_waits_when_nothing_ready(self):
        class FakeEvent:
            triggered = False

        entries = [QueuedJob(make_job(i), float(i), FakeEvent())
                   for i in range(3)]
        assert DataAwareFIFOScheduler().pick(entries, now=5.0) is None


class TestBackfilling:
    def test_ready_job_overtakes_fetching_head(self):
        """One processor; the head job needs a 50 s fetch (d1: 500 MB
        over two 10 MB/s hops), the second job's data is local.
        Data-aware runs the second job during the fetch; plain FIFO
        makes it wait."""
        results = {}
        for ls_name in ("FIFO", "FIFO-DataAware"):
            from repro.scheduling.registry import make_local_scheduler
            sim, grid = build_grid(ls=make_local_scheduler(ls_name),
                                   processors=1)
            fetcher = make_job(job_id=0, origin="site00", inputs=("d1",),
                               runtime=50)   # d1 remote: 100 s fetch
            local = make_job(job_id=1, origin="site00", inputs=("d0",),
                             runtime=50)     # d0 local
            p0 = enqueue(grid, fetcher)
            p1 = enqueue(grid, local)
            sim.run(until=sim.all_of([p0, p1]))
            results[ls_name] = (fetcher.completed_at, local.completed_at)

        fifo_fetcher, fifo_local = results["FIFO"]
        da_fetcher, da_local = results["FIFO-DataAware"]
        # FIFO: fetcher holds the processor over fetch (0-50) + compute
        # (50-100); local then runs 100-150.
        assert fifo_fetcher == pytest.approx(100.0)
        assert fifo_local == pytest.approx(150.0)
        # Data-aware: local backfills 0-50; fetcher's data lands at 50,
        # it computes 50-100.  Everyone is at least as well off.
        assert da_local == pytest.approx(50.0)
        assert da_fetcher == pytest.approx(100.0)

    def test_no_ready_jobs_behaves_like_fifo(self):
        from repro.scheduling.registry import make_local_scheduler
        sim, grid = build_grid(ls=make_local_scheduler("FIFO-DataAware"),
                               processors=1)
        # Both jobs need remote data; FIFO order must hold.
        j0 = make_job(job_id=0, origin="site00", inputs=("d1",), runtime=10)
        j1 = make_job(job_id=1, origin="site00", inputs=("d2",), runtime=10)
        p0 = enqueue(grid, j0)
        p1 = enqueue(grid, j1)
        sim.run(until=sim.all_of([p0, p1]))
        assert j0.started_at < j1.started_at

    def test_load_visible_in_dispatch_mode(self):
        from repro.scheduling.registry import make_local_scheduler
        sim, grid = build_grid(ls=make_local_scheduler("FIFO-DataAware"),
                               processors=1)
        for i in range(4):
            enqueue(grid, make_job(job_id=i, origin="site00",
                                   inputs=("d0",), runtime=1000))
        # Prefetch processes have not run yet, so nothing is "ready" and
        # all four jobs still count as waiting.
        assert grid.sites["site00"].load == 4
        sim.run(until=1.0)  # prefetches resolve instantly (data local)
        # One job dispatched onto the single processor, 3 pending.
        assert grid.sites["site00"].load == 3
        assert grid.info.load("site00") == 3

    def test_full_scaled_run_completes(self):
        from repro import SimulationConfig, run_single
        config = SimulationConfig.paper().scaled(0.1).with_(
            local_scheduler="FIFO-DataAware")
        m = run_single(config, "JobLeastLoaded", "DataRandom", seed=0)
        assert m.n_jobs == config.n_jobs

    def test_utilization_never_worse_than_fifo(self):
        from repro import SimulationConfig, run_single
        config = SimulationConfig.paper().scaled(0.2).with_(
            storage_capacity_mb=20_000.0)
        fifo = run_single(config, "JobRandom", "DataDoNothing", seed=0)
        aware = run_single(
            config.with_(local_scheduler="FIFO-DataAware"),
            "JobRandom", "DataDoNothing", seed=0)
        # Backfilling may not help much (network-bound regimes), but it
        # must not meaningfully hurt utilization.
        assert aware.idle_fraction <= fifo.idle_fraction + 0.03
