"""Unit tests for Dataset Scheduler policies (replication)."""

import random

import pytest

from repro.scheduling import DataDoNothing, DataLeastLoaded, DataRandom

from tests.scheduling.conftest import build_grid, load_site, make_job
from repro.grid import JobState


def run_with_accesses(ds_policy, accesses=6, runtime=1.0, horizon=2000.0,
                      n_sites=4):
    """Run `accesses` quick d0 jobs at site00 under the given DS policy."""
    sim, grid = build_grid(n_sites=n_sites, ds=ds_policy)
    jobs = []
    for i in range(accesses):
        job = make_job(job_id=i, runtime=runtime)
        job.advance(JobState.READY, 0.0)
        job.advance(JobState.DISPATCHED, 0.0)
        job.execution_site = "site00"
        jobs.append(grid.sites["site00"].enqueue(job))
    sim.run(until=horizon)
    return sim, grid


class TestDataDoNothing:
    def test_never_replicates(self):
        sim, grid = run_with_accesses(DataDoNothing(), accesses=10)
        assert grid.datamover.replications_done == 0
        assert grid.transfers.mb_moved_by_purpose().get("replication", 0) == 0


class TestDataRandom:
    def test_replicates_popular_dataset(self):
        ds = DataRandom(random.Random(0), popularity_threshold=5,
                        check_interval_s=100.0)
        sim, grid = run_with_accesses(ds, accesses=6)
        assert grid.datamover.replications_done >= 1
        assert grid.catalog.replica_count("d0") >= 2

    def test_below_threshold_no_replication(self):
        ds = DataRandom(random.Random(0), popularity_threshold=5,
                        check_interval_s=100.0)
        sim, grid = run_with_accesses(ds, accesses=3)
        assert grid.datamover.replications_done == 0

    def test_counter_resets_after_replication(self):
        ds = DataRandom(random.Random(0), popularity_threshold=5,
                        check_interval_s=100.0)
        sim, grid = run_with_accesses(ds, accesses=6)
        assert grid.storages["site00"].access_counts["d0"] == 0

    def test_replication_is_asynchronous(self):
        """Replication happens on the DS period, not at access time."""
        ds = DataRandom(random.Random(0), popularity_threshold=5,
                        check_interval_s=500.0)
        sim, grid = build_grid(ds=ds)
        for i in range(6):
            job = make_job(job_id=i, runtime=1.0)
            job.advance(JobState.READY, 0.0)
            job.advance(JobState.DISPATCHED, 0.0)
            job.execution_site = "site00"
            grid.sites["site00"].enqueue(job)
        sim.run(until=400)
        assert grid.datamover.replications_done == 0  # before first check
        sim.run(until=700)
        assert grid.datamover.replications_done >= 1  # after it

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DataRandom(random.Random(0), popularity_threshold=0)
        with pytest.raises(ValueError):
            DataRandom(random.Random(0), check_interval_s=0)


class TestDataLeastLoaded:
    def test_targets_least_loaded_neighbor(self):
        ds = DataLeastLoaded(random.Random(0), popularity_threshold=5,
                             check_interval_s=100.0, neighbor_hops=2)
        sim, grid = build_grid(ds=ds)
        load_site(grid, "site01", 8)
        load_site(grid, "site02", 8)
        for i in range(6):
            job = make_job(job_id=i, runtime=1.0)
            job.advance(JobState.READY, 0.0)
            job.advance(JobState.DISPATCHED, 0.0)
            job.execution_site = "site00"
            grid.sites["site00"].enqueue(job)
        sim.run(until=400)
        assert grid.catalog.has_replica("d0", "site03")

    def test_neighbor_radius_limits_targets(self):
        # In a ring of 6 with 1-hop neighbors, site00 can only push to
        # site01 and site05.
        ds = DataLeastLoaded(random.Random(0), popularity_threshold=5,
                             check_interval_s=100.0, neighbor_hops=1)
        sim, grid = build_grid(ds=ds)
        # star topology: 1 hop from a site reaches only the hub (a router),
        # so there are no site neighbors and no replication can happen.
        for i in range(6):
            job = make_job(job_id=i, runtime=1.0)
            job.advance(JobState.READY, 0.0)
            job.advance(JobState.DISPATCHED, 0.0)
            job.execution_site = "site00"
            grid.sites["site00"].enqueue(job)
        sim.run(until=500)
        assert grid.datamover.replications_done == 0

    def test_invalid_neighbor_hops(self):
        with pytest.raises(ValueError):
            DataLeastLoaded(random.Random(0), neighbor_hops=0)


class TestTargetEligibility:
    def test_holders_never_chosen(self):
        """Sites already holding the dataset are never replication targets."""
        ds = DataRandom(random.Random(0), popularity_threshold=1,
                        check_interval_s=50.0)
        sim, grid = build_grid(ds=DataDoNothing())
        # site00 (source) plus site01/site02 hold d0: only site03 eligible.
        grid.catalog.register("d0", "site01")
        grid.catalog.register("d0", "site02")
        site = grid.sites["site00"]
        for _ in range(20):
            assert ds._pick_target("d0", site, grid) == "site03"

    def test_all_holders_yields_none(self):
        ds = DataRandom(random.Random(0), popularity_threshold=1,
                        check_interval_s=50.0)
        sim, grid = build_grid(ds=DataDoNothing())
        for s in grid.sites:
            grid.catalog.register("d0", s)
        assert ds._pick_target("d0", grid.sites["site00"], grid) is None

    def test_repeated_popularity_spreads_replicas(self):
        """Sustained accesses eventually replicate to multiple sites."""
        ds = DataRandom(random.Random(0), popularity_threshold=2,
                        check_interval_s=50.0)
        sim, grid = build_grid(ds=ds)
        storage = grid.storages["site00"]

        def hammer():
            while sim.now < 1000:
                storage.record_access("d0", sim.now)
                yield sim.timeout(10)

        sim.process(hammer())
        sim.run(until=1200)
        assert grid.catalog.replica_count("d0") >= 3
