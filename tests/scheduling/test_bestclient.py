"""Unit tests for the DataBestClient policy (companion-paper strategy)."""

import random

import pytest

from repro.grid import Job, JobState
from repro.scheduling import DataBestClient

from tests.scheduling.conftest import build_grid, make_job


def run_demand(ds, requests, horizon=500.0):
    """Run quick d0 jobs at site00 with given origin sites."""
    sim, grid = build_grid(ds=ds)
    for i, origin in enumerate(requests):
        job = make_job(job_id=i, origin=origin, inputs=("d0",), runtime=1.0)
        job.advance(JobState.READY, 0.0)
        job.advance(JobState.DISPATCHED, 0.0)
        job.execution_site = "site00"
        grid.sites["site00"].enqueue(job)
    sim.run(until=horizon)
    return sim, grid


class TestDemandTracking:
    def test_observes_origins(self):
        ds = DataBestClient(random.Random(0), popularity_threshold=100,
                            check_interval_s=100.0)
        sim, grid = run_demand(
            ds, ["site01", "site01", "site02", "site01"])
        demand = ds.demand_for("site00", "d0")
        assert demand == {"site01": 3, "site02": 1}

    def test_unobserved_pair_empty(self):
        ds = DataBestClient(random.Random(0))
        assert ds.demand_for("site00", "d0") == {}


class TestBestClientReplication:
    def test_replicates_to_top_requester(self):
        ds = DataBestClient(random.Random(0), popularity_threshold=4,
                            check_interval_s=100.0)
        sim, grid = run_demand(
            ds, ["site01", "site01", "site01", "site02", "site02"])
        assert grid.catalog.has_replica("d0", "site01")
        assert not grid.catalog.has_replica("d0", "site03")

    def test_no_demand_no_replication(self):
        # Jobs originate at the holder itself: demand exists but the only
        # requester already holds the file -> nothing eligible.
        ds = DataBestClient(random.Random(0), popularity_threshold=3,
                            check_interval_s=100.0)
        sim, grid = run_demand(ds, ["site00"] * 6)
        assert grid.datamover.replications_done == 0

    def test_skips_requesters_that_already_hold(self):
        ds = DataBestClient(random.Random(0), popularity_threshold=3,
                            check_interval_s=100.0)
        sim, grid = build_grid(ds=ds)
        grid.catalog.register("d0", "site01")  # top client already has it
        for i, origin in enumerate(
                ["site01", "site01", "site01", "site02"]):
            job = make_job(job_id=i, origin=origin, inputs=("d0",),
                           runtime=1.0)
            job.advance(JobState.READY, 0.0)
            job.advance(JobState.DISPATCHED, 0.0)
            job.execution_site = "site00"
            grid.sites["site00"].enqueue(job)
        sim.run(until=500.0)
        # Replication goes to the runner-up (site02) instead.
        assert grid.catalog.has_replica("d0", "site02")

    def test_full_scaled_run(self):
        from repro import SimulationConfig, run_single
        config = SimulationConfig.paper().scaled(0.1)
        m = run_single(config, "JobDataPresent", "DataBestClient", seed=0)
        assert m.n_jobs == config.n_jobs
        assert m.replications_done > 0

    def test_beats_no_replication_at_scale(self):
        from repro import SimulationConfig, run_single
        config = SimulationConfig.paper().scaled(0.2)
        baseline = run_single(config, "JobDataPresent", "DataDoNothing",
                              seed=0)
        best_client = run_single(config, "JobDataPresent",
                                 "DataBestClient", seed=0)
        assert (best_client.avg_response_time_s
                < baseline.avg_response_time_s)
