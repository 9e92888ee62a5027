"""Unit tests for the DS idle-replica deletion extension (§3)."""

import random

import pytest

from repro import SimulationConfig, run_single
from repro.grid import JobState
from repro.scheduling import DataRandom

from tests.scheduling.conftest import build_grid, make_job


def run_quiet_grid(ds, horizon):
    """Grid where site01 fetches d0 once and then goes idle forever."""
    sim, grid = build_grid(ds=ds)
    job = make_job(job_id=0, origin="site01", inputs=("d0",), runtime=10)
    job.advance(JobState.READY, 0.0)
    job.advance(JobState.DISPATCHED, 0.0)
    job.execution_site = "site01"
    grid.sites["site01"].enqueue(job)
    sim.run(until=horizon)
    return sim, grid


class TestIdleDeletion:
    def test_idle_replica_deleted(self):
        ds = DataRandom(random.Random(0), popularity_threshold=100,
                        check_interval_s=100.0, delete_idle_after_s=500.0)
        sim, grid = run_quiet_grid(ds, horizon=2000.0)
        # The cached copy at site01 went idle and was reaped...
        assert "d0" not in grid.storages["site01"]
        assert not grid.catalog.has_replica("d0", "site01")
        # ...but the (pinned) primary at site00 survives.
        assert grid.catalog.locations("d0") == ["site00"]
        assert ds.deletions >= 1

    def test_no_deletion_when_disabled(self):
        ds = DataRandom(random.Random(0), popularity_threshold=100,
                        check_interval_s=100.0)
        sim, grid = run_quiet_grid(ds, horizon=2000.0)
        assert "d0" in grid.storages["site01"]
        assert ds.deletions == 0

    def test_fresh_replica_not_deleted(self):
        ds = DataRandom(random.Random(0), popularity_threshold=100,
                        check_interval_s=100.0,
                        delete_idle_after_s=100_000.0)
        sim, grid = run_quiet_grid(ds, horizon=2000.0)
        assert "d0" in grid.storages["site01"]

    def test_last_replica_never_deleted(self):
        # Make d9 exist only as an unpinned cached copy: register it
        # fresh at site01 with no primary anywhere else.
        ds = DataRandom(random.Random(0), popularity_threshold=100,
                        check_interval_s=100.0, delete_idle_after_s=50.0)
        sim, grid = build_grid(ds=ds)
        from repro.grid.files import Dataset
        lone = Dataset("lone", 300)
        grid.datasets.add(lone)
        grid.storages["site01"].add(lone, now=0.0, pin=False)
        grid.catalog.register("lone", "site01")
        sim.run(until=1000.0)
        assert "lone" in grid.storages["site01"]
        assert grid.catalog.replica_count("lone") == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            DataRandom(random.Random(0), delete_idle_after_s=-1)

    def test_full_run_with_deletion_enabled(self):
        config = SimulationConfig.paper().scaled(0.1).with_(
            ds_delete_idle_after_s=2000.0, ds_check_interval_s=200.0)
        m = run_single(config, "JobDataPresent", "DataRandom", seed=0)
        assert m.n_jobs == config.n_jobs


class TestIdleFilesQuery:
    def test_idle_files_respects_pins_and_age(self):
        from repro.grid import Dataset, StorageElement
        st = StorageElement("s", 10_000)
        st.add(Dataset("old", 100), now=0.0)
        st.add(Dataset("pinned-old", 100), now=0.0, pin=True)
        st.add(Dataset("fresh", 100), now=90.0)
        assert st.idle_files(now=100.0, older_than_s=50.0) == ["old"]

    def test_idle_files_negative_age_rejected(self):
        from repro.grid import StorageElement
        with pytest.raises(ValueError):
            StorageElement("s", 100).idle_files(now=0.0, older_than_s=-1)
