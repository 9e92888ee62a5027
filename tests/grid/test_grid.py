"""Unit tests for the DataGrid aggregate: wiring, submission, placement."""

import random

import pytest

from repro.grid import DataGrid, Dataset, DatasetCollection, Job, JobState, User
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLocal
from repro.sim import Simulator


class TestCreate:
    def test_missing_processor_counts_rejected(self):
        sim = Simulator()
        topo = Topology.star(3, 10)
        with pytest.raises(ValueError, match="no processor counts"):
            DataGrid.create(
                sim=sim, topology=topo,
                datasets=DatasetCollection([Dataset("d", 100)]),
                external_scheduler=JobLocal(),
                local_scheduler=FIFOLocalScheduler(),
                dataset_scheduler=DataDoNothing(),
                site_processors={"site00": 2},
            )

    def test_invalid_topology_rejected(self):
        sim = Simulator()
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")  # disconnected
        with pytest.raises(ValueError):
            DataGrid.create(
                sim=sim, topology=topo,
                datasets=DatasetCollection(),
                external_scheduler=JobLocal(),
                local_scheduler=FIFOLocalScheduler(),
                dataset_scheduler=DataDoNothing(),
                site_processors={"a": 1, "b": 1},
            )

    def test_eviction_deregisters_replica(self, small_grid):
        sim, grid = small_grid
        storage = grid.storages["site03"]
        extra = Dataset("filler", 9800)  # 500 + 9800 > 10 GB: evicts d0
        grid.datasets.add(extra)
        p = grid.datamover.ensure_local("site03", "d0")
        sim.run(until=p)
        assert grid.catalog.has_replica("d0", "site03")
        storage.add(extra, now=sim.now)  # forces LRU eviction of d0
        assert not grid.catalog.has_replica("d0", "site03")
        # The primary at site00 is untouched.
        assert grid.catalog.locations("d0") == ["site00"]

    def test_total_processors(self, small_grid):
        _, grid = small_grid
        assert grid.total_processors == 8


class TestPlacement:
    def test_primary_is_pinned(self, small_grid):
        _, grid = small_grid
        assert grid.storages["site00"].is_pinned("d0")

    def test_overflow_to_freest_site(self):
        sim = Simulator()
        topo = Topology.star(2, 10)
        datasets = DatasetCollection(
            [Dataset(f"d{i}", 1000) for i in range(6)])
        grid = DataGrid.create(
            sim=sim, topology=topo, datasets=datasets,
            external_scheduler=JobLocal(),
            local_scheduler=FIFOLocalScheduler(),
            dataset_scheduler=DataDoNothing(),
            site_processors={s: 1 for s in topo.sites},
            storage_capacity_mb=5000,
        )
        # All six mapped to site00 (6000 MB > 5000 MB capacity): some
        # must overflow to site01 while keeping 1000 MB headroom each.
        grid.place_initial_replicas({f"d{i}": "site00" for i in range(6)})
        assert grid.catalog.total_replicas() == 6
        assert grid.storages["site00"].used_mb <= 4000
        assert grid.storages["site01"].used_mb >= 2000

    def test_impossible_placement_raises(self):
        sim = Simulator()
        topo = Topology.star(2, 10)
        datasets = DatasetCollection(
            [Dataset(f"d{i}", 2000) for i in range(10)])
        grid = DataGrid.create(
            sim=sim, topology=topo, datasets=datasets,
            external_scheduler=JobLocal(),
            local_scheduler=FIFOLocalScheduler(),
            dataset_scheduler=DataDoNothing(),
            site_processors={s: 1 for s in topo.sites},
            storage_capacity_mb=5000,
        )
        with pytest.raises(ValueError, match="storage too small"):
            grid.place_initial_replicas(
                {f"d{i}": "site00" for i in range(10)})


class TestSubmit:
    def test_submit_routes_through_es(self, small_grid):
        sim, grid = small_grid
        job = Job(job_id=0, user="u", origin_site="site02",
                  input_files=["d2"], runtime_s=10)
        p = grid.submit(job)
        sim.run(until=p)
        assert job.execution_site == "site02"  # JobLocal
        assert job.state is JobState.DONE
        assert grid.submitted_jobs == [job]
        assert grid.completed_jobs == [job]

    def test_es_returning_unknown_site_rejected(self, small_grid):
        sim, grid = small_grid

        class BadES:
            def select_site(self, job, grid):
                return "mars"

        grid.external_scheduler = BadES()
        job = Job(job_id=0, user="u", origin_site="site00",
                  input_files=["d0"], runtime_s=10)
        with pytest.raises(ValueError, match="unknown site"):
            grid.submit(job)


class TestRun:
    def test_run_without_users_rejected(self, small_grid):
        _, grid = small_grid
        with pytest.raises(ValueError, match="no users"):
            grid.run()

    def test_run_returns_makespan(self, small_grid):
        sim, grid = small_grid
        jobs = [
            Job(job_id=i, user="u0", origin_site="site00",
                input_files=["d0"], runtime_s=100)
            for i in range(2)
        ]
        grid.add_user(User(sim, "u0", "site00", jobs, grid))
        makespan = grid.run()
        assert makespan == pytest.approx(200.0)  # sequential submission
