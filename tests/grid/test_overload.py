"""Overload protection: policy semantics, shedding, deadlines, degradation.

Each mechanism of :class:`~repro.grid.overload.OverloadPolicy` is driven
on a small star grid: bounded queues (deflect then shed), queue-deadline
expiry (both local-scheduler modes), priority aging, degraded-mode
placement, remote reads, and the replication storage-full skip.
"""

import random

import pytest

from repro.grid import Dataset, DatasetCollection, DataGrid, Job, JobState
from repro.grid.datamover import RemoteReadMB
from repro.grid.overload import OverloadPolicy, SaturationStats
from repro.grid.storage import StorageFullError
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLocal
from repro.scheduling.local import (
    DataAwareFIFOScheduler,
    ShortestJobFirstScheduler,
)
from repro.sim import Simulator
from repro.sim.trace import Tracer


class TestPolicy:
    def test_defaults_are_null(self):
        assert OverloadPolicy().is_null

    @pytest.mark.parametrize("kwargs", [
        {"queue_capacity": 1},
        {"job_deadline_s": 10.0},
        {"aging_factor": 0.5},
        {"degraded_es": "JobRandom"},
        {"storage_reservations": True},
    ])
    def test_any_mechanism_activates(self, kwargs):
        assert not OverloadPolicy(**kwargs).is_null

    def test_modifiers_alone_stay_null(self):
        # Budget and remote-read knobs modify other mechanisms; on their
        # own they must not install the overload layer.
        assert OverloadPolicy(deflect_budget=5).is_null
        assert OverloadPolicy(remote_read_after=9).is_null

    @pytest.mark.parametrize("kwargs", [
        {"queue_capacity": -1},
        {"deflect_budget": -1},
        {"job_deadline_s": -0.5},
        {"aging_factor": -2.0},
        {"remote_read_after": -1},
    ])
    def test_negative_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OverloadPolicy(**kwargs)

    def test_stats_start_at_zero(self):
        stats = SaturationStats()
        assert stats.jobs_deflected == 0
        assert stats.degraded_dispatches == 0
        assert stats.remote_reads == 0


def make_grid(policy=None, local_scheduler=None, external_scheduler=None,
              processors=1, storage_mb=10_000, tracer=None):
    """A 4-site star grid; dN (N x 500 MB) initially lives at siteN."""
    sim = Simulator()
    topology = Topology.star(4, 10.0)
    datasets = DatasetCollection([
        Dataset("d0", 500),
        Dataset("d1", 1000),
        Dataset("d2", 1500),
    ])
    grid = DataGrid.create(
        sim=sim,
        topology=topology,
        datasets=datasets,
        external_scheduler=external_scheduler or JobLocal(),
        local_scheduler=local_scheduler or FIFOLocalScheduler(),
        dataset_scheduler=DataDoNothing(),
        site_processors={name: processors for name in topology.sites},
        storage_capacity_mb=storage_mb,
        datamover_rng=random.Random(0),
        overload_policy=policy,
        tracer=tracer,
    )
    grid.place_initial_replicas(
        {"d0": "site00", "d1": "site01", "d2": "site02"})
    return sim, grid


def job(job_id, origin="site00", runtime_s=100.0, inputs=("d0",)):
    return Job(job_id, f"user{job_id}", origin, list(inputs), runtime_s)


class TestNullWiring:
    def test_null_policy_installs_nothing(self):
        sim, grid = make_grid(policy=OverloadPolicy())
        assert grid.overload is None
        assert grid.overload_stats is None
        assert grid.datamover.overload is None
        assert all(s.overload is None for s in grid.sites.values())

    def test_active_policy_wires_everywhere(self):
        policy = OverloadPolicy(queue_capacity=2)
        sim, grid = make_grid(policy=policy)
        assert grid.overload is policy
        assert grid.datamover.overload is policy
        assert all(s.overload is policy for s in grid.sites.values())
        assert grid.datamover.overload_stats is grid.overload_stats


class TestBoundedQueues:
    def test_overflow_deflects_to_least_loaded_site(self):
        policy = OverloadPolicy(queue_capacity=1, deflect_budget=1)
        sim, grid = make_grid(policy=policy, tracer=Tracer())
        # j0 takes site00's only processor, j1 fills its one queue slot,
        # so j2 (aimed at site00 by JobLocal) must deflect.
        jobs = [job(0), job(1), job(2)]
        for j in jobs:
            grid.submit(j)
        assert jobs[2].execution_site == "site01"
        assert jobs[2].deflections == 1
        assert grid.overload_stats.jobs_deflected == 1
        assert grid.overload_stats.degraded_dispatches == 1
        kinds = [r.kind for r in grid.tracer.records]
        assert "job.deflected" in kinds
        assert "es.degraded" in kinds
        sim.run()
        assert all(j.state is JobState.DONE for j in jobs)

    def test_budget_exhaustion_sheds(self):
        policy = OverloadPolicy(queue_capacity=1, deflect_budget=0)
        sim, grid = make_grid(policy=policy, tracer=Tracer())
        jobs = [job(0), job(1), job(2)]
        processes = [grid.submit(j) for j in jobs]
        assert jobs[2].state is JobState.SHED
        assert grid.shed_jobs == [jobs[2]]
        assert "queues saturated" in jobs[2].failure_reason
        assert any(r.kind == "job.shed" for r in grid.tracer.records)
        # The shed job's execution process completes immediately with
        # the (terminal) job, so sequential submitters never block on it.
        assert sim.run(until=processes[2]) is jobs[2]
        sim.run()
        assert grid.shed_jobs == [jobs[2]]
        assert len(grid.completed_jobs) == 2

    def test_all_sites_saturated_sheds_despite_budget(self):
        policy = OverloadPolicy(queue_capacity=1, deflect_budget=99)
        sim, grid = make_grid(policy=policy)
        jobs = []
        # Two jobs per site: one running, one waiting -> every queue full.
        for site_index in range(4):
            for _ in range(2):
                j = job(len(jobs), origin=f"site{site_index:02d}")
                jobs.append(j)
                grid.submit(j)
        straggler = job(99)
        grid.submit(straggler)
        assert straggler.state is JobState.SHED
        assert straggler.deflections == 0  # nowhere to deflect to
        sim.run()
        assert len(grid.completed_jobs) == 8

    def test_queue_depth_peak_is_recorded(self):
        sim, grid = make_grid(policy=OverloadPolicy(queue_capacity=3))
        for i in range(4):
            grid.submit(job(i))
        assert grid.sites["site00"].peak_queue_depth == 3
        sim.run()


class TestDeadlines:
    def test_waiting_job_expires_at_deadline(self):
        policy = OverloadPolicy(job_deadline_s=50.0)
        sim, grid = make_grid(policy=policy, tracer=Tracer())
        first, second = job(0, runtime_s=200.0), job(1, runtime_s=200.0)
        grid.submit(first)
        process = grid.submit(second)
        expired = sim.run(until=process)
        assert expired is second
        assert sim.now == pytest.approx(50.0)
        assert second.state is JobState.EXPIRED
        assert "deadline" in second.failure_reason
        assert grid.expired_jobs == [second]
        record = next(r for r in grid.tracer.records
                      if r.kind == "job.expired")
        assert record.detail["waited_s"] == pytest.approx(50.0)
        sim.run()
        assert first.state is JobState.DONE
        assert all(s.jobs_in_system == 0 for s in grid.sites.values())

    def test_expiry_frees_no_processor_it_never_held(self):
        # After an expiry, the site keeps granting processors correctly.
        policy = OverloadPolicy(job_deadline_s=50.0)
        sim, grid = make_grid(policy=policy)
        grid.submit(job(0, runtime_s=200.0))
        grid.submit(job(1, runtime_s=200.0))  # expires at t=50
        sim.run()
        third = job(2, runtime_s=10.0)
        grid.submit(third)
        sim.run()
        assert third.state is JobState.DONE

    def test_job_level_deadline_overrides_policy(self):
        policy = OverloadPolicy(job_deadline_s=50.0)
        sim, grid = make_grid(policy=policy)
        patient = job(1, runtime_s=10.0)
        patient.deadline_s = 10_000.0
        grid.submit(job(0, runtime_s=200.0))
        grid.submit(patient)
        sim.run()
        assert patient.state is JobState.DONE

    def test_zero_deadline_means_none(self):
        policy = OverloadPolicy(queue_capacity=50)  # non-null, no deadline
        sim, grid = make_grid(policy=policy)
        grid.submit(job(0, runtime_s=5_000.0))
        waiter = job(1, runtime_s=5_000.0)
        grid.submit(waiter)
        sim.run()
        assert waiter.state is JobState.DONE

    def test_dispatch_mode_expiry_withdraws_pending_entry(self):
        policy = OverloadPolicy(job_deadline_s=50.0)
        sim, grid = make_grid(policy=policy,
                              local_scheduler=DataAwareFIFOScheduler())
        first, second = job(0, runtime_s=200.0), job(1, runtime_s=200.0)
        grid.submit(first)
        grid.submit(second)
        site = grid.sites["site00"]
        assert site.load == 2  # dispatch-mode load counts pending entries
        sim.run(until=sim.timeout(60.0))
        assert second.state is JobState.EXPIRED
        # The dead entry left the pending queue: only the running first
        # job remains anywhere in the site.
        assert site.load == 0
        sim.run()
        assert first.state is JobState.DONE
        assert grid.expired_jobs == [second]
        assert all(s.jobs_in_system == 0 for s in grid.sites.values())


class TestAging:
    def run_order(self, aging_factor):
        policy = OverloadPolicy(aging_factor=aging_factor) \
            if aging_factor else OverloadPolicy(queue_capacity=50)
        sim, grid = make_grid(policy=policy,
                              local_scheduler=ShortestJobFirstScheduler())
        blocker = job(0, runtime_s=100.0)
        grid.submit(blocker)
        long_job = job(1, runtime_s=1_000.0)
        grid.submit(long_job)  # waits behind the blocker from t=0
        sim.run(until=sim.timeout(50.0))
        short_job = job(2, runtime_s=10.0)
        grid.submit(short_job)  # arrives later, much shorter
        sim.run()
        return long_job.processor_at, short_job.processor_at

    def test_sjf_without_aging_starves_the_long_job(self):
        long_at, short_at = self.run_order(aging_factor=0.0)
        assert short_at < long_at

    def test_aging_protects_the_earlier_long_job(self):
        # 50 s of head start at factor 100 outweighs the runtime gap.
        long_at, short_at = self.run_order(aging_factor=100.0)
        assert long_at < short_at


class _WedgedES:
    """A primary External Scheduler that never finds a candidate."""

    def select_site(self, job, grid):
        raise ValueError("no candidate sites")

    def __repr__(self):
        return "<WedgedES>"


class TestDegradedMode:
    def test_wedged_primary_falls_back_to_least_loaded(self):
        policy = OverloadPolicy(queue_capacity=50)
        sim, grid = make_grid(policy=policy,
                              external_scheduler=_WedgedES(),
                              tracer=Tracer())
        j = job(0)
        grid.submit(j)
        assert j.execution_site == "site00"  # least loaded, ties by name
        assert grid.overload_stats.degraded_dispatches == 1
        record = next(r for r in grid.tracer.records
                      if r.kind == "es.degraded")
        assert record.detail["es"] == "least-loaded"
        sim.run()
        assert j.state is JobState.DONE

    def test_named_degraded_es_is_used(self):
        policy = OverloadPolicy(degraded_es="JobLocal")
        sim, grid = make_grid(policy=policy,
                              external_scheduler=_WedgedES(),
                              tracer=Tracer())
        j = job(0, origin="site02")
        grid.submit(j)
        assert j.execution_site == "site02"  # JobLocal honours the origin
        record = next(r for r in grid.tracer.records
                      if r.kind == "es.degraded")
        assert record.detail["es"] == "JobLocal"
        sim.run()
        assert j.state is JobState.DONE

    def test_without_policy_a_wedged_primary_still_raises(self):
        sim, grid = make_grid(external_scheduler=_WedgedES())
        with pytest.raises(ValueError):
            grid.submit(job(0))


class TestRemoteRead:
    def make_tight_grid(self, remote_read_after=1):
        policy = OverloadPolicy(storage_reservations=True,
                                remote_read_after=remote_read_after)
        sim = Simulator()
        topology = Topology.star(3, 10.0)
        datasets = DatasetCollection([
            Dataset("local", 500),
            Dataset("remote", 550),
        ])
        grid = DataGrid.create(
            sim=sim,
            topology=topology,
            datasets=datasets,
            external_scheduler=JobLocal(),
            local_scheduler=FIFOLocalScheduler(),
            dataset_scheduler=DataDoNothing(),
            site_processors={name: 1 for name in topology.sites},
            storage_capacity_mb=600,
            datamover_rng=random.Random(0),
            overload_policy=policy,
            tracer=Tracer(),
        )
        # The pinned primary leaves 100 MB free: "remote" can never land.
        grid.place_initial_replica("local", "site00")
        grid.place_initial_replica("remote", "site01")
        return sim, grid

    def test_pinned_fetch_degrades_to_streaming_read(self):
        sim, grid = self.make_tight_grid()
        j = Job(0, "user0", "site00", ["remote"], 100.0)
        process = grid.submit(j)
        done = sim.run(until=process)
        assert done is j and j.state is JobState.DONE
        # The traffic was paid but nothing landed, nothing was pinned.
        assert j.fetched_mb == 550.0
        assert "remote" not in grid.storages["site00"]
        assert grid.overload_stats.remote_reads == 1
        record = next(r for r in grid.tracer.records
                      if r.kind == "fetch.remote")
        assert record.detail["size_mb"] == 550.0
        assert grid.storages["site00"].reserved_mb == 0

    def test_completion_unpins_only_what_was_pinned(self):
        # A copy of the streamed input that lands while the job computes
        # belongs to no job: completion must leave it unpinned.
        sim, grid = self.make_tight_grid()
        j = Job(0, "user0", "site00", ["remote"], 100.0)
        process = grid.submit(j)
        while j.state is not JobState.RUNNING:
            sim.step()
        storage = grid.storages["site00"]
        storage.remove("local")
        storage.add(grid.datasets.get("remote"), sim.now, pin=False)
        sim.run(until=process)
        assert j.state is JobState.DONE
        assert not storage.is_pinned("remote")

    def test_remote_read_marker_is_accounting_compatible(self):
        moved = RemoteReadMB(550.0)
        assert isinstance(moved, float)
        assert moved + 50.0 == 600.0


class TestReplicationSkipFull:
    def test_midflight_storage_full_is_counted_and_skipped(self):
        sim, grid = make_grid(tracer=Tracer())
        dm = grid.datamover

        def exploding_ensure(*args, **kwargs):
            raise StorageFullError("target pinned solid mid-push")
            yield  # pragma: no cover - makes this a generator

        dm._ensure = exploding_ensure
        moved = sim.run(until=dm.replicate("d0", "site00", "site03"))
        assert moved == 0.0
        assert dm.replications_skipped_full == 1
        assert dm.replications_skipped == 1
        record = next(r for r in grid.tracer.records
                      if r.kind == "replicate.skip")
        assert record.detail["reason"] == "storage-full"

    def test_clean_replication_does_not_touch_the_counter(self):
        sim, grid = make_grid()
        moved = sim.run(until=grid.datamover.replicate(
            "d0", "site00", "site03"))
        assert moved == 500.0
        assert grid.datamover.replications_skipped_full == 0
