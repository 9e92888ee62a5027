"""Analytic golden scenarios: hand-computed expectations, exact numbers.

Each test constructs a grid small enough that queue/transfer/compute
times can be derived with pencil and paper, and checks the simulator to
float precision.  These pin down the execution semantics the paper-scale
results rest on (overlap of fetch and queueing, equal-share contention,
FIFO processor grants, sequential users).
"""

import random

import pytest

from repro.grid import DataGrid, Dataset, DatasetCollection, Job, JobState, User
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLocal
from repro.sim import Simulator


def build(n_sites=3, processors=1, bandwidth=10.0, sizes=(1000,)):
    """Star grid; dataset dK (sizes[K] MB) primary at siteK."""
    sim = Simulator()
    topology = Topology.star(n_sites, bandwidth)
    datasets = DatasetCollection(
        [Dataset(f"d{i}", size) for i, size in enumerate(sizes)])
    grid = DataGrid.create(
        sim=sim, topology=topology, datasets=datasets,
        external_scheduler=JobLocal(),
        local_scheduler=FIFOLocalScheduler(),
        dataset_scheduler=DataDoNothing(),
        site_processors={s: processors for s in topology.sites},
        storage_capacity_mb=100_000,
        datamover_rng=random.Random(0),
    )
    grid.place_initial_replicas(
        {f"d{i}": f"site{i:02d}" for i in range(len(sizes))})
    return sim, grid


def job(job_id, origin, inputs, runtime):
    j = Job(job_id=job_id, user=f"u{job_id}", origin_site=origin,
            input_files=list(inputs), runtime_s=runtime)
    j.advance(JobState.READY, 0.0)
    j.advance(JobState.DISPATCHED, 0.0)
    j.execution_site = origin
    return j


class TestSingleJob:
    def test_local_data_pure_compute(self):
        sim, grid = build()
        j = job(0, "site00", ["d0"], 400)
        p = grid.sites["site00"].enqueue(j)
        sim.run(until=p)
        # No fetch, no queue: response == compute == 400 s.
        assert j.completed_at == pytest.approx(400.0)

    def test_remote_fetch_then_compute(self):
        sim, grid = build()
        j = job(0, "site01", ["d0"], 400)
        p = grid.sites["site01"].enqueue(j)
        sim.run(until=p)
        # 1000 MB over two uncontended 10 MB/s hops: 100 s, then 400 s.
        assert j.data_ready_at == pytest.approx(100.0)
        assert j.completed_at == pytest.approx(500.0)

    def test_transfer_time_scales_inverse_bandwidth(self):
        for bw, expected in ((10.0, 100.0), (100.0, 10.0), (50.0, 20.0)):
            sim, grid = build(bandwidth=bw)
            j = job(0, "site01", ["d0"], 0)
            p = grid.sites["site01"].enqueue(j)
            sim.run(until=p)
            assert j.completed_at == pytest.approx(expected)


class TestQueueingExact:
    def test_fifo_serialization_one_processor(self):
        sim, grid = build(processors=1)
        jobs = [job(i, "site00", ["d0"], 100) for i in range(3)]
        procs = [grid.sites["site00"].enqueue(j) for j in jobs]
        sim.run(until=sim.all_of(procs))
        assert [j.completed_at for j in jobs] == [
            pytest.approx(100.0), pytest.approx(200.0),
            pytest.approx(300.0)]
        assert jobs[2].queue_time == pytest.approx(200.0)

    def test_max_queue_transfer_overlap_exact(self):
        # One processor runs a 300 s local job; a second job's 100 s
        # fetch fully overlaps the queue wait.
        sim, grid = build(processors=1)
        blocker = job(0, "site01", ["d1"], 300)
        fetcher = job(1, "site01", ["d0"], 50)
        grid.datasets.add(Dataset("d1", 100))
        grid.place_initial_replica("d1", "site01")
        p0 = grid.sites["site01"].enqueue(blocker)
        p1 = grid.sites["site01"].enqueue(fetcher)
        sim.run(until=sim.all_of([p0, p1]))
        # fetcher: max(queue 300, transfer 100) + 50 = 350.
        assert fetcher.completed_at == pytest.approx(350.0)
        assert fetcher.transfer_time == pytest.approx(0.0)

    def test_transfer_longer_than_queue(self):
        # Queue frees at 100 s but the fetch needs 200 s: the processor
        # then sits idle-holding until data arrives.
        sim, grid = build(processors=1, sizes=(2000,))
        blocker = job(0, "site01", ["d1"], 100)
        fetcher = job(1, "site01", ["d0"], 50)
        grid.datasets.add(Dataset("d1", 100))
        grid.place_initial_replica("d1", "site01")
        p0 = grid.sites["site01"].enqueue(blocker)
        p1 = grid.sites["site01"].enqueue(fetcher)
        sim.run(until=sim.all_of([p0, p1]))
        # fetcher: max(queue 100, transfer 200) + 50 = 250.
        assert fetcher.completed_at == pytest.approx(250.0)
        assert fetcher.transfer_time == pytest.approx(100.0)
        # Idle accounting: processor computed 150 s of the 250 s span.
        ce = grid.sites["site01"].compute
        assert ce.busy_processor_seconds(250.0) == pytest.approx(150.0)


class TestContentionExact:
    def test_two_fetches_share_source_uplink(self):
        # Both site01 and site02 pull d0 (1000 MB) from site00 at the
        # same instant: the shared source uplink halves both rates.
        sim, grid = build()
        j1 = job(0, "site01", ["d0"], 0)
        j2 = job(1, "site02", ["d0"], 0)
        p1 = grid.sites["site01"].enqueue(j1)
        p2 = grid.sites["site02"].enqueue(j2)
        sim.run(until=sim.all_of([p1, p2]))
        assert j1.completed_at == pytest.approx(200.0)
        assert j2.completed_at == pytest.approx(200.0)

    def test_dedup_two_jobs_same_site_one_transfer(self):
        # Two jobs at site01 both need d0: one wire transfer, both wait
        # the same 100 s (then serialize on the single processor).
        sim, grid = build(processors=2)
        j1 = job(0, "site01", ["d0"], 50)
        j2 = job(1, "site01", ["d0"], 50)
        p1 = grid.sites["site01"].enqueue(j1)
        p2 = grid.sites["site01"].enqueue(j2)
        sim.run(until=sim.all_of([p1, p2]))
        assert grid.transfers.total_mb_moved == pytest.approx(1000.0)
        assert j1.completed_at == pytest.approx(150.0)
        assert j2.completed_at == pytest.approx(150.0)


class TestSequentialUser:
    def test_user_makespan_is_sum_of_responses(self):
        sim, grid = build()
        jobs = [
            Job(job_id=i, user="u0", origin_site="site00",
                input_files=["d0"], runtime_s=100)
            for i in range(4)
        ]
        grid.add_user(User(sim, "u0", "site00", jobs, grid))
        makespan = grid.run()
        assert makespan == pytest.approx(400.0)
        for i, j in enumerate(jobs):
            assert j.submitted_at == pytest.approx(100.0 * i)

    def test_two_users_one_processor_interleave(self):
        sim, grid = build(processors=1)
        jobs_a = [Job(job_id=i, user="a", origin_site="site00",
                      input_files=["d0"], runtime_s=100) for i in range(2)]
        jobs_b = [Job(job_id=10 + i, user="b", origin_site="site00",
                      input_files=["d0"], runtime_s=100) for i in range(2)]
        grid.add_user(User(sim, "a", "site00", jobs_a, grid))
        grid.add_user(User(sim, "b", "site00", jobs_b, grid))
        makespan = grid.run()
        # 4 × 100 s of work on one processor, no gaps.
        assert makespan == pytest.approx(400.0)
        # Perfect alternation: a0 b0 a1 b1.
        starts = sorted(
            (j.started_at, j.user) for j in jobs_a + jobs_b)
        assert [u for _, u in starts] == ["a", "b", "a", "b"]


class TestReplicationTimingExact:
    def test_replica_transfer_duration(self):
        sim, grid = build()
        p = grid.datamover.replicate("d0", "site00", "site02")
        moved = sim.run(until=p)
        assert moved == pytest.approx(1000.0)
        assert sim.now == pytest.approx(100.0)  # 1000 MB over 10 MB/s
