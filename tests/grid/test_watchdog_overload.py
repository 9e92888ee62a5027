"""Watchdog overload invariants: clean saturated runs, seeded corruptions.

The three overload invariants (queue-bounded, no-overcommit,
no-starvation) only matter when an :class:`OverloadPolicy` is active, so
they get their own corruption suite: each test hand-breaks exactly one
law on an overloaded grid and asserts the watchdog names it.
"""

import random

import pytest

from repro import SimulationConfig, build_grid, make_workload
from repro.grid import Dataset, DatasetCollection, DataGrid, Job, JobState
from repro.grid.overload import OverloadPolicy
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLocal
from repro.scheduling.local import DataAwareFIFOScheduler
from repro.sim import Simulator
from repro.watchdog import InvariantViolation, attach


def make_grid(policy, local_scheduler=None):
    sim = Simulator()
    topology = Topology.star(4, 10.0)
    datasets = DatasetCollection([Dataset("d0", 500)])
    grid = DataGrid.create(
        sim=sim,
        topology=topology,
        datasets=datasets,
        external_scheduler=JobLocal(),
        local_scheduler=local_scheduler or FIFOLocalScheduler(),
        dataset_scheduler=DataDoNothing(),
        site_processors={name: 1 for name in topology.sites},
        storage_capacity_mb=10_000,
        datamover_rng=random.Random(0),
        overload_policy=policy,
    )
    grid.place_initial_replicas({"d0": "site00"})
    return sim, grid


def submit(grid, job_id, runtime_s=100.0):
    job = Job(job_id, f"user{job_id}", "site00", ["d0"], runtime_s)
    grid.submit(job)
    return job


def expect_violation(grid, invariant):
    with pytest.raises(InvariantViolation) as err:
        grid.watchdog.check_now()
    assert err.value.invariant == invariant
    return err.value


class TestCleanOverloadedRun:
    def test_saturated_full_run_passes_every_check(self):
        config = SimulationConfig.paper().scaled(0.02).with_(
            watchdog=True,
            queue_capacity=4,
            deflect_budget=2,
            job_deadline_s=4_000.0,
            storage_reservations=True,
            arrival_rate_per_s=0.3,
        )
        workload = make_workload(config, seed=0)
        sim, grid = build_grid(config, "JobDataPresent", "DataRandom",
                               workload, seed=0)
        grid.run()
        assert grid.watchdog is not None
        grid.watchdog.check_now()
        # The run actually saturated — the invariants were exercised,
        # not vacuously true.
        assert grid.shed_jobs or grid.expired_jobs


class TestQueueBounded:
    def test_overfull_pending_queue_detected(self):
        sim, grid = make_grid(OverloadPolicy(queue_capacity=1),
                              local_scheduler=DataAwareFIFOScheduler())
        dog = attach(grid)
        job = submit(grid, 0)
        site = grid.sites["site00"]
        # Forge extra pending entries past the admission check.
        site._pending.extend(site._pending * 2)
        violation = expect_violation(grid, "queue-bounded")
        assert violation.details["site"] == "site00"

    def test_budget_overrun_detected(self):
        sim, grid = make_grid(OverloadPolicy(queue_capacity=8,
                                             deflect_budget=1))
        dog = attach(grid)
        job = submit(grid, 0)
        job.deflections = 99
        violation = expect_violation(grid, "queue-bounded")
        assert violation.details["deflections"] == 99

    def test_unbounded_policy_skips_the_check(self):
        # queue_capacity=0 means unbounded: nothing to assert.
        sim, grid = make_grid(OverloadPolicy(job_deadline_s=10_000.0),
                              local_scheduler=DataAwareFIFOScheduler())
        dog = attach(grid)
        submit(grid, 0)
        grid.sites["site00"]._pending.extend(
            grid.sites["site00"]._pending * 5)
        dog.check_now()  # no violation


class TestNoOvercommit:
    def test_ledger_mismatch_detected(self):
        sim, grid = make_grid(OverloadPolicy(storage_reservations=True))
        dog = attach(grid)
        storage = grid.storages["site01"]
        storage._reserved_mb = 5.0  # booked total with an empty ledger
        violation = expect_violation(grid, "no-overcommit")
        assert violation.details["ledger_mb"] == 0

    def test_overcommitted_element_detected(self):
        sim, grid = make_grid(OverloadPolicy(storage_reservations=True))
        dog = attach(grid)
        storage = grid.storages["site01"]
        # Forge a reservation past capacity, bypassing reserve().
        storage._reservations["huge"] = storage.capacity_mb + 1
        storage._reserved_mb += storage.capacity_mb + 1
        violation = expect_violation(grid, "no-overcommit")
        assert violation.details["capacity_mb"] == storage.capacity_mb

    def test_check_is_trivially_true_without_reservations(self):
        sim, grid = make_grid(None)
        dog = attach(grid)
        dog.check_now()


class TestNoStarvation:
    def test_starved_queued_job_detected(self):
        sim, grid = make_grid(OverloadPolicy(job_deadline_s=50.0))
        dog = attach(grid)
        submit(grid, 0, runtime_s=500.0)  # takes the one processor
        waiter = submit(grid, 1, runtime_s=500.0)
        # Forge a queue wait far past the deadline without advancing the
        # clock (so the expiry timer cannot have fired yet).
        waiter.queued_at = -1_000.0
        violation = expect_violation(grid, "no-starvation")
        assert violation.details["job"] == waiter.job_id
        assert violation.details["deadline_s"] == 50.0

    def test_lowest_starving_id_is_reported(self):
        sim, grid = make_grid(OverloadPolicy(job_deadline_s=50.0))
        attach(grid)
        submit(grid, 0, runtime_s=500.0)  # takes the one processor
        # Ids whose set order is not ascending, so the scan meets the
        # higher one first.
        waiters = [submit(grid, job_id, runtime_s=500.0)
                   for job_id in (33, 2)]
        fetching = list(grid.lifecycle.by_state[JobState.FETCHING.index])
        assert fetching.index(33) < fetching.index(2)
        for waiter in waiters:
            waiter.queued_at = -1_000.0
        violation = expect_violation(grid, "no-starvation")
        assert violation.details["job"] == 2
        assert violation.details["waited_s"] == 1_000.0

    def test_fresh_waiter_passes(self):
        sim, grid = make_grid(OverloadPolicy(job_deadline_s=50.0))
        dog = attach(grid)
        submit(grid, 0, runtime_s=500.0)
        submit(grid, 1, runtime_s=500.0)
        dog.check_now()  # queued for 0 s: fine
