"""Speculative backup execution: the straggler race, both directions.

Scenario engineering: five quick warm-up jobs build the completed-
duration sample the straggler threshold needs; a deliberately slow job
(long runtime, or a fetch stalled behind a dead link) then crosses the
threshold and gets one backup clone.  First completion wins through the
transition engine's SPECULATED edge, the loser is preempted at the same
timestamp, and the no-double-completion watchdog invariant holds.

The rule behind every scenario: a backup can only win.  It ends DONE
or retires SPECULATED; a primary that can no longer carry its job waits
for its live backup's race before booking its own outcome.
"""

import random

import pytest

from repro.faults import FaultPlan, LinkDegradation, ReplicaLoss, SiteOutage
from repro.grid import DataGrid, Dataset, DatasetCollection, Job
from repro.grid.health import SPECULATIVE_ID_BASE, HealthPolicy
from repro.grid.lifecycle import JobState
from repro.grid.overload import OverloadPolicy
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLocal
from repro.sim import Simulator
from repro.sim.trace import Tracer
from repro.watchdog import attach

SPEC = HealthPolicy(speculate_quantile=0.5, speculate_multiplier=2.0,
                    speculate_min_samples=5,
                    speculate_check_interval_s=10.0)


def make_grid(policy=SPEC, plan=None, tracer=None, processors=None,
              overload=None):
    """A 3-site star grid (site00 is the hub and holds d0)."""
    sim = Simulator()
    topology = Topology.star(3, 10.0)
    datasets = DatasetCollection([Dataset("d0", 500)])
    grid = DataGrid.create(
        sim=sim,
        topology=topology,
        datasets=datasets,
        external_scheduler=JobLocal(),
        local_scheduler=FIFOLocalScheduler(),
        dataset_scheduler=DataDoNothing(),
        site_processors=processors or {name: 2 for name in topology.sites},
        storage_capacity_mb=10_000,
        datamover_rng=random.Random(0),
        fault_plan=plan,
        fault_rng=random.Random(0) if plan is not None else None,
        health_policy=policy,
        health_rng=random.Random(0),
        overload_policy=overload,
        tracer=tracer,
    )
    grid.place_initial_replicas({"d0": "site00"})
    return sim, grid


def warm_up(sim, grid, n=5, runtime=10.0, start_id=100):
    """Complete ``n`` quick local jobs to seed the duration sample."""
    jobs = [Job(job_id=start_id + i, user="w", origin_site="site00",
                input_files=["d0"], runtime_s=runtime) for i in range(n)]
    done = [grid.submit(job) for job in jobs]
    sim.run(until=sim.all_of(done))
    return jobs


class TestPrimaryWins:
    def run_race(self, tracer=None):
        sim, grid = make_grid(tracer=tracer)
        warm_up(sim, grid)
        straggler = Job(job_id=1, user="u", origin_site="site00",
                        input_files=["d0"], runtime_s=300)
        done = grid.submit(straggler)
        sim.run(until=done)
        return sim, grid, straggler

    def test_straggler_gets_one_backup(self):
        sim, grid, straggler = self.run_race()
        stats = grid.health.stats
        assert stats.speculative_launched == 1
        assert straggler.state is JobState.DONE

    def test_loser_clone_is_speculated_not_failed(self):
        sim, grid, straggler = self.run_race()
        clones = [j for j in grid.submitted_jobs
                  if j.speculative_of == straggler.job_id]
        assert len(clones) == 1
        clone = clones[0]
        assert clone.job_id >= SPECULATIVE_ID_BASE
        assert clone.state is JobState.SPECULATED
        assert grid.health.stats.speculative_losers == 1
        assert grid.health.stats.speculative_wasted_s > 0
        assert clone in grid.speculated_jobs

    def test_exactly_one_completion(self):
        sim, grid, straggler = self.run_race()
        family = [j for j in grid.submitted_jobs
                  if j.job_id == straggler.job_id
                  or j.speculative_of == straggler.job_id]
        done = [j for j in family if j.state is JobState.DONE]
        assert len(done) == 1

    def test_watchdog_invariants_hold(self):
        sim, grid, straggler = self.run_race()
        dog = attach(grid)
        dog.check_now()  # raises InvariantViolation on any breakage

    def test_trace_records_the_race(self):
        tracer = Tracer()
        sim, grid, straggler = self.run_race(tracer=tracer)
        kinds = [r.kind for r in tracer.records]
        assert kinds.count("job.speculated") == 1
        assert kinds.count("job.preempted_loser") == 1
        speculated = next(r for r in tracer.records
                          if r.kind == "job.speculated")
        assert speculated.detail["job"] == straggler.job_id
        assert speculated.detail["clone"] >= SPECULATIVE_ID_BASE


class TestBackupWins:
    #: site01's uplink is dead for the whole run: any fetch toward
    #: site01 stalls until the transfer timeout, far beyond the race.
    PLAN = FaultPlan(link_degradations=[
        LinkDegradation("site01", "hub", 0.0, 100_000.0, 0.0)])

    def run_race(self):
        sim, grid = make_grid(plan=self.PLAN)
        warm_up(sim, grid)
        straggler = Job(job_id=1, user="u", origin_site="site01",
                        input_files=["d0"], runtime_s=10)
        done = grid.submit(straggler)
        sim.run(until=done)
        return sim, grid, straggler

    def test_primary_loses_and_backup_completes(self):
        sim, grid, straggler = self.run_race()
        assert straggler.state is JobState.SPECULATED
        clones = [j for j in grid.submitted_jobs
                  if j.speculative_of == straggler.job_id]
        assert len(clones) == 1
        assert clones[0].state is JobState.DONE
        # The backup ran where the data lives, not at the stalled site.
        assert clones[0].execution_site != "site01"

    def test_loser_accounting(self):
        sim, grid, straggler = self.run_race()
        stats = grid.health.stats
        assert stats.speculative_launched == 1
        assert stats.speculative_losers == 1
        assert stats.speculative_wasted_s > 0
        assert straggler in grid.speculated_jobs

    def test_watchdog_invariants_hold(self):
        sim, grid, straggler = self.run_race()
        dog = attach(grid)
        dog.check_now()


class TestBoundedWaste:
    def test_each_logical_job_speculated_at_most_once(self):
        """Many scan ticks pass while the straggler is still running;
        only the first launches a backup."""
        sim, grid = make_grid()
        warm_up(sim, grid)
        straggler = Job(job_id=1, user="u", origin_site="site00",
                        input_files=["d0"], runtime_s=1000)
        done = grid.submit(straggler)
        sim.run(until=done)
        # ~100 scanner ticks happened during the straggler's runtime.
        assert grid.health.stats.speculative_launched == 1

    def test_clones_are_never_cloned(self):
        sim, grid = make_grid(plan=TestBackupWins.PLAN)
        warm_up(sim, grid)
        straggler = Job(job_id=1, user="u", origin_site="site01",
                        input_files=["d0"], runtime_s=10)
        done = grid.submit(straggler)
        sim.run(until=done)
        assert all(j.speculative_of is None or j.job_id >=
                   SPECULATIVE_ID_BASE for j in grid.submitted_jobs)
        # No clone-of-a-clone: every speculative_of names a primary.
        for job in grid.submitted_jobs:
            if job.speculative_of is not None:
                assert job.speculative_of < SPECULATIVE_ID_BASE


class TestBoundedQueues:
    """A backup is admitted like any job: never into a full queue."""

    def test_backups_of_one_tick_respect_the_queue_bound(self):
        # Five stragglers at site00 cross the threshold on the same tick.
        # site01 and site02 have one processor and a queue of capacity 1
        # each, so they can take four backups between them (one running,
        # one waiting); the fifth must not launch.
        sim, grid = make_grid(
            processors={"site00": 5, "site01": 1, "site02": 1},
            overload=OverloadPolicy(queue_capacity=1))
        attach(grid, interval_s=5.0)
        for i in range(5):
            sim.run(until=grid.submit(Job(
                job_id=100 + i, user="w", origin_site="site00",
                input_files=["d0"], runtime_s=10.0)))
        stragglers = [Job(job_id=1 + i, user="u", origin_site="site00",
                          input_files=["d0"], runtime_s=300.0)
                      for i in range(5)]
        done = [grid.submit(job) for job in stragglers]
        sim.run(until=sim.all_of(done))
        assert grid.health.stats.speculative_launched == 4
        assert all(job.state is JobState.DONE for job in stragglers)
        grid.watchdog.check_now()


def _family(grid, primary):
    return grid.health.families[primary.job_id]


class TestBackupExpiry:
    def test_backup_expiring_in_a_queue_retires_speculated(self):
        # site01 and site02 each run one long blocker, so every backup
        # queues behind it and its deadline passes while the primary
        # (with a free processor at site00) runs on and finishes.
        sim, grid = make_grid(
            processors={"site00": 2, "site01": 1, "site02": 1},
            overload=OverloadPolicy(job_deadline_s=100.0))
        attach(grid, interval_s=50.0)
        warm_up(sim, grid)
        blockers = [Job(job_id=200 + i, user="b", origin_site=site,
                        input_files=["d0"], runtime_s=1_000.0)
                    for i, site in enumerate(("site01", "site02"))]
        straggler = Job(job_id=0, user="u", origin_site="site00",
                        input_files=["d0"], runtime_s=300.0)
        done = [grid.submit(job) for job in [*blockers, straggler]]
        sim.run(until=sim.all_of(done))
        backups = _family(grid, straggler)[1:]
        assert straggler.state is JobState.DONE
        assert len(backups) >= 2
        assert all(b.state is JobState.SPECULATED for b in backups)
        assert any("queue deadline" in b.failure_reason for b in backups)
        assert grid.expired_jobs == []
        assert (grid.health.stats.speculative_losers
                == grid.health.stats.speculative_launched)
        grid.watchdog.check_now()


class TestPrimaryThatCannotCarryTheJob:
    """A primary that can no longer carry its job while its backup runs.

    The primary fetches d0 to site01 and computes for 300 s; at t=50 its
    backup starts computing at site00, next to the data, and would finish
    at t=350.  At t=120 site01 fails and kills the primary.  Either d0
    has lost every replica (t=100), so re-dispatch finds its input gone,
    or the primary has no retries left.  A site00 outage at t=200, when
    armed, kills the backup too.
    """

    LOSSES = (ReplicaLoss("site00", "d0", 100.0),
              ReplicaLoss("site01", "d0", 100.0))

    def run(self, input_lost, backup_dies):
        outages = [SiteOutage("site01", 120.0, 100_000.0)]
        if backup_dies:
            outages.append(SiteOutage("site00", 200.0, 100_000.0))
        plan = FaultPlan(
            site_outages=tuple(outages),
            replica_losses=self.LOSSES if input_lost else (),
            job_max_retries=3 if input_lost else 0,
            redispatch_delay_s=10.0)
        sim, grid = make_grid(plan=plan)
        attach(grid, interval_s=50.0)
        warm_up(sim, grid)
        primary = Job(job_id=0, user="u", origin_site="site01",
                      input_files=["d0"], runtime_s=300.0)
        sim.run(until=grid.submit(primary))
        family = _family(grid, primary)
        assert len(family) == 2
        grid.watchdog.check_now()
        return sim, grid, primary, family[1]

    @pytest.mark.parametrize("input_lost", [True, False])
    def test_backup_wins_and_the_primary_concedes(self, input_lost):
        sim, grid, primary, backup = self.run(input_lost, backup_dies=False)
        assert backup.state is JobState.DONE
        assert primary.state is JobState.SPECULATED
        assert grid.failed_jobs == [] and grid.abandoned_jobs == []
        # The submission ended with the logical job's outcome, not when
        # the primary gave up.
        assert sim.now == backup.completed_at

    @pytest.mark.parametrize("input_lost, outcome", [
        (True, JobState.ABANDONED_DATA_LOST), (False, JobState.FAILED)])
    def test_backup_dies_and_the_primary_books_its_own(self, input_lost,
                                                       outcome):
        sim, grid, primary, backup = self.run(input_lost, backup_dies=True)
        assert backup.state is JobState.SPECULATED
        assert primary.state is outcome
        assert sim.now == 200.0


class TestNoFalseSpeculation:
    def test_quick_jobs_never_speculate(self):
        sim, grid = make_grid()
        warm_up(sim, grid, n=20)
        assert grid.health.stats.speculative_launched == 0

    def test_below_min_samples_never_speculates(self):
        policy = HealthPolicy(speculate_quantile=0.5,
                              speculate_min_samples=50,
                              speculate_check_interval_s=10.0)
        sim, grid = make_grid(policy=policy)
        warm_up(sim, grid)
        straggler = Job(job_id=1, user="u", origin_site="site00",
                        input_files=["d0"], runtime_s=300)
        done = grid.submit(straggler)
        sim.run(until=done)
        assert grid.health.stats.speculative_launched == 0


class TestConfigGuards:
    def test_speculation_rejected_with_dag_workloads(self):
        from repro.experiments.config import SimulationConfig

        with pytest.raises(ValueError, match="incompatible with DAG"):
            SimulationConfig.paper().with_(speculate_quantile=0.9,
                                           dag_shape="diamond")


class TestCrossValidation:
    def test_trace_agrees_with_metrics_under_speculation(self):
        from repro.experiments.runner import run_single
        from repro.trace.crossval import mismatches
        from repro.trace.golden import golden_config

        config = golden_config().with_(speculate_quantile=0.5,
                                       speculate_multiplier=1.5)
        tracer = Tracer()
        metrics = run_single(config, "JobRandom", "DataDoNothing",
                             tracer=tracer)
        assert mismatches(tracer.records, metrics) == {}
