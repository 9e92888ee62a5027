"""The runtime invariant watchdog: clean passes and seeded corruptions.

Each corruption test breaks exactly one conservation law by hand and
asserts the watchdog names that invariant — proving the checks are
neither vacuous nor cross-wired.
"""

import types

import pytest

from repro import SimulationConfig, build_grid, make_workload
from repro.grid.job import JobState
from repro.sim import Simulator
from repro.sim.trace import Tracer
from repro.watchdog import InvariantViolation, Watchdog, attach


def small_run_grid(**config_changes):
    config = SimulationConfig.paper().scaled(0.02).with_(**config_changes)
    workload = make_workload(config, seed=0)
    return build_grid(config, "JobDataPresent", "DataRandom", workload,
                      seed=0)


class TestConstruction:
    def test_nonpositive_interval_rejected(self, small_grid):
        sim, grid = small_grid
        for interval in (0.0, -10.0):
            with pytest.raises(ValueError):
                Watchdog(sim, grid, interval_s=interval)

    def test_attach_registers_on_grid(self, small_grid):
        _, grid = small_grid
        dog = attach(grid)
        assert grid.watchdog is dog


class TestCleanRuns:
    def test_fresh_grid_passes_all_checks(self, small_grid):
        _, grid = small_grid
        dog = attach(grid)
        dog.check_now()
        assert dog.checks_run == 1

    def test_clean_full_run_passes(self):
        sim, grid = small_run_grid(watchdog=True)
        grid.run()
        assert grid.watchdog is not None
        grid.watchdog.check_now()
        assert grid.watchdog.checks_run > 1  # periodic loop fired mid-run

    def test_faulty_full_run_passes(self):
        from repro import FaultPlan, SiteOutage

        plan = FaultPlan(
            site_outages=(SiteOutage("site00", 500.0, 3_000.0),),
            transfer_fail_prob=0.1, seed=1)
        sim, grid = small_run_grid(watchdog=True, fault_plan=plan)
        grid.run()
        grid.watchdog.check_now()

    def test_stale_full_run_passes(self):
        sim, grid = small_run_grid(watchdog=True, catalog_delay_s=600.0)
        grid.run()
        grid.watchdog.check_now()

    def test_check_emits_trace_record(self, small_grid):
        _, grid = small_grid
        grid.tracer = Tracer()
        dog = attach(grid)
        dog.check_now()
        assert [r.kind for r in grid.tracer.records] == ["watchdog.check"]
        assert grid.tracer.records[0].detail["n"] == 1


class TestSeededCorruptions:
    def expect_violation(self, grid, invariant):
        with pytest.raises(InvariantViolation) as err:
            grid.watchdog.check_now()
        assert err.value.invariant == invariant
        assert invariant in str(err.value)
        return err.value

    def test_lost_job_breaks_jobs_conserved(self, small_grid):
        _, grid = small_grid
        attach(grid)
        grid.sites["site00"].jobs_in_system += 1
        violation = self.expect_violation(grid, "jobs-conserved")
        assert violation.details["sites_in_system"] == 1

    def test_negative_queue_breaks_jobs_conserved(self, small_grid):
        _, grid = small_grid
        attach(grid)
        grid.sites["site00"].jobs_in_system = -1
        self.expect_violation(grid, "jobs-conserved")

    def test_storage_leak_breaks_accounting(self, small_grid):
        _, grid = small_grid
        attach(grid)
        grid.storages["site00"]._used_mb += 123.0
        violation = self.expect_violation(grid, "storage-accounting")
        assert violation.details["site"] == "site00"

    def test_overfull_storage_detected(self, small_grid):
        _, grid = small_grid
        attach(grid)
        # site02 holds d2 (books stay self-consistent); shrinking the
        # capacity below occupancy trips the capacity clause.
        storage = grid.storages["site02"]
        storage.capacity_mb = storage.used_mb - 1.0
        self.expect_violation(grid, "storage-accounting")

    def test_aborted_completed_transfer_detected(self, small_grid):
        _, grid = small_grid
        attach(grid)
        grid.transfers.completed.append(types.SimpleNamespace(
            src="site00", dst="site01", size_mb=10.0, failed=True,
            finished_at=5.0, remaining_mb=0.0))
        self.expect_violation(grid, "transfers-consistent")

    def test_unfinished_completed_transfer_detected(self, small_grid):
        _, grid = small_grid
        attach(grid)
        grid.transfers.completed.append(types.SimpleNamespace(
            src="site00", dst="site01", size_mb=10.0, failed=False,
            finished_at=None, remaining_mb=4.0))
        self.expect_violation(grid, "transfers-consistent")

    def test_ghost_catalog_record_detected(self, small_grid):
        _, grid = small_grid
        attach(grid)
        grid.catalog.register("d0", "site03", 500.0)  # nothing resident
        self.expect_violation(grid, "catalog-consistent")

    def test_unregistered_resident_file_detected(self, small_grid):
        sim, grid = small_grid
        attach(grid)
        grid.catalog.deregister("d2", "site02")
        self.expect_violation(grid, "catalog-consistent")

    def test_corrupted_stale_view_detected(self):
        sim, grid = small_run_grid(catalog_delay_s=600.0)
        attach(grid)
        grid.watchdog.check_now()  # sanity: clean before corruption
        view = grid.info.replica_view
        view._locations.setdefault("dataset0000", set()).add("ghost-site")
        self.expect_violation(grid, "stale-view-bounded")


class TestRounds:
    """The periodic round recounts only what changed since the last check."""

    def test_idle_round_recounts_no_site_and_no_transfer(
            self, small_grid, monkeypatch):
        from repro.grid import Job

        sim, grid = small_grid
        scopes = []
        check_storage = Watchdog._check_storage
        check_transfers = Watchdog._check_transfers

        def spy_storage(self, sites):
            scopes.append([sites])
            check_storage(self, sites)

        def spy_transfers(self, first):
            scopes[-1].append(len(self.grid.transfers.completed) - first)
            check_transfers(self, first)

        monkeypatch.setattr(Watchdog, "_check_storage", spy_storage)
        monkeypatch.setattr(Watchdog, "_check_transfers", spy_transfers)
        attach(grid, interval_s=100.0)
        # site03 pulls d0 from site00 and runs the job before t=100.
        done = grid.submit(Job(job_id=1, user="u", origin_site="site03",
                               input_files=["d0"], runtime_s=10))
        sim.run(until=done)
        sim.run(until=350.0)
        assert scopes == [
            [["site00", "site01", "site02", "site03"], 1],  # first round
            [[], 0],
            [[], 0],
        ]

    def test_raw_write_after_first_round_caught_by_final_check(
            self, small_grid):
        sim, grid = small_grid
        dog = attach(grid, interval_s=10.0)
        sim.run(until=15.0)
        # A direct field write moves no version, and site03 is idle, so
        # the rounds that follow skip it; the full check recounts it.
        grid.storages["site03"]._used_mb += 1.0
        sim.run(until=55.0)
        assert dog.checks_run == 5
        with pytest.raises(InvariantViolation) as err:
            dog.check_now()
        assert err.value.invariant == "storage-accounting"
        assert err.value.details["site"] == "site03"


def _attempt(job_id, state, of=None):
    return types.SimpleNamespace(job_id=job_id, state=state,
                                 speculative_of=of)


def _judge(*family):
    """Judge one family (the primary first) as ``check_now()`` does."""
    grid = types.SimpleNamespace(tracer=None)
    Watchdog(Simulator(), grid)._check_family(list(family))


class TestSpeculationFamilies:
    """no-double-completion judges a logical job's attempts together:
    at most one ends in a terminal state other than SPECULATED, and
    exactly one once every attempt has ended."""

    def test_conceded_then_won_family_passes(self):
        # The first backup retired, a second backup then beat the
        # primary: two SPECULATED attempts, one DONE.
        _judge(_attempt(0, JobState.SPECULATED),
               _attempt(100, JobState.SPECULATED, of=0),
               _attempt(101, JobState.DONE, of=0))

    def test_two_done_attempts_fail(self):
        with pytest.raises(InvariantViolation) as err:
            _judge(_attempt(7, JobState.SPECULATED),
                   _attempt(100, JobState.DONE, of=7),
                   _attempt(101, JobState.DONE, of=7))
        assert err.value.invariant == "no-double-completion"
        assert err.value.details["done"] == [100, 101]

    @pytest.mark.parametrize("ending", [JobState.ABANDONED_DATA_LOST,
                                        JobState.EXPIRED, JobState.FAILED])
    def test_done_and_a_failure_fail(self, ending):
        # The primary booked its own ending while its backup finished.
        with pytest.raises(InvariantViolation) as err:
            _judge(_attempt(55, ending),
                   _attempt(1_000_000_056, JobState.DONE, of=55))
        assert err.value.invariant == "no-double-completion"
        assert err.value.details["done"] == [1_000_000_056]
        assert err.value.details["outcomes"] == {
            55: ending.value, 1_000_000_056: "done"}
        assert err.value.details["attempts"] == [55, 1_000_000_056]

    def test_primary_failure_with_retired_backups_passes(self):
        _judge(_attempt(0, JobState.FAILED),
               _attempt(100, JobState.SPECULATED, of=0))

    def test_every_attempt_lost_fails(self):
        with pytest.raises(InvariantViolation) as err:
            _judge(_attempt(0, JobState.SPECULATED),
                   _attempt(100, JobState.SPECULATED, of=0),
                   _attempt(101, JobState.SPECULATED, of=0))
        assert err.value.invariant == "no-double-completion"
        assert err.value.details["attempts"] == [0, 100, 101]

    def test_second_outcome_raises_at_its_edge(self):
        from repro.grid import Job, TransitionEngine
        from repro.grid.health import HealthPolicy

        sim = Simulator()
        engine = TransitionEngine(sim)
        family = []
        for job_id, state, of in ((7, JobState.SPECULATED, None),
                                  (100, JobState.DONE, 7),
                                  (101, JobState.RUNNING, 7)):
            job = Job(job_id=job_id, user="u", origin_site="site00",
                      input_files=["d0"], runtime_s=10,
                      speculative_of=of)
            job.state = state
            engine.register(job)
            family.append(job)
        grid = types.SimpleNamespace(
            tracer=None, watchdog=None, lifecycle=engine,
            health=types.SimpleNamespace(
                policy=HealthPolicy(speculate_quantile=0.5),
                families={7: family}))
        Watchdog(sim, grid).install()
        sim.run(until=42.0)
        with pytest.raises(InvariantViolation) as err:
            engine.transition(family[2], JobState.DONE)
        assert err.value.invariant == "no-double-completion"
        assert err.value.time == 42.0
        assert err.value.details["done"] == [100, 101]

    def test_live_attempt_keeps_family_open(self):
        _judge(_attempt(7, JobState.SPECULATED),
               _attempt(100, JobState.SPECULATED, of=7),
               _attempt(101, JobState.RUNNING, of=7))

    def test_check_now_judges_every_family(self):
        from repro.grid import Job
        from tests.grid.test_speculation import make_grid, warm_up

        sim, grid = make_grid()
        warm_up(sim, grid)
        straggler = Job(job_id=1, user="u", origin_site="site00",
                        input_files=["d0"], runtime_s=300)
        sim.run(until=grid.submit(straggler))
        dog = attach(grid)
        dog.check_now()
        # Forge a second outcome no edge ever saw: only the full check
        # can find it.
        grid.health.families[straggler.job_id].append(
            _attempt(999, JobState.DONE, of=straggler.job_id))
        with pytest.raises(InvariantViolation) as err:
            dog.check_now()
        assert err.value.invariant == "no-double-completion"
        assert err.value.details["logical_job"] == straggler.job_id


class TestViolationReporting:
    def test_message_carries_time_and_details(self, small_grid):
        sim, grid = small_grid
        attach(grid)
        sim.run(until=42.0)
        grid.sites["site00"].jobs_in_system += 1
        with pytest.raises(InvariantViolation) as err:
            grid.watchdog.check_now()
        assert err.value.time == 42.0
        assert "[t=42.000]" in str(err.value)

    def test_trace_tail_attached_when_tracing(self, small_grid):
        from repro.grid import Job

        _, grid = small_grid
        grid.tracer = Tracer()
        for site in grid.sites.values():
            site.tracer = grid.tracer
        attach(grid)
        grid.submit(Job(job_id=1, user="u", origin_site="site00",
                        input_files=["d0"], runtime_s=10))
        grid.storages["site00"]._used_mb += 1.0
        with pytest.raises(InvariantViolation) as err:
            grid.watchdog.check_now()
        assert err.value.trace_tail
        assert "recent trace" in str(err.value)

    def test_periodic_loop_raises_mid_run(self, small_grid):
        sim, grid = small_grid
        attach(grid, interval_s=10.0)
        grid.storages["site00"]._used_mb += 1.0
        with pytest.raises(InvariantViolation):
            sim.run(until=50.0)
