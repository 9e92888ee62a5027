"""One outcome per logical job under speculative backup execution.

A speculated job runs as a *family* of attempts: the primary and each
backup cloned from it.  Whatever happens to them, the logical job books
exactly one terminal state other than SPECULATED, no attempt is still
live when the run ends, and the user waits for that outcome before
submitting again (paper §5.1).  The six-site grid below speculates
aggressively (quantile 0.5, multiplier 1.5), so families with several
backups are common.

Each pinned seed drives one way to break that rule:

* lost data — a primary's input is lost while its backup can still
  finish (seed 15), and a primary gives up while its backup is still
  fetching, so releasing its user early would end the run mid-fetch
  (seed 16); and no backup is cloned from a primary whose input is
  already lost, since it could only die fetching (seeds 0–11);
* deadlines — a backup's queue deadline passes while its primary runs
  on and finishes (seeds 1, 7, 8 and 11).
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaultPlan, SimulationConfig, build_grid, make_workload
from repro.experiments.runner import run_single
from repro.grid.health import HealthMonitor
from repro.grid.lifecycle import TERMINAL_STATES, JobState
from repro.metrics import RunMetrics

SIX = SimulationConfig.paper().with_(
    n_sites=6, n_users=12, n_datasets=20, n_jobs=300, bandwidth_mbps=10.0,
    speculate_quantile=0.5, speculate_multiplier=1.5, watchdog=True)
PAIR = ("JobLeastLoaded", "DataRandom")

LOST_DATA = dict(fault_plan=FaultPlan(
    site_mtbf_s=8000, site_mttr_s=2000, transfer_fail_prob=0.02,
    corruption_mtbf_s=500, job_max_retries=10, redispatch_delay_s=10))
DEADLINES = dict(arrival_rate_per_s=0.1, queue_capacity=8,
                 job_deadline_s=1500)
REPAIRED = dict(replication_factor=2, durability_repair=True,
                scrub_interval_s=600.0,
                fault_plan=FaultPlan(corruption_mtbf_s=500))
SETUPS = {"lost-data": LOST_DATA, "deadlines": DEADLINES,
          "rf2-repair": REPAIRED, "none": {}}


def run(knobs, seed):
    config = SIX.with_(**knobs)
    sim, grid = build_grid(config, *PAIR, make_workload(config, seed),
                           seed=seed)
    grid.run()
    return grid


def assert_one_outcome_each(grid):
    jobs = grid.submitted_jobs
    outcomes = Counter(
        job.job_id if job.speculative_of is None else job.speculative_of
        for job in jobs
        if job.state in TERMINAL_STATES
        and job.state is not JobState.SPECULATED)
    logical = {job.job_id for job in jobs if job.speculative_of is None}
    assert {jid: n for jid, n in outcomes.items() if n != 1} == {}
    assert set(outcomes) == logical
    assert [job.job_id for job in jobs
            if job.state not in TERMINAL_STATES] == []
    RunMetrics.from_grid(grid)
    grid.watchdog.check_now()


class TestLostData:
    def test_abandoned_primary_waits_for_its_backup(self):
        grid = run(LOST_DATA, seed=15)
        assert_one_outcome_each(grid)

    def test_no_backup_outlives_the_run(self):
        # run_single refuses a run that ends with an attempt still live.
        metrics = run_single(SIX.with_(**LOST_DATA), *PAIR, seed=16)
        assert metrics.speculative_launched > 0

    def test_no_backup_for_a_primary_whose_input_is_lost(self, monkeypatch):
        launches = []  # per backup: was one of its inputs already lost?
        launch = HealthMonitor._launch_backup

        def spy(health, primary):
            durability = health.grid.durability
            lost = any(durability.is_lost(name)
                       for name in primary.input_files)
            before = health.stats.speculative_launched
            launch(health, primary)
            if health.stats.speculative_launched > before:
                launches.append(lost)

        monkeypatch.setattr(HealthMonitor, "_launch_backup", spy)
        for seed in range(12):
            run(LOST_DATA, seed)
        assert len(launches) > 500
        assert launches.count(True) == 0


class TestDeadlines:
    @pytest.mark.parametrize("seed", [1, 7, 8, 11])
    def test_backup_expiry_books_no_second_outcome(self, seed):
        grid = run(DEADLINES, seed)
        assert_one_outcome_each(grid)
        assert all(job.speculative_of is None for job in grid.expired_jobs)


@given(setup=st.sampled_from(sorted(SETUPS)), seed=st.integers(0, 40))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_logical_job_books_one_outcome(setup, seed):
    assert_one_outcome_each(run(SETUPS[setup], seed))
