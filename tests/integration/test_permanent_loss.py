"""The pre-existing durability gap: permanent loss of a pinned primary.

The paper's model pins one primary replica per dataset and never looks
at it again.  A *permanent* site outage (or a rack-correlated group)
invalidates every replica record at the dead site — including sole
pinned primaries — and, without the durability layer, nothing records
the loss or repairs it: dependent jobs simply burn their retry budget
against data that no longer exists and are accounted FAILED.

These tests nail down that baseline behavior (catalog state, job
outcomes, conservation), then show how the durability layer changes
the semantics of the *same* scenario: losses become recorded facts and
dependent jobs take the terminal ``abandon-data-lost`` edge instead of
failing blind.
"""

import pytest

from repro import (
    FaultPlan,
    SimulationConfig,
    SiteOutage,
    build_grid,
    make_workload,
)
from repro.faults.plan import OutageGroup
from repro.grid.job import JobState
from repro.watchdog import Watchdog

RETRY_PLAN = dict(job_max_retries=3, redispatch_delay_s=10.0)
N_JOBS = 120  # paper().scaled(0.02)


def run_scenario(plan, **config_overrides):
    """Run the 2-site grid under ``plan``; returns (grid, sole_pinned).

    ``sole_pinned`` is the set of datasets whose only replica at t=0
    was the pinned primary at site00 — the copies the outage destroys.
    """
    config = SimulationConfig.paper().scaled(0.02).with_(
        fault_plan=plan, watchdog=True, **config_overrides)
    workload = make_workload(config, seed=0)
    sim, grid = build_grid(config, "JobDataPresent", "DataDoNothing",
                           workload, seed=0)
    sole_pinned = {
        n for n in grid.datasets.names
        if grid.catalog.locations(n) == ["site00"]
        and grid.storages["site00"].is_pinned(n)}
    grid.run()
    return grid, sole_pinned


@pytest.fixture(
    scope="module",
    params=["site-outage", "outage-group"],
)
def gap_run(request):
    """The baseline (no durability layer) under both fault spellings."""
    if request.param == "site-outage":
        plan = FaultPlan(site_outages=(SiteOutage("site00", 1000.0),),
                         **RETRY_PLAN)
    else:
        plan = FaultPlan(outage_groups=(OutageGroup(("site00",), 1000.0),),
                         **RETRY_PLAN)
    return run_scenario(plan)


class TestTheGap:
    def test_sole_pinned_primaries_existed(self, gap_run):
        _, sole_pinned = gap_run
        assert sole_pinned  # the scenario is live: pinned sole copies

    def test_catalog_drops_the_dead_sites_replicas(self, gap_run):
        grid, sole_pinned = gap_run
        for name in grid.datasets.names:
            assert "site00" not in grid.catalog.locations(name), name
        # Sole-hosted datasets end with zero replicas and — the gap —
        # nothing anywhere records that they are gone for good.
        for name in sole_pinned:
            assert grid.catalog.replica_count(name) == 0, name
        assert grid.durability is None

    def test_dependent_jobs_fail_blind(self, gap_run):
        grid, sole_pinned = gap_run
        assert grid.failed_jobs
        # Every failure traces back to an input that no longer exists
        # anywhere; the jobs burned retries to find that out.
        for job in grid.failed_jobs:
            assert any(f in sole_pinned for f in job.input_files), job

    def test_jobs_are_conserved(self, gap_run):
        grid, _ = gap_run
        assert len(grid.submitted_jobs) == N_JOBS
        assert (len(grid.completed_jobs)
                + len(grid.failed_jobs)) == N_JOBS
        states = {j.state for j in grid.submitted_jobs}
        assert states <= {JobState.DONE, JobState.FAILED}

    def test_watchdog_has_no_objection(self, gap_run):
        # The gap is *legal* without the durability layer: the books
        # balance even though data silently vanished.
        grid, _ = gap_run
        Watchdog(grid.sim, grid).check_now()


class TestTheGapClosed:
    """Same outage, durability armed: loss becomes a recorded fact."""

    @pytest.fixture(scope="class")
    def durable_run(self):
        plan = FaultPlan(site_outages=(SiteOutage("site00", 1000.0),),
                         **RETRY_PLAN)
        return run_scenario(plan, replication_factor=2,
                            durability_repair=True)

    def test_every_empty_dataset_is_recorded_lost(self, durable_run):
        grid, _ = durable_run
        durability = grid.durability
        assert durability is not None
        for name in grid.datasets.names:
            if grid.catalog.replica_count(name) == 0:
                assert durability.is_lost(name), name
            else:
                assert not durability.is_lost(name), name

    def test_jobs_abandon_instead_of_failing_blind(self, durable_run):
        grid, _ = durable_run
        assert grid.failed_jobs == []
        assert grid.abandoned_jobs
        lost = set(grid.durability.lost_datasets())
        for job in grid.abandoned_jobs:
            assert any(f in lost for f in job.input_files), job
        assert (len(grid.completed_jobs)
                + len(grid.abandoned_jobs)) == N_JOBS

    def test_repair_saved_what_it_could(self, durable_run):
        grid, sole_pinned = durable_run
        stats = grid.durability.stats
        # The audit copied some primaries off site00 before it died.
        assert stats.replicas_repaired > 0
        saved = [n for n in sole_pinned
                 if grid.catalog.replica_count(n) > 0]
        assert saved
        assert stats.datasets_lost < len(sole_pinned)

    def test_watchdog_durability_invariant_holds(self, durable_run):
        grid, _ = durable_run
        Watchdog(grid.sim, grid).check_now()
