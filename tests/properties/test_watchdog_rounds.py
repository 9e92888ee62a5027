"""Property: a periodic watchdog round agrees with the full check.

A round re-verifies only the state that changed since the previous
check; ``Watchdog.check_now()`` recounts everything and is the oracle.
On small runs drawn with bounded queues, storage reservations, faults,
catalog staleness, speculation and a short watchdog interval, every
round must raise exactly the invariant a fresh ``check_now()`` raises at
that instant.  Clean draws pass both throughout.  The other draws break
one invariant through a public path just before the first round at or
after a drawn time:

* ``storage-accounting`` — a ``StorageElement.remove`` that skips its
  ``_release`` once;
* ``catalog-consistent`` — ``catalog.deregister`` of a file that stays
  resident;
* ``jobs-conserved`` — ``Job.advance`` on a live job, bypassing the
  lifecycle engine;
* ``transfers-consistent`` — an aborted transfer landing in
  ``transfers.completed``;
* ``queue-bounded`` — a live job's deflection count pushed past the
  budget (a field write, but the round rechecks every live job).

The corruption lands right before a round so the simulation can neither
heal it nor trip over it first; the previous round saw the state before
it, so the round must find it through the versions and the live-job
scope alone.
"""

import types

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaultPlan, SimulationConfig, build_grid, make_workload
from repro.grid.job import JobState
from repro.grid.lifecycle import TERMINAL_STATES
from repro.watchdog import InvariantViolation, Watchdog

#: Six sites, so a round has unchanged sites to skip.
BASE = SimulationConfig.paper().with_(
    n_sites=6, n_users=12, n_datasets=20, n_jobs=120)

KINDS = (None, "storage-accounting", "catalog-consistent",
         "jobs-conserved", "transfers-consistent", "queue-bounded")


class _Stop(Exception):
    """Ends a run once a round has raised."""


@st.composite
def runs(draw):
    knobs = dict(
        queue_capacity=draw(st.sampled_from([0, 2, 8])),
        arrival_rate_per_s=draw(st.sampled_from([0.0, 0.05])),
        storage_reservations=draw(st.booleans()),
        catalog_delay_s=draw(st.sampled_from([0.0, 120.0])),
    )
    if draw(st.booleans()):
        knobs["fault_plan"] = FaultPlan(
            site_mtbf_s=draw(st.sampled_from([3_000.0, 20_000.0])),
            site_mttr_s=500.0,
            transfer_fail_prob=draw(st.sampled_from([0.0, 0.1])),
            seed=draw(st.integers(0, 3)))
    if draw(st.booleans()):
        knobs.update(speculate_quantile=0.9, speculate_multiplier=2.0)
    return dict(
        config=BASE.with_(**knobs),
        pair=draw(st.sampled_from([("JobLeastLoaded", "DataRandom"),
                                   ("JobDataPresent", "DataLeastLoaded")])),
        seed=draw(st.integers(0, 3)),
        interval_s=draw(st.sampled_from([20.0, 60.0, 150.0])),
        kind=draw(st.sampled_from(KINDS)),
        at=draw(st.floats(0.0, 3_000.0, allow_nan=False)),
        pick=draw(st.integers(0, 10_000)),
    )


def _verdict(check):
    """The invariant ``check()`` raises, or ``None`` when it passes."""
    try:
        check()
    except InvariantViolation as exc:
        return exc.invariant
    return None


def _corrupt(grid, kind, pick):
    """Break ``kind`` through a public path; False if nothing to break."""
    if kind == "transfers-consistent":
        grid.transfers.completed.append(types.SimpleNamespace(
            src="site00", dst="site01", size_mb=10.0, failed=True,
            finished_at=grid.sim.now, remaining_mb=0.0))
        return True
    if kind == "queue-bounded":
        policy = grid.overload
        live = [job for job in grid.submitted_jobs
                if job.state not in TERMINAL_STATES]
        if policy is None or not policy.queue_capacity or not live:
            return False
        live[pick % len(live)].deflections = policy.deflect_budget + 1
        return True
    if kind == "jobs-conserved":
        for state, dst in ((JobState.RUNNING, JobState.DONE),
                           (JobState.FETCHING, JobState.RUNNING)):
            live = grid.lifecycle.jobs_in(state)
            if live:
                live[pick % len(live)].advance(dst, grid.sim.now)
                return True
        return False
    resident = [(site, name) for site, storage in sorted(grid.storages.items())
                for name in storage.files]
    if not resident:
        return False
    site, name = resident[pick % len(resident)]
    if kind == "storage-accounting":
        storage = grid.storages[site]
        storage._release = lambda size_mb: None
        try:
            storage.remove(name)
        finally:
            del storage._release
    else:
        grid.catalog.deregister(name, site)
    return True


@given(run=runs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_round_raises_what_the_full_check_raises(run):
    config = run["config"]
    sim, grid = build_grid(config, *run["pair"],
                           make_workload(config, seed=run["seed"]),
                           seed=run["seed"])
    dog = Watchdog(sim, grid, interval_s=run["interval_s"]).install()
    round_check = dog._check
    injected = []
    verdicts = []

    def audited_round(full):
        assert not full
        if (run["kind"] is not None and not injected
                and sim.now >= run["at"]):
            injected.append(_corrupt(grid, run["kind"], run["pick"]))
        expected = _verdict(Watchdog(sim, grid).check_now)
        actual = _verdict(lambda: round_check(full))
        assert actual == expected, (sim.now, actual, expected)
        verdicts.append(actual)
        if actual is not None:
            raise _Stop

    dog._check = audited_round
    try:
        grid.run()
    except _Stop:
        pass
    assert verdicts, "no round ran"
    if injected and injected[0]:
        assert verdicts[-1] == run["kind"]
    else:
        assert verdicts[-1] is None
        Watchdog(sim, grid).check_now()
