"""Runtime invariant watchdog: conservation checks while the grid runs.

Simulation bugs rarely announce themselves — a lost job or a storage
accounting leak just shifts the metrics.  The :class:`Watchdog` is a
read-only periodic process that audits the grid's global conservation
invariants *mid-run* and raises a structured :class:`InvariantViolation`
(with the offending trace context, when tracing is on) the moment one
breaks, so a corruption is caught at its source instead of surfacing as a
subtly wrong number thousands of events later.

Invariants checked:

* **jobs-conserved** — no job is lost between the External Scheduler,
  the recovery supervisor, and the site queues: every site's
  ``jobs_in_system`` sums to exactly the
  :class:`~repro.grid.lifecycle.TransitionEngine`'s FETCHING + RUNNING
  counts (attempts killed by faults sit in RETRYING and are excluded),
  per-site completion counters sum to the engine's DONE count, and the
  engine's incremental per-state bookkeeping survives a full recount.
  The cheap O(1) half of this invariant (no state count ever negative)
  also runs inline on *every* transition as an engine guard.
* **storage-accounting** — each site's incremental ``used_mb`` equals the
  recomputed sum of its resident replica sizes and never exceeds
  capacity.
* **transfers-consistent** — no transfer is both completed and aborted;
  finished transfers carry a timestamp and zero remaining bytes; active
  ones carry neither.
* **catalog-consistent** — the replica catalog and the sites' resident
  file sets agree exactly (the catalog is updated synchronously with
  storage, so any divergence is a wiring bug).
* **stale-view-bounded** — when a
  :class:`~repro.grid.staleness.StaleReplicaView` is installed, replaying
  its pending updates reproduces the live catalog and nothing is delayed
  beyond the configured staleness bound.
* **queue-bounded** — with an overload policy's ``queue_capacity`` set,
  no site's waiting-job count exceeds it and no job has consumed more
  deflections than the budget allows.
* **no-overcommit** — each storage element's reservation ledger sums to
  its booked ``reserved_mb`` and ``used + reserved`` never exceeds
  capacity (trivially true without reservations).
* **no-starvation** — with a queue deadline set, no job still waits in a
  queue beyond its deadline (the expiry machinery must have fired).
* **no-double-completion** — with the health layer's speculation armed,
  the attempts of one logical job (its *family*: the primary and every
  backup cloned from it) book one outcome.  No two attempts may be in a
  terminal state other than SPECULATED, and once every attempt is
  terminal exactly one must be: a family whose attempts are all
  SPECULATED lost the logical job on every side.  Only a terminal edge
  can break this, so it is judged on the edge: a hook that
  :meth:`Watchdog.install` adds when speculation is armed checks the
  family of every attempt that ends, at the time of that transition.
* **breaker-state-sane** — the health layer's site breakers and the
  information service agree: every open/half-open breaker's site is
  hidden (suspected) and every closed breaker's site is advertised.
* **catalog-durability** — with the durability layer installed, no
  managed dataset is in limbo: every dataset either has at least one
  live cataloged replica (quarantined copies are deregistered, so the
  count is integrity-filtered by construction) or is formally recorded
  as lost.  One transient is legal mid-run: zero replicas with a live
  repair campaign, whose in-flight copy settles the verdict either way.

Two kinds of check run the same ``_check_*`` methods over a different
scope.  :meth:`Watchdog.check_now` recounts everything; the runner's
final check, perfbench's output check and the tests call it.  The
periodic **round** re-verifies only what changed since the previous
check:

* storage-accounting, catalog-consistent and no-overcommit at the sites
  whose :attr:`~repro.grid.storage.StorageElement.version` or
  :meth:`~repro.grid.catalog.ReplicaCatalog.site_version` moved (the
  first round treats every site as changed);
* jobs-conserved through the engine's O(states + live jobs)
  ``audit(live_only=True)`` instead of its O(jobs) recount;
* transfers-consistent over the transfers completed since, plus the
  active ones;
* the deflection budget over the jobs submitted since, plus the jobs
  that were live at the previous check.

Everything else (site loads, no-starvation, breakers, the stale view,
catalog-durability) is checked whole every time: it is cheap, or it
depends on the clock.  Rounds leave the speculation families to the
edge hook, and ``check_now()`` judges every family again.  A round
skips only state that no public method has touched, so it raises what
``check_now()`` would raise at that instant.  A direct write to a field
(``StorageElement._used_mb`` or ``capacity_mb``, say) bumps no version:
a round after it may miss the damage at a site that is otherwise idle,
and the final ``check_now()`` catches it.

The watchdog is **off by default** (a watchdog-less run is bitwise
identical to a pre-watchdog build) and *always on in tests*: the test
suite's grid fixtures and experiment helpers install it so every clean,
faulty, and stale run in CI is audited.  Because every check is
read-only, enabling it never changes a run's results — only its
event count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.grid.job import Job, JobState
from repro.grid.lifecycle import TERMINAL_STATES

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.grid import DataGrid
    from repro.sim.core import Simulator

#: Tolerance for float storage accounting (repeated add/subtract residue).
_MB_EPSILON = 1e-6
#: Trace records attached to a violation for context.
_TRACE_TAIL = 10


class InvariantViolation(AssertionError):
    """A conservation invariant broke mid-run.

    Attributes
    ----------
    invariant:
        Which check failed (``jobs-conserved``, ``storage-accounting``,
        ``transfers-consistent``, ``catalog-consistent``,
        ``stale-view-bounded``, ``queue-bounded``, ``no-overcommit``,
        ``no-starvation``, ``no-double-completion``,
        ``breaker-state-sane``, ``catalog-durability``).
    time:
        Simulated time of the failed check.
    details:
        Structured evidence (counts, site names, sizes).
    trace_tail:
        The last few domain-trace lines before the violation (empty when
        tracing is off).
    """

    def __init__(self, invariant: str, message: str, time: float,
                 details: Optional[Dict[str, Any]] = None,
                 trace_tail: Optional[List[str]] = None) -> None:
        self.invariant = invariant
        self.time = time
        self.details = details or {}
        self.trace_tail = trace_tail or []
        text = f"[t={time:.3f}] {invariant}: {message}"
        if self.details:
            evidence = ", ".join(
                f"{k}={v!r}" for k, v in sorted(self.details.items()))
            text += f" ({evidence})"
        if self.trace_tail:
            text += "\nrecent trace:\n" + "\n".join(
                f"  {line}" for line in self.trace_tail)
        super().__init__(text)


class Watchdog:
    """Periodic, read-only auditor of a wired grid's invariants.

    Parameters
    ----------
    sim, grid:
        The simulator and the fully wired grid to audit.
    interval_s:
        Check period in simulated seconds (default 300 — once per
        Dataset Scheduler cycle at paper settings).
    """

    #: Names of every invariant this watchdog asserts.
    INVARIANTS = ("jobs-conserved", "storage-accounting",
                  "transfers-consistent", "catalog-consistent",
                  "stale-view-bounded", "queue-bounded", "no-overcommit",
                  "no-starvation", "no-double-completion",
                  "breaker-state-sane", "catalog-durability")

    def __init__(self, sim: "Simulator", grid: "DataGrid",
                 interval_s: float = 300.0) -> None:
        if interval_s <= 0:
            raise ValueError(
                f"watchdog interval must be positive, got {interval_s!r}")
        self.sim = sim
        self.grid = grid
        self.interval_s = interval_s
        #: Completed checks, full or periodic.
        self.checks_run = 0
        #: What the last passed check saw, so a round recounts only what
        #: changed since: each site's (storage, catalog) version, how far
        #: ``transfers.completed`` and ``submitted_jobs`` had grown, and
        #: the submitted jobs that were still live.
        self._site_versions: Dict[str, Tuple[int, int]] = {}
        self._completed_seen = 0
        self._submitted_seen = 0
        self._live_jobs: List[Job] = []

    def install(self) -> "Watchdog":
        """Register on the grid and start the periodic check process.

        With speculation armed, also hook the lifecycle engine so every
        attempt that ends has its family judged on that edge.
        """
        grid = self.grid
        grid.watchdog = self
        health = grid.health
        if health is not None and health.policy.speculate_quantile > 0:
            grid.lifecycle.hooks.append(self._on_transition)
        self.sim.process(self._loop(), name="watchdog")
        return self

    def _loop(self):
        while True:
            yield self.sim.timeout(self.interval_s)
            self._check(full=False)

    # -- checks -------------------------------------------------------------------

    def check_now(self) -> None:
        """Recount every invariant over the whole grid at this instant."""
        self._check(full=True)

    def _check(self, full: bool) -> None:
        """Assert every invariant; a round (``full=False``) recounts only
        the state that changed since the last passed check."""
        grid = self.grid
        catalog = grid.catalog
        versions = {name: (storage.version, catalog.site_version(name))
                    for name, storage in grid.storages.items()}
        seen = self._site_versions
        sites = [name for name, version in versions.items()
                 if full or seen.get(name) != version]
        submitted = grid.submitted_jobs
        jobs = (submitted if full
                else self._live_jobs + submitted[self._submitted_seen:])
        self._check_jobs(full)
        self._check_storage(sites)
        self._check_transfers(0 if full else self._completed_seen)
        self._check_catalog(sites)
        self._check_stale_view()
        self._check_queue_bounds(jobs)
        self._check_overcommit(sites)
        self._check_starvation()
        if full and grid.health is not None:
            for family in grid.health.families.values():
                self._check_family(family)
        self._check_breaker_state()
        self._check_catalog_durability()
        self._site_versions = versions
        self._completed_seen = len(grid.transfers.completed)
        self._submitted_seen = len(submitted)
        self._live_jobs = [job for job in jobs
                           if job.state not in TERMINAL_STATES]
        self.checks_run += 1
        tracer = self.grid.tracer
        if tracer is not None:
            tracer.emit(self.sim.now, "watchdog.check", n=self.checks_run)

    def _fail(self, invariant: str, message: str, **details: Any) -> None:
        tail: List[str] = []
        tracer = self.grid.tracer
        if tracer is not None and tracer.records:
            tail = [str(r) for r in tracer.records[-_TRACE_TAIL:]]
        raise InvariantViolation(invariant, message, time=self.sim.now,
                                 details=details, trace_tail=tail)

    def _check_jobs(self, full: bool) -> None:
        grid = self.grid
        engine = grid.lifecycle
        in_system = 0
        by_site_completed = 0
        for site in grid.sites.values():
            if site.jobs_in_system < 0:
                self._fail("jobs-conserved",
                           f"site {site.name!r} has negative jobs_in_system",
                           site=site.name, jobs_in_system=site.jobs_in_system)
            in_system += site.jobs_in_system
            by_site_completed += site.jobs_completed
        # The engine's O(1) per-state counts replace the old full scan of
        # submitted jobs; RETRYING (killed, not yet rewound) is its own
        # state, so no ``killed`` flag bookkeeping is needed.
        expected_in_system = (engine.counts[JobState.FETCHING.index]
                              + engine.counts[JobState.RUNNING.index])
        completed = engine.counts[JobState.DONE.index]
        problems = engine.audit(live_only=not full)
        if problems:
            self._fail("jobs-conserved",
                       "lifecycle bookkeeping drifted: "
                       + "; ".join(problems),
                       registered_jobs=len(engine.jobs))
        if in_system != expected_in_system:
            self._fail(
                "jobs-conserved",
                "site queues disagree with job states: "
                f"sites hold {in_system} jobs, "
                f"{expected_in_system} jobs are queued/running",
                sites_in_system=in_system,
                jobs_queued_or_running=expected_in_system)
        if by_site_completed != completed:
            self._fail(
                "jobs-conserved",
                f"sites counted {by_site_completed} completions but "
                f"{completed} jobs are COMPLETED",
                site_completions=by_site_completed, jobs_completed=completed)

    def _check_storage(self, sites: List[str]) -> None:
        storages = self.grid.storages
        for name in sites:
            storage = storages[name]
            actual = sum(
                entry.dataset.size_mb
                for entry in storage._entries.values())
            if abs(actual - storage.used_mb) > _MB_EPSILON:
                self._fail(
                    "storage-accounting",
                    f"storage at {name!r} books {storage.used_mb:.6f} MB "
                    f"but holds {actual:.6f} MB of files",
                    site=name, used_mb=storage.used_mb, resident_mb=actual)
            if storage.used_mb > storage.capacity_mb + _MB_EPSILON:
                self._fail(
                    "storage-accounting",
                    f"storage at {name!r} exceeds capacity",
                    site=name, used_mb=storage.used_mb,
                    capacity_mb=storage.capacity_mb)

    def _check_transfers(self, first: int) -> None:
        """Completed transfers from index ``first`` on, and every active one
        (a transfer never changes once it completes)."""
        manager = self.grid.transfers
        for t in manager.completed[first:]:
            if t.failed:
                self._fail(
                    "transfers-consistent",
                    f"transfer {t.src}->{t.dst} is both completed and "
                    "aborted", src=t.src, dst=t.dst, size_mb=t.size_mb)
            if t.finished_at is None or t.remaining_mb > _MB_EPSILON:
                self._fail(
                    "transfers-consistent",
                    f"completed transfer {t.src}->{t.dst} still has "
                    f"{t.remaining_mb:.6f} MB outstanding",
                    src=t.src, dst=t.dst, remaining_mb=t.remaining_mb)
        for t in manager.active:
            if t.finished_at is not None or t.failed:
                self._fail(
                    "transfers-consistent",
                    f"active transfer {t.src}->{t.dst} is already "
                    "finished or aborted", src=t.src, dst=t.dst,
                    failed=t.failed, finished_at=t.finished_at)

    def _check_catalog(self, sites: List[str]) -> None:
        grid = self.grid
        catalog = grid.catalog
        for name in sites:
            storage = grid.storages[name]
            for fname in storage._entries:
                if not catalog.has_replica(fname, name):
                    self._fail(
                        "catalog-consistent",
                        f"{fname!r} is resident at {name!r} but the "
                        "catalog has no record of it",
                        site=name, dataset=fname)
            for fname in catalog.datasets_at(name):
                if fname not in storage._entries:
                    self._fail(
                        "catalog-consistent",
                        f"catalog advertises {fname!r} at {name!r} but "
                        "the file is not resident",
                        site=name, dataset=fname)

    def _check_stale_view(self) -> None:
        view = self.grid.info.replica_view
        if view is None:
            return
        problems = view.audit()
        if problems:
            self._fail("stale-view-bounded", "; ".join(problems),
                       pending=len(view._pending))

    def _check_queue_bounds(self, jobs: List[Job]) -> None:
        policy = self.grid.overload
        if policy is None or policy.queue_capacity == 0:
            return
        cap = policy.queue_capacity
        for site in self.grid.sites.values():
            if site.load > cap:
                self._fail(
                    "queue-bounded",
                    f"site {site.name!r} holds {site.load} waiting jobs, "
                    f"capacity is {cap}",
                    site=site.name, load=site.load, capacity=cap)
        for job in jobs:
            if job.deflections > policy.deflect_budget:
                self._fail(
                    "queue-bounded",
                    f"job {job.job_id} consumed {job.deflections} "
                    f"deflections of a budget of {policy.deflect_budget}",
                    job=job.job_id, deflections=job.deflections,
                    budget=policy.deflect_budget)

    def _check_overcommit(self, sites: List[str]) -> None:
        storages = self.grid.storages
        for name in sites:
            storage = storages[name]
            booked = sum(storage._reservations.values())
            if abs(booked - storage.reserved_mb) > _MB_EPSILON:
                self._fail(
                    "no-overcommit",
                    f"storage at {name!r} books {storage.reserved_mb:.6f} "
                    f"MB reserved but its ledger sums to {booked:.6f} MB",
                    site=name, reserved_mb=storage.reserved_mb,
                    ledger_mb=booked)
            total = storage.used_mb + storage.reserved_mb
            if total > storage.capacity_mb + _MB_EPSILON:
                self._fail(
                    "no-overcommit",
                    f"storage at {name!r} overcommitted: used + reserved "
                    f"exceeds capacity",
                    site=name, used_mb=storage.used_mb,
                    reserved_mb=storage.reserved_mb,
                    capacity_mb=storage.capacity_mb)

    def _check_starvation(self) -> None:
        policy = self.grid.overload
        if policy is None:
            return
        now = self.sim.now
        engine = self.grid.lifecycle
        # Only FETCHING jobs can starve in a queue, so scan the engine's
        # per-state id-set instead of every job ever submitted.  (The
        # engine additionally enforces this invariant on every ``start``
        # edge via its deadline guard.)  The set is unordered: of several
        # starving jobs, the one with the lowest id is reported.
        starving = None
        for jid in engine.by_state[JobState.FETCHING.index]:
            job = engine.jobs[jid]
            deadline = (job.deadline_s if job.deadline_s is not None
                        else policy.job_deadline_s)
            if (deadline > 0 and job.processor_at is None
                    and job.queued_at is not None
                    and now - job.queued_at > deadline + _MB_EPSILON
                    and (starving is None or jid < starving[0].job_id)):
                starving = job, deadline
        if starving is not None:
            job, deadline = starving
            self._fail(
                "no-starvation",
                f"job {job.job_id} has waited "
                f"{now - job.queued_at:.3f} s in the queue at "
                f"{job.execution_site!r}, past its {deadline:g} s "
                "deadline",
                job=job.job_id, waited_s=now - job.queued_at,
                deadline_s=deadline)

    def _on_transition(self, job: Job, src: JobState, dst: JobState,
                       edge: str, now: float) -> None:
        """Lifecycle hook: judge the family of an attempt that ended."""
        if dst in TERMINAL_STATES:
            primary = job.speculative_of
            family = self.grid.health.families.get(
                job.job_id if primary is None else primary)
            if family is not None:
                self._check_family(family)

    def _check_family(self, family: List[Job]) -> None:
        """no-double-completion over one logical job's attempts (the
        primary first, then its backups in launch order)."""
        logical = family[0].job_id
        ids = [job.job_id for job in family]
        outcomes = {job.job_id: job.state.value for job in family
                    if job.state in TERMINAL_STATES
                    and job.state is not JobState.SPECULATED}
        if len(outcomes) > 1:
            self._fail(
                "no-double-completion",
                f"logical job {logical} has {len(outcomes)} outcomes "
                f"({outcomes})",
                logical_job=logical, attempts=ids, outcomes=outcomes,
                done=[jid for jid, state in outcomes.items()
                      if state == JobState.DONE.value])
        if all(job.state is JobState.SPECULATED for job in family):
            self._fail(
                "no-double-completion",
                f"logical job {logical} lost every attempt ({ids}) — "
                "nobody completed it",
                logical_job=logical, attempts=ids)

    def _check_breaker_state(self) -> None:
        health = self.grid.health
        if health is None:
            return
        info = self.grid.info
        for site, breaker in health.site_breakers.items():
            suspected = info.is_suspected(site)
            if breaker.state == "closed" and suspected:
                self._fail(
                    "breaker-state-sane",
                    f"site {site!r} breaker is closed but the information "
                    "service still hides it",
                    site=site, breaker=breaker.state)
            if breaker.state != "closed" and not suspected:
                self._fail(
                    "breaker-state-sane",
                    f"site {site!r} breaker is {breaker.state} but the "
                    "information service still advertises it",
                    site=site, breaker=breaker.state)

    def _check_catalog_durability(self) -> None:
        durability = self.grid.durability
        if durability is None:
            return
        catalog = self.grid.catalog
        for dataset in self.grid.datasets:
            name = dataset.name
            count = catalog.replica_count(name)
            if count == 0 and not durability.is_lost(name):
                if (durability.repair is not None
                        and durability.repair.is_active(name)):
                    # Legal transient: a repair campaign owns the loss
                    # verdict — a copy may be mid-wire right now.
                    continue
                self._fail(
                    "catalog-durability",
                    f"dataset {name!r} has no cataloged replica yet is "
                    "not recorded as lost — the durability layer missed "
                    "a deregistration",
                    dataset=name, replicas=count)


def attach(grid: "DataGrid", interval_s: float = 300.0) -> Watchdog:
    """Install a watchdog on an already-wired grid (test convenience)."""
    return Watchdog(grid.sim, grid, interval_s=interval_s).install()
