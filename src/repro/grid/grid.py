"""The DataGrid aggregate: wiring and the submission entry point.

A :class:`DataGrid` owns every mechanism component (network, catalog,
storage, sites, data mover, information service) plus the chosen policies
(one External Scheduler, one Local Scheduler per site — all identical in
the paper — and one Dataset Scheduler attached per site).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.backoff import BackoffPolicy
from repro.grid.catalog import ReplicaCatalog
from repro.grid.compute import ComputeElement
from repro.grid.datamover import DataMover
from repro.grid.files import DatasetCollection
from repro.grid.info import InformationService
from repro.grid.job import Job, JobState
from repro.grid.lifecycle import TransitionEngine
from repro.grid.site import Site
from repro.grid.storage import StorageElement
from repro.grid.user import User
from repro.network.topology import Topology
from repro.network.transfer import TransferManager
from repro.sim.core import Simulator
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.base import (
        DatasetScheduler,
        ExternalScheduler,
        LocalScheduler,
    )
    from repro.sim.trace import Tracer


class DataGrid:
    """A fully wired Data Grid ready to accept jobs.

    Use :meth:`create` unless you need to substitute custom components.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        transfers: TransferManager,
        catalog: ReplicaCatalog,
        datasets: DatasetCollection,
        storages: Dict[str, StorageElement],
        sites: Dict[str, Site],
        info: InformationService,
        datamover: DataMover,
        external_scheduler: "ExternalScheduler",
        dataset_scheduler: "DatasetScheduler",
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.transfers = transfers
        self.catalog = catalog
        self.datasets = datasets
        self.storages = storages
        self.sites = sites
        #: ``(name, site)`` pairs sorted by name; the site set is fixed
        #: once the grid is wired.
        self._sorted_sites = sorted(sites.items())
        self.info = info
        self.datamover = datamover
        self.external_scheduler = external_scheduler
        self.dataset_scheduler = dataset_scheduler
        self.users: List[User] = []
        #: Every job ever submitted, in submission order.
        self.submitted_jobs: List[Job] = []
        #: The single authority for job state changes: every component of
        #: this grid (submission, sites, supervisor, overload/staleness
        #: recovery) drives jobs through this engine — never by mutating
        #: ``job.state`` directly.  Sites share the grid's engine so the
        #: per-state counts cover the whole system.
        self.lifecycle = TransitionEngine(sim)
        for site in sites.values():
            site.lifecycle = self.lifecycle
        #: Fault injector (``None`` in fault-free runs; installed by
        #: :meth:`create` when a non-null plan is given).  Every fault
        #: branch in the hot path is gated on this staying ``None`` so a
        #: plan-less grid behaves bitwise-identically to one built before
        #: the fault layer existed.
        self.faults = None
        #: Domain-event tracer (``None`` = tracing off, the default).
        #: Installed by :meth:`create`; every emission in the grid is gated
        #: on this staying ``None`` so an untraced run pays one attribute
        #: check and is bitwise-identical to a pre-tracing build.
        self.tracer: Optional["Tracer"] = None
        #: Runtime invariant watchdog (``None`` = off, the default;
        #: installed by :meth:`create` when ``watchdog_interval_s`` > 0).
        self.watchdog = None
        #: Overload policy + shared saturation counters (``None`` = off,
        #: the default; installed by :meth:`create` for a non-null
        #: :class:`~repro.grid.overload.OverloadPolicy`).  Every overload
        #: branch is gated on this staying ``None`` so a policy-less grid
        #: behaves bitwise-identically to a pre-overload build.
        self.overload = None
        self.overload_stats = None
        #: Observed-health layer (``None`` = off, the default; installed
        #: by :meth:`create` for a non-null
        #: :class:`~repro.grid.health.HealthPolicy`).  Every health branch
        #: is gated on this staying ``None`` so a policy-less grid behaves
        #: bitwise-identically to a pre-health build.
        self.health = None
        #: Data-durability layer (``None`` = off, the default; installed
        #: by :meth:`create` for a non-null
        #: :class:`~repro.grid.durability.DurabilityPolicy` or a fault
        #: plan with durability faults).  Every durability branch is
        #: gated on this staying ``None`` so an unarmed grid behaves
        #: bitwise-identically to a pre-durability build.
        self.durability = None
        #: Last-resort External Scheduler (degraded mode), or ``None``.
        self._degraded_es = None
        #: Open-loop arrival stream (``None`` = the paper's closed-loop
        #: users).  When set, :meth:`run` drives this instead of users.
        self.arrivals = None
        #: DAG workload driver (``None`` = no inter-job dependencies).
        #: When set, :meth:`run` drives this instead of users/arrivals.
        self.dag = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        sim: Simulator,
        topology: Topology,
        datasets: DatasetCollection,
        external_scheduler: "ExternalScheduler",
        local_scheduler: "LocalScheduler",
        dataset_scheduler: "DatasetScheduler",
        site_processors: Dict[str, int],
        storage_capacity_mb: float = float("inf"),
        datamover_rng: Optional[random.Random] = None,
        info_policy=None,
        allocator=None,
        fault_plan=None,
        fault_rng: Optional[random.Random] = None,
        tracer: Optional["Tracer"] = None,
        watchdog_interval_s: float = 0.0,
        overload_policy=None,
        overload_rng: Optional[random.Random] = None,
        health_policy=None,
        health_rng: Optional[random.Random] = None,
        durability_policy=None,
        durability_rng: Optional[random.Random] = None,
    ) -> "DataGrid":
        """Build and wire a grid over ``topology``.

        ``site_processors`` maps each site name to its processor count
        (paper: 2–5 per site).  Every site gets ``storage_capacity_mb`` of
        LRU-managed storage.  ``info_policy`` (an
        :class:`~repro.grid.staleness.InfoPolicy`; None = every query
        live) sets information staleness; a policy with a positive
        catalog delay routes scheduler replica queries through a stale
        view.  ``watchdog_interval_s`` > 0 installs the runtime
        invariant watchdog (:mod:`repro.watchdog`) at that check period.
        A non-null ``overload_policy``
        (:class:`~repro.grid.overload.OverloadPolicy`) arms the saturation
        protections — bounded queues, storage reservations, deadlines,
        degraded-mode placement; ``overload_rng`` seeds its (optional)
        degraded External Scheduler.  A non-null ``health_policy``
        (:class:`~repro.grid.health.HealthPolicy`) installs the observed
        failure-detection layer — heartbeats, circuit breakers, and
        speculative backup execution; ``health_rng`` seeds its heartbeat
        jitter and probe streams.  A non-null ``durability_policy``
        (:class:`~repro.grid.durability.DurabilityPolicy`) installs the
        data-durability layer — checksum verification, scrubbing, and
        replication-factor repair; the layer is also auto-installed in
        detection-only mode when the fault plan contains durability
        faults (corruption or replica loss), so every armed run can at
        least record what it lost.  ``durability_rng`` seeds repair
        placement tie-breaking.
        """
        topology.validate()
        missing = set(topology.sites) - set(site_processors)
        if missing:
            raise ValueError(f"no processor counts for sites {sorted(missing)}")

        transfers = TransferManager(sim, topology, allocator=allocator)
        catalog = ReplicaCatalog()
        storages: Dict[str, StorageElement] = {}
        for name in topology.sites:
            storages[name] = StorageElement(
                name, storage_capacity_mb,
                on_evict=(lambda ds, _site=name:
                          catalog.deregister(ds.name, _site)))
        datamover = DataMover(sim, transfers, catalog, datasets, storages,
                              rng=datamover_rng)
        sites: Dict[str, Site] = {}
        for name in topology.sites:
            compute = ComputeElement(
                sim, name, site_processors[name],
                priority_queue=local_scheduler.uses_priorities)
            sites[name] = Site(sim, name, compute, storages[name],
                               datamover, local_scheduler)
        info = InformationService(sim, sites, catalog, policy=info_policy)
        grid = cls(sim, topology, transfers, catalog, datasets, storages,
                   sites, info, datamover, external_scheduler,
                   dataset_scheduler)
        if tracer is not None:
            grid.tracer = tracer
            grid.lifecycle.tracer = tracer
            datamover.tracer = tracer
            transfers.tracer = tracer
            catalog.set_tracer(tracer, sim)
            for site in sites.values():
                site.tracer = tracer
            if info.replica_view is not None:
                info.replica_view.tracer = tracer
        for site in sites.values():
            dataset_scheduler.attach(site, grid)
        if fault_plan is not None and not fault_plan.is_null:
            from repro.faults.injector import FaultInjector

            FaultInjector(sim, grid, fault_plan, rng=fault_rng).install()
        if overload_policy is not None and not overload_policy.is_null:
            from repro.grid.overload import SaturationStats
            from repro.scheduling.registry import make_external_scheduler

            stats = SaturationStats()
            grid.overload = overload_policy
            grid.overload_stats = stats
            if overload_policy.degraded_es:
                grid._degraded_es = make_external_scheduler(
                    overload_policy.degraded_es,
                    overload_rng or random.Random(0))
            datamover.overload = overload_policy
            datamover.overload_stats = stats
            for site in sites.values():
                site.overload = overload_policy
            # With a queue deadline armed, the engine's start edge
            # enforces no-starvation as a transition guard.
            grid.lifecycle.deadline_of = (
                lambda job: (job.deadline_s if job.deadline_s is not None
                             else overload_policy.job_deadline_s))
        if health_policy is not None and not health_policy.is_null:
            from repro.grid.health import HealthMonitor

            HealthMonitor(sim, grid, health_policy,
                          rng=health_rng).install()
        durability_armed = (
            (durability_policy is not None and not durability_policy.is_null)
            or (fault_plan is not None and not fault_plan.is_null
                and fault_plan.has_durability_faults))
        if durability_armed:
            from repro.grid.durability import (
                DurabilityManager,
                DurabilityPolicy,
            )

            DurabilityManager(sim, grid,
                              durability_policy or DurabilityPolicy(),
                              rng=durability_rng).install()
        if watchdog_interval_s > 0:
            from repro.watchdog import Watchdog

            Watchdog(sim, grid, interval_s=watchdog_interval_s).install()
        return grid

    # -- data placement ----------------------------------------------------------

    def place_initial_replica(self, dataset_name: str, site: str) -> None:
        """Install the primary copy of a dataset at a site.

        Primary copies are permanently pinned: the paper's model always has
        at least one replica of every dataset, so LRU caching must never
        evict the last copy.
        """
        dataset = self.datasets.get(dataset_name)
        self.storages[site].add(dataset, self.sim.now, pin=True)
        self.catalog.register(dataset_name, site, size_mb=dataset.size_mb)
        if self.info.replica_view is not None:
            # Pre-run placement is configuration, not runtime churn: the
            # schedulers know the initial distribution from the start.
            self.info.replica_view.sync_all()

    def place_initial_replicas(self, mapping: Dict[str, str],
                               headroom_mb: Optional[float] = None) -> None:
        """Install primary copies for many datasets (name → site).

        Placement is capacity-aware: primaries are pinned forever, so every
        site must keep ``headroom_mb`` of space free for working files
        (default: the largest dataset in the grid — enough to cache at
        least one input).  A mapped site without room deterministically
        overflows to the site with the most free space; datasets are placed
        largest-first so overflow is rare and reproducible.
        """
        if headroom_mb is None:
            headroom_mb = max(
                (self.datasets.get(n).size_mb for n in mapping), default=0.0)
        by_size = sorted(
            mapping.items(),
            key=lambda kv: (-self.datasets.get(kv[0]).size_mb, kv[0]))
        for name, site in by_size:
            size = self.datasets.get(name).size_mb
            if self.storages[site].free_mb - size < headroom_mb:
                site = max(
                    sorted(self.storages),
                    key=lambda s: self.storages[s].free_mb)
                if self.storages[site].free_mb - size < headroom_mb:
                    raise ValueError(
                        f"grid storage too small: no site can hold the "
                        f"primary copy of {name!r} ({size:.0f} MB) while "
                        f"keeping {headroom_mb:.0f} MB of working space")
            self.place_initial_replica(name, site)

    # -- operation ----------------------------------------------------------------

    def submit(self, job: Job, site_hint: Optional[str] = None) -> Process:
        """Submit a job: ES picks the site, the site executes it.

        Returns the execution process (triggers with the job when done).
        Under a fault plan the returned process is a recovery supervisor
        that re-dispatches the job when an outage kills it, so callers
        (users) still simply wait for one process per job.

        ``site_hint`` (bulk submission) bypasses the ES for the initial
        placement — the job still passes misdirection and saturation
        resolution, so a hinted job can end up elsewhere.
        """
        self.lifecycle.submit(job)
        self.submitted_jobs.append(job)
        if self.faults is not None:
            return self.sim.process(
                self._submit_with_recovery(job, site_hint),
                name=f"supervise:job{job.job_id}")
        if site_hint is not None and site_hint in self.sites:
            site_name = site_hint
        else:
            site_name = self._select_site(job)
        if self.info.replica_view is not None:
            site_name = self._resolve_misdirection(job, site_name)
        if self.overload is not None and self.overload.queue_capacity > 0:
            resolved = self._resolve_saturation(job, site_name)
            if resolved is None:
                self._mark_shed(job)
                return self.sim.process(self._shed_process(job),
                                        name=f"shed:job{job.job_id}")
            site_name = resolved
        self.lifecycle.dispatch(job, site_name)
        return self.sites[site_name].enqueue(job)

    def submit_bulk(self, jobs: List[Job]) -> List[Process]:
        """Submit a batch with batch-level placement (DIANA-style).

        Jobs sharing an input-set signature are placed together: the
        first member of each group is placed by the External Scheduler as
        usual, and the rest are hinted to the site it landed on — one ES
        decision per group instead of one per job.  Under a fault plan
        placement is asynchronous, so hints are skipped and every member
        is placed individually by its recovery supervisor.

        Returns one execution process per job, in input order.
        """
        procs: List[Process] = []
        leaders: Dict[tuple, Optional[str]] = {}
        for job in jobs:
            signature = tuple(sorted(set(job.input_files)))
            procs.append(self.submit(job, site_hint=leaders.get(signature)))
            if signature not in leaders and self.faults is None:
                # A shed leader records None: followers fall back to
                # individual ES placement rather than piling onto the
                # saturated choice.
                leaders[signature] = job.execution_site
        return procs

    def abandon(self, job: Job, reason: str) -> None:
        """Fail a WAITING job whose dependency ended badly (DAG cascade).

        The job never reaches the External Scheduler but is accounted and
        traced like any other permanent failure, so conservation checks
        and metrics see it.
        """
        self.submitted_jobs.append(job)
        self.lifecycle.abandon(job, reason)

    def _select_site(self, job: Job) -> str:
        """Ask the primary ES for a site, with degraded-mode fallback.

        Without an overload policy this is exactly the old select + guard
        sequence.  With one, a primary that *wedges* (raises ``ValueError``
        because it found no candidate) is answered by the degraded
        selector over the up sites instead of killing the submission.
        """
        if self.overload is None:
            try:
                site_name = self.external_scheduler.select_site(job, self)
            except ValueError:
                if self.health is None or self.faults is not None:
                    raise
                # Every site is detector-hidden (false positives can do
                # this in a fault-free run): place least-loaded over the
                # physical sites rather than wedging the submission.
                site_name = min(sorted(self.sites),
                                key=lambda s: (self.sites[s].load, s))
        else:
            try:
                site_name = self.external_scheduler.select_site(job, self)
            except ValueError:
                # Observed mode must not consult the fault oracle here;
                # the breakers are the only site-health knowledge.
                observed = (self.health is not None
                            and self.health.policy.observed_only)
                candidates = [
                    name for name in sorted(self.sites)
                    if (self.faults is None or observed
                        or self.faults.is_up(name))
                    and (self.health is None or self.health.allows(name))]
                if not candidates:
                    if self.health is not None and self.faults is None:
                        candidates = sorted(self.sites)
                    else:
                        raise
                return self._degraded_select(job, candidates)
        if site_name not in self.sites:
            raise ValueError(
                f"{self.external_scheduler!r} chose unknown site "
                f"{site_name!r}")
        return site_name

    def _resolve_saturation(self, job: Job,
                            site_name: str) -> Optional[str]:
        """Deflect a job aimed at a full queue; ``None`` = shed it.

        Each loop iteration spends one unit of the deflect budget and
        re-places the job over the *unsaturated* up sites, so the loop
        always terminates: either the chosen site has room, no site has
        room (shed), or the budget runs out (shed).
        """
        policy = self.overload
        cap = policy.queue_capacity
        while self.sites[site_name].load >= cap:
            if job.deflections >= policy.deflect_budget:
                return None
            candidates = [
                name for name, site in self._sorted_sites
                if site.load < cap
                and (self.faults is None or self.faults.is_up(name))
                and (self.health is None or self.health.allows(name))]
            if not candidates:
                return None
            self.overload_stats.jobs_deflected += 1
            target = self._degraded_select(job, candidates)
            self.lifecycle.deflect(job, origin=site_name, site=target)
            site_name = target
        return site_name

    def _degraded_select(self, job: Job, candidates: List[str]) -> str:
        """Place a job with the last-resort selector.

        Tries the configured degraded ES first; if it is absent, wedges
        too, or picks outside ``candidates``, falls back to the
        deterministic least-loaded (then lexicographic) scan.
        """
        self.overload_stats.degraded_dispatches += 1
        choice = None
        if self._degraded_es is not None:
            try:
                pick = self._degraded_es.select_site(job, self)
            except ValueError:
                pick = None
            if pick in candidates:
                choice = pick
        if choice is None:
            choice = min(candidates, key=lambda s: (self.sites[s].load, s))
        if self.tracer is not None:
            self.tracer.emit(
                self.sim.now, "es.degraded", job=job.job_id, site=choice,
                es=self.overload.degraded_es or "least-loaded")
        return choice

    def _mark_shed(self, job: Job) -> None:
        """Terminal admission refusal: account, never silently drop."""
        self.lifecycle.shed(
            job,
            f"queues saturated (capacity {self.overload.queue_capacity}, "
            f"{job.deflections} deflections)")

    @staticmethod
    def _shed_process(job: Job):
        """An already-finished execution process for a shed job.

        Returning before the first yield is legal for the kernel; callers
        waiting on the submission see it complete immediately with the
        (terminal) job as its value.
        """
        return job
        yield  # pragma: no cover - unreachable; makes this a generator

    def _resolve_misdirection(self, job: Job, site_name: str) -> str:
        """Detect and recover a dispatch aimed at a phantom replica.

        Under a stale catalog view the ES may send a job to a site whose
        promised replica was evicted (or never arrived).  The destination
        notices the miss at hand-off: each promised input (one the stale
        view locates there) is checked against the live catalog.  The
        grid then either *bounces* the job back to the ES for one
        re-dispatch — after reconciling the phantom records, so the
        second choice is made against corrected information — or, once
        the bounce budget is spent, lets the job proceed and fall back to
        a remote fetch via the data mover.  Every hop is synchronous: no
        simulated time passes, matching the model's zero-cost dispatch.
        """
        view = self.info.replica_view
        budget = self.info.policy.bounce_budget
        while True:
            missing = [name for name in job.input_files
                       if view.has_replica(name, site_name)
                       and not self.catalog.has_replica(name, site_name)]
            if not missing:
                return site_name
            view.misdirected_jobs += 1
            self.lifecycle.misdirected(job, site_name, missing)
            for name in missing:
                view.reconcile(name, site_name)
            if job.bounces >= budget:
                return site_name
            candidate = self.external_scheduler.select_site(job, self)
            if candidate not in self.sites:
                raise ValueError(
                    f"{self.external_scheduler!r} chose unknown site "
                    f"{candidate!r}")
            if self.faults is not None and not self.faults.is_up(candidate):
                # Bouncing onto a dead site would trade one phantom for
                # another; keep the original choice and fetch remotely.
                return site_name
            if self.health is not None and not self.health.allows(candidate):
                # Same logic through the observed channel: the breaker
                # says the candidate is unhealthy.
                return site_name
            view.bounced_jobs += 1
            self.lifecycle.bounce(job, origin=site_name, site=candidate)
            site_name = candidate

    def _submit_with_recovery(self, job: Job,
                              site_hint: Optional[str] = None):
        """Dispatch loop under fault injection.

        Each iteration: wait until some site is up, place the job (with a
        deterministic fallback if the ES's choice is down), and wait for
        the execution attempt.  A killed attempt comes back with the job
        in RETRYING; the job is rewound and re-dispatched after the
        plan's redispatch delay, until it completes or exhausts its retry
        budget and is accounted FAILED.  A ``site_hint`` (bulk
        submission) is honoured for the first attempt only, and only
        while the hinted site is up.  Each ending the supervisor books
        itself goes through :meth:`_book`.
        """
        faults = self.faults
        plan = faults.plan
        redispatch = (BackoffPolicy(plan.redispatch_delay_s,
                                    plan.redispatch_delay_s)
                      if plan.redispatch_delay_s > 0 else None)
        while True:
            if job.state is JobState.SPECULATED:
                # The race was settled while this attempt sat in retry
                # backoff or parked: the backup clone carried the
                # logical job, and the health layer conceded this one.
                return job
            if self.durability is not None:
                lost = [name for name in job.input_files
                        if self.durability.is_lost(name)]
                if lost:
                    # An input's every replica is gone.  Retrying cannot
                    # bring the bytes back, so the job takes its terminal
                    # edge instead of burning the retry budget.
                    return (yield from self._book(
                        job, self.lifecycle.abandon_data_lost, lost[0],
                        f"input dataset {lost[0]!r} unrecoverably lost"))
            if not faults.any_site_up():
                if faults.grid_lost:
                    # Every site is permanently dead: recovery can never
                    # happen, so fail fast instead of waiting forever.
                    return (yield from self._book(
                        job, self.lifecycle.fail,
                        "all sites permanently failed"))
                yield faults.recovery_event()
                continue
            if (site_hint is not None and site_hint in self.sites
                    and faults.is_up(site_hint)):
                site_name = site_hint
            else:
                try:
                    site_name = self._select_site(job)
                except ValueError:
                    if self.health is None:
                        raise
                    # Every site is hidden from the schedulers (detector
                    # suspicion, possibly wrongly).  Park until a probe
                    # re-admits one or the oracle channel recovers.
                    yield faults.recovery_event()
                    continue
            site_hint = None
            # Hand-off check.  In oracle mode an unreachable choice is
            # redirected at most once (the fallback consults the already
            # filtered information service); in observed mode the bounce
            # itself is the observation — it trips the site's breaker —
            # and a job that runs out of distinct fallbacks parks until
            # something is re-admitted.
            tried = set()
            while not faults.is_reachable(site_name):
                if (self.health is not None
                        and self.health.policy.observed_only):
                    self.health.record_dispatch_failure(site_name)
                tried.add(site_name)
                fallback = faults.fallback_site()
                if fallback is None or fallback in tried:
                    site_name = None
                    break
                self.lifecycle.redirect(job, chosen=site_name,
                                        fallback=fallback)
                site_name = fallback
                faults.jobs_redirected += 1
            if site_name is None:
                if faults.any_site_up():
                    yield faults.recovery_event()
                continue  # wait for recovery / re-admission
            if self.info.replica_view is not None:
                site_name = self._resolve_misdirection(job, site_name)
            if (self.overload is not None
                    and self.overload.queue_capacity > 0):
                resolved = self._resolve_saturation(job, site_name)
                if resolved is None:
                    return (yield from self._book(job, self._mark_shed))
                site_name = resolved
            self.lifecycle.dispatch(job, site_name,
                                    attempt=job.retries + 1)
            yield self.sites[site_name].enqueue(job)
            if job.state in (JobState.DONE, JobState.EXPIRED,
                             JobState.SPECULATED):
                # Expiry, like completion, is terminal: the deadline
                # already accounted the job — retrying would double it.
                # SPECULATED means this attempt lost a speculation race:
                # the logical job completed through its backup clone.
                return job
            if job.retries >= plan.job_max_retries:
                return (yield from self._book(
                    job, self.lifecycle.fail,
                    job.failure_reason or "retries exhausted"))
            self.lifecycle.retry(job)
            faults.jobs_retried += 1
            if redispatch is not None:
                # Routed through the shared backoff helper; with base ==
                # cap this is the plan's constant delay, bit for bit.
                yield self.sim.timeout(redispatch.delay(job.retries))

    def _book(self, job: Job, edge, *args):
        """Book ``edge(job, *args)``, the job's own terminal outcome.

        A backup can only win: while one is live it may still carry the
        logical job, so the primary first waits for the race.  A backup
        that wins concedes the primary, and its DONE is the one outcome;
        otherwise the primary books its own.  Either way the submission
        ends only once the logical job has its outcome.
        """
        race = self.health.race(job) if self.health is not None else None
        if race is not None:
            yield race
            if job.state is JobState.SPECULATED:
                return job
        edge(job, *args)
        return job

    def add_user(self, user: User) -> None:
        """Register a user (started by :meth:`run`)."""
        self.users.append(user)

    def run(self) -> float:
        """Start all users and run until every user finishes.

        Returns the makespan (time of the last job completion).  The
        simulation itself is then drained of the remaining bookkeeping
        events, but periodic Dataset Scheduler loops are not awaited (they
        are infinite); time stops advancing once the last *triggering*
        activity completes because we stop at the all-users event.
        """
        if self.dag is not None:
            # DAG mode: the driver releases jobs as their parents finish
            # and completes once every job settled.
            self.sim.run(until=self.dag.start())
            return self.sim.now
        if self.arrivals is not None:
            # Open-loop mode: the arrival driver completes when the last
            # submitted job finishes (or is shed/expired/failed).
            self.sim.run(until=self.arrivals.start())
            return self.sim.now
        if not self.users:
            raise ValueError("no users added to the grid")
        processes = [user.start() for user in self.users]
        done = self.sim.all_of(processes)
        self.sim.run(until=done)
        return self.sim.now

    # -- convenience metrics -------------------------------------------------------

    @property
    def completed_jobs(self) -> List[Job]:
        """All jobs that reached DONE."""
        return [j for j in self.submitted_jobs
                if j.state is JobState.DONE]

    @property
    def failed_jobs(self) -> List[Job]:
        """Jobs given up on by fault recovery (empty in fault-free runs)."""
        return [j for j in self.submitted_jobs if j.state is JobState.FAILED]

    @property
    def shed_jobs(self) -> List[Job]:
        """Jobs refused admission under overload (empty without a policy)."""
        return [j for j in self.submitted_jobs if j.state is JobState.SHED]

    @property
    def expired_jobs(self) -> List[Job]:
        """Jobs whose queue deadline passed (empty without a policy)."""
        return [j for j in self.submitted_jobs
                if j.state is JobState.EXPIRED]

    @property
    def speculated_jobs(self) -> List[Job]:
        """Attempts that lost a speculation race (terminal; the logical
        job completed through the other attempt)."""
        return [j for j in self.submitted_jobs
                if j.state is JobState.SPECULATED]

    @property
    def abandoned_jobs(self) -> List[Job]:
        """Jobs retired because an input dataset was unrecoverably lost
        (empty without the durability layer)."""
        return [j for j in self.submitted_jobs
                if j.state is JobState.ABANDONED_DATA_LOST]

    @property
    def total_processors(self) -> int:
        """Sum of processor counts across sites."""
        return sum(s.compute.n_processors for s in self.sites.values())
