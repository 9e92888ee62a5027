"""The fault injector: replays a :class:`~repro.faults.plan.FaultPlan`.

One injector is wired into a :class:`~repro.grid.grid.DataGrid` when the
grid is built with a non-null plan.  It owns every piece of failure state
and all recovery accounting:

* **Site outages** — scripted windows and/or MTBF-driven loops.  When a
  site goes down, every job queued or running there is killed (processor
  requests cancelled, compute aborted, pins released) and handed back to
  the grid's re-dispatch supervisor; in-flight transfers touching the
  site are aborted; the information service stops advertising the site.
  A *permanent* outage additionally wipes the site's storage and
  invalidates its replica-catalog records.
* **Link degradation** — link capacities are scaled down for a window
  (factor 0 ≈ dead link) and every active transfer is re-rated.
* **Transfer sabotage** — with ``transfer_fail_prob``, a freshly started
  transfer is scheduled to be killed partway through.
* **Durability faults** — scripted silent corruption / replica loss and
  per-site stochastic bit-rot, forwarded to the grid's durability layer
  (:mod:`repro.grid.durability`), which owns detection and repair.

Determinism: all randomness comes from one injected
:class:`random.Random` (derived from the run's named streams), per-site
loops get their own sub-streams drawn in sorted site order, and every
action happens through simulator events — so a seeded faulty run is
bitwise-identical across processes, worker counts, and cache replays.

Heartbeats: the health layer replays each site's beats on demand, so
every change to whether a site is reachable first lets it replay the
beats due (:meth:`~repro.grid.health.HealthMonitor.replay_beats`).  Each
generator records when it scheduled the step that fired
(``scheduled_at``), which places a beat due at the same instant.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.faults.plan import (
    FaultPlan,
    LinkDegradation,
    NetworkPartition,
    OutageGroup,
    SiteOutage,
)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.grid import DataGrid
    from repro.network.transfer import Transfer
    from repro.sim.core import Simulator


class FaultInjector:
    """Drives faults into a wired grid and tracks recovery metrics.

    Parameters
    ----------
    sim, grid:
        The simulator and the fully wired grid.
    plan:
        The fault plan to execute (must not be null — a null plan should
        simply not install an injector).
    rng:
        Seeded stream for stochastic faults.
    """

    def __init__(self, sim: "Simulator", grid: "DataGrid", plan: FaultPlan,
                 rng: Optional[random.Random] = None) -> None:
        if plan.is_null:
            raise ValueError(
                "null fault plan: build the grid without an injector")
        self.sim = sim
        self.grid = grid
        self.plan = plan
        self.rng = rng or random.Random(plan.seed)

        #: Sites currently unavailable (includes permanently dead ones).
        self.down: Set[str] = set()
        #: Sites that died permanently (never recover).
        self.dead: Set[str] = set()
        #: Sites currently cut off by a network partition: computing, but
        #: unreachable (no transfers in or out, no heartbeats observed).
        self.partitioned: Set[str] = set()
        self._down_since: Dict[str, float] = {}
        self._partitioned_since: Dict[str, float] = {}
        self._downtime_s: Dict[str, float] = {name: 0.0 for name in grid.sites}
        self._link_base: Dict[object, float] = {}
        self._recovery_waiters: List[Event] = []

        # ---- recovery metrics ------------------------------------------------
        #: Job attempts killed by an outage (or data starvation) and
        #: re-dispatched by the External Scheduler.
        self.jobs_retried = 0
        #: Dispatches the ES aimed at a down site that were re-routed.
        self.jobs_redirected = 0
        #: Replica records invalidated by permanent site loss.
        self.replicas_invalidated = 0
        #: Sites taken down (windows started), for reporting.
        self.outages_started = 0
        #: Domain-event tracer, copied from the grid at :meth:`install`
        #: (None = tracing off; one attribute check per fault action).
        self.tracer = None

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wire the injector into the grid and spawn its driver processes."""
        grid = self.grid
        grid.faults = self
        grid.datamover.faults = self
        self.tracer = grid.tracer
        for site in grid.sites.values():
            site.faults = self
        for outage in self.plan.site_outages:
            if outage.site not in grid.sites:
                raise ValueError(
                    f"fault plan names unknown site {outage.site!r}")
            self.sim.process(self._scripted_outage(outage),
                             name=f"fault:outage:{outage.site}")
        for deg in self.plan.link_degradations:
            try:
                link = grid.topology.link_between(deg.a, deg.b)
            except KeyError:
                raise ValueError(
                    f"fault plan degrades nonexistent link "
                    f"{deg.a!r}-{deg.b!r}; name a physical link "
                    f"(site-to-hub in tiered topologies)") from None
            self.sim.process(self._scripted_degradation(deg, link),
                             name=f"fault:link:{deg.a}-{deg.b}")
        for group in self.plan.outage_groups:
            unknown = set(group.sites) - set(grid.sites)
            if unknown:
                raise ValueError(
                    f"fault plan's outage group names unknown sites "
                    f"{sorted(unknown)}")
            self.sim.process(self._group_outage(group),
                             name=f"fault:group:{group.sites[0]}")
        for partition in self.plan.partitions:
            unknown = set(partition.sites) - set(grid.sites)
            if unknown:
                raise ValueError(
                    f"fault plan's partition names unknown sites "
                    f"{sorted(unknown)}")
            self.sim.process(self._partition_window(partition),
                             name=f"fault:partition:{partition.sites[0]}")
        if self.plan.site_mtbf_s > 0:
            # Per-site sub-streams drawn in sorted order: deterministic and
            # independent of how the site processes later interleave.
            for name in sorted(grid.sites):
                site_rng = random.Random(self.rng.randrange(2 ** 62))
                self.sim.process(
                    self._mtbf_loop(name, site_rng, self.plan.site_mtbf_s,
                                    self.plan.site_mttr_s),
                    name=f"fault:mtbf:{name}")
        if self.plan.flap_mtbf_s > 0:
            unknown = set(self.plan.flap_sites) - set(grid.sites)
            if unknown:
                raise ValueError(
                    f"fault plan flaps unknown sites {sorted(unknown)}")
            # Same sorted-substream discipline as the grid-wide loop, on a
            # deliberately fast churn so the detector sees rapid up/down.
            for name in sorted(self.plan.flap_sites):
                site_rng = random.Random(self.rng.randrange(2 ** 62))
                self.sim.process(
                    self._mtbf_loop(name, site_rng, self.plan.flap_mtbf_s,
                                    self.plan.flap_mttr_s),
                    name=f"fault:flap:{name}")
        if self.plan.transfer_fail_prob > 0:
            grid.transfers.on_start.append(self._maybe_sabotage)
        for corruption in self.plan.replica_corruptions:
            self._validate_durability_target(corruption.site,
                                             corruption.dataset,
                                             "corruption")
            self.sim.process(
                self._scripted_corruption(corruption),
                name=f"fault:corrupt:{corruption.dataset}@{corruption.site}")
        for loss in self.plan.replica_losses:
            self._validate_durability_target(loss.site, loss.dataset,
                                             "replica loss")
            self.sim.process(
                self._scripted_loss(loss),
                name=f"fault:lose:{loss.dataset}@{loss.site}")
        if self.plan.corruption_mtbf_s > 0:
            targets = self.plan.corruption_sites or tuple(sorted(grid.sites))
            unknown = set(targets) - set(grid.sites)
            if unknown:
                raise ValueError(
                    f"fault plan's bit-rot names unknown sites "
                    f"{sorted(unknown)}")
            # Sorted sub-streams, drawn after every other fault source so
            # adding bit-rot to a plan leaves the other streams intact.
            for name in sorted(targets):
                site_rng = random.Random(self.rng.randrange(2 ** 62))
                self.sim.process(self._bitrot_loop(name, site_rng),
                                 name=f"fault:bitrot:{name}")

    # -- site availability --------------------------------------------------------

    def is_up(self, site: str) -> bool:
        """Whether a site is currently available."""
        return site not in self.down

    def is_reachable(self, site: str) -> bool:
        """Whether a site is up *and* not cut off by a partition.

        This is what an outside observer (heartbeat detector, probe,
        dispatch hand-off) can actually distinguish: a partitioned site
        is alive but looks exactly like a dead one from across the wire.
        """
        return site not in self.down and site not in self.partitioned

    def unobservable_since(self, site: str) -> Optional[float]:
        """When the site last became unreachable (None = reachable).

        Accounting aid for the health layer's detection-latency metric;
        never used to make scheduling decisions.
        """
        down = self._down_since.get(site)
        cut = self._partitioned_since.get(site)
        if down is None:
            return cut
        if cut is None:
            return down
        return min(down, cut)

    def any_site_up(self) -> bool:
        """Whether at least one site can accept work."""
        return len(self.down) < len(self.grid.sites)

    @property
    def grid_lost(self) -> bool:
        """True when every site is permanently dead — nothing can recover."""
        return len(self.dead) == len(self.grid.sites)

    def recovery_event(self) -> Event:
        """An event that fires the next time any site comes back up."""
        event = Event(self.sim)
        self._recovery_waiters.append(event)
        return event

    def wake_recovery_waiters(self, site: Optional[str]) -> None:
        """Fire every parked :meth:`recovery_event` with ``site``.

        Called on natural recovery (:meth:`bring_site_up`), on partition
        heal, and by the health layer when a breaker re-admits a site in
        observed mode — any of these can unblock a parked supervisor.
        """
        waiters, self._recovery_waiters = self._recovery_waiters, []
        for event in waiters:
            event.succeed(site)

    def fallback_site(self) -> Optional[str]:
        """Deterministic stand-in when the ES picks a down site.

        The least-loaded available site (ties by name) — the closest
        analogue of what a real broker does when its first choice bounces.
        """
        if not self.any_site_up():
            return None
        candidates = None
        if self.partitioned:
            # A partitioned site is advertised (it is alive, and in
            # observed mode nothing marks it down) but a dispatch to it
            # would just bounce again — fall back around the cut.
            candidates = [name for name in self.grid.info.site_names
                          if name not in self.partitioned]
            if not candidates:
                return None
        try:
            return self.grid.info.least_loaded(candidates)
        except ValueError:
            # Observed mode can quarantine every advertised site even
            # while some are physically up; callers treat None as "park
            # and wait for recovery".
            return None

    # -- outage mechanics ---------------------------------------------------------

    def _replay_beats(self, site: str, scheduled_at: Optional[float]) -> None:
        """Let the health layer replay ``site``'s beats before its
        reachability changes (a no-op without heartbeats)."""
        health = self.grid.health
        if health is not None:
            health.replay_beats(site, scheduled_at)

    def take_site_down(self, site: str, permanent: bool = False,
                       scheduled_at: Optional[float] = None) -> bool:
        """Fail a site now.  Returns False if it was already down.

        ``scheduled_at`` is when a fault generator scheduled this step;
        None for a direct call.
        """
        if site in self.down:
            if permanent and site not in self.dead:
                self._make_permanent(site)
                return True
            return False
        self._replay_beats(site, scheduled_at)
        self.down.add(site)
        self._down_since[site] = self.sim.now
        self.outages_started += 1
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "fault.site_down", site=site,
                             permanent=permanent)
        if self._oracle_visible():
            self.grid.info.mark_site_down(site)
        if permanent:
            self._make_permanent(site)
        # Kill everything the site was doing.
        self.grid.sites[site].fail_site()
        # Abort in-flight transfers touching the site; the data mover's
        # retry machinery fails the survivors over to other replicas.
        transfers = self.grid.transfers
        for transfer in [t for t in list(transfers.active)
                         if site in (t.src, t.dst)]:
            transfers.abort(transfer, reason=f"site {site} down")
        return True

    def bring_site_up(self, site: str,
                      scheduled_at: Optional[float] = None) -> bool:
        """Recover a (non-permanently) failed site (``scheduled_at`` as
        in :meth:`take_site_down`)."""
        if site not in self.down or site in self.dead:
            return False
        self._replay_beats(site, scheduled_at)
        self.down.discard(site)
        self._downtime_s[site] += self.sim.now - self._down_since.pop(site)
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "fault.site_up", site=site)
        if self._oracle_visible():
            self.grid.info.mark_site_up(site)
        self.wake_recovery_waiters(site)
        return True

    def _oracle_visible(self) -> bool:
        """Whether outages propagate to the information service directly.

        With an *observed-only* health policy the oracle channel is cut:
        the information service learns about failure exclusively through
        missed heartbeats and tripped breakers.  Permanent deaths still
        invalidate the catalog (the disks really are gone — that is
        physical state, not knowledge).
        """
        health = self.grid.health
        return health is None or not health.policy.observed_only

    def _make_permanent(self, site: str) -> None:
        self.dead.add(site)
        # The disks are gone: wipe storage and invalidate the catalog.
        invalidated = self.grid.catalog.invalidate_site(site)
        self.replicas_invalidated += len(invalidated)
        storage = self.grid.storages[site]
        for name in list(storage.files):
            storage.remove(name)
        if self.grid_lost:
            # Recovery is now impossible; wake parked dispatch supervisors
            # so they can observe it and fail their jobs instead of waiting
            # on a recovery that will never come.
            self.wake_recovery_waiters(None)

    def _scripted_outage(self, outage: SiteOutage):
        scheduled = self.sim.now
        if outage.start_s > 0:
            yield self.sim.timeout(outage.start_s)
        self.take_site_down(outage.site, permanent=outage.permanent,
                            scheduled_at=scheduled)
        if not outage.permanent:
            scheduled = self.sim.now
            yield self.sim.timeout(outage.end_s - outage.start_s)
            self.bring_site_up(outage.site, scheduled_at=scheduled)

    def _mtbf_loop(self, site: str, rng: random.Random,
                   mtbf_s: float, mttr_s: float):
        while True:
            scheduled = self.sim.now
            yield self.sim.timeout(rng.expovariate(1.0 / mtbf_s))
            if site in self.down:  # scripted window already has it down
                continue
            self.take_site_down(site, scheduled_at=scheduled)
            scheduled = self.sim.now
            yield self.sim.timeout(rng.expovariate(1.0 / mttr_s))
            self.bring_site_up(site, scheduled_at=scheduled)

    def _group_outage(self, group: OutageGroup):
        # Rack-correlated loss: the whole group drops at one instant, in
        # declared order, and (if transient) recovers together.
        scheduled = self.sim.now
        if group.start_s > 0:
            yield self.sim.timeout(group.start_s)
        for site in group.sites:
            self.take_site_down(site, permanent=group.permanent,
                                scheduled_at=scheduled)
        if not group.permanent:
            scheduled = self.sim.now
            yield self.sim.timeout(group.end_s - group.start_s)
            for site in group.sites:
                self.bring_site_up(site, scheduled_at=scheduled)

    # -- link mechanics -----------------------------------------------------------

    #: Floor applied to a factor-0 ("dead") link so routes and rate
    #: allocation stay well-defined; transfers crossing it effectively
    #: stall and are recovered by the fetch timeout.
    DEAD_LINK_FACTOR = 1e-6

    def _scripted_degradation(self, deg: LinkDegradation, link):
        if deg.start_s > 0:
            yield self.sim.timeout(deg.start_s)
        self._link_base.setdefault(link, link.capacity_mbps)
        factor = max(deg.factor, self.DEAD_LINK_FACTOR)
        link.capacity_mbps = self._link_base[link] * factor
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "fault.link_degrade",
                             a=deg.a, b=deg.b, factor=deg.factor)
        self.grid.transfers.rebalance()
        if deg.end_s != float("inf"):
            yield self.sim.timeout(deg.end_s - deg.start_s)
            link.capacity_mbps = self._link_base[link]
            if self.tracer is not None:
                self.tracer.emit(self.sim.now, "fault.link_restore",
                                 a=deg.a, b=deg.b)
            self.grid.transfers.rebalance()

    def _partition_window(self, partition: NetworkPartition):
        # A partition is not an outage: the cut sites keep *computing*,
        # but nothing crosses the boundary — transfers stall, heartbeats
        # vanish, and only an observed detector can tell the difference.
        scheduled = self.sim.now
        if partition.start_s > 0:
            yield self.sim.timeout(partition.start_s)
        cut = set(partition.sites)
        for site in partition.sites:
            self._replay_beats(site, scheduled)
            self.partitioned.add(site)
            self._partitioned_since.setdefault(site, self.sim.now)
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "fault.partition",
                             sites=list(partition.sites))
        severed = []
        for link in self.grid.topology.links:
            if link.a in cut or link.b in cut:
                self._link_base.setdefault(link, link.capacity_mbps)
                link.capacity_mbps = (
                    self._link_base[link] * self.DEAD_LINK_FACTOR)
                severed.append(link)
        transfers = self.grid.transfers
        for transfer in [t for t in list(transfers.active)
                         if t.src in cut or t.dst in cut]:
            transfers.abort(transfer, reason="network partition")
        transfers.rebalance()
        scheduled = self.sim.now
        yield self.sim.timeout(partition.end_s - partition.start_s)
        for link in severed:
            link.capacity_mbps = self._link_base[link]
        for site in partition.sites:
            self._replay_beats(site, scheduled)
            self.partitioned.discard(site)
            self._partitioned_since.pop(site, None)
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "fault.partition_heal",
                             sites=list(partition.sites))
        transfers.rebalance()
        # The cut sites were never down, so no fault.site_up fires — wake
        # parked supervisors ourselves so work resumes promptly.
        self.wake_recovery_waiters(partition.sites[0])

    # -- durability faults ----------------------------------------------------------

    def _validate_durability_target(self, site: str, dataset: str,
                                    what: str) -> None:
        if site not in self.grid.sites:
            raise ValueError(
                f"fault plan's {what} names unknown site {site!r}")
        if dataset not in self.grid.datasets:
            raise ValueError(
                f"fault plan's {what} names unknown dataset {dataset!r}")

    def _scripted_corruption(self, event):
        if event.time_s > 0:
            yield self.sim.timeout(event.time_s)
        if self.grid.durability is not None:
            self.grid.durability.corrupt(event.site, event.dataset)

    def _scripted_loss(self, event):
        if event.time_s > 0:
            yield self.sim.timeout(event.time_s)
        if self.grid.durability is not None:
            self.grid.durability.lose_replica(event.site, event.dataset)

    def _bitrot_loop(self, site: str, rng: random.Random):
        """Stochastic silent corruption of resident replicas at one site.

        Poisson arrivals at ``corruption_mtbf_s`` within the plan's
        ``[corruption_start_s, corruption_end_s)`` window; each event
        flips one uniformly chosen resident file.  An empty storage
        element simply skips the tick.
        """
        plan = self.plan
        if plan.corruption_start_s > 0:
            yield self.sim.timeout(plan.corruption_start_s)
        while True:
            wait = rng.expovariate(1.0 / plan.corruption_mtbf_s)
            if self.sim.now + wait >= plan.corruption_end_s:
                return
            yield self.sim.timeout(wait)
            durability = self.grid.durability
            if durability is None:  # pragma: no cover - defensive
                return
            files = sorted(self.grid.storages[site].files)
            if not files:
                continue
            durability.corrupt(site, rng.choice(files))

    # -- transfer sabotage ----------------------------------------------------------

    def _maybe_sabotage(self, transfer: "Transfer") -> None:
        if not transfer.route:
            return  # local move, nothing to kill
        if self.rng.random() >= self.plan.transfer_fail_prob:
            return
        # Kill the transfer somewhere in its (uncontended-estimate) flight.
        bottleneck = min(link.capacity_mbps for link in transfer.route)
        estimate = transfer.size_mb / bottleneck
        delay = self.rng.uniform(0.1, 0.9) * estimate
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "fault.transfer_kill",
                             src=transfer.src, dst=transfer.dst,
                             dataset=transfer.metadata.get("dataset"),
                             after_s=delay)
        self.sim.process(self._abort_later(transfer, delay),
                         name="fault:transfer-kill")

    def _abort_later(self, transfer: "Transfer", delay: float):
        yield self.sim.timeout(delay)
        self.grid.transfers.abort(transfer, reason="injected drop")

    # -- accounting ---------------------------------------------------------------

    def downtime_per_site(self, horizon: Optional[float] = None
                          ) -> Dict[str, float]:
        """Accumulated unavailable time per site over ``[0, horizon]``."""
        horizon = self.sim.now if horizon is None else horizon
        out = dict(self._downtime_s)
        for site, since in self._down_since.items():
            out[site] += max(0.0, horizon - since)
        return out

    def total_downtime_s(self, horizon: Optional[float] = None) -> float:
        """Sum of per-site downtime."""
        return sum(self.downtime_per_site(horizon).values())
