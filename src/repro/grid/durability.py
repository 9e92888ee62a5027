"""Data durability: corruption detection, scrubbing, and repair.

The paper's model treats datasets as immortal — one pinned primary per
dataset, placed once, never verified, never re-replicated.  Our fault
layer already breaks that assumption (permanent outages and rack-scale
groups destroy the last copy via ``catalog.invalidate_site``), and the
:class:`~repro.faults.plan.FaultPlan`'s durability faults
(:class:`~repro.faults.plan.ReplicaCorruption`,
:class:`~repro.faults.plan.ReplicaLoss`, and stochastic bit-rot) break
it further.  This module closes the loop with three cooperating
mechanisms, bundled into one frozen :class:`DurabilityPolicy`:

* **End-to-end integrity** — every dataset carries a logical checksum
  (modelled, not computed: the fault layer knows exactly which stored
  copies no longer match it).  The data mover verifies that checksum on
  every local read and on every wire delivery; a **scrubber** process
  additionally sweeps all resident replicas at a configurable period.
  A mismatch *quarantines* the copy: it is removed from storage and
  deregistered from the catalog in one step (keeping the watchdog's
  ``catalog-consistent`` invariant intact), traced as
  ``replica.quarantined``.  Corruption itself is silent — the
  ``replica.corrupted`` record is written at injection time, but no
  component's *behavior* reads the ground truth until a verification
  actually touches the copy.
* **A RepairManager** — subscribes to the catalog's membership events
  and maintains a target replication factor per dataset (default 1 =
  the paper's behavior).  When quarantine or permanent site loss drops
  a dataset below target, a repair process copies it to a fresh site
  through the existing DataMover machinery (``purpose="repair"``, so
  repair traffic is accounted separately), pinning the new copy so LRU
  can never undo a repair.  Source/destination choice is pluggable:
  :class:`ClosestRepairPlacement` minimizes hop count;
  :class:`ForecastRepairPlacement` scores candidate pairs with an NWS
  bandwidth forecaster (:mod:`repro.network.forecast`).
* **Unrecoverable-loss semantics** — the moment a managed dataset's
  replica count reaches zero it is marked *lost* (``dataset.lost``),
  finally and irrevocably.  Jobs that depend on it take the transition
  engine's terminal ``abandon-data-lost`` edge instead of burning their
  whole retry budget against data that no longer exists.

Every knob defaults off: a grid built without a policy (and without
durability faults in its plan) takes the exact pre-durability code
paths, keeping the committed golden trace digests bitwise-identical.
Armed runs draw all randomness from the dedicated ``"durability"``
stream, so they stay deterministic at any worker count.

Pins protect files from LRU *eviction*, not from this layer: corruption
quarantine and explicit loss events remove pinned copies too (a pin is
placement policy, not an open file handle — real systems happily unlink
a corrupt file a process still maps).  Running jobs tolerate the
disappearance: ``StorageElement.unpin`` already ignores missing files,
the element forgives unmatched unpins while durability is armed (a
quarantined-then-refetched file can see more unpins than pins), and the
site guards its popularity bookkeeping by membership.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.faults.backoff import BackoffPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.grid import DataGrid
    from repro.sim.core import Simulator

#: Placement policy registry (name -> factory), used by :func:`make_placement`.
PLACEMENTS = ("closest", "forecast")


@dataclass(frozen=True)
class DurabilityPolicy:
    """Durability policy for one grid.

    Attributes
    ----------
    replication_factor:
        Target live replicas per managed dataset.  1 = the paper's
        single-primary behavior (repair then only acts after loss of
        the last-but-one copy, i.e. never creates extra copies).
    repair:
        Arm the RepairManager.  Off = detection-only: corruption is
        still found and quarantined and losses are still recorded, but
        nothing is ever re-replicated (the acceptance baseline).
    scrub_interval_s:
        Background scrubber period.  Every pass verifies all resident
        replicas in deterministic (sorted) order.  0 = scrubbing off;
        corruption is then only found on access or transfer.
    placement:
        Repair source/destination policy: ``"closest"`` (minimum hop
        count) or ``"forecast"`` (NWS bandwidth forecast,
        :mod:`repro.network.forecast`).
    repair_max_retries / repair_backoff_base_s / repair_backoff_cap_s:
        A repair attempt that cannot place or move a copy retries with
        capped exponential backoff before giving the dataset up as
        under-replicated (it is retried again on the next catalog
        event).
    """

    replication_factor: int = 1
    repair: bool = False
    scrub_interval_s: float = 0.0
    placement: str = "closest"
    repair_max_retries: int = 6
    repair_backoff_base_s: float = 10.0
    repair_backoff_cap_s: float = 300.0

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError(
                f"replication factor must be >= 1, "
                f"got {self.replication_factor!r}")
        if self.scrub_interval_s < 0:
            raise ValueError(
                f"scrub interval must be >= 0, "
                f"got {self.scrub_interval_s!r}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown repair placement {self.placement!r} "
                f"(choose from {', '.join(PLACEMENTS)})")
        if self.repair_max_retries < 0:
            raise ValueError(
                f"repair retries must be >= 0, "
                f"got {self.repair_max_retries!r}")
        if (self.repair_backoff_base_s < 0
                or self.repair_backoff_cap_s < self.repair_backoff_base_s):
            raise ValueError(
                "repair backoff cap must be >= backoff base >= 0, got "
                f"base={self.repair_backoff_base_s!r} "
                f"cap={self.repair_backoff_cap_s!r}")
        if self.replication_factor > 1 and not self.repair:
            raise ValueError(
                "replication_factor > 1 needs the RepairManager: "
                "set repair=True")

    @property
    def is_null(self) -> bool:
        """True when no mechanism is armed.

        A null policy still backs a detection-only manager when the
        fault plan contains durability faults — arming is the grid's
        decision, not the policy's.
        """
        return (not self.repair
                and self.replication_factor == 1
                and self.scrub_interval_s == 0.0)


class DurabilityStats:
    """Shared mutable durability counters for one grid run.

    Plain attributes, no simulator events — updating a counter can
    never perturb event order.
    """

    __slots__ = (
        "replicas_corrupted",
        "replicas_lost",
        "replicas_quarantined",
        "verifications",
        "scrub_passes",
        "scrub_files_checked",
        "datasets_lost",
        "repairs_started",
        "replicas_repaired",
        "repairs_failed",
        "repair_bytes_mb",
        "repair_latency_total_s",
    )

    def __init__(self) -> None:
        #: Silent corruptions injected (scripted + bit-rot).
        self.replicas_corrupted = 0
        #: Explicit replica-loss events applied.
        self.replicas_lost = 0
        #: Corrupt copies detected and removed (access/transfer/scrub).
        self.replicas_quarantined = 0
        #: Checksum verifications performed (local reads + deliveries).
        self.verifications = 0
        #: Completed scrubber sweeps.
        self.scrub_passes = 0
        #: Replicas examined across all sweeps.
        self.scrub_files_checked = 0
        #: Datasets whose last replica is gone (final).
        self.datasets_lost = 0
        #: Repair attempts launched (one per ``repair.start`` trace).
        self.repairs_started = 0
        #: Replicas successfully re-created (one per ``repair.done``).
        self.replicas_repaired = 0
        #: Repair campaigns that gave up with the dataset still below
        #: target (retried on the next under-replication event).
        self.repairs_failed = 0
        #: MB landed by successful repair copies.
        self.repair_bytes_mb = 0.0
        #: Sum over repaired replicas of (repair done - detection time).
        self.repair_latency_total_s = 0.0

    @property
    def mean_repair_latency_s(self) -> float:
        """Mean detection-to-repaired lag (0 when nothing repaired)."""
        return (self.repair_latency_total_s / self.replicas_repaired
                if self.replicas_repaired else 0.0)


class ClosestRepairPlacement:
    """Repair along the fewest network hops.

    Scores every (source, destination) candidate pair by the hop count
    between them; ties break lexicographically, then by the manager's
    seeded stream, so repeated runs pick identical pairs.
    """

    name = "closest"

    def attach(self, grid: "DataGrid") -> None:
        """No per-grid state needed."""

    def choose(self, manager: "DurabilityManager", dataset_name: str
               ) -> Optional[Tuple[str, str]]:
        """Pick ``(source, destination)`` for one repair copy.

        ``None`` when no up source or no viable destination exists
        right now (the repair loop backs off and retries).
        """
        pairs = manager.candidate_pairs(dataset_name)
        if not pairs:
            return None
        router = manager.grid.transfers.router
        best = min(router.hops(src, dst) for src, dst in pairs)
        closest = [p for p in pairs if router.hops(p[0], p[1]) == best]
        if len(closest) == 1:
            return closest[0]
        return manager.rng.choice(closest)


class ForecastRepairPlacement:
    """Repair along the pair with the best forecast bandwidth.

    Feeds a :class:`~repro.network.forecast.BandwidthHistory` from the
    grid's transfer manager and scores candidate pairs with an
    :class:`~repro.network.forecast.NWSForecaster`; pairs without
    history fall back to the nominal uncontended transfer time, so the
    policy degrades to closest-by-capacity until observations arrive.
    """

    name = "forecast"

    def __init__(self) -> None:
        self.history = None
        self.forecaster = None

    def attach(self, grid: "DataGrid") -> None:
        from repro.network.forecast import BandwidthHistory, NWSForecaster

        self.history = BandwidthHistory()
        self.history.attach(grid.transfers)
        self.forecaster = NWSForecaster(self.history)

    def _predicted_time(self, manager: "DurabilityManager", src: str,
                        dst: str, size_mb: float) -> float:
        bandwidth = self.forecaster.forecast(src, dst)
        if bandwidth is not None:
            return size_mb / bandwidth
        return manager.grid.transfers.base_transfer_time(src, dst, size_mb)

    def choose(self, manager: "DurabilityManager", dataset_name: str
               ) -> Optional[Tuple[str, str]]:
        pairs = manager.candidate_pairs(dataset_name)
        if not pairs:
            return None
        size = manager.grid.datasets.get(dataset_name).size_mb
        times = {p: self._predicted_time(manager, p[0], p[1], size)
                 for p in pairs}
        best = min(times.values())
        fastest = [p for p in pairs if times[p] == best]
        if len(fastest) == 1:
            return fastest[0]
        return manager.rng.choice(fastest)


def make_placement(name: str):
    """Instantiate a repair placement policy by name."""
    if name == "closest":
        return ClosestRepairPlacement()
    if name == "forecast":
        return ForecastRepairPlacement()
    raise ValueError(f"unknown repair placement {name!r}")


class RepairManager:
    """Re-establishes the target replication factor after loss.

    Owned by the :class:`DurabilityManager` (which is the catalog
    listener); one repair process runs per under-replicated dataset at
    a time, copying replicas through the data mover with
    ``purpose="repair"`` and pinning each landing so LRU churn can
    never undo durability work.
    """

    def __init__(self, manager: "DurabilityManager") -> None:
        self.manager = manager
        self.placement = make_placement(manager.policy.placement)
        #: Datasets with a live repair process (dedup guard).
        self._active: Set[str] = set()

    def install(self) -> None:
        """Attach placement state and start the initial audit.

        The audit runs at t=0, after initial placement (processes only
        execute once the simulation starts), bringing every managed
        dataset up to the target factor before the workload begins.
        """
        grid = self.manager.grid
        self.placement.attach(grid)
        if self.manager.policy.replication_factor > 1:
            self.manager.sim.process(self._initial_audit(),
                                     name="durability:audit")

    def _initial_audit(self):
        manager = self.manager
        target = manager.policy.replication_factor
        for dataset in sorted(d.name for d in manager.grid.datasets):
            if 0 < manager.grid.catalog.replica_count(dataset) < target:
                self.request(dataset)
        return
        yield  # pragma: no cover - unreachable; makes this a generator

    def is_active(self, dataset_name: str) -> bool:
        """Whether a live campaign owns this dataset's loss verdict.

        While a campaign runs, a repair copy may be mid-wire: the last
        cataloged replica disappearing does not yet mean the data is
        gone.  The campaign itself settles the question — healthy if a
        copy lands, lost if every attempt fails with nothing left.
        """
        return dataset_name in self._active

    def request(self, dataset_name: str) -> None:
        """Schedule a repair campaign for the dataset (idempotent)."""
        if dataset_name in self._active:
            return
        if dataset_name in self.manager._lost:
            return
        self._active.add(dataset_name)
        self.manager.sim.process(
            self._repair_loop(dataset_name, self.manager.sim.now),
            name=f"repair:{dataset_name}")

    def _repair_loop(self, dataset_name: str, detected_at: float):
        manager = self.manager
        grid = manager.grid
        policy = manager.policy
        stats = manager.stats
        backoff = BackoffPolicy(policy.repair_backoff_base_s,
                                policy.repair_backoff_cap_s)
        attempt = 0
        try:
            while True:
                if dataset_name in manager._lost:
                    return
                count = grid.catalog.replica_count(dataset_name)
                if count == 0:
                    manager.mark_lost(dataset_name)
                    return
                if count >= policy.replication_factor:
                    return
                attempt += 1
                choice = self.placement.choose(manager, dataset_name)
                moved = 0.0
                if choice is not None:
                    source, dest = choice
                    stats.repairs_started += 1
                    manager._emit("repair.start", dataset=dataset_name,
                                  source=source, site=dest,
                                  attempt=attempt)
                    moved = yield grid.datamover.ensure_local(
                        dest, dataset_name, pin=True, purpose="repair",
                        best_effort=True, preferred_source=source)
                    repaired = (moved > 0
                                or grid.catalog.has_replica(dataset_name,
                                                            dest))
                    if repaired:
                        latency = self.manager.sim.now - detected_at
                        stats.replicas_repaired += 1
                        stats.repair_bytes_mb += float(moved)
                        stats.repair_latency_total_s += latency
                        manager._emit("repair.done", dataset=dataset_name,
                                      site=dest, size_mb=float(moved),
                                      latency_s=round(latency, 6))
                        attempt = 0
                        continue
                if attempt > policy.repair_max_retries:
                    stats.repairs_failed += 1
                    # This campaign holds the loss verdict (on_deregister
                    # defers while it runs): giving up with nothing left
                    # must deliver it.
                    if grid.catalog.replica_count(dataset_name) == 0:
                        manager.mark_lost(dataset_name)
                    return
                yield manager.sim.timeout(backoff.delay(attempt))
        finally:
            self._active.discard(dataset_name)


class DurabilityManager:
    """Drives integrity verification, scrubbing, and repair for a grid.

    Constructed and installed by
    :meth:`~repro.grid.grid.DataGrid.create` when a non-null
    :class:`DurabilityPolicy` is given *or* the fault plan contains
    durability faults (detection must work even with repair off, so
    the acceptance baseline can record what it lost).
    """

    def __init__(self, sim: "Simulator", grid: "DataGrid",
                 policy: DurabilityPolicy,
                 rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.grid = grid
        self.policy = policy
        self.rng = rng or random.Random(0)
        self.stats = DurabilityStats()
        self.tracer = None
        #: Ground-truth corruption markers, ``(site, dataset)``.  Only
        #: verification paths may read this — schedulers and the repair
        #: manager never do (no oracle leak).
        self._corrupt: Set[Tuple[str, str]] = set()
        #: Datasets whose last replica is gone.  Final: a lost dataset
        #: never comes back, even if stray bytes land later.
        self._lost: Set[str] = set()
        #: RepairManager, or ``None`` in detection-only mode.
        self.repair: Optional[RepairManager] = None
        if policy.repair:
            self.repair = RepairManager(self)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wire the manager into the grid and spawn its processes."""
        grid = self.grid
        grid.durability = self
        grid.datamover.durability = self
        self.tracer = grid.tracer
        grid.catalog.add_listener(self)
        for storage in grid.storages.values():
            # Quarantine removes pinned copies; a later refetch restarts
            # the pin count at one, so completing jobs may unpin more
            # times than the entry was pinned.  Forgive that instead of
            # treating it as an accounting bug.
            storage.forgive_unpins = True
        if self.repair is not None:
            self.repair.install()
        if self.policy.scrub_interval_s > 0:
            self.sim.process(self._scrub_loop(), name="durability:scrub")

    def _emit(self, kind: str, **detail) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, kind, **detail)

    # -- queries ------------------------------------------------------------

    def is_lost(self, dataset_name: str) -> bool:
        """Whether the dataset is unrecoverably gone."""
        return dataset_name in self._lost

    def lost_datasets(self) -> List[str]:
        """All lost datasets (sorted)."""
        return sorted(self._lost)

    def is_corrupt(self, site: str, dataset_name: str) -> bool:
        """Ground truth: whether the stored copy's bytes are bad.

        Test/metrics helper — behavior must only learn this through
        :meth:`verify_local` / :meth:`verify_transfer` / the scrubber.
        """
        return (site, dataset_name) in self._corrupt

    def candidate_pairs(self, dataset_name: str
                        ) -> List[Tuple[str, str]]:
        """Viable (source, destination) pairs for one repair copy.

        Sources: every cataloged holder that is currently up.  Known
        corruption is *not* consulted — a corrupt source is discovered
        by the delivery checksum, exactly like any other fetch.
        Destinations: up, breaker-admitted sites that do not already
        hold the dataset and can fit it.
        """
        grid = self.grid
        faults = grid.faults
        health = grid.health
        holders = grid.catalog.location_set(dataset_name)
        sources = [s for s in grid.catalog.locations(dataset_name)
                   if faults is None or faults.is_up(s)]
        if not sources:
            return []
        size = grid.datasets.get(dataset_name).size_mb
        dests = [
            d for d in sorted(grid.sites)
            if d not in holders
            and (faults is None or faults.is_up(d))
            and (health is None or health.allow_replication(d))
            and grid.storages[d].can_fit(size)]
        return [(s, d) for s in sources for d in dests]

    # -- fault-injection entry points ---------------------------------------

    def corrupt(self, site: str, dataset_name: str) -> bool:
        """Silently corrupt the stored copy at ``site`` (injector API).

        No-op (returns False) when the copy is not resident or already
        corrupt.  Nothing else happens until a verification touches the
        copy — corruption is invisible by construction.
        """
        if dataset_name not in self.grid.storages[site]:
            return False
        key = (site, dataset_name)
        if key in self._corrupt:
            return False
        self._corrupt.add(key)
        self.stats.replicas_corrupted += 1
        self._emit("replica.corrupted", dataset=dataset_name, site=site)
        return True

    def lose_replica(self, site: str, dataset_name: str) -> bool:
        """Destroy the stored copy at ``site`` outright (injector API).

        Loud, unlike corruption: storage and catalog drop the copy
        immediately — pinned or not — which may trigger repair or mark
        the dataset lost through the ordinary listener path.
        """
        storage = self.grid.storages[site]
        if dataset_name not in storage:
            return False
        self._corrupt.discard((site, dataset_name))
        storage.remove(dataset_name)
        self.stats.replicas_lost += 1
        self._emit("replica.lost", dataset=dataset_name, site=site)
        self.grid.catalog.deregister(dataset_name, site)
        return True

    # -- verification and quarantine ----------------------------------------

    def verify_local(self, site: str, dataset_name: str) -> bool:
        """Checksum a resident copy before a local read uses it.

        True = clean.  False = corrupt: the copy is quarantined and the
        caller must fetch fresh bytes remotely.
        """
        self.stats.verifications += 1
        if (site, dataset_name) not in self._corrupt:
            return True
        self._quarantine(site, dataset_name, via="access")
        return False

    def source_taint(self, site: str, dataset_name: str) -> bool:
        """Snapshot whether bytes read at ``site`` *right now* are bad.

        Captured by the data mover at the instant a wire transfer starts
        and handed back to :meth:`verify_transfer` at delivery, so the
        checksum judges the bytes as they were read — a source scrubbed
        (or healed by a fresh landing) while the transfer was in flight
        cannot launder, or retroactively taint, the payload.
        """
        return (site, dataset_name) in self._corrupt

    def verify_transfer(self, source: str, dest: str, dataset_name: str,
                        tainted: bool) -> bool:
        """Checksum bytes that just arrived at ``dest`` from ``source``.

        ``tainted`` is the :meth:`source_taint` snapshot taken when the
        transfer started.  A corrupt source produced corrupt bytes: the
        delivery is rejected, the *source* copy is quarantined (if still
        marked), and the fetch fails over to another replica.
        """
        self.stats.verifications += 1
        if not tainted:
            return True
        self._quarantine(source, dataset_name, via="transfer")
        return False

    def on_landed(self, site: str, dataset_name: str) -> None:
        """A verified delivery landed at ``site``: fresh bytes replaced
        whatever was there, so any corruption marker is cleared."""
        self._corrupt.discard((site, dataset_name))

    def _quarantine(self, site: str, dataset_name: str, via: str) -> bool:
        """Remove a detected-corrupt copy from storage and catalog.

        Pins do not protect the copy — corrupt bytes serve nobody, and
        every consumer tolerates the disappearance (see module
        docstring).  No-op (False) when the copy already healed or
        vanished: a delayed transfer verdict must not remove a clean
        replica that a fresh landing overwrote in the meantime.
        """
        if (site, dataset_name) not in self._corrupt:
            return False
        storage = self.grid.storages[site]
        if dataset_name not in storage:
            # The copy vanished some other way (eviction, site loss);
            # its corruption record goes with it.
            self._corrupt.discard((site, dataset_name))
            return False
        self._corrupt.discard((site, dataset_name))
        storage.remove(dataset_name)
        self.stats.replicas_quarantined += 1
        self._emit("replica.quarantined", dataset=dataset_name, site=site,
                   via=via)
        self.grid.catalog.deregister(dataset_name, site)
        return True

    def _scrub_loop(self):
        """Background integrity sweep over every resident replica."""
        interval = self.policy.scrub_interval_s
        while True:
            yield self.sim.timeout(interval)
            checked = 0
            found = 0
            for site in sorted(self.grid.storages):
                storage = self.grid.storages[site]
                for name in sorted(storage.files):
                    checked += 1
                    self.stats.verifications += 1
                    if (site, name) in self._corrupt:
                        if self._quarantine(site, name, via="scrub"):
                            found += 1
            self.stats.scrub_passes += 1
            self.stats.scrub_files_checked += checked
            self._emit("scrub.pass", checked=checked, corrupt=found)

    # -- loss semantics ------------------------------------------------------

    def mark_lost(self, dataset_name: str) -> None:
        """Declare the dataset unrecoverably gone (idempotent, final)."""
        if dataset_name in self._lost:
            return
        self._lost.add(dataset_name)
        self.stats.datasets_lost += 1
        self._emit("dataset.lost", dataset=dataset_name)

    # -- catalog listener protocol ------------------------------------------

    def on_register(self, dataset_name: str, site: str,
                    size_mb: float) -> None:
        """Discard stray landings for datasets already declared lost.

        A fetch can be mid-wire, sourced from the last copy, at the
        instant that copy is destroyed and the dataset marked lost.
        Lost is final: when such bytes land later they are discarded —
        at the next simulation instant, after the landing code has
        finished its own bookkeeping — instead of resurrecting the
        dataset with a replica nothing will ever repair or manage.
        """
        if dataset_name not in self._lost:
            return
        self.sim.process(self._discard_stray(site, dataset_name),
                         name=f"durability:stray:{dataset_name}")

    def _discard_stray(self, site: str, dataset_name: str):
        storage = self.grid.storages[site]
        if dataset_name in storage:
            storage.remove(dataset_name)
        if self.grid.catalog.has_replica(dataset_name, site):
            self.grid.catalog.deregister(dataset_name, site)
        return
        yield  # pragma: no cover - unreachable; makes this a generator

    def on_deregister(self, dataset_name: str, site: str) -> None:
        """A replica record disappeared: check the dataset's health.

        Fires on quarantine, explicit loss, LRU eviction, and permanent
        site invalidation alike.  Job outputs and other unmanaged names
        (not in ``grid.datasets``) are ignored.
        """
        self._corrupt.discard((site, dataset_name))
        if dataset_name not in self.grid.datasets:
            return
        if dataset_name in self._lost:
            return
        count = self.grid.catalog.replica_count(dataset_name)
        if count == 0:
            if self.repair is not None and self.repair.is_active(
                    dataset_name):
                # A repair copy may be mid-wire; the campaign delivers
                # the verdict (lost on give-up, healthy on landing).
                return
            self.mark_lost(dataset_name)
            return
        if (self.repair is not None
                and count < self.policy.replication_factor):
            self.repair.request(dataset_name)
