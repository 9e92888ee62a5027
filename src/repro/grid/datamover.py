"""The data mover: fetch-before-execute and asynchronous replication.

Stand-in for GASS-style grid data movement (paper ref [12]).  All movement
funnels through :meth:`DataMover.ensure_local`:

* **Job fetches** ("any data required to run a job is fetched locally
  before the task is run if it is not already present", §4) pin the file
  for the duration of the job so LRU eviction cannot pull it out from
  under a running computation.
* **Replications** (the Dataset Scheduler's asynchronous pushes) are
  unpinned cached replicas.

Concurrent requests for the same (site, dataset) pair share one wire
transfer — without this, a popular dataset would be fetched once per queued
job and the traffic numbers would be meaningless.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, AbstractSet, Dict, FrozenSet, Optional, Tuple

from repro.faults.backoff import BackoffPolicy
from repro.grid.catalog import ReplicaCatalog
from repro.grid.files import DatasetCollection
from repro.grid.storage import StorageElement, StorageFullError
from repro.network.transfer import TransferManager
from repro.sim.core import Simulator
from repro.sim.events import Event
from repro.sim.process import Process

_EMPTY: FrozenSet[str] = frozenset()

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.site import Site


class DataUnavailableError(Exception):
    """No replica of a required dataset exists anywhere in the grid."""


class RemoteReadMB(float):
    """MB moved by a degraded *remote read*.

    Overload mode: when a pinned fetch cannot reserve storage for
    ``remote_read_after`` retry rounds, the bytes are streamed to the job
    without being stored.  The traffic is real (it is a plain float for
    every accounting purpose) but the file was never added or pinned, so
    the site must not unpin it afterwards — hence the distinct type.
    """

    __slots__ = ()


class DataMover:
    """Moves datasets between sites over the contended network.

    Parameters
    ----------
    sim, transfers, catalog, datasets:
        Shared grid infrastructure.
    storages:
        Site name → :class:`StorageElement`.
    rng:
        Stream used for tie-breaking among equally-close source replicas.
    """

    def __init__(
        self,
        sim: Simulator,
        transfers: TransferManager,
        catalog: ReplicaCatalog,
        datasets: DatasetCollection,
        storages: Dict[str, StorageElement],
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.transfers = transfers
        self.catalog = catalog
        self.datasets = datasets
        self.storages = storages
        self.rng = rng or random.Random(0)
        self._inflight: Dict[Tuple[str, str], Event] = {}
        #: Metrics: replications completed / skipped.
        self.replications_done = 0
        self.replications_skipped = 0
        #: Fault injector, installed by the grid when a plan is active.
        #: ``None`` keeps every fetch on the exact fault-free code path.
        self.faults = None
        #: Domain-event tracer (None = tracing off; one attribute check).
        self.tracer = None
        #: Metrics (fault mode only): transfer attempts that failed or
        #: stalled, and retries that switched to an alternate replica.
        self.transfers_failed = 0
        self.failovers = 0
        #: Overload policy + shared saturation counters, installed by the
        #: grid when an :class:`~repro.grid.overload.OverloadPolicy` is
        #: active.  ``None`` keeps every fetch on the exact pre-overload
        #: code path (no reservations, no remote reads).
        self.overload = None
        self.overload_stats = None
        #: Replication pushes skipped because the target raised
        #: :class:`StorageFullError` mid-push (satellite metric).
        self.replications_skipped_full = 0
        #: Observed-health monitor (``None`` = off).  When installed,
        #: successful fetches feed the link breakers (failures arrive
        #: through the transfer manager's abort hook, never from here —
        #: one channel, no double counting), open site breakers veto
        #: replication targets, and open link breakers deprioritize
        #: sources.
        self.health = None
        #: Durability manager (``None`` = off).  When installed, local
        #: hits and wire deliveries are checksum-verified: a corrupt
        #: local copy falls through to a fresh remote fetch, a corrupt
        #: delivery quarantines its source and fails over.
        self.durability = None
        #: Lazily built shared-helper policy reproducing the plan's
        #: capped exponential transfer backoff bit for bit.
        self._transfer_backoff = None

    # -- public API ----------------------------------------------------------

    def ensure_local(self, site: str, dataset_name: str, pin: bool = False,
                     purpose: str = "job-fetch",
                     best_effort: bool = False,
                     preferred_source: Optional[str] = None) -> Process:
        """Make ``dataset_name`` present at ``site``.

        Returns a process whose value is the MB of *new* network traffic
        this call initiated (0 if the file was present or the call joined
        an in-flight transfer).  ``preferred_source`` steers the fetch at
        a specific replica when it is viable (repair placement uses
        this); the ordinary closest-replica choice applies otherwise.

        If the site's storage is full of pinned files, a normal call waits
        (retrying periodically) until space frees — pins are bounded by the
        processor count, so space always frees eventually in a sane
        configuration.  A ``best_effort`` call (prefetching, replication)
        gives up instead, returning 0.
        """
        return self.sim.process(
            self._ensure(site, dataset_name, pin, purpose,
                         preferred_source=preferred_source,
                         best_effort=best_effort),
            name=f"fetch:{dataset_name}@{site}")

    def replicate(self, dataset_name: str, from_site: str,
                  to_site: str) -> Process:
        """Asynchronously copy a dataset (Dataset Scheduler push).

        Returns a process whose value is the MB moved (0 if the target
        already held or could not accept the file).  Unlike job fetches the
        copy is best-effort: a target without space simply skips.
        """
        return self.sim.process(
            self._replicate(dataset_name, from_site, to_site),
            name=f"replicate:{dataset_name}->{to_site}")

    def is_inflight(self, site: str, dataset_name: str) -> bool:
        """Whether a transfer of the dataset toward the site is running."""
        return (site, dataset_name) in self._inflight

    # -- internals -----------------------------------------------------------

    def _replicate(self, dataset_name: str, from_site: str, to_site: str):
        dataset = self.datasets.get(dataset_name)
        storage = self.storages[to_site]
        if dataset_name in storage or self.is_inflight(to_site, dataset_name):
            self.replications_skipped += 1
            self._trace_replicate_skip(dataset_name, to_site,
                                       "already-present-or-inflight")
            return 0.0
        if (self.health is not None
                and not self.health.allows(to_site)):
            # The Dataset Scheduler must not push replicas at a site the
            # breaker currently quarantines.
            self.replications_skipped += 1
            self._trace_replicate_skip(dataset_name, to_site, "breaker-open")
            return 0.0
        if not storage.can_fit(dataset.size_mb):
            self.replications_skipped += 1
            self._trace_replicate_skip(dataset_name, to_site, "no-space")
            return 0.0
        try:
            moved = yield self.sim.process(
                self._ensure(to_site, dataset_name, pin=False,
                             purpose="replication",
                             preferred_source=from_site, best_effort=True))
        except StorageFullError:
            # An aggressive fault/eviction interleaving can pin the target
            # solid between the can_fit pre-check and the landing.  Skip
            # the push instead of letting the error kill the DS loop.
            self.replications_skipped += 1
            self.replications_skipped_full += 1
            self._trace_replicate_skip(dataset_name, to_site, "storage-full")
            return 0.0
        if moved > 0:
            self.replications_done += 1
            if self.tracer is not None:
                self.tracer.emit(self.sim.now, "replicate.done",
                                 dataset=dataset_name, source=from_site,
                                 site=to_site, size_mb=moved)
        else:
            self.replications_skipped += 1
            self._trace_replicate_skip(dataset_name, to_site, "not-moved")
        return moved

    def _trace_replicate_skip(self, dataset_name: str, to_site: str,
                              reason: str) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "replicate.skip",
                             dataset=dataset_name, site=to_site,
                             reason=reason)

    #: How long a blocked (storage-full) fetch waits before re-checking.
    RETRY_INTERVAL_S = 30.0
    #: Retries before declaring the configuration broken (storage smaller
    #: than what the site's own pinned working set needs, which no amount
    #: of waiting can fix).  3000 × 30 s = a simulated day of waiting.
    MAX_RETRIES = 3_000

    def _ensure(self, site: str, dataset_name: str, pin: bool, purpose: str,
                preferred_source: Optional[str], best_effort: bool = False):
        dataset = self.datasets.get(dataset_name)
        storage = self.storages[site]
        reservations = (self.overload is not None
                        and self.overload.storage_reservations)
        retries = 0
        while True:
            if dataset_name in storage:
                if (self.durability is None
                        or self.durability.verify_local(site, dataset_name)):
                    storage.touch(dataset_name, self.sim.now)
                    if pin:
                        storage.pin(dataset_name)
                    if self.tracer is not None:
                        self.tracer.emit(self.sim.now, "fetch.hit", site=site,
                                         dataset=dataset_name,
                                         purpose=purpose, pin=pin)
                    return 0.0
                # Checksum mismatch: the copy was quarantined — fall
                # through to a fresh remote fetch of clean bytes.
                if self.durability.is_lost(dataset_name):
                    # No clean replica exists anywhere; fetching cannot
                    # succeed, so fail fast instead of starving.
                    if best_effort:
                        return 0.0
                    raise DataUnavailableError(
                        f"dataset {dataset_name!r} is unrecoverably lost")
            key = (site, dataset_name)
            inflight = self._inflight.get(key)
            if inflight is not None:
                # Join the existing transfer, then re-check (the file could
                # in principle be evicted in the same instant by another
                # arrival; the loop handles that by re-fetching).
                if self.tracer is not None:
                    self.tracer.emit(self.sim.now, "fetch.join", site=site,
                                     dataset=dataset_name, purpose=purpose)
                yield inflight
                continue
            if reservations:
                # Reserve space *before* the bytes fly: concurrent inbound
                # transfers each hold their own promise, so they can never
                # jointly overcommit the element (the latent can_fit race).
                if not storage.reserve(dataset, self.sim.now):
                    if best_effort:
                        return 0.0
                    retries += 1
                    if (pin and self.overload.remote_read_after > 0
                            and retries >= self.overload.remote_read_after):
                        # Storage is too pinned to promise space; degrade
                        # to streaming the bytes past the cache.
                        moved = yield from self._remote_read(
                            site, dataset, dataset_name, purpose,
                            preferred_source)
                        return moved
                    if retries > self.MAX_RETRIES:
                        raise StorageFullError(
                            f"fetch of {dataset_name!r} to {site!r} starved:"
                            f" storage permanently too pinned "
                            f"(capacity {storage.capacity_mb} MB)")
                    yield self.sim.timeout(self.RETRY_INTERVAL_S)
                    continue
            elif not storage.can_fit(dataset.size_mb):
                # Pinned files block eviction.  Pins are bounded (one input
                # set per processor + the primary copies), so waiting works
                # unless the configuration is fundamentally too small.
                if best_effort:
                    return 0.0
                retries += 1
                if retries > self.MAX_RETRIES:
                    raise StorageFullError(
                        f"fetch of {dataset_name!r} to {site!r} starved: "
                        f"storage permanently too pinned "
                        f"(capacity {storage.capacity_mb} MB)")
                yield self.sim.timeout(self.RETRY_INTERVAL_S)
                continue
            arrival = Event(self.sim)
            self._inflight[key] = arrival
            try:
                delivered = yield from self._wire(
                    site, dataset, dataset_name, purpose, preferred_source,
                    best_effort)
                if not delivered:
                    return 0.0
                if reservations:
                    # The reservation guarantees the landing fits — no
                    # retry loop, no eviction, no StorageFullError.
                    storage.commit_reservation(dataset, self.sim.now)
                else:
                    # Space may have been pinned away while the bytes were
                    # in flight; retry the landing rather than dropping
                    # the data.
                    while True:
                        try:
                            storage.add(dataset, self.sim.now, pin=False)
                            break
                        except StorageFullError:
                            if best_effort:
                                return dataset.size_mb  # traffic was spent
                            retries += 1
                            if retries > self.MAX_RETRIES:
                                raise
                            yield self.sim.timeout(self.RETRY_INTERVAL_S)
                self.catalog.register(dataset_name, site,
                                      size_mb=dataset.size_mb)
                if self.durability is not None:
                    # The verified delivery overwrote whatever was at the
                    # site before; any corruption marker is now stale.
                    self.durability.on_landed(site, dataset_name)
            finally:
                if reservations:
                    # No-op after commit; on abort/failover/kill paths it
                    # returns the promised space to the element.
                    storage.release_reservation(dataset_name)
                self._inflight.pop(key, None)
                if not arrival.triggered:
                    arrival.succeed()
            if pin:
                storage.pin(dataset_name)
            return dataset.size_mb

    def _remote_read(self, site: str, dataset, dataset_name: str,
                     purpose: str, preferred_source: Optional[str]):
        """Stream a dataset's bytes to a job without storing them.

        The degraded endpoint of a pinned fetch into a too-pinned element:
        the traffic is paid, nothing lands, nothing is pinned, and the
        catalog is untouched.  Returns :class:`RemoteReadMB`.
        """
        yield from self._wire(site, dataset, dataset_name, purpose,
                              preferred_source, best_effort=False)
        if self.overload_stats is not None:
            self.overload_stats.remote_reads += 1
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "fetch.remote", site=site,
                             dataset=dataset_name, purpose=purpose,
                             size_mb=dataset.size_mb)
        return RemoteReadMB(dataset.size_mb)

    def _wire(self, site: str, dataset, dataset_name: str, purpose: str,
              preferred_source: Optional[str], best_effort: bool):
        """Move one dataset's bytes to ``site`` over the network.

        Fault-free, one transfer from the picked source, fed to the health
        layer on success; under faults, :meth:`_fetch_with_faults`.
        Returns whether the bytes arrived (only a best-effort fetch under
        faults can give up).
        """
        if self.faults is not None:
            return (yield from self._fetch_with_faults(
                site, dataset, dataset_name, purpose, preferred_source,
                best_effort))
        source = self._pick_source(site, dataset_name, preferred_source)
        transfer = self.transfers.start(
            source, site, dataset.size_mb, purpose=purpose,
            metadata={"dataset": dataset_name})
        yield transfer.done
        if self.health is not None:
            self.health.record_transfer_success(source, site)
        return True

    def _fetch_with_faults(self, site: str, dataset, dataset_name: str,
                           purpose: str, preferred_source: Optional[str],
                           best_effort: bool):
        """Run one wire fetch under fault injection.

        Retries failed/stalled transfers with capped exponential backoff,
        failing over to alternate replica sources, up to the plan's
        ``transfer_max_retries``.  Returns ``True`` once the bytes arrive;
        ``False`` if a best-effort fetch gave up; raises
        :class:`DataUnavailableError` when a required fetch exhausts its
        budget (the job-level recovery then retries the whole job).
        """
        plan = self.faults.plan
        avoid: set = set()
        attempt = 0
        while True:
            attempt += 1
            if not self.faults.is_up(site):
                # The destination died while we were waiting/retrying:
                # pushing bytes at a dead site is pointless.  The waiting
                # job (if any) is being killed by the same outage.
                if best_effort:
                    return False
                raise DataUnavailableError(
                    f"destination {site!r} is down")
            try:
                source = self._pick_source(site, dataset_name,
                                           preferred_source,
                                           avoid=frozenset(avoid))
            except DataUnavailableError:
                if best_effort:
                    return False
                raise
            # The checksum verdict judges the bytes as they were *read*:
            # snapshot the source's integrity when the wire transfer
            # starts, not when it lands (a scrub or fresh landing at the
            # source mid-flight must not launder — or retroactively
            # taint — the payload).
            tainted = (self.durability is not None
                       and self.durability.source_taint(source, dataset_name))
            transfer = self.transfers.start(
                source, site, dataset.size_mb, purpose=purpose,
                metadata={"dataset": dataset_name})
            if transfer.finished_at is not None and not transfer.failed:
                # local / empty move completed instantly
                if self._delivery_ok(source, site, dataset_name, tainted):
                    return True
            else:
                # Guard against stalls (dead links, source dying
                # silently): abort if the transfer exceeds a generous
                # multiple of its nominal uncontended time.  The
                # allowance doubles per attempt so contention alone
                # cannot starve a fetch forever.
                allowance = max(
                    plan.transfer_timeout_min_s,
                    plan.transfer_timeout_factor
                    * self.transfers.base_transfer_time(source, site,
                                                        dataset.size_mb))
                allowance *= 2 ** (attempt - 1)
                deadline = self.sim.timeout(allowance)
                yield self.sim.any_of([transfer.done, deadline])
                if transfer.finished_at is None:
                    self.transfers.abort(transfer, reason="stalled")
                if (not transfer.failed
                        and self._delivery_ok(source, site, dataset_name,
                                              tainted)):
                    return True
            self.transfers_failed += 1
            avoid.add(source)
            if (self.durability is not None
                    and self.durability.is_lost(dataset_name)):
                # The rejected delivery came from the last replica; no
                # amount of failover can produce clean bytes now.
                if best_effort:
                    return False
                raise DataUnavailableError(
                    f"dataset {dataset_name!r} is unrecoverably lost")
            if self.tracer is not None:
                self.tracer.emit(
                    self.sim.now, "transfer.retry", dataset=dataset_name,
                    site=site, source=source, attempt=attempt,
                    retry=attempt <= plan.transfer_max_retries)
            if attempt > plan.transfer_max_retries:
                if best_effort:
                    return False
                raise DataUnavailableError(
                    f"fetch of {dataset_name!r} to {site!r} failed "
                    f"{attempt} times; giving up")
            self.failovers += 1
            if self._transfer_backoff is None:
                self._transfer_backoff = BackoffPolicy(
                    plan.transfer_backoff_base_s,
                    plan.transfer_backoff_cap_s)
            backoff = self._transfer_backoff.delay(attempt)
            if backoff > 0:
                yield self.sim.timeout(backoff)

    def _delivery_ok(self, source: str, site: str, dataset_name: str,
                     tainted: bool) -> bool:
        """Post-delivery bookkeeping for one completed wire transfer.

        Verifies the end-to-end checksum when durability is armed
        (``tainted`` is the source-integrity snapshot taken at launch):
        a clean delivery feeds the health layer's success channel; a
        corrupt one quarantines its source (done inside
        ``verify_transfer``) and counts as a failed attempt, so the
        caller fails over exactly like a dropped transfer.
        """
        if (self.durability is not None
                and not self.durability.verify_transfer(source, site,
                                                        dataset_name,
                                                        tainted)):
            return False
        if self.health is not None:
            self.health.record_transfer_success(source, site)
        return True

    def _pick_source(self, dest: str, dataset_name: str,
                     preferred: Optional[str],
                     avoid: AbstractSet[str] = _EMPTY) -> str:
        locations = self.catalog.locations(dataset_name)
        locations = [s for s in locations if s != dest]
        if self.faults is not None:
            # Down sites cannot serve bytes.  Sources that already failed
            # this fetch (``avoid``) are deprioritized, not banned: if they
            # hold the only replica we retry them (they may have recovered).
            locations = [s for s in locations if self.faults.is_up(s)]
            if avoid:
                fresh = [s for s in locations if s not in avoid]
                if fresh:
                    locations = fresh
        if self.health is not None:
            # Open link breakers deprioritize, never ban: a source behind
            # a flaky link is still used when it holds the only replica,
            # and each success there closes the breaker again.
            clear = [s for s in locations
                     if not self.health.link_open(s, dest)]
            if clear:
                locations = clear
        if preferred is not None and preferred in locations:
            return preferred
        if not locations:
            raise DataUnavailableError(
                f"no replica of {dataset_name!r} available for {dest!r}")
        # Closest replica by hop count; ties broken randomly so one popular
        # source does not absorb all traffic.
        hops = self.transfers.router.hops
        counts = [hops(src, dest) for src in locations]
        best_hops = min(counts)
        closest = [s for s, n in zip(locations, counts) if n == best_hops]
        if len(closest) == 1:
            return closest[0]
        return self.rng.choice(closest)
