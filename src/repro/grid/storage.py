"""Per-site storage with LRU replacement.

The paper: "Data may be fetched from a remote site for a particular job, in
which case it is cached and managed using LRU. A cached dataset is then
available to the grid as a replica."  Files that a running (or queued) job
needs are *pinned* and never evicted; eviction notifies a callback so the
replica catalog stays consistent.

Inbound transfers can additionally *reserve* space before their bytes
arrive (:meth:`StorageElement.reserve` / :meth:`release_reservation`):
reserved MB is unavailable to every other add or reservation, so two
concurrent transfers into a nearly-full element can never overcommit
capacity.  The reservation ledger maintains ``used + reserved <=
capacity`` at all times; with no reservations outstanding every method
behaves exactly as it did before the ledger existed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.grid.files import Dataset


class StorageFullError(Exception):
    """Raised when a file cannot fit even after evicting everything legal."""


class _Entry:
    __slots__ = ("dataset", "last_access", "pins", "arrived_at")

    def __init__(self, dataset: Dataset, now: float) -> None:
        self.dataset = dataset
        self.last_access = now
        self.pins = 0
        self.arrived_at = now


class StorageElement:
    """LRU-managed storage at one site.

    Parameters
    ----------
    site:
        Owning site name (for error messages and catalog callbacks).
    capacity_mb:
        Total space.  ``float('inf')`` disables eviction.
    on_evict:
        Called with the evicted :class:`Dataset` (the grid uses this to
        deregister the replica from the catalog).
    """

    def __init__(
        self,
        site: str,
        capacity_mb: float = float("inf"),
        on_evict: Optional[Callable[[Dataset], None]] = None,
    ) -> None:
        if capacity_mb <= 0:
            raise ValueError(
                f"storage capacity must be positive, got {capacity_mb!r}")
        self.site = site
        self.capacity_mb = capacity_mb
        self.on_evict = on_evict
        self._entries: Dict[str, _Entry] = {}
        self._used_mb = 0.0
        #: Space promised to in-flight transfers (dataset name -> MB).
        self._reservations: Dict[str, float] = {}
        self._reserved_mb = 0.0
        #: Bumped by every change to the resident set, ``used_mb`` or the
        #: reservation ledger, so a reader can tell that nothing it checks
        #: moved since it last looked (the watchdog's periodic round).
        self.version = 0
        #: Cumulative number of evictions (metrics).
        self.evictions = 0
        #: Per-dataset local access counts (the Dataset Scheduler's
        #: popularity signal; reset by the DS after replication).
        self.access_counts: Dict[str, int] = {}
        #: High-water marks (metrics; tracked unconditionally — reads and
        #: max() never change behaviour).
        self.peak_used_mb = 0.0
        self.peak_reserved_mb = 0.0
        #: Tolerate unpins of an unpinned entry.  Set by the durability
        #: layer, whose quarantine removes pinned files: a refetch then
        #: restarts the pin count, so jobs that pinned the *old* copy
        #: legitimately unpin more times than the new entry was pinned.
        self.forgive_unpins = False

    def __repr__(self) -> str:
        return (f"<StorageElement {self.site} {self._used_mb:.0f}"
                f"/{self.capacity_mb} MB, {len(self._entries)} files>")

    # -- queries -------------------------------------------------------------

    @property
    def used_mb(self) -> float:
        """MB currently stored."""
        return self._used_mb

    @property
    def free_mb(self) -> float:
        """MB available without eviction (ignoring reservations)."""
        return self.capacity_mb - self._used_mb

    @property
    def reserved_mb(self) -> float:
        """MB promised to in-flight transfers."""
        return self._reserved_mb

    def is_reserved(self, name: str) -> bool:
        """Whether an inbound transfer holds a reservation for the file."""
        return name in self._reservations

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def files(self) -> List[str]:
        """Names of stored files."""
        return list(self._entries)

    def datasets(self) -> List[Dataset]:
        """Stored datasets."""
        return [e.dataset for e in self._entries.values()]

    def is_pinned(self, name: str) -> bool:
        """Whether the file is protected from eviction."""
        entry = self._entries.get(name)
        return entry is not None and entry.pins > 0

    # -- mutation ------------------------------------------------------------

    def add(self, dataset: Dataset, now: float, pin: bool = False) -> None:
        """Store a dataset, LRU-evicting unpinned files to make room.

        Raises
        ------
        StorageFullError
            If the file is larger than what eviction can free.
        """
        if dataset.name in self._entries:
            self.touch(dataset.name, now)
            if pin:
                self.pin(dataset.name)
            return
        # A landing file absorbs its own hold: the reservation promised
        # exactly this space, so converting it to residence can never
        # double-book (a resident file needs no reservation).
        self.release_reservation(dataset.name)
        if dataset.size_mb > self.capacity_mb:
            raise StorageFullError(
                f"{dataset.name!r} ({dataset.size_mb} MB) exceeds total "
                f"capacity of {self.site!r} ({self.capacity_mb} MB)")
        self._make_room(dataset.size_mb)
        entry = _Entry(dataset, now)
        if pin:
            entry.pins = 1
        self._entries[dataset.name] = entry
        self._used_mb += dataset.size_mb
        self.version += 1
        if self._used_mb > self.peak_used_mb:
            self.peak_used_mb = self._used_mb

    def touch(self, name: str, now: float) -> None:
        """Record an access (refreshes LRU position)."""
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(f"{name!r} not stored at {self.site!r}")
        entry.last_access = now

    def record_access(self, name: str, now: float) -> int:
        """Count a job access for popularity tracking; returns new count."""
        self.touch(name, now)
        count = self.access_counts.get(name, 0) + 1
        self.access_counts[name] = count
        return count

    def reset_popularity(self, name: str) -> None:
        """Reset the popularity counter (after the DS replicates a file)."""
        self.access_counts[name] = 0

    def pin(self, name: str) -> None:
        """Protect a file from eviction (counted; pair with unpin)."""
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(f"{name!r} not stored at {self.site!r}")
        entry.pins += 1

    def unpin(self, name: str) -> None:
        """Release one pin."""
        entry = self._entries.get(name)
        if entry is None:
            # The file may legitimately have been force-removed; ignore.
            return
        if entry.pins <= 0:
            if self.forgive_unpins:
                return
            raise ValueError(f"{name!r} at {self.site!r} is not pinned")
        entry.pins -= 1

    def remove(self, name: str) -> None:
        """Explicitly delete a file (DS-driven deletion; pins ignored)."""
        entry = self._entries.pop(name, None)
        if entry is None:
            raise KeyError(f"{name!r} not stored at {self.site!r}")
        self.version += 1
        self._release(entry.dataset.size_mb)
        self.access_counts.pop(name, None)

    def _release(self, size_mb: float) -> None:
        self._used_mb -= size_mb
        # Repeated float subtraction can leave a ±1e-13 residue; an empty
        # store holds exactly nothing.
        if not self._entries:
            self._used_mb = 0.0

    def idle_files(self, now: float, older_than_s: float) -> List[str]:
        """Unpinned files not accessed for at least ``older_than_s``.

        Used by Dataset Schedulers that implement the paper's "delete
        local files" responsibility (§3).
        """
        if older_than_s < 0:
            raise ValueError(f"older_than_s must be >= 0, got {older_than_s}")
        return sorted(
            e.dataset.name for e in self._entries.values()
            if e.pins == 0 and now - e.last_access >= older_than_s
        )

    def can_fit(self, size_mb: float) -> bool:
        """Whether ``size_mb`` could be stored after legal evictions.

        Reserved space counts as occupied: a fit promised to an in-flight
        transfer is never promised twice.
        """
        available = self.free_mb - self._reserved_mb
        if size_mb <= available:
            return True
        evictable = sum(
            e.dataset.size_mb for e in self._entries.values() if e.pins == 0)
        return size_mb <= available + evictable

    # -- reservations --------------------------------------------------------

    def reserve(self, dataset: Dataset, now: float) -> bool:
        """Set space aside for an inbound transfer of ``dataset``.

        Evicts unpinned files (LRU-first) if needed so that ``used +
        reserved + size <= capacity`` afterwards.  Returns ``False`` —
        never raises — when pinned files and other reservations make
        that impossible, so callers can wait or degrade.  Reserving a
        name that is already reserved or already resident is a no-op
        returning ``True``.  Pair with :meth:`release_reservation`.
        """
        if dataset.name in self._reservations or dataset.name in self._entries:
            return True
        size = dataset.size_mb
        if size > self.capacity_mb or not self.can_fit(size):
            return False
        self._make_room(size)
        self._reservations[dataset.name] = size
        self._reserved_mb += size
        self.version += 1
        if self._reserved_mb > self.peak_reserved_mb:
            self.peak_reserved_mb = self._reserved_mb
        return True

    def release_reservation(self, name: str) -> None:
        """Drop a reservation (transfer landed, aborted, or failed over).

        Tolerates unknown names so abort paths can release
        unconditionally.
        """
        size = self._reservations.pop(name, None)
        if size is None:
            return
        self._reserved_mb -= size
        self.version += 1
        if not self._reservations:
            # Same zero-residue rule as ``_release``: no outstanding
            # reservations means exactly nothing is reserved.
            self._reserved_mb = 0.0

    def commit_reservation(self, dataset: Dataset, now: float,
                           pin: bool = False) -> None:
        """Land a reserved transfer: release the hold, store the file.

        Because every add and reservation since :meth:`reserve` kept
        ``used + reserved <= capacity`` with this hold included, the add
        is guaranteed to fit without even evicting.
        """
        self.release_reservation(dataset.name)
        self.add(dataset, now, pin=pin)

    def _make_room(self, size_mb: float) -> None:
        # Reserved space is spoken for: eviction must clear enough for
        # this add *and* every outstanding reservation.
        available = self.free_mb - self._reserved_mb
        if size_mb <= available:
            return
        # Check feasibility *before* evicting anything: a failed add must
        # be atomic — evicting victims and then raising would silently
        # shrink the cache on every doomed attempt.
        victims = sorted(
            (e for e in self._entries.values() if e.pins == 0),
            key=lambda e: e.last_access,
        )
        evictable_mb = sum(e.dataset.size_mb for e in victims)
        if size_mb > available + evictable_mb:
            pinned_mb = sum(
                e.dataset.size_mb for e in self._entries.values()
                if e.pins > 0)
            raise StorageFullError(
                f"cannot free {size_mb} MB at {self.site!r}: "
                f"{pinned_mb:.0f} MB pinned of {self.capacity_mb} MB capacity")
        # Evict unpinned files, least-recently-used first.
        for entry in victims:
            if size_mb <= self.free_mb - self._reserved_mb:
                break
            del self._entries[entry.dataset.name]
            self.access_counts.pop(entry.dataset.name, None)
            self.version += 1
            self._release(entry.dataset.size_mb)
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(entry.dataset)
