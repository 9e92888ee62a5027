"""The replica catalog: which sites hold which datasets.

Stand-in for the Globus replica-catalog / MDS location queries the paper's
schedulers would issue on a real grid.  The catalog is authoritative and
instantaneous by default; staleness can be injected at the
:class:`~repro.grid.info.InformationService` layer instead, keeping this
class a simple consistent index.

Schedulers hit this object on every job, so the indices are maintained
*incrementally*:

* per-dataset location lists stay sorted via :mod:`bisect` insertion, so
  :meth:`locations` never re-sorts;
* a per-site dataset→size index makes :meth:`datasets_at` and the
  byte-weighted queries (:meth:`bytes_at`, :meth:`bytes_present_by_site`)
  independent of the total number of replica records in the grid.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Set

import random

from repro.grid.files import Dataset, DatasetCollection

#: Shared immutable empty result for queries about unknown names/sites.
_EMPTY_SET: frozenset = frozenset()


class ReplicaCatalog:
    """Maps dataset names to the set of sites holding a replica."""

    def __init__(self) -> None:
        self._locations: Dict[str, Set[str]] = {}
        #: Incrementally maintained sorted view of each location set.
        self._sorted_locations: Dict[str, List[str]] = {}
        #: site → {dataset name: size in MB} (0.0 when registered sizeless).
        self._site_index: Dict[str, Dict[str, float]] = {}
        #: site → count of registrations and removals there (see
        #: :meth:`site_version`).
        self._site_versions: Dict[str, int] = defaultdict(int)
        #: Cumulative counters for metrics.
        self.registrations = 0
        self.deregistrations = 0
        #: Domain-event tracer + clock (None = tracing off).  The catalog
        #: has no simulator reference of its own, so the grid hands one in
        #: alongside the tracer via :meth:`set_tracer`.
        self._tracer = None
        self._sim = None
        #: Membership listeners, notified on every *actual* replica
        #: addition/removal (idempotent re-registrations are not membership
        #: changes).  The stale-view layer subscribes here; the list is
        #: empty in ordinary builds so the hot path pays one truth test.
        self._listeners: list = []

    def set_tracer(self, tracer, sim) -> None:
        """Wire a tracer (and the simulator supplying timestamps)."""
        self._tracer = tracer
        self._sim = sim

    def add_listener(self, listener) -> None:
        """Subscribe to membership changes.

        ``listener.on_register(dataset, site, size_mb)`` is called when a
        replica record appears and ``listener.on_deregister(dataset, site)``
        when one disappears — synchronously, after this catalog's own
        indices are updated.
        """
        self._listeners.append(listener)

    def register(self, dataset_name: str, site: str,
                 size_mb: float = 0.0) -> None:
        """Record that ``site`` now holds ``dataset_name``.

        ``size_mb`` feeds the per-site byte index; callers that move real
        data (the data mover, initial placement) pass the dataset size so
        byte-weighted queries stay meaningful.
        """
        sites = self._locations.setdefault(dataset_name, set())
        if site not in sites:
            sites.add(site)
            bisect.insort(
                self._sorted_locations.setdefault(dataset_name, []), site)
            if self._tracer is not None:
                self._tracer.emit(
                    self._sim.now, "catalog.register", dataset=dataset_name,
                    site=site, size_mb=size_mb, replicas=len(sites))
            if self._listeners:
                for listener in self._listeners:
                    listener.on_register(dataset_name, site, size_mb)
        self._site_index.setdefault(site, {})[dataset_name] = size_mb
        self._site_versions[site] += 1
        self.registrations += 1

    def deregister(self, dataset_name: str, site: str) -> None:
        """Remove a replica record (idempotent)."""
        sites = self._locations.get(dataset_name)
        if sites is not None and site in sites:
            sites.discard(site)
            ordered = self._sorted_locations[dataset_name]
            del ordered[bisect.bisect_left(ordered, site)]
            held = self._site_index.get(site)
            if held is not None:
                held.pop(dataset_name, None)
            self._site_versions[site] += 1
            self.deregistrations += 1
            if self._tracer is not None:
                self._tracer.emit(
                    self._sim.now, "catalog.deregister",
                    dataset=dataset_name, site=site, replicas=len(sites))
            if self._listeners:
                for listener in self._listeners:
                    listener.on_deregister(dataset_name, site)

    def site_version(self, site: str) -> int:
        """A number that moves whenever ``site``'s replica records change.

        Bumped by every :meth:`register` and every effective
        :meth:`deregister` at the site, so an unchanged version means
        :meth:`datasets_at` and :meth:`has_replica` still answer for
        ``site`` as they did when it was read.
        """
        return self._site_versions.get(site, 0)

    def locations(self, dataset_name: str) -> List[str]:
        """Sites currently holding the dataset (sorted for determinism)."""
        return list(self._sorted_locations.get(dataset_name, ()))

    def location_set(self, dataset_name: str) -> Set[str]:
        """The holder set itself (shared, read-only — do not mutate)."""
        return self._locations.get(dataset_name, _EMPTY_SET)

    def has_replica(self, dataset_name: str, site: str) -> bool:
        """Whether ``site`` holds ``dataset_name``."""
        return site in self._locations.get(dataset_name, ())

    def replica_count(self, dataset_name: str) -> int:
        """Number of replicas of the dataset."""
        return len(self._locations.get(dataset_name, ()))

    def replica_size_mb(self, dataset_name: str, site: str
                        ) -> Optional[float]:
        """Recorded size of the replica at ``site`` (None if absent)."""
        return self._site_index.get(site, {}).get(dataset_name)

    def replica_records(self) -> List[tuple]:
        """Every ``(dataset, site, size_mb)`` record, sorted (snapshots)."""
        return sorted(
            (name, site, self._site_index.get(site, {}).get(name, 0.0))
            for name, sites in self._locations.items()
            for site in sites)

    def datasets_at(self, site: str) -> List[str]:
        """All datasets with a replica at ``site``."""
        return sorted(self._site_index.get(site, ()))

    def bytes_at(self, site: str) -> float:
        """Total MB of replica data recorded at ``site``."""
        return sum(self._site_index.get(site, {}).values())

    def bytes_present_by_site(
        self,
        dataset_names: Iterable[str],
        sizes: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """MB of the named datasets present per site (sites holding > 0).

        Iterates replicas of the *requested* datasets rather than scanning
        every site, so the cost is O(inputs × replicas-per-input) — the
        fast path behind ``JobDataPresent``'s most-bytes-present fallback.
        ``sizes`` overrides the sizes recorded at registration (useful when
        the caller owns the authoritative dataset collection); names appear
        once per occurrence, so duplicated inputs count twice, matching a
        per-input scan.
        """
        present: Dict[str, float] = {}
        for name in dataset_names:
            holders = self._locations.get(name)
            if not holders:
                continue
            for site in holders:
                if sizes is not None:
                    size = sizes[name]
                else:
                    size = self._site_index[site][name]
                present[site] = present.get(site, 0.0) + size
        return present

    def invalidate_site(self, site: str) -> List[str]:
        """Drop every replica record at ``site`` (permanent site loss).

        Called by fault injection when a site dies for good: its disks are
        gone, so the catalog must stop advertising anything it held.
        Returns the invalidated dataset names (sorted).
        """
        names = self.datasets_at(site)
        for name in names:
            self.deregister(name, site)
        return names

    def total_replicas(self) -> int:
        """Total replica records in the grid."""
        return sum(len(sites) for sites in self._locations.values())

    @staticmethod
    def initial_uniform_distribution(
        datasets: DatasetCollection,
        sites: List[str],
        rng: random.Random,
    ) -> Dict[str, str]:
        """The paper's initial mapping: one replica per dataset, placed
        uniformly at random across sites ("data is uniformly distributed
        across the grid", initially "only one replica per dataset").

        Returns ``{dataset_name: site}``; the caller performs the actual
        placement so storage accounting stays in one place.
        """
        if not sites:
            raise ValueError("no sites to distribute datasets over")
        return {ds.name: rng.choice(sites) for ds in datasets}
