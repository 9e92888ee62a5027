"""The grid information service.

Stand-in for the Globus MDS / Network Weather Service the paper cites as
the source of "external information like load at a remote site or the
location of a dataset".  Schedulers query this object rather than peeking
at sites directly, which lets us serve *stale* answers to study
sensitivity to information lag (the paper's results use live information).

Three staleness mechanisms, unified under one
:class:`~repro.grid.staleness.InfoPolicy`:

* **Load snapshots** (``refresh_interval_s``) — site loads are served
  from a snapshot refreshed periodically, modelling MDS/NWS cache TTLs.
* **Catalog propagation delay** (``catalog_delay_s``) — replica-location
  queries are routed through a
  :class:`~repro.grid.staleness.StaleReplicaView` that sees catalog
  changes only after a fixed delay, so schedulers can chase phantom
  replicas and miss fresh ones.
* **Query timeout fallback** (``query_timeout_s``) — a site marked stale
  (:meth:`mark_stale`) has its load served from the last-known value
  until that record ages out, modelling an info query that times out and
  falls back to cached data.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List,
                    Optional, Set, Tuple)

import random

from repro.grid.catalog import ReplicaCatalog
from repro.grid.staleness import InfoPolicy, StaleReplicaView
from repro.sim.core import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.site import Site


class InformationService:
    """Queryable view of site loads and replica locations.

    Parameters
    ----------
    sim:
        The simulator.
    sites:
        Name → :class:`~repro.grid.site.Site` mapping (shared, live).
    catalog:
        The replica catalog.
    policy:
        Information-quality policy (None = every query live).  A positive
        ``refresh_interval_s`` serves load snapshots refreshed
        periodically, modelling MDS/NWS staleness; a positive
        ``catalog_delay_s`` installs a
        :class:`~repro.grid.staleness.StaleReplicaView` between the
        schedulers and the catalog.
    """

    def __init__(
        self,
        sim: Simulator,
        sites: Dict[str, "Site"],
        catalog: ReplicaCatalog,
        policy: Optional[InfoPolicy] = None,
    ) -> None:
        if policy is None:
            policy = InfoPolicy()
        self.sim = sim
        self.sites = sites
        self.catalog = catalog
        self.policy = policy
        self.refresh_interval_s = policy.refresh_interval_s
        # The site set is fixed once the grid is wired, and every external
        # scheduler consults site_names per job — sort once, not per call.
        self._site_names: List[str] = sorted(sites)
        # Fault injection: sites currently down are hidden from scheduler
        # queries.  When the set is empty (always, in fault-free runs) the
        # original cached list is served unchanged.
        self._unavailable: Set[str] = set()
        # Observed health: sites the failure detector currently suspects
        # (breaker open/half-open).  Kept separate from ``_unavailable``
        # because the two channels have different owners — the fault
        # oracle vs. the detector — and clear independently.
        self._suspected: Set[str] = set()
        # Union of both hide channels; the only set query paths consult.
        self._hidden: Set[str] = set()
        self._available_names: List[str] = self._site_names
        self._snapshot: Optional[Dict[str, int]] = None
        # The all-sites least-loaded answer from the snapshot: the sites
        # tied at the minimum load, and the snapshot and available-site
        # list it was read from (both are replaced, never mutated).
        self._tied: List[str] = []
        self._tied_snapshot: Optional[Dict[str, int]] = None
        self._tied_names: Optional[List[str]] = None
        if self.refresh_interval_s > 0:
            self._snapshot = self._take_snapshot()
            sim.process(self._refresher(), name="info-refresher")
        #: Delayed catalog mirror (None = live replica queries).
        self.replica_view: Optional[StaleReplicaView] = None
        if policy.catalog_delay_s > 0:
            self.replica_view = StaleReplicaView(
                sim, catalog, policy.catalog_delay_s)
            catalog.add_listener(self.replica_view)
        # Query-timeout fallback state: sites whose next load queries are
        # served from the last-known value, and what each read recorded.
        # A per-site read records (load, time, order); ``refresh`` records
        # (None, time, order).  An all-sites read off the snapshot records
        # one (snapshot, time, site list, order) entry in place of one per
        # listed site.  ``order`` counts the records, so the newer of a
        # site's own record and the all-sites entry is the last-known one.
        self._stale_marked: Set[str] = set()
        self._last_known: Dict[str, Tuple[Optional[int], float, int]] = {}
        self._read_all: Optional[
            Tuple[Dict[str, int], float, List[str], int]] = None
        self._records = 0
        #: Load queries answered from a last-known (timed-out) value.
        self.stale_load_reads = 0

    # -- staleness machinery ---------------------------------------------------

    def _take_snapshot(self) -> Dict[str, int]:
        return {name: site.load for name, site in self.sites.items()}

    def _refresher(self):
        while True:
            yield self.sim.timeout(self.refresh_interval_s)
            self._snapshot = self._take_snapshot()

    def mark_stale(self, site: str) -> None:
        """Serve this site's load from the last-known value.

        Models an information query that times out: until the cached
        record ages past ``policy.query_timeout_s`` (or :meth:`refresh`
        is called), load queries fall back to the last value observed.
        No-op unless the policy enables the query-timeout fallback.
        """
        if site not in self.sites:
            raise KeyError(f"unknown site {site!r}")
        if self.policy.query_timeout_s > 0:
            self._stale_marked.add(site)

    def refresh(self, site: str) -> None:
        """Drop the stale mark: the next load query reads fresh state."""
        self._stale_marked.discard(site)
        # Forget the last-known load, an older all-sites read included.
        self._records += 1
        self._last_known[site] = (None, self.sim.now, self._records)

    def _last_known_load(self, site: str) -> Optional[Tuple[int, float]]:
        """The load the newest read recorded for ``site``, and when."""
        entry = self._last_known.get(site)
        read_all = self._read_all
        if (read_all is not None
                and (entry is None or entry[2] < read_all[3])
                and site in read_all[2]):
            return read_all[0][site], read_all[1]
        if entry is None or entry[0] is None:
            return None
        return entry[0], entry[1]

    # -- queries ----------------------------------------------------------------

    @property
    def site_names(self) -> List[str]:
        """*Available* site names, sorted (deterministic iteration order).

        The list is cached (the site set never changes after wiring, and
        availability only changes on fault transitions) and shared between
        calls — treat it as read-only.  Down sites are excluded so
        schedulers stop considering them; in fault-free runs this is the
        identical all-sites list.
        """
        return self._available_names

    def is_available(self, site: str) -> bool:
        """Whether the site is currently advertised (not marked down)."""
        return site not in self._unavailable

    def is_suspected(self, site: str) -> bool:
        """Whether the failure detector currently hides this site."""
        return site in self._suspected

    def _recompute_available(self) -> None:
        self._hidden = self._unavailable | self._suspected
        if self._hidden:
            self._available_names = [
                name for name in self._site_names
                if name not in self._hidden]
        else:
            # Restore the shared cached list so fault-free (and fully
            # recovered) grids serve the identical all-sites object.
            self._available_names = self._site_names

    def mark_site_down(self, site: str) -> None:
        """Hide a failed site from scheduler queries (fault injection)."""
        if site not in self.sites:
            raise KeyError(f"unknown site {site!r}")
        self._unavailable.add(site)
        self._recompute_available()

    def mark_site_up(self, site: str) -> None:
        """Re-advertise a recovered site."""
        self._unavailable.discard(site)
        self._recompute_available()

    def mark_site_suspect(self, site: str) -> None:
        """Hide a detector-suspected site (observed health, breaker open)."""
        if site not in self.sites:
            raise KeyError(f"unknown site {site!r}")
        self._suspected.add(site)
        self._recompute_available()

    def clear_site_suspect(self, site: str) -> None:
        """Re-advertise a site whose breaker closed again."""
        self._suspected.discard(site)
        self._recompute_available()

    def load(self, site: str) -> int:
        """The paper's load metric: jobs waiting to run at ``site``."""
        if self._stale_marked and site in self._stale_marked:
            entry = self._last_known_load(site)
            if (entry is not None
                    and self.sim.now - entry[1]
                    <= self.policy.query_timeout_s):
                self.stale_load_reads += 1
                return entry[0]
            # The cached record aged out (or never existed): the fallback
            # is exhausted, so read fresh state below.
            self._stale_marked.discard(site)
        if self._snapshot is not None:
            try:
                value = self._snapshot[site]
            except KeyError:
                raise KeyError(f"unknown site {site!r}") from None
        else:
            try:
                value = self.sites[site].load
            except KeyError:
                raise KeyError(f"unknown site {site!r}") from None
        if self.policy.query_timeout_s > 0:
            self._records += 1
            self._last_known[site] = (value, self.sim.now, self._records)
        return value

    def loads(self) -> Dict[str, int]:
        """Load of every *available* site.

        Down sites are excluded even in snapshot mode: the snapshot may
        predate an outage, but "this site is gone" is control-plane truth
        the schedulers must never un-learn from a stale cache.
        """
        if not self._hidden and not self._stale_marked:
            if self._snapshot is not None:
                return dict(self._snapshot)
            return self._take_snapshot()
        return {name: self.load(name) for name in self._available_names}

    def least_loaded(self, candidates: Optional[Iterable[str]] = None,
                     rng: Optional[random.Random] = None) -> str:
        """The least-loaded *available* site among ``candidates``.

        Ties are broken uniformly at random when ``rng`` is given, else by
        site name — random tie-breaking avoids herd behaviour when many
        sites are idle, which matters early in a run.  Candidates marked
        down are dropped even when the load snapshot still lists them.

        A load snapshot serves loads straight off the snapshot dict, and
        the all-sites answer is kept until the snapshot or the available
        sites change.  Under the query-timeout fallback, an all-sites
        answer with no site stale-marked records one all-sites read for
        :meth:`load` to fall back on; candidate subsets, all-sites
        questions while a site is stale-marked, and live loads ask
        :meth:`load` per site.
        """
        if candidates is not None:
            names = sorted(candidates)
            if self._hidden:
                names = [n for n in names if n not in self._hidden]
        else:
            names = self._available_names
        if not names:
            raise ValueError("no candidate sites")
        snapshot = self._snapshot
        timeout = self.policy.query_timeout_s > 0
        if snapshot is None or (timeout and (candidates is not None
                                             or self._stale_marked)):
            # Live loads, or reads that record per-site last-known values.
            best = _tied_at_minimum(names, self.load)
        elif candidates is None:
            if (snapshot is not self._tied_snapshot
                    or names is not self._tied_names):
                self._tied = _tied_at_minimum(names, snapshot.__getitem__)
                self._tied_snapshot = snapshot
                self._tied_names = names
            best = self._tied
            if timeout:
                self._records += 1
                self._read_all = (snapshot, self.sim.now, names,
                                  self._records)
        else:
            try:
                best = _tied_at_minimum(names, snapshot.__getitem__)
            except KeyError as exc:
                raise KeyError(f"unknown site {exc.args[0]!r}") from None
        if rng is not None and len(best) > 1:
            return rng.choice(best)
        return best[0]

    # -- replica queries ---------------------------------------------------------

    def dataset_locations(self, dataset_name: str) -> List[str]:
        """*Available* sites believed to hold a replica of the dataset."""
        if self.replica_view is not None:
            locations = self.replica_view.locations(dataset_name)
        else:
            locations = self.catalog.locations(dataset_name)
        if self._hidden:
            locations = [s for s in locations
                         if s not in self._hidden]
        return locations

    def sites_with_all(self, dataset_names: Iterable[str]) -> List[str]:
        """Available sites believed to hold *all* given datasets."""
        names = list(dataset_names)
        if not names:
            return self.site_names
        source = (self.replica_view if self.replica_view is not None
                  else self.catalog)
        result = set(source.location_set(names[0]))
        for name in names[1:]:
            if not result:
                break
            result &= source.location_set(name)
        if self._hidden:
            result -= self._hidden
        return sorted(result)

    def has_replica(self, dataset_name: str, site: str) -> bool:
        """Whether the service believes ``site`` holds ``dataset_name``."""
        if self.replica_view is not None:
            return self.replica_view.has_replica(dataset_name, site)
        return self.catalog.has_replica(dataset_name, site)

    def replica_count(self, dataset_name: str) -> int:
        """Believed number of replicas of the dataset."""
        if self.replica_view is not None:
            return self.replica_view.replica_count(dataset_name)
        return self.catalog.replica_count(dataset_name)

    def bytes_present_by_site(self, dataset_names: Iterable[str],
                              sizes=None) -> Dict[str, float]:
        """Believed MB of the named datasets present per site."""
        if self.replica_view is not None:
            return self.replica_view.bytes_present_by_site(
                dataset_names, sizes=sizes)
        return self.catalog.bytes_present_by_site(dataset_names, sizes=sizes)


def _tied_at_minimum(names: List[str], load: Callable[[str], int]
                     ) -> List[str]:
    """The names whose load is the smallest, in ``names`` order."""
    best_load: Optional[int] = None
    best: List[str] = []
    for name in names:
        site_load = load(name)
        if best_load is None or site_load < best_load:
            best_load = site_load
            best = [name]
        elif site_load == best_load:
            best.append(name)
    return best
