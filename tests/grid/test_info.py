"""Unit tests for the information service (live and stale modes)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.grid import InfoPolicy, Job
from repro.grid.catalog import ReplicaCatalog
from repro.grid.info import InformationService
from repro.sim import Simulator


class TestLiveQueries:
    def test_site_names_sorted(self, small_grid):
        _, grid = small_grid
        assert grid.info.site_names == sorted(grid.sites)

    def test_site_names_cached_and_stable(self, small_grid):
        """site_names is computed once at construction, not per query."""
        _, grid = small_grid
        first = grid.info.site_names
        assert grid.info.site_names is first  # no per-call re-sort
        snapshot = list(first)
        for i in range(3):
            grid.submit(Job(job_id=i, user="u", origin_site="site00",
                            input_files=["d0"], runtime_s=10))
        assert grid.info.site_names == snapshot

    def test_load_of_idle_site_zero(self, small_grid):
        _, grid = small_grid
        assert grid.info.load("site00") == 0

    def test_load_counts_waiting_jobs(self, small_grid):
        sim, grid = small_grid
        # 2 processors at site00: the 3rd+ job waits.
        for i in range(5):
            job = Job(job_id=i, user="u", origin_site="site00",
                      input_files=["d0"], runtime_s=100)
            grid.submit(job)
        assert grid.info.load("site00") == 3

    def test_unknown_site_raises(self, small_grid):
        _, grid = small_grid
        with pytest.raises(KeyError):
            grid.info.load("nowhere")

    def test_loads_returns_all(self, small_grid):
        _, grid = small_grid
        loads = grid.info.loads()
        assert set(loads) == set(grid.sites)

    def test_least_loaded_prefers_min(self, small_grid):
        sim, grid = small_grid
        for i in range(4):
            grid.submit(Job(job_id=i, user="u", origin_site="site00",
                            input_files=["d0"], runtime_s=100))
        # site00 now has waiting jobs; others are empty.
        assert grid.info.least_loaded() != "site00"

    def test_least_loaded_deterministic_without_rng(self, small_grid):
        _, grid = small_grid
        assert grid.info.least_loaded() == "site00"  # alphabetical tie-break

    def test_least_loaded_random_tie_break(self, small_grid):
        _, grid = small_grid
        rng = random.Random(0)
        picks = {grid.info.least_loaded(rng=rng) for _ in range(50)}
        assert len(picks) > 1  # ties spread across sites

    def test_least_loaded_candidates_subset(self, small_grid):
        _, grid = small_grid
        assert grid.info.least_loaded(["site02", "site03"]) in (
            "site02", "site03")

    def test_least_loaded_no_candidates_raises(self, small_grid):
        _, grid = small_grid
        with pytest.raises(ValueError):
            grid.info.least_loaded([])

    def test_dataset_locations_delegates_to_catalog(self, small_grid):
        _, grid = small_grid
        assert grid.info.dataset_locations("d0") == ["site00"]

    def test_sites_with_all(self, small_grid):
        _, grid = small_grid
        grid.catalog.register("d0", "site01")
        assert grid.info.sites_with_all(["d0", "d1"]) == ["site01"]
        assert grid.info.sites_with_all([]) == grid.info.site_names


class TestStaleness:
    def test_negative_interval_rejected(self, small_grid):
        sim, grid = small_grid
        with pytest.raises(ValueError):
            InformationService(sim, grid.sites, grid.catalog,
                               policy=InfoPolicy(refresh_interval_s=-1))

    def test_stale_load_lags_reality(self, small_grid):
        sim, grid = small_grid
        info = InformationService(
            sim, grid.sites, grid.catalog,
            policy=InfoPolicy(refresh_interval_s=100.0))
        for i in range(5):
            grid.submit(Job(job_id=i, user="u", origin_site="site00",
                            input_files=["d0"], runtime_s=10_000))
        # Real load is 3, but the snapshot was taken at t=0.
        assert grid.sites["site00"].load == 3
        assert info.load("site00") == 0
        sim.run(until=150)  # refresher fired at t=100
        assert info.load("site00") == 3

    def test_stale_unknown_site_raises(self, small_grid):
        sim, grid = small_grid
        info = InformationService(
            sim, grid.sites, grid.catalog,
            policy=InfoPolicy(refresh_interval_s=100.0))
        with pytest.raises(KeyError):
            info.load("nowhere")


class TestAvailabilityFiltering:
    """Down sites must vanish from every query, even from stale caches.

    Regression tests: ``loads()`` used to return raw snapshot entries
    (including sites already marked down) and ``least_loaded`` with
    explicit candidates never consulted availability at all.
    """

    def test_loads_excludes_down_site_in_snapshot_mode(self, small_grid):
        sim, grid = small_grid
        info = InformationService(
            sim, grid.sites, grid.catalog,
            policy=InfoPolicy(refresh_interval_s=100.0))
        info.mark_site_down("site01")
        loads = info.loads()
        assert "site01" not in loads
        assert set(loads) == {"site00", "site02", "site03"}

    def test_loads_excludes_down_site_in_live_mode(self, small_grid):
        sim, grid = small_grid
        grid.info.mark_site_down("site01")
        assert "site01" not in grid.info.loads()

    def test_least_loaded_skips_down_candidate(self, small_grid):
        sim, grid = small_grid
        info = InformationService(
            sim, grid.sites, grid.catalog,
            policy=InfoPolicy(refresh_interval_s=100.0))
        info.mark_site_down("site00")
        # site00 is the alphabetical tie-winner; down it must lose.
        assert info.least_loaded(["site00", "site02"]) == "site02"

    def test_least_loaded_all_candidates_down_raises(self, small_grid):
        _, grid = small_grid
        grid.info.mark_site_down("site00")
        with pytest.raises(ValueError):
            grid.info.least_loaded(["site00"])

    def test_snapshot_survives_down_up_cycle(self, small_grid):
        """mark_site_down/up with a periodic refresher in play.

        The snapshot may be mid-interval when the outage toggles; the
        availability filter must win while down, and recovery must serve
        the (possibly stale) snapshot value again, not a half-updated
        hybrid.
        """
        sim, grid = small_grid
        info = InformationService(
            sim, grid.sites, grid.catalog,
            policy=InfoPolicy(refresh_interval_s=100.0))
        for i in range(5):
            grid.submit(Job(job_id=i, user="u", origin_site="site00",
                            input_files=["d0"], runtime_s=10_000))
        sim.run(until=150)  # snapshot refreshed at t=100: site00 load 3
        assert info.load("site00") == 3
        info.mark_site_down("site00")
        assert "site00" not in info.loads()
        assert "site00" not in info.site_names
        assert not info.is_available("site00")
        info.mark_site_up("site00")
        assert info.is_available("site00")
        assert info.loads()["site00"] == 3  # snapshot value, not a reset
        assert info.site_names == sorted(grid.sites)

    def test_mark_unknown_site_down_raises(self, small_grid):
        _, grid = small_grid
        with pytest.raises(KeyError):
            grid.info.mark_site_down("nowhere")


class TestQueryTimeoutFallback:
    def make_info(self, sim, grid, timeout_s=50.0, refresh=0.0):
        return InformationService(
            sim, grid.sites, grid.catalog,
            policy=InfoPolicy(refresh_interval_s=refresh,
                              query_timeout_s=timeout_s))

    def test_marked_site_serves_last_known(self, small_grid):
        sim, grid = small_grid
        info = self.make_info(sim, grid)
        assert info.load("site00") == 0  # records last-known
        for i in range(5):
            grid.submit(Job(job_id=i, user="u", origin_site="site00",
                            input_files=["d0"], runtime_s=10_000))
        info.mark_stale("site00")
        assert info.load("site00") == 0  # timed-out query, cached answer
        assert info.stale_load_reads == 1
        assert grid.sites["site00"].load == 3  # reality moved on

    def test_fallback_expires_after_timeout(self, small_grid):
        sim, grid = small_grid
        info = self.make_info(sim, grid, timeout_s=50.0)
        info.load("site00")
        for i in range(5):
            grid.submit(Job(job_id=i, user="u", origin_site="site00",
                            input_files=["d0"], runtime_s=10_000))
        info.mark_stale("site00")
        sim.run(until=60.0)  # cached record is now older than the timeout
        assert info.load("site00") == 3  # fell through to fresh state

    def test_refresh_drops_the_mark(self, small_grid):
        sim, grid = small_grid
        info = self.make_info(sim, grid)
        info.load("site00")
        for i in range(5):
            grid.submit(Job(job_id=i, user="u", origin_site="site00",
                            input_files=["d0"], runtime_s=10_000))
        info.mark_stale("site00")
        info.refresh("site00")
        assert info.load("site00") == 3
        assert info.stale_load_reads == 0

    def test_mark_without_history_reads_fresh(self, small_grid):
        sim, grid = small_grid
        info = self.make_info(sim, grid)
        info.mark_stale("site02")  # no last-known value recorded yet
        assert info.load("site02") == 0
        assert info.stale_load_reads == 0

    def test_mark_is_noop_when_policy_disables_timeout(self, small_grid):
        sim, grid = small_grid
        info = InformationService(sim, grid.sites, grid.catalog)
        info.mark_stale("site00")
        assert info._stale_marked == set()

    def test_mark_unknown_site_raises(self, small_grid):
        sim, grid = small_grid
        info = self.make_info(sim, grid)
        with pytest.raises(KeyError):
            info.mark_stale("nowhere")

    def test_loads_consistent_with_marked_sites(self, small_grid):
        sim, grid = small_grid
        info = self.make_info(sim, grid)
        info.load("site00")
        for i in range(5):
            grid.submit(Job(job_id=i, user="u", origin_site="site00",
                            input_files=["d0"], runtime_s=10_000))
        info.mark_stale("site00")
        loads = info.loads()
        assert loads["site00"] == 0  # served from the cached record
        assert loads["site01"] == 0


class _Site:
    """Just the load the information service reads off a site."""

    def __init__(self) -> None:
        self.load = 0


def scanned_least_loaded(info, candidates, rng):
    """The reference: ask ``load()`` of every available candidate."""
    if candidates is None:
        names = info.site_names
    else:
        names = [name for name in sorted(candidates)
                 if info.is_available(name) and not info.is_suspected(name)]
    if not names:
        raise ValueError("no candidate sites")
    low = min(info.load(name) for name in names)
    best = [name for name in names if info.load(name) == low]
    if rng is not None and len(best) > 1:
        return rng.choice(best)
    return best[0]


SITES = [f"site{i:02d}" for i in range(5)]
site_name = st.sampled_from(SITES)
#: Each step changes one thing, then asks least-loaded of all available
#: sites (``None``) or of a candidate subset, with or without an rng seed.
info_steps = st.lists(st.tuples(
    st.one_of(
        st.tuples(st.just("load"), st.tuples(site_name, st.integers(0, 3))),
        st.tuples(st.just("refresh"), st.none()),
        st.tuples(st.sampled_from(["down", "up", "suspect", "clear"]),
                  site_name)),
    st.none() | st.lists(site_name, unique=True),
    st.none() | st.integers(0, 2 ** 16),
), min_size=1, max_size=30)


@given(steps=info_steps)
@settings(max_examples=150, deadline=None)
def test_snapshot_answer_matches_a_load_scan(steps):
    """Least-loaded from the snapshot equals the per-site ``load()`` scan
    across refreshes, outages, suspicion and candidate subsets, and
    leaves the tie-breaking ``rng`` in the same state."""
    sim = Simulator()
    sites = {name: _Site() for name in SITES}
    info = InformationService(sim, sites, ReplicaCatalog(),
                              policy=InfoPolicy(refresh_interval_s=10.0))
    toggles = {"down": info.mark_site_down, "up": info.mark_site_up,
               "suspect": info.mark_site_suspect,
               "clear": info.clear_site_suspect}
    sim.run(until=0.5)
    for (kind, arg), candidates, seed in steps:
        if kind == "load":
            name, value = arg
            sites[name].load = value  # visible only after a refresh
        elif kind == "refresh":
            sim.run(until=sim.now + 10.0)
        else:
            toggles[kind](arg)
        answers = []
        for least_loaded in (info.least_loaded, (
                lambda c, rng: scanned_least_loaded(info, c, rng))):
            rng = None if seed is None else random.Random(seed)
            try:
                site = least_loaded(candidates, rng=rng)
            except ValueError:
                site = None
            answers.append((site, None if rng is None else rng.getstate()))
        assert answers[0] == answers[1]


class RecordingInfo(InformationService):
    """The reference for the query-timeout fallback: every load read,
    each site of an all-sites scan included, records that site's
    last-known value, and least-loaded always scans ``load()``."""

    def load(self, site):
        if self._stale_marked and site in self._stale_marked:
            entry = self._last_known.get(site)
            if (entry is not None and self.sim.now - entry[1]
                    <= self.policy.query_timeout_s):
                self.stale_load_reads += 1
                return entry[0]
            self._stale_marked.discard(site)
        value = self._snapshot[site]
        self._last_known[site] = (value, self.sim.now)
        return value

    def refresh(self, site):
        self._stale_marked.discard(site)
        self._last_known.pop(site, None)

    def least_loaded(self, candidates=None, rng=None):
        if candidates is None:
            names = self.site_names
        else:
            names = [name for name in sorted(candidates)
                     if name not in self._hidden]
        if not names:
            raise ValueError("no candidate sites")
        best, low = [], None
        for name in names:
            value = self.load(name)
            if low is None or value < low:
                low, best = value, [name]
            elif value == low:
                best.append(name)
        if rng is not None and len(best) > 1:
            return rng.choice(best)
        return best[0]


#: Each step changes one thing (a site's real load, the clock, the
#: snapshot, a stale mark, a refresh, an outage) or asks one query:
#: least-loaded of all available sites or of a subset, ``load()`` of one
#: site, or ``loads()``.
timeout_steps = st.lists(st.one_of(
    st.tuples(st.just("load"), st.tuples(site_name, st.integers(0, 3))),
    st.tuples(st.just("wait"), st.sampled_from([1.0, 10.0, 30.0, 70.0])),
    st.tuples(st.just("resnap"), st.none()),
    st.tuples(st.sampled_from(["mark", "refresh", "down", "up", "read"]),
              site_name),
    st.tuples(st.just("ask"), st.tuples(
        st.none() | st.lists(site_name, unique=True),
        st.none() | st.integers(0, 2 ** 16))),
    st.tuples(st.just("loads"), st.none()),
), min_size=1, max_size=60)


@given(steps=timeout_steps)
# A refresh forgets an older all-sites read too.
@example(steps=[("ask", (None, None)), ("refresh", "site01"),
                ("mark", "site01"), ("read", "site01")])
# Reads at one instant, on either side of a snapshot refresh: the later
# read is the last-known one, whichever kind it is.
@example(steps=[("read", "site01"), ("load", ("site01", 3)),
                ("resnap", None), ("ask", (None, None)),
                ("mark", "site01"), ("read", "site01")])
@example(steps=[("ask", (None, None)), ("load", ("site01", 3)),
                ("resnap", None), ("read", "site01"),
                ("mark", "site01"), ("read", "site01")])
@settings(max_examples=200, deadline=None)
def test_timeout_fallback_matches_a_recording_scan(steps):
    """Under a query timeout, the all-sites answer off the snapshot (one
    recorded read in place of one per site) serves ``load()``,
    ``loads()`` and ``stale_load_reads`` exactly as a service that
    records every per-site read, across snapshot refreshes (also at the
    instant of a read), stale marks, refreshes, ageing past the timeout,
    outages and candidate subsets."""
    sim = Simulator()
    sites = {name: _Site() for name in SITES}
    policy = InfoPolicy(refresh_interval_s=20.0, query_timeout_s=50.0)
    services = [cls(sim, sites, ReplicaCatalog(), policy=policy)
                for cls in (InformationService, RecordingInfo)]
    sim.run(until=0.5)
    for kind, arg in steps:
        if kind == "load":
            name, value = arg
            sites[name].load = value  # visible only after a refresh
        elif kind == "wait":
            sim.run(until=sim.now + arg)
        answers = []
        for info in services:
            if kind == "resnap":
                # What the refresher does, at the current instant.
                info._snapshot = info._take_snapshot()
            elif kind == "mark":
                info.mark_stale(arg)
            elif kind == "refresh":
                info.refresh(arg)
            elif kind == "down":
                info.mark_site_down(arg)
            elif kind == "up":
                info.mark_site_up(arg)
            elif kind == "read":
                answers.append(info.load(arg))
            elif kind == "loads":
                answers.append(info.loads())
            elif kind == "ask":
                candidates, seed = arg
                rng = None if seed is None else random.Random(seed)
                try:
                    site = info.least_loaded(candidates, rng=rng)
                except ValueError:
                    site = None
                answers.append(
                    (site, None if rng is None else rng.getstate()))
            answers.append(info.stale_load_reads)
        assert answers[:len(answers) // 2] == answers[len(answers) // 2:]
