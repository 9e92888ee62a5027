"""Differential tests for incremental equal-share rate allocation.

The transfer manager re-rates only the transfers that share a link with
one that started, finished or was aborted since its last rebalance, and
scans the route of only those whose bottleneck share rose.  These tests
drive random schedules of starts (several at one instant), ties (equal
sizes started together, so they finish in the same instant), aborts of
one or several transfers and capacity changes.  After every kernel event
each active transfer's rate must equal the equal-share rate recounted
over all active transfers, its bottleneck must be a link on its route
whose share is that rate, and each link's running weight must equal the
sum over its attached transfers.  A second test runs the same schedule
against the recounting allocator and requires bitwise-identical outcomes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import EqualShareAllocator, Topology, TransferManager
from repro.sim import Simulator


def recounted_rates(transfers):
    """Two-pass equal share: count every link, then rate every transfer."""
    total_weight = {}
    for t in transfers:
        for link in t.route:
            total_weight[link] = total_weight.get(link, 0.0) + t.weight
    return {
        t: min(link.capacity_mbps * t.weight / total_weight[link]
               for link in t.route)
        for t in transfers
    }


class RecountingEqualShare:
    """The oracle: equal share recomputed over every active transfer."""

    name = "equal-share-recount"
    local = False

    def allocate(self, transfers):
        return recounted_rates(transfers)


TOPOLOGIES = {
    "hierarchical": lambda: Topology.hierarchical(8, 10.0, branching=3),
    "star": lambda: Topology.star(5, 10.0),
    "ring": lambda: Topology.ring(6, 10.0),
    "random_geometric": lambda: Topology.random_geometric(
        7, 10.0, rng=random.Random(3)),
}

starts = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7),   # src, dst index
              st.integers(1, 400),                     # size MB
              st.integers(1, 4)),                      # weight
    min_size=1, max_size=4)
ties = st.tuples(
    st.sampled_from([10, 40, 100]),                    # one size for all
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                       st.integers(1, 4)),
             min_size=2, max_size=6))
actions = st.one_of(
    st.tuples(st.just("start"), starts),
    st.tuples(st.just("tie"), ties),
    st.tuples(st.just("abort"), st.integers(0, 50)),
    st.tuples(st.just("leave"), st.lists(st.integers(0, 50),
                                         min_size=2, max_size=4)),
    st.tuples(st.just("capacity"),
              st.tuples(st.integers(0, 50),
                        st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]))),
)
schedules = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0, 20.0]), actions),
    min_size=1, max_size=25)


def _build(topology, schedule, allocator):
    """A manager driven by ``schedule`` from one process.

    Returns the simulator, the topology, the manager and the list every
    started transfer is appended to.
    """
    sim = Simulator()
    topo = TOPOLOGIES[topology]()
    tm = TransferManager(sim, topo, allocator=allocator)
    sites, links = topo.sites, topo.links
    started = []

    def play():
        for delay, (kind, arg) in schedule:
            if delay:
                yield sim.timeout(delay)
            if kind == "start":
                for src, dst, size, weight in arg:
                    started.append(tm.start(
                        sites[src % len(sites)], sites[dst % len(sites)],
                        size, weight=weight))
            elif kind == "tie":
                size, pairs = arg
                for src, dst, weight in pairs:
                    started.append(tm.start(
                        sites[src % len(sites)], sites[dst % len(sites)],
                        size, weight=weight))
            elif kind == "abort":
                if tm.active:
                    tm.abort(tm.active[arg % len(tm.active)])
            elif kind == "leave":
                for index in arg:
                    if tm.active:
                        tm.abort(tm.active[index % len(tm.active)])
            else:
                index, factor = arg
                link = links[index % len(links)]
                link.capacity_mbps = link.base_capacity_mbps * factor
                tm.rebalance()

    sim.process(play())
    return sim, topo, tm, started


def _assert_consistent(topo, tm):
    expected = recounted_rates(tm.active)
    for t in tm.active:
        assert t.rate == expected[t], (t, t.rate, expected[t])
        link = t.bottleneck
        assert link in t.route, (t, link)
        assert link.capacity_mbps * t.weight / link.active_weight == t.rate
    for link in topo.links:
        assert link.active_weight == sum(t.weight for t in link.active)


@given(topology=st.sampled_from(sorted(TOPOLOGIES)), schedule=schedules)
@settings(max_examples=120, deadline=None)
def test_rates_match_recount_after_every_event(topology, schedule):
    sim, topo, tm, _ = _build(topology, schedule, EqualShareAllocator())
    while sim.peek() != float("inf"):
        sim.step()
        _assert_consistent(topo, tm)
    assert not tm.active
    for link in topo.links:
        assert link.active_weight == 0.0


@given(topology=st.sampled_from(sorted(TOPOLOGIES)), schedule=schedules)
@settings(max_examples=60, deadline=None)
def test_incremental_run_is_bitwise_the_recounted_run(topology, schedule):
    """Same schedule, same float chain: every finish time, aborted
    remainder and link statistic equals the recounting allocator's."""
    runs = []
    for allocator in (EqualShareAllocator(), RecountingEqualShare()):
        sim, topo, tm, started = _build(topology, schedule, allocator)
        sim.run()
        runs.append((
            sim.now, tm.n_aborted,
            [tm.completed.index(t) if t in tm.completed else None
             for t in started],
            [(t.failed, t.finished_at, t.remaining_mb) for t in started],
            [(link.bytes_carried, link.busy_time, link.load_integral)
             for link in topo.links]))
    assert runs[0] == runs[1]


def test_start_rerates_only_transfers_sharing_a_link():
    """A join scans only the new transfer's route.  The share it takes
    from a transfer on the same link lowers that rate without a scan,
    and a transfer on other links keeps its rate."""
    sim = Simulator()
    tm = TransferManager(sim, Topology.ring(6, 10.0))
    calls = []
    allocate = tm.allocator.allocate
    tm.allocator.allocate = lambda ts: calls.append(set(ts)) or allocate(ts)
    a = tm.start("site00", "site01", 100)
    b = tm.start("site03", "site04", 100)
    c = tm.start("site00", "site01", 100)
    assert calls == [{a}, {b}, {c}]
    assert (a.rate, b.rate, c.rate) == (5.0, 10.0, 5.0)
    tm.rebalance()
    assert calls[-1] == {a, b, c}
