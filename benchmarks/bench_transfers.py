"""Micro-benchmarks of the network transfer engine under contention.

Publishes ``BENCH_transfers.json`` (mean and best round per scenario, and
transfers per second of mean wall time); the nightly gate compares a
fresh run against it.
"""

from repro.network import MaxMinFairAllocator, Topology, TransferManager
from repro.sim import Simulator

from common import benchmark_stats, publish_json

_METRICS = {}


def _record(name, benchmark, transfers):
    """Fold one scenario's timing into the transfers record."""
    stats = benchmark_stats(benchmark)
    if not stats:
        return
    _METRICS[f"{name}_mean_s"] = stats["mean_s"]
    _METRICS[f"{name}_min_s"] = stats["min_s"]
    _METRICS[f"{name}_transfers_per_s"] = transfers / stats["mean_s"]
    publish_json(
        "transfers", _METRICS,
        meta={"units": "transfers_per_s = completed transfers per second "
                       "of mean wall-clock"},
        higher_is_better=[k for k in _METRICS
                          if k.endswith("_transfers_per_s")],
        top_level="BENCH_transfers.json")


def _churn(allocator=None, n=300):
    sim = Simulator()
    topo = Topology.hierarchical(30, 10.0)
    tm = TransferManager(sim, topo, allocator=allocator)
    sites = topo.sites

    def starter(i):
        yield sim.timeout(i * 0.5)
        tm.start(sites[i % 30], sites[(i * 7 + 1) % 30], 50 + i % 200)

    for i in range(n):
        sim.process(starter(i))
    sim.run()
    return len(tm.completed)


def test_transfer_churn_equal_share(benchmark):
    """300 staggered transfers over the paper topology (equal share)."""
    assert benchmark(_churn) == 300
    _record("churn_equal_share", benchmark, transfers=300)


def test_transfer_churn_maxmin(benchmark):
    """Same churn under progressive-filling max-min fairness."""
    assert benchmark(_churn, MaxMinFairAllocator()) == 300
    _record("churn_maxmin", benchmark, transfers=300)


def test_rebalance_storm(benchmark):
    """Worst case: many transfers sharing one bottleneck link, so every
    completion rebalances every other transfer."""

    def run():
        sim = Simulator()
        topo = Topology.star(3, 10.0)
        tm = TransferManager(sim, topo)
        for i in range(200):
            tm.start("site00", "site01", 10 + i)  # all distinct finishes
        sim.run()
        return len(tm.completed)

    assert benchmark(run) == 200
    _record("rebalance_storm", benchmark, transfers=200)
