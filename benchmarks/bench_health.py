"""Micro-benchmarks of the observed failure-detection layer.

The health layer rides along on every simulated run once armed —
heartbeats replayed per site, a detector scan per beat interval, breaker
feedback on every transfer, and (with speculation) a straggler scan per
tick.
Its cost is measured four ways: the health-off baseline every default
run pays (the zero-cost-when-off claim), the same workload with the
detector armed, the same again with speculation on top, and the
per-transfer breaker-feedback path in isolation.

The numbers accumulate into ``benchmarks/results/health.json`` and the
top-level ``BENCH_health.json`` — the committed baseline that
``benchmarks/compare.py`` gates in CI.
"""

import random

from repro.grid import Dataset, DatasetCollection, DataGrid, Job
from repro.grid.health import HealthPolicy
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLeastLoaded
from repro.sim import Simulator

from common import benchmark_stats, publish_json

_METRICS = {}

N_JOBS = 400
N_FEEDBACK_CYCLES = 20_000

DETECTOR = HealthPolicy(heartbeat_interval_s=30.0, phi_threshold=3.0)
SPECULATIVE = HealthPolicy(heartbeat_interval_s=30.0, phi_threshold=3.0,
                           speculate_quantile=0.9,
                           speculate_multiplier=3.0,
                           speculate_check_interval_s=30.0)


def _record(name: str, benchmark, work_items: int) -> None:
    """Fold one benchmark's timing into the health baseline record."""
    stats = benchmark_stats(benchmark)
    if not stats:  # --benchmark-disable: nothing measured
        return
    _METRICS[f"{name}_mean_s"] = stats["mean_s"]
    _METRICS[f"{name}_min_s"] = stats["min_s"]
    _METRICS[f"{name}_per_s"] = work_items / stats["mean_s"]
    publish_json(
        "health",
        _METRICS,
        meta={"units": "per_s = work items (completed jobs/feedback "
                       "cycles) per second of mean wall-clock"},
        higher_is_better=[k for k in _METRICS if k.endswith("_per_s")],
        top_level="BENCH_health.json",
    )


def _make_grid(policy):
    sim = Simulator()
    topology = Topology.star(8, 10.0)
    datasets = DatasetCollection([Dataset("d0", 500)])
    grid = DataGrid.create(
        sim=sim,
        topology=topology,
        datasets=datasets,
        external_scheduler=JobLeastLoaded(random.Random(1)),
        local_scheduler=FIFOLocalScheduler(),
        dataset_scheduler=DataDoNothing(),
        site_processors={name: 2 for name in topology.sites},
        storage_capacity_mb=50_000,
        datamover_rng=random.Random(0),
        health_policy=policy,
        health_rng=random.Random(0) if policy is not None else None,
    )
    # d0 everywhere: every fetch is a local hit, so runtimes stay
    # uniform.  Shared-bandwidth fetches would make genuine stragglers,
    # and the point here is the layer's bookkeeping cost, not its
    # reactions.
    grid.place_initial_replicas({"d0": "site00"})
    d0 = datasets.get("d0")
    for name in topology.sites:
        if name != "site00":
            grid.storages[name].add(d0, 0.0)
            grid.catalog.register("d0", name, size_mb=d0.size_mb)
    return sim, grid


def _run_workload(policy):
    """Complete N_JOBS short uniform jobs on a healthy 8-site grid."""
    sim, grid = _make_grid(policy)
    done = [grid.submit(Job(i, "user", "site00", ["d0"], 50.0))
            for i in range(N_JOBS)]
    sim.run(until=sim.all_of(done))
    return grid


def test_run_baseline(benchmark):
    """Health layer absent: the cost every default run pays."""
    grid = benchmark(_run_workload, None)
    assert grid.health is None
    assert len(grid.completed_jobs) == N_JOBS
    _record("run_baseline", benchmark, work_items=N_JOBS)


def test_run_detector_armed(benchmark):
    """Heartbeats + phi detector on a healthy grid: pure overhead.

    No site ever fails, so every heartbeat, detector scan, and breaker
    lookup is bookkeeping — the steady-state tax the detector charges.
    """
    grid = benchmark(_run_workload, DETECTOR)
    assert grid.health is not None
    assert grid.health.stats.suspicions == 0
    assert len(grid.completed_jobs) == N_JOBS
    _record("run_detector_armed", benchmark, work_items=N_JOBS)


def test_run_speculation_armed(benchmark):
    """Detector plus the straggler scanner; uniform runtimes mean the
    quantile threshold never trips, so the scan cost is isolated."""
    grid = benchmark(_run_workload, SPECULATIVE)
    assert grid.health.stats.speculative_launched == 0
    assert len(grid.completed_jobs) == N_JOBS
    _record("run_speculation_armed", benchmark, work_items=N_JOBS)


def test_breaker_feedback_churn(benchmark):
    """The per-transfer feedback path: failure/success pairs on one
    link, half of them tripping and re-closing the breaker."""
    sim, grid = _make_grid(DETECTOR)
    health = grid.health
    threshold = health.policy.link_failure_threshold

    def run():
        for _ in range(N_FEEDBACK_CYCLES // (threshold + 1)):
            for _ in range(threshold):
                health.record_transfer_failure("site01", "site02")
            health.record_transfer_success("site01", "site02")
        return health

    health = benchmark(run)
    # Every cycle trips and re-closes the breaker; it ends closed.
    assert not health.link_open("site01", "site02")
    assert health.stats.breaker_restores > 0
    _record("breaker_feedback_churn", benchmark,
            work_items=N_FEEDBACK_CYCLES)
