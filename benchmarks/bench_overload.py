"""Micro-benchmarks of the overload-protection hot paths.

Admission control sits on ``DataGrid.submit`` — the one call every job
takes whether the grid is overloaded or not — so its cost is measured
three ways: the no-policy baseline, the policy-on admission scan
(deflect/shed under a saturated grid), and the storage reservation
ledger churned by every transfer.

The numbers accumulate into ``benchmarks/results/overload.json`` and the
top-level ``BENCH_overload.json`` — the committed baseline that
``benchmarks/compare.py`` gates in CI (>10% regression on the admission
path fails the build).
"""

import random

from repro.grid import Dataset, DatasetCollection, DataGrid, Job
from repro.grid.overload import OverloadPolicy
from repro.grid.storage import StorageElement
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLeastLoaded
from repro.sim import Simulator

from common import benchmark_stats, publish_json

_METRICS = {}

N_SUBMITS = 2_000
N_LEDGER_CYCLES = 10_000


def _record(name: str, benchmark, work_items: int) -> None:
    """Fold one benchmark's timing into the overload baseline record."""
    stats = benchmark_stats(benchmark)
    if not stats:  # --benchmark-disable: nothing measured
        return
    _METRICS[f"{name}_mean_s"] = stats["mean_s"]
    _METRICS[f"{name}_min_s"] = stats["min_s"]
    _METRICS[f"{name}_per_s"] = work_items / stats["mean_s"]
    publish_json(
        "overload",
        _METRICS,
        meta={"units": "per_s = work items (submissions/ledger cycles) "
                       "per second of mean wall-clock"},
        higher_is_better=[k for k in _METRICS if k.endswith("_per_s")],
        top_level="BENCH_overload.json",
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
        overload_policy=policy,
    )
    grid.place_initial_replicas({"d0": "site00"})
    return sim, grid


def _submit_storm(policy):
    sim, grid = _make_grid(policy)
    for i in range(N_SUBMITS):
        grid.submit(Job(i, "user", "site00", ["d0"], 1_000.0))
    return grid


def test_submit_baseline(benchmark):
    """The no-policy submit path: the cost every default run pays."""
    grid = benchmark(_submit_storm, None)
    assert len(grid.submitted_jobs) == N_SUBMITS
    _record("submit_baseline", benchmark, work_items=N_SUBMITS)


def test_admission_scan_saturated(benchmark):
    """Admission under saturation: every submit scans, deflects, sheds.

    Queues fill within the first few dozen submissions, so nearly every
    one of the 2000 walks the full deflection scan before shedding —
    the worst-case admission cost.
    """
    policy = OverloadPolicy(queue_capacity=8, deflect_budget=2)
    grid = benchmark(_submit_storm, policy)
    assert len(grid.shed_jobs) > N_SUBMITS // 2
    _record("admission_scan_saturated", benchmark, work_items=N_SUBMITS)


def test_admission_uncontended(benchmark):
    """Admission with headroom: the bound is checked but never binds."""
    policy = OverloadPolicy(queue_capacity=N_SUBMITS + 1)
    grid = benchmark(_submit_storm, policy)
    assert not grid.shed_jobs
    _record("admission_uncontended", benchmark, work_items=N_SUBMITS)


def test_reservation_ledger_churn(benchmark):
    """reserve -> commit -> remove cycles on one storage element."""
    dataset = Dataset("hot", 400.0)

    def run():
        storage = StorageElement("s", 1_000.0)
        for i in range(N_LEDGER_CYCLES):
            assert storage.reserve(dataset, now=float(i))
            storage.commit_reservation(dataset, now=float(i))
            storage.remove("hot")
        return storage

    storage = benchmark(run)
    assert storage.reserved_mb == 0
    _record("reservation_ledger_churn", benchmark,
            work_items=N_LEDGER_CYCLES)
