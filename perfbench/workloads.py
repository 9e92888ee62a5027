"""The benchmark's four workloads.

Each workload is a Table-1 configuration (``SimulationConfig.paper()``:
120 users, 30 sites, 200 datasets, 6000 jobs) plus the ES×DS pairs one
pass simulates on each of the workload's input seeds.  The seeds are
made from the one given on the command line (:meth:`Workload.input_seeds`);
each replaces the config's seed, so it drives both the generated workload
and every random stream of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.config import SimulationConfig
from repro.faults.plan import FaultPlan


#: Spacing of the input seeds of consecutive ``--seed`` values.
SEED_STRIDE = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: SimulationConfig
    pairs: Tuple[Tuple[str, str], ...]
    #: Generated inputs one pass simulates each pair on.  Run time varies
    #: from input to input, so a pass covers several to keep the figure
    #: of one ``--seed`` close to that of the next.
    inputs: int

    def input_seeds(self, seed: int) -> range:
        """The input seeds of ``seed``.

        They are disjoint for distinct seeds, and every workload's first
        input seed is the same, so workloads sharing a pair (``contended``
        and ``armed``) simulate it on the same first input.
        """
        return range(seed * SEED_STRIDE, seed * SEED_STRIDE + self.inputs)

    def at(self, seed: int, scale: float = 1.0) -> SimulationConfig:
        """The workload's config on ``seed``, optionally scaled down."""
        config = self.config.with_(seed=seed)
        return config if scale == 1.0 else config.scaled(scale)


_CONTENDED = SimulationConfig.paper(bandwidth_mbps=10.0)

#: Every default-off layer except bounded queues, speculative backups and
#: the watchdog; ``overload`` covers queues and the watchdog.  Each left-out
#: layer trips a defect on some seeds.  Faults + speculation + bounded
#: queues break the watchdog's queue-bounded invariant.  Speculation with
#: faults and durability can book one logical job twice (primary abandoned
#: for a lost dataset, backup DONE), and the watchdog's no-double-completion
#: check reports a lost job when a primary's first backup dies and a second
#: backup wins.
_ARMED = _CONTENDED.with_(
    fault_plan=FaultPlan(
        site_mtbf_s=20000.0, site_mttr_s=2000.0, transfer_fail_prob=0.02,
        corruption_mtbf_s=8000.0, job_max_retries=10,
        redispatch_delay_s=10.0),
    health_heartbeat_s=30.0, health_heartbeat_jitter=0.1,
    replication_factor=2, durability_repair=True, scrub_interval_s=600.0,
    catalog_delay_s=60.0, info_timeout_s=60.0, storage_reservations=True,
)

_OVERLOAD = _CONTENDED.with_(
    arrival_rate_per_s=0.08, queue_capacity=8, deflect_budget=2,
    job_deadline_s=4000.0, degraded_es="JobRandom",
    storage_reservations=True, watchdog=True,
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "contended",
        "jobs run away from their data over 10 MB/s links, so many "
        "transfers share each link and the rate allocator is hot",
        _CONTENDED,
        (("JobLeastLoaded", "DataRandom"),
         ("JobLocal", "DataLeastLoaded"),
         ("JobRandom", "DataRandom")),
        inputs=2),
    Workload(
        "data-local",
        "jobs go to their data at 100 MB/s, so the allocator idles and "
        "the lifecycle engine, kernel and site queues dominate",
        SimulationConfig.paper(bandwidth_mbps=100.0),
        (("JobDataPresent", "DataDoNothing"),
         ("JobDataPresent", "DataLeastLoaded")),
        inputs=4),
    Workload(
        "armed",
        "contended's JobLeastLoaded x DataRandom with faults, health, "
        "durability, staleness and storage reservations armed",
        _ARMED,
        (("JobLeastLoaded", "DataRandom"),),
        inputs=5),
    Workload(
        "overload",
        "open-loop arrivals at 0.08 jobs/s into bounded queues, so jobs "
        "are shed, expired and deflected on most submissions",
        _OVERLOAD,
        (("JobLeastLoaded", "DataRandom"),),
        inputs=5),
)}
