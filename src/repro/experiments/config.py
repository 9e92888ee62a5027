"""Simulation configuration.

:meth:`SimulationConfig.paper` encodes Table 1 of the paper verbatim:

====================================  =========================
Total number of users                 120
Number of sites                       30
Compute elements/site                 2–5
Total number of datasets              200
Connectivity bandwidth                10 MB/s (scenario 1),
                                      100 MB/s (scenario 2)
Size of workload                      6000 jobs
====================================  =========================

plus the §5.1 workload constants (dataset sizes uniform 500 MB–2 GB,
runtime 300 s/GB, single input file, geometric popularity).  Parameters the
paper leaves unstated (storage capacity, replication threshold/period,
geometric ``p``, topology branching) are explicit fields with documented
defaults, so every assumption is visible and sweepable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from repro.faults.plan import FaultPlan

#: Table 1 bandwidth scenarios, MB/s.
SCENARIO_1_BANDWIDTH = 10.0
SCENARIO_2_BANDWIDTH = 100.0


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs for one simulated Data Grid execution."""

    # ---- Table 1 ----------------------------------------------------------
    n_users: int = 120
    n_sites: int = 30
    min_processors_per_site: int = 2
    max_processors_per_site: int = 5
    n_datasets: int = 200
    bandwidth_mbps: float = SCENARIO_1_BANDWIDTH
    n_jobs: int = 6000

    # ---- §5.1 workload constants ------------------------------------------
    min_dataset_mb: float = 500.0
    max_dataset_mb: float = 2000.0
    compute_seconds_per_gb: float = 300.0
    inputs_per_job: int = 1
    #: Output size as a fraction of input size (paper: 0 — "we ignore
    #: output costs"; positive values enable the output-storage extension).
    output_fraction: float = 0.0
    popularity_model: str = "geometric"
    #: Geometric skew.  Unpublished in the paper; 0.05 (hottest dataset gets
    #: ~5% of all requests) reproduces the published orderings, notably the
    #: hotspot overload that makes JobDataPresent worst without replication.
    geometric_p: float = 0.05
    zipf_alpha: float = 1.0

    # ---- Unstated-in-paper modelling knobs ---------------------------------
    #: Per-site storage (MB).  50 GB holds ~40 average datasets — finite, so
    #: LRU matters, but large enough that replication is useful.
    storage_capacity_mb: float = 50_000.0
    #: Topology family: "hierarchical" (paper), "star", "ring", "random".
    topology: str = "hierarchical"
    #: Leaf sites per regional center in the hierarchical topology.
    branching: int = 6
    #: Dataset Scheduler popularity threshold (accesses since last check).
    popularity_threshold: int = 5
    #: Dataset Scheduler loop period (s).
    ds_check_interval_s: float = 300.0
    #: If > 0, the DS also deletes unpinned replicas idle at least this
    #: long (the §3 "delete local files" responsibility; 0 = off, LRU
    #: eviction alone manages space — the paper's setup).
    ds_delete_idle_after_s: float = 0.0
    #: "Neighbors" radius for DataLeastLoaded (hops).  4 reaches every site
    #: in the paper's hierarchical topology, making DataLeastLoaded a
    #: load-aware variant of DataRandom — which is what reproduces the
    #: paper's "no significant difference between the two" finding.
    neighbor_hops: int = 4
    #: Local scheduler name (paper: FIFO).
    local_scheduler: str = "FIFO"
    #: Information-service staleness.  The paper's schedulers consult
    #: MDS/NWS-style services, which serve *cached* values; 300 s of lag
    #: (typical MDS cache TTL of the era) reproduces the mild herding that
    #: keeps JobLeastLoaded from beating JobLocal without replication.
    #: Set to 0 for a perfectly live oracle.
    info_refresh_interval_s: float = 300.0
    #: Replica-catalog propagation delay (s).  0 = schedulers see the
    #: live catalog (the paper's perfect oracle); > 0 routes their
    #: replica queries through a bounded-staleness view that sees
    #: registrations/evictions this many seconds late, enabling
    #: misdirected-job detection and bounce recovery.
    catalog_delay_s: float = 0.0
    #: Info-query timeout fallback (s).  0 = off; > 0 lets a site marked
    #: stale serve its last-known load for up to this long before the
    #: service falls through to a fresh read.
    info_timeout_s: float = 0.0
    #: Runtime invariant watchdog (:mod:`repro.watchdog`).  Off by
    #: default; the checks are read-only, so enabling it never changes a
    #: run's results — it only turns silent conservation bugs into
    #: immediate structured failures.
    watchdog: bool = False
    #: Transfer rate allocator: "equal-share" (paper) or "max-min".
    allocator: str = "equal-share"

    # ---- Fault injection ------------------------------------------------------
    #: Optional fault plan.  ``None`` (a null plan is stored as ``None``)
    #: keeps every code path bitwise-identical to a fault-free build; any
    #: non-null plan installs the :mod:`repro.faults` injector.  Part of
    #: the frozen, hashable config, so faulty runs participate in the
    #: parallel runner's cache keys and stay reproducible at any worker
    #: count.
    fault_plan: Optional[FaultPlan] = None

    # ---- Overload protection ---------------------------------------------------
    #: Per-site waiting-job capacity (0 = unbounded queues, the paper's
    #: model).  A dispatch onto a full queue is deflected, then shed.
    queue_capacity: int = 0
    #: Deflections tolerated per dispatch before a job is shed.
    deflect_budget: int = 1
    #: Queue-wait deadline per job in seconds (0 = none).
    job_deadline_s: float = 0.0
    #: Priority-aging rate for queue-reordering local schedulers (0 = off).
    aging_factor: float = 0.0
    #: Degraded-mode External Scheduler name ("" = least-loaded scan).
    degraded_es: str = ""
    #: Route data-mover transfers through the storage reservation ledger.
    storage_reservations: bool = False
    #: Open-loop Poisson arrival rate, jobs/s (0 = the paper's
    #: closed-loop users).  > 0 replaces sequential per-user submission
    #: with one grid-wide arrival stream at this rate — the offered-load
    #: axis of the overload sweep.
    arrival_rate_per_s: float = 0.0

    # ---- Observed failure detection (health layer) -----------------------------
    #: Heartbeat interval for the failure detector (0 = health layer off
    #: unless speculation is armed).  Sites emit heartbeats this often;
    #: the detector raises suspicion after phi × the mean interval of
    #: silence, opens the site's circuit breaker, and probes until it
    #: can be re-admitted.
    health_heartbeat_s: float = 0.0
    #: Fractional heartbeat jitter in [0, 1) (drawn from the dedicated
    #: "health" stream); nonzero jitter gives the detector a real
    #: false-positive rate to measure.
    health_heartbeat_jitter: float = 0.0
    #: Suspicion threshold: silence / mean-interval ratio that trips the
    #: detector.  Lower = faster detection, more false positives.
    health_phi_threshold: float = 3.0
    #: Base interval between half-open breaker probes (s).
    health_probe_interval_s: float = 30.0
    #: Observed-only mode: cut the oracle channel entirely — outages no
    #: longer mark sites down in the information service; the detector
    #: plus the breakers are the only failure knowledge the schedulers
    #: get.  Requires heartbeats.
    health_observed_only: bool = False
    #: Straggler quantile for speculative backup execution (0 = off).
    #: An attempt older than ``speculate_multiplier`` × this quantile of
    #: completed durations gets one backup clone; first completion wins.
    speculate_quantile: float = 0.0
    #: Straggler threshold multiplier over the quantile duration.
    speculate_multiplier: float = 2.0

    # ---- Data durability --------------------------------------------------------
    #: Target live replicas per dataset (1 = the paper's single pinned
    #: primary).  > 1 requires ``durability_repair``.
    replication_factor: int = 1
    #: Arm the RepairManager: under-replicated datasets are re-copied
    #: through the data mover until the target factor holds (or the
    #: dataset is marked lost).
    durability_repair: bool = False
    #: Background scrubber period in seconds (0 = off).  Each pass
    #: checksum-verifies every resident replica and quarantines corrupt
    #: ones; corruption is otherwise only found on access.
    scrub_interval_s: float = 0.0
    #: Repair placement policy: "closest" (hop count) or "forecast"
    #: (NWS bandwidth prediction over observed transfers).
    repair_placement: str = "closest"

    # ---- DAG workloads ---------------------------------------------------------
    #: Dependency motif wired over each user's job list ("none" = the
    #: paper's independent jobs; "chain", "diamond", "fanout",
    #: "mapreduce" — see :mod:`repro.workload.dag`).  Non-"none" replaces
    #: per-user sequential submission with the dependency-release driver.
    dag_shape: str = "none"
    #: Fan-out / map count for the shapes that have one.
    dag_width: int = 3
    #: Place each released DAG batch group-at-a-time by input-set
    #: signature (DIANA-style bulk scheduling) instead of job-by-job.
    #: Requires a DAG shape.
    bulk_submission: bool = False

    # ---- Replication seed ----------------------------------------------------
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.fault_plan, dict):
            # Cache persistence round-trips configs through plain dicts.
            object.__setattr__(
                self, "fault_plan", FaultPlan.from_json_dict(self.fault_plan))
        if self.fault_plan is not None and self.fault_plan.is_null:
            # A null plan is no plan: one config, one cache key.
            object.__setattr__(self, "fault_plan", None)
        if self.n_users < 1 or self.n_sites < 1 or self.n_datasets < 1:
            raise ValueError("users, sites and datasets must all be >= 1")
        if self.n_jobs < self.n_users:
            raise ValueError(
                f"{self.n_jobs} jobs over {self.n_users} users leaves some "
                "users without a job")
        if not (1 <= self.min_processors_per_site
                <= self.max_processors_per_site):
            raise ValueError("bad processor range")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.storage_capacity_mb <= self.max_dataset_mb:
            raise ValueError(
                "storage must exceed the largest dataset, otherwise no "
                "site can ever cache a remote file")
        if self.catalog_delay_s < 0:
            raise ValueError(
                f"catalog delay must be >= 0, got {self.catalog_delay_s!r}")
        if self.info_timeout_s < 0:
            raise ValueError(
                f"info timeout must be >= 0, got {self.info_timeout_s!r}")
        if self.queue_capacity < 0:
            raise ValueError(
                f"queue capacity must be >= 0, got {self.queue_capacity!r}")
        if self.deflect_budget < 0:
            raise ValueError(
                f"deflect budget must be >= 0, got {self.deflect_budget!r}")
        if self.job_deadline_s < 0:
            raise ValueError(
                f"job deadline must be >= 0, got {self.job_deadline_s!r}")
        if self.aging_factor < 0:
            raise ValueError(
                f"aging factor must be >= 0, got {self.aging_factor!r}")
        if self.arrival_rate_per_s < 0:
            raise ValueError(
                f"arrival rate must be >= 0, "
                f"got {self.arrival_rate_per_s!r}")
        from repro.workload.dag import DAG_SHAPES
        if self.dag_shape not in DAG_SHAPES:
            raise ValueError(
                f"unknown DAG shape {self.dag_shape!r}; expected one of "
                f"{DAG_SHAPES}")
        if self.dag_width < 1:
            raise ValueError(
                f"DAG width must be >= 1, got {self.dag_width!r}")
        if self.bulk_submission and self.dag_shape == "none":
            raise ValueError(
                "bulk submission requires a DAG shape (batches are the "
                "unit of bulk placement)")
        if self.dag_shape != "none" and self.arrival_rate_per_s > 0:
            raise ValueError(
                "DAG workloads are incompatible with open-loop arrivals: "
                "release order is driven by dependencies, not a Poisson "
                "stream")
        # Health-layer knob sanity; the full cross-field validation lives
        # in HealthPolicy.__post_init__ (constructed by build_grid).
        if self.health_heartbeat_s < 0:
            raise ValueError(
                f"heartbeat interval must be >= 0, "
                f"got {self.health_heartbeat_s!r}")
        if self.health_observed_only and self.health_heartbeat_s == 0:
            raise ValueError(
                "observed-only mode needs the heartbeat detector: set "
                "health_heartbeat_s > 0")
        if not 0.0 <= self.speculate_quantile < 1.0:
            raise ValueError(
                f"speculation quantile must be in [0, 1), "
                f"got {self.speculate_quantile!r}")
        if self.speculate_quantile > 0 and self.dag_shape != "none":
            raise ValueError(
                "speculative execution is incompatible with DAG "
                "workloads: dependency release keys on the primary "
                "attempt reaching DONE")
        # Durability knob sanity; cross-field validation lives in
        # DurabilityPolicy.__post_init__ (constructed by build_grid).
        if self.replication_factor < 1:
            raise ValueError(
                f"replication factor must be >= 1, "
                f"got {self.replication_factor!r}")
        if self.replication_factor > 1 and not self.durability_repair:
            raise ValueError(
                "replication_factor > 1 needs the RepairManager: set "
                "durability_repair=True")
        if self.scrub_interval_s < 0:
            raise ValueError(
                f"scrub interval must be >= 0, "
                f"got {self.scrub_interval_s!r}")
        from repro.grid.durability import PLACEMENTS
        if self.repair_placement not in PLACEMENTS:
            raise ValueError(
                f"unknown repair placement {self.repair_placement!r}; "
                f"expected one of {PLACEMENTS}")

    # -- factories -------------------------------------------------------------

    @classmethod
    def paper(cls, bandwidth_mbps: float = SCENARIO_1_BANDWIDTH,
              seed: int = 0) -> "SimulationConfig":
        """The exact Table-1 configuration (scenario chosen by bandwidth)."""
        return cls(bandwidth_mbps=bandwidth_mbps, seed=seed)

    def scaled(self, factor: float) -> "SimulationConfig":
        """A proportionally smaller (or larger) configuration.

        Used by tests and quick benchmarks: user/site/dataset/job counts
        scale together so queueing and popularity effects keep roughly the
        same character.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        n_sites = max(2, round(self.n_sites * factor))
        n_users = max(n_sites, round(self.n_users * factor))
        return dataclasses.replace(
            self,
            n_users=n_users,
            n_sites=n_sites,
            n_datasets=max(10, round(self.n_datasets * factor)),
            n_jobs=max(n_users, round(self.n_jobs * factor)),
        )

    def with_(self, **changes) -> "SimulationConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def table1(self) -> Dict[str, str]:
        """The Table-1 rows, formatted as the paper prints them."""
        return {
            "Total number of users": str(self.n_users),
            "Number of Sites": str(self.n_sites),
            "Compute Elements/Site": (
                f"{self.min_processors_per_site}-"
                f"{self.max_processors_per_site}"),
            "Total number of Datasets": str(self.n_datasets),
            "Connectivity Bandwidth": f"{self.bandwidth_mbps:g} MB/sec",
            "Size of Workload": f"{self.n_jobs} jobs",
        }
