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
defaults, so every assumption is visible and sweepable.  A :func:`knob`
field is also a CLI flag; layer knobs are checked by the layer's policy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.grid.durability import PLACEMENTS, DurabilityPolicy
from repro.grid.health import HealthPolicy
from repro.grid.overload import OverloadPolicy
from repro.grid.staleness import InfoPolicy
from repro.scheduling.registry import ALL_LS, ES_NAMES
from repro.workload.dag import DAG_SHAPES
from repro.workload.popularity import POPULARITY_MODELS

#: Table 1 bandwidth scenarios, MB/s.
SCENARIO_1_BANDWIDTH = 10.0
SCENARIO_2_BANDWIDTH = 100.0

#: Topology families (paper: hierarchical).
TOPOLOGIES = ("hierarchical", "star", "ring", "random")
#: Transfer rate allocators (paper: equal-share).
ALLOCATORS = ("equal-share", "max-min")


def knob(default: Any, flag: str, help: Optional[str] = None, *,
         group: str = "config", metavar: Optional[str] = None,
         choices: Optional[Sequence[str]] = None) -> Any:
    """A field the CLI exposes as ``flag`` in its ``group`` of options.

    A bool flag takes ``on``/``off``; any other parses as the type of
    ``default``.  ``choices`` is also the set the config accepts.
    """
    return dataclasses.field(default=default, metadata={
        "flag": flag, "help": help, "group": group, "metavar": metavar,
        "choices": choices})


def _one_of(what: str, value: str, names: Sequence[str]) -> None:
    if value not in names:
        raise ValueError(
            f"unknown {what} {value!r}; expected one of {tuple(names)}")


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs for one simulated Data Grid execution."""

    # ---- Table 1 ----------------------------------------------------------
    n_users: int = knob(120, "--users", "number of users")
    n_sites: int = knob(30, "--sites", "number of sites")
    min_processors_per_site: int = 2
    max_processors_per_site: int = 5
    n_datasets: int = knob(200, "--datasets", "number of datasets")
    bandwidth_mbps: float = knob(SCENARIO_1_BANDWIDTH, "--bandwidth",
                                 "link bandwidth in MB/s", metavar="MBPS")
    n_jobs: int = knob(6000, "--n-jobs",
                       "total number of jobs in the workload")

    # ---- §5.1 workload constants ------------------------------------------
    min_dataset_mb: float = 500.0
    max_dataset_mb: float = 2000.0
    compute_seconds_per_gb: float = 300.0
    inputs_per_job: int = knob(1, "--inputs-per-job")
    #: Paper: 0 — "we ignore output costs"; positive values enable the
    #: output-storage extension.
    output_fraction: float = knob(
        0.0, "--output-fraction", "output size as a fraction of input size")
    popularity_model: str = knob("geometric", "--popularity",
                                 choices=POPULARITY_MODELS)
    #: Unpublished in the paper; 0.05 (hottest dataset gets ~5% of all
    #: requests) reproduces the published orderings, notably the hotspot
    #: overload that makes JobDataPresent worst without replication.
    geometric_p: float = knob(0.05, "--geometric-p",
                              "geometric popularity skew")
    zipf_alpha: float = 1.0

    # ---- Unstated-in-paper modelling knobs ---------------------------------
    #: Per-site storage (MB; the CLI's ``--storage-gb``).  50 GB holds ~40
    #: average datasets — finite, so LRU matters, but large enough that
    #: replication is useful.
    storage_capacity_mb: float = 50_000.0
    topology: str = knob("hierarchical", "--topology", choices=TOPOLOGIES)
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
    #: Local scheduler name (paper: FIFO; see ``ALL_LS``).
    local_scheduler: str = "FIFO"
    #: The paper's schedulers consult MDS/NWS-style services, which serve
    #: *cached* values; 300 s of lag (typical MDS cache TTL of the era)
    #: reproduces the mild herding that keeps JobLeastLoaded from beating
    #: JobLocal without replication.
    info_refresh_interval_s: float = knob(
        300.0, "--info-refresh", "information-service staleness (0 = live)",
        metavar="SECONDS")
    #: > 0 routes scheduler replica queries through a bounded-staleness
    #: view, enabling misdirected-job detection and bounce recovery.
    catalog_delay_s: float = knob(
        0.0, "--catalog-delay",
        "replica-catalog propagation delay (0 = live catalog)",
        metavar="SECONDS")
    #: Only sites marked through ``InformationService.mark_stale`` read
    #: last-known loads, and no simulated mechanism marks one, so today
    #: this knob changes no output of any run.
    info_timeout_s: float = knob(
        0.0, "--info-timeout", "serve last-known loads for sites marked "
        "stale (InformationService.mark_stale) up to this long (0 = off); "
        "no simulated mechanism marks a site, so this changes no output "
        "today", metavar="SECONDS")
    #: The checks are read-only, so enabling the watchdog never changes a
    #: run's results — it only turns silent conservation bugs into
    #: immediate structured failures.
    watchdog: bool = knob(
        False, "--watchdog",
        "runtime invariant watchdog (read-only checks; default off)")
    allocator: str = knob("equal-share", "--allocator", choices=ALLOCATORS)

    # ---- Fault injection ------------------------------------------------------
    #: Optional fault plan.  ``None`` (a null plan is stored as ``None``)
    #: keeps every code path bitwise-identical to a fault-free build; any
    #: non-null plan installs the :mod:`repro.faults` injector.  Part of
    #: the frozen, hashable config, so faulty runs participate in the
    #: parallel runner's cache keys and stay reproducible at any worker
    #: count.
    fault_plan: Optional[FaultPlan] = None

    # ---- Overload protection ---------------------------------------------------
    queue_capacity: int = knob(
        0, "--queue-capacity", "per-site waiting-job bound (0 = unbounded); "
        "dispatches onto a full queue deflect, then shed",
        group="overload", metavar="JOBS")
    deflect_budget: int = knob(
        1, "--deflect-budget", "deflections tolerated per dispatch before a "
        "job is shed (default 1)", group="overload", metavar="N")
    job_deadline_s: float = knob(
        0.0, "--job-deadline", "queue-wait deadline per job (0 = none); "
        "expired jobs leave the queue counted, never run",
        group="overload", metavar="SECONDS")
    aging_factor: float = knob(
        0.0, "--aging-factor", "priority-aging rate for queue-reordering "
        "local schedulers (0 = off)", group="overload", metavar="RATE")
    degraded_es: str = knob(
        "", "--degraded-es", "External Scheduler used for deflection "
        "targets (default: least-loaded scan)",
        group="overload", metavar="ES")
    storage_reservations: bool = knob(
        False, "--storage-reservations", "route transfers through the "
        "storage reservation ledger (no overcommit)", group="overload")
    arrival_rate_per_s: float = knob(
        0.0, "--arrival-rate", "open-loop Poisson arrival rate replacing "
        "the closed-loop users (0 = closed loop)",
        group="overload", metavar="JOBS_PER_S")

    # ---- Observed failure detection (health layer) -----------------------------
    #: 0 leaves the health layer off unless speculation is armed.
    health_heartbeat_s: float = knob(
        0.0, "--heartbeat", "heartbeat interval; > 0 installs the observed "
        "failure detector (0 = off)", group="health", metavar="SECONDS")
    #: Drawn from the dedicated "health" stream; nonzero jitter gives the
    #: detector a real false-positive rate to measure.
    health_heartbeat_jitter: float = knob(
        0.0, "--heartbeat-jitter", "uniform jitter fraction on heartbeat "
        "spacing, in [0, 1)", group="health", metavar="FRACTION")
    #: Lower = faster detection, more false positives.
    health_phi_threshold: float = knob(
        3.0, "--phi-threshold", "suspect a site when the silence exceeds "
        "this multiple of its mean heartbeat spacing (default 3)",
        group="health", metavar="PHI")
    health_probe_interval_s: float = knob(
        30.0, "--probe-interval", "base delay between recovery probes of a "
        "tripped site (default 30)", group="health", metavar="SECONDS")
    #: Requires heartbeats.
    health_observed_only: bool = knob(
        False, "--observed-only", "cut the oracle channel: schedulers learn "
        "of failures only through heartbeats and dispatch errors",
        group="health")
    #: An attempt older than ``speculate_multiplier`` × this quantile of
    #: completed durations gets one backup clone; first completion wins.
    speculate_quantile: float = knob(
        0.0, "--speculate-quantile", "straggler quantile in [0, 1); > 0 "
        "enables speculative backup execution (0 = off)",
        group="health", metavar="Q")
    speculate_multiplier: float = knob(
        2.0, "--speculate-multiplier", "a job is a straggler once it runs "
        "this multiple of the quantile duration (default 2)",
        group="health", metavar="X")

    # ---- Data durability --------------------------------------------------------
    #: 1 = the paper's single pinned primary.
    replication_factor: int = knob(
        1, "--replication-factor", "target live replicas per dataset (> 1 "
        "needs --repair on; default 1)", group="durability", metavar="N")
    #: Arms the RepairManager; a dataset it cannot restore is marked lost.
    durability_repair: bool = knob(
        False, "--repair", "re-replicate datasets that fall below the "
        "target factor", group="durability")
    scrub_interval_s: float = knob(
        0.0, "--scrub-interval", "background checksum-scrubber period (0 = "
        "detect on access only)", group="durability", metavar="SECONDS")
    #: "closest" (hop count) or "forecast" (NWS bandwidth prediction over
    #: observed transfers).
    repair_placement: str = knob(
        "closest", "--repair-placement", "repair source/destination policy "
        "(default closest)", group="durability", choices=PLACEMENTS)

    # ---- DAG workloads ---------------------------------------------------------
    #: "none" is the paper's independent jobs; see :mod:`repro.workload.dag`.
    dag_shape: str = knob(
        "none", "--dag-shape", "wire each user's jobs into dependency "
        "motifs; jobs are released as their parents complete",
        group="dag", choices=DAG_SHAPES)
    dag_width: int = knob(
        3, "--dag-width", "fan-out / map count for shapes that have one "
        "(default 3)", group="dag", metavar="N")
    #: DIANA-style bulk scheduling.
    bulk_submission: bool = knob(
        False, "--bulk", "place each released batch group-at-a-time by "
        "input-set signature (needs a DAG shape)", group="dag")

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
        _one_of("topology", self.topology, TOPOLOGIES)
        _one_of("popularity model", self.popularity_model, POPULARITY_MODELS)
        _one_of("allocator", self.allocator, ALLOCATORS)
        _one_of("local scheduler", self.local_scheduler, ALL_LS)
        if self.degraded_es:
            _one_of("degraded External Scheduler", self.degraded_es,
                    ES_NAMES)
        # Each layer's own checks live in its policy; building all four
        # here fails a bad value before any run is set up.
        self.info_policy()
        self.overload_policy()
        self.health_policy()
        self.durability_policy()
        if self.arrival_rate_per_s < 0:
            raise ValueError(
                f"arrival rate must be >= 0, "
                f"got {self.arrival_rate_per_s!r}")
        _one_of("DAG shape", self.dag_shape, DAG_SHAPES)
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
        if self.speculate_quantile > 0 and self.dag_shape != "none":
            raise ValueError(
                "speculative execution is incompatible with DAG "
                "workloads: dependency release keys on the primary "
                "attempt reaching DONE")

    # -- layer policies ----------------------------------------------------------
    # Each returns None when its layer is off, so build_grid leaves the
    # layer out and draws none of its random streams.

    def info_policy(self) -> Optional[InfoPolicy]:
        """The information-quality policy (None = every query live)."""
        policy = InfoPolicy(refresh_interval_s=self.info_refresh_interval_s,
                            catalog_delay_s=self.catalog_delay_s,
                            query_timeout_s=self.info_timeout_s)
        return None if policy.is_live else policy

    def overload_policy(self) -> Optional[OverloadPolicy]:
        """The saturation-protection policy (None = the paper's model)."""
        policy = OverloadPolicy(
            queue_capacity=self.queue_capacity,
            deflect_budget=self.deflect_budget,
            job_deadline_s=self.job_deadline_s,
            aging_factor=self.aging_factor,
            degraded_es=self.degraded_es,
            storage_reservations=self.storage_reservations)
        return None if policy.is_null else policy

    def health_policy(self) -> Optional[HealthPolicy]:
        """The observed-health policy (None = the paper's oracle)."""
        policy = HealthPolicy(
            heartbeat_interval_s=self.health_heartbeat_s,
            heartbeat_jitter=self.health_heartbeat_jitter,
            phi_threshold=self.health_phi_threshold,
            probe_interval_s=self.health_probe_interval_s,
            probe_backoff_cap_s=max(240.0, self.health_probe_interval_s),
            observed_only=self.health_observed_only,
            speculate_quantile=self.speculate_quantile,
            speculate_multiplier=self.speculate_multiplier)
        return None if policy.is_null else policy

    def durability_policy(self) -> Optional[DurabilityPolicy]:
        """The durability policy (None = nothing armed)."""
        policy = DurabilityPolicy(
            replication_factor=self.replication_factor,
            repair=self.durability_repair,
            scrub_interval_s=self.scrub_interval_s,
            placement=self.repair_placement)
        return None if policy.is_null else policy

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
