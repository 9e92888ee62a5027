"""Sensitivity studies: where do the paper's findings degrade?

The paper evaluates every algorithm pair under *perfect* global
information and load the grid can absorb.  Four studies probe past those
assumptions, each a :func:`~repro.experiments.sweep.grid_sweep` over
chosen (ES, DS) pairs:

* **staleness** (:mod:`repro.grid.staleness`) — catalog delay: when does
  ``JobDataPresent``'s data-local advantage stop paying?
* **overload** (:mod:`repro.grid.overload`) — queue capacity × arrival
  rate: where is each pair's saturation knee?
* **recovery** (:mod:`repro.grid.health`) — partition × site MTBF × phi:
  the fastest detector setting whose false alarms stay rare.
* **durability** (:mod:`repro.grid.durability`) — bit-rot MTBF ×
  replication factor × scrub period: the lowest factor losing no data.

This module holds only what each study owns: its default grid, its axes,
its table columns and its picker.  Every picker reads its axis in
ascending order, whatever order the values were listed in.  Each
``*_report`` renders the study's table and one picker line per series.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.sweep import Axis, Column, SweepResult
from repro.faults.plan import FaultPlan, NetworkPartition

#: Default comparison: the paper's decoupled winner vs the traditional
#: compute-only baseline.  Both consult replica state (JobDataPresent for
#: placement, DataLeastLoaded for replication), so both feel the delay;
#: JobLeastLoaded+DataDoNothing barely touches the catalog and acts as
#: the control.
DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("JobDataPresent", "DataLeastLoaded"),
    ("JobLeastLoaded", "DataDoNothing"),
)


def _report(result: SweepResult, title: str, columns: Sequence[Column],
            along: str, line: Callable[..., str]) -> str:
    """The study's table, a blank line, then a picker line per series."""
    return "\n".join(
        [result.table(columns, f"{title} ({len(result.seeds)} seed(s))"),
         ""] + [line(es, ds, at) for es, ds, at in result.slices(along)])


# ---- staleness --------------------------------------------------------------

#: Default delay grid (seconds): live oracle, one DS period, and beyond.
DEFAULT_DELAYS: Tuple[float, ...] = (0.0, 60.0, 300.0, 900.0, 1800.0)


def staleness_axes(delays: Sequence[float] = DEFAULT_DELAYS,
                   ) -> Tuple[Axis, ...]:
    """``catalog_delay_s``; every cell of a row runs the same jobs, so
    only the information quality differs."""
    return (Axis("catalog_delay_s", [float(d) for d in delays]),)


STALENESS_COLUMNS = (
    Column("delay (s)", 10, "catalog_delay_s", "g"),
    Column("response (s)", 14, "avg_response_time_s"),
    Column("misdirected", 12, "misdirected_jobs"),
    Column("bounced", 9, "bounced_jobs"),
    Column("stale reads", 12, "stale_reads"),
)


def degradation(result: SweepResult, es_name: str, ds_name: str) -> float:
    """Response-time ratio of the worst delay to the smallest swept one
    (the live catalog whenever 0 is swept): 1.0 means staleness never
    hurt; 1.4 means the pair lost 40 % of its performance."""
    means = [summary.mean for _, summary in
             result.series("avg_response_time_s", es_name, ds_name)]
    return max(means) / means[0] if means[0] > 0 else 1.0


def staleness_report(result: SweepResult) -> str:
    return _report(
        result, "catalog-staleness sensitivity", STALENESS_COLUMNS,
        "catalog_delay_s", lambda es, ds, at: (
            f"worst-case response-time degradation for {es} + {ds}: "
            f"{100 * (degradation(result, es, ds) - 1):.1f} %"))


# ---- overload ---------------------------------------------------------------

#: Default offered-load grid, jobs/s.  At test scales the low end is
#: comfortably sub-critical and the high end is far past saturation; real
#: studies should pick rates around their configuration's service rate.
DEFAULT_RATES: Tuple[float, ...] = (0.02, 0.05, 0.1, 0.2)

#: Default per-site queue capacities (jobs waiting).
DEFAULT_CAPACITIES: Tuple[int, ...] = (4, 16)


def overload_axes(rates: Sequence[float] = DEFAULT_RATES,
                  capacities: Sequence[int] = DEFAULT_CAPACITIES,
                  ) -> Tuple[Axis, ...]:
    """Queue capacity (0 = unbounded), then the open-loop Poisson arrival
    rate that replaces the paper's closed-loop users.  Other overload
    knobs come from the config."""
    return (Axis("queue_capacity", [int(c) for c in capacities]),
            Axis("arrival_rate_per_s", [float(r) for r in rates]))


OVERLOAD_COLUMNS = (
    Column("rate/s", 8, "arrival_rate_per_s", "g"),
    Column("cap", 5, "queue_capacity", "d"),
    Column("response (s)", 14, "avg_response_time_s"),
    Column("shed", 6, "jobs_shed"),
    Column("expired", 8, "jobs_expired"),
    Column("deflected", 10, "jobs_deflected"),
    Column("peak q", 7, "peak_queue_depth"),
)


def knee(result: SweepResult, es_name: str, ds_name: str,
         at: Dict[str, object], factor: float = 2.0) -> Optional[float]:
    """The saturation knee: the lowest swept arrival rate whose mean
    response time exceeds ``factor`` × the lowest rate's.  ``None`` =
    the pair absorbed every swept rate."""
    series = result.series("avg_response_time_s", es_name, ds_name, at)
    baseline = series[0][1].mean
    if baseline <= 0:
        return None
    return next((rate for rate, response in series
                 if response.mean > factor * baseline), None)


def overload_report(result: SweepResult) -> str:
    def line(es: str, ds: str, at: Dict[str, object]) -> str:
        rate = knee(result, es, ds, at)
        return (f"knee (2x response) for {es} + {ds} at capacity "
                f"{at['queue_capacity']}: "
                + (f"{rate:g} jobs/s" if rate is not None
                   else "not reached"))
    return _report(result, "overload sweep", OVERLOAD_COLUMNS,
                   "arrival_rate_per_s", line)


# ---- recovery ---------------------------------------------------------------

#: Default phi-suspicion thresholds: hair-trigger, default, conservative.
DEFAULT_THRESHOLDS: Tuple[float, ...] = (2.0, 3.0, 6.0)

#: Default site-MTBF grid (seconds).  0 = no random failures, the
#: false-positive control; the rest span frequent to occasional crashes
#: at test scales.
DEFAULT_MTBFS: Tuple[float, ...] = (0.0, 3600.0, 14400.0)


def recovery_axes(thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
                  mtbfs: Sequence[float] = DEFAULT_MTBFS,
                  partitioned: Sequence[bool] = (False, True),
                  partition_start_s: float = 1800.0,
                  partition_duration_s: float = 1800.0,
                  ) -> Tuple[Axis, ...]:
    """Partition, site MTBF, then phi threshold.  A partitioned cell adds
    one canonical partition to the config's own plan: the first quarter
    of the sites (at least one) cut off for ``partition_duration_s`` from
    ``partition_start_s``.  Heartbeats are the config's, else 30 s."""
    def partition(config: SimulationConfig, part: bool) -> SimulationConfig:
        if not part:
            return config
        count = max(1, config.n_sites // 4)
        cut = NetworkPartition(
            sites=tuple(f"site{s:02d}" for s in range(count)),
            start_s=partition_start_s,
            end_s=partition_start_s + partition_duration_s)
        plan = config.fault_plan or FaultPlan()
        return config.with_(
            fault_plan=plan.with_(partitions=plan.partitions + (cut,)))

    def threshold(config: SimulationConfig, phi: float) -> SimulationConfig:
        return config.with_(
            health_phi_threshold=phi,
            health_heartbeat_s=config.health_heartbeat_s or 30.0)

    return (Axis("partition", [bool(p) for p in partitioned], partition),
            Axis("fault_plan.site_mtbf_s", [float(m) for m in mtbfs]),
            Axis("health_phi_threshold", [float(t) for t in thresholds],
                 threshold))


RECOVERY_COLUMNS = (
    Column("phi", 5, "health_phi_threshold", "g"),
    Column("mtbf (s)", 10, "fault_plan.site_mtbf_s", "g"),
    Column("part", 6, "partition", lambda part: "yes" if part else "no"),
    Column("detect (s)", 12, "mean_detection_latency_s"),
    Column("fp rate", 9, "false_positive_rate", ".3f"),
    Column("wasted (s)", 12, "speculative_wasted_s"),
    Column("goodput", 9, "goodput", ".3f"),
)


def safe_threshold(result: SweepResult, es_name: str, ds_name: str,
                   at: Dict[str, object],
                   max_fp_rate: float = 0.05) -> Optional[float]:
    """The lowest swept threshold whose false-positive rate stays at or
    under ``max_fp_rate`` — the fastest detector setting that is not
    crying wolf.  ``None`` = every swept threshold exceeded it."""
    return next((phi for phi, fp in result.series(
        "false_positive_rate", es_name, ds_name, at)
        if fp.mean <= max_fp_rate), None)


def recovery_report(result: SweepResult) -> str:
    def line(es: str, ds: str, at: Dict[str, object]) -> str:
        safe = safe_threshold(result, es, ds, at)
        return (f"lowest safe threshold (fp <= 5%) for {es} + {ds}, "
                f"mtbf {at['fault_plan.site_mtbf_s']:g}, "
                f"partition {'on' if at['partition'] else 'off'}: "
                + (f"{safe:g}" if safe is not None else "none swept"))
    return _report(result, "recovery sweep", RECOVERY_COLUMNS,
                   "health_phi_threshold", line)


# ---- durability -------------------------------------------------------------

#: Default per-site bit-rot MTBF grid (seconds).  0 = no corruption, the
#: baseline control; the rest span occasional to aggressive rot at test
#: scales.
DEFAULT_CORRUPTION_MTBFS: Tuple[float, ...] = (0.0, 14400.0, 3600.0)

#: Default replication-factor grid.  1 = the paper's single primary
#: (repair off: the detection-only baseline); higher factors arm the
#: RepairManager.
DEFAULT_RFS: Tuple[int, ...] = (1, 2)

#: Default scrubber periods (seconds).  0 = on-access detection only.
DEFAULT_SCRUBS: Tuple[float, ...] = (0.0, 600.0)


def durability_axes(mtbfs: Sequence[float] = DEFAULT_CORRUPTION_MTBFS,
                    rfs: Sequence[int] = DEFAULT_RFS,
                    scrubs: Sequence[float] = DEFAULT_SCRUBS,
                    ) -> Tuple[Axis, ...]:
    """Per-site bit-rot MTBF in the config's plan, replication factor
    (factors above 1 arm the RepairManager, 1 is the detection-only
    baseline), then scrub period."""
    def replication(config: SimulationConfig, rf: int) -> SimulationConfig:
        return config.with_(replication_factor=rf, durability_repair=rf > 1)

    return (Axis("fault_plan.corruption_mtbf_s", [float(m) for m in mtbfs]),
            Axis("replication_factor", [int(r) for r in rfs], replication),
            Axis("scrub_interval_s", [float(s) for s in scrubs]))


DURABILITY_COLUMNS = (
    Column("mtbf (s)", 10, "fault_plan.corruption_mtbf_s", "g"),
    Column("rf", 4, "replication_factor", "d"),
    Column("scrub", 7, "scrub_interval_s", "g"),
    Column("corrupt", 9, "replicas_corrupted"),
    Column("repaired", 9, "replicas_repaired"),
    Column("lost", 6, "datasets_lost"),
    Column("abandoned", 10, "jobs_abandoned_data_lost"),
    Column("response (s)", 14, "avg_response_time_s"),
)


def surviving_rf(result: SweepResult, es_name: str, ds_name: str,
                 at: Dict[str, object]) -> Optional[int]:
    """The lowest swept replication factor that lost zero datasets on
    every seed.  ``None`` = every swept factor lost data."""
    return next((rf for rf, lost in result.series(
        "datasets_lost", es_name, ds_name, at) if lost.maximum == 0), None)


def durability_report(result: SweepResult) -> str:
    def line(es: str, ds: str, at: Dict[str, object]) -> str:
        rf = surviving_rf(result, es, ds, at)
        return (f"lowest surviving RF for {es} + {ds}, corruption mtbf "
                f"{at['fault_plan.corruption_mtbf_s']:g}, "
                f"scrub {at['scrub_interval_s']:g}: "
                + (f"{rf}" if rf is not None else "none swept"))
    return _report(result, "durability sweep", DURABILITY_COLUMNS,
                   "replication_factor", line)
