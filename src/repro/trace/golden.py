"""Golden-trace digests: lock in behaviour, not just metrics.

A golden trace is the full domain-event stream of a canonical small
workload under one (ES, DS) algorithm pair, reduced to a stable digest:
the SHA-256 of the canonical JSONL bytes (see :mod:`repro.trace.jsonl`),
with :data:`~repro.trace.schema.SCHEMA_VERSION` mixed in.  Any behavioural
drift — a scheduler picking a different site, a transfer starting one
event earlier, a replication triggering at a different count — changes the
digest, so regressions fail a test instead of silently shifting averages.

Because a digest alone cannot say *where* two traces diverged, each golden
entry also stores rolling digests every :data:`CHECKPOINT_EVERY` records.
On mismatch, :func:`describe_divergence` reports the first diverging
window and prints the current records inside it — a readable
first-divergence diff without committing megabytes of trace text.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceRecord
from repro.trace.jsonl import dumps_record
from repro.trace.schema import SCHEMA_VERSION

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import SimulationConfig

#: Rolling-digest interval (records).  Small enough to localize a
#: divergence to a readable window, large enough to keep golden files tiny.
CHECKPOINT_EVERY = 64


def trace_digest(records: Sequence[TraceRecord]) -> str:
    """Stable SHA-256 over the canonical serialization of a trace."""
    return fingerprint(records)["digest"]


def fingerprint(records: Sequence[TraceRecord]) -> Dict[str, Any]:
    """Digest + rolling checkpoints for one trace.

    Returns ``{"schema": v, "count": n, "digest": hex,
    "checkpoints": [hex, ...]}`` where ``checkpoints[i]`` is the digest of
    the first ``(i + 1) * CHECKPOINT_EVERY`` records.
    """
    hasher = hashlib.sha256(f"trace-schema-v{SCHEMA_VERSION}\n".encode())
    checkpoints: List[str] = []
    count = 0
    for record in records:
        hasher.update(dumps_record(record).encode("utf-8"))
        hasher.update(b"\n")
        count += 1
        if count % CHECKPOINT_EVERY == 0:
            checkpoints.append(hasher.hexdigest())
    return {
        "schema": SCHEMA_VERSION,
        "count": count,
        "digest": hasher.hexdigest(),
        "checkpoints": checkpoints,
    }


def first_divergence(expected: Dict[str, Any],
                     records: Sequence[TraceRecord]
                     ) -> Optional[Tuple[int, int]]:
    """The first record window where ``records`` leaves the golden trace.

    Returns ``(start, end)`` record indices of the diverging window, or
    ``None`` if the trace matches the expected fingerprint exactly.
    """
    actual = fingerprint(records)
    if actual["digest"] == expected["digest"] \
            and actual["count"] == expected["count"]:
        return None
    exp_cp = expected.get("checkpoints", [])
    act_cp = actual["checkpoints"]
    for i, (exp, act) in enumerate(zip(exp_cp, act_cp)):
        if exp != act:
            return (i * CHECKPOINT_EVERY, (i + 1) * CHECKPOINT_EVERY)
    # All shared checkpoints agree: the divergence is in the tail (or the
    # traces differ only in length).
    agreed = min(len(exp_cp), len(act_cp)) * CHECKPOINT_EVERY
    return (agreed, max(actual["count"], expected["count"]))


def describe_divergence(expected: Dict[str, Any],
                        records: Sequence[TraceRecord],
                        max_lines: int = 12) -> str:
    """Human-readable first-divergence report for a failed golden check."""
    window = first_divergence(expected, records)
    if window is None:
        return "traces match"
    start, end = window
    actual = fingerprint(records)
    lines = [
        f"trace diverges from golden in records [{start}, {end}) "
        f"(golden: {expected['count']} records, digest "
        f"{expected['digest'][:12]}…; actual: {actual['count']} records, "
        f"digest {actual['digest'][:12]}…)",
        "current records at the divergence window:",
    ]
    shown = records[start:min(end, start + max_lines)]
    if not shown:
        lines.append("  (trace ends before this window — records missing)")
    for offset, record in enumerate(shown):
        lines.append(f"  #{start + offset}: {record}")
    if end - start > len(shown) and shown:
        lines.append(f"  … {end - start - len(shown)} more in window")
    lines.append(
        "if this change is intentional, regenerate with: "
        "pytest tests/trace/test_golden.py --regen-golden")
    return "\n".join(lines)


def golden_config():
    """The canonical 50-job workload every golden trace runs.

    Small enough that all 12 ES × DS combinations run in seconds, but
    configured (low popularity threshold, short DS period) so replication,
    cache reuse, and contention all actually occur and are locked in.
    """
    from repro.experiments.config import SimulationConfig

    return SimulationConfig(
        n_users=10,
        n_sites=6,
        n_datasets=24,
        n_jobs=50,
        bandwidth_mbps=10.0,
        storage_capacity_mb=20_000.0,
        popularity_threshold=2,
        ds_check_interval_s=120.0,
        seed=0,
    )


def health_golden_configs() -> Dict[str, Tuple["SimulationConfig", str, str]]:
    """Six-site health configs, each with its (ES, DS) pair.

    They lock the observed failure detector's event order on top of the
    canonical workload.  ``lattice`` and ``lattice-probe`` use 20 s beats
    with no jitter, and start and end every fault window on that beat
    lattice, so beats, detector ticks, probes and fault steps land on
    the same instants and the kernel's FIFO order decides which runs
    first.  One outage lasts exactly one beat interval.  ``jittered``
    arms beat jitter, MTBF churn, a flapping site, observed-only
    detection and the query-timeout fallback.
    """
    from repro.faults.plan import (
        FaultPlan,
        NetworkPartition,
        OutageGroup,
        SiteOutage,
    )

    base = golden_config().with_(health_heartbeat_s=20.0)
    lattice = FaultPlan(
        site_outages=(SiteOutage("site01", 100.0, 200.0),
                      SiteOutage("site05", 140.0, 160.0)),
        partitions=(NetworkPartition(("site02",), 240.0, 400.0),),
        outage_groups=(OutageGroup(("site03", "site04"), 300.0, 460.0),),
    )
    churn = FaultPlan(site_mtbf_s=1500.0, site_mttr_s=300.0,
                      flap_sites=("site05",), flap_mtbf_s=400.0,
                      flap_mttr_s=60.0)
    return {
        "lattice": (base.with_(fault_plan=lattice),
                    "JobLeastLoaded", "DataRandom"),
        "lattice-probe": (base.with_(fault_plan=lattice,
                                     health_probe_interval_s=20.0,
                                     health_observed_only=True),
                          "JobDataPresent", "DataLeastLoaded"),
        "jittered": (base.with_(fault_plan=churn,
                                health_heartbeat_jitter=0.1,
                                health_observed_only=True,
                                info_timeout_s=60.0),
                     "JobLeastLoaded", "DataRandom"),
    }


def site_golden_configs() -> Dict[str, Tuple["SimulationConfig", str, str]]:
    """Canonical-workload configs for the site execution engine, each with
    its (ES, DS) pair.

    They lock both ways a site hands out processors and every way out of
    an execution.  The ``dispatch*`` entries run the data-aware local
    scheduler (pending claims granted by ``ls.pick``): plain, under
    JobDataPresent, with a queue deadline most jobs miss while pending,
    and under two site outages with outputs.  ``sjf-aging`` runs the
    priority queue with aging and a deadline.  ``speculate`` and
    ``speculate-faults`` preempt backup losers (the latter with outages
    and queue expiries too), and ``reservations`` degrades a pinned fetch
    into a too-pinned element to a remote read and drops outputs.
    """
    from repro.faults.plan import FaultPlan, SiteOutage

    base = golden_config()
    dispatch = base.with_(local_scheduler="FIFO-DataAware")
    outages = FaultPlan(site_outages=(SiteOutage("site01", 100.0, 400.0),
                                      SiteOutage("site03", 250.0, 900.0)))
    speculate = base.with_(speculate_quantile=0.5, speculate_multiplier=1.0)
    return {
        "dispatch": (dispatch, "JobLeastLoaded", "DataRandom"),
        "dispatch-present": (dispatch, "JobDataPresent", "DataLeastLoaded"),
        "dispatch-deadline": (dispatch.with_(job_deadline_s=60.0),
                              "JobLeastLoaded", "DataRandom"),
        "dispatch-faults": (dispatch.with_(fault_plan=outages,
                                           output_fraction=0.2),
                            "JobRandom", "DataRandom"),
        "sjf-aging": (base.with_(local_scheduler="SJF", aging_factor=0.5,
                                 job_deadline_s=120.0),
                      "JobLocal", "DataRandom"),
        "speculate": (speculate, "JobLeastLoaded", "DataRandom"),
        "speculate-faults": (speculate.with_(fault_plan=outages,
                                             job_deadline_s=300.0),
                             "JobRandom", "DataRandom"),
        "reservations": (base.with_(storage_reservations=True,
                                    storage_capacity_mb=9000.0,
                                    output_fraction=0.3),
                         "JobRandom", "DataRandom"),
    }


def run_golden(es_name: str, ds_name: str,
               config: Optional["SimulationConfig"] = None
               ) -> List[TraceRecord]:
    """Run one golden config traced (default: the canonical workload);
    returns the record stream."""
    from repro.experiments.runner import run_single
    from repro.sim.trace import Tracer

    tracer = Tracer()
    run_single(config or golden_config(), es_name, ds_name, tracer=tracer)
    return tracer.records
