"""Output checks run on every simulation of the benchmark.

A simulation passes when every submitted job has exactly one terminal
outcome, the lifecycle engine's audit is clean, the watchdog's final
check passes (where armed), and its fingerprint — the paper's three
metrics plus every outcome counter of :class:`RunMetrics` — matches the
one committed in ``fingerprints.json`` (default seed, full scale only).
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from repro.grid.grid import DataGrid
from repro.grid.lifecycle import TERMINAL_STATES, JobState
from repro.metrics.collector import RunMetrics
from repro.watchdog import InvariantViolation
from repro.workload.generator import Workload

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
#: The seed whose fingerprints are committed.
DEFAULT_SEED = 0

_PAPER_METRICS = ("avg_response_time_s", "avg_data_transferred_mb",
                  "idle_fraction")
_COUNTERS = tuple(f.name for f in dataclasses.fields(RunMetrics)
                  if f.type == "int")


def fingerprint(metrics: RunMetrics) -> Dict[str, float]:
    """The paper's three metrics (12 significant digits) and every
    integer counter of ``metrics``."""
    out: Dict[str, float] = {
        name: float(f"{getattr(metrics, name):.12g}")
        for name in _PAPER_METRICS}
    out.update((name, getattr(metrics, name)) for name in _COUNTERS)
    return out


def load_fingerprints() -> Dict[str, Dict[str, Dict[str, float]]]:
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text())


def check_simulation(grid: DataGrid, workload: Workload,
                     metrics: RunMetrics,
                     expected: Optional[Dict[str, float]]) -> List[str]:
    """Every problem found with one finished simulation (empty = pass)."""
    problems: List[str] = []
    jobs = grid.submitted_jobs
    ids = Counter(job.job_id for job in jobs)
    problems += [f"job {jid} submitted {n} times"
                 for jid, n in sorted(ids.items()) if n > 1]
    problems += [f"job {job.job_id} ended in {job.state.value}"
                 for job in jobs if job.state not in TERMINAL_STATES]
    # A speculation pair is one logical job: the losing attempt ends
    # SPECULATED, so exactly one attempt carries the outcome.
    outcomes = Counter(
        job.job_id if job.speculative_of is None else job.speculative_of
        for job in jobs if job.state is not JobState.SPECULATED)
    generated = {job.job_id for user_jobs in workload.user_jobs.values()
                 for job in user_jobs}
    problems += [f"job {jid} has {outcomes[jid]} terminal outcomes"
                 for jid in sorted(generated) if outcomes[jid] != 1]
    problems += [f"outcome for job {jid}, which was never generated"
                 for jid in sorted(set(outcomes) - generated)]
    problems += [f"lifecycle audit: {p}" for p in grid.lifecycle.audit()]
    if grid.watchdog is not None:
        try:
            grid.watchdog.check_now()
        except InvariantViolation as exc:
            problems.append(f"watchdog: {exc}")
    if expected is not None:
        actual = fingerprint(metrics)
        problems += [f"fingerprint {name}: expected {value!r}, "
                     f"got {actual.get(name)!r}"
                     for name, value in expected.items()
                     if actual.get(name) != value]
    return problems
