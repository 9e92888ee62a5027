"""The benchmark's own tests, on every workload at 5% of Table-1 scale.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import spans
from perfbench.check import check_simulation, fingerprint
from perfbench.run import run_pass
from perfbench.workloads import WORKLOADS
from repro.experiments import runner
from repro.metrics.collector import RunMetrics
from repro.network.transfer import TransferManager

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.05
#: Policy-layer call counts, each with the workload that arms its layer.
POLICY_CALLS = {
    "health.calls": "armed",
    "durability.calls": "armed",
    "faults.calls": "armed",
    "staleness.query.calls": "armed",
    "watchdog.check.calls": "overload",
}


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.2", "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    """workload → trace flag → the run's result object."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(name, trace)
            assert proc.returncode == 0, proc.stderr
            out.setdefault(name, {})[trace] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    return out


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(results, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = results[workload][trace]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", ["contended", "data-local"])
def test_policy_layers_idle_unless_armed(results, workload):
    metrics = results[workload][1]["metrics"]
    for name in POLICY_CALLS:
        assert metrics[name]["value"] == 0, name


@pytest.mark.parametrize("name", list(POLICY_CALLS))
def test_policy_layers_work_where_armed(results, name):
    assert results[POLICY_CALLS[name]][1]["metrics"][name]["value"] > 0


def _traced_pass(workload):
    with spans.installed(spans.SpanRecorder()) as rec:
        result = run_pass(workload, [0], SCALE, {})
    return rec, result


@pytest.mark.parametrize("workload", list(WORKLOADS.values()),
                         ids=list(WORKLOADS))
def test_call_counts_repeat_exactly(workload):
    first, _ = _traced_pass(workload)
    second, _ = _traced_pass(workload)
    calls = {name: first.calls(name) for name in first.names}
    assert calls == {name: second.calls(name) for name in second.names}
    assert first.counters == second.counters


def _metrics(workload) -> RunMetrics:
    config = workload.at(0, SCALE)
    es, ds = workload.pairs[0]
    jobs = runner.make_workload(config, 0)
    _sim, grid = runner.build_grid(config, es, ds, jobs, 0)
    return RunMetrics.from_grid(grid, grid.run())


def test_wrappers_leave_results_unchanged_and_are_removed():
    workload = WORKLOADS["armed"]
    original = vars(TransferManager)["start"]
    plain = _metrics(workload)
    with spans.installed(spans.SpanRecorder()) as rec:
        assert TransferManager.start is not original
        wrapped = _metrics(workload)
    assert rec.calls("net.start") > 0
    assert wrapped == plain
    assert vars(TransferManager)["start"] is original


def test_check_flags_broken_outputs():
    workload = WORKLOADS["contended"]
    config = workload.at(0, SCALE)
    jobs = runner.make_workload(config, 0)
    _sim, grid = runner.build_grid(config, "JobRandom", "DataRandom",
                                   jobs, 0)
    metrics = RunMetrics.from_grid(grid, grid.run())
    expected = fingerprint(metrics)
    assert check_simulation(grid, jobs, metrics, expected) == []
    grid.submitted_jobs.append(grid.submitted_jobs[0])
    expected["n_jobs"] += 1
    problems = check_simulation(grid, jobs, metrics, expected)
    assert any("submitted 2 times" in p for p in problems)
    assert any("terminal outcomes" in p for p in problems)
    assert any("fingerprint n_jobs" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("contended", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
