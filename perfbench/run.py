"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload contended --seed 0 --seconds 20 \\
        --trace 0

A *pass* simulates each of the workload's ES×DS pairs once, serially, in
this process, through the public API: set-up is ``make_workload`` +
``build_grid``, the run is ``DataGrid.run`` + ``RunMetrics.from_grid``.

``--trace 0`` repeats passes while another one fits in ``--seconds`` and
reports the end-to-end metrics as medians over passes, in reference
seconds (:mod:`perfbench.calibrate`).  ``--trace 1`` makes one untraced
pass, one pass with the span wrappers of :mod:`perfbench.spans`
installed, and one pass under cProfile, on the first input seed only,
and reports the per-layer metrics.  Every simulation is checked (:mod:`perfbench.check`); the last
line of output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import itertools
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups timed per simulation in a --trace 0 run (the median counts).
SETUPS = 3
#: Where the traced pass writes its spans.
OUT = ROOT / ".perfbench-out"

#: Modules reported as ``share.<module>``: those at 1% or more of the
#: run's profiled self time on at least one workload.
SHARE_MODULES = (
    "sim.core", "sim.process", "sim.events", "sim.resources",
    "network.transfer", "network.link", "network.routing",
    "network.topology", "grid.grid", "grid.lifecycle", "grid.site",
    "grid.datamover", "grid.storage", "grid.catalog", "grid.info",
    "grid.staleness", "grid.compute", "grid.health", "grid.durability",
    "scheduling.dataset", "watchdog",
)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import repro."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no simulator sources at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


@dataclass
class PassResult:
    """One pass: wall times, model outputs and check results."""

    setup_s: float = 0.0
    run_s: float = 0.0
    #: Reference-task times taken around the pass's runs (seconds).
    reference_s: List[float] = field(default_factory=list)
    #: Simulated jobs that reached a terminal state.
    terminal_jobs: int = 0
    mb_moved: float = 0.0
    #: "ES x DS @ seed" → that simulation's share of ``run_s``.
    sim_run_s: Dict[str, float] = field(default_factory=dict)
    metrics: list = field(default_factory=list)
    #: "ES x DS @ seed" → fingerprint of that simulation's outputs.
    fingerprints: Dict[str, dict] = field(default_factory=dict)
    #: "ES x DS @ seed" → problems found by the output check.
    problems: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def to_reference(self) -> float:
        """Factor from this pass's wall seconds to reference seconds."""
        from perfbench.calibrate import REFERENCE_S

        return REFERENCE_S / statistics.median(self.reference_s)


def run_pass(workload, seeds: Sequence[int], scale: float,
             expected: Dict[str, dict],
             profile: Optional[cProfile.Profile] = None,
             setups: int = 1) -> PassResult:
    """Simulate every pair of ``workload`` once on each input seed.

    Each simulation is set up ``setups`` times and the median set-up time
    counts; the grid built last is the one run.  The reference task is
    timed right before and right after each run.
    """
    from repro.experiments import runner
    from repro.grid.lifecycle import TERMINAL_STATES
    from repro.metrics.collector import RunMetrics

    from perfbench import calibrate
    from perfbench.check import check_simulation, fingerprint

    result = PassResult()
    for seed, (es, ds) in itertools.product(seeds, workload.pairs):
        config = workload.at(seed, scale)
        key = f"{es} x {ds} @ {seed}"
        gc.collect()
        try:
            setup_s = []
            for _ in range(setups):
                jobs = sim = grid = None  # free the previous set-up first
                start = perf_counter()
                jobs = runner.make_workload(config, seed)
                sim, grid = runner.build_grid(config, es, ds, jobs, seed)
                setup_s.append(perf_counter() - start)
            result.reference_s += calibrate.sample()
            built = perf_counter()
            if profile is not None:
                profile.enable()
            makespan = grid.run()
            metrics = RunMetrics.from_grid(grid, makespan)
            if profile is not None:
                profile.disable()
            done = perf_counter()
            result.reference_s += calibrate.sample()
        except Exception:  # any crash is this simulation's failure
            if profile is not None:
                profile.disable()
            result.problems[key] = [traceback.format_exc()]
            continue
        result.setup_s += statistics.median(setup_s)
        result.run_s += done - built
        result.sim_run_s[key] = done - built
        result.terminal_jobs += sum(
            1 for job in grid.submitted_jobs if job.state in TERMINAL_STATES)
        result.mb_moved += grid.transfers.total_mb_moved
        result.metrics.append(metrics)
        result.fingerprints[key] = fingerprint(metrics)
        result.problems[key] = check_simulation(
            grid, jobs, metrics, expected.get(key))
        del sim, grid, jobs
    return result


def _e2e_metrics(passes: List[PassResult]) -> Dict[str, Tuple[float, str]]:
    run_s = [p.run_s * p.to_reference for p in passes]
    return {
        "run_s": (statistics.median(run_s), "s"),
        "jobs_per_s": (statistics.median(
            p.terminal_jobs / r if r else 0.0
            for p, r in zip(passes, run_s)), "jobs/s"),
        "setup_s": (statistics.median(
            p.setup_s * p.to_reference for p in passes), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _layer_metrics(rec, traced: PassResult, base: PassResult,
                   profiled: PassResult,
                   shares: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: Dict[str, Tuple[float, str]] = {}

    def span(name: str) -> None:
        out[f"{name}.calls"] = (rec.calls(name), "count")
        out[f"{name}.self_s"] = (rec.self_time(name), "s")

    def total(field_name: str) -> float:
        return sum(getattr(m, field_name) for m in traced.metrics)

    out["sim.self_s"] = (rec.self_time("sim.run"), "s")
    out["sim.processes"] = (rec.counters["sim.processes"], "count")
    out["sim.timeouts"] = (rec.counters["sim.timeouts"], "count")
    span("net.allocate")
    calls = rec.calls("net.allocate")
    rated = rec.counters.get("net.allocate.rated", 0)
    out["net.allocate.rated_per_call"] = (ratio(rated, calls), "transfers")
    out["net.allocate.changed_ratio"] = (ratio(
        rec.counters.get("net.allocate.changed", 0), rated), "ratio")
    out["net.start.calls"] = (rec.calls("net.start"), "count")
    out["net.abort.calls"] = (rec.calls("net.abort"), "count")
    out["net.mb_moved"] = (traced.mb_moved, "MB")
    span("net.route")
    span("lifecycle.transition")
    span("info.query")
    span("catalog.update")
    span("staleness.query")
    span("es.select_site")
    out["ds.replicate.calls"] = (rec.counters["ds.replicate.calls"], "count")
    span("site.enqueue")
    span("datamover.ensure_local")
    span("storage.ops")
    span("overload.reserve")
    out["overload.jobs_shed"] = (total("jobs_shed"), "count")
    out["overload.jobs_expired"] = (total("jobs_expired"), "count")
    out["overload.jobs_deflected"] = (total("jobs_deflected"), "count")
    span("health")
    launched = total("speculative_launched")
    out["health.speculative_launched"] = (launched, "count")
    out["health.speculative_waste_ratio"] = (ratio(
        total("speculative_losers"), launched), "ratio")
    span("durability")
    out["durability.replicas_repaired"] = (
        total("replicas_repaired"), "count")
    out["durability.repair_mb"] = (total("repair_bytes_mb"), "MB")
    span("faults")
    out["faults.jobs_retried"] = (total("jobs_retried"), "count")
    span("watchdog.check")
    out["setup.workload_s"] = (rec.total_time("setup.make_workload"), "s")
    out["setup.build_grid_s"] = (rec.total_time("setup.build_grid"), "s")
    out["metrics.from_grid_s"] = (rec.total_time("metrics.from_grid"), "s")
    out["trace.run_s"] = (traced.run_s, "s")
    # Untraced, in reference seconds; contended and armed share their
    # first pair and input.
    out["first_pair.run_s"] = (next(iter(base.sim_run_s.values()), 0.0)
                               * base.to_reference, "s")
    base_s = base.run_s * base.to_reference
    out["trace.overhead_x"] = (
        ratio(traced.run_s * traced.to_reference, base_s), "x")
    out["profile.overhead_x"] = (
        ratio(profiled.run_s * profiled.to_reference, base_s), "x")
    for module in SHARE_MODULES:
        out[f"share.{module}"] = (shares.get(module, 0.0), "ratio")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the Table-1 config (tests use 0.05)")
    parser.add_argument("--update-fingerprints", action="store_true",
                        help="commit this run's default-seed fingerprints")
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.check import (
        DEFAULT_SEED,
        FINGERPRINTS,
        load_fingerprints,
    )
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pinned = args.seed == DEFAULT_SEED and args.scale == 1.0
    if args.update_fingerprints and not pinned:
        parser.error(f"fingerprints are pinned at --seed {DEFAULT_SEED} "
                     "and full scale")
    fingerprints = load_fingerprints()
    expected = (fingerprints.get(workload.name, {})
                if pinned and not args.update_fingerprints else {})

    seeds = workload.input_seeds(args.seed)
    # Warm-up: imports and first-use costs are paid once per process.
    run_pass(workload, seeds[:1], min(args.scale, 0.05), {})

    passes: List[PassResult] = []
    if args.trace == 0:
        # Stop before a pass that would likely end past --seconds.
        start = perf_counter()
        elapsed = last_pass = 0.0
        while not passes or elapsed + last_pass <= args.seconds:
            pass_start = perf_counter()
            passes.append(run_pass(workload, seeds, args.scale, expected,
                                   setups=SETUPS))
            last_pass = perf_counter() - pass_start
            elapsed = perf_counter() - start
        metrics = _e2e_metrics(passes)
    else:
        from perfbench.shares import module_shares
        from perfbench.spans import SpanRecorder, installed

        # Call counts need no averaging over inputs: one input will do.
        seeds = seeds[:1]
        base = run_pass(workload, seeds, args.scale, expected)
        with installed(SpanRecorder()) as rec:
            traced = run_pass(workload, seeds, args.scale, expected)
        profile = cProfile.Profile()
        profiled = run_pass(workload, seeds, args.scale, expected,
                            profile=profile)
        passes = [base, traced, profiled]
        metrics = _layer_metrics(rec, traced, base, profiled,
                                 module_shares(profile, SRC))
        rec.write(OUT / f"spans-{workload.name}.npz")

    # Every pass of a run simulates the same inputs: outputs must agree.
    for p in passes[1:]:
        for key, fp in p.fingerprints.items():
            if fp != passes[0].fingerprints.get(key):
                p.problems[key].append(
                    "outputs differ from the run's first pass")
    attempted = sum(len(p.problems) for p in passes)
    failed = 0
    for p in passes:
        for key, problems in p.problems.items():
            if problems:
                failed += 1
                print(f"FAILED {workload.name} seed={args.seed} {key}:",
                      *problems[:20], sep="\n  ", file=sys.stderr)

    if args.update_fingerprints and not failed:
        fingerprints[workload.name] = passes[0].fingerprints
        FINGERPRINTS.write_text(
            json.dumps(fingerprints, indent=2, sort_keys=True) + "\n")

    print(f"workload={workload.name} seed={args.seed} scale={args.scale:g} "
          f"trace={args.trace} passes={len(passes)} "
          f"simulations={attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    references = [t for p in passes for t in p.reference_s]
    print(f"wall_run_s {statistics.median(p.run_s for p in passes):.6g} s")
    if references:
        print(f"reference_task_ms {1000 * statistics.median(references):.4g}"
              " ms")
    print(f"fail_ratio {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
