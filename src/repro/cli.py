"""Command-line interface.

Everything the library can do, driveable from a shell::

    python -m repro table1
    python -m repro run --es JobDataPresent --ds DataRandom --scale 0.25
    python -m repro matrix --seeds 0 1 2 -j 4 --cache
    python -m repro figure 3a
    python -m repro workload --out trace.json --scale 0.1

``-j/--jobs`` fans the independent runs of matrix/figure/sweep commands
out over worker processes; results are identical at any worker count.

All commands accept the configuration overrides listed under
``python -m repro run --help``; defaults are the paper's Table 1.  Most
are generated from the ``knob(...)`` fields of ``SimulationConfig``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import DEFAULT_CACHE_DIR
from repro.experiments.paper import (
    reproduce_figure2,
    reproduce_figure5,
    table1_parameters,
)
from repro.experiments.runner import make_workload, run_matrix, run_single
from repro.metrics.report import format_matrix, format_run
from repro.scheduling.registry import ALL_DS, ALL_ES
from repro.workload.traces import save_workload


#: Titles of the knob groups that follow the fault-injection group in
#: ``--help``, keyed by the ``group`` a knob's field metadata names.
_KNOB_GROUPS = {
    "overload": "overload protection (default: all off — unbounded queues, "
                "no deadlines, no reservations; the paper's model)",
    "dag": "DAG workloads (default: none — the paper's independent jobs)",
    "health": "failure detection (default: all off — no heartbeats, no "
              "breakers, no speculation; the paper's oracle model)",
    "durability": "data durability (default: all off — no checksums, no "
                  "scrubbing, single unrepaired primaries; the paper's "
                  "model)",
}


def _knobs() -> List[dataclasses.Field]:
    """The SimulationConfig fields with a CLI flag, in field order."""
    return [f for f in dataclasses.fields(SimulationConfig)
            if "flag" in f.metadata]


def _add_knob_arguments(group: argparse._ArgumentGroup, name: str) -> None:
    """Add the flag of every knob in group ``name``; bools take on/off."""
    for f in _knobs():
        meta = f.metadata
        if meta["group"] != name:
            continue
        if isinstance(f.default, bool):
            kwargs = {"choices": ("on", "off")}
        else:
            kwargs = {"type": type(f.default), "choices": meta["choices"],
                      "metavar": meta["metavar"]}
        group.add_argument(meta["flag"], default=None, help=meta["help"],
                           **kwargs)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    config = parser.add_argument_group(
        "configuration overrides (defaults = paper Table 1)")
    config.add_argument("--scale", type=float, default=1.0,
                        help="scale users/sites/datasets/jobs together "
                             "(default 1.0 = paper scale)")
    config.add_argument("--storage-gb", type=float, default=None,
                        help="per-site storage in GB")
    _add_knob_arguments(config, "config")
    config.add_argument("--seed", type=int, default=0)
    faults = parser.add_argument_group(
        "fault injection (default: no faults; any of these enables the "
        "repro.faults layer — runs stay seed-reproducible)")
    faults.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="JSON fault plan (see FaultPlan.save)")
    faults.add_argument("--site-mtbf", type=float, default=None,
                        metavar="SECONDS",
                        help="mean time between site failures "
                             "(exponential; 0 = never)")
    faults.add_argument("--site-mttr", type=float, default=None,
                        metavar="SECONDS",
                        help="mean site repair time (default 1800)")
    faults.add_argument("--link-drop-rate", type=float, default=None,
                        metavar="PROB",
                        help="probability that any individual transfer is "
                             "dropped mid-flight")
    faults.add_argument("--fault-seed", type=int, default=None,
                        help="seed for the stochastic fault stream "
                             "(default: the run seed)")
    faults.add_argument("--partition", action="append", default=None,
                        metavar="SITES@START:END",
                        help="network partition window, e.g. "
                             "site00,site01@1800:3600 (end may be 'inf'; "
                             "repeatable)")
    faults.add_argument("--outage-group", action="append", default=None,
                        metavar="SITES@START:END",
                        help="rack-correlated outage: the listed sites "
                             "fail and recover together (repeatable)")
    faults.add_argument("--flap-sites", default=None, metavar="SITES",
                        help="comma-separated sites that flap on their "
                             "own fast MTBF/MTTR loop")
    faults.add_argument("--flap-mtbf", type=float, default=None,
                        metavar="SECONDS",
                        help="mean up-time between flaps")
    faults.add_argument("--flap-mttr", type=float, default=None,
                        metavar="SECONDS",
                        help="mean flap outage duration (default 60)")
    faults.add_argument("--corrupt-replica", action="append", default=None,
                        metavar="SITE:DATASET@TIME",
                        help="silently corrupt one stored copy at the "
                             "given time, e.g. site00:d3@1800 "
                             "(repeatable)")
    faults.add_argument("--lose-replica", action="append", default=None,
                        metavar="SITE:DATASET@TIME",
                        help="destroy one stored copy outright at the "
                             "given time (repeatable)")
    faults.add_argument("--corruption-mtbf", type=float, default=None,
                        metavar="SECONDS",
                        help="mean time between silent bit-rot events "
                             "per site (0 = never)")
    faults.add_argument("--corruption-sites", default=None, metavar="SITES",
                        help="comma-separated sites subject to bit-rot "
                             "(default: all sites)")
    for name, title in _KNOB_GROUPS.items():
        _add_knob_arguments(parser.add_argument_group(title), name)


def _parse_window_spec(spec: str, flag: str):
    """Parse a SITES@START:END spec into (sites, start_s, end_s)."""
    sites_part, sep, window = spec.partition("@")
    start_part, sep2, end_part = window.partition(":")
    sites = tuple(s for s in sites_part.split(",") if s)
    if not sep or not sep2 or not sites:
        raise SystemExit(
            f"bad {flag} spec {spec!r}; expected SITES@START:END like "
            f"site00,site01@1800:3600")
    end = (float("inf") if end_part.lower() in ("inf", "permanent")
           else float(end_part))
    return sites, float(start_part), end


def _parse_replica_spec(spec: str, flag: str):
    """Parse a SITE:DATASET@TIME spec into (site, dataset, time_s)."""
    target, sep, time_part = spec.partition("@")
    site, sep2, dataset = target.partition(":")
    if not sep or not sep2 or not site or not dataset:
        raise SystemExit(
            f"bad {flag} spec {spec!r}; expected SITE:DATASET@TIME like "
            f"site00:d3@1800")
    return site, dataset, float(time_part)


def _build_fault_plan(args: argparse.Namespace):
    """Compose the FaultPlan from --fault-plan plus scalar overrides."""
    from repro.faults.plan import (
        FaultPlan,
        NetworkPartition,
        OutageGroup,
        ReplicaCorruption,
        ReplicaLoss,
    )

    relevant = (args.fault_plan, args.site_mtbf, args.site_mttr,
                args.link_drop_rate, args.fault_seed, args.partition,
                args.outage_group, args.flap_sites, args.flap_mtbf,
                args.flap_mttr, args.corrupt_replica, args.lose_replica,
                args.corruption_mtbf, args.corruption_sites)
    if all(value is None for value in relevant):
        return None
    plan = (FaultPlan.load(args.fault_plan)
            if args.fault_plan is not None else FaultPlan.none())
    overrides = {}
    if args.site_mtbf is not None:
        overrides["site_mtbf_s"] = args.site_mtbf
    if args.site_mttr is not None:
        overrides["site_mttr_s"] = args.site_mttr
    if args.link_drop_rate is not None:
        overrides["transfer_fail_prob"] = args.link_drop_rate
    if args.fault_seed is not None:
        overrides["seed"] = args.fault_seed
    if args.partition is not None:
        extra = []
        for spec in args.partition:
            sites, start, end = _parse_window_spec(spec, "--partition")
            extra.append(
                NetworkPartition(sites=sites, start_s=start, end_s=end))
        overrides["partitions"] = plan.partitions + tuple(extra)
    if args.outage_group is not None:
        extra = []
        for spec in args.outage_group:
            sites, start, end = _parse_window_spec(spec, "--outage-group")
            extra.append(OutageGroup(sites=sites, start_s=start, end_s=end))
        overrides["outage_groups"] = plan.outage_groups + tuple(extra)
    if args.flap_sites is not None:
        overrides["flap_sites"] = tuple(
            s for s in args.flap_sites.split(",") if s)
    if args.flap_mtbf is not None:
        overrides["flap_mtbf_s"] = args.flap_mtbf
    if args.flap_mttr is not None:
        overrides["flap_mttr_s"] = args.flap_mttr
    if args.corrupt_replica is not None:
        extra = []
        for spec in args.corrupt_replica:
            site, dataset, time = _parse_replica_spec(
                spec, "--corrupt-replica")
            extra.append(ReplicaCorruption(site=site, dataset=dataset,
                                           time_s=time))
        overrides["replica_corruptions"] = (plan.replica_corruptions
                                            + tuple(extra))
    if args.lose_replica is not None:
        extra = []
        for spec in args.lose_replica:
            site, dataset, time = _parse_replica_spec(spec, "--lose-replica")
            extra.append(ReplicaLoss(site=site, dataset=dataset,
                                     time_s=time))
        overrides["replica_losses"] = plan.replica_losses + tuple(extra)
    if args.corruption_mtbf is not None:
        overrides["corruption_mtbf_s"] = args.corruption_mtbf
    if args.corruption_sites is not None:
        overrides["corruption_sites"] = tuple(
            s for s in args.corruption_sites.split(",") if s)
    if overrides:
        plan = plan.with_(**overrides)
    return plan


def _build_config(args: argparse.Namespace) -> SimulationConfig:
    config = SimulationConfig.paper(seed=args.seed)
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    fault_plan = _build_fault_plan(args)
    if fault_plan is not None:
        config = config.with_(fault_plan=fault_plan)
    overrides = {}
    for f in _knobs():
        # argparse stores --long-flag as args.long_flag.
        value = getattr(args, f.metadata["flag"][2:].replace("-", "_"))
        if value is not None:
            overrides[f.name] = (value == "on" if isinstance(f.default, bool)
                                 else value)
    if args.storage_gb is not None:
        overrides["storage_capacity_mb"] = args.storage_gb * 1000.0
    return config.with_(**overrides)


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("parallel execution")
    group.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes for independent runs "
                            "(1 = serial, 0 = all cores; results are "
                            "identical at any worker count)")
    group.add_argument("--cache", action="store_true",
                       help=f"reuse finished runs via an on-disk cache "
                            f"under {DEFAULT_CACHE_DIR}/")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (implies --cache)")


def _cache_dir(args: argparse.Namespace):
    if args.cache_dir is not None:
        return args.cache_dir
    return DEFAULT_CACHE_DIR if args.cache else None


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = table1_parameters(_build_config(args))
    width = max(len(k) for k in rows) + 2
    print("Table 1: Simulation parameters used in study")
    for key, value in rows.items():
        print(f"{key:<{width}}{value}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    metrics = run_single(config, args.es, args.ds, seed=args.seed)
    print(format_run(metrics, label=f"{args.es} + {args.ds} "
                     f"(seed {args.seed})"))
    return 0


#: The 4x3 matrix's paper views: figure -> (title, RunMetrics field).
FIGURE_VIEWS = {
    "3a": ("Figure 3a: average response time per job (seconds)",
           "avg_response_time_s"),
    "3b": ("Figure 3b: average data transferred per job (MB)",
           "avg_data_transferred_mb"),
    "4": ("Figure 4: average idle time of processors (%)", "idle_percent"),
}


def _print_matrix(args: argparse.Namespace, config: SimulationConfig,
                  views) -> None:
    """Run the ES x DS matrix and print one table per (title, metric)."""
    result = run_matrix(config, seeds=tuple(args.seeds), jobs=args.jobs,
                        cache_dir=_cache_dir(args))
    print("\n\n".join(
        format_matrix(title, result.metric_matrix(metric), ALL_ES, ALL_DS)
        for title, metric in views))


def _cmd_matrix(args: argparse.Namespace) -> int:
    _print_matrix(args, _build_config(args), FIGURE_VIEWS.values())
    return 0


def _cmd_dag(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if config.dag_shape == "none":
        # The campaign is about dependencies; default to the diamond
        # motif unless the user picked a shape explicitly.
        config = config.with_(dag_shape="diamond")
    print(f"DAG campaign: shape={config.dag_shape} "
          f"width={config.dag_width} "
          f"bulk={'on' if config.bulk_submission else 'off'} "
          f"seeds={list(args.seeds)}")
    print()
    _print_matrix(args, config, [
        ("Average response time per job (seconds)", "avg_response_time_s"),
        ("Average data transferred per job (MB)", "avg_data_transferred_mb"),
        ("Jobs completed", "n_jobs")])
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if args.which == "2":
        for name, count in reproduce_figure2(config, seed=args.seed,
                                             top_n=args.top):
            print(f"{name:<16}{count:>8}")
        return 0
    if args.which == "5":
        out = reproduce_figure5(config, seeds=tuple(args.seeds),
                                jobs=args.jobs, cache_dir=_cache_dir(args))
        print(f"{'':<16}{'10MB/sec':>12}{'100MB/sec':>12}")
        for es in ALL_ES:
            print(f"{es:<16}{out['10MB/sec'][es]:>12.1f}"
                  f"{out['100MB/sec'][es]:>12.1f}")
        return 0
    _print_matrix(args, config, [FIGURE_VIEWS[args.which]])
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import best_value, sweep

    config = _build_config(args)
    values = [_parse_value(v) for v in args.values]
    result = sweep(config, args.parameter, values,
                   es_name=args.es, ds_name=args.ds,
                   seeds=tuple(args.seeds),
                   jobs=args.jobs, cache_dir=_cache_dir(args))
    print(result.table())
    print(f"\nbest {args.parameter} for response time: "
          f"{best_value(result)}")
    return 0


def _parse_pairs(specs) -> Optional[tuple]:
    """Parse --pairs entries like 'JobDataPresent+DataLeastLoaded'."""
    if specs is None:
        return None
    pairs = []
    for spec in specs:
        es_name, sep, ds_name = spec.partition("+")
        if not sep or es_name not in ALL_ES or ds_name not in ALL_DS:
            raise ValueError(
                f"bad pair {spec!r}; expected ES+DS like "
                f"JobDataPresent+DataLeastLoaded")
        pairs.append((es_name, ds_name))
    return tuple(pairs)


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments import sensitivity as study
    from repro.experiments.sweep import grid_sweep

    config = _build_config(args)
    partitioned = {"both": (False, True), "on": (True,),
                   "off": (False,)}[args.partition_cells]
    axes, report = {
        "staleness-sweep": (study.staleness_axes(args.delays),
                            study.staleness_report),
        "overload-sweep": (study.overload_axes(args.rates, args.capacities),
                           study.overload_report),
        "recovery-sweep": (study.recovery_axes(args.thresholds, args.mtbfs,
                                               partitioned),
                           study.recovery_report),
        "durability-sweep": (study.durability_axes(
            args.corruption_mtbfs, args.rfs, args.scrubs),
            study.durability_report),
    }[args.mode]
    result = grid_sweep(config, axes,
                        _parse_pairs(args.pairs) or study.DEFAULT_PAIRS,
                        tuple(args.seeds), args.jobs, _cache_dir(args))
    print(report(result))
    return 0


def _parse_value(text: str):
    """Interpret a sweep value as int, float, or string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.trace import Tracer
    from repro.trace import (
        count_by_kind,
        expand_kinds,
        format_timelines,
        read_jsonl,
        trace_digest,
        write_jsonl,
    )

    if args.action == "summarize":
        records = read_jsonl(args.trace_file)
        print(f"{len(records)} records from {args.trace_file} "
              f"(digest {trace_digest(records)[:12]}…)")
        for kind, count in count_by_kind(records).items():
            print(f"  {kind:<24}{count:>8}")
        print()
        print(format_timelines(records, limit=args.limit))
        return 0

    kinds = (expand_kinds(args.trace_kinds)
             if args.trace_kinds is not None else None)
    tracer = Tracer(kinds=kinds)
    config = _build_config(args)
    metrics = run_single(config, args.es, args.ds, seed=args.seed,
                         tracer=tracer)
    print(f"{len(tracer.records)} records "
          f"({args.es} + {args.ds}, seed {args.seed}, digest "
          f"{trace_digest(tracer.records)[:12]}…)")
    for kind, count in tracer.counts_by_kind().items():
        print(f"  {kind:<24}{count:>8}")
    if args.trace_out is not None:
        lines = write_jsonl(tracer.records, args.trace_out)
        print(f"wrote {lines} records to {args.trace_out}")
    if args.summarize:
        print()
        print(format_timelines(tracer.records, limit=args.limit))
    print(f"\nmakespan: {metrics.makespan_s:.1f} s, "
          f"avg response: {metrics.avg_response_time_s:.1f} s")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    config = _build_config(args)
    workload = make_workload(config, seed=args.seed)
    save_workload(workload, args.out)
    print(f"wrote {workload.n_jobs} jobs / {len(workload.datasets)} "
          f"datasets / {len(workload.user_sites)} users to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Ranganathan & Foster (HPDC 2002): "
                    "decoupled Data Grid scheduling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="print Table 1")
    _add_config_arguments(p_table)
    p_table.set_defaults(func=_cmd_table1)

    p_run = sub.add_parser("run", help="run one algorithm combination")
    p_run.add_argument("--es", default="JobDataPresent",
                       choices=(ALL_ES + ["JobAdaptive"]
                                + [f"{es}+Health" for es in ALL_ES]),
                       help="external scheduler (+Health = circuit-"
                            "breaker-aware variant)")
    p_run.add_argument("--ds", default="DataRandom",
                       choices=ALL_DS + ["DataBestClient"],
                       help="dataset scheduler")
    _add_config_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_matrix = sub.add_parser(
        "matrix", help="run the full 4x3 sweep (Figures 3a/3b/4)")
    p_matrix.add_argument("--seeds", type=int, nargs="+", default=[0])
    _add_config_arguments(p_matrix)
    _add_parallel_arguments(p_matrix)
    p_matrix.set_defaults(func=_cmd_matrix)

    p_dag = sub.add_parser(
        "dag", help="run the full ES x DS sweep on a DAG workload")
    p_dag.add_argument("--seeds", type=int, nargs="+", default=[0])
    _add_config_arguments(p_dag)
    _add_parallel_arguments(p_dag)
    p_dag.set_defaults(func=_cmd_dag)

    p_figure = sub.add_parser("figure", help="reproduce one paper figure")
    p_figure.add_argument("which", choices=["2", "3a", "3b", "4", "5"])
    p_figure.add_argument("--seeds", type=int, nargs="+", default=[0])
    p_figure.add_argument("--top", type=int, default=60,
                          help="datasets to list for figure 2")
    _add_config_arguments(p_figure)
    _add_parallel_arguments(p_figure)
    p_figure.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one config field across values")
    p_sweep.add_argument("parameter",
                         help="SimulationConfig field to vary")
    p_sweep.add_argument("values", nargs="+",
                         help="values to sweep (parsed as int/float/str)")
    p_sweep.add_argument("--es", default="JobDataPresent",
                         choices=ALL_ES + ["JobAdaptive"])
    p_sweep.add_argument("--ds", default="DataRandom",
                         choices=ALL_DS + ["DataBestClient"])
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=[0])
    _add_config_arguments(p_sweep)
    _add_parallel_arguments(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sens = sub.add_parser(
        "sensitivity",
        help="degradation sweeps: catalog staleness, offered overload, "
             "or failure detection/recovery")
    p_sens.add_argument("mode", nargs="?",
                        choices=["staleness-sweep", "overload-sweep",
                                 "recovery-sweep", "durability-sweep"],
                        default="staleness-sweep",
                        help="staleness-sweep: response time vs catalog "
                             "delay (default); overload-sweep: arrival "
                             "rate x queue capacity degradation table; "
                             "recovery-sweep: detection threshold x MTBF "
                             "x partition detector-quality table; "
                             "durability-sweep: corruption rate x "
                             "replication factor x scrub period survival "
                             "table")
    p_sens.add_argument("--delays", type=float, nargs="+",
                        default=[0.0, 60.0, 300.0, 900.0, 1800.0],
                        metavar="SECONDS",
                        help="catalog propagation delays to sweep "
                             "(staleness-sweep)")
    p_sens.add_argument("--rates", type=float, nargs="+",
                        default=[0.02, 0.05, 0.1, 0.2],
                        metavar="JOBS_PER_S",
                        help="open-loop arrival rates to sweep "
                             "(overload-sweep)")
    p_sens.add_argument("--capacities", type=int, nargs="+",
                        default=[4, 16], metavar="JOBS",
                        help="per-site queue capacities to sweep "
                             "(overload-sweep)")
    p_sens.add_argument("--thresholds", type=float, nargs="+",
                        default=[2.0, 3.0, 6.0], metavar="PHI",
                        help="phi suspicion thresholds to sweep "
                             "(recovery-sweep)")
    p_sens.add_argument("--mtbfs", type=float, nargs="+",
                        default=[0.0, 3600.0, 14400.0], metavar="SECONDS",
                        help="site MTBF values to sweep; 0 = no random "
                             "failures (recovery-sweep)")
    p_sens.add_argument("--corruption-mtbfs", type=float, nargs="+",
                        default=[0.0, 14400.0, 3600.0], metavar="SECONDS",
                        help="per-site bit-rot MTBF values to sweep; 0 = "
                             "no corruption (durability-sweep)")
    p_sens.add_argument("--rfs", type=int, nargs="+", default=[1, 2],
                        metavar="N",
                        help="replication factors to sweep; factors > 1 "
                             "arm the repair manager (durability-sweep)")
    p_sens.add_argument("--scrubs", type=float, nargs="+",
                        default=[0.0, 600.0], metavar="SECONDS",
                        help="scrubber periods to sweep; 0 = on-access "
                             "detection only (durability-sweep)")
    p_sens.add_argument("--partition-cells", default="both",
                        choices=["both", "on", "off"],
                        help="whether recovery-sweep cells include the "
                             "canonical network partition (default: "
                             "sweep both)")
    p_sens.add_argument("--pairs", nargs="+", default=None,
                        metavar="ES+DS",
                        help="algorithm pairs, e.g. "
                             "JobDataPresent+DataLeastLoaded "
                             "(default: decoupled winner vs "
                             "compute-only baseline)")
    p_sens.add_argument("--seeds", type=int, nargs="+", default=[0])
    _add_config_arguments(p_sens)
    _add_parallel_arguments(p_sens)
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_trace = sub.add_parser(
        "trace", help="run one combination traced / summarize a trace")
    trace_sub = p_trace.add_subparsers(dest="action", required=True)
    p_trace_run = trace_sub.add_parser(
        "run", help="run one combination with domain-event tracing on")
    p_trace_run.add_argument("--es", default="JobDataPresent",
                             choices=ALL_ES + ["JobAdaptive"])
    p_trace_run.add_argument("--ds", default="DataRandom",
                             choices=ALL_DS + ["DataBestClient"])
    p_trace_run.add_argument("--trace-out", default=None, metavar="FILE",
                             help="write the trace as JSONL")
    p_trace_run.add_argument("--trace-kinds", nargs="+", default=None,
                             metavar="KIND",
                             help="only record these kinds/groups "
                                  "(e.g. 'job transfer.done')")
    p_trace_run.add_argument("--summarize", action="store_true",
                             help="also print per-job timelines")
    p_trace_run.add_argument("--limit", type=int, default=20,
                             help="timelines to print with --summarize")
    _add_config_arguments(p_trace_run)
    p_trace_run.set_defaults(func=_cmd_trace)
    p_trace_sum = trace_sub.add_parser(
        "summarize", help="reconstruct per-job timelines from a JSONL trace")
    p_trace_sum.add_argument("trace_file", help="JSONL trace path")
    p_trace_sum.add_argument("--limit", type=int, default=20,
                             help="timelines to print")
    p_trace_sum.set_defaults(func=_cmd_trace)

    p_workload = sub.add_parser(
        "workload", help="generate a workload trace (JSON)")
    p_workload.add_argument("--out", required=True,
                            help="output trace path")
    _add_config_arguments(p_workload)
    p_workload.set_defaults(func=_cmd_workload)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Configuration and fault-plan mistakes are user errors, not crashes:
    they print one structured line on stderr and exit 2 — never a
    traceback.
    """
    from repro.faults.plan import FaultPlanError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FaultPlanError as exc:
        print(f"error: invalid fault plan [{exc.field}]: "
              f"{str(exc).partition(': ')[2] or exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
