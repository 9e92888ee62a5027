"""Unit tests for the command-line interface."""

import argparse
import dataclasses
import json

import pytest

from repro import SimulationConfig
from repro.cli import _build_config, build_parser, main
from repro.experiments.parallel import RunSpec

SMALL = ["--scale", "0.05"]

#: The SimulationConfig fields the CLI exposes, in field order.
KNOBS = [f for f in dataclasses.fields(SimulationConfig)
         if "flag" in f.metadata]

#: A non-default sample for every knob: field -> (flag text, value).
SAMPLES = {
    "n_users": ("60", 60),
    "n_sites": ("12", 12),
    "n_datasets": ("50", 50),
    "bandwidth_mbps": ("100", 100.0),
    "n_jobs": ("3000", 3000),
    "inputs_per_job": ("2", 2),
    "output_fraction": ("0.5", 0.5),
    "popularity_model": ("zipf", "zipf"),
    "geometric_p": ("0.1", 0.1),
    "topology": ("ring", "ring"),
    "info_refresh_interval_s": ("60", 60.0),
    "catalog_delay_s": ("30", 30.0),
    "info_timeout_s": ("120", 120.0),
    "watchdog": ("on", True),
    "allocator": ("max-min", "max-min"),
    "queue_capacity": ("8", 8),
    "deflect_budget": ("3", 3),
    "job_deadline_s": ("600", 600.0),
    "aging_factor": ("0.5", 0.5),
    "degraded_es": ("JobLeastLoaded", "JobLeastLoaded"),
    "storage_reservations": ("on", True),
    "arrival_rate_per_s": ("0.05", 0.05),
    "health_heartbeat_s": ("20", 20.0),
    "health_heartbeat_jitter": ("0.2", 0.2),
    "health_phi_threshold": ("6", 6.0),
    "health_probe_interval_s": ("60", 60.0),
    "health_observed_only": ("on", True),
    "speculate_quantile": ("0.9", 0.9),
    "speculate_multiplier": ("3", 3.0),
    "replication_factor": ("2", 2),
    "durability_repair": ("on", True),
    "scrub_interval_s": ("600", 600.0),
    "repair_placement": ("forecast", "forecast"),
    "dag_shape": ("chain", "chain"),
    "dag_width": ("5", 5),
    "bulk_submission": ("on", True),
}
#: Knobs whose sample the config accepts only with another knob's sample.
NEEDS = {
    "health_observed_only": "health_heartbeat_s",
    "replication_factor": "durability_repair",
    "bulk_submission": "dag_shape",
}


class TestTable1:
    def test_prints_parameters(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "120" in out
        assert "6000 jobs" in out

    def test_scale_override(self, capsys):
        assert main(["table1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "600 jobs" in out


class TestRun:
    def test_default_combination(self, capsys):
        assert main(["run", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "JobDataPresent + DataRandom" in out
        assert "avg response time" in out

    def test_explicit_combination(self, capsys):
        assert main(["run", "--es", "JobLocal", "--ds", "DataDoNothing",
                     *SMALL]) == 0
        out = capsys.readouterr().out
        assert "JobLocal + DataDoNothing" in out

    def test_invalid_scheduler_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "--es", "JobMagic", *SMALL])

    def test_config_overrides_applied(self, capsys):
        assert main(["run", *SMALL, "--n-jobs", "50", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "jobs completed:            50" in out

    def test_bad_config_returns_error_code(self, capsys):
        # storage below the largest dataset is a config error
        code = main(["run", *SMALL, "--storage-gb", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMatrix:
    def test_prints_three_figures(self, capsys):
        assert main(["matrix", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Figure 3a" in out
        assert "Figure 3b" in out
        assert "Figure 4" in out
        assert "JobDataPresent" in out


class TestParallelFlags:
    def test_matrix_with_workers(self, capsys):
        assert main(["matrix", *SMALL, "-j", "2"]) == 0
        assert "Figure 3a" in capsys.readouterr().out

    def test_cache_flag_creates_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["matrix", *SMALL, "--cache-dir", str(cache)]) == 0
        first = capsys.readouterr().out
        assert any(cache.rglob("*.json"))
        # Second invocation is served from the cache, identically.
        assert main(["matrix", *SMALL, "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == first

    def test_sweep_with_workers(self, capsys):
        assert main(["sweep", "bandwidth_mbps", "10", "100",
                     *SMALL, "-j", "2"]) == 0
        assert "sweep of bandwidth_mbps" in capsys.readouterr().out


class TestFigure:
    def test_figure2(self, capsys):
        assert main(["figure", "2", *SMALL, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 5

    @pytest.mark.parametrize("which", ["3a", "3b", "4"])
    def test_figure_matrix_views(self, which, capsys):
        assert main(["figure", which, *SMALL]) == 0
        assert "JobLocal" in capsys.readouterr().out

    def test_figure5(self, capsys):
        assert main(["figure", "5", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "10MB/sec" in out and "100MB/sec" in out


class TestSweepCommand:
    def test_sweeps_and_reports_best(self, capsys):
        assert main(["sweep", "bandwidth_mbps", "10", "100",
                     "--es", "JobLocal", "--ds", "DataDoNothing",
                     *SMALL]) == 0
        out = capsys.readouterr().out
        assert "sweep of bandwidth_mbps" in out
        assert "best bandwidth_mbps" in out

    def test_string_values_parse(self, capsys):
        assert main(["sweep", "topology", "hierarchical", "star",
                     *SMALL]) == 0
        out = capsys.readouterr().out
        assert "star" in out

    def test_unknown_parameter_errors(self, capsys):
        assert main(["sweep", "warp_factor", "1", *SMALL]) == 2
        assert "error:" in capsys.readouterr().err

    def test_best_client_policy_accepted(self, capsys):
        assert main(["run", "--ds", "DataBestClient", *SMALL]) == 0
        assert "DataBestClient" in capsys.readouterr().out


class TestWorkload:
    def test_writes_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["workload", "--out", str(out_file), *SMALL]) == 0
        data = json.loads(out_file.read_text())
        assert data["version"] == 1
        assert "wrote" in capsys.readouterr().out

    def test_trace_round_trips(self, tmp_path):
        from repro.workload.traces import load_workload
        out_file = tmp_path / "trace.json"
        main(["workload", "--out", str(out_file), *SMALL, "--seed", "9"])
        workload = load_workload(out_file)
        assert workload.n_jobs == 300


class TestStalenessKnobs:
    def test_catalog_delay_flows_into_config(self, capsys):
        assert main(["run", *SMALL, "--catalog-delay", "600",
                     "--storage-gb", "8"]) == 0
        out = capsys.readouterr().out
        assert "stale replica reads" in out

    def test_zero_delay_prints_no_staleness_block(self, capsys):
        assert main(["run", *SMALL, "--catalog-delay", "0"]) == 0
        assert "stale information" not in capsys.readouterr().out

    def test_negative_delay_is_config_error(self, capsys):
        assert main(["run", *SMALL, "--catalog-delay", "-5"]) == 2
        assert "catalog delay" in capsys.readouterr().err

    def test_info_timeout_accepted(self, capsys):
        assert main(["run", *SMALL, "--info-timeout", "30"]) == 0

    def test_watchdog_on_accepted(self, capsys):
        assert main(["run", *SMALL, "--watchdog", "on"]) == 0

    def test_watchdog_rejects_other_values(self):
        with pytest.raises(SystemExit):
            main(["run", *SMALL, "--watchdog", "maybe"])


class TestSensitivity:
    def test_sweep_prints_table_and_degradation(self, capsys):
        assert main(["sensitivity", *SMALL, "--delays", "0", "300",
                     "--pairs", "JobDataPresent+DataLeastLoaded"]) == 0
        out = capsys.readouterr().out
        assert "catalog-staleness sensitivity" in out
        assert "misdirected" in out
        assert "degradation for JobDataPresent + DataLeastLoaded" in out

    def test_bad_pair_is_an_error(self, capsys):
        assert main(["sensitivity", *SMALL, "--delays", "0",
                     "--pairs", "JobMagic"]) == 2
        assert "bad pair" in capsys.readouterr().err

    def test_parallel_workers_accepted(self, capsys):
        assert main(["sensitivity", *SMALL, "--delays", "0", "60",
                     "--pairs", "JobLocal+DataDoNothing",
                     "-j", "2"]) == 0
        assert "sensitivity" in capsys.readouterr().out


class TestRecoverySweep:
    def test_safe_threshold_ignores_listed_order(self, capsys):
        """phi 2 is the lowest quiet threshold even when listed last."""
        assert main(["sensitivity", "recovery-sweep", "--users", "4",
                     "--sites", "4", "--datasets", "8", "--n-jobs", "16",
                     "--thresholds", "6", "2", "--mtbfs", "0",
                     "--partition-cells", "off"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("lowest safe threshold")]
        assert len(lines) == 2
        assert all(line.endswith("partition off: 2") for line in lines)


class TestOverloadKnobs:
    def test_saturated_run_prints_degradation_block(self, capsys):
        assert main(["run", *SMALL, "--arrival-rate", "0.3",
                     "--queue-capacity", "4", "--deflect-budget", "2",
                     "--job-deadline", "4000",
                     "--storage-reservations", "on",
                     "--watchdog", "on"]) == 0
        out = capsys.readouterr().out
        assert "overload & degradation" in out
        assert "jobs shed" in out

    def test_default_run_prints_no_degradation_block(self, capsys):
        assert main(["run", *SMALL]) == 0
        assert "overload & degradation" not in capsys.readouterr().out

    def test_negative_capacity_is_config_error(self, capsys):
        assert main(["run", *SMALL, "--queue-capacity", "-1"]) == 2
        assert "queue capacity" in capsys.readouterr().err

    def test_degraded_es_accepted(self, capsys):
        assert main(["run", *SMALL, "--queue-capacity", "8",
                     "--degraded-es", "JobRandom"]) == 0

    def test_unknown_degraded_es_is_config_error(self, capsys):
        assert main(["run", *SMALL, "--degraded-es", "JobMagic"]) == 2

    def test_aging_factor_accepted(self, capsys):
        assert main(["run", *SMALL, "--aging-factor", "0.01"]) == 0

    def test_reservations_reject_other_values(self):
        with pytest.raises(SystemExit):
            main(["run", *SMALL, "--storage-reservations", "maybe"])


class TestOverloadSweepCommand:
    def test_sweep_prints_degradation_table(self, capsys):
        assert main(["sensitivity", "overload-sweep", *SMALL,
                     "--rates", "0.005", "0.3", "--capacities", "4",
                     "--pairs", "JobDataPresent+DataRandom"]) == 0
        out = capsys.readouterr().out
        assert "overload sweep" in out
        assert "shed" in out
        assert "knee" in out

    def test_default_mode_is_still_staleness(self, capsys):
        assert main(["sensitivity", *SMALL, "--delays", "0",
                     "--pairs", "JobLocal+DataDoNothing"]) == 0
        assert "catalog-staleness sensitivity" in capsys.readouterr().out

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["sensitivity", "load-shedding-sweep", *SMALL])

    def test_parallel_workers_accepted(self, capsys):
        assert main(["sensitivity", "overload-sweep", *SMALL,
                     "--rates", "0.005", "--capacities", "4",
                     "--pairs", "JobLocal+DataDoNothing", "-j", "2"]) == 0
        assert "overload sweep" in capsys.readouterr().out


TINY_DAG = ["--users", "4", "--sites", "3", "--datasets", "8",
            "--n-jobs", "16"]


class TestDagCommand:
    def test_campaign_defaults_to_diamond(self, capsys):
        assert main(["dag", *TINY_DAG]) == 0
        out = capsys.readouterr().out
        assert "shape=diamond" in out
        assert "Average response time per job" in out
        assert "Jobs completed" in out

    def test_explicit_shape_and_bulk(self, capsys):
        assert main(["dag", *TINY_DAG, "--dag-shape", "mapreduce",
                     "--dag-width", "2", "--bulk", "on"]) == 0
        out = capsys.readouterr().out
        assert "shape=mapreduce width=2 bulk=on" in out

    def test_run_accepts_dag_knobs(self, capsys):
        assert main(["run", *TINY_DAG, "--dag-shape", "chain"]) == 0
        assert "jobs completed:            16" in capsys.readouterr().out

    def test_bulk_without_shape_is_a_config_error(self, capsys):
        assert main(["run", *TINY_DAG, "--bulk", "on"]) == 2
        assert "bulk submission requires" in capsys.readouterr().err

    def test_dag_with_arrivals_is_a_config_error(self, capsys):
        assert main(["run", *TINY_DAG, "--dag-shape", "diamond",
                     "--arrival-rate", "0.5"]) == 2
        assert "incompatible" in capsys.readouterr().err


class TestDurabilityKnobs:
    def test_armed_run_prints_durability_block(self, capsys):
        assert main(["run", *SMALL, "--corruption-mtbf", "2000",
                     "--replication-factor", "2", "--repair", "on",
                     "--scrub-interval", "600", "--watchdog", "on"]) == 0
        out = capsys.readouterr().out
        assert "data durability:" in out
        assert "replicas repaired:" in out
        assert "datasets lost for good:" in out

    def test_default_run_prints_no_durability_block(self, capsys):
        assert main(["run", *SMALL]) == 0
        assert "data durability" not in capsys.readouterr().out

    def test_scripted_events_are_accepted(self, capsys):
        assert main(["run", *SMALL,
                     "--corrupt-replica", "site00:dataset0000@1800",
                     "--lose-replica", "site01:dataset0001@2400"]) == 0

    def test_bad_replica_spec_is_one_line_exit_2(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", *SMALL, "--corrupt-replica", "nonsense"])

    def test_invalid_fault_plan_is_structured_exit_2(self, capsys):
        code = main(["run", *SMALL, "--corruption-mtbf", "-5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid fault plan [corruption_mtbf_s]")
        assert err.count("\n") == 1  # one line, no traceback

    def test_rf_without_repair_is_config_error(self, capsys):
        code = main(["run", *SMALL, "--replication-factor", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "repair" in err

    def test_negative_scrub_interval_is_config_error(self, capsys):
        assert main(["run", *SMALL, "--scrub-interval", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corruption_sites_without_mtbf_is_plan_error(self, capsys):
        code = main(["run", *SMALL, "--corruption-sites", "site00"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid fault plan [corruption_sites]")


class TestDurabilitySweep:
    def test_sweep_prints_table_and_surviving_rf(self, capsys):
        assert main(["sensitivity", "durability-sweep", *SMALL,
                     "--corruption-mtbfs", "0", "3000",
                     "--rfs", "1", "2", "--scrubs", "600",
                     "--pairs", "JobDataPresent+DataRandom"]) == 0
        out = capsys.readouterr().out
        assert "corruption" in out
        assert "lowest surviving RF" in out

    def test_parallel_workers_accepted(self, capsys):
        assert main(["sensitivity", "durability-sweep", *SMALL,
                     "--corruption-mtbfs", "0", "--rfs", "1",
                     "--scrubs", "0",
                     "--pairs", "JobLocal+DataDoNothing", "-j", "2"]) == 0
        assert "lowest surviving RF" in capsys.readouterr().out


class TestKnobFlags:
    @pytest.mark.parametrize("knob", KNOBS, ids=lambda f: f.name)
    def test_flag_round_trips_to_its_field(self, knob):
        names = [knob.name] + ([NEEDS[knob.name]] if knob.name in NEEDS
                               else [])
        argv = ["run"]
        for name in names:
            argv += [SimulationConfig.__dataclass_fields__[name]
                     .metadata["flag"], SAMPLES[name][0]]
        built = _build_config(build_parser().parse_args(argv))
        expected = SimulationConfig.paper().with_(
            **{name: SAMPLES[name][1] for name in names})
        assert built == expected
        # Equality forgives 2 == 2.0; the cache key does not.
        assert (RunSpec(built, "JobLocal", "DataRandom", 0).cache_key()
                == RunSpec(expected, "JobLocal", "DataRandom",
                           0).cache_key())

    def test_every_sample_names_a_knob(self):
        assert set(SAMPLES) == {knob.name for knob in KNOBS}

    @pytest.mark.parametrize(
        "knob", [f for f in KNOBS if isinstance(f.default, bool)],
        ids=lambda f: f.name)
    def test_off_sets_false(self, knob):
        args = build_parser().parse_args(["run", knob.metadata["flag"], "off"])
        assert _build_config(args) == SimulationConfig.paper()

    def test_storage_gb_converts_to_mb(self):
        args = build_parser().parse_args(["run", "--storage-gb", "8"])
        assert _build_config(args) == SimulationConfig.paper().with_(
            storage_capacity_mb=8000.0)

    def test_every_subcommand_renders_its_help(self):
        """argparse formats help text only on --help, so a stray % in a
        help string would otherwise surface only for the user."""
        todo, rendered = [build_parser()], 0
        while todo:
            parser = todo.pop()
            assert parser.format_help()
            rendered += 1
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    todo.extend(action.choices.values())
        assert rendered == 12  # the top level and all 11 subcommands

    @pytest.mark.parametrize("argv", [
        ["--phi-threshold", "0.5"],
        ["--heartbeat-jitter", "1.5"],
        ["--speculate-multiplier", "0.5"],
        ["--probe-interval", "0"],
        ["--info-refresh", "-1"],
    ], ids=lambda argv: argv[0])
    def test_bad_layer_knob_is_one_error_line(self, argv, capsys):
        assert main(["run", *SMALL, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
