"""Unit tests for the grid-sweep engine, each study's cells and pickers.

Nothing here simulates: ``ParallelRunner.map`` is swapped for a
recorder, and the pickers read hand-built results.
"""

import csv
import dataclasses
from types import SimpleNamespace

import pytest

from repro import SimulationConfig
from repro.experiments import sensitivity as study
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.sweep import Axis, SweepResult, best_value, grid_sweep
from repro.faults.plan import FaultPlan, NetworkPartition
from repro.metrics.collector import RunMetrics
from repro.metrics.export import sweep_to_csv

PAIRS = (("JobDataPresent", "DataLeastLoaded"),
         ("JobLeastLoaded", "DataDoNothing"))
SEEDS = (0, 1)
PLAIN = SimulationConfig.paper().scaled(0.05)
OWN_PARTITION = NetworkPartition(sites=("site01",), start_s=100.0,
                                 end_s=200.0)
#: A non-null plan of the config's own, and heartbeats already on.
ARMED = PLAIN.with_(
    fault_plan=FaultPlan(transfer_fail_prob=0.01,
                         partitions=(OWN_PARTITION,)),
    health_heartbeat_s=20.0)


@pytest.fixture
def recorded(monkeypatch):
    """Every spec submitted to a runner; each "result" is its spec."""
    specs = []

    def record(self, batch):
        specs.extend(batch)
        return list(batch)

    monkeypatch.setattr(ParallelRunner, "map", record)
    return specs


def _specs(cells, pairs=PAIRS, seeds=SEEDS):
    """Hand-built specs: pair, then cells in grid order, then seed."""
    return [RunSpec(config, es, ds, seed)
            for es, ds in pairs for config in cells for seed in seeds]


def _assert_same_runs(recorded, expected):
    assert recorded == expected
    # Equality forgives 0 == 0.0; the cache key does not.
    assert ([spec.cache_key() for spec in recorded]
            == [spec.cache_key() for spec in expected])


def _plan(config, **changes):
    """The config's plan with ``changes``; None when that is null."""
    plan = dataclasses.replace(config.fault_plan or FaultPlan(), **changes)
    return None if plan.is_null else plan


class TestStudyCells:
    @pytest.mark.parametrize("config", [PLAIN, ARMED], ids=["plain", "armed"])
    def test_staleness(self, recorded, config):
        grid_sweep(config, study.staleness_axes([0, 300]), PAIRS, SEEDS)
        _assert_same_runs(recorded, _specs(
            [config.with_(catalog_delay_s=0.0),
             config.with_(catalog_delay_s=300.0)]))

    @pytest.mark.parametrize("config", [PLAIN, ARMED], ids=["plain", "armed"])
    def test_overload_goes_capacity_first(self, recorded, config):
        grid_sweep(config, study.overload_axes([0.02, 0.2], [4, 16]),
                   PAIRS, SEEDS)
        _assert_same_runs(recorded, _specs(
            [config.with_(queue_capacity=capacity, arrival_rate_per_s=rate)
             for capacity in (4, 16) for rate in (0.02, 0.2)]))

    @pytest.mark.parametrize("config, heartbeat", [(PLAIN, 30.0),
                                                   (ARMED, 20.0)],
                             ids=["plain", "armed"])
    def test_recovery(self, recorded, config, heartbeat):
        grid_sweep(config, study.recovery_axes([2, 6], [0, 3600]),
                   PAIRS, SEEDS)
        # 0.05 scale has 2 sites: the canonical partition cuts one off.
        canonical = NetworkPartition(sites=("site00",), start_s=1800.0,
                                     end_s=3600.0)
        own = config.fault_plan.partitions if config.fault_plan else ()
        cells = [
            config.with_(
                fault_plan=_plan(config, site_mtbf_s=mtbf,
                                 partitions=own + ((canonical,) if part
                                                   else ())),
                health_heartbeat_s=heartbeat, health_phi_threshold=phi)
            for part in (False, True) for mtbf in (0.0, 3600.0)
            for phi in (2.0, 6.0)]
        _assert_same_runs(recorded, _specs(cells))
        assert {spec.config.health_heartbeat_s
                for spec in recorded} == {heartbeat}
        first = recorded[0].config.fault_plan
        assert (first is None) == (config is PLAIN)
        last = recorded[-1].config.fault_plan
        assert last.partitions == own + (canonical,)

    @pytest.mark.parametrize("config", [PLAIN, ARMED], ids=["plain", "armed"])
    def test_durability(self, recorded, config):
        grid_sweep(config, study.durability_axes([0, 3000], [1, 2], [600]),
                   PAIRS, SEEDS)
        cells = [
            config.with_(fault_plan=_plan(config, corruption_mtbf_s=mtbf),
                         replication_factor=rf, durability_repair=rf > 1,
                         scrub_interval_s=600.0)
            for mtbf in (0.0, 3000.0) for rf in (1, 2)]
        _assert_same_runs(recorded, _specs(cells))
        assert [spec.config.durability_repair for spec in recorded[::2]] \
            == [False, True] * 4


class TestEngine:
    def test_results_are_keyed_pair_then_values(self, recorded):
        axes = [Axis("bandwidth_mbps", (10.0, 100.0)),
                Axis("catalog_delay_s", (0.0, 60.0))]
        result = grid_sweep(PLAIN, axes, PAIRS, SEEDS)
        assert list(result.runs) == result.keys() == [
            (es, ds, bw, delay) for es, ds in PAIRS
            for bw in (10.0, 100.0) for delay in (0.0, 60.0)]
        for (es, ds, bw, delay), specs in result.runs.items():
            assert [spec.seed for spec in specs] == list(SEEDS)
            assert {(spec.es_name, spec.ds_name, spec.config.bandwidth_mbps,
                     spec.config.catalog_delay_s) for spec in specs} \
                == {(es, ds, bw, delay)}

    def test_no_axes_is_the_matrix(self, recorded):
        result = grid_sweep(PLAIN, (), PAIRS, SEEDS)
        assert list(result.runs) == list(PAIRS)
        _assert_same_runs(recorded, _specs([PLAIN]))

    def test_fault_plan_axis_edits_the_configs_plan(self, recorded):
        axis = Axis("fault_plan.site_mtbf_s", (0.0, 3600.0))
        grid_sweep(PLAIN, [axis], PAIRS[:1], (0,))
        grid_sweep(ARMED, [axis], PAIRS[:1], (0,))
        plans = [spec.config.fault_plan for spec in recorded]
        assert plans == [
            None, FaultPlan(site_mtbf_s=3600.0),
            ARMED.fault_plan.with_(site_mtbf_s=0.0),
            ARMED.fault_plan.with_(site_mtbf_s=3600.0)]

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="not a SimulationConfig field"):
            Axis("warp_factor", (1,))
        with pytest.raises(ValueError, match="not a FaultPlan field"):
            Axis("fault_plan.warp_factor", (1,))
        # With apply, the name is only a label.
        Axis("warp_factor", (1,), apply=lambda config, value: config)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no sweep values"):
            Axis("bandwidth_mbps", ())

    def test_empty_pair_list_rejected(self, recorded):
        with pytest.raises(ValueError, match="no algorithm pairs"):
            grid_sweep(PLAIN, [Axis("bandwidth_mbps", (10.0,))], ())
        assert recorded == []

    def test_bad_value_raises_before_any_run(self, recorded):
        """A cell the config rejects stops the sweep before it submits."""
        axis = Axis("health_phi_threshold", (3.0, 0.5))
        with pytest.raises(ValueError, match="phi threshold"):
            grid_sweep(PLAIN.with_(health_heartbeat_s=20.0), [axis], PAIRS,
                       SEEDS)
        assert recorded == []

    def test_series_needs_exactly_one_free_axis(self):
        result = _result([Axis("queue_capacity", (4,)),
                          Axis("arrival_rate_per_s", (0.1,))],
                         {(4, 0.1): [{"avg_response_time_s": 1.0}]})
        with pytest.raises(ValueError, match="every axis but one"):
            result.series("avg_response_time_s", "ES", "DS")


# ---- pickers on hand-built results ------------------------------------------

def _result(axes, cells, pairs=(("ES", "DS"),)):
    """A SweepResult whose cell ``values`` holds one namespace per seed."""
    seeds = len(next(iter(cells.values())))
    return SweepResult(
        pairs=pairs, axes=tuple(axes), seeds=tuple(range(seeds)),
        runs={(es, ds, *values): [SimpleNamespace(**m) for m in runs]
              for es, ds in pairs for values, runs in cells.items()})


def _response(axis, responses):
    return _result([axis], {(value,): [{"avg_response_time_s": r}]
                            for value, r in responses.items()})


class TestPickers:
    """Every picker reads its axis in ascending order, whatever order the
    values were listed in."""

    @pytest.mark.parametrize("listed", [(0.0, 300.0), (300.0, 0.0)])
    def test_degradation_is_relative_to_the_smallest_delay(self, listed):
        result = _response(Axis("catalog_delay_s", listed),
                           {0.0: 100.0, 300.0: 200.0})
        assert study.degradation(result, "ES", "DS") == 2.0

    def test_degradation_of_an_idle_pair_is_one(self):
        result = _response(Axis("catalog_delay_s", (0.0, 300.0)),
                           {0.0: 0.0, 300.0: 50.0})
        assert study.degradation(result, "ES", "DS") == 1.0

    @pytest.mark.parametrize("listed", [(0.1, 0.2, 0.4), (0.4, 0.2, 0.1)])
    def test_knee_is_the_lowest_rate_past_the_factor(self, listed):
        result = _result(
            [Axis("queue_capacity", (4,)),
             Axis("arrival_rate_per_s", listed)],
            {(4, rate): [{"avg_response_time_s": r}]
             for rate, r in {0.1: 100.0, 0.2: 300.0, 0.4: 500.0}.items()})
        at = {"queue_capacity": 4}
        assert study.knee(result, "ES", "DS", at) == 0.2
        assert study.knee(result, "ES", "DS", at, factor=4.5) == 0.4
        assert study.knee(result, "ES", "DS", at, factor=10.0) is None

    @pytest.mark.parametrize("listed", [(2.0, 6.0), (6.0, 2.0)])
    def test_safe_threshold_is_the_lowest_quiet_phi(self, listed):
        axis = Axis("health_phi_threshold", listed)
        quiet = _result([axis], {(phi,): [{"false_positive_rate": 0.0}]
                                 for phi in listed})
        assert study.safe_threshold(quiet, "ES", "DS", {}) == 2.0
        noisy = _result([axis], {(2.0,): [{"false_positive_rate": 0.5}],
                                 (6.0,): [{"false_positive_rate": 0.0}]})
        assert study.safe_threshold(noisy, "ES", "DS", {}) == 6.0
        assert study.safe_threshold(noisy, "ES", "DS", {},
                                    max_fp_rate=-1.0) is None

    @pytest.mark.parametrize("listed", [(1, 2, 3), (3, 2, 1)])
    def test_surviving_rf_needs_every_seed_lossless(self, listed):
        axis = Axis("replication_factor", listed,
                    apply=lambda config, rf: config)
        lost = {1: (2, 3), 2: (0, 1), 3: (0, 0)}
        result = _result([axis], {(rf,): [{"datasets_lost": n}
                                          for n in lost[rf]]
                                  for rf in listed})
        assert study.surviving_rf(result, "ES", "DS", {}) == 3
        every_rf_loses = _result([axis], {(rf,): [{"datasets_lost": 1}]
                                          for rf in listed})
        assert study.surviving_rf(every_rf_loses, "ES", "DS", {}) is None

    def test_best_value_reads_the_series(self):
        result = _response(Axis("bandwidth_mbps", (100.0, 5.0, 10.0)),
                           {5.0: 30.0, 10.0: 20.0, 100.0: 20.0})
        assert best_value(result) == 10.0
        assert best_value(result, minimize=False) == 5.0


class TestRendering:
    def test_tables_keep_the_listed_order(self):
        result = _result(
            [Axis("health_phi_threshold", (6.0, 2.0)),
             Axis("partition", (True,), apply=lambda config, part: config)],
            {(phi, True): [{"false_positive_rate": fp, "goodput": 0.5,
                            "mean_detection_latency_s": 1.0,
                            "speculative_wasted_s": 0.0}]
             for phi, fp in ((6.0, 0.0), (2.0, 0.25))})
        table = result.table(study.RECOVERY_COLUMNS[:1]
                             + study.RECOVERY_COLUMNS[2:5], "title")
        assert table.splitlines() == [
            "title",
            "pair                                phi  part  detect (s)"
            "  fp rate",
            "ES + DS                               6   yes         1.0"
            "    0.000",
            "ES + DS                               2   yes         1.0"
            "    0.250",
        ]

    def test_default_table_keeps_long_axis_names_apart(self):
        metrics = ("avg_response_time_s", "avg_data_transferred_mb",
                   "idle_fraction")
        result = _result([Axis("bandwidth_mbps", (10,)),
                          Axis("fault_plan.site_mtbf_s", (0,))],
                         {(10, 0): [{m: 1.0 for m in metrics}]})
        title, header, row = result.table().splitlines()
        assert title == ("sweep of bandwidth_mbps, fault_plan.site_mtbf_s "
                         "(ES + DS, 1 seed(s))")
        assert "bandwidth_mbps  fault_plan.site_mtbf_s" in header
        assert row.split() == ["ES", "+", "DS", "10", "0", "1.00", "1.00",
                               "1.00"]

    def test_csv_has_one_column_per_axis(self, tmp_path):
        axes = [Axis("queue_capacity", (4,)),
                Axis("arrival_rate_per_s", (0.1, 0.2))]
        fields = {f.name: 0 for f in dataclasses.fields(RunMetrics)
                  if f.default is dataclasses.MISSING}
        result = SweepResult(
            pairs=PAIRS, axes=tuple(axes), seeds=(7,),
            runs={(es, ds, 4, rate): [RunMetrics(**fields)]
                  for es, ds in PAIRS for rate in (0.1, 0.2)})
        path = tmp_path / "grid.csv"
        assert sweep_to_csv(result, path) == 4
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["queue_capacity"], r["arrival_rate_per_s"], r["es"],
                 r["seed"]) for r in rows] == [
            ("4", "0.1", "JobDataPresent", "7"),
            ("4", "0.2", "JobDataPresent", "7"),
            ("4", "0.1", "JobLeastLoaded", "7"),
            ("4", "0.2", "JobLeastLoaded", "7")]
