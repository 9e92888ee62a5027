"""Unit tests for SimulationConfig (Table 1)."""

import pytest

from repro.experiments.config import (
    SCENARIO_1_BANDWIDTH,
    SCENARIO_2_BANDWIDTH,
    SimulationConfig,
)
from repro.experiments.parallel import RunSpec
from repro.faults.plan import FaultPlan


class TestTable1:
    """The defaults must encode Table 1 of the paper verbatim."""

    def test_users(self):
        assert SimulationConfig.paper().n_users == 120

    def test_sites(self):
        assert SimulationConfig.paper().n_sites == 30

    def test_processors_per_site(self):
        c = SimulationConfig.paper()
        assert (c.min_processors_per_site, c.max_processors_per_site) == (2, 5)

    def test_datasets(self):
        assert SimulationConfig.paper().n_datasets == 200

    def test_bandwidth_scenarios(self):
        assert SCENARIO_1_BANDWIDTH == 10.0
        assert SCENARIO_2_BANDWIDTH == 100.0
        assert SimulationConfig.paper().bandwidth_mbps == 10.0
        assert SimulationConfig.paper(
            bandwidth_mbps=SCENARIO_2_BANDWIDTH).bandwidth_mbps == 100.0

    def test_jobs(self):
        assert SimulationConfig.paper().n_jobs == 6000

    def test_workload_constants(self):
        c = SimulationConfig.paper()
        assert c.min_dataset_mb == 500.0
        assert c.max_dataset_mb == 2000.0
        assert c.compute_seconds_per_gb == 300.0
        assert c.inputs_per_job == 1
        assert c.popularity_model == "geometric"

    def test_table1_rows_render(self):
        rows = SimulationConfig.paper().table1()
        assert rows["Total number of users"] == "120"
        assert rows["Number of Sites"] == "30"
        assert rows["Compute Elements/Site"] == "2-5"
        assert rows["Total number of Datasets"] == "200"
        assert rows["Connectivity Bandwidth"] == "10 MB/sec"
        assert rows["Size of Workload"] == "6000 jobs"


class TestValidation:
    def test_jobs_fewer_than_users_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_users=100, n_jobs=50)

    def test_bad_processor_range_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(min_processors_per_site=5,
                             max_processors_per_site=2)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(bandwidth_mbps=0)

    def test_storage_below_largest_dataset_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(storage_capacity_mb=1000.0)


class TestScaling:
    def test_scaled_preserves_ratios_roughly(self):
        c = SimulationConfig.paper().scaled(0.1)
        assert c.n_sites == 3
        assert c.n_users == 12
        assert c.n_datasets == 20
        assert c.n_jobs == 600

    def test_scaled_keeps_other_fields(self):
        c = SimulationConfig.paper().scaled(0.1)
        assert c.bandwidth_mbps == 10.0
        assert c.compute_seconds_per_gb == 300.0

    def test_scaled_floors(self):
        c = SimulationConfig.paper().scaled(0.001)
        assert c.n_sites >= 2
        assert c.n_users >= c.n_sites
        assert c.n_jobs >= c.n_users

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            SimulationConfig.paper().scaled(0)


class TestWith:
    def test_with_replaces_fields(self):
        c = SimulationConfig.paper().with_(bandwidth_mbps=100.0, seed=7)
        assert c.bandwidth_mbps == 100.0
        assert c.seed == 7
        assert c.n_jobs == 6000

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            SimulationConfig.paper().n_jobs = 5


class TestNullFaultPlan:
    def test_null_plan_is_no_plan(self):
        config = SimulationConfig(fault_plan=FaultPlan.none())
        assert config.fault_plan is None
        assert config == SimulationConfig()
        assert (RunSpec(config, "JobLocal", "DataRandom", 0).cache_key()
                == RunSpec(SimulationConfig(), "JobLocal", "DataRandom",
                           0).cache_key())

    def test_nulled_plan_is_dropped(self):
        plan = FaultPlan(site_mtbf_s=3600.0)
        config = SimulationConfig(fault_plan=plan)
        assert config.fault_plan == plan
        assert config.with_(fault_plan=plan.with_(site_mtbf_s=0.0)) \
            .fault_plan is None
