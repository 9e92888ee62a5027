"""Unit tests for SimulationConfig (Table 1)."""

import pytest

from repro.experiments.config import (
    SCENARIO_1_BANDWIDTH,
    SCENARIO_2_BANDWIDTH,
    SimulationConfig,
)
from repro.experiments.parallel import RunSpec
from repro.faults.plan import FaultPlan
from repro.grid.durability import DurabilityPolicy
from repro.grid.health import HealthPolicy
from repro.grid.overload import OverloadPolicy
from repro.grid.staleness import InfoPolicy


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

    @pytest.mark.parametrize("change", [
        {"topology": "bogus"},
        {"allocator": "bogus"},
        {"popularity_model": "bogus"},
        {"local_scheduler": "bogus"},
        {"degraded_es": "JobMagic"},
        {"health_phi_threshold": 0.5},
        {"health_heartbeat_jitter": 1.5},
        {"speculate_multiplier": 0.5},
        {"health_probe_interval_s": 0.0},
        {"info_refresh_interval_s": -1.0},
    ], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
    def test_layer_and_name_checks_run_at_construction(self, change):
        """Values a policy or registry rejects fail before any run."""
        with pytest.raises(ValueError):
            SimulationConfig.paper().with_(**change)

    def test_every_registered_name_is_accepted(self):
        from repro.scheduling.registry import ALL_LS, ES_NAMES

        for name in ALL_LS:
            SimulationConfig(local_scheduler=name)
        for name in ES_NAMES:
            SimulationConfig(degraded_es=name)


class TestLayerPolicies:
    def test_paper_config_arms_only_stale_load_info(self):
        config = SimulationConfig.paper()
        assert config.info_policy() == InfoPolicy(refresh_interval_s=300.0)
        assert config.overload_policy() is None
        assert config.health_policy() is None
        assert config.durability_policy() is None
        assert config.with_(info_refresh_interval_s=0.0).info_policy() is None

    def test_policies_mirror_the_flat_knobs(self):
        config = SimulationConfig.paper().with_(
            info_refresh_interval_s=0.0, catalog_delay_s=60.0,
            info_timeout_s=30.0, queue_capacity=8, deflect_budget=2,
            job_deadline_s=900.0, aging_factor=0.1, degraded_es="JobLocal",
            storage_reservations=True, health_heartbeat_s=20.0,
            health_heartbeat_jitter=0.1, health_phi_threshold=4.0,
            health_probe_interval_s=300.0, health_observed_only=True,
            speculate_quantile=0.9, speculate_multiplier=3.0,
            replication_factor=2, durability_repair=True,
            scrub_interval_s=600.0, repair_placement="forecast")
        assert config.info_policy() == InfoPolicy(
            refresh_interval_s=0.0, catalog_delay_s=60.0,
            query_timeout_s=30.0)
        assert config.overload_policy() == OverloadPolicy(
            queue_capacity=8, deflect_budget=2, job_deadline_s=900.0,
            aging_factor=0.1, degraded_es="JobLocal",
            storage_reservations=True)
        # The backoff cap never sits below the probe interval.
        assert config.health_policy() == HealthPolicy(
            heartbeat_interval_s=20.0, heartbeat_jitter=0.1,
            phi_threshold=4.0, probe_interval_s=300.0,
            probe_backoff_cap_s=300.0, observed_only=True,
            speculate_quantile=0.9, speculate_multiplier=3.0)
        assert config.durability_policy() == DurabilityPolicy(
            replication_factor=2, repair=True, scrub_interval_s=600.0,
            placement="forecast")


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
