"""Entry points that regenerate each figure and table of the paper's §5.

Every function returns plain data structures (and the benchmarks print
them), so results can be compared against the published figures:

* :func:`table1_parameters` — Table 1.
* :func:`reproduce_figure2` — the dataset-popularity histogram.
* :func:`reproduce_figure3_and_4` — the 4×3 matrix behind Figures 3a
  (response time), 3b (data transferred/job), and 4 (processor idle %).
* :func:`reproduce_figure5` — response time per ES at 10 vs 100 MB/s with
  DS = DataLeastLoaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.config import (
    SCENARIO_1_BANDWIDTH,
    SCENARIO_2_BANDWIDTH,
    SimulationConfig,
)
from repro.experiments.runner import MatrixResult, make_workload, run_matrix
from repro.experiments.sweep import Axis, grid_sweep
from repro.scheduling.registry import ALL_DS, ALL_ES


def table1_parameters(config: SimulationConfig = None) -> Dict[str, str]:
    """Table 1: the simulation parameters used in the study."""
    if config is None:
        config = SimulationConfig.paper()
    return config.table1()


def reproduce_figure2(
    config: SimulationConfig = None,
    seed: int = 0,
    top_n: int = 60,
) -> List[Tuple[str, int]]:
    """Figure 2: requests per dataset under the geometric distribution.

    Returns (dataset name, request count) for the ``top_n`` most requested
    datasets, most popular first — the paper plots 60 of its 200.
    """
    if config is None:
        config = SimulationConfig.paper()
    workload = make_workload(config, seed)
    counts = workload.request_counts()
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_n]


@dataclass
class Figure345Result:
    """The full §5.3 result set (Figures 3a, 3b, and 4 share one sweep)."""

    matrix: MatrixResult

    def figure3a(self) -> Dict[Tuple[str, str], float]:
        """Average response time per job (seconds), ES × DS."""
        return self.matrix.metric_matrix("avg_response_time_s")

    def figure3b(self) -> Dict[Tuple[str, str], float]:
        """Average data transferred per job (MB), ES × DS."""
        return self.matrix.metric_matrix("avg_data_transferred_mb")

    def figure4(self) -> Dict[Tuple[str, str], float]:
        """Average processor idle time (percent), ES × DS."""
        return self.matrix.metric_matrix("idle_percent")


def reproduce_figure3_and_4(
    config: SimulationConfig = None,
    seeds: Sequence[int] = (0, 1, 2),
    jobs: int = 1,
    cache_dir=None,
) -> Figure345Result:
    """Run the 12-combination sweep behind Figures 3a, 3b, and 4.

    Results are "the average over the three experiments performed for each
    algorithm pair" (§5.3).  ``jobs``/``cache_dir`` fan the 36 runs out
    over worker processes and reuse cached results, exactly as in
    :func:`~repro.experiments.runner.run_matrix`.
    """
    if config is None:
        config = SimulationConfig.paper()
    return Figure345Result(
        run_matrix(config, ALL_ES, ALL_DS, seeds,
                   jobs=jobs, cache_dir=cache_dir))


def reproduce_figure5(
    config: SimulationConfig = None,
    seeds: Sequence[int] = (0, 1, 2),
    ds_name: str = "DataLeastLoaded",
    jobs: int = 1,
    cache_dir=None,
) -> Dict[str, Dict[str, float]]:
    """Figure 5: response times for the two bandwidth scenarios.

    Returns ``{"10MB/sec": {es: seconds}, "100MB/sec": {es: seconds}}``
    using the replication algorithm the paper's caption specifies
    (DataLeastLoaded).
    """
    if config is None:
        config = SimulationConfig.paper()
    bandwidths = (SCENARIO_1_BANDWIDTH, SCENARIO_2_BANDWIDTH)
    grid = grid_sweep(config, [Axis("bandwidth_mbps", bandwidths)],
                      [(es, ds_name) for es in ALL_ES], seeds,
                      jobs=jobs, cache_dir=cache_dir)
    return {f"{bandwidth:g}MB/sec": {
        es: grid.summary((es, ds_name, bandwidth), "avg_response_time_s").mean
        for es in ALL_ES} for bandwidth in bandwidths}


#: The qualitative claims of §5.3/§5.4 that a faithful reproduction must
#: exhibit; tests/integration/test_paper_claims.py asserts each of these.
PAPER_CLAIMS = (
    "C1: without replication, JobLocal beats JobDataPresent on response time",
    "C2: with replication, JobDataPresent has the best response time of all "
    "ES algorithms, and beats the best no-replication configuration",
    "C3: JobDataPresent transfers far less data per job than every other ES",
    "C4: replication does not improve JobRandom/JobLeastLoaded/JobLocal "
    "response times (same or worse)",
    "C5: DataRandom and DataLeastLoaded perform about the same",
    "C6: at 10x bandwidth, JobLocal's response time is within a small "
    "factor of JobDataPresent's (no clear winner)",
)
