"""Experiment harness: configuration, runners, and paper reproductions.

* :mod:`~repro.experiments.config` — :class:`SimulationConfig`, whose
  defaults are exactly Table 1 of the paper.
* :mod:`~repro.experiments.runner` — build-and-run helpers: one run, seed
  replications, the 4×3 algorithm matrix, the full 72-run study.
* :mod:`~repro.experiments.parallel` — process-pool fan-out of
  independent runs with deterministic merging and an on-disk result
  cache (``run_matrix(..., jobs=N)``).
* :mod:`~repro.experiments.sweep` — the one grid-sweep engine (pairs ×
  axes × seeds) behind the matrix, Figure 5 and every sensitivity study.
* :mod:`~repro.experiments.paper` — entry points that regenerate each
  figure/table of §5 and return the same rows/series the paper plots.
"""

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import ParallelRunner, ResultCache, RunSpec
from repro.experiments.persistence import load_matrix, save_matrix
from repro.experiments.sweep import Axis, SweepResult, grid_sweep, sweep
from repro.experiments.runner import (
    MatrixResult,
    build_grid,
    run_matrix,
    run_replicated,
    run_single,
)
from repro.experiments.paper import (
    reproduce_figure2,
    reproduce_figure3_and_4,
    reproduce_figure5,
    table1_parameters,
)

__all__ = [
    "Axis",
    "MatrixResult",
    "ParallelRunner",
    "ResultCache",
    "RunSpec",
    "SimulationConfig",
    "build_grid",
    "grid_sweep",
    "SweepResult",
    "load_matrix",
    "save_matrix",
    "sweep",
    "reproduce_figure2",
    "reproduce_figure3_and_4",
    "reproduce_figure5",
    "run_matrix",
    "run_replicated",
    "run_single",
    "table1_parameters",
]
