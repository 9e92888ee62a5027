"""CSV export of results for external plotting/analysis tools.

Three shapes cover everything the harness produces:

* :func:`matrix_to_csv` — one row per (ES, DS, seed) of a
  :class:`~repro.experiments.runner.MatrixResult` (the Figure 3/4 data).
* :func:`sweep_to_csv` — one row per (cell, seed) of any grid
  :class:`~repro.experiments.sweep.SweepResult` (Figure 5, the
  sensitivity studies).
* :func:`timeseries_to_csv` — one row per sample of a
  :class:`~repro.metrics.timeseries.GridMonitor`.

Columns are the scalar :class:`~repro.metrics.collector.RunMetrics`
fields, stable and documented, so downstream notebooks don't chase our
internals.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, List, Union

from repro.metrics.collector import RunMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import MatrixResult
    from repro.experiments.sweep import SweepResult
    from repro.metrics.timeseries import GridMonitor

PathLike = Union[str, Path]

#: Scalar RunMetrics columns exported, in order.
METRIC_COLUMNS: List[str] = [
    f.name for f in dataclasses.fields(RunMetrics)
    if f.type in ("int", "float")
]


def _metric_row(metrics: RunMetrics) -> List[float]:
    return [getattr(metrics, name) for name in METRIC_COLUMNS]


def matrix_to_csv(result: "MatrixResult", path: PathLike) -> int:
    """Write a matrix sweep as CSV; returns the number of data rows."""
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["es", "ds", "seed"] + METRIC_COLUMNS)
        for (es, ds), runs in sorted(result.runs.items()):
            for seed, metrics in zip(result.seeds, runs):
                writer.writerow([es, ds, seed] + _metric_row(metrics))
                rows += 1
    return rows


def sweep_to_csv(result: "SweepResult", path: PathLike) -> int:
    """Write a grid sweep as CSV (a column per axis); returns the row count."""
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([axis.name for axis in result.axes]
                        + ["es", "ds", "seed"] + METRIC_COLUMNS)
        for es, ds, *values in result.keys():
            for seed, metrics in zip(result.seeds,
                                     result.runs[(es, ds, *values)]):
                writer.writerow(values + [es, ds, seed]
                                + _metric_row(metrics))
                rows += 1
    return rows


def timeseries_to_csv(monitor: "GridMonitor", path: PathLike) -> int:
    """Write a GridMonitor's samples as CSV; returns the row count."""
    from repro.metrics.timeseries import SAMPLED_FIELDS

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time"] + list(SAMPLED_FIELDS))
        for sample in monitor.samples:
            writer.writerow(
                [sample.time]
                + [sample.values[name] for name in SAMPLED_FIELDS])
    return len(monitor.samples)
