"""Grid sweeps: the one engine behind every multi-run experiment.

The paper's evidence is a grid — 4 ES × 3 DS × 3 seeds × 2 bandwidths
(§5.2) — and every robustness study adds axes to it.  :func:`grid_sweep`
runs (ES, DS) pairs × any number of :class:`Axis` × seeds through one
:class:`ParallelRunner` and returns one :class:`SweepResult` keyed
``(es, ds, *values)``.  The 4×3 matrix, seed replication, Figure 5, the
one-field :func:`sweep` and the four sensitivity studies all call it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.faults.plan import FaultPlan
from repro.metrics.collector import RunMetrics
from repro.metrics.summary import MetricSummary

#: Axis-name prefix addressing a field of the config's fault plan.
PLAN_PREFIX = "fault_plan."


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a name and the values it takes.

    ``name`` is a ``SimulationConfig`` field, or ``fault_plan.<field>``
    for a field of the config's plan (no plan counts as the null plan).
    When one value sets several knobs, ``apply(config, value)`` builds
    the cell's config instead and ``name`` is only a label.
    """

    name: str
    values: Tuple[Any, ...]
    apply: Optional[Callable[[SimulationConfig, Any],
                             SimulationConfig]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"no sweep values given for {self.name}")
        if self.apply is not None:
            return
        if self.name.startswith(PLAN_PREFIX):
            plan_field = self.name[len(PLAN_PREFIX):]
            if plan_field not in FaultPlan.__dataclass_fields__:
                raise ValueError(f"{plan_field!r} is not a FaultPlan field")
        elif self.name not in SimulationConfig.__dataclass_fields__:
            raise ValueError(
                f"{self.name!r} is not a SimulationConfig field")

    def set(self, config: SimulationConfig, value: Any) -> SimulationConfig:
        """``config`` with this axis at ``value``."""
        if self.apply is not None:
            return self.apply(config, value)
        if self.name.startswith(PLAN_PREFIX):
            plan = config.fault_plan or FaultPlan()
            return config.with_(fault_plan=plan.with_(
                **{self.name[len(PLAN_PREFIX):]: value}))
        return config.with_(**{self.name: value})


@dataclass(frozen=True)
class Column:
    """A table column showing ``source`` — an axis value or a metric's
    cross-seed mean — through a format spec or a rendering function."""

    header: str
    width: int
    source: str
    fmt: Union[str, Callable[[Any], str]] = ".1f"

    def render(self, value: Any) -> str:
        text = self.fmt(value) if callable(self.fmt) else format(
            value, self.fmt)
        return f"{text:>{self.width}}"


@dataclass
class SweepResult:
    """Per-seed metrics of every cell of one grid sweep."""

    pairs: Tuple[Tuple[str, str], ...]
    axes: Tuple[Axis, ...]
    seeds: Tuple[int, ...]
    #: (es, ds, *one value per axis) → per-seed metrics.
    runs: Dict[Tuple[Any, ...], List[RunMetrics]] = field(default_factory=dict)

    def keys(self) -> List[Tuple[Any, ...]]:
        """Every cell key in grid order: pair, then axes, values as listed."""
        return [(es, ds, *values) for es, ds in self.pairs
                for values in itertools.product(
                    *(axis.values for axis in self.axes))]

    def summary(self, key: Tuple[Any, ...], metric: str) -> MetricSummary:
        """Cross-seed summary of one metric at one cell."""
        return MetricSummary.of(
            [float(getattr(m, metric)) for m in self.runs[tuple(key)]])

    def series(self, metric: str, es_name: str, ds_name: str,
               at: Optional[Mapping[str, Any]] = None,
               ) -> List[Tuple[Any, MetricSummary]]:
        """``(value, summary)`` along the one axis ``at`` leaves free, in
        ascending order of value; ``at`` maps every other axis to a value.
        """
        at = dict(at or {})
        free = [axis for axis in self.axes if axis.name not in at]
        if len(free) != 1:
            raise ValueError(
                f"a series fixes every axis but one; free axes: "
                f"{[axis.name for axis in free]}")
        return [
            (value, self.summary(
                (es_name, ds_name,
                 *(value if axis is free[0] else at[axis.name]
                   for axis in self.axes)), metric))
            for value in sorted(set(free[0].values))]

    def slices(self, along: str) -> Iterator[Tuple[str, str, Dict[str, Any]]]:
        """``(es, ds, at)`` for every series along one axis, in grid
        order: the arguments of a picker reading that series."""
        others = [axis for axis in self.axes if axis.name != along]
        for es_name, ds_name in self.pairs:
            for values in itertools.product(
                    *(axis.values for axis in others)):
                yield es_name, ds_name, {
                    axis.name: value for axis, value in zip(others, values)}

    def table(self, columns: Optional[Sequence[Column]] = None,
              title: Optional[str] = None) -> str:
        """ASCII table, one row per cell in grid order; by default one
        column per axis and the paper's three metrics."""
        if columns is None:
            columns = ([Column(a.name, max(20, len(a.name) + 2), a.name, "")
                        for a in self.axes]
                       + [Column(m, 26, m, ".2f") for m in (
                           "avg_response_time_s", "avg_data_transferred_mb",
                           "idle_fraction")])
        if title is None:
            labels = [f"{es} + {ds}" for es, ds in self.pairs]
            title = (f"sweep of {', '.join(a.name for a in self.axes)} "
                     f"({', '.join(labels)}, {len(self.seeds)} seed(s))")
        lines = [title, f"{'pair':<34}" + "".join(
            f"{column.header:>{column.width}}" for column in columns)]
        names = [axis.name for axis in self.axes]
        for key in self.keys():
            at = dict(zip(names, key[2:]))
            lines.append(f"{key[0] + ' + ' + key[1]:<34}" + "".join(
                column.render(at[column.source] if column.source in at
                              else self.summary(key, column.source).mean)
                for column in columns))
        return "\n".join(lines)


def grid_sweep(
    config: SimulationConfig,
    axes: Sequence[Axis],
    pairs: Sequence[Tuple[str, str]],
    seeds: Sequence[int] = (0,),
    jobs: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """Run every (pair × axis values × seed) cell of a grid.

    A cell's config is ``config`` with each axis set in turn; workloads
    depend only on the seed and workload-shaping fields, so cells that
    differ in environmental axes are paired comparisons.  Specs go to one
    :class:`ParallelRunner` in grid order (pair, axes, seed); ``jobs``
    (worker processes; 1 = serial, None/0 = all cores) and ``cache_dir``
    (the on-disk result cache) never change the result.
    """
    if not pairs:
        raise ValueError("no algorithm pairs given")
    result = SweepResult(pairs=tuple(tuple(pair) for pair in pairs),
                         axes=tuple(axes), seeds=tuple(seeds))
    cells: Dict[Tuple[Any, ...], SimulationConfig] = {}
    for values in itertools.product(*(axis.values for axis in result.axes)):
        cell = config
        for axis, value in zip(result.axes, values):
            cell = axis.set(cell, value)
        cells[values] = cell
    keys = result.keys()
    metrics = ParallelRunner(jobs=jobs, cache_dir=cache_dir).map([
        RunSpec(cells[key[2:]], key[0], key[1], seed)
        for key in keys for seed in result.seeds])
    n = len(result.seeds)
    for index, key in enumerate(keys):
        result.runs[key] = metrics[index * n:(index + 1) * n]
    return result


def sweep(
    config: SimulationConfig,
    parameter: str,
    values: Sequence[Any],
    es_name: str = "JobDataPresent",
    ds_name: str = "DataRandom",
    seeds: Sequence[int] = (0,),
    jobs: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """Run one algorithm pair at every value of one axis (see
    :class:`Axis`), e.g. ``sweep(config, "bandwidth_mbps", (10, 100))``.
    """
    return grid_sweep(config, [Axis(parameter, values)],
                      [(es_name, ds_name)], seeds, jobs, cache_dir)


def best_value(result: SweepResult, metric: str = "avg_response_time_s",
               minimize: bool = True) -> Any:
    """The value optimizing a metric in a one-pair, one-axis sweep (the
    smallest such value on a tie)."""
    ((es_name, ds_name),) = result.pairs
    pick = min if minimize else max
    return pick(result.series(metric, es_name, ds_name),
                key=lambda point: point[1].mean)[0]
