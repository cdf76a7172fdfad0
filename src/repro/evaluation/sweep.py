"""Scenario sweep engine: many experiments, one task graph, shared data.

The paper's results are a *grid* of experiments, not a single run.  Each
sweep axis maps directly onto one of its figures:

``mitigation_costs``
    The 2 / 5 / 10 node–minute cost groups of **Figure 3** (and the cost
    sensitivity discussion of Section 5.2).
``restartable``
    The restartable vs. non-restartable job assumption of **Figure 3**
    (checkpointing on/off, Section 4.3).
``manufacturers``
    The per-DRAM-manufacturer subsystems MN/A, MN/B, MN/C of **Figure 5**
    (Section 5.3); ``None`` is the whole fleet MN/All.
``job_scales``
    The job-size scaling factors 0.1–10× of **Figure 7** (Section 5.6).
``seeds``
    Replicated runs over independent synthetic histories (the confidence
    intervals of Figure 4 and Table 2).

:class:`SweepSpec` crosses a base :class:`~repro.config.ScenarioConfig` with
any subset of these axes; :func:`run_sweep` schedules *all* resulting
(point × split × approach-group) tasks as one dependency-aware graph on the
:mod:`executor <repro.evaluation.executor>` — an 18-task RL chain of one
point can overlap with the forest training of another — instead of N
sequential ``run_experiment`` calls.

Crucially, points that share data-preparation inputs (same fault model and
seed, differing only in evaluation parameters such as the mitigation cost)
reuse **one** :class:`~repro.evaluation.pipeline.PreparedData` product via
the content-keyed :class:`~repro.evaluation.pipeline.PreparedDataCache`, and
points on a data axis still share the raw telemetry/workload logs.  Results
are identical to independent ``run_experiment`` calls because every task
seeds its own keyed random streams — the sweep only removes redundant work,
never reorders randomness.

>>> spec = SweepSpec(
...     base=ScenarioConfig.small(),
...     mitigation_costs=(2.0, 5.0, 10.0),
...     restartable=(True, False),
... )
>>> result = run_sweep(spec, ExperimentConfig.fast())   # doctest: +SKIP
>>> print(result.table())                               # doctest: +SKIP
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import ScenarioConfig
from repro.evaluation.costs import CostBreakdown
from repro.evaluation.executor import ExecutorStats, Task, execute_tasks
from repro.evaluation.pipeline import (
    ExperimentConfig,
    ExperimentResult,
    PreparedData,
    PreparedDataCache,
    aggregate,
    build_split_tasks,
    default_prepared_cache,
    make_splits,
)
from repro.evaluation.report import format_cost_table, format_sweep_table
from repro.telemetry.error_log import ErrorLog
from repro.utils.profiling import StageProfiler
from repro.telemetry.records import MANUFACTURER_NAMES
from repro.workload.job import JobLog

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "assign_shard",
    "run_sweep",
]


# --------------------------------------------------------------------- #
# Sweep specification
# --------------------------------------------------------------------- #
def _format_axis(axis: str, value: Any) -> str:
    """Human-readable ``axis=value`` fragment of a point label."""
    if axis == "mitigation_cost":
        return f"cost={value:g}"
    if axis == "restartable":
        return "restart=on" if value else "restart=off"
    if axis == "manufacturer":
        if value is None:
            return "mfr=all"
        if 0 <= value < len(MANUFACTURER_NAMES):
            return f"mfr={MANUFACTURER_NAMES[value]}"
        return f"mfr={value}"
    if axis == "job_scale":
        return f"scale=x{value:g}"
    if axis == "seed":
        return f"seed={value}"
    return f"{axis}={value}"


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved scenario of a sweep."""

    #: Unique human-readable label, e.g. ``"cost=5,restart=off"``; doubles as
    #: the task-key prefix and the key of :attr:`SweepResult.results`.
    label: str
    #: The base scenario with every axis value applied.
    scenario: ScenarioConfig
    #: The ``(axis, value)`` assignments that produced this point.
    axes: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario crossed with any subset of the paper's sweep axes.

    Axes left at ``None`` are not swept; the cross product of the supplied
    axes defines the points.  An empty spec is the degenerate one-point
    sweep of the base scenario.
    """

    base: ScenarioConfig
    #: Mitigation costs in node–minutes (Figure 3: 2, 5, 10).
    mitigation_costs: Optional[Sequence[float]] = None
    #: Restartable-job assumptions (Figure 3: checkpointing on/off).
    restartable: Optional[Sequence[bool]] = None
    #: DRAM manufacturers, ``None`` entries meaning the whole fleet
    #: (Figure 5: MN/All plus MN/A, MN/B, MN/C).
    manufacturers: Optional[Sequence[Optional[int]]] = None
    #: Job-size scaling factors (Figure 7: 0.1–10×).
    job_scales: Optional[Sequence[float]] = None
    #: Root seeds for replicated synthetic histories.
    seeds: Optional[Sequence[int]] = None

    def _axes(self) -> List[Tuple[str, Tuple[Any, ...]]]:
        """The swept axes, in canonical application order."""
        axes: List[Tuple[str, Tuple[Any, ...]]] = []
        for name, values in (
            ("seed", self.seeds),
            ("manufacturer", self.manufacturers),
            ("job_scale", self.job_scales),
            ("mitigation_cost", self.mitigation_costs),
            ("restartable", self.restartable),
        ):
            if values is not None:
                values = tuple(values)
                if not values:
                    raise ValueError(f"sweep axis {name!r} must not be empty")
                axes.append((name, values))
        return axes

    @property
    def n_points(self) -> int:
        count = 1
        for _, values in self._axes():
            count *= len(values)
        return count

    def points(self) -> Tuple[SweepPoint, ...]:
        """The cross product of all supplied axes, base scenario applied."""
        assignments: List[Tuple[Tuple[str, Any], ...]] = [()]
        for name, values in self._axes():
            assignments = [
                done + ((name, value),) for done in assignments for value in values
            ]
        points: List[SweepPoint] = []
        seen: Dict[str, Tuple[Tuple[str, Any], ...]] = {}
        for axes in assignments:
            scenario = self.base
            for name, value in axes:
                if name == "seed":
                    scenario = scenario.with_seed(value)
                elif name == "manufacturer":
                    scenario = scenario.with_manufacturer(value)
                elif name == "job_scale":
                    scenario = scenario.with_job_scale(value)
                elif name == "mitigation_cost":
                    scenario = scenario.with_mitigation_cost(value)
                elif name == "restartable":
                    scenario = scenario.with_restartable(value)
            label = (
                ",".join(_format_axis(name, value) for name, value in axes)
                or self.base.name
            )
            if label in seen:
                raise ValueError(
                    f"duplicate sweep point {label!r} "
                    f"(axes {seen[label]!r} and {axes!r}); "
                    "remove repeated axis values"
                )
            seen[label] = axes
            points.append(SweepPoint(label=label, scenario=scenario, axes=axes))
        return tuple(points)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import tag

        def axis(values):
            return None if values is None else list(values)

        return tag(
            "sweep_spec",
            {
                "base": self.base.to_dict(),
                "mitigation_costs": axis(self.mitigation_costs),
                "restartable": axis(self.restartable),
                "manufacturers": axis(self.manufacturers),
                "job_scales": axis(self.job_scales),
                "seeds": axis(self.seeds),
            },
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import untag

        payload = untag(data, "sweep_spec")

        def axis(values):
            return None if values is None else tuple(values)

        return cls(
            base=ScenarioConfig.from_dict(payload["base"]),
            mitigation_costs=axis(payload["mitigation_costs"]),
            restartable=axis(payload["restartable"]),
            manufacturers=axis(payload["manufacturers"]),
            job_scales=axis(payload["job_scales"]),
            seeds=axis(payload["seeds"]),
        )


# --------------------------------------------------------------------- #
# Sweep result
# --------------------------------------------------------------------- #
@dataclass
class SweepResult:
    """Everything produced by :func:`run_sweep`."""

    spec: SweepSpec
    points: Tuple[SweepPoint, ...]
    #: Point label -> the point's :class:`ExperimentResult`, exactly as an
    #: independent ``run_experiment`` call would have produced it.
    results: Dict[str, ExperimentResult]
    wallclock_seconds: float
    #: How many :func:`prepare_data` products were actually built (vs. the
    #: number of points — the difference is the cross-scenario cache's win).
    prepare_calls: int = 0
    cache_hits: int = 0
    extras: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, label: str) -> ExperimentResult:
        try:
            return self.results[label]
        except KeyError:
            available = ", ".join(repr(known) for known in self.labels)
            raise KeyError(
                f"unknown sweep point {label!r}; available points: {available}"
            ) from None

    def __len__(self) -> int:
        return len(self.results)

    @property
    def labels(self) -> List[str]:
        return [point.label for point in self.points]

    @property
    def approach_names(self) -> List[str]:
        """Union of approach names across points, canonical order first."""
        names: List[str] = []
        for label in self.labels:
            for name in self.results[label].approach_names:
                if name not in names:
                    names.append(name)
        return names

    def totals(self) -> Dict[str, Dict[str, "Any"]]:
        """Point label -> approach -> :class:`CostBreakdown` (Figure 3/5/7)."""
        return {label: self.results[label].total_costs() for label in self.labels}

    def series(self, approach: str, which: str = "total") -> List[float]:
        """One approach's per-point cost series, in point order.

        Raises a :class:`KeyError` naming the available approaches when
        ``approach`` is unknown, and a :class:`ValueError` naming the
        :class:`~repro.evaluation.costs.CostBreakdown` fields when ``which``
        is not one of them.
        """
        known_fields = CostBreakdown.series_fields()
        if which not in known_fields:
            raise ValueError(
                f"unknown cost series {which!r}; "
                f"available: {', '.join(known_fields)}"
            )
        values = []
        for label in self.labels:
            totals = self.results[label].total_costs()
            if approach not in totals:
                available = ", ".join(repr(name) for name in self.approach_names)
                raise KeyError(
                    f"approach {approach!r} not present at sweep point "
                    f"{label!r}; available approaches: {available}"
                ) from None
            values.append(getattr(totals[approach], which))
        return values

    def table(self, which: str = "total", title: str = "") -> str:
        """Points × approaches cost matrix as aligned text."""
        return format_sweep_table(
            self.totals(), which=which, title=title or f"Sweep — {which} cost"
        )

    def point_table(self, label: str) -> str:
        """One point's full cost breakdown (a Figure 3/5 bar group)."""
        return format_cost_table(self[label].total_costs(), title=label)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`).

        Covers the scientific payload: the spec and every point's result.
        Run diagnostics (``wallclock_seconds``, ``prepare_calls``,
        ``cache_hits``, ``extras``) describe one particular execution, not
        the sweep's outcome, and are deliberately excluded — a sweep resumed
        from a store therefore serializes byte-identically to the run that
        first produced it (the resume round-trip test pins this).
        """
        from repro.serialization import tag

        return tag(
            "sweep_result",
            {
                "spec": self.spec.to_dict(),
                "results": {
                    point.label: self.results[point.label].to_dict()
                    for point in self.points
                },
            },
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepResult":
        """Inverse of :meth:`to_dict` (run diagnostics come back zeroed)."""
        from repro.serialization import SchemaError, untag

        payload = untag(data, "sweep_result")
        spec = SweepSpec.from_dict(payload["spec"])
        points = spec.points()
        results = {
            label: ExperimentResult.from_dict(item)
            for label, item in payload["results"].items()
        }
        missing = [point.label for point in points if point.label not in results]
        if missing:
            raise SchemaError(f"sweep_result payload lacks points {missing!r}")
        return cls(
            spec=spec, points=points, results=results, wallclock_seconds=0.0
        )

    def to_json(self) -> str:
        """Deterministic JSON text of :meth:`to_dict` (sorted keys)."""
        from repro.serialization import canonical_json

        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Inverse of :meth:`to_json`."""
        import json

        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
def assign_shard(
    points: Sequence[SweepPoint], index: int, count: int
) -> Tuple[SweepPoint, ...]:
    """The points of static shard ``index`` out of ``count``.

    Deterministic round-robin over the canonical point order, so N workers
    running ``assign_shard(points, i, N)`` for ``i = 0..N-1`` partition the
    sweep exactly — no store coordination needed, only the shared point
    order every worker derives from the same :class:`SweepSpec`.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return tuple(point for k, point in enumerate(points) if k % count == index)


def run_sweep(
    spec: SweepSpec,
    config: Optional[ExperimentConfig] = None,
    cache: Optional[PreparedDataCache] = None,
    error_log: Optional[ErrorLog] = None,
    job_log: Optional[JobLog] = None,
    store=None,
    shard: Optional[Tuple[int, int]] = None,
) -> SweepResult:
    """Run every point of ``spec`` as one dependency-aware task graph.

    The one experiment driver: ``run_experiment`` is the one-point sweep of
    its scenario.  A sweep is equivalent to — and tested against — one
    ``run_experiment`` call per point, but (a) all points' (split ×
    approach-group) tasks are scheduled together on the executor, so
    ``config.n_workers`` parallelism spans the whole sweep rather than one
    experiment at a time, and (b) points sharing data-preparation inputs
    reuse one prepared dataset through ``cache`` (the process-wide default
    when ``None``).

    ``error_log`` / ``job_log`` optionally substitute externally supplied
    logs for the synthetic generators, exactly as in ``run_experiment``.

    ``store`` optionally attaches a :class:`repro.store.ArtifactStore`:
    points whose result is already on disk are loaded instead of executed,
    every computed point's result is written through (after the task graph
    completes — a run killed mid-graph persists spilled prepared data but
    no point results), and a sweep manifest is recorded — so re-running the
    same spec resumes from disk and only executes the missing points.  ``extras["points_loaded"]`` /
    ``extras["points_computed"]`` report the split.  Externally supplied
    logs bypass the store entirely (their content is not derivable from the
    spec, so stored results would silently mismatch).

    With the process backend, the whole label -> prepared-data map crosses
    into each worker once (points sharing a product are pickled once —
    pickle preserves object identity within one payload), because any
    worker may execute any point's tasks.  Data-axis sweeps with many large
    *distinct* products therefore cost O(points) memory per worker; split
    such sweeps into chunks if that bites.

    Per-point ``wallclock_seconds`` is the whole sweep's wall-clock (the
    points ran concurrently; attributing shares would be fiction); points
    loaded from a store keep the wall-clock of the run that computed them.

    ``shard=(i, n)`` restricts *computation* to static shard ``i`` of ``n``
    (see :func:`assign_shard`) for one worker of a distributed sweep:
    points outside the shard are loaded when the store already holds them
    and otherwise left pending (``extras["points_pending"]``; they are
    absent from the returned result).  Sharding requires a store and no
    external logs — the other workers' results have nowhere else to
    meet — and the sweep manifest is recorded only by the run that
    observes the last point land, so a complete manifest always names a
    complete sweep.
    """
    config = config or ExperimentConfig()
    cache = cache if cache is not None else default_prepared_cache()
    points = spec.points()
    started = time.perf_counter()
    profiler = StageProfiler(enabled=config.profile)
    hits_before, calls_before = cache.hits, cache.prepare_calls

    external_inputs = error_log is not None or job_log is not None
    use_store = store is not None and not external_inputs
    assigned = {point.label for point in points}
    if shard is not None:
        if store is None:
            raise ValueError(
                "run_sweep(shard=...) needs a store: shard workers meet "
                "only through their shared ArtifactStore"
            )
        if external_inputs:
            raise ValueError(
                "run_sweep(shard=...) cannot use external error_log/job_log: "
                "externally supplied logs bypass the store, where shard "
                "workers meet"
            )
        assigned = {
            point.label for point in assign_shard(points, shard[0], shard[1])
        }
    loaded: Dict[str, ExperimentResult] = {}
    if use_store:
        for point in points:
            stored = store.load_result(point.scenario, config)
            if stored is not None:
                loaded[point.label] = stored

    prepared: Dict[str, PreparedData] = {}
    splits_by_label: Dict[str, list] = {}
    tasks: List[Task] = []
    with profiler.stage("prepare_data"):
        for point in points:
            if point.label in loaded or point.label not in assigned:
                continue
            prepared[point.label] = cache.get(
                point.scenario, config, error_log=error_log, job_log=job_log
            )
            splits_by_label[point.label] = make_splits(point.scenario)
            tasks.extend(
                build_split_tasks(
                    prepared[point.label],
                    splits_by_label[point.label],
                    config,
                    label=point.label,
                )
            )

    stats = ExecutorStats()
    with profiler.stage("execute_tasks"):
        outcomes = execute_tasks(
            tasks,
            n_workers=config.n_workers,
            kind=config.executor_kind,
            shared=prepared,
            stats=stats,
        )
    elapsed = time.perf_counter() - started

    results: Dict[str, ExperimentResult] = {}
    with profiler.stage("aggregate"):
        for point in points:
            if point.label in loaded:
                results[point.label] = loaded[point.label]
                continue
            if point.label not in prepared:
                continue  # another shard's point, not yet in the store
            # build_split_tasks prefixes keys only for a non-empty label.
            prefix = f"{point.label}/" if point.label else ""
            point_outcomes = {
                key[len(prefix):]: outcome
                for key, outcome in outcomes.items()
                if key.startswith(prefix)
            }
            results[point.label] = aggregate(
                prepared[point.label],
                splits_by_label[point.label],
                point_outcomes,
                config,
                wallclock_seconds=elapsed,
            )
            if use_store:
                # Persist each point as soon as it is aggregated, so a
                # failure while assembling later points loses as little as
                # possible.
                store.save_result(point.scenario, config, results[point.label])

    available = tuple(point for point in points if point.label in results)
    result = SweepResult(
        spec=spec,
        points=available,
        results=results,
        wallclock_seconds=elapsed,
        prepare_calls=cache.prepare_calls - calls_before,
        cache_hits=cache.hits - hits_before,
        extras={
            "points_loaded": [p.label for p in points if p.label in loaded],
            "points_computed": [
                p.label for p in points if p.label in results and p.label not in loaded
            ],
            "points_pending": [p.label for p in points if p.label not in results],
            # Run diagnostics (never serialized): task-level timing of the
            # whole sweep graph, including the measured critical path.
            "executor_stats": stats,
        },
    )
    if config.profile:
        result.extras["profile"] = profiler.report()
    if use_store and len(available) == len(points):
        store.save_sweep(spec, config, result)
    return result
