"""Evaluation methodology of Section 4: nested cross-validation, cost–benefit
accounting in node–hours, classical ML metrics, agent-behaviour maps and the
scenario engine that reproduces the paper's figures and tables.

The engine is layered: a pluggable approach :mod:`registry
<repro.evaluation.registry>`, a staged :mod:`pipeline
<repro.evaluation.pipeline>` of pure functions, and a parallel
:mod:`executor <repro.evaluation.executor>` — composed by one driver,
:func:`~repro.evaluation.sweep.run_sweep`; ``run_experiment`` is its
one-point call.

This package re-exports the *public* evaluation surface: configs, result
types, the ``run_experiment`` / ``run_sweep`` entry points, the approach
registry, the policy-replay helpers and the report formatters.  Pipeline
internals (the individual stages, the executor, the content keys and cache
handles) live in — and must be imported from — their home modules:
:mod:`repro.evaluation.pipeline` and :mod:`repro.evaluation.executor`.
(The package-level aliases for those internals were deprecated for one
release and have been removed.)
"""

from repro.evaluation.behavior import BehaviorGrid, behavior_grid
from repro.evaluation.costs import CostBreakdown
from repro.evaluation.cross_validation import TimeSeriesNestedCV, TimeSeriesSplit
from repro.evaluation.experiment import (
    APPROACH_ORDER,
    ApproachResult,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.evaluation.metrics import ConfusionCounts
from repro.evaluation.pipeline import PreparedData, PreparedDataCache
from repro.evaluation.registry import (
    ApproachSpec,
    approach_order,
    approach_specs,
    enabled_specs,
    ensure_sc20_variants,
    get_approach,
    register_approach,
    register_sc20_variant,
    unregister_approach,
)
from repro.evaluation.runner import (
    EvaluationTrace,
    PolicyEvaluation,
    build_traces,
    evaluate_policies,
    evaluate_policy,
    replay_decision_masks,
)
from repro.evaluation.report import (
    format_cost_table,
    format_metrics_table,
    format_series,
    format_sweep_table,
)
from repro.evaluation.sweep import SweepPoint, SweepResult, SweepSpec, run_sweep

__all__ = [
    "APPROACH_ORDER",
    "ApproachResult",
    "ApproachSpec",
    "BehaviorGrid",
    "ConfusionCounts",
    "CostBreakdown",
    "EvaluationTrace",
    "ExperimentConfig",
    "ExperimentResult",
    "PolicyEvaluation",
    "PreparedData",
    "PreparedDataCache",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "TimeSeriesNestedCV",
    "TimeSeriesSplit",
    "approach_order",
    "approach_specs",
    "behavior_grid",
    "build_traces",
    "enabled_specs",
    "ensure_sc20_variants",
    "evaluate_policies",
    "evaluate_policy",
    "format_cost_table",
    "format_metrics_table",
    "format_series",
    "format_sweep_table",
    "get_approach",
    "register_approach",
    "register_sc20_variant",
    "replay_decision_masks",
    "run_experiment",
    "run_sweep",
    "unregister_approach",
]
