"""End-to-end experiment driver reproducing the paper's evaluation.

The evaluation is composed of three explicit layers:

:mod:`repro.evaluation.registry`
    A pluggable registry of the approaches under evaluation (Section 4.2).
    Each approach — Never/Always-mitigate, the SC20-RF family, Myopic-RF,
    the RL agent, the Oracle — is an ``ApproachSpec`` with a
    ``build(ctx, config, rng) -> MitigationPolicy`` factory.  New approaches
    register themselves; this module never has to change.
:mod:`repro.evaluation.pipeline`
    Pure stages, each returning a serializable dataclass:
    ``prepare_data`` (telemetry + workload generation, reduction, Table 1
    feature tracks), ``make_splits`` (the Figure 2 nested cross-validation
    layout), ``train_split`` / ``evaluate_split`` (per-split model training
    and test-range replay), and ``aggregate`` (the
    :class:`ExperimentResult` behind Figures 3, 4, 5, 7 and Table 2).
:mod:`repro.evaluation.executor`
    A dependency-aware task runner.  The driver schedules one task per
    (split × approach group) and runs them on a process pool when
    ``ExperimentConfig.n_workers > 1``.  Every task seeds its own random
    streams from keyed :class:`~repro.utils.rng.RngFactory` streams, so
    parallel and serial schedules produce identical results (set
    ``charge_training_time=False`` to also zero out the wall-clock
    training-cost accounting, the only non-deterministic quantity).

There is one driver, :func:`repro.evaluation.sweep.run_sweep`: a single
experiment is the one-point sweep of its scenario.  :func:`run_experiment`
keeps the historical public signature as that one-point call; the
re-exported :class:`ExperimentConfig`, :class:`ExperimentResult` and
:class:`ApproachResult` live in :mod:`repro.evaluation.pipeline`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import ScenarioConfig
from repro.evaluation.pipeline import (
    ApproachResult,
    ExperimentConfig,
    ExperimentResult,
    PreparedDataCache,
)
from repro.evaluation.registry import approach_order
from repro.evaluation.sweep import SweepSpec, run_sweep
from repro.telemetry.error_log import ErrorLog
from repro.workload.job import JobLog

__all__ = [
    "APPROACH_ORDER",
    "ApproachResult",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
]

#: Canonical ordering of the approaches (the bars of Figure 3), derived from
#: the registry at import time.  Code that must see approaches registered
#: later should call :func:`repro.evaluation.registry.approach_order`.
APPROACH_ORDER: Tuple[str, ...] = approach_order()


def run_experiment(
    scenario: ScenarioConfig,
    config: Optional[ExperimentConfig] = None,
    error_log: Optional[ErrorLog] = None,
    job_log: Optional[JobLog] = None,
    cache: Optional[PreparedDataCache] = None,
) -> ExperimentResult:
    """Run the full nested-cross-validation evaluation for one scenario.

    Set ``config.n_workers > 1`` to train and evaluate independent
    (split × approach group) tasks concurrently; with
    ``config.charge_training_time=False`` results are bitwise-identical to
    a serial run (the default charges measured wall-clock training time to
    the mitigation costs, which varies run to run).

    ``cache`` optionally serves the prepared data from a
    :class:`~repro.evaluation.pipeline.PreparedDataCache` (with whatever
    sharing and disk-spill behaviour that cache is configured for); without
    one the call uses a private cache, so no prepared data outlives it.
    Results are identical either way.

    This is ``run_sweep(SweepSpec(base=scenario), ...)`` returning the single
    point's result, with the sweep's ``executor_stats`` and (when
    ``config.profile`` is set) its ``extras["profile"]`` attached.
    """
    sweep = run_sweep(
        SweepSpec(base=scenario),
        config,
        cache=cache if cache is not None else PreparedDataCache(),
        error_log=error_log,
        job_log=job_log,
    )
    (result,) = sweep.results.values()
    result.executor_stats = sweep.extras["executor_stats"]
    if "profile" in sweep.extras:
        result.extras["profile"] = sweep.extras["profile"]
    return result
