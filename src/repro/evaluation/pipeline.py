"""Staged experiment pipeline: pure stages composed by the driver.

The monolithic ``run_experiment`` loop is decomposed into five stages, each a
pure function returning a serializable dataclass:

``prepare_data``
    Telemetry generation (or ingestion), retirement-bias / UE-burst
    reduction, workload generation and per-node Table 1 feature tracks.
``make_splits``
    The time-series nested cross-validation layout (Figure 2).
``train_split``
    Builds every enabled approach's policy for one split via the approach
    registry (random-forest training, threshold selection, RL hyperparameter
    search).
``evaluate_split``
    Replays trained policies over the split's test traces.
``aggregate``
    Folds per-split evaluations into the :class:`ExperimentResult` behind
    Figures 3, 4, 5, 7 and Table 2.

For parallel execution the driver does not call ``train_split`` /
``evaluate_split`` directly: it schedules one :func:`run_split_group` task
per (split × approach group) through :mod:`repro.evaluation.executor`, so
e.g. the random-forest family of split 3 trains while the RL agent of split
1 is still learning.  The dominant "rl" group additionally decomposes into
one :func:`run_rl_trial` task per hyperparameter candidate plus a
:func:`run_rl_reduce` select-best task per split: only the warm-started
trial 0 rides the cross-split chain, while the remaining trials fan out
across idle workers.  All randomness is drawn from keyed
:class:`~repro.utils.rng.RngFactory` streams (per-trial settings are
pre-drawn from one sequential stream per split), which makes every task
self-seeding: serial and parallel schedules — and the lazy in-task search
of :meth:`SplitContext.rl` — produce identical results (wall-clock
training-cost accounting aside — disable
``ExperimentConfig.charge_training_time`` for bitwise-identical runs).

Two content-keyed caches remove redundant work across experiments:
:class:`PreparedDataCache` shares one :class:`PreparedData` product between
scenarios whose data-preparation inputs match (the sweep engine of
:mod:`repro.evaluation.sweep` relies on it), and a process-wide trace cache
keyed by ``(data key, split, seed)`` lets every approach group of a split
replay the same immutable test traces instead of rebuilding them per task.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.config import ScenarioConfig
from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.environment import MitigationEnv
from repro.core.features import NodeFeatureTrack, StateNormalizer, build_feature_tracks
from repro.core.hyperparams import HyperparameterSpace
from repro.core.policies import MitigationPolicy, RLPolicy
from repro.core.trainer import train_agent
from repro.evaluation.costs import CostBreakdown
from repro.evaluation.cross_validation import TimeSeriesNestedCV, TimeSeriesSplit
from repro.evaluation.executor import ExecutorStats, Task
from repro.evaluation.metrics import ConfusionCounts
from repro.evaluation.registry import (
    approach_groups,
    approach_order,
    enabled_specs,
    ensure_sc20_variants,
)
from repro.evaluation.runner import (
    EvaluationTrace,
    PolicyEvaluation,
    build_traces,
    evaluate_policy,
)
from repro.telemetry.error_log import ErrorLog
from repro.telemetry.generator import TelemetryGenerator
from repro.telemetry.reduction import ReductionReport, prepare_log
from repro.utils.rng import RngFactory
from repro.workload.generator import WorkloadGenerator
from repro.workload.job import JobLog
from repro.workload.sampling import JobSequenceSampler
from repro.workload.scaling import scale_job_log

__all__ = [
    "ApproachResult",
    "ExperimentConfig",
    "ExperimentResult",
    "GroupOutcome",
    "PreparedData",
    "PreparedDataCache",
    "RLTrialResult",
    "SC20SplitArtifacts",
    "SplitContext",
    "SplitEvaluation",
    "TrainedSplit",
    "aggregate",
    "build_split_tasks",
    "clear_trace_cache",
    "default_prepared_cache",
    "evaluate_split",
    "make_splits",
    "prepare_data",
    "prepared_data_key",
    "run_rl_reduce",
    "run_rl_trial",
    "run_split_group",
    "trace_cache_stats",
    "train_split",
]


# --------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling how heavy the experiment is to run.

    The defaults are a scaled-down schedule suitable for the benchmark
    harness; :meth:`paper` returns the full schedule described in
    Sections 3.3 and 4.1 (20,000 episodes per agent, 60 + narrowed random
    search), which takes hours.
    """

    #: Episodes per hyperparameter trial of the RL agent.
    rl_episodes: int = 400
    #: Number of random-search trials in the first round (the first trial
    #: always uses the base configuration unchanged).
    rl_hyperparam_trials: int = 2
    #: Number of trials in the narrowed second round.
    rl_hyperparam_refine: int = 0
    #: Hidden layout of the Q-network (paper: 256, 256, 128, 64).
    rl_hidden_sizes: Sequence[int] = (64, 48)
    #: Base DQN configuration; hyperparameter search overrides some fields.
    rl_base_config: DQNConfig = field(
        default_factory=lambda: DQNConfig(
            epsilon_decay_steps=4000, warmup_transitions=128, buffer_capacity=20000
        )
    )
    #: Reuse the best agent of the previous split as a warm-started candidate.
    #: Warm starting chains the RL tasks of consecutive splits, limiting how
    #: much of the RL work the parallel executor can overlap.
    rl_warm_start: bool = True
    #: Random forest size of the SC20 baseline.
    rf_n_estimators: int = 25
    rf_max_depth: int = 10
    #: Number of candidate thresholds evaluated to find the optimal one.
    threshold_grid_size: int = 21
    #: Threshold perturbations of the realistic SC20 variants.
    sc20_threshold_offsets: Tuple[float, ...] = (0.02, 0.05)
    #: Approach toggles (consumed by the registry's ``enabled`` predicates).
    include_static: bool = True
    include_oracle: bool = True
    include_rf: bool = True
    include_myopic: bool = True
    include_rl: bool = True
    #: Evaluate the Fleet-mix composite policy, which routes every decision
    #: to a per-segment sub-policy according to the topology's fleet
    #: segments.  Off by default: it only makes sense for heterogeneous
    #: fleets, and keeping it out of the default approach set leaves all
    #: existing results untouched.
    include_fleet_mix: bool = False
    #: Job-size scaling factor (Section 5.6); 1.0 reproduces the base system.
    job_scaling_factor: float = 1.0
    #: Restrict the error log to one DRAM manufacturer (Section 5.3).
    manufacturer: Optional[int] = None
    #: Maximum concurrent (split × approach-group) tasks; 1 runs serially.
    n_workers: int = 1
    #: Executor backend: "process", "thread" or "serial".
    executor_kind: str = "process"
    #: Charge wall-clock training/validation time to the learned policies
    #: (Section 4.3).  Wall-clock is inherently non-deterministic; disable to
    #: make two runs of the same experiment bitwise identical (the
    #: determinism tests and the parallel-vs-serial comparison rely on this).
    charge_training_time: bool = True
    #: Run each pipeline stage under cProfile and surface the top cumulative
    #: functions in ``ExperimentResult.extras["profile"]`` (CLI:
    #: ``--profile``).  A diagnostic knob like the scheduling fields: it
    #: never changes results, only adds instrumentation in the driver
    #: process (the process-pool workers run outside the profiler).
    profile: bool = False

    @staticmethod
    def fast() -> "ExperimentConfig":
        """Cheapest configuration that still trains every approach."""
        return ExperimentConfig(
            rl_episodes=120,
            rl_hyperparam_trials=1,
            rl_hidden_sizes=(48, 32),
            rf_n_estimators=15,
            threshold_grid_size=11,
        )

    @staticmethod
    def paper() -> "ExperimentConfig":
        """The full schedule of the paper (hours of compute)."""
        return ExperimentConfig(
            rl_episodes=20_000,
            rl_hyperparam_trials=60,
            rl_hyperparam_refine=20,
            rl_hidden_sizes=(256, 256, 128, 64),
            rf_n_estimators=100,
            threshold_grid_size=101,
        )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy of the config with some fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> Dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import tag

        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "rl_base_config"
        }
        payload["rl_hidden_sizes"] = list(self.rl_hidden_sizes)
        payload["sc20_threshold_offsets"] = list(self.sc20_threshold_offsets)
        payload["rl_base_config"] = self.rl_base_config.to_dict()
        return tag("experiment_config", payload)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import untag

        payload = dict(untag(data, "experiment_config"))
        # Retired scheduling knobs, still present in stores written before
        # their removal; every other unknown key stays an error.
        for name in ("rl_trial_tasks", "compiled"):
            payload.pop(name, None)
        payload["rl_hidden_sizes"] = tuple(payload["rl_hidden_sizes"])
        payload["sc20_threshold_offsets"] = tuple(payload["sc20_threshold_offsets"])
        payload["rl_base_config"] = DQNConfig.from_dict(payload["rl_base_config"])
        return cls(**payload)


# --------------------------------------------------------------------- #
# Result containers
# --------------------------------------------------------------------- #
@dataclass
class ApproachResult:
    """Accumulated results of one approach across all splits."""

    name: str
    per_split: List[PolicyEvaluation] = field(default_factory=list)

    @property
    def total_costs(self) -> CostBreakdown:
        if not self.per_split:
            return CostBreakdown()
        return sum(evaluation.costs for evaluation in self.per_split)

    @property
    def total_confusion(self) -> ConfusionCounts:
        if not self.per_split:
            return ConfusionCounts()
        return sum(evaluation.confusion for evaluation in self.per_split)

    @property
    def per_split_total_cost(self) -> List[float]:
        return [evaluation.costs.total for evaluation in self.per_split]

    @property
    def per_split_ue_cost(self) -> List[float]:
        return [evaluation.costs.ue_cost for evaluation in self.per_split]

    @property
    def per_split_mitigation_cost(self) -> List[float]:
        return [evaluation.costs.overhead_cost for evaluation in self.per_split]

    def to_dict(self) -> Dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import tag

        return tag(
            "approach_result",
            {
                "name": self.name,
                "per_split": [evaluation.to_dict() for evaluation in self.per_split],
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "ApproachResult":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import untag

        payload = untag(data, "approach_result")
        return cls(
            name=payload["name"],
            per_split=[
                PolicyEvaluation.from_dict(item) for item in payload["per_split"]
            ],
        )


@dataclass
class ExperimentResult:
    """Everything produced by :func:`repro.evaluation.experiment.run_experiment`."""

    scenario_name: str
    mitigation_cost_node_hours: float
    approaches: Dict[str, ApproachResult]
    splits: List[TimeSeriesSplit]
    reduction_report: ReductionReport
    n_test_events: int
    wallclock_seconds: float
    #: Trained artifacts of the final split (inputs to Figure 6).
    final_rl_policy: Optional[RLPolicy] = None
    final_sc20_policy: Optional[SC20RandomForestPolicy] = None
    final_test_features: Optional[np.ndarray] = None
    #: Task-level timing of the run's executor graph (per-task seconds and
    #: the measured critical path).  A run diagnostic, not a result: like
    #: the Figure 6 artifacts it is not serialized and comes back ``None``
    #: from :meth:`from_dict` / a store load.
    executor_stats: Optional["ExecutorStats"] = None
    #: Run diagnostics keyed by name (e.g. ``"profile"`` when
    #: ``ExperimentConfig.profile`` is set).  Like ``executor_stats``, never
    #: serialized: a store round-trip comes back with an empty mapping.
    extras: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def approach_names(self) -> List[str]:
        ordered = [name for name in approach_order() if name in self.approaches]
        extras = [name for name in self.approaches if name not in ordered]
        return ordered + extras

    def total_costs(self) -> Dict[str, CostBreakdown]:
        """Total cost breakdown per approach (Figure 3 bar group)."""
        return {name: self.approaches[name].total_costs for name in self.approach_names}

    def confusions(self) -> Dict[str, ConfusionCounts]:
        """Accumulated confusion counts per approach (Table 2)."""
        return {
            name: self.approaches[name].total_confusion for name in self.approach_names
        }

    def per_split_series(self, which: str = "total") -> Dict[str, List[float]]:
        """Per-split cost series per approach (Figure 4)."""
        series = {}
        for name in self.approach_names:
            approach = self.approaches[name]
            if which == "total":
                series[name] = approach.per_split_total_cost
            elif which == "ue":
                series[name] = approach.per_split_ue_cost
            elif which == "mitigation":
                series[name] = approach.per_split_mitigation_cost
            else:
                raise ValueError(f"unknown series {which!r}")
        return series

    def split_labels(self) -> List[str]:
        return [f"split-{split.index + 1}" for split in self.splits]

    def saving_vs_never(self, name: str) -> float:
        """Fractional total-cost saving of ``name`` relative to Never-mitigate."""
        never = self.approaches.get("Never-mitigate")
        target = self.approaches.get(name)
        if never is None or target is None:
            raise KeyError("both the approach and Never-mitigate must be present")
        return target.total_costs.saving_vs(never.total_costs)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`).

        Covers the scientific payload — scenario name, per-approach cost and
        confusion accounting, splits, reduction report, event count and
        wall-clock.  The trained Figure 6 artifacts (``final_rl_policy``,
        ``final_sc20_policy``, ``final_test_features``) are *not* serialized:
        they are model objects, not results, and come back as ``None`` from
        :meth:`from_dict`.
        """
        from repro.serialization import tag

        return tag(
            "experiment_result",
            {
                "scenario_name": self.scenario_name,
                "mitigation_cost_node_hours": self.mitigation_cost_node_hours,
                "approaches": {
                    name: self.approaches[name].to_dict()
                    for name in self.approach_names
                },
                "splits": [split.to_dict() for split in self.splits],
                "reduction_report": self.reduction_report.to_dict(),
                "n_test_events": self.n_test_events,
                "wallclock_seconds": self.wallclock_seconds,
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (trained artifacts come back ``None``)."""
        from repro.serialization import untag

        payload = untag(data, "experiment_result")
        return cls(
            scenario_name=payload["scenario_name"],
            mitigation_cost_node_hours=payload["mitigation_cost_node_hours"],
            approaches={
                name: ApproachResult.from_dict(item)
                for name, item in payload["approaches"].items()
            },
            splits=[TimeSeriesSplit.from_dict(item) for item in payload["splits"]],
            reduction_report=ReductionReport.from_dict(payload["reduction_report"]),
            n_test_events=payload["n_test_events"],
            wallclock_seconds=payload["wallclock_seconds"],
        )

    def to_json(self) -> str:
        """Deterministic JSON text of :meth:`to_dict` (sorted keys)."""
        from repro.serialization import canonical_json

        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`."""
        import json

        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------- #
# Stage outputs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PreparedData:
    """Output of :func:`prepare_data` — everything the splits consume."""

    scenario: ScenarioConfig
    tracks: Dict[int, NodeFeatureTrack]
    sampler: JobSequenceSampler
    reduction_report: ReductionReport
    #: Content key of the data-preparation inputs (see
    #: :func:`prepared_data_key`).  Identical keys guarantee identical
    #: tracks/sampler, which the per-split trace cache relies on; the empty
    #: tuple (hand-built instances) opts out of trace caching.
    data_key: Tuple = ()


@dataclass(frozen=True)
class TrainedSplit:
    """Output of :func:`train_split` — ready-to-evaluate policies."""

    split_index: int
    policies: Dict[str, MitigationPolicy]
    #: Best RL agent state after this split (input to the next split's
    #: warm start); passes the incoming state through when RL did not train.
    rl_state: Optional[dict] = None


@dataclass(frozen=True)
class SplitEvaluation:
    """Output of :func:`evaluate_split` — per-approach test-range results."""

    split_index: int
    evaluations: Dict[str, PolicyEvaluation]
    n_test_events: int


@dataclass(frozen=True)
class GroupOutcome:
    """Result of one (split × approach-group) executor task."""

    split_index: int
    group: str
    evaluations: Dict[str, PolicyEvaluation]
    n_test_events: int
    #: RL warm-start carry (only set by the "rl" group).
    rl_state: Optional[dict] = None
    #: Trained artifacts for Figure 6 (last split wins during aggregation).
    sc20_policy: Optional[SC20RandomForestPolicy] = None
    rl_policy: Optional[RLPolicy] = None


# --------------------------------------------------------------------- #
# Stages 1 and 2: data preparation and CV layout
# --------------------------------------------------------------------- #
def _effective_manufacturer(
    scenario: ScenarioConfig, config: ExperimentConfig
) -> Optional[int]:
    """Manufacturer restriction: the config override wins over the scenario."""
    if config.manufacturer is not None:
        return config.manufacturer
    return scenario.manufacturer


def _effective_job_scaling(scenario: ScenarioConfig, config: ExperimentConfig) -> float:
    """Job-size scaling: the scenario axis composes with the config knob."""
    return scenario.job_scaling_factor * config.job_scaling_factor


def prepared_data_key(scenario: ScenarioConfig, config: ExperimentConfig) -> Tuple:
    """Content key of everything :func:`prepare_data` consumes.

    Two (scenario, config) pairs with equal keys produce identical
    :class:`PreparedData` products (same telemetry, same reduction, same
    feature tracks, same sampler).  Evaluation-only parameters — mitigation
    cost, restartability, the CV layout, the prediction window — are
    deliberately excluded: sweeps over them share one prepared dataset.
    """
    return (
        scenario.seed,
        scenario.topology,
        scenario.fault_model,
        scenario.workload,
        scenario.duration_seconds,
        scenario.evaluation.ue_burst_window_seconds,
        scenario.evaluation.merge_window_seconds,
        _effective_manufacturer(scenario, config),
        _effective_job_scaling(scenario, config),
    )


#: Distinguishes products built from externally supplied logs: their content
#: is not derivable from (scenario, config), so each gets a unique data key
#: and never shares trace-cache entries with synthetic runs (or with other
#: external logs of the same scenario).
_EXTERNAL_DATA_NONCE = itertools.count()


def prepare_data(
    scenario: ScenarioConfig,
    config: ExperimentConfig,
    error_log: Optional[ErrorLog] = None,
    job_log: Optional[JobLog] = None,
) -> PreparedData:
    """Generate (or accept) the logs and derive feature tracks and sampler."""
    evaluation_cfg = scenario.evaluation
    factory = RngFactory(scenario.seed)
    external_inputs = error_log is not None or job_log is not None

    if error_log is None:
        error_log = TelemetryGenerator(
            scenario.topology,
            scenario.fault_model,
            scenario.duration_seconds,
            seed=factory.child("telemetry"),
        ).generate()
    manufacturer = _effective_manufacturer(scenario, config)
    if manufacturer is not None:
        error_log = error_log.filter_manufacturer(manufacturer)
    reduced_log, reduction_report = prepare_log(
        error_log, evaluation_cfg.ue_burst_window_seconds
    )

    if job_log is None:
        job_log = WorkloadGenerator(
            scenario.workload,
            n_cluster_nodes=scenario.topology.n_nodes,
            duration_seconds=scenario.duration_seconds,
            seed=factory.stream("workload"),
        ).generate()
    job_scaling = _effective_job_scaling(scenario, config)
    if job_scaling != 1.0:
        job_log = scale_job_log(job_log, job_scaling)
    sampler = JobSequenceSampler(job_log, seed=factory.stream("sampler"))

    tracks = build_feature_tracks(reduced_log, evaluation_cfg.merge_window_seconds)
    data_key = prepared_data_key(scenario, config)
    if external_inputs:
        data_key += (("external", next(_EXTERNAL_DATA_NONCE)),)
    return PreparedData(
        scenario=scenario,
        tracks=tracks,
        sampler=sampler,
        reduction_report=reduction_report,
        data_key=data_key,
    )


class PreparedDataCache:
    """Content-keyed cache of :func:`prepare_data` products.

    Sweeps that vary only evaluation parameters (mitigation cost,
    restartability, CV layout) share a single prepared dataset; sweeps along
    a data axis (seed, manufacturer, job scale) additionally share the raw
    telemetry and workload logs through two sub-caches, so e.g. the Figure 5
    per-manufacturer points regenerate nothing but the filtered reduction.

    A cached product is re-bound (``dataclasses.replace``) to each
    requester's scenario, so downstream stages read the right evaluation
    parameters while the heavyweight ``tracks`` / ``sampler`` objects stay
    shared.  Sharing is safe because the pipeline never mutates them: every
    consumer draws randomness from its own keyed stream, never from the
    sampler's internal generator.

    ``hits`` / ``misses`` / ``prepare_calls`` count cache behaviour;
    the property tests assert on them.

    ``spill`` optionally attaches a disk backend — any object with
    ``load_prepared(scenario, config) -> Optional[PreparedData]`` and
    ``save_prepared(prepared, config)``, in practice a
    :class:`repro.store.ArtifactStore`.  On a memory miss the spill is
    consulted before :func:`prepare_data` runs, and every freshly built
    *synthetic* product is written through, so sweeps resume across
    sessions (externally supplied logs are never spilled: their content is
    not derivable from the scenario).  ``spill_hits`` / ``spill_saves``
    count the disk traffic.
    """

    def __init__(self, maxsize: int = 8, spill=None) -> None:
        self.maxsize = maxsize
        self.spill = spill
        self._prepared: "OrderedDict[Tuple, Tuple[PreparedData, Tuple]]" = OrderedDict()
        self._telemetry: "OrderedDict[Tuple, ErrorLog]" = OrderedDict()
        self._job_logs: "OrderedDict[Tuple, JobLog]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.prepare_calls = 0
        self.spill_hits = 0
        self.spill_saves = 0

    def __len__(self) -> int:
        return len(self._prepared)

    def clear(self) -> None:
        self._prepared.clear()
        self._telemetry.clear()
        self._job_logs.clear()

    @staticmethod
    def _evict(cache: "OrderedDict", maxsize: int) -> None:
        while len(cache) > maxsize:
            cache.popitem(last=False)

    def _raw_error_log(self, scenario: ScenarioConfig) -> ErrorLog:
        key = (
            scenario.seed,
            scenario.topology,
            scenario.fault_model,
            scenario.duration_seconds,
        )
        if key not in self._telemetry:
            self._telemetry[key] = TelemetryGenerator(
                scenario.topology,
                scenario.fault_model,
                scenario.duration_seconds,
                seed=RngFactory(scenario.seed).child("telemetry"),
            ).generate()
            self._evict(self._telemetry, self.maxsize)
        else:
            self._telemetry.move_to_end(key)
        return self._telemetry[key]

    def _raw_job_log(self, scenario: ScenarioConfig) -> JobLog:
        key = (
            scenario.seed,
            scenario.workload,
            scenario.topology.n_nodes,
            scenario.duration_seconds,
        )
        if key not in self._job_logs:
            self._job_logs[key] = WorkloadGenerator(
                scenario.workload,
                n_cluster_nodes=scenario.topology.n_nodes,
                duration_seconds=scenario.duration_seconds,
                seed=RngFactory(scenario.seed).stream("workload"),
            ).generate()
            self._evict(self._job_logs, self.maxsize)
        else:
            self._job_logs.move_to_end(key)
        return self._job_logs[key]

    def get(
        self,
        scenario: ScenarioConfig,
        config: ExperimentConfig,
        error_log: Optional[ErrorLog] = None,
        job_log: Optional[JobLog] = None,
    ) -> PreparedData:
        """Return (building at most once) the prepared data for a scenario.

        Externally supplied logs are folded into the key by identity; the
        cache entry keeps a reference to them so the identity stays valid
        for the entry's lifetime.
        """
        external = (
            None if error_log is None else id(error_log),
            None if job_log is None else id(job_log),
        )
        key = prepared_data_key(scenario, config) + (external,)
        entry = self._prepared.get(key)
        if entry is not None:
            self.hits += 1
            self._prepared.move_to_end(key)
            prepared = entry[0]
            if prepared.scenario != scenario:
                prepared = replace(prepared, scenario=scenario)
            return prepared
        self.misses += 1
        if self.spill is not None and error_log is None and job_log is None:
            spilled = self.spill.load_prepared(scenario, config)
            if spilled is not None:
                self.spill_hits += 1
                self._prepared[key] = (spilled, (None, None))
                self._evict(self._prepared, self.maxsize)
                return spilled
        self.prepare_calls += 1
        if error_log is None:
            error_log = self._raw_error_log(scenario)
            pinned_error_log = None
        else:
            pinned_error_log = error_log
        if job_log is None:
            job_log = self._raw_job_log(scenario)
            pinned_job_log = None
        else:
            pinned_job_log = job_log
        prepared = prepare_data(scenario, config, error_log=error_log, job_log=job_log)
        if pinned_error_log is None and pinned_job_log is None:
            # Both logs came from the sub-caches, which regenerate exactly
            # what prepare_data itself would have: the product is fully
            # derivable from (scenario, config), so restore the pure content
            # key that prepare_data replaced with an external-input nonce —
            # synthetic runs inside and outside the cache then share traces.
            prepared = replace(prepared, data_key=prepared_data_key(scenario, config))
            if self.spill is not None:
                self.spill.save_prepared(prepared, config)
                self.spill_saves += 1
        self._prepared[key] = (prepared, (pinned_error_log, pinned_job_log))
        self._evict(self._prepared, self.maxsize)
        return prepared


#: Process-wide default cache used by :func:`repro.evaluation.sweep.run_sweep`
#: when the caller does not supply one, so consecutive sweeps in one session
#: (e.g. the benchmark harness) share prepared data across calls.
_DEFAULT_PREPARED_CACHE = PreparedDataCache()


def default_prepared_cache() -> PreparedDataCache:
    """The process-wide :class:`PreparedDataCache`."""
    return _DEFAULT_PREPARED_CACHE


def make_splits(scenario: ScenarioConfig) -> List[TimeSeriesSplit]:
    """The nested cross-validation splits of Figure 2 for one scenario."""
    evaluation_cfg = scenario.evaluation
    cv = TimeSeriesNestedCV(
        n_parts=evaluation_cfg.cv_parts,
        train_fraction=evaluation_cfg.cv_train_fraction,
        bootstrap_seconds=evaluation_cfg.cv_bootstrap_seconds,
    )
    return cv.splits(0.0, scenario.duration_seconds)


# --------------------------------------------------------------------- #
# Shared per-split resources
# --------------------------------------------------------------------- #
#: Process-wide cache of built test traces, keyed by
#: ``(PreparedData.data_key, split index, test range, trace seed)``.  Every
#: approach group of a split — and every sweep point sharing the same
#: prepared data — replays the *same* trace objects, so rebuilding them once
#: per (split × group) task is pure waste.  Traces are immutable
#: (frozen dataclasses over read-only arrays), which makes sharing safe.
_TRACE_CACHE: "OrderedDict[Tuple, List[EvaluationTrace]]" = OrderedDict()
_TRACE_CACHE_MAXSIZE = 64
_TRACE_CACHE_STATS = {"hits": 0, "misses": 0}
#: Guards cache + counters against the thread executor backend (lookup,
#: LRU reordering and eviction race otherwise: a concurrent evict between
#: get() and move_to_end() raises KeyError and kills the task).
_TRACE_CACHE_LOCK = threading.Lock()


def trace_cache_stats() -> Dict[str, int]:
    """Copy of the process-wide trace-cache hit/miss counters."""
    with _TRACE_CACHE_LOCK:
        return dict(_TRACE_CACHE_STATS)


def clear_trace_cache() -> None:
    """Drop all cached traces and reset the counters (test isolation)."""
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE.clear()
        _TRACE_CACHE_STATS["hits"] = 0
        _TRACE_CACHE_STATS["misses"] = 0


def _cached_range_traces(
    prepared: PreparedData,
    split: TimeSeriesSplit,
    time_range: Tuple[float, float],
    seed: int,
) -> List[EvaluationTrace]:
    """Build (or reuse) the traces of one time range of one prepared dataset.

    Serves the test traces of every approach group and the RL search's
    validation/fallback scoring traces: with per-trial RL tasks, every trial
    of a split scores on the same traces, so rebuilding them once per trial
    (instead of once per split) would be pure waste on the thread/serial
    backends — and on the process backend each worker builds them at most
    once per (split, range).
    """
    if not prepared.data_key:
        # Hand-built PreparedData carries no content key; skip caching rather
        # than risk colliding two unrelated datasets.
        return build_traces(prepared.tracks, prepared.sampler, *time_range, seed=seed)
    key = (prepared.data_key, split.index, tuple(time_range), seed)
    with _TRACE_CACHE_LOCK:
        traces = _TRACE_CACHE.get(key)
        if traces is not None:
            _TRACE_CACHE_STATS["hits"] += 1
            _TRACE_CACHE.move_to_end(key)
            return traces
        _TRACE_CACHE_STATS["misses"] += 1
    # Build outside the lock (expensive); concurrent builders of the same
    # key produce identical traces, so the last insert winning is harmless.
    traces = build_traces(prepared.tracks, prepared.sampler, *time_range, seed=seed)
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE[key] = traces
        while len(_TRACE_CACHE) > _TRACE_CACHE_MAXSIZE:
            _TRACE_CACHE.popitem(last=False)
    return traces


def _cached_test_traces(
    prepared: PreparedData, split: TimeSeriesSplit, seed: int
) -> List[EvaluationTrace]:
    """Build (or reuse) the test traces of one split of one prepared dataset."""
    return _cached_range_traces(prepared, split, split.test_range, seed)


@dataclass(frozen=True)
class SC20SplitArtifacts:
    """Trained forest of one split, shared by the whole SC20-RF family."""

    base_policy: SC20RandomForestPolicy
    optimal_threshold: float

    @property
    def optimal_policy(self) -> SC20RandomForestPolicy:
        return self.base_policy.with_threshold(self.optimal_threshold, name="SC20-RF")


class SplitContext:
    """Everything an approach builder may need for one split.

    Lazily computes — and caches — the expensive shared resources: the test
    traces, the trained SC20 forest with its optimal threshold, and the
    hyperparameter-searched RL agent.  Builders of the same group therefore
    train each model exactly once per split.
    """

    _UNSET = object()

    def __init__(
        self,
        prepared: PreparedData,
        split: TimeSeriesSplit,
        config: ExperimentConfig,
        rl_carry_in: Optional[dict] = None,
    ) -> None:
        self.prepared = prepared
        self.split = split
        self.config = config
        self.rl_carry_in = rl_carry_in
        self.factory = RngFactory(prepared.scenario.seed)
        self._test_traces: Optional[List[EvaluationTrace]] = None
        self._sc20 = self._UNSET
        self._rl = self._UNSET
        self._rl_carry_out: Optional[dict] = rl_carry_in

    # -- scenario shortcuts -------------------------------------------- #
    @property
    def scenario(self) -> ScenarioConfig:
        return self.prepared.scenario

    @property
    def evaluation_config(self):
        return self.scenario.evaluation

    @property
    def mitigation_cost(self) -> float:
        return self.evaluation_config.mitigation_cost_node_hours

    @property
    def restartable(self) -> bool:
        return self.evaluation_config.restartable

    @property
    def prediction_window(self) -> float:
        return self.evaluation_config.prediction_window_seconds

    @property
    def tracks(self) -> Dict[int, NodeFeatureTrack]:
        return self.prepared.tracks

    # -- shared resources ---------------------------------------------- #
    def test_traces(self) -> List[EvaluationTrace]:
        """The split's test-range traces (identical for every approach).

        Served from the process-wide trace cache keyed by
        ``(data key, split, seed)``, so all approach groups of a split — and
        all sweep points sharing the prepared data — reuse one trace set.
        """
        if self._test_traces is None:
            seed = int(
                self.factory.stream(f"test-{self.split.index}").integers(1 << 30)
            )
            self._test_traces = _cached_test_traces(self.prepared, self.split, seed)
        return self._test_traces

    def evaluate(self, policy: MitigationPolicy, **kwargs) -> PolicyEvaluation:
        """Replay ``policy`` over the split's test traces."""
        kwargs.setdefault("include_training_cost", self.config.charge_training_time)
        return evaluate_policy(
            self.test_traces(),
            policy,
            self.mitigation_cost,
            restartable=self.restartable,
            prediction_window_seconds=self.prediction_window,
            **kwargs,
        )

    def sc20(self) -> Optional[SC20SplitArtifacts]:
        """Trained SC20 forest and optimal threshold (None without history)."""
        if self._sc20 is self._UNSET:
            self._sc20 = _train_sc20_for_split(self, self.config, self.factory)
        return self._sc20

    def sc20_if_trained(self) -> Optional[SC20SplitArtifacts]:
        """The cached SC20 artifacts — never triggers training."""
        return None if self._sc20 is self._UNSET else self._sc20

    def rl(self) -> Optional[RLPolicy]:
        """Hyperparameter-searched RL policy (None when nothing trained)."""
        if self._rl is self._UNSET:
            agent, training_cost, best_state = _train_rl_for_split(
                self.prepared, self.split, self.config, self.rl_carry_in
            )
            if agent is not None:
                self._rl_carry_out = best_state
                self._rl = RLPolicy(
                    agent,
                    StateNormalizer(),
                    training_cost_node_hours=training_cost,
                )
            else:
                self._rl = None
        return self._rl

    def rl_if_trained(self) -> Optional[RLPolicy]:
        """The cached RL policy — never triggers training."""
        return None if self._rl is self._UNSET else self._rl

    def _inject_rl(
        self, policy: Optional[RLPolicy], carry_out: Optional[dict]
    ) -> None:
        """Pre-seed the RL slot with an externally assembled policy.

        Used by the per-trial reduce task (:func:`run_rl_reduce`), which
        selects the best trial itself and must hand the resulting policy to
        every builder of the "rl" group without retriggering the in-task
        search.
        """
        self._rl = policy
        if carry_out is not None:
            self._rl_carry_out = carry_out

    @property
    def rl_carry_out(self) -> Optional[dict]:
        """RL state to hand to the next split (after :meth:`rl` ran)."""
        return self._rl_carry_out


# --------------------------------------------------------------------- #
# Model training helpers
# --------------------------------------------------------------------- #
def _select_optimal_threshold(
    base_policy: SC20RandomForestPolicy,
    traces: Sequence[EvaluationTrace],
    mitigation_cost: float,
    restartable: bool,
    prediction_window: float,
    grid_size: int,
) -> float:
    """Threshold minimising the total cost on ``traces`` (maximum advantage)."""
    best_threshold = 0.5
    best_cost = np.inf
    for threshold in SC20RandomForestPolicy.threshold_grid(grid_size):
        candidate = base_policy.with_threshold(float(threshold))
        evaluation = evaluate_policy(
            traces,
            candidate,
            mitigation_cost,
            restartable=restartable,
            prediction_window_seconds=prediction_window,
            include_training_cost=False,
        )
        if evaluation.costs.total < best_cost:
            best_cost = evaluation.costs.total
            best_threshold = float(threshold)
    return best_threshold


def _train_sc20_for_split(
    ctx: SplitContext, config: ExperimentConfig, factory: RngFactory
) -> Optional[SC20SplitArtifacts]:
    """Train the split's random forest and pick its optimal threshold."""
    split = ctx.split
    dataset = build_prediction_dataset(
        ctx.tracks,
        prediction_window_seconds=ctx.prediction_window,
        t_start=split.train_range[0],
        t_end=split.history_range[1],
    )
    if len(dataset) == 0:
        return None
    forest, rf_seconds = train_sc20_forest(
        dataset,
        n_estimators=config.rf_n_estimators,
        max_depth=config.rf_max_depth,
        seed=int(factory.stream(f"rf-{split.index}").integers(1 << 30)),
    )
    base_policy = SC20RandomForestPolicy(
        forest, training_cost_node_hours=rf_seconds / 3600.0
    )
    optimal = _select_optimal_threshold(
        base_policy,
        ctx.test_traces(),
        ctx.mitigation_cost,
        ctx.restartable,
        ctx.prediction_window,
        config.threshold_grid_size,
    )
    return SC20SplitArtifacts(base_policy=base_policy, optimal_threshold=optimal)


def _score_policy(
    policy: MitigationPolicy,
    traces: Sequence[EvaluationTrace],
    mitigation_cost: float,
    restartable: bool,
    prediction_window: float,
) -> float:
    """Negative total cost of a policy over traces (higher is better)."""
    if not traces:
        return 0.0
    evaluation = evaluate_policy(
        traces,
        policy,
        mitigation_cost,
        restartable=restartable,
        prediction_window_seconds=prediction_window,
        include_training_cost=False,
    )
    return -evaluation.costs.total


@dataclass(frozen=True)
class RLTrialResult:
    """Outcome of one hyperparameter trial of one split's RL search.

    The unit shipped between the per-trial executor tasks and the
    select-best reduce task: the trial's validation score, the trained
    policy parameters (a :meth:`~repro.core.dqn.DDDQNAgent.state_dict` —
    plain numpy arrays, cheap to pickle across the process backend) and the
    trial's own wall-clock training span.  ``trained`` is ``False`` when the
    split had no training data; trial 0 then passes the previous split's
    state through ``state`` unchanged (the warm-start carry of splits
    without history).
    """

    split_index: int
    trial: int
    score: float
    state: Optional[dict]
    train_seconds: float
    trained: bool


def _rl_n_trials(config: ExperimentConfig) -> int:
    """Number of hyperparameter trials per split (both search rounds)."""
    return max(1, config.rl_hyperparam_trials) + max(0, config.rl_hyperparam_refine)


def _rl_trial_settings(
    scenario: ScenarioConfig, config: ExperimentConfig, split_index: int
) -> List[Tuple[DQNConfig, int]]:
    """Pre-draw every trial's ``(DQNConfig, env seed)`` for one split.

    All trials' hyperparameters and seeds are drawn *sequentially* from the
    single keyed ``search-{split}`` stream — exactly the consumption order
    of the historical in-task trial loop — so the decomposed per-trial
    tasks reproduce the old loop bit for bit regardless of which worker
    runs which trial, and the lazy in-task search of
    :func:`_train_rl_for_split` shares the same draw sequence.  Trial 0
    always uses the base configuration unchanged, so a tiny search budget
    still contains a known-reasonable setting.
    """
    space = HyperparameterSpace()
    search_rng = RngFactory(scenario.seed).stream(f"search-{split_index}")
    settings: List[Tuple[DQNConfig, int]] = []
    for trial in range(_rl_n_trials(config)):
        params = {} if trial == 0 else space.sample(search_rng)
        dqn_config = config.rl_base_config.with_overrides(
            hidden_sizes=tuple(config.rl_hidden_sizes),
            seed=int(search_rng.integers(1 << 30)),
            **params,
        )
        env_seed = int(search_rng.integers(1 << 30))
        settings.append((dqn_config, env_seed))
    return settings


def _rl_train_tracks(
    tracks: Dict[int, NodeFeatureTrack], split: TimeSeriesSplit
) -> Dict[int, NodeFeatureTrack]:
    """The nodes with trainable decision points inside the split's train range."""
    sliced = {
        node: track.slice_time(*split.train_range) for node, track in tracks.items()
    }
    return {
        node: track
        for node, track in sliced.items()
        if len(track) and track.n_decision_points > 0
    }


def _rl_scoring_traces(
    prepared: PreparedData, split: TimeSeriesSplit
) -> List[EvaluationTrace]:
    """The traces a split's RL candidates are scored on (keyed seeds).

    Validation-range traces when that range contains UEs; otherwise the
    training range (the Section 4.1 fallback).  Both seeds come from keyed
    streams of the scenario root, so every trial task of a split — on any
    worker — scores on identical traces, served from the process-wide
    trace cache.
    """
    factory = RngFactory(prepared.scenario.seed)
    validation_traces: List[EvaluationTrace] = []
    if split.validation_range[1] > split.validation_range[0]:
        seed = int(factory.stream(f"val-{split.index}").integers(1 << 30))
        validation_traces = _cached_range_traces(
            prepared, split, split.validation_range, seed
        )
    if any(trace.n_ues for trace in validation_traces):
        return validation_traces
    # Fall back to scoring on the training range (Section 4.1) when the
    # validation range contains no UEs.
    seed = int(factory.stream(f"trainscore-{split.index}").integers(1 << 30))
    return _cached_range_traces(prepared, split, split.train_range, seed)


def _agent_from_state(config: ExperimentConfig, state: dict) -> DDDQNAgent:
    """Reconstruct an evaluation-ready agent from checkpointed parameters."""
    return DDDQNAgent.from_state_dict(
        StateNormalizer().state_dim,
        state,
        config.rl_base_config.with_overrides(
            hidden_sizes=tuple(config.rl_hidden_sizes)
        ),
    )


def _train_one_rl_trial(
    prepared: PreparedData,
    split: TimeSeriesSplit,
    trial: int,
    config: ExperimentConfig,
    previous_state: Optional[dict],
    scoring_traces: Optional[List[EvaluationTrace]] = None,
) -> RLTrialResult:
    """Train and score one hyperparameter candidate of one split.

    Self-seeding (all randomness comes from keyed streams of the scenario
    root plus the pre-drawn trial settings), so the executor may run trials
    in any order on any worker without changing a single number.  The
    recorded ``train_seconds`` span covers exactly this trial's training and
    scoring — summing the spans gives schedule-independent
    ``training_cost_node_hours`` accounting however the trials were laid
    out across workers.

    ``scoring_traces`` lets a caller running several trials in one process
    (the in-task loop of :func:`_train_rl_for_split`) prefetch
    :func:`_rl_scoring_traces` once; per-trial executor tasks leave it
    ``None`` and share the build through the process-wide trace cache
    instead.
    """
    scenario = prepared.scenario
    evaluation_cfg = scenario.evaluation
    train_tracks = _rl_train_tracks(prepared.tracks, split)
    if not train_tracks:
        return RLTrialResult(
            split_index=split.index,
            trial=trial,
            score=-np.inf,
            # Trial 0 carries the warm-start state through splits without
            # training data; the reduce passes it on unchanged.
            state=previous_state if trial == 0 else None,
            train_seconds=0.0,
            trained=False,
        )
    if scoring_traces is None:
        scoring_traces = _rl_scoring_traces(prepared, split)
    dqn_config, env_seed = _rl_trial_settings(scenario, config, split.index)[trial]
    normalizer = StateNormalizer()

    started = time.perf_counter()
    agent = DDDQNAgent(normalizer.state_dim, dqn_config)
    if config.rl_warm_start and previous_state is not None and trial == 0:
        # The paper starts each split from a mix of previously trained
        # and untrained models; the first candidate continues training
        # the best agent of the previous split.
        agent.load_state_dict(previous_state)
    env = MitigationEnv(
        train_tracks,
        prepared.sampler,
        mitigation_cost=evaluation_cfg.mitigation_cost_node_hours,
        restartable=evaluation_cfg.restartable,
        t_start=split.train_range[0],
        t_end=split.train_range[1],
        normalizer=normalizer,
        seed=env_seed,
    )
    train_agent(env, agent, n_episodes=config.rl_episodes)
    score = _score_policy(
        RLPolicy(agent, normalizer),
        scoring_traces,
        evaluation_cfg.mitigation_cost_node_hours,
        evaluation_cfg.restartable,
        evaluation_cfg.prediction_window_seconds,
    )
    train_seconds = time.perf_counter() - started
    return RLTrialResult(
        split_index=split.index,
        trial=trial,
        score=score,
        state=agent.state_dict(),
        train_seconds=train_seconds,
        trained=True,
    )


def _select_best_rl_trial(
    config: ExperimentConfig, trial_results: Sequence[RLTrialResult]
) -> Tuple[Optional[DDDQNAgent], float, Optional[dict]]:
    """Fold a split's trial results into (best agent, cost node-hours, state).

    The selection rule matches the historical loop exactly: trials are
    considered in index order and a later trial must *strictly* beat the
    running best, so ties resolve to the lowest trial index whichever order
    the tasks finished in.  The charged training cost is the **sum of the
    per-trial spans** — schedule-independent accounting that neither counts
    executor queueing time (parallel trials) nor double-counts the agent's
    internal gradient-update clock (the reconstructed best agent starts
    with a zeroed counter).
    """
    ordered = sorted(trial_results, key=lambda result: result.trial)
    total_seconds = sum(result.train_seconds for result in ordered)
    best: Optional[RLTrialResult] = None
    best_score = -np.inf
    for result in ordered:
        if result.trained and result.score > best_score:
            best_score = result.score
            best = result
    if best is None:
        # No trial trained (no history in the train range): pass the
        # previous split's agent through, or nothing if there is none yet.
        carry = ordered[0].state if ordered else None
        if carry is None:
            return None, 0.0, None
        return _agent_from_state(config, carry), 0.0, carry
    return _agent_from_state(config, best.state), total_seconds / 3600.0, best.state


def _train_rl_for_split(
    prepared: PreparedData,
    split: TimeSeriesSplit,
    config: ExperimentConfig,
    previous_state: Optional[dict],
) -> Tuple[Optional[DDDQNAgent], float, Optional[dict]]:
    """Hyperparameter search + training of the RL agent for one split.

    The in-task serial schedule of the per-trial computation the executor
    fans out: :meth:`SplitContext.rl` runs it when the "rl" group executes
    as a single task (the public :func:`train_split` stage, or custom "rl"
    group approaches with the built-in RL approach disabled).  Returns
    (best agent, summed per-trial training+validation cost in node-hours,
    best state).
    """
    scoring_traces: Optional[List[EvaluationTrace]] = None
    if _rl_train_tracks(prepared.tracks, split):
        # Prefetch once for all trials (matters for hand-built PreparedData
        # without a content key, which opts out of the trace cache).
        scoring_traces = _rl_scoring_traces(prepared, split)
    results = [
        _train_one_rl_trial(
            prepared, split, trial, config, previous_state, scoring_traces
        )
        for trial in range(_rl_n_trials(config))
    ]
    return _select_best_rl_trial(config, results)


# --------------------------------------------------------------------- #
# Stages 3 and 4: per-split training and evaluation
# --------------------------------------------------------------------- #
def train_split(
    prepared: PreparedData,
    split: TimeSeriesSplit,
    config: ExperimentConfig,
    rl_state_in: Optional[dict] = None,
) -> TrainedSplit:
    """Build every enabled approach's policy for one split via the registry."""
    ensure_sc20_variants(config)
    ctx = SplitContext(prepared, split, config, rl_carry_in=rl_state_in)
    policies = {
        spec.name: spec.build(ctx, config, ctx.factory)
        for spec in enabled_specs(config)
    }
    return TrainedSplit(
        split_index=split.index, policies=policies, rl_state=ctx.rl_carry_out
    )


def evaluate_split(
    prepared: PreparedData,
    split: TimeSeriesSplit,
    trained: TrainedSplit,
    config: ExperimentConfig,
) -> SplitEvaluation:
    """Replay a split's trained policies over its test traces."""
    ctx = SplitContext(prepared, split, config)
    evaluations = {
        name: ctx.evaluate(policy) for name, policy in trained.policies.items()
    }
    return SplitEvaluation(
        split_index=split.index,
        evaluations=evaluations,
        n_test_events=sum(len(trace) for trace in ctx.test_traces()),
    )


def _evaluate_group(
    ctx: SplitContext, group: str, config: ExperimentConfig
) -> GroupOutcome:
    """Build and evaluate every enabled approach of ``group`` on ``ctx``.

    The shared tail of :func:`run_split_group` and :func:`run_rl_reduce`,
    so the single-task and per-trial task shapes cannot drift apart.
    """
    specs = [spec for spec in enabled_specs(config) if spec.group == group]
    evaluations = {
        spec.name: ctx.evaluate(spec.build(ctx, config, ctx.factory))
        for spec in specs
    }
    # Figure 6 artifacts are read from the context cache, never computed
    # here: a custom approach in the "rf" / "rl" group whose builder did not
    # ask for the shared model must not pay for training it.
    sc20_artifacts = ctx.sc20_if_trained()
    return GroupOutcome(
        split_index=ctx.split.index,
        group=group,
        evaluations=evaluations,
        n_test_events=sum(len(trace) for trace in ctx.test_traces()),
        rl_state=ctx.rl_carry_out if group == "rl" else None,
        sc20_policy=sc20_artifacts.optimal_policy if sc20_artifacts else None,
        rl_policy=ctx.rl_if_trained(),
    )


def run_split_group(
    deps: Dict[str, "GroupOutcome"],
    shared: Dict[str, PreparedData],
    label: str,
    split: TimeSeriesSplit,
    group: str,
    config: ExperimentConfig,
) -> GroupOutcome:
    """Train and evaluate one approach group on one split (executor task).

    ``deps`` carries at most the previous split's "rl" outcome, whose
    ``rl_state`` seeds this split's warm start.  ``shared`` is the
    executor's label -> :class:`PreparedData` map (shipped once per worker,
    not once per task); the task reads its experiment's entry ``label``.
    """
    ensure_sc20_variants(config)
    rl_state_in: Optional[dict] = None
    for outcome in deps.values():
        rl_state_in = outcome.rl_state
    ctx = SplitContext(shared[label], split, config, rl_carry_in=rl_state_in)
    return _evaluate_group(ctx, group, config)


def run_rl_trial(
    deps: Dict[str, Any],
    shared: Dict[str, PreparedData],
    label: str,
    split: TimeSeriesSplit,
    trial: int,
    config: ExperimentConfig,
) -> RLTrialResult:
    """Train one RL hyperparameter candidate (per-trial executor task).

    ``deps`` is empty for the independent search trials 1..N; trial 0 — the
    warm-started base candidate — receives the previous split's "rl" reduce
    outcome, whose ``rl_state`` seeds this split's warm start.  The prepared
    data is ``shared[label]``, as in :func:`run_split_group`.
    """
    previous_state: Optional[dict] = None
    for outcome in deps.values():
        previous_state = outcome.rl_state
    return _train_one_rl_trial(shared[label], split, trial, config, previous_state)


def run_rl_reduce(
    deps: Dict[str, Any],
    shared: Dict[str, PreparedData],
    label: str,
    split: TimeSeriesSplit,
    config: ExperimentConfig,
) -> GroupOutcome:
    """Select a split's best RL trial and evaluate the "rl" approach group.

    The reduce task of the per-trial fan-out: ``deps`` carries this split's
    :class:`RLTrialResult`\\ s, from which the best candidate is chosen by
    the same strictly-better-in-trial-order rule as the historical loop,
    reconstructed via :meth:`~repro.core.dqn.DDDQNAgent.from_state_dict`
    and handed to every builder of the group.  Keyed under
    ``rl-{split}``, so the warm-start chain (the next split's trial 0
    depends on this task) and :func:`aggregate` see exactly the shape the
    single-task graph produced.  The prepared data is ``shared[label]``,
    as in :func:`run_split_group`.
    """
    ensure_sc20_variants(config)
    trial_results = [
        value for value in deps.values() if isinstance(value, RLTrialResult)
    ]
    agent, training_cost, best_state = _select_best_rl_trial(config, trial_results)
    ctx = SplitContext(shared[label], split, config)
    if agent is not None:
        ctx._inject_rl(
            RLPolicy(
                agent, StateNormalizer(), training_cost_node_hours=training_cost
            ),
            best_state,
        )
    else:
        ctx._inject_rl(None, None)
    return _evaluate_group(ctx, "rl", config)


# --------------------------------------------------------------------- #
# Task-graph construction
# --------------------------------------------------------------------- #
def _has_rl_train_data(prepared: PreparedData, split: TimeSeriesSplit) -> bool:
    """Whether any node has decision points inside the split's train range."""
    for track in prepared.tracks.values():
        sliced = track.slice_time(*split.train_range)
        if len(sliced) and sliced.n_decision_points > 0:
            return True
    return False


#: Priority of the tasks on the RL warm-start chain (trial-0, reduce, and
#: the chained single "rl" task of custom approaches): the chain is the task
#: graph's critical path, so among simultaneously ready tasks it always gets
#: a worker first.
_CHAIN_PRIORITY = 10


def build_split_tasks(
    prepared: PreparedData,
    splits: Sequence[TimeSeriesSplit],
    config: ExperimentConfig,
    label: str = "",
) -> List[Task]:
    """The executor task graph of one experiment's splits.

    One task per (split × enabled approach group) — except the "rl" group,
    which (when the built-in RL approach is enabled) decomposes into one
    task per hyperparameter trial plus a select-best reduce task per split:

    * ``rl-trial{t}-{k}`` — trial ``t`` of split ``k``.  Trials 1..N are
      independent hyperparameter samples with **no** dependencies; they fan
      out across workers immediately.  Trial 0, the warm-started base
      candidate, depends on the previous split's reduce task — the only
      cross-split edge, so the serial critical path holds ``splits`` (not
      ``splits × trials``) training runs.
    * ``rl-{k}`` — the reduce: selects the split's best trial, evaluates the
      group, and carries the warm-start state.  It keeps the exact key of
      the old single "rl" task, so :func:`aggregate` and the chain edges
      are oblivious to the decomposition.

    Chain tasks get a high :attr:`~repro.evaluation.executor.Task.priority`
    (critical-path-first scheduling).  RL tasks of consecutive splits are
    chained when the warm start (or the pass-the-previous-agent-through
    fallback of splits without training data) makes split ``k`` depend on
    split ``k - 1``; every other task is independent.

    ``label`` names the experiment inside a larger graph: a non-empty label
    prefixes every task key (and the RL chain's dependency edges) with
    ``"{label}/"``, so the points of a sweep coexist in one graph.  The
    tasks (:func:`run_split_group`, :func:`run_rl_trial`,
    :func:`run_rl_reduce`) carry only (label, split[, trial][, group],
    config) and read the heavyweight :class:`PreparedData` from the
    executor's ``shared`` channel as ``shared[label]``, shipped once per
    worker instead of once per task.
    """
    ensure_sc20_variants(config)
    key_prefix = f"{label}/" if label else ""
    groups = approach_groups(config)
    chain_rl = "rl" in groups and (
        config.rl_warm_start
        or any(not _has_rl_train_data(prepared, split) for split in splits)
    )
    # Fan out per-trial tasks only when the built-in RL approach runs: a
    # custom approach in the "rl" group may never ask for the shared agent,
    # and the lazy single-task shape must not pay for training it.
    rl_fan_out = any(spec.name == "RL" for spec in groups.get("rl", []))
    tasks: List[Task] = []
    for split in splits:
        for group in groups:
            chain_dep: Tuple[str, ...] = ()
            if group == "rl" and chain_rl and split.index > 0:
                chain_dep = (f"{key_prefix}rl-{split.index - 1}",)
            if group == "rl" and rl_fan_out:
                trial_keys: List[str] = []
                for trial in range(_rl_n_trials(config)):
                    key = f"{key_prefix}rl-trial{trial}-{split.index}"
                    trial_keys.append(key)
                    tasks.append(
                        Task(
                            key=key,
                            fn=run_rl_trial,
                            args=(label, split, trial, config),
                            deps=chain_dep if trial == 0 else (),
                            priority=_CHAIN_PRIORITY if trial == 0 else 0,
                        )
                    )
                tasks.append(
                    Task(
                        key=f"{key_prefix}rl-{split.index}",
                        fn=run_rl_reduce,
                        args=(label, split, config),
                        deps=tuple(trial_keys),
                        priority=_CHAIN_PRIORITY,
                    )
                )
                continue
            tasks.append(
                Task(
                    key=f"{key_prefix}{group}-{split.index}",
                    fn=run_split_group,
                    args=(label, split, group, config),
                    deps=chain_dep,
                    priority=_CHAIN_PRIORITY if group == "rl" and chain_rl else 0,
                )
            )
    return tasks


# --------------------------------------------------------------------- #
# Stage 5: aggregation
# --------------------------------------------------------------------- #
def _final_test_features(
    prepared: PreparedData, splits: Sequence[TimeSeriesSplit], config: ExperimentConfig
) -> Optional[np.ndarray]:
    """Non-UE feature matrix of the last split with test events (Figure 6)."""
    for split in reversed(list(splits)):
        ctx = SplitContext(prepared, split, config)
        traces = ctx.test_traces()
        if traces:
            return np.concatenate([trace.features[~trace.is_ue] for trace in traces])
    return None


def aggregate(
    prepared: PreparedData,
    splits: Sequence[TimeSeriesSplit],
    outcomes: Dict[str, GroupOutcome],
    config: ExperimentConfig,
    wallclock_seconds: float,
) -> ExperimentResult:
    """Fold per-(split × group) outcomes into the final result."""
    groups = approach_groups(config)
    approaches: Dict[str, ApproachResult] = {}
    n_test_events = 0
    final_sc20_policy: Optional[SC20RandomForestPolicy] = None
    final_rl_policy: Optional[RLPolicy] = None

    for split in splits:
        split_outcomes = [
            outcomes[f"{group}-{split.index}"]
            for group in groups
            if f"{group}-{split.index}" in outcomes
        ]
        if split_outcomes:
            n_test_events += split_outcomes[0].n_test_events
        for outcome in split_outcomes:
            for name, evaluation in outcome.evaluations.items():
                approaches.setdefault(name, ApproachResult(name=name)).per_split.append(
                    evaluation
                )
            if outcome.sc20_policy is not None:
                final_sc20_policy = outcome.sc20_policy
            if outcome.rl_policy is not None:
                final_rl_policy = outcome.rl_policy

    return ExperimentResult(
        scenario_name=prepared.scenario.name,
        mitigation_cost_node_hours=prepared.scenario.evaluation.mitigation_cost_node_hours,
        approaches=approaches,
        splits=list(splits),
        reduction_report=prepared.reduction_report,
        n_test_events=n_test_events,
        wallclock_seconds=wallclock_seconds,
        final_rl_policy=final_rl_policy,
        final_sc20_policy=final_sc20_policy,
        final_test_features=_final_test_features(prepared, splits, config),
    )
