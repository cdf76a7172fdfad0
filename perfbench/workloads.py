"""The benchmark's workloads and the probes of its traced runs.

Every workload has a ``setup(seed)`` that builds its inputs, a
``run(state, key)`` that does one unit of measured work on input ``key``,
and an ``outcome(...)`` that turns its outputs into an :class:`Outcome`
outside the timed region: the work done (``items`` over ``seconds``), a
digest of the outputs, and invariant checks.  Repeated runs on one input
must produce the same digest; on a workload's default seed the digests must
also match ``references.json``.

The paper-scale workloads run the paper preset (3,056 nodes, 8 DIMMs each,
jobs up to 2,048 nodes) over a :data:`PAPER_WINDOW_DAYS`-day window with the
fault volumes scaled to the window, so events, UEs and jobs arrive at the
paper's per-day rates while one unit of work fits in a few seconds.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.config import ScenarioConfig
from repro.core.dqn import DDDQNAgent
from repro.core.environment import MitigationEnv
from repro.core.features import StateNormalizer, build_feature_tracks
from repro.core.trainer import train_agent
from repro.evaluation import pipeline
from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import (
    ExperimentConfig,
    PreparedDataCache,
    clear_trace_cache,
    make_splits,
    prepare_data,
)
from repro.evaluation.registry import enabled_specs
from repro.evaluation.runner import EvaluationTrace, evaluate_policy, replay_decision_masks
from repro.serve import SampledJobProvider, ServeConfig, serve_log
from repro.telemetry.generator import TelemetryGenerator
from repro.telemetry.reduction import prepare_log
from repro.utils.timeutils import DAY
from repro.workload.generator import WorkloadGenerator
from repro.workload.sampling import JobSequenceSampler

from tracer import Probe

PAPER_WINDOW_DAYS = 60
#: Jobs the sampler of the serve and RL workloads draws from: the first
#: ``SAMPLER_JOBS`` jobs of the window.  Every draw scans the whole log, and
#: a window's job count varies by about 9% from seed to seed.
SAMPLER_JOBS = 12_000
#: The paper's Q-network (Section 3.3).
PAPER_HIDDEN_SIZES = (256, 256, 128, 64)
#: Paper training schedule used by the projection: 20,000 episodes per
#: agent, 60 + 20 search trials, six splits.
PAPER_EPISODES, PAPER_TRIALS, PAPER_SPLITS = 20_000, 80, 6


def fixed_size_sampler(job_log, seed: int) -> JobSequenceSampler:
    """A sampler over the first :data:`SAMPLER_JOBS` jobs of ``job_log``."""
    return JobSequenceSampler(job_log.select(np.arange(len(job_log)) < SAMPLER_JOBS), seed=seed)


def paper_window(seed: int, days: float = PAPER_WINDOW_DAYS) -> ScenarioConfig:
    """The paper preset over ``days`` days at the paper's per-day fault rates."""
    scenario = ScenarioConfig.paper(seed)
    share = days * DAY / scenario.duration_seconds
    fault = scenario.fault_model
    return scenario.with_duration(days * DAY).with_fault_overrides(
        n_ue_bursts=max(2, round(fault.n_ue_bursts * share)),
        mean_bursts_per_faulty_dimm=fault.mean_bursts_per_faulty_dimm * share,
    )


# --------------------------------------------------------------------- #
# Digests
# --------------------------------------------------------------------- #
def _feed(h, obj: Any) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, (bool, int, float, str, type(None), np.generic)):
        h.update(repr(obj.item() if isinstance(obj, np.generic) else obj).encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")
    h.update(b";")


def digest(obj: Any) -> str:
    """Order-sensitive SHA-256 of nested dicts / lists / arrays / scalars."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:32]


# --------------------------------------------------------------------- #
# Workload protocol
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    """One measured iteration."""

    #: Work done: ``items`` of the workload's unit over ``seconds``.
    items: int
    seconds: float
    #: Wall seconds of :meth:`Workload.run`.
    wall: float
    digest: str
    #: Named invariant checks of this iteration's outputs.
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: Extra figures for the report (never part of the digest).
    info: Dict[str, float] = field(default_factory=dict)
    #: Observations printed with the report (not checks).
    notes: List[str] = field(default_factory=list)


class Workload:
    """One benchmark workload.

    ``panel`` inputs are built from one seed; iteration ``i`` runs input
    ``i % panel``.  A panel larger than one averages out how much work an
    input holds where that varies from seed to seed.
    """

    name = ""
    #: The unit of work ``items_per_s`` counts, and its printed rate name.
    item = ""
    rate_name = ""
    default_seed = 0
    why = ""
    panel = 1

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any, key: int) -> Any:
        """The measured unit of work on input ``key``; returns the outputs."""
        raise NotImplementedError

    def outcome(self, state: Any, key: int, output: Any, wall: float) -> Outcome:
        """Digest and check the outputs of one :meth:`run` (not timed)."""
        raise NotImplementedError

    def first_checks(self, state: Any, output: Any) -> List[Tuple[str, bool]]:
        """Costlier cross-checks made once, on the first iteration."""
        return []


class _TrainClock:
    """Sums the time and env steps of the pipeline's ``train_agent`` calls."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.steps = 0
        self._original: Optional[Callable] = None

    def __enter__(self) -> "_TrainClock":
        self._original = original = pipeline.train_agent

        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            self.seconds += time.perf_counter() - started
            self.steps += result.env_steps
            return result

        pipeline.train_agent = timed
        return self

    def __exit__(self, *exc) -> bool:
        pipeline.train_agent = self._original
        return False


class SmallE2E(Workload):
    name = "small-e2e"
    item = "RL env step"
    rate_name = "env_steps_per_s"
    default_seed = 7
    why = (
        "full small-preset pipeline, RL at the (64, 48) net: dispatch-bound "
        "RL-step changes show here, scheduler and sampler changes should not"
    )
    #: 30 episodes per trial instead of 400 keeps a pass within seconds; the
    #: replay warm-up shrinks to one batch so that, as in the full schedule,
    #: almost every env step also trains (with 128 warm-up transitions the
    #: untrained share of a short trial varies widely from seed to seed).
    config = ExperimentConfig(
        charge_training_time=False,
        n_workers=1,
        rl_episodes=30,
        rl_hyperparam_trials=1,
        rl_base_config=ExperimentConfig().rl_base_config.with_overrides(warmup_transitions=32),
    )
    #: Scenarios per seed: a small-preset scenario's RL work (episode
    #: lengths, warm-up share) varies widely with its seed.
    panel = 8

    def setup(self, seed: int):
        inputs = []
        for key in range(self.panel):
            scenario = ScenarioConfig.small(seed * self.panel + key)
            cache = PreparedDataCache()
            cache.get(scenario, self.config)
            inputs.append((scenario, cache))
        return inputs

    def run(self, state, key: int):
        scenario, cache = state[key]
        clear_trace_cache()
        with _TrainClock() as clock:
            result = run_experiment(scenario, self.config, cache=cache)
        return result, clock

    def outcome(self, state, key: int, output, wall: float) -> Outcome:
        result, clock = output
        names = result.approach_names
        fingerprint = digest(
            {
                name: [e.to_dict() for e in result.approaches[name].per_split]
                for name in names
            }
        )
        costs = result.total_costs()
        mitigations = {name: cost.n_mitigations for name, cost in costs.items()}
        checks = [
            (
                "every enabled approach evaluated",
                {spec.name for spec in enabled_specs(self.config)} <= set(names),
            ),
            (
                "every approach covers every split",
                all(
                    len(result.approaches[name].per_split) == len(result.splits)
                    for name in names
                ),
            ),
            ("every approach sees the same UEs", len({c.n_ues for c in costs.values()}) == 1),
            (
                "Never-mitigate mitigates nothing and saves +0%",
                mitigations["Never-mitigate"] == 0
                and result.saving_vs_never("Never-mitigate") == 0.0,
            ),
            (
                "Always-mitigate mitigates most",
                mitigations["Always-mitigate"] == max(mitigations.values()),
            ),
            (
                "Oracle mitigates at most once per UE",
                mitigations["Oracle"] <= costs["Oracle"].n_ues,
            ),
        ]
        cheaper = sorted(name for name, c in costs.items() if c.total < costs["Oracle"].total)
        notes = []
        if cheaper:
            # "Oracle has the best saving" holds on most seeds but is not an
            # invariant: the Oracle mitigates only before UEs with an event
            # in the preceding day, so an approach that also checkpoints
            # before the other UEs can cost less.  Reported, not checked.
            notes.append(
                f"scenario seed {state[key][0].seed}: cheaper than Oracle: " + ", ".join(cheaper)
            )
        return Outcome(
            items=clock.steps,
            seconds=clock.seconds,
            wall=wall,
            digest=fingerprint,
            checks=checks,
            notes=notes,
        )


class PaperPrepare(Workload):
    name = "paper-prepare"
    #: A window's preparation time barely follows its job count, which
    #: varies with the seed, so the unit of work is the whole window.
    item = "paper window prepared"
    rate_name = "windows_per_s"
    default_seed = 42
    why = (
        "paper-scale data preparation (scheduler, telemetry, reduction, batch "
        "features) with no RL and no replay: RL changes should not move it"
    )
    #: Windows per seed: a window's job count varies by about 9% with its
    #: seed, whatever the window's length.
    panel = 3

    def setup(self, seed: int):
        # Warm the preparation path on a one-day window so lazy module state
        # and allocator pools are in place before the measured phase.
        prepare_data(paper_window(seed, days=1), ExperimentConfig())
        return [paper_window(seed * self.panel + key) for key in range(self.panel)]

    def run(self, scenarios, key: int):
        return prepare_data(scenarios[key], ExperimentConfig())

    def outcome(self, scenarios, key: int, prepared, wall: float) -> Outcome:
        job_log = prepared.sampler.job_log
        tracks = prepared.tracks
        decision_points = sum(track.n_decision_points for track in tracks.values())
        fingerprint = digest(
            {
                "jobs": [job_log.job_id, job_log.submit, job_log.start, job_log.end, job_log.n_nodes],
                "tracks": {
                    node: [t.times, t.features, t.is_ue] for node, t in tracks.items()
                },
            }
        )
        checks = [
            ("job log is non-empty", len(job_log) > 0),
            ("tracks have decision points", decision_points > 0),
            (
                "track times are sorted",
                all(np.all(np.diff(t.times) >= 0) for t in tracks.values()),
            ),
        ]
        return Outcome(
            items=1,
            seconds=wall,
            wall=wall,
            digest=fingerprint,
            checks=checks,
        )


@dataclass
class _ServeState:
    policy: SC20RandomForestPolicy
    sampler: JobSequenceSampler
    window: Any
    cutoff: float
    t_end: float
    config: ServeConfig
    seed: int


class PaperServe(Workload):
    name = "paper-serve"
    item = "decision served"
    rate_name = "decisions_per_s"
    default_seed = 42
    why = (
        "sc20 serve path, closed loop with one unthrottled producer: sampling, "
        "online features and decide_nodes show here"
    )
    #: Served events per iteration: the first events after the cutoff.
    window_events = 4_000

    def setup(self, seed: int) -> _ServeState:
        # Mirrors ``repro serve --source preset:paper --policy sc20``: the
        # forest is trained on the leading half of the reduced stream and
        # the remainder is served with sampled job timelines.
        scenario = paper_window(seed)
        raw = TelemetryGenerator(
            scenario.topology,
            scenario.fault_model,
            scenario.duration_seconds,
            seed=scenario.seed,
        ).generate()
        log, _ = prepare_log(raw, scenario.evaluation.ue_burst_window_seconds)
        job_log = WorkloadGenerator(
            scenario.workload,
            n_cluster_nodes=scenario.topology.n_nodes,
            duration_seconds=scenario.duration_seconds,
            seed=scenario.seed,
        ).generate()
        sampler = fixed_size_sampler(job_log, scenario.seed)
        t_lo, t_hi = float(log.time[0]), float(log.time[-1])
        cutoff = t_lo + 0.5 * (t_hi - t_lo)
        train_log = log.filter_time(t_lo, cutoff)
        served = log.filter_time(cutoff, t_hi + 1.0)
        stop = (
            float(served.time[self.window_events])
            if len(served) > self.window_events
            else t_hi + 1.0
        )
        window = served.filter_time(cutoff, stop)
        tracks = build_feature_tracks(train_log)
        dataset = build_prediction_dataset(
            tracks,
            prediction_window_seconds=DAY,
            t_start=t_lo,
            t_end=float(train_log.time[-1]) + 1.0,
        )
        forest, _ = train_sc20_forest(dataset, n_estimators=16, max_depth=8, seed=scenario.seed)
        config = ServeConfig(
            mitigation_cost_node_hours=scenario.evaluation.mitigation_cost_node_minutes / 60.0,
            restartable=True,
        )
        return _ServeState(
            policy=SC20RandomForestPolicy(forest, threshold=0.4),
            sampler=sampler,
            window=window,
            cutoff=cutoff,
            t_end=t_hi + 1.0,
            config=config,
            seed=scenario.seed,
        )

    def run(self, state: _ServeState, key: int):
        jobs = SampledJobProvider(state.sampler, state.cutoff, state.t_end, seed=state.seed)
        return serve_log(state.window, state.policy, jobs, state.config), jobs

    def outcome(self, state: _ServeState, key: int, output, wall: float) -> Outcome:
        report, _ = output
        fingerprint = digest(
            {
                "masks": report.masks,
                "ue_cost": report.ue_cost_node_hours,
                "mitigation_cost": report.mitigation_cost_node_hours,
                "mitigations": report.n_mitigations,
                "ues": report.n_ues,
                "decision_points": report.n_decision_points,
            }
        )
        latencies = report.tick_latencies
        return Outcome(
            items=report.n_decision_points,
            seconds=wall,
            wall=wall,
            digest=fingerprint,
            checks=[("every event served", report.n_events == len(state.window))],
            info={
                "ticks": report.n_ticks,
                "decisions": report.n_decision_points,
                "mean_batch": report.mean_batch_size,
                "tick_p50_ms": 1e3 * float(np.percentile(latencies, 50)) if len(latencies) else 0.0,
                "tick_p99_ms": 1e3 * float(np.percentile(latencies, 99)) if len(latencies) else 0.0,
            },
        )

    def first_checks(self, state: _ServeState, output) -> List[Tuple[str, bool]]:
        """The served masks and costs equal the offline replay of the window."""
        report, jobs = output
        tracks = build_feature_tracks(state.window, state.config.merge_window_seconds)
        traces = [
            EvaluationTrace(
                node=node,
                times=track.times,
                features=track.features,
                is_ue=track.is_ue,
                is_last_before_ue=np.zeros(len(track), dtype=bool),
                timeline=jobs.timeline_for(node),
            )
            for node, track in sorted(tracks.items())
            if len(track)
        ]
        masks = replay_decision_masks(traces, state.policy, restartable=state.config.restartable)
        offline = evaluate_policy(
            traces,
            state.policy,
            state.config.mitigation_cost_node_hours,
            restartable=state.config.restartable,
            include_training_cost=False,
        )
        return [
            (
                "served masks equal replay_decision_masks",
                set(report.masks) == {t.node for t in traces}
                and all(np.array_equal(report.masks[t.node], m) for t, m in zip(traces, masks)),
            ),
            (
                "served costs equal evaluate_policy",
                report.ue_cost_node_hours == offline.costs.ue_cost
                and report.mitigation_cost_node_hours == offline.costs.mitigation_cost
                and report.n_mitigations == offline.costs.n_mitigations
                and report.n_decision_points == offline.n_decision_points,
            ),
        ]


class PaperRL(Workload):
    name = "paper-rl"
    item = "RL env step"
    rate_name = "env_steps_per_s"
    default_seed = 42
    why = (
        "train_agent at the paper net (256, 256, 128, 64), memory-bound where "
        "small-e2e is dispatch-bound; env reset samples timelines"
    )
    #: Every iteration trains a fresh agent for ``episodes`` episodes of
    #: exactly ``episode_steps`` steps, on the training nodes whose episode
    #: runs that long, so the work does not vary with the seed.
    episodes = 64
    episode_steps = 8

    @staticmethod
    def _uncapped_steps(track) -> int:
        """Steps of an episode on ``track`` (the env skips leading UEs and
        ends at the next UE or at the end of the track)."""
        first = int(np.argmin(track.is_ue)) if not track.is_ue.all() else len(track)
        later_ues = np.flatnonzero(track.is_ue[first + 1:])
        return int(later_ues[0]) + 1 if len(later_ues) else len(track) - first

    def setup(self, seed: int):
        scenario = paper_window(seed)
        config = ExperimentConfig()
        prepared = prepare_data(scenario, config)
        split = make_splits(scenario)[-1]
        t_start, t_end = split.train_range
        sliced = (track.slice_time(t_start, t_end) for track in prepared.tracks.values())
        lengths = {
            track.node: self._uncapped_steps(track)
            for track in sliced
            if len(track) and track.n_decision_points > 0
        }
        tracks = {
            node: prepared.tracks[node].slice_time(t_start, t_end)
            for node, steps in lengths.items()
            if steps >= self.episode_steps
        }
        mean_episode_steps = sum(lengths.values()) / len(lengths)
        sampler = fixed_size_sampler(prepared.sampler.job_log, scenario.seed)
        return scenario, config, sampler, tracks, (t_start, t_end), mean_episode_steps

    def run(self, state, key: int):
        scenario, config, sampler, tracks, (t_start, t_end), _ = state
        normalizer = StateNormalizer()
        agent = DDDQNAgent(
            normalizer.state_dim,
            config.rl_base_config.with_overrides(
                hidden_sizes=PAPER_HIDDEN_SIZES, seed=scenario.seed
            ),
        )
        env = MitigationEnv(
            tracks,
            sampler,
            mitigation_cost=scenario.evaluation.mitigation_cost_node_hours,
            restartable=scenario.evaluation.restartable,
            t_start=t_start,
            t_end=t_end,
            normalizer=normalizer,
            seed=scenario.seed + 1,
        )
        result = train_agent(
            env, agent, n_episodes=self.episodes, max_steps_per_episode=self.episode_steps
        )
        return agent, result

    def outcome(self, state, key: int, output, wall: float) -> Outcome:
        agent, result = output
        mean_episode_steps = state[-1]
        steps = result.env_steps
        # Paper schedule at this run's seconds per step, with the episode
        # length an uncapped episode has on these training nodes.
        projection_h = (
            mean_episode_steps * (wall / steps)
            * PAPER_EPISODES * PAPER_TRIALS * PAPER_SPLITS / 3600.0
        )
        return Outcome(
            items=steps,
            seconds=wall,
            wall=wall,
            digest=digest({"state": agent.state_dict(), "steps": steps}),
            checks=[
                (
                    "every episode runs its full length",
                    steps == self.episodes * self.episode_steps,
                )
            ],
            info={
                "mean_episode_steps": mean_episode_steps,
                "paper_rl_projection_h": projection_h,
            },
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SmallE2E(), PaperPrepare(), PaperServe(), PaperRL())
}


# --------------------------------------------------------------------- #
# Probes of the traced run
# --------------------------------------------------------------------- #
def _len_result(args, kwargs, result) -> Tuple[int]:
    return (len(result),)


def _len_arg(index: int, name: str):
    """Count the length (or value, for an int) of one positional argument."""

    def count(args, kwargs, result) -> Tuple[int]:
        value = kwargs[name] if name in kwargs else args[index]
        return (int(value) if isinstance(value, (int, np.integer)) else len(value),)

    return count


PROBES: Tuple[Probe, ...] = (
    Probe("repro.workload.scheduler:ClusterScheduler", "schedule_all",
          "workload.scheduler.ClusterScheduler.schedule_all", ("jobs",), _len_result),
    Probe("repro.workload.scheduler:BackfillScheduler", "schedule_all",
          "workload.scheduler.BackfillScheduler.schedule_all", ("jobs",), _len_result),
    Probe("repro.workload.generator:WorkloadGenerator", "generate",
          "workload.generator.WorkloadGenerator.generate", ("jobs",), _len_result),
    Probe("repro.workload.sampling:JobSequenceSampler", "sample_timeline",
          "workload.sampling.JobSequenceSampler.sample_timeline",
          ("jobs",), lambda a, k, r: (len(r.starts),)),
    Probe("repro.telemetry.generator:TelemetryGenerator", "generate",
          "telemetry.generator.TelemetryGenerator.generate", ("events_out",), _len_result),
    Probe("repro.telemetry.reduction", "prepare_log", "telemetry.reduction.prepare_log",
          ("events_in", "events_out"), lambda a, k, r: (len(a[0]), len(r[0]))),
    Probe("repro.core.features", "build_feature_tracks", "core.features.build_feature_tracks",
          ("decision_points",),
          lambda a, k, r: (sum(t.n_decision_points for t in r.values()),)),
    Probe("repro.core.features:OnlineFeatureState", "absorb",
          "core.features.OnlineFeatureState.absorb", ("steps",), _len_result),
    Probe("repro.core.features:OnlineFeatureState", "advance_to",
          "core.features.OnlineFeatureState.advance_to", ("steps",), _len_result),
    Probe("repro.core.features:OnlineFeatureState", "flush",
          "core.features.OnlineFeatureState.flush", ("steps",), _len_result),
    Probe("repro.core.environment:MitigationEnv", "reset", "core.environment.MitigationEnv.reset"),
    Probe("repro.core.environment:MitigationEnv", "step", "core.environment.MitigationEnv.step"),
    Probe("repro.core.dqn:DDDQNAgent", "act", "core.dqn.DDDQNAgent.act"),
    Probe("repro.core.dqn:DDDQNAgent", "observe", "core.dqn.DDDQNAgent.observe"),
    Probe("repro.core.dqn:DDDQNAgent", "train_step", "core.dqn.DDDQNAgent.train_step"),
    Probe("repro.core.replay:PrioritizedReplayBuffer", "push",
          "core.replay.PrioritizedReplayBuffer.push"),
    Probe("repro.core.replay:PrioritizedReplayBuffer", "sample",
          "core.replay.PrioritizedReplayBuffer.sample", ("rows",), _len_arg(1, "batch_size")),
    Probe("repro.core.replay:PrioritizedReplayBuffer", "update_priorities",
          "core.replay.PrioritizedReplayBuffer.update_priorities"),
    Probe("repro.core.networks:DuelingQNetwork", "forward",
          "core.networks.DuelingQNetwork.forward", ("rows",), _len_arg(1, "states")),
    Probe("repro.core.networks:DuelingQNetwork", "backward",
          "core.networks.DuelingQNetwork.backward", ("rows",), _len_arg(1, "d_q")),
    Probe("repro.core.networks:AdamOptimizer", "update", "core.networks.AdamOptimizer.update"),
    Probe("repro.baselines.random_forest:RandomForestClassifier", "fit",
          "baselines.random_forest.fit", ("rows",), _len_arg(1, "X")),
    Probe("repro.baselines.random_forest:RandomForestClassifier", "predict_batch",
          "baselines.random_forest.predict_batch", ("rows",), _len_arg(1, "X")),
    Probe("repro.evaluation.runner", "build_traces", "evaluation.runner.build_traces",
          ("traces",), _len_result),
    Probe("repro.evaluation.runner", "evaluate_policy", "evaluation.runner.evaluate_policy",
          ("events",), lambda a, k, r: (sum(len(t) for t in (a[0] if a else k["traces"])),)),
    Probe("repro.evaluation.pipeline", "prepare_data", "evaluation.pipeline.prepare_data"),
    Probe("repro.evaluation.pipeline", "train_split", "evaluation.pipeline.train_split"),
    Probe("repro.evaluation.pipeline", "run_split_group", "evaluation.pipeline.run_split_group"),
    Probe("repro.evaluation.pipeline", "run_rl_trial", "evaluation.pipeline.run_rl_trial"),
    Probe("repro.evaluation.pipeline", "run_rl_reduce", "evaluation.pipeline.run_rl_reduce"),
    Probe("repro.evaluation.pipeline", "evaluate_split", "evaluation.pipeline.evaluate_split"),
    Probe("repro.evaluation.pipeline", "aggregate", "evaluation.pipeline.aggregate"),
    Probe("repro.evaluation.executor", "execute_tasks", "evaluation.executor.execute_tasks",
          ("tasks",), _len_arg(0, "tasks")),
    Probe("repro.serve.service:DecisionService", "run", "serve.service.DecisionService.run"),
    Probe("repro.baselines.sc20:SC20RandomForestPolicy", "decide_nodes",
          "serve.service.decide_nodes", ("rows",), _len_arg(1, "features")),
)

#: Serve-report figures reported per layer (from ``Outcome.info``).
SERVE_INFO = {
    "serve.service.ticks": ("ticks", "count", "lower"),
    "serve.service.decisions": ("decisions", "count", "higher"),
    "serve.service.mean_batch": ("mean_batch", "count", "higher"),
    "serve.service.tick_p50_ms": ("tick_p50_ms", "ms", "lower"),
    "serve.service.tick_p99_ms": ("tick_p99_ms", "ms", "lower"),
}

#: Whole-run figures of the traced run.
TRACE_METRICS = {
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "other.self_s": ("s", "lower"),
}


def per_layer_metric_specs() -> List[Dict[str, str]]:
    """Every per-layer metric a traced run reports, in output order."""
    specs = []
    for probe in PROBES:
        specs.append({"name": f"{probe.name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{probe.name}.self_s", "unit": "s", "better": "lower"})
        for key in probe.counts:
            specs.append({"name": f"{probe.name}.{key}", "unit": "count", "better": "higher"})
    for name, (_, unit, better) in SERVE_INFO.items():
        specs.append({"name": name, "unit": unit, "better": better})
    for name, (unit, better) in TRACE_METRICS.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs
