"""Tests for the per-trial RL task decomposition.

Three properties carry the feature:

* **Graph shape** — hyperparameter trials fan out with no cross-trial
  dependencies; only trial 0 rides the warm-start chain (through the
  select-best reduce task, which keeps the old ``rl-{split}`` key);
  the point ``label`` keeps two sweep points' trial tasks disjoint.
* **Determinism** — the decomposed graph is *result-identical* to the
  lazy in-task trial loop that :func:`train_split` reaches through
  ``SplitContext.rl()``, serially and with workers: the per-trial settings
  are pre-drawn from the same sequential keyed stream the loop consumes.
* **Accounting** — ``training_cost_node_hours`` is the sum of the per-trial
  training spans, independent of how the trials were scheduled (the
  regression test for the whole-loop wall-clock span bug).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import ScenarioConfig
from repro.evaluation.experiment import ExperimentConfig, run_experiment
from repro.evaluation.pipeline import (
    RLTrialResult,
    _rl_n_trials,
    _rl_trial_settings,
    build_split_tasks,
    evaluate_split,
    make_splits,
    prepare_data,
    train_split,
)
from repro.utils.timeutils import DAY

TRIAL_CONFIG = ExperimentConfig(
    rl_episodes=4,
    rl_hyperparam_trials=2,
    rl_hyperparam_refine=1,
    rl_hidden_sizes=(8,),
    rf_n_estimators=3,
    rf_max_depth=4,
    threshold_grid_size=4,
    charge_training_time=False,
)


@pytest.fixture(scope="module")
def tiny_scenario():
    return ScenarioConfig.small(seed=13).with_duration(60 * DAY)


@pytest.fixture(scope="module")
def tiny_prepared(tiny_scenario):
    return prepare_data(tiny_scenario, TRIAL_CONFIG)


class TestGraphShape:
    def test_trials_fan_out_without_cross_trial_deps(
        self, tiny_prepared, tiny_scenario
    ):
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TRIAL_CONFIG)
        by_key = {task.key: task for task in tasks}
        n_trials = _rl_n_trials(TRIAL_CONFIG)
        assert n_trials == 3  # 2 search + 1 refine
        for split in splits:
            for trial in range(1, n_trials):
                # Search trials depend on nothing: they are scheduled the
                # moment a worker is free, whatever the chain is doing.
                assert by_key[f"rl-trial{trial}-{split.index}"].deps == ()

    def test_reduce_carries_the_warm_start_edge(self, tiny_prepared, tiny_scenario):
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TRIAL_CONFIG)
        by_key = {task.key: task for task in tasks}
        n_trials = _rl_n_trials(TRIAL_CONFIG)
        for split in splits:
            reduce_task = by_key[f"rl-{split.index}"]
            assert set(reduce_task.deps) == {
                f"rl-trial{trial}-{split.index}" for trial in range(n_trials)
            }
            trial0 = by_key[f"rl-trial0-{split.index}"]
            if split.index == 0:
                assert trial0.deps == ()
            else:
                # The chain: base candidate <- previous split's reduce.
                assert trial0.deps == (f"rl-{split.index - 1}",)

    def test_chain_tasks_outrank_search_trials(self, tiny_prepared, tiny_scenario):
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TRIAL_CONFIG)
        by_key = {task.key: task for task in tasks}
        assert by_key["rl-trial0-0"].priority > by_key["rl-trial1-0"].priority
        assert by_key["rl-0"].priority > by_key["rl-trial1-0"].priority
        assert by_key["rf-0"].priority == 0

    def test_key_prefix_keeps_two_points_disjoint(
        self, tiny_prepared, tiny_scenario
    ):
        splits = make_splits(tiny_scenario)
        point_a = build_split_tasks(
            tiny_prepared, splits, TRIAL_CONFIG, label="cost=2"
        )
        point_b = build_split_tasks(
            tiny_prepared, splits, TRIAL_CONFIG, label="cost=5"
        )
        keys_a = {task.key for task in point_a}
        keys_b = {task.key for task in point_b}
        assert not keys_a & keys_b
        # Dependency edges stay inside their own point.
        for task in point_a:
            assert all(dep in keys_a for dep in task.deps)

    def test_fan_out_requires_the_builtin_rl_approach(
        self, tiny_prepared, tiny_scenario
    ):
        # A custom approach sharing the "rl" group must keep the lazy
        # single-task shape when the built-in RL approach is disabled: the
        # trial tasks would train an agent no builder may ever ask for.
        from repro.core.policies import CallablePolicy
        from repro.evaluation.registry import (
            ApproachSpec,
            register_approach,
            unregister_approach,
        )

        register_approach(ApproachSpec(
            name="Cheap-RL-variant",
            build=lambda ctx, cfg, rng: CallablePolicy(
                lambda context: False, name="Cheap-RL-variant"
            ),
            group="rl",
        ))
        try:
            config = TRIAL_CONFIG.with_overrides(include_rl=False)
            splits = make_splits(tiny_scenario)
            tasks = build_split_tasks(tiny_prepared, splits, config)
        finally:
            unregister_approach("Cheap-RL-variant")
        keys = {task.key for task in tasks}
        assert f"rl-{splits[0].index}" in keys
        assert not any("rl-trial" in key for key in keys)


class TestTrialSettings:
    def test_settings_are_stable_and_per_trial_distinct(self, tiny_scenario):
        first = _rl_trial_settings(tiny_scenario, TRIAL_CONFIG, split_index=2)
        second = _rl_trial_settings(tiny_scenario, TRIAL_CONFIG, split_index=2)
        assert first == second  # pure function of (scenario, config, split)
        assert len(first) == _rl_n_trials(TRIAL_CONFIG)
        # Trial 0 is the unchanged base configuration; later trials sample.
        base = TRIAL_CONFIG.rl_base_config
        assert first[0][0].learning_rate == base.learning_rate
        assert first[1][0].learning_rate != base.learning_rate
        seeds = {config.seed for config, _ in first}
        assert len(seeds) == len(first)

    def test_settings_differ_across_splits(self, tiny_scenario):
        a = _rl_trial_settings(tiny_scenario, TRIAL_CONFIG, split_index=0)
        b = _rl_trial_settings(tiny_scenario, TRIAL_CONFIG, split_index=1)
        assert a != b


class TestDeterminism:
    """The decomposition may change the schedule, never the numbers."""

    @pytest.fixture(scope="class")
    def fan_serial(self, tiny_scenario):
        return run_experiment(tiny_scenario, TRIAL_CONFIG)

    def _assert_identical(self, a, b):
        assert a.approach_names == b.approach_names
        for name in a.approach_names:
            for left, right in zip(
                a.approaches[name].per_split, b.approaches[name].per_split
            ):
                assert left.costs == right.costs, name
                assert left.confusion == right.confusion, name

    def test_fan_equals_chain_serially(
        self, tiny_prepared, tiny_scenario, fan_serial
    ):
        # The lazy in-task path: train_split -> SplitContext.rl() ->
        # _train_rl_for_split, one split after the other with the warm-start
        # state carried by hand.
        fanned = fan_serial.approaches["RL"].per_split
        splits = make_splits(tiny_scenario)
        assert len(fanned) == len(splits)
        rl_state = None
        for split, expected in zip(splits, fanned):
            trained = train_split(tiny_prepared, split, TRIAL_CONFIG, rl_state)
            rl_state = trained.rl_state
            lazy = evaluate_split(tiny_prepared, split, trained, TRIAL_CONFIG)
            assert lazy.evaluations["RL"].costs == expected.costs, split.index
            assert lazy.evaluations["RL"].confusion == expected.confusion

    def test_two_workers_equal_serial_fan(self, tiny_scenario, fan_serial):
        parallel = run_experiment(
            tiny_scenario, TRIAL_CONFIG.with_overrides(n_workers=2)
        )
        self._assert_identical(parallel, fan_serial)


class _FakeClock:
    """Deterministic stand-in for ``time.perf_counter``."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTrainingCostAccounting:
    """Regression: the RL training cost must be the *sum of per-trial
    spans*, not one wall-clock span around the whole search — the old span
    charged scoring-trace construction to the agent and, under parallel
    trials, would have depended on the schedule."""

    @pytest.fixture()
    def fake_timed_pipeline(self, monkeypatch, tiny_prepared):
        import repro.evaluation.pipeline as pipeline_mod

        clock = _FakeClock()

        def fake_train_agent(env, agent, n_episodes):
            clock.advance(3600.0)  # exactly one node-hour per trial

        def fake_build_traces(tracks, sampler, t_start, t_end, seed=None):
            clock.advance(500.0)  # trace building must never be charged
            return []

        monkeypatch.setattr(pipeline_mod, "time", clock)
        monkeypatch.setattr(pipeline_mod, "train_agent", fake_train_agent)
        monkeypatch.setattr(pipeline_mod, "build_traces", fake_build_traces)
        # Opt out of the trace cache so the fake builder actually runs.
        return dataclasses.replace(tiny_prepared, data_key=()), clock

    def test_cost_is_sum_of_trial_spans(self, fake_timed_pipeline, tiny_scenario):
        from repro.evaluation.pipeline import _train_rl_for_split

        prepared, clock = fake_timed_pipeline
        split = make_splits(tiny_scenario)[-1]
        agent, cost_hours, state = _train_rl_for_split(
            prepared, split, TRIAL_CONFIG, None
        )
        assert agent is not None and state is not None
        # 3 trials x 1 fake hour each; the 500 s trace builds are excluded.
        assert cost_hours == pytest.approx(3.0)
        # The reconstructed best agent starts with a zeroed internal clock,
        # so wrapping it cannot double-charge the gradient-update time.
        assert agent.training_cost_node_hours == 0.0

    def test_reduce_sums_spans_from_any_schedule(self):
        from repro.evaluation.pipeline import _select_best_rl_trial

        trials = [
            RLTrialResult(0, trial=t, score=float(-t), state={"hidden_0_w": None},
                          train_seconds=3600.0, trained=True)
            for t in (2, 0, 1)  # arrival order must not matter
        ]
        # Patch state with something loadable is unnecessary: selection
        # happens before reconstruction, so intercept via monkeypatching is
        # avoided by checking the selected trial through the carry state.
        import repro.evaluation.pipeline as pipeline_mod

        chosen = {}

        def fake_agent_from_state(config, state):
            chosen["state"] = state
            return object()

        original = pipeline_mod._agent_from_state
        pipeline_mod._agent_from_state = fake_agent_from_state
        try:
            agent, cost_hours, state = _select_best_rl_trial(TRIAL_CONFIG, trials)
        finally:
            pipeline_mod._agent_from_state = original
        assert cost_hours == pytest.approx(3.0)
        # Highest score wins (trial 0 scored 0.0, the others negative).
        assert state is chosen["state"]
        assert trials[1].trial == 0 and state is trials[1].state
