"""Tests for the staged pipeline and its parallel execution.

The determinism test is the load-bearing one: the parallel executor must
produce an :class:`ExperimentResult` identical to the serial run, which holds
because every (split × approach-group) task seeds its own random streams
from stable string keys.  Wall-clock training-cost accounting is the only
non-deterministic quantity, so these tests disable it
(``charge_training_time=False``).
"""

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.evaluation.cross_validation import TimeSeriesNestedCV
from repro.evaluation.experiment import ExperimentConfig, run_experiment
from repro.evaluation.pipeline import (
    PreparedData,
    build_split_tasks,
    evaluate_split,
    make_splits,
    prepare_data,
    train_split,
)
from repro.evaluation.registry import enabled_specs
from repro.utils.timeutils import DAY

TINY_CONFIG = ExperimentConfig(
    rl_episodes=4,
    rl_hyperparam_trials=1,
    rl_hidden_sizes=(8,),
    rf_n_estimators=3,
    rf_max_depth=4,
    threshold_grid_size=4,
    charge_training_time=False,
)


@pytest.fixture(scope="module")
def tiny_scenario():
    """Two simulated months: every stage runs, nothing takes long."""
    return ScenarioConfig.small(seed=13).with_duration(60 * DAY)


@pytest.fixture(scope="module")
def tiny_prepared(tiny_scenario):
    return prepare_data(tiny_scenario, TINY_CONFIG)


class TestStages:
    def test_prepare_data_outputs(self, tiny_prepared, tiny_scenario):
        assert isinstance(tiny_prepared, PreparedData)
        assert tiny_prepared.scenario is tiny_scenario
        assert len(tiny_prepared.tracks) > 0
        assert tiny_prepared.reduction_report is not None

    def test_make_splits_matches_cv_layout(self, tiny_scenario):
        splits = make_splits(tiny_scenario)
        cfg = tiny_scenario.evaluation
        expected = TimeSeriesNestedCV(
            n_parts=cfg.cv_parts,
            train_fraction=cfg.cv_train_fraction,
            bootstrap_seconds=cfg.cv_bootstrap_seconds,
        ).splits(0.0, tiny_scenario.duration_seconds)
        assert splits == expected

    def test_train_and_evaluate_split_cover_enabled_approaches(
        self, tiny_prepared, tiny_scenario
    ):
        split = make_splits(tiny_scenario)[-1]
        trained = train_split(tiny_prepared, split, TINY_CONFIG)
        expected = [spec.name for spec in enabled_specs(TINY_CONFIG)]
        assert list(trained.policies) == expected

        evaluated = evaluate_split(tiny_prepared, split, trained, TINY_CONFIG)
        assert list(evaluated.evaluations) == expected
        assert evaluated.n_test_events > 0
        for name, evaluation in evaluated.evaluations.items():
            assert evaluation.policy_name == name

    def test_rl_state_carries_between_splits(self, tiny_prepared, tiny_scenario):
        splits = make_splits(tiny_scenario)
        first = train_split(tiny_prepared, splits[0], TINY_CONFIG)
        second = train_split(
            tiny_prepared, splits[1], TINY_CONFIG, rl_state_in=first.rl_state
        )
        # Whenever the RL agent trained, its state is available to chain.
        if first.policies["RL"].name == "RL" and first.rl_state is not None:
            assert isinstance(first.rl_state, dict)
        assert second.split_index == 1

    def test_build_split_tasks_one_per_group_and_rl_chain(
        self, tiny_prepared, tiny_scenario
    ):
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TINY_CONFIG)
        # 4 groups (static, rf, rl, oracle) x n splits, plus the one trial
        # task per split of TINY_CONFIG's single-trial RL search.
        assert len(tasks) == 5 * len(splits)
        by_key = {task.key: task for task in tasks}
        for split in splits:
            for group in ("static", "rf", "rl", "oracle"):
                assert f"{group}-{split.index}" in by_key
        # Warm start is on by default: RL tasks form a chain...
        assert by_key["rl-trial0-1"].deps == ("rl-0",)
        assert by_key["rl-1"].deps == ("rl-trial0-1",)
        # ...while everything else is independent.
        assert by_key["rf-1"].deps == ()
        assert by_key["static-3"].deps == ()

    def test_build_split_tasks_default_fans_out_rl_trials(
        self, tiny_prepared, tiny_scenario
    ):
        # The default shape: one task per trial plus a select-best reduce
        # for the "rl" group, single tasks for every other group.  TINY_CONFIG
        # runs one trial per split, so each split gains exactly one extra task.
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TINY_CONFIG)
        assert len(tasks) == 5 * len(splits)
        by_key = {task.key: task for task in tasks}
        # The reduce keeps the old chain key and carries the warm-start edge
        # to the next split's base candidate.
        assert by_key["rl-0"].deps == ("rl-trial0-0",)
        assert by_key["rl-trial0-1"].deps == ("rl-0",)
        assert by_key["rf-1"].deps == ()

    def test_group_tag_alone_does_not_trigger_training(
        self, tiny_prepared, tiny_scenario, monkeypatch
    ):
        # A custom approach sharing the "rl" group must not pay for the
        # DDDQN search when the RL approach itself is disabled.
        import repro.evaluation.pipeline as pipeline_mod
        from repro.core.policies import CallablePolicy
        from repro.evaluation.registry import (
            ApproachSpec,
            register_approach,
            unregister_approach,
        )

        def _exploding_rl_training(*args, **kwargs):
            raise AssertionError("RL training ran despite include_rl=False")

        monkeypatch.setattr(
            pipeline_mod, "_train_rl_for_split", _exploding_rl_training
        )
        register_approach(ApproachSpec(
            name="Cheap-RL-variant",
            build=lambda ctx, cfg, rng: CallablePolicy(
                lambda context: False, name="Cheap-RL-variant"
            ),
            group="rl",
        ))
        try:
            config = TINY_CONFIG.with_overrides(include_rl=False)
            split = make_splits(tiny_scenario)[-1]
            outcome = pipeline_mod.run_split_group(
                {}, {"tiny": tiny_prepared}, "tiny", split, "rl", config
            )
        finally:
            unregister_approach("Cheap-RL-variant")
        assert list(outcome.evaluations) == ["Cheap-RL-variant"]
        assert outcome.rl_policy is None

    def test_build_split_tasks_without_rf_family(self, tiny_prepared, tiny_scenario):
        # Regression: include_rf=False used to crash in ensure_sc20_variants,
        # which mistook the disabled default variants for name collisions.
        splits = make_splits(tiny_scenario)
        config = TINY_CONFIG.with_overrides(include_rf=False)
        tasks = build_split_tasks(tiny_prepared, splits, config)
        assert len(tasks) == 4 * len(splits)  # static, rl trial + reduce, oracle
        assert not any(task.key.startswith("rf-") for task in tasks)

    def test_run_experiment_without_rf_family(self, tiny_scenario):
        config = TINY_CONFIG.with_overrides(include_rf=False, include_rl=False)
        result = run_experiment(tiny_scenario, config)
        assert result.approach_names == ["Never-mitigate", "Always-mitigate", "Oracle"]

    def test_rl_chain_released_without_warm_start(self, tiny_prepared, tiny_scenario):
        splits = make_splits(tiny_scenario)
        config = TINY_CONFIG.with_overrides(rl_warm_start=False)
        tasks = build_split_tasks(tiny_prepared, splits, config)
        # Each split's base trial carries the only cross-split RL edge.
        rl_deps = [task.deps for task in tasks if task.key.startswith("rl-trial0-")]
        assert len(rl_deps) == len(splits)
        # Either fully independent (all splits have training data) or fully
        # chained (some split must pass the previous agent through).
        assert all(deps == () for deps in rl_deps) or all(
            deps != () for deps in rl_deps[1:]
        )


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def serial_result(self, tiny_scenario):
        return run_experiment(tiny_scenario, TINY_CONFIG)

    @pytest.fixture(scope="class")
    def parallel_result(self, tiny_scenario):
        return run_experiment(
            tiny_scenario, TINY_CONFIG.with_overrides(n_workers=4)
        )

    def test_parallel_equals_serial(self, serial_result, parallel_result):
        assert serial_result.approach_names == parallel_result.approach_names
        assert serial_result.n_test_events == parallel_result.n_test_events
        assert serial_result.splits == parallel_result.splits
        for name in serial_result.approach_names:
            serial_approach = serial_result.approaches[name]
            parallel_approach = parallel_result.approaches[name]
            assert len(serial_approach.per_split) == len(parallel_approach.per_split)
            for a, b in zip(serial_approach.per_split, parallel_approach.per_split):
                assert a.costs == b.costs, name
                assert a.confusion == b.confusion, name
                assert a.n_traces == b.n_traces, name
                assert a.n_decision_points == b.n_decision_points, name

    def test_parallel_final_artifacts_match(self, serial_result, parallel_result):
        assert np.array_equal(
            serial_result.final_test_features, parallel_result.final_test_features
        )
        if serial_result.final_rl_policy is not None:
            assert parallel_result.final_rl_policy is not None
            serial_state = serial_result.final_rl_policy.agent.state_dict()
            parallel_state = parallel_result.final_rl_policy.agent.state_dict()
            assert serial_state.keys() == parallel_state.keys()
            for key in serial_state:
                assert np.array_equal(serial_state[key], parallel_state[key]), key

    def test_all_approaches_cover_all_splits(self, serial_result):
        for approach in serial_result.approaches.values():
            assert len(approach.per_split) == len(serial_result.splits)
