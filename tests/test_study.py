"""The :class:`repro.study.Study` facade and its resume-from-store contract.

The load-bearing test here is the acceptance round-trip: a sweep run into a
fresh store, all in-memory caches dropped, then ``Study.resume()`` of the
same spec — which must call ``prepare_data`` / ``train_split`` exactly zero
times while reproducing a byte-identical ``SweepResult`` JSON.
"""

from __future__ import annotations

import pytest

from repro.config import ScenarioConfig
from repro.evaluation import pipeline
from repro.evaluation.pipeline import ExperimentConfig, clear_trace_cache
from repro.evaluation.sweep import SweepResult, SweepSpec
from repro.store import ArtifactStore
from repro.study import Study
from repro.utils.timeutils import DAY

SCENARIO = ScenarioConfig.small(seed=11).with_duration(45 * DAY)

TINY = ExperimentConfig(
    rl_episodes=5,
    rl_hyperparam_trials=1,
    rl_hidden_sizes=(8, 8),
    rf_n_estimators=3,
    rf_max_depth=3,
    threshold_grid_size=3,
    charge_training_time=False,
    executor_kind="serial",
)

SPEC = SweepSpec(base=SCENARIO, mitigation_costs=(2.0, 10.0))


@pytest.fixture()
def stage_counters(monkeypatch):
    """Count every ``prepare_data`` / ``train_split`` stage invocation."""
    calls = {"prepare_data": 0, "train_split": 0}
    orig_prepare = pipeline.prepare_data
    orig_train = pipeline.train_split

    def counting_prepare(*args, **kwargs):
        calls["prepare_data"] += 1
        return orig_prepare(*args, **kwargs)

    def counting_train(*args, **kwargs):
        calls["train_split"] += 1
        return orig_train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "prepare_data", counting_prepare)
    monkeypatch.setattr(pipeline, "train_split", counting_train)
    return calls


class TestConstruction:
    def test_exactly_one_of_scenario_or_spec(self):
        with pytest.raises(ValueError, match="exactly one"):
            Study()
        with pytest.raises(ValueError, match="exactly one"):
            Study(scenario=SCENARIO, spec=SPEC)

    def test_from_sweep_accepts_base_scenario_plus_axes(self):
        study = Study.from_sweep(SCENARIO, mitigation_costs=(2.0, 10.0))
        assert study.spec == SPEC

    def test_from_sweep_rejects_axes_with_ready_spec(self):
        with pytest.raises(TypeError, match="axis keyword"):
            Study.from_sweep(SPEC, mitigation_costs=(2.0,))

    def test_result_before_run_raises(self):
        with pytest.raises(RuntimeError, match="not been run"):
            Study.from_scenario(SCENARIO).result

    def test_resume_without_store_raises(self):
        with pytest.raises(RuntimeError, match="ArtifactStore"):
            Study.from_sweep(SPEC).resume(TINY)


class TestScenarioStudies:
    def test_run_matches_run_experiment_and_report_renders(self):
        study = Study.from_scenario(SCENARIO)
        result = study.run(TINY)
        assert result is study.result
        assert "Never-mitigate" in study.report()
        assert "recall" in study.report(which="metrics")
        assert study.points_loaded == [] and study.points_computed == []

    def test_store_round_trip_serves_second_run_from_disk(
        self, tmp_path, stage_counters
    ):
        store = ArtifactStore(tmp_path / "runs")
        first = Study.from_scenario(SCENARIO, store=store)
        first.run(TINY)
        computed_calls = dict(stage_counters)
        assert computed_calls["prepare_data"] == 1

        clear_trace_cache()
        second = Study.from_scenario(SCENARIO, store=store)
        reloaded = second.resume(TINY)
        assert stage_counters == computed_calls  # nothing recomputed
        assert reloaded.to_json() == first.result.to_json()


    def test_prepared_data_spills_across_configs(self, tmp_path, stage_counters):
        """A scenario study's prepared data serves later runs with *different*
        experiment configs (result key differs, prepared key does not)."""
        store = ArtifactStore(tmp_path / "runs")
        Study.from_scenario(SCENARIO, store=store).run(TINY)
        assert stage_counters["prepare_data"] == 1

        clear_trace_cache()
        retrained = Study.from_scenario(SCENARIO, store=ArtifactStore(tmp_path / "runs"))
        retrained.run(TINY.with_overrides(rl_episodes=6))  # new result slot
        assert stage_counters["prepare_data"] == 1  # spill served the data


class TestSweepResume:
    def test_resume_round_trip_is_free_and_byte_identical(
        self, tmp_path, stage_counters
    ):
        """The acceptance criterion of the store/Study API."""
        store = ArtifactStore(tmp_path / "runs")
        first = Study.from_sweep(SPEC, store=store)
        result_1 = first.run(TINY)
        assert isinstance(result_1, SweepResult)
        assert first.points_computed == ["cost=2", "cost=10"]
        assert first.points_loaded == []
        assert stage_counters["prepare_data"] == 1  # both points share data
        assert stage_counters["train_split"] == 0  # group tasks, not train_split
        json_1 = result_1.to_json()

        # Simulate a new session: drop every in-memory cache.
        clear_trace_cache()
        stage_counters["prepare_data"] = 0
        stage_counters["train_split"] = 0

        second = Study.from_sweep(SPEC, store=ArtifactStore(tmp_path / "runs"))
        result_2 = second.resume(TINY)
        assert stage_counters == {"prepare_data": 0, "train_split": 0}
        assert second.points_loaded == ["cost=2", "cost=10"]
        assert second.points_computed == []
        assert result_2.to_json() == json_1

    def test_partial_resume_executes_only_missing_points(self, tmp_path):
        store = ArtifactStore(tmp_path / "runs")
        Study.from_sweep(
            SweepSpec(base=SCENARIO, mitigation_costs=(2.0,)), store=store
        ).run(TINY)

        clear_trace_cache()
        study = Study.from_sweep(SPEC, store=ArtifactStore(tmp_path / "runs"))
        result = study.run(TINY)
        assert study.points_loaded == ["cost=2"]
        assert study.points_computed == ["cost=10"]
        # The warm-started point matches a from-scratch computation.
        clear_trace_cache()
        fresh = Study.from_sweep(
            SweepSpec(base=SCENARIO, mitigation_costs=(10.0,))
        )
        fresh_result = fresh.run(TINY)
        assert (
            result["cost=10"].total_costs() == fresh_result["cost=10"].total_costs()
        )

    def test_sweep_without_store_computes_everything(self, stage_counters):
        study = Study.from_sweep(SPEC)
        result = study.run(TINY)
        assert sorted(result.labels) == ["cost=10", "cost=2"]
        assert study.points_computed == ["cost=2", "cost=10"]
        assert "cost=2" in study.report()
