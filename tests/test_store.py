"""The disk-backed :class:`repro.store.ArtifactStore`.

Covers the three artifact families (prepared data, experiment results,
sweep manifests), the content-key semantics (evaluation parameters shared,
scheduling knobs ignored), and the golden-vs-store guarantee: a stored and
reloaded result is field-identical to the freshly computed one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import (
    ExperimentConfig,
    PreparedDataCache,
    prepare_data,
    prepared_data_key,
)
from repro.serialization import SchemaError
from repro.store import ArtifactStore
from repro.utils.timeutils import DAY
from repro.serialization import canonical_json, tag


SCENARIO = ScenarioConfig.small(seed=11).with_duration(45 * DAY)

#: Cheapest config that exercises every approach group.
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


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "runs")


class TestMarker:
    def test_store_creates_and_reopens_marker(self, tmp_path):
        root = tmp_path / "runs"
        ArtifactStore(root)
        assert (root / "store.json").exists()
        ArtifactStore(root)  # idempotent reopen

    def test_foreign_marker_rejected(self, tmp_path):
        root = tmp_path / "runs"
        root.mkdir()
        (root / "store.json").write_text(canonical_json(tag("not_a_store", {})))
        with pytest.raises(SchemaError):
            ArtifactStore(root)


class TestPreparedData:
    def test_roundtrip_rebuilds_identical_product(self, store):
        prepared = prepare_data(SCENARIO, TINY)
        store.save_prepared(prepared, TINY)
        loaded = store.load_prepared(SCENARIO, TINY)
        assert loaded is not None
        assert loaded.scenario == SCENARIO
        assert loaded.reduction_report == prepared.reduction_report
        assert loaded.data_key == prepared_data_key(SCENARIO, TINY)
        assert sorted(loaded.tracks) == sorted(prepared.tracks)
        for node, track in prepared.tracks.items():
            other = loaded.tracks[node]
            assert np.array_equal(track.times, other.times)
            assert np.array_equal(track.features, other.features)
            assert np.array_equal(track.is_ue, other.is_ue)
        assert loaded.sampler.job_log == prepared.sampler.job_log

    def test_miss_returns_none(self, store):
        assert store.load_prepared(SCENARIO, TINY) is None
        assert not store.has_prepared(SCENARIO, TINY)

    def test_evaluation_parameters_share_one_entry(self, store):
        """Same key semantics as the in-memory cache: cost/restartable excluded."""
        prepared = prepare_data(SCENARIO, TINY)
        store.save_prepared(prepared, TINY)
        cheaper = SCENARIO.with_mitigation_cost(10.0).with_restartable(False)
        assert store.prepared_key(cheaper, TINY) == store.prepared_key(SCENARIO, TINY)
        loaded = store.load_prepared(cheaper, TINY)
        assert loaded is not None
        # Re-bound to the requesting scenario, not the saved one.
        assert loaded.scenario == cheaper
        assert loaded.data_key == prepared_data_key(cheaper, TINY)

    def test_data_axes_get_distinct_entries(self, store):
        base_key = store.prepared_key(SCENARIO, TINY)
        assert store.prepared_key(SCENARIO.with_seed(99), TINY) != base_key
        assert store.prepared_key(SCENARIO.with_manufacturer(1), TINY) != base_key
        assert store.prepared_key(SCENARIO.with_job_scale(2.0), TINY) != base_key

    def test_spill_backend_loads_without_prepare_calls(self, store):
        writer = PreparedDataCache(spill=store)
        writer.get(SCENARIO, TINY)
        assert writer.prepare_calls == 1
        assert writer.spill_saves == 1

        reader = PreparedDataCache(spill=store)  # fresh session
        prepared = reader.get(SCENARIO, TINY)
        assert reader.prepare_calls == 0
        assert reader.spill_hits == 1
        assert prepared.scenario == SCENARIO
        # Second get is a pure memory hit.
        reader.get(SCENARIO, TINY)
        assert reader.hits == 1
        assert reader.spill_hits == 1

    def test_external_logs_never_spill(self, store, raw_error_log):
        cache = PreparedDataCache(spill=store)
        cache.get(SCENARIO, TINY, error_log=raw_error_log)
        assert cache.spill_saves == 0
        assert store.list_prepared() == []


class TestExperimentResults:
    @pytest.fixture(scope="class")
    def fresh_result(self):
        return run_experiment(SCENARIO, TINY)

    def test_stored_and_reloaded_result_is_field_identical(self, store, fresh_result):
        """The golden-vs-store guarantee of the serialization schema."""
        store.save_result(SCENARIO, TINY, fresh_result)
        reloaded = store.load_result(SCENARIO, TINY)
        assert reloaded is not None
        assert reloaded.scenario_name == fresh_result.scenario_name
        assert (
            reloaded.mitigation_cost_node_hours
            == fresh_result.mitigation_cost_node_hours
        )
        assert reloaded.splits == fresh_result.splits
        assert reloaded.reduction_report == fresh_result.reduction_report
        assert reloaded.n_test_events == fresh_result.n_test_events
        assert reloaded.wallclock_seconds == fresh_result.wallclock_seconds
        assert reloaded.approach_names == fresh_result.approach_names
        for name in fresh_result.approach_names:
            assert (
                reloaded.approaches[name].per_split
                == fresh_result.approaches[name].per_split
            ), name
        # And therefore every derived quantity agrees exactly.
        assert reloaded.total_costs() == fresh_result.total_costs()
        assert reloaded.confusions() == fresh_result.confusions()
        assert reloaded.to_json() == fresh_result.to_json()

    def test_schedule_knobs_share_a_result_slot(self, store):
        parallel = TINY.with_overrides(n_workers=4, executor_kind="process")
        assert store.result_key(SCENARIO, parallel) == store.result_key(SCENARIO, TINY)

    def test_result_knobs_get_distinct_slots(self, store):
        assert store.result_key(
            SCENARIO, TINY.with_overrides(rl_episodes=6)
        ) != store.result_key(SCENARIO, TINY)
        assert store.result_key(
            SCENARIO.with_mitigation_cost(10.0), TINY
        ) != store.result_key(SCENARIO, TINY)

    def test_miss_returns_none(self, store):
        assert store.load_result(SCENARIO, TINY) is None


class TestKeyStability:
    """Content keys address existing stores on disk: pinned digests."""

    def test_default_config_keys(self):
        from repro.evaluation.sweep import SweepSpec
        from repro.store.backends import DictBackend

        store = ArtifactStore(backend=DictBackend())
        config = ExperimentConfig()
        assert store.result_key(ScenarioConfig.small(), config) == "2b5262527ec67869"
        spec = SweepSpec(base=ScenarioConfig.small())
        assert store.sweep_key(spec, config) == "8df937dc458b8329"

    def test_cli_smoke_sweep_keys(self):
        from repro import cli
        from repro.store.backends import DictBackend

        args = cli.build_parser().parse_args(
            [
                "sweep",
                "--duration-days", "60",
                "--mitigation-cost", "2,10",
                "--fast",
                "--episodes", "20",
                "--workers", "2",
            ]
        )
        spec = cli._spec_from_args(args)
        config = cli._config_from_args(args)
        store = ArtifactStore(backend=DictBackend())
        assert store.sweep_key(spec, config) == "df77bd8aa56f4b7f"
        assert [store.result_key(p.scenario, config) for p in spec.points()] == [
            "eedc4ad62025ae71",
            "7bf77540a8b09981",
        ]


RETIRED_KEYS = pytest.mark.parametrize(
    ("name", "value"), [("rl_trial_tasks", False), ("compiled", True)]
)


class TestRetiredConfigKey:
    """Stores written while ``ExperimentConfig`` had a since-retired field."""

    @RETIRED_KEYS
    def test_config_payload_with_the_retired_key_loads(self, name, value):
        payload = TINY.to_dict()
        payload[name] = value
        assert ExperimentConfig.from_dict(payload) == TINY
        # Every other unknown key is still an error.
        payload["no_such_field"] = 1
        with pytest.raises(TypeError):
            ExperimentConfig.from_dict(payload)


class TestInventory:
    def test_listings_cover_all_families(self, store):
        from repro.evaluation.sweep import SweepSpec, run_sweep

        spec = SweepSpec(base=SCENARIO, mitigation_costs=(2.0, 10.0))
        run_sweep(spec, TINY, cache=PreparedDataCache(spill=store), store=store)

        sweeps = store.list_sweeps()
        assert len(sweeps) == 1
        assert sweeps[0]["base_scenario"] == SCENARIO.name
        assert sorted(sweeps[0]["labels"]) == ["cost=10", "cost=2"]

        results = store.list_results()
        assert len(results) == 2
        assert {entry["scenario"] for entry in results} == {SCENARIO.name}

        assert len(store.list_prepared()) == 1

        rebuilt = store.load_sweep_by_key(sweeps[0]["key"])
        assert rebuilt is not None
        assert sorted(rebuilt.labels) == ["cost=10", "cost=2"]

    def test_manifest_with_missing_result_is_reported(self, store):
        from repro.evaluation.sweep import SweepSpec, run_sweep

        spec = SweepSpec(base=SCENARIO, mitigation_costs=(2.0,))
        run_sweep(spec, TINY, cache=PreparedDataCache(), store=store)
        key = store.list_sweeps()[0]["key"]
        result_key = store.list_results()[0]["key"]
        (store.root / "results" / f"{result_key}.json").unlink()
        with pytest.raises(SchemaError, match="missing result"):
            store.load_sweep_by_key(key)

    def test_load_sweep_miss_returns_none(self, store):
        assert store.load_sweep_by_key("0" * 16) is None


class TestAtomicity:
    def test_half_written_result_never_visible(self, store, tmp_path):
        """Readers only ever see complete JSON files (atomic replace)."""
        fresh = run_experiment(SCENARIO, TINY)
        store.save_result(SCENARIO, TINY, fresh)
        path = store.root / "results" / f"{store.result_key(SCENARIO, TINY)}.json"
        json.loads(path.read_text())  # parses completely
        leftovers = list((store.root / "results").glob("*.tmp"))
        assert leftovers == []


class TestGarbageCollection:
    @pytest.fixture()
    def populated(self, store):
        """A store with one result-referenced and one orphaned product."""
        prepared = prepare_data(SCENARIO, TINY)
        store.save_prepared(prepared, TINY)
        store.save_result(SCENARIO, TINY, run_experiment(SCENARIO, TINY))
        orphan_scenario = ScenarioConfig.small(seed=4242).with_duration(20 * DAY)
        orphan_key = store.save_prepared(
            prepare_data(orphan_scenario, TINY), TINY
        )
        return store, store.prepared_key(SCENARIO, TINY), orphan_key

    def test_referenced_keys_cover_results_and_sweeps(self, populated):
        store, referenced_key, orphan_key = populated
        referenced = store.referenced_prepared_keys()
        assert referenced_key in referenced
        assert orphan_key not in referenced

    def test_dry_run_reports_without_deleting(self, populated):
        store, referenced_key, orphan_key = populated
        report = store.gc(dry_run=True, grace_seconds=0.0)
        assert report.dry_run
        assert report.removed == (orphan_key,)
        assert referenced_key in report.kept
        assert report.freed_bytes > 0
        assert orphan_key in store.list_prepared()  # nothing deleted

    def test_gc_prunes_orphans_and_keeps_referenced(self, populated):
        store, referenced_key, orphan_key = populated
        dry = store.gc(dry_run=True, grace_seconds=0.0)
        report = store.gc(grace_seconds=0.0)
        assert report.removed == (orphan_key,)
        assert report.freed_bytes == dry.freed_bytes
        assert store.list_prepared() == [referenced_key]
        # The referenced product still loads after the pass.
        assert store.load_prepared(SCENARIO, TINY) is not None
        # A second pass is a no-op.
        assert store.gc(grace_seconds=0.0).removed == ()

    @RETIRED_KEYS
    def test_result_payloads_with_the_retired_key_load_and_gc(
        self, populated, name, value
    ):
        store, referenced_key, orphan_key = populated
        (key,) = store.backend.list("results/")
        payload = json.loads(store.backend.get(key))
        payload["config"][name] = value
        store.backend.put(key, json.dumps(payload).encode("utf-8"))
        assert store.load_result(SCENARIO, TINY) is not None
        assert store.gc(grace_seconds=0.0).removed == (orphan_key,)
        assert store.list_prepared() == [referenced_key]

    def test_gc_prunes_incomplete_entries(self, store):
        incomplete = store.root / "prepared" / "deadbeefdeadbeef"
        incomplete.mkdir(parents=True)
        (incomplete / "arrays.npz").write_bytes(b"partial")
        report = store.gc(grace_seconds=0.0)
        assert "deadbeefdeadbeef" in report.removed
        assert not incomplete.exists()

    def test_grace_window_protects_in_flight_products(self, populated):
        """A freshly written (possibly still-spilling) product survives."""
        store, referenced_key, orphan_key = populated
        report = store.gc(grace_seconds=3600.0)
        assert report.removed == ()
        assert orphan_key in report.kept
        assert orphan_key in store.list_prepared()
