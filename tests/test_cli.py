"""``python -m repro`` — the CLI over Study and ArtifactStore.

The heavyweight path (sweep into a store, report from it, resume with zero
recomputed points) mirrors the CI smoke step; everything else exercises the
flag parsing and error reporting without running experiments.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.config import ScenarioConfig
from repro.evaluation.sweep import SweepSpec

#: Cheapest CLI schedule that still runs every approach.
FAST_FLAGS = [
    "--duration-days", "45",
    "--seed", "11",
    "--fast",
    "--episodes", "5",
    "--executor", "serial",
]


def _spec(argv):
    """The SweepSpec a command line's axis flags compile to."""
    return cli._spec_from_args(cli.build_parser().parse_args(argv))


class TestParsing:
    def test_restartable_values(self, capsys):
        assert _spec(["sweep", "--restartable", "both"]).restartable == (True, False)
        assert _spec(["sweep", "--restartable", "on,off"]).restartable == (True, False)
        assert _spec(["run", "--restartable", "off"]).restartable == (False,)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--restartable", "maybe"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: --restartable") and "maybe" in err
        assert "\n" not in err

    def test_manufacturer_values(self, capsys):
        assert _spec(["sweep", "--manufacturer", "all"]).manufacturers == (None,)
        assert _spec(["sweep", "--manufacturer", "A,b,2"]).manufacturers == (0, 1, 2)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--manufacturer", "Z"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: --manufacturer") and "'Z'" in err
        assert "\n" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--mitigation-cost", "2,two"], "--mitigation-cost"),
            (["sweep", "--seeds", "1,1.5"], "--seeds"),
            (["run", "--job-scale", "big"], "--job-scale"),
            (["run", "--manufacturer", "-1"], "--manufacturer"),
        ],
    )
    def test_bad_axis_value_is_one_line_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {flag} ")
        assert "\n" not in err and "Traceback" not in err

    def test_sweep_axes_compile_to_the_hand_built_spec(self):
        spec = _spec(
            [
                "sweep",
                "--mitigation-cost", "2,10",
                "--restartable", "both",
                "--manufacturer", "all,A",
                "--job-scale", "0.5",
                "--seeds", "1,2",
            ]
        )
        expected = SweepSpec(
            base=ScenarioConfig.small(),
            mitigation_costs=(2.0, 10.0),
            restartable=(True, False),
            manufacturers=(None, 0),
            job_scales=(0.5,),
            seeds=(1, 2),
        )
        assert spec == expected
        assert [p.label for p in spec.points()] == [
            p.label for p in expected.points()
        ]

    def test_run_scenario_equals_the_hand_built_one(self):
        spec = _spec(
            [
                "run",
                "--seed", "11",
                "--mitigation-cost", "5",
                "--restartable", "off",
                "--manufacturer", "B",
                "--job-scale", "2",
            ]
        )
        (point,) = spec.points()
        assert point.scenario == (
            ScenarioConfig.small()
            .with_seed(11)
            .with_mitigation_cost(5.0)
            .with_restartable(False)
            .with_manufacturer(1)
            .with_job_scale(2.0)
        )

    def test_run_rejects_multi_valued_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="sweep"):
            cli.main(["run", "--mitigation-cost", "2,5"] + FAST_FLAGS)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_invalid_which_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--which", "totl"])
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main(["report", "--store", "x", "--which", "totl"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--shard", "0/2", "--claim"], "--shard and --claim are mutually"),
            (["--claim"], "--claim coordinates workers through a shared store"),
            (["--worker-id", "w0"], "--worker-id only applies to --claim"),
            (["--lease-ttl", "5"], "--lease-ttl only applies to --claim"),
        ],
    )
    def test_sweep_and_suite_share_the_distributed_flag_checks(
        self, argv, message, tmp_path
    ):
        suite_file = tmp_path / "s.yaml"
        suite_file.write_text("scenarios: {a: {preset: small}}\n")
        for command in (["sweep"], ["suite", str(suite_file)]):
            with pytest.raises(SystemExit, match=message):
                cli.main(command + argv + ["--fast", "--executor", "serial"])


class TestServe:
    """The `serve` subcommand over a tiny mcelog file (fast policies only)."""

    EVENTS = (
        "# spooled by mcelog\n"
        "CE time=10.0 node=3 dimm=1 count=4 rank=0 bank=2\n"
        "BOOT time=15.5 node=7\n"
        "CE time=200.25 node=3 dimm=1 count=1\n"
        "UE time=300.0 node=3 dimm=1\n"
        "CE time=410.0 node=7 dimm=2 count=2\n"
    )

    def _spool(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text(self.EVENTS)
        return str(path)

    def test_serve_file_source_with_decision_log(self, tmp_path, capsys):
        import json

        log_path = str(tmp_path / "decisions.jsonl")
        assert (
            cli.main(
                [
                    "serve",
                    "--source", self._spool(tmp_path),
                    "--policy", "always",
                    "--decision-log", log_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Always-mitigate: 5 events -> 5 steps" in out
        assert "decisions/s" in out
        with open(log_path) as handle:
            entries = [json.loads(line) for line in handle]
        assert len(entries) == 5
        assert sum(entry["is_ue"] for entry in entries) == 1
        assert all(
            set(entry) == {"tick", "node", "time", "ue_cost", "mitigate", "is_ue"}
            for entry in entries
        )

    def test_serve_never_policy(self, tmp_path, capsys):
        assert (
            cli.main(
                ["serve", "--source", self._spool(tmp_path), "--policy", "never"]
            )
            == 0
        )
        assert "0 mitigations" in capsys.readouterr().out

    def test_serve_rejects_rl_without_a_preset(self, tmp_path):
        with pytest.raises(SystemExit, match="preset"):
            cli.main(["serve", "--source", self._spool(tmp_path), "--policy", "rl"])

    def test_serve_rejects_bad_train_fraction(self, tmp_path):
        with pytest.raises(SystemExit, match="train-fraction"):
            cli.main(
                [
                    "serve",
                    "--source", self._spool(tmp_path),
                    "--policy", "always",
                    "--train-fraction", "1.5",
                ]
            )

    def test_serve_rejects_unknown_preset(self):
        with pytest.raises(SystemExit, match="unknown preset"):
            cli.main(["serve", "--source", "preset:galactic", "--policy", "never"])

    def test_serve_rejects_pacing_a_file_source(self, tmp_path):
        with pytest.raises(SystemExit, match="replay-at-speed"):
            cli.main(
                [
                    "serve",
                    "--source", self._spool(tmp_path),
                    "--policy", "always",
                    "--replay-at-speed", "100",
                ]
            )

    @pytest.mark.parametrize("policy", ["never", "sc20"])
    def test_serve_missing_file_is_a_one_line_error(self, policy, tmp_path, capsys):
        missing = str(tmp_path / "missing.mcelog")
        assert cli.main(["serve", "--source", missing, "--policy", policy]) == 2
        assert capsys.readouterr().err == (
            f"error: {missing}: No such file or directory\n"
        )

    @pytest.mark.parametrize("policy", ["never", "sc20"])
    def test_serve_malformed_line_is_a_one_line_error(self, policy, tmp_path, capsys):
        path = tmp_path / "events.log"
        path.write_text(self.EVENTS + "CE time=oops node=3\n")
        assert cli.main(["serve", "--source", str(path), "--policy", policy]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 7: ")
        assert err.count("\n") == 1

    def test_serve_trains_a_forest_on_the_file(self, tmp_path, capsys):
        """sc20 on a file source trains on the file's own contents."""
        # A handful of CE/UE pairs gives the dataset both classes.
        lines = ["# generated\n"]
        t = 0.0
        for node in range(4):
            for k in range(6):
                t += 400.0
                lines.append(f"CE time={t!r} node={node} dimm=0 count={k + 1}\n")
            t += 120.0
            lines.append(f"UE time={t!r} node={node}\n")
        path = tmp_path / "trainable.log"
        path.write_text("".join(lines))
        assert (
            cli.main(["serve", "--source", str(path), "--policy", "sc20"]) == 0
        )
        assert "SC20-RF" in capsys.readouterr().out


class TestReportErrors:
    @pytest.fixture()
    def empty_store(self, tmp_path):
        from repro.store import ArtifactStore

        return str(ArtifactStore(tmp_path / "runs").root)

    def test_report_on_empty_store_fails_cleanly(self, empty_store, capsys):
        assert cli.main(["report", "--store", empty_store]) == 2
        assert "no sweeps" in capsys.readouterr().err

    def test_report_unknown_key_fails_cleanly(self, empty_store, capsys):
        assert cli.main(["report", "--store", empty_store, "--sweep", "f" * 16]) == 2
        assert "no stored sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "list", "gc"])
    def test_read_only_commands_never_create_a_store(
        self, command, tmp_path, capsys
    ):
        missing = tmp_path / "runz"
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--store", str(missing)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: no artifact store at {missing}\n"
        assert not missing.exists()


class TestSweepLifecycle:
    def test_sweep_report_resume_lifecycle(self, tmp_path, capsys):
        """sweep -> report -> identical re-run with zero recomputed points."""
        store_dir = str(tmp_path / "runs")
        sweep_args = (
            ["sweep", "--mitigation-cost", "2,10", "--store", store_dir]
            + FAST_FLAGS
        )

        assert cli.main(sweep_args) == 0
        first = capsys.readouterr().out
        assert "cost=2" in first and "cost=10" in first
        assert "points computed: 2" in first
        assert "points loaded from store: 0" in first
        # The executor's measured critical path is part of the report, so
        # the RL trial fan-out's effect is observable from the command line.
        assert "critical path" in first

        assert cli.main(["report", "--store", store_dir]) == 0
        report = capsys.readouterr().out
        assert "cost=2" in report and "Never-mitigate" in report

        assert cli.main(sweep_args) == 0
        second = capsys.readouterr().out
        assert "points computed: 0" in second
        assert "points loaded from store: 2" in second

        assert cli.main(["list", "--store", store_dir]) == 0
        listing = capsys.readouterr().out
        assert "sweeps (1)" in listing
        assert "results (2)" in listing
        assert "prepared (1)" in listing

        # gc: the sweep's product is referenced, an orphan is prunable.
        from repro.config import ScenarioConfig
        from repro.evaluation.pipeline import ExperimentConfig, prepare_data
        from repro.store import ArtifactStore
        from repro.utils.timeutils import DAY

        store = ArtifactStore(store_dir)
        orphan = ScenarioConfig.small(seed=4242).with_duration(20 * DAY)
        orphan_key = store.save_prepared(
            prepare_data(orphan, ExperimentConfig.fast()), ExperimentConfig.fast()
        )
        assert cli.main(["gc", "--store", store_dir, "--dry-run", "--grace-minutes", "0"]) == 0
        dry = capsys.readouterr().out
        assert f"would remove: prepared/{orphan_key}" in dry
        assert "freeing" in dry and "1 referenced product(s) kept" in dry
        assert orphan_key in store.list_prepared()

        assert cli.main(["gc", "--store", store_dir, "--grace-minutes", "0"]) == 0
        pruned = capsys.readouterr().out
        assert f"removed: prepared/{orphan_key}" in pruned
        assert orphan_key not in store.list_prepared()

        # The sweep still reports from the store after the gc pass.
        assert cli.main(["report", "--store", store_dir]) == 0


class TestProfileFlag:
    def test_run_with_profile_prints_one_merged_table(self, tmp_path, capsys):
        args = (
            ["run", "--mitigation-cost", "5", "--profile"]
            + FAST_FLAGS
        )
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        # One merged top-N table (pstats.Stats.add across stages), naming
        # the stages it covers — not a table per stage.
        assert out.count("top functions by cumulative time") == 1
        assert "merged across stages" in out
        assert "prepare_data" in out and "execute_tasks" in out
        assert "cumtime" in out

    @pytest.mark.parametrize("driver", ["run_experiment", "run_sweep"])
    def test_profile_surfaces_in_result_extras(self, driver):
        from repro.config import ScenarioConfig
        from repro.evaluation.experiment import run_experiment
        from repro.evaluation.pipeline import ExperimentConfig, PreparedDataCache
        from repro.evaluation.sweep import SweepSpec, run_sweep
        from repro.utils.timeutils import DAY

        scenario = ScenarioConfig.small(seed=11).with_duration(30 * DAY)
        config = ExperimentConfig(
            include_rf=False,
            include_rl=False,
            include_myopic=False,
            charge_training_time=False,
            executor_kind="serial",
            profile=True,
        )
        if driver == "run_experiment":
            extras = run_experiment(scenario, config).extras
        else:
            # A one-point sweep reports the same stages, aggregate included.
            extras = run_sweep(
                SweepSpec(base=scenario), config, cache=PreparedDataCache()
            ).extras
        report = extras["profile"]
        assert set(report) == {
            "prepare_data", "execute_tasks", "aggregate", "total",
        }
        for rows in report.values():
            assert rows and {"function", "ncalls", "tottime", "cumtime"} <= set(
                rows[0]
            )
        # The merged entry folds the raw stats: a function's combined call
        # count is at least its count in any single stage's table.
        per_stage_max = {}
        for stage in ("prepare_data", "execute_tasks", "aggregate"):
            for row in report[stage]:
                per_stage_max[row["function"]] = max(
                    per_stage_max.get(row["function"], 0), row["ncalls"]
                )
        merged_calls = {row["function"]: row["ncalls"] for row in report["total"]}
        shared = set(merged_calls) & set(per_stage_max)
        assert shared
        for function in shared:
            assert merged_calls[function] >= per_stage_max[function]

    def test_profile_off_leaves_extras_empty(self):
        from repro.config import ScenarioConfig
        from repro.evaluation.experiment import run_experiment
        from repro.evaluation.pipeline import ExperimentConfig
        from repro.utils.timeutils import DAY

        scenario = ScenarioConfig.small(seed=11).with_duration(30 * DAY)
        config = ExperimentConfig(
            include_rf=False,
            include_rl=False,
            include_myopic=False,
            charge_training_time=False,
            executor_kind="serial",
        )
        result = run_experiment(scenario, config)
        assert "profile" not in result.extras
