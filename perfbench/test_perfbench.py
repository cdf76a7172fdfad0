"""Tests of the benchmark itself: span arithmetic, output checks, metadata.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

import run
import workloads
from tracer import OTHER, Probe, Span, Tracer, layer_table, self_time_by_name, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
        spans = [
            Span(1, "a1", 2.0, 3.0, 2, "r"),
            Span(2, "a", 1.0, 4.0, 0, "r"),
            Span(3, "b", 5.0, 9.0, 0, "r"),
            Span(0, "root", 0.0, 10.0, None, "r"),
        ]
        selfs = self_times(spans)
        assert selfs == {0: 3.0, 1: 1.0, 2: 2.0, 3: 4.0}
        assert sum(selfs.values()) == 10.0
        by_name = self_time_by_name(spans, root_names=("root",))
        assert by_name == {OTHER: 3.0, "a1": 1.0, "a": 2.0, "b": 4.0}

    def test_tracer_records_nesting_with_run_labels(self):
        clock = FakeClock()
        tracer = Tracer([], clock=clock)
        with tracer.span("iteration", run="iteration-0"):
            clock.now = 1.0
            with tracer.span("child"):
                clock.now = 3.0
                with tracer.span("grandchild"):
                    clock.now = 3.5
            clock.now = 6.0
        with tracer.span("outside"):
            clock.now = 7.0
        spans = {s.name: s for s in tracer.spans}
        assert spans["child"].parent == spans["iteration"].id
        assert spans["grandchild"].parent == spans["child"].id
        assert spans["outside"].parent is None
        assert spans["grandchild"].run == "iteration-0"
        assert spans["outside"].run == ""
        selfs = self_times(tracer.spans)
        # iteration [0, 6] > child [1, 3.5] > grandchild [3, 3.5]
        assert selfs[spans["iteration"].id] == pytest.approx(3.5)
        assert selfs[spans["child"].id] == pytest.approx(2.0)
        assert selfs[spans["grandchild"].id] == pytest.approx(0.5)

    def test_probes_wrap_methods_and_rebind_functions(self, monkeypatch):
        module = types.ModuleType("toy_layer")

        class Worker:
            def work(self, items):
                return [x * 2 for x in items]

        def helper(n):
            return Worker().work(range(n))

        module.Worker, module.helper = Worker, helper
        importer = types.ModuleType("toy_importer")
        importer.helper = helper
        monkeypatch.setitem(sys.modules, "toy_layer", module)
        monkeypatch.setitem(sys.modules, "toy_importer", importer)
        probes = [
            Probe("toy_layer:Worker", "work", "toy.layer.Worker.work", ("items",),
                  lambda a, k, r: (len(r),)),
            Probe("toy_layer", "helper", "toy.importer.helper"),
        ]
        tracer = Tracer(probes)
        with tracer, tracer.span("iteration", run="iteration-0"):
            assert importer.helper(3) == [0, 2, 4]
        assert importer.helper is helper and "work" in vars(Worker)
        assert Worker.work.__name__ == "work" and not hasattr(Worker.work, "__wrapped__")
        counts = tracer.count_totals(lambda run: run.startswith("iteration"))
        assert counts == {
            "toy.layer.Worker.work.calls": 1,
            "toy.layer.Worker.work.items": 3,
            "toy.importer.helper.calls": 1,
        }
        by_name = self_time_by_name(tracer.spans, root_names=("iteration",))
        table = layer_table(by_name, probes)
        assert set(table) == {"toy.layer", "toy.importer", OTHER}
        root = next(s for s in tracer.spans if s.name == "iteration")
        assert sum(table.values()) == pytest.approx(root.duration)


class _FlakyWorkload(workloads.Workload):
    """Returns the same output each run, except a perturbed second run."""

    name = "flaky"

    def setup(self, seed):
        return {"runs": 0}

    def run(self, state, key):
        state["runs"] += 1
        return [1.0, 2.0, 3.0 + (1e-12 if state["runs"] == 2 else 0.0)]

    def outcome(self, state, key, output, wall):
        return workloads.Outcome(
            items=len(output), seconds=wall, wall=wall, digest=workloads.digest(output)
        )


class TestOutputChecks:
    def test_perturbed_repeat_is_counted_as_failed(self):
        checker = run.Checker()
        outcomes = run.run_iterations(_FlakyWorkload(), {"runs": 0}, 0.0, checker)
        outcomes += run.run_iterations(_FlakyWorkload(), {"runs": 2}, 0.0, checker)
        assert len(outcomes) == 4
        assert checker.ops == 3
        assert checker.failed == ["repeat run gives the same digest"]

    def test_perturbed_program_output_fails_the_reference(self):
        workload = workloads.WORKLOADS["small-e2e"]
        seed = workload.default_seed
        references = run.load_references(workload.name, seed)
        assert set(references) == {str(key) for key in range(workload.panel)}
        state = workload.setup(seed)
        output = workload.run(state, 0)
        checker = run.Checker(references)
        checker.outcome(0, workload.outcome(state, 0, output, 1.0))
        assert checker.ops > 0 and checker.failed == []

        result = output[0]
        approach = result.approaches["SC20-RF"]
        first = approach.per_split[0]
        costs = dataclasses.replace(first.costs, ue_cost=first.costs.ue_cost + 1e-9)
        approach.per_split[0] = dataclasses.replace(first, costs=costs)
        checker.outcome(0, workload.outcome(state, 0, output, 1.0))
        assert "digest equals the recorded reference" in checker.failed
        assert "repeat run gives the same digest" in checker.failed

    def test_every_input_runs_and_one_repeats(self):
        class Panel(_FlakyWorkload):
            panel = 3

            def run(self, state, key):
                return [key]

        checker = run.Checker()
        outcomes = run.run_iterations(Panel(), None, 0.0, checker)
        assert [key for key, _ in outcomes] == [0, 1, 2, 0]
        assert checker.ops == 1 and checker.failed == []


class TestBenchmarkFile:
    def test_every_workload_rationale_is_recorded(self):
        recorded = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
        assert recorded == {name: w.why for name, w in workloads.WORKLOADS.items()}
        assert all(len(why) <= 200 and "\n" not in why for why in recorded.values())

    def test_per_layer_metrics_match_the_traced_run(self):
        assert BENCHMARK["per_layer"] == workloads.per_layer_metric_specs()
        assert len(BENCHMARK["per_layer"]) <= 128

    def test_end_to_end_metrics_match_the_untraced_run(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        assert names == list(run.END_TO_END)
        setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])

    def test_metric_names_are_valid(self):
        import re

        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        assert len(names) == len(set(names))
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
