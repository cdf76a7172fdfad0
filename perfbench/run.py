"""Repository benchmark: one workload per process, seeded by an argument.

Usage (from the repository root)::

    python3 perfbench/run.py --workload small-e2e --seed 7 --seconds 10 --trace 0

Workloads: ``small-e2e``, ``paper-prepare``, ``paper-serve``, ``paper-rl``
(see ``BENCHMARK.json`` for why each exists).  A run sets the workload up
``SETUP_REPEATS`` times (``setup_s`` is the median), then repeats the
workload's unit of work until ``--seconds`` have passed and every input of
the workload's panel ran, one of them twice, and checks every output.

End-to-end metrics: ``setup_s``; ``items_per_s``, the workload's unit of
work per second (RL env steps on ``small-e2e`` and ``paper-rl``, paper
windows prepared on ``paper-prepare``, decisions served on
``paper-serve``), from each input's median time; ``peak_rss_mb``.  The run
also prints ``wall_s`` (seconds per pass over the inputs) and the rate under
its own name (``env_steps_per_s``, ``windows_per_s`` or
``decisions_per_s``); those are not
in the JSON result, because every reported metric must be non-zero and
comparable on every workload, and a pass's work varies with the seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets up once
under the tracer, runs an untraced warm-up iteration, traced passes over the
workload's inputs for ``--seconds``, then one untraced pass (the reference
of the overhead figure), and prints the per-layer metrics (per pass),
per-layer self-time tables of both phases and the tracing overhead; the
spans go to ``perfbench/traces/`` as JSONL.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` are the ``ops`` / ``ops_failed`` counts of output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
#: Metrics of an untraced run, in ``BENCHMARK.json`` order.
END_TO_END = ("setup_s", "items_per_s", "peak_rss_mb")
#: Thread-count variables pinned to 1 before NumPy loads its BLAS.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Counts output checks into ``ops`` / ``ops_failed``.

    ``references`` maps an input key (as a string) to its recorded digest.
    """

    def __init__(self, references: dict | None = None) -> None:
        self.references = references or {}
        self.first_digest: dict[int, str] = {}
        self.ops = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.ops += 1
        if not ok:
            self.failed.append(name)

    def outcome(self, key: int, outcome) -> None:
        for name, ok in outcome.checks:
            self.check(name, ok)
        reference = self.references.get(str(key))
        if reference is not None:
            self.check("digest equals the recorded reference", outcome.digest == reference)
        if key in self.first_digest:
            self.check("repeat run gives the same digest", outcome.digest == self.first_digest[key])
        else:
            self.first_digest[key] = outcome.digest


def load_references(workload: str, seed: int) -> dict | None:
    references = json.loads((HERE / "references.json").read_text())
    return references.get(workload, {}).get(str(seed))


def run_iterations(workload, state, seconds: float, checker: Checker,
                   tracer=None, count: int | None = None, whole_passes: bool = False):
    """Repeat the workload's unit of work for ``seconds`` (checked).

    Iteration ``i`` runs input ``i % workload.panel``.  Every input runs at
    least once and one input twice; ``count`` fixes the number of
    iterations instead, and ``whole_passes`` ends on a complete pass over
    the panel.  With a ``tracer``, each unit of work runs under an
    ``iteration`` root span; digests and checks stay outside it.  Returns
    ``(key, outcome)`` pairs.
    """
    panel = workload.panel
    outcomes = []
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        n = len(outcomes)
        if count is not None:
            return n < count
        if n <= panel or (whole_passes and n % panel):
            return True
        return time.perf_counter() < deadline

    while more():
        key = len(outcomes) % panel
        started = time.perf_counter()
        if tracer is None:
            output = workload.run(state, key)
        else:
            with tracer.span("iteration", run=f"iteration-{len(outcomes)}"):
                output = workload.run(state, key)
        outcome = workload.outcome(state, key, output, time.perf_counter() - started)
        if not outcomes:
            for name, ok in workload.first_checks(state, output):
                checker.check(name, ok)
        checker.outcome(key, outcome)
        outcomes.append((key, outcome))
    return outcomes


def median(values) -> float:
    return float(statistics.median(values))


def per_pass(outcomes, value) -> float:
    """Sum over the panel's inputs of each input's median ``value``."""
    by_key: dict[int, list] = {}
    for key, outcome in outcomes:
        by_key.setdefault(key, []).append(value(outcome))
    return sum(median(values) for values in by_key.values())


def measure(workload, seed: int, seconds: float, checker: Checker) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)
    outcomes = run_iterations(workload, state, seconds, checker)
    items_per_s = per_pass(outcomes, lambda o: o.items) / per_pass(outcomes, lambda o: o.seconds)
    report = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (per_pass(outcomes, lambda o: o.wall), "s"),
        "items_per_s": (items_per_s, "1/s"),
        workload.rate_name: (items_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if "paper_rl_projection_h" in outcomes[0][1].info:
        report["mean_episode_steps"] = (outcomes[0][1].info["mean_episode_steps"], "steps")
        report["paper_rl_projection_h"] = (
            per_pass(outcomes, lambda o: o.info["paper_rl_projection_h"]), "h"
        )
    for note in sorted({note for _, o in outcomes for note in o.notes}):
        print(f"note: {note}")
    digests = {key: o.digest for key, o in outcomes}
    print(f"iterations: {len(outcomes)} over {workload.panel} input(s), "
          f"{per_pass(outcomes, lambda o: o.items):.0f} x {workload.item} per pass; "
          f"digests {json.dumps({str(k): d for k, d in sorted(digests.items())})}")
    return report


def measure_traced(workload, seed: int, seconds: float, checker: Checker, trace_dir: Path) -> dict:
    from tracer import Tracer, format_layer_table, layer_table, self_time_by_name
    from workloads import PROBES, SERVE_INFO

    tracer = Tracer(PROBES)
    with tracer, tracer.span("setup", run="setup"):
        state = workload.setup(seed)
    # One untraced warm-up iteration, the traced passes, then one untraced
    # pass (warm by then) as the reference of the overhead figure.
    run_iterations(workload, state, 0.0, checker, count=1)
    with tracer:
        outcomes = run_iterations(workload, state, seconds, checker,
                                  tracer=tracer, whole_passes=True)
    untraced = run_iterations(workload, state, 0.0, checker, count=workload.panel)
    untraced_wall = sum(o.wall for _, o in untraced)
    n = len(outcomes) / workload.panel
    measured = [s for s in tracer.spans if s.run.startswith("iteration")]
    traced_wall = sum(s.duration for s in measured if s.name == "iteration") / n
    by_name = self_time_by_name(measured, root_names=("iteration",))
    setup_spans = [s for s in tracer.spans if s.run == "setup"]
    setup_wall = max(s.end for s in setup_spans) - min(s.start for s in setup_spans)

    print(format_layer_table(
        "setup phase, self time per layer",
        layer_table(self_time_by_name(setup_spans, root_names=("setup",)), PROBES),
        setup_wall,
    ))
    per_iteration = {k: v / n for k, v in by_name.items()}
    print(format_layer_table(
        f"measured phase, self time per layer per pass over the panel "
        f"({len(outcomes)} iterations, {n:g} passes)",
        layer_table(per_iteration, PROBES),
        traced_wall,
    ))
    overhead = traced_wall - untraced_wall
    print(f"tracing overhead: {overhead:.4f} s per pass "
          f"(traced {traced_wall:.4f} s - untraced {untraced_wall:.4f} s)")

    counts = tracer.count_totals(lambda run: run.startswith("iteration"))
    metrics = {}
    for probe in PROBES:
        metrics[f"{probe.name}.calls"] = (counts.get(probe.name + ".calls", 0) / n, "count")
        metrics[f"{probe.name}.self_s"] = (per_iteration.get(probe.name, 0.0), "s")
        for key in probe.counts:
            metrics[f"{probe.name}.{key}"] = (counts.get(f"{probe.name}.{key}", 0) / n, "count")
    for name, (key, unit, _) in SERVE_INFO.items():
        values = [o.info[key] for _, o in outcomes if key in o.info]
        metrics[name] = (median(values) if values else 0, unit)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["other.self_s"] = (per_iteration.get("other", 0.0), "s")

    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(path, header={"workload": workload.name, **environment(seed)})
    print(f"spans: {len(tracer.spans)} written to {path}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=HERE / "traces")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the program's source tree {SOURCE} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    checker = Checker(load_references(workload.name, seed))
    print("environment: " + json.dumps({"workload": workload.name, **environment(seed)}))
    if args.trace:
        metrics = measure_traced(workload, seed, args.seconds, checker, args.trace_dir)
    else:
        report = measure(workload, seed, args.seconds, checker)
        for name, (value, unit) in report.items():
            print(f"{name} {value:.6g} {unit}")
        metrics = {name: report[name] for name in END_TO_END}
    print(f"ops {checker.ops}")
    print(f"ops_failed {len(checker.failed)}" + (
        f" ({'; '.join(sorted(set(checker.failed)))})" if checker.failed else ""))
    result = {
        "correct": not checker.failed,
        "attempted": checker.ops,
        "failed": len(checker.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
