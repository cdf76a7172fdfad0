"""``python -m repro`` — run, sweep, report, list and gc from the command line.

Five subcommands over the :class:`~repro.study.Study` facade and the
:class:`~repro.store.ArtifactStore`:

``run``
    One experiment on a preset scenario, axis flags applied::

        python -m repro run --preset small --mitigation-cost 5 \\
            --restartable off --fast --store runs/

``sweep``
    A grid over the paper's axes; comma-separated flag values become sweep
    axes (``--restartable both`` is shorthand for ``on,off``), validated by
    the same compiler as a suite file's ``axes:``::

        python -m repro sweep --mitigation-cost 2,5,10 --restartable both \\
            --store runs/

    With ``--store``, completed points load from disk and the run reports
    how many points it actually computed — re-running a finished sweep
    prints ``points computed: 0``.

    A sweep also scales across processes and machines that share nothing
    but the store directory (see :mod:`repro.distributed`)::

        python -m repro sweep ... --store runs/ --shard 0/4   # worker 0 of 4
        python -m repro sweep ... --store runs/ --claim       # work stealing
        python -m repro sweep ... --store runs/ --status      # who's doing what
        python -m repro sweep ... --store runs/ --reduce      # assemble manifest

    ``--shard i/N`` statically partitions the points; ``--claim`` workers
    race over all missing points through atomic store leases, heartbeat
    while computing, and reclaim the points of workers that die.  Either
    way the reduced sweep is bit-identical to a single-process run (with
    ``charge_training_time=False``).

``report``
    Render a stored sweep's points × approaches table without recomputing
    anything: ``python -m repro report --store runs/``.

``list``
    Inventory of a store: sweeps, experiment results, prepared products.
    ``report``, ``list`` and ``gc`` never create a store: pointed at a path
    without one they print ``error: no artifact store at PATH`` and exit 2.

``gc``
    Prune ``prepared/`` products no stored sweep or result references
    (``--dry-run`` reports the freeable bytes without deleting): long-lived
    stores otherwise keep every spilled product forever.

``serve``
    The online micro-batched decision service (see :mod:`repro.serve`):
    tail an mcelog file — or replay a synthetic preset stream, optionally
    paced at a multiple of real time — through a mitigation policy, one
    batched model call per tick::

        python -m repro serve --source preset:small --policy sc20
        python -m repro serve --source /var/log/mcelog.events --policy always \\
            --follow --decision-log decisions.jsonl
        python -m repro serve --source preset:small --policy rl \\
            --replay-at-speed 100000   # storm mode: 100000x real time

    Trained policies (``sc20``, ``myopic``, ``rl``) are fitted on the first
    ``--train-fraction`` of a preset stream (on the file's current contents
    for file sources) and serve the remainder; decisions are bit-identical
    to an offline ``evaluate_policy`` replay of the same events.

``run`` and ``sweep`` additionally accept ``--profile``: each pipeline
stage runs under cProfile, the raw stats are merged across stages
(``pstats.Stats.add``) and ONE top-cumulative-time table is printed after
the report (per-stage tables plus the merged ``"total"`` entry are
surfaced as ``result.extras["profile"]`` in the API).  The profile covers
whatever the driver process executes.

Every table is rendered by :mod:`repro.evaluation.report` — the CLI prints
exactly what the library's ``format_*`` helpers produce.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence

from repro.config import ScenarioConfig
from repro.evaluation.costs import CostBreakdown
from repro.evaluation.pipeline import ExperimentConfig
from repro.evaluation.report import format_cost_table, format_metrics_table
from repro.evaluation.sweep import SweepSpec
from repro.store import ArtifactStore
from repro.study import Study
from repro.suite import PRESETS, SuiteError, compile_axes, load_suite, run_suite
from repro.utils.profiling import format_profile
from repro.utils.timeutils import DAY

__all__ = ["main", "build_parser"]

#: The ``run``/``sweep`` axis flags, keyed by the :class:`SweepSpec` axis
#: each one feeds; their values compile through the suite's axis compiler.
_AXIS_FLAGS = {
    "mitigation_costs": "--mitigation-cost",
    "restartable": "--restartable",
    "manufacturers": "--manufacturer",
    "job_scales": "--job-scale",
    "seeds": "--seeds",
}


# --------------------------------------------------------------------- #
# Flag value parsing
# --------------------------------------------------------------------- #
def _axis_token(text: str) -> Any:
    """One comma-separated flag token as a suite file would hold it."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _parse_shard(text: str):
    """``I/N`` — this process is worker I of an N-way static partition."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected I/N (e.g. 0/4), got {text!r}"
        )
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must satisfy 0 <= I < N, got {text!r}"
        )
    return (index, count)


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #
def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=PRESETS,
        default="small",
        help="base ScenarioConfig preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=None, help="root scenario seed")
    parser.add_argument(
        "--duration-days",
        type=float,
        default=None,
        help="override the simulated production period, in days",
    )


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use ExperimentConfig.fast() instead of the default schedule",
    )
    parser.add_argument(
        "--episodes", type=int, default=None, help="RL episodes per split"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="parallel (split x group) tasks"
    )
    parser.add_argument(
        "--executor",
        choices=("process", "thread", "serial"),
        default=None,
        help="executor backend",
    )
    parser.add_argument(
        "--charge-training-time",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="charge measured wall-clock training time to the mitigation "
        "costs (default: on; --no-charge-training-time makes results fully "
        "deterministic — required for bit-identical distributed sweeps)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="ArtifactStore directory: load completed work, persist the rest",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each pipeline stage under cProfile and print one merged "
        "top-cumulative-time table after the report",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DRAM error-mitigation study runner (HPDC'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    _add_scenario_flags(run)
    run.add_argument("--mitigation-cost", metavar="NODE_MINUTES")
    run.add_argument("--restartable", metavar="on|off")
    run.add_argument("--manufacturer", metavar="all|A|B|C")
    run.add_argument("--job-scale", metavar="FACTOR")
    _add_experiment_flags(run)
    run.add_argument("--metrics", action="store_true",
                     help="also print the Table 2 classical-ML metrics")

    sweep = sub.add_parser("sweep", help="run a grid over the paper's axes")
    _add_scenario_flags(sweep)
    sweep.add_argument("--mitigation-cost", metavar="2,5,10")
    sweep.add_argument("--restartable", metavar="on|off|both")
    sweep.add_argument("--manufacturer", metavar="all,A,B,C")
    sweep.add_argument("--job-scale", metavar="0.1,1,10")
    sweep.add_argument("--seeds", metavar="1,2,3")
    _add_experiment_flags(sweep)
    sweep.add_argument("--which", default="total",
                       choices=CostBreakdown.series_fields(),
                       help="cost series shown in the table (default: total)")
    distributed = sweep.add_argument_group(
        "distributed execution",
        "multi-worker sweeps coordinated through a shared --store "
        "(see repro.distributed); --shard/--claim/--status/--reduce are "
        "mutually exclusive and all require --store",
    )
    distributed.add_argument(
        "--shard",
        type=_parse_shard,
        default=None,
        metavar="I/N",
        help="compute only worker I's share of an N-way static partition "
        "of the points (e.g. --shard 0/4 ... --shard 3/4, one per process)",
    )
    distributed.add_argument(
        "--claim",
        action="store_true",
        help="dynamic work stealing: claim missing points through atomic "
        "store leases, heartbeat while computing, reclaim dead workers' "
        "points after their lease TTL; waits until the whole sweep is done",
    )
    distributed.add_argument(
        "--worker-id",
        default=None,
        metavar="NAME",
        help="this worker's identity in leases and status output "
        "(default: host:pid:nonce)",
    )
    distributed.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat staleness after which other workers may reclaim "
        "this worker's leased points (default: 120)",
    )
    distributed.add_argument(
        "--status",
        action="store_true",
        help="print each point's state (done / leased by whom, heartbeat "
        "age / pending) and exit without computing anything",
    )
    distributed.add_argument(
        "--reduce",
        action="store_true",
        help="assemble and store the sweep manifest from already-computed "
        "points and print the table; fails if any point is still missing",
    )

    suite = sub.add_parser(
        "suite",
        help="run a declarative scenario suite from a YAML file",
        description="Compile every scenario block of SUITE.yaml into a "
        "SweepSpec and run it through the ordinary sweep engine, so suite "
        "results are bit-identical to the equivalent direct sweeps.",
    )
    suite.add_argument("suite_file", metavar="SUITE.yaml")
    suite.add_argument(
        "--validate",
        action="store_true",
        help="parse and schema-check the suite, print its plan, execute "
        "nothing; exits non-zero on any schema error",
    )
    suite.add_argument(
        "--only",
        metavar="BLOCK",
        default=None,
        help="run a single named scenario block of the suite",
    )
    _add_experiment_flags(suite)
    suite.add_argument("--which", default="total",
                       choices=CostBreakdown.series_fields(),
                       help="cost series shown in the tables (default: total)")
    suite_distributed = suite.add_argument_group(
        "distributed execution",
        "multi-worker suites coordinated through a shared --store, exactly "
        "as in `sweep`; mcelog-sourced blocks bypass the store and are "
        "rejected under --shard/--claim",
    )
    suite_distributed.add_argument(
        "--shard", type=_parse_shard, default=None, metavar="I/N",
        help="compute only worker I's share of an N-way static partition "
        "of every block's points",
    )
    suite_distributed.add_argument(
        "--claim", action="store_true",
        help="dynamic work stealing through atomic store leases, one block "
        "at a time",
    )
    suite_distributed.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="this worker's identity in leases (default: host:pid:nonce)",
    )
    suite_distributed.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="heartbeat staleness after which other workers may reclaim "
        "this worker's leased points (default: 120)",
    )

    serve = sub.add_parser(
        "serve", help="run the online micro-batched decision service"
    )
    serve.add_argument(
        "--source",
        default="preset:small",
        metavar="FILE|preset:NAME",
        help="mcelog-format file to tail, or preset:NAME for a synthetic "
        "scenario stream (default: preset:small)",
    )
    serve.add_argument(
        "--policy",
        choices=("never", "always", "sc20", "myopic", "rl"),
        default="sc20",
        help="mitigation policy to serve (default: sc20)",
    )
    serve.add_argument("--seed", type=int, default=None, help="root scenario seed")
    serve.add_argument(
        "--mitigation-cost",
        type=float,
        default=None,
        metavar="NODE_MINUTES",
        help="cost of one mitigation (default: the scenario's, or 2)",
    )
    serve.add_argument("--restartable", choices=("on", "off"), default="on")
    serve.add_argument(
        "--threshold", type=float, default=0.4, help="SC20 forest threshold"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="tick as soon as this many nodes have a pending step",
    )
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=50.0,
        help="tick at most this long after the first pending step arrived",
    )
    serve.add_argument(
        "--merge-window-seconds",
        type=float,
        default=60.0,
        help="event merge window of the online feature extractor",
    )
    serve.add_argument(
        "--replay-at-speed",
        type=float,
        default=None,
        metavar="X",
        help="pace a replayed stream at X times real time (storm mode); "
        "default: unthrottled",
    )
    serve.add_argument(
        "--train-fraction",
        type=float,
        default=0.5,
        help="leading fraction of a preset stream used to train sc20/myopic/"
        "rl; the remainder is served (default: 0.5)",
    )
    serve.add_argument(
        "--rl-episodes", type=int, default=120, help="RL training episodes"
    )
    serve.add_argument(
        "--job-nodes",
        type=float,
        default=1.0,
        help="nodes per job assumed for file sources (constant-job provider)",
    )
    serve.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing a file source for appended lines (tail -f)",
    )
    serve.add_argument(
        "--decision-log",
        metavar="PATH",
        default=None,
        help="write the per-node decision log as JSON lines",
    )

    report = sub.add_parser("report", help="render a stored sweep without recomputing")
    report.add_argument("--store", metavar="DIR", required=True)
    report.add_argument("--sweep", metavar="KEY", default=None,
                        help="sweep manifest key (defaults to the only stored sweep)")
    report.add_argument("--which", default="total",
                        choices=CostBreakdown.series_fields(),
                        help="cost series shown in the table (default: total)")

    listing = sub.add_parser("list", help="inventory of a store")
    listing.add_argument("--store", metavar="DIR", required=True)

    gc = sub.add_parser(
        "gc",
        help="prune prepared artifacts not referenced by any stored sweep "
        "or result",
    )
    gc.add_argument("--store", metavar="DIR", required=True)
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned (and how many bytes it would "
        "free) without deleting anything",
    )
    gc.add_argument(
        "--grace-minutes",
        type=float,
        default=60.0,
        help="keep products modified within this window, so a sweep "
        "currently spilling to the store is never raced (default: 60)",
    )

    return parser


# --------------------------------------------------------------------- #
# Argument -> object assembly
# --------------------------------------------------------------------- #
def _scenario_from_args(args) -> ScenarioConfig:
    scenario = getattr(ScenarioConfig, args.preset)()
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    if args.duration_days is not None:
        scenario = scenario.with_duration(args.duration_days * DAY)
    return scenario


def _config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig.fast() if args.fast else ExperimentConfig()
    overrides = {}
    if args.episodes is not None:
        overrides["rl_episodes"] = args.episodes
    if args.workers is not None:
        overrides["n_workers"] = args.workers
    if args.executor is not None:
        overrides["executor_kind"] = args.executor
    if args.charge_training_time is not None:
        overrides["charge_training_time"] = args.charge_training_time
    if args.profile:
        overrides["profile"] = True
    return config.with_overrides(**overrides) if overrides else config


def _print_profile(extras) -> None:
    """Print the stage profile collected by ``--profile`` (if any)."""
    report = (extras or {}).get("profile")
    if report:
        print()
        print(format_profile(report))


def _executor_summary(stats) -> Optional[str]:
    """One-line executor timing report (``None`` without recorded stats).

    The critical path is the heaviest dependency chain of the task graph —
    the wall-clock lower bound at any worker count — so comparing it with
    the serial-equivalent total shows how much the RL trial fan-out (or a
    bigger ``--workers``) can still buy.
    """
    if stats is None or not stats.task_seconds:
        return None
    return (
        f"executor: {len(stats.task_seconds)} tasks, "
        f"{stats.total_task_seconds:.1f}s total work, "
        f"critical path {stats.critical_path_seconds:.1f}s "
        f"({len(stats.critical_path)} chained tasks)"
    )


def _spec_from_args(args) -> SweepSpec:
    """The sweep the axis flags describe, compiled like a suite block's axes.

    The flags only split on commas (``--restartable both`` is ``on,off``);
    the suite's validators decide the rest.  A bad value exits with one
    line on stderr naming the flag.
    """
    base = _scenario_from_args(args)
    raw = {}
    for axis, flag in _AXIS_FLAGS.items():
        text = getattr(args, flag[2:].replace("-", "_"), None)
        if text is None:
            continue
        if axis == "restartable" and text == "both":
            text = "on,off"
        raw[axis] = [_axis_token(part) for part in text.split(",") if part]
    try:
        spec = SweepSpec(base=base, **compile_axes(raw, _AXIS_FLAGS.get))
        spec.points()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return spec


def _store_from_args(args) -> Optional[ArtifactStore]:
    return None if args.store is None else ArtifactStore(args.store)


def _existing_store(path: str) -> ArtifactStore:
    """The store at ``path`` for ``report``/``list``/``gc``, creating nothing.

    A mistyped ``--store`` must not turn into a fresh, empty store.
    """
    if not (Path(path) / ArtifactStore.MARKER).is_file():
        print(f"error: no artifact store at {path}", file=sys.stderr)
        raise SystemExit(2)
    return ArtifactStore(path)


def _check_distributed_flags(args, store: Optional[ArtifactStore]) -> List[str]:
    """Validate the distributed-execution flags; return the chosen modes."""
    chosen = [
        flag
        for flag, on in (
            ("--shard", args.shard is not None),
            ("--claim", args.claim),
            ("--status", getattr(args, "status", False)),
            ("--reduce", getattr(args, "reduce", False)),
        )
        if on
    ]
    if len(chosen) > 1:
        raise SystemExit(f"error: {' and '.join(chosen)} are mutually exclusive")
    if chosen and store is None:
        raise SystemExit(
            f"error: {chosen[0]} coordinates workers through a shared "
            f"store; pass --store DIR"
        )
    if args.worker_id is not None and not args.claim:
        raise SystemExit("error: --worker-id only applies to --claim workers")
    if args.lease_ttl is not None and not args.claim:
        raise SystemExit("error: --lease-ttl only applies to --claim workers")
    return chosen


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #
def _cmd_run(args) -> int:
    points = _spec_from_args(args).points()
    if len(points) != 1:
        raise SystemExit(
            f"error: `run` takes exactly one value per axis flag (got "
            f"{len(points)} points); use the `sweep` subcommand for grids"
        )
    scenario = points[0].scenario

    study = Study.from_scenario(scenario, store=_store_from_args(args))
    result = study.run(_config_from_args(args))
    print(study.report())
    summary = _executor_summary(result.executor_stats)
    if summary is not None:
        print()
        print(summary)
    if args.metrics:
        print()
        print(study.report(which="metrics"))
    _print_profile(result.extras)
    return 0


def _print_sweep_status(spec, config, store) -> int:
    """The ``sweep --status`` body: each point's distributed-sweep state."""
    from repro.distributed import sweep_status

    statuses = sweep_status(spec, config, store)
    print(f"store: {store.root} (sweep {store.sweep_key(spec, config)})")
    for status in statuses:
        print(f"  {status.describe()}")
    counts = {"done": 0, "leased": 0, "pending": 0}
    for status in statuses:
        counts[status.state] += 1
    print(
        f"{counts['done']}/{len(statuses)} done, "
        f"{counts['leased']} leased, {counts['pending']} pending"
    )
    return 0


def _run_distributed_sweep(args, spec, config, store):
    """The ``sweep --shard/--claim/--reduce`` body; returns the result or None."""
    from repro.distributed import reduce_sweep, run_sweep_worker, sweep_status

    if args.reduce:
        result = reduce_sweep(spec, config, store)
        if result is None:
            missing = [
                s.label for s in sweep_status(spec, config, store) if s.state != "done"
            ]
            print(
                f"error: cannot reduce, {len(missing)} point(s) still "
                f"missing: {', '.join(missing)}",
                file=sys.stderr,
            )
        return result
    outcome = run_sweep_worker(
        spec,
        config,
        store,
        shard=args.shard,
        claim=args.claim,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
    )
    print(outcome.summary())
    return outcome.result


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    store = _store_from_args(args)
    config = _config_from_args(args)
    chosen = _check_distributed_flags(args, store)

    if args.status:
        return _print_sweep_status(spec, config, store)
    if chosen:
        result = _run_distributed_sweep(args, spec, config, store)
        if result is None:
            if args.reduce:
                return 2
            print(
                "this worker's share is done; other shards are still "
                "pending — run --reduce (or the remaining shards) to finish"
            )
            return 0
        print(result.table(which=args.which))
        print(f"store: {store.root} (sweep {store.sweep_key(spec, config)})")
        return 0

    study = Study.from_sweep(spec, store=store)
    result = study.run(config)
    print(result.table(which=args.which))
    print()
    print(f"wallclock: {result.wallclock_seconds:.1f}s, "
          f"prepare_data calls: {result.prepare_calls} for {len(result)} point(s)")
    summary = _executor_summary(result.extras.get("executor_stats"))
    if summary is not None:
        print(summary)
    if store is not None:
        loaded = study.points_loaded
        print(f"store: {store.root} (sweep {store.sweep_key(spec, study.config)})")
        print(f"points loaded from store: {len(loaded)}")
        print(f"points computed: {len(study.points_computed)}")
    _print_profile(result.extras)
    return 0


def _cmd_suite(args) -> int:
    try:
        suite = load_suite(args.suite_file)
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.validate:
        print(
            f"{args.suite_file}: OK — suite {suite.name!r}, "
            f"{len(suite.entries)} block(s), {suite.n_points} point(s)"
        )
        for entry in suite.entries:
            tags = []
            if entry.source is not None:
                tags.append(f"mcelog:{entry.source}")
            if entry.experiment_overrides:
                tags.append(
                    "experiment: "
                    + ", ".join(
                        f"{k}={v}" for k, v in entry.experiment_overrides.items()
                    )
                )
            suffix = f"  [{'; '.join(tags)}]" if tags else ""
            print(f"  {entry.name}: {entry.spec.n_points} point(s){suffix}")
        return 0

    store = _store_from_args(args)
    config = _config_from_args(args)
    _check_distributed_flags(args, store)

    try:
        results = run_suite(
            suite,
            config,
            store=store,
            only=args.only,
            shard=args.shard,
            claim=args.claim,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
        )
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pending = 0
    for name, result in results.items():
        print(f"== {name} ==")
        if result is None:
            pending += 1
            print("this worker's share is done; other shards are still "
                  "pending — rerun (or run the remaining shards) to finish")
        else:
            print(result.table(which=args.which))
            if store is not None and result.spec is not None:
                entry = suite.entry(name)
                entry_config = config.with_overrides(
                    **entry.experiment_overrides
                )
                if entry.source is None:
                    print(
                        f"store: {store.root} "
                        f"(sweep {store.sweep_key(entry.spec, entry_config)})"
                    )
        print()
    return 0


def _serve_policy(
    kind: str,
    train_log,
    mitigation_cost_node_hours: float,
    restartable: bool,
    seed: int,
    threshold: float,
    rl_episodes: int,
    job_sampler=None,
):
    """Build (and, where needed, train) the policy a serve run deploys."""
    from repro.baselines.static import AlwaysMitigatePolicy, NeverMitigatePolicy

    if kind == "never":
        return NeverMitigatePolicy()
    if kind == "always":
        return AlwaysMitigatePolicy()

    from repro.baselines.dataset import build_prediction_dataset
    from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
    from repro.core.features import build_feature_tracks

    if train_log is None or len(train_log) == 0:
        raise SystemExit(
            f"error: --policy {kind} needs training data, but the training "
            f"slice of the stream is empty; lower --train-fraction or pick "
            f"a richer source"
        )
    tracks = build_feature_tracks(train_log)
    t_lo = float(train_log.time[0])
    t_hi = float(train_log.time[-1])

    if kind in ("sc20", "myopic"):
        dataset = build_prediction_dataset(
            tracks, prediction_window_seconds=DAY, t_start=t_lo, t_end=t_hi + 1.0
        )
        if len(dataset) == 0:
            raise SystemExit(
                "error: the training slice yields no prediction samples"
            )
        forest, _ = train_sc20_forest(dataset, n_estimators=16, max_depth=8, seed=seed)
        sc20 = SC20RandomForestPolicy(forest, threshold=threshold)
        if kind == "sc20":
            return sc20
        from repro.baselines.myopic import MyopicRFPolicy

        return MyopicRFPolicy(sc20, mitigation_cost_node_hours)

    if job_sampler is None:
        raise SystemExit(
            "error: --policy rl needs a job log to train against; use a "
            "preset source (--source preset:NAME)"
        )
    from repro.core.dqn import DDDQNAgent, DQNConfig
    from repro.core.environment import MitigationEnv
    from repro.core.features import StateNormalizer
    from repro.core.policies import RLPolicy
    from repro.core.trainer import train_agent

    normalizer = StateNormalizer()
    env = MitigationEnv(
        tracks,
        job_sampler,
        mitigation_cost_node_hours,
        restartable=restartable,
        normalizer=normalizer,
        seed=seed,
    )
    agent = DDDQNAgent(
        normalizer.state_dim, DQNConfig(hidden_sizes=(32, 16), seed=seed)
    )
    train_agent(env, agent, n_episodes=rl_episodes)
    return RLPolicy(agent, normalizer)


def _source_error(path: str, exc: Exception) -> int:
    """Report an unreadable or malformed mcelog file in one line."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    print(f"error: {path}: {reason}", file=sys.stderr)
    return 2


def _cmd_serve(args) -> int:
    import asyncio
    import json

    from repro.serve import (
        ConstantJobProvider,
        DecisionService,
        ReplaySource,
        SampledJobProvider,
        ServeConfig,
        TailSource,
    )

    restartable = args.restartable == "on"
    if not 0.0 <= args.train_fraction < 1.0:
        raise SystemExit("error: --train-fraction must be in [0, 1)")

    if args.source.startswith("preset:"):
        name = args.source.split(":", 1)[1]
        if name not in PRESETS:
            raise SystemExit(
                f"error: unknown preset {name!r}; choose from {', '.join(PRESETS)}"
            )
        from repro.telemetry.generator import TelemetryGenerator
        from repro.telemetry.reduction import prepare_log
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.sampling import JobSequenceSampler

        scenario = getattr(ScenarioConfig, name)()
        if args.seed is not None:
            scenario = scenario.with_seed(args.seed)
        raw = TelemetryGenerator(
            scenario.topology,
            scenario.fault_model,
            scenario.duration_seconds,
            seed=scenario.seed,
        ).generate()
        log, _ = prepare_log(raw, scenario.evaluation.ue_burst_window_seconds)
        if len(log) == 0:
            raise SystemExit("error: the preset scenario generated no events")
        job_log = WorkloadGenerator(
            scenario.workload,
            n_cluster_nodes=scenario.topology.n_nodes,
            duration_seconds=scenario.duration_seconds,
            seed=scenario.seed,
        ).generate()
        sampler = JobSequenceSampler(job_log, seed=scenario.seed)
        cost_minutes = (
            args.mitigation_cost
            if args.mitigation_cost is not None
            else scenario.evaluation.mitigation_cost_node_minutes
        )
        cost_hours = cost_minutes / 60.0
        t_lo = float(log.time[0])
        t_hi = float(log.time[-1])
        cutoff = t_lo + args.train_fraction * (t_hi - t_lo)
        train_log = log.filter_time(t_lo, cutoff)
        served = log.filter_time(cutoff, t_hi + 1.0)
        policy = _serve_policy(
            args.policy,
            train_log,
            cost_hours,
            restartable,
            scenario.seed,
            args.threshold,
            args.rl_episodes,
            job_sampler=sampler,
        )
        jobs = SampledJobProvider(sampler, cutoff, t_hi + 1.0, seed=scenario.seed)
        source = ReplaySource(served, speed=args.replay_at_speed)
        described = (
            f"{len(served)} events of preset:{name} "
            f"({len(train_log)} used for training)"
        )
    else:
        if args.replay_at_speed is not None:
            raise SystemExit(
                "error: --replay-at-speed paces a replayed preset stream; "
                "file sources already arrive at their own pace"
            )
        if args.policy == "rl":
            raise SystemExit(
                "error: --policy rl needs a job log to train against; use a "
                "preset source (--source preset:NAME)"
            )
        train_log = None
        if args.policy in ("sc20", "myopic"):
            from repro.telemetry.error_log import ErrorLog
            from repro.telemetry.mcelog import iter_mcelog_records

            try:
                with open(args.source, "r", encoding="utf-8") as handle:
                    train_log = ErrorLog.from_records(
                        list(iter_mcelog_records(handle))
                    )
            except (OSError, ValueError) as exc:
                return _source_error(args.source, exc)
        cost_minutes = (
            args.mitigation_cost if args.mitigation_cost is not None else 2.0
        )
        cost_hours = cost_minutes / 60.0
        policy = _serve_policy(
            args.policy,
            train_log,
            cost_hours,
            restartable,
            args.seed if args.seed is not None else 0,
            args.threshold,
            args.rl_episodes,
        )
        jobs = ConstantJobProvider(n_nodes=args.job_nodes)
        source = TailSource(args.source, follow=args.follow)
        described = args.source + (" (following)" if args.follow else "")

    config = ServeConfig(
        mitigation_cost_node_hours=cost_hours,
        restartable=restartable,
        max_batch=args.max_batch,
        max_delay_seconds=args.max_delay_ms / 1000.0,
        merge_window_seconds=args.merge_window_seconds,
    )
    print(f"serving {described} with policy {policy.name}")
    service = DecisionService(policy, jobs, config)
    try:
        report = asyncio.run(service.run(source))
    except (OSError, ValueError) as exc:
        if args.source.startswith("preset:"):
            raise
        return _source_error(args.source, exc)
    print(report.summary())
    histogram = report.batch_size_histogram()
    if histogram:
        print(
            "batch sizes: "
            + ", ".join(f"{size}x{count}" for size, count in histogram.items())
        )
    if args.decision_log is not None:
        with open(args.decision_log, "w", encoding="utf-8") as handle:
            for record in report.decisions:
                handle.write(json.dumps(record.to_dict()) + "\n")
        print(f"decision log: {args.decision_log} ({len(report.decisions)} entries)")
    return 0


def _pick_sweep_key(store: ArtifactStore, requested: Optional[str]) -> Optional[str]:
    if requested is not None:
        return requested
    sweeps = store.list_sweeps()
    if len(sweeps) == 1:
        return sweeps[0]["key"]
    if not sweeps:
        print("error: the store holds no sweeps", file=sys.stderr)
        return None
    print(
        "error: the store holds several sweeps; pick one with --sweep KEY:",
        file=sys.stderr,
    )
    for entry in sweeps:
        print(
            f"  {entry['key']}  base={entry['base_scenario']}  "
            f"points={len(entry['labels'])}",
            file=sys.stderr,
        )
    return None


def _cmd_report(args) -> int:
    store = _existing_store(args.store)
    key = _pick_sweep_key(store, args.sweep)
    if key is None:
        return 2
    result = store.load_sweep_by_key(key)
    if result is None:
        print(f"error: no stored sweep with key {key!r}", file=sys.stderr)
        return 2
    print(result.table(which=args.which, title=f"Sweep {key} — {args.which} cost"))
    return 0


def _cmd_list(args) -> int:
    store = _existing_store(args.store)
    sweeps = store.list_sweeps()
    results = store.list_results()
    prepared = store.list_prepared()
    print(f"store: {store.root}")
    print(f"sweeps ({len(sweeps)}):")
    for entry in sweeps:
        labels = ", ".join(entry["labels"])
        print(f"  {entry['key']}  base={entry['base_scenario']}  points: {labels}")
    print(f"results ({len(results)}):")
    for entry in results:
        print(
            f"  {entry['key']}  scenario={entry['scenario']} seed={entry['seed']} "
            f"cost={entry['mitigation_cost_node_minutes']:g} "
            f"approaches={len(entry['approaches'])}"
        )
    print(f"prepared ({len(prepared)}):")
    for key in prepared:
        print(f"  {key}")
    return 0


def _cmd_gc(args) -> int:
    store = _existing_store(args.store)
    report = store.gc(
        dry_run=args.dry_run, grace_seconds=args.grace_minutes * 60.0
    )
    verb = "would remove" if report.dry_run else "removed"
    print(f"store: {store.root}")
    for key in report.removed:
        print(f"  {verb}: prepared/{key}")
    for key in report.expired_leases:
        print(f"  {verb}: expired lease {key}")
    megabytes = report.freed_bytes / (1024 * 1024)
    print(
        f"{verb} {len(report.removed)} unreferenced prepared product(s), "
        f"freeing {report.freed_bytes} bytes ({megabytes:.1f} MiB); "
        f"{len(report.kept)} referenced product(s) kept"
    )
    if report.active_leases:
        print(
            f"{len(report.active_leases)} active lease(s) pinned their "
            f"prepared products"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro``; returns the process exit code."""
    args = build_parser().parse_args(argv)
    commands = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "suite": _cmd_suite,
        "serve": _cmd_serve,
        "report": _cmd_report,
        "list": _cmd_list,
        "gc": _cmd_gc,
    }
    return commands[args.command](args)
