"""Span tracer for the benchmark's traced runs.

Spans are recorded around calls *into* the program's layers: the tracer
replaces selected public callables (class methods and module-level
functions) with thin wrappers for the duration of a traced phase and puts
the originals back afterwards.  Nothing in ``src/`` is modified.

Each span keeps ``(id, name, start, end, parent, run)``; spans live in
memory and are written as JSONL when the benchmark ends.  A span's *self
time* is its duration minus the time covered by its direct children, so the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layer that absorbs the self time of the root spans (time spent in code
#: that no wrapped callable covers: glue, the benchmark loop, untraced
#: helpers).
OTHER = "other"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
        }


@dataclass(frozen=True)
class Probe:
    """One traced callable.

    ``owner`` is a module path or ``module:Class``; ``attr`` the attribute
    wrapped; ``name`` the metric prefix (``<module>.<callable>``), whose
    first two dotted parts name the layer.  ``count`` maps ``(args,
    kwargs, result)`` to one value per key of ``counts``, summed per call.
    """

    owner: str
    attr: str
    name: str
    counts: Tuple[str, ...] = ()
    count: Optional[Callable[[tuple, dict, Any], Tuple[float, ...]]] = None

    @property
    def layer(self) -> str:
        return ".".join(self.name.split(".")[:2])


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    return getattr(module, class_name) if class_name else module


class Tracer:
    """In-memory span recorder with install/uninstall of probes."""

    def __init__(self, probes: Sequence[Probe], clock: Callable[[], float] = time.perf_counter):
        self.probes = list(probes)
        self.clock = clock
        self.spans: List[Span] = []
        #: Summed probe counts keyed by ``(run label, metric name)``.
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.run = ""
        self._ids = itertools.count()
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- span recording ------------------------------------------------- #
    def _open(self, name: str) -> Tuple[int, float, Optional[int]]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, self.clock(), parent

    def _close(self, name: str, opened: Tuple[int, float, Optional[int]]) -> None:
        span_id, start, parent = opened
        end = self.clock()
        self._stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, self.run))

    @contextlib.contextmanager
    def span(self, name: str, run: Optional[str] = None):
        """Record one span around the block.

        A ``run`` labels this span and every span opened inside it; spans
        opened outside any labelled span get the empty label.
        """
        previous = self.run
        if run is not None:
            self.run = run
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(name, opened)
            self.run = previous

    # -- probes --------------------------------------------------------- #
    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self

        def _account(args, kwargs, result):
            tracer.counts[tracer.run, probe.name + ".calls"] += 1
            if probe.count is not None:
                for key, value in zip(probe.counts, probe.count(args, kwargs, result)):
                    tracer.counts[tracer.run, f"{probe.name}.{key}"] += value

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                opened = tracer._open(probe.name)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(probe.name, opened)
                _account(args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            opened = tracer._open(probe.name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(probe.name, opened)
            _account(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every probe; module functions are rebound in every module
        that imported them by name."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            owner = _resolve(probe.owner)
            original = inspect.getattr_static(owner, probe.attr)
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"cannot trace descriptor {probe.owner}.{probe.attr}")
            wrapped = self._wrap(probe, original)
            if inspect.isclass(owner):
                own = probe.attr in vars(owner)
                self._restore.append((owner, probe.attr, original if own else None))
                setattr(owner, probe.attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace and namespace.get(probe.attr) is original:
                    self._restore.append((module, probe.attr, original))
                    setattr(module, probe.attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._restore.clear()

    def count_totals(self, runs: Callable[[str], bool]) -> Dict[str, float]:
        """Probe counts summed over the run labels that ``runs`` accepts."""
        totals: Dict[str, float] = defaultdict(float)
        for (run, name), value in self.counts.items():
            if runs(run):
                totals[name] += value
        return dict(totals)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- output --------------------------------------------------------- #
    def write_jsonl(self, path, header: Optional[Dict[str, Any]] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            if header is not None:
                handle.write(json.dumps({"header": header}) + "\n")
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of each span: duration minus its direct children's."""
    spans = list(spans)
    result = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in result:
            result[span.parent] -= span.duration
    return result


def self_time_by_name(spans: Iterable[Span], root_names: Sequence[str] = ()) -> Dict[str, float]:
    """Summed self time per span name; root spans count as :data:`OTHER`."""
    spans = list(spans)
    totals: Dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span in spans:
        key = OTHER if span.name in root_names else span.name
        totals[key] += selfs[span.id]
    return dict(totals)


def layer_table(by_name: Dict[str, float], probes: Sequence[Probe]) -> Dict[str, float]:
    """Fold per-callable self times into per-layer self times."""
    layer_of = {probe.name: probe.layer for probe in probes}
    table: Dict[str, float] = defaultdict(float)
    for name, seconds in by_name.items():
        table[layer_of.get(name, OTHER)] += seconds
    return dict(table)


def format_layer_table(title: str, table: Dict[str, float], wall: float) -> str:
    lines = [f"{title} (traced wall {wall:.4f} s)"]
    order = sorted((k for k in table if k != OTHER), key=lambda k: -table[k])
    for layer in order + ([OTHER] if OTHER in table else []):
        seconds = table[layer]
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"  {layer:<26} {seconds:10.4f} s  {100 * share:6.2f} %")
    total = sum(table.values())
    lines.append(f"  {'sum':<26} {total:10.4f} s  {100 * total / wall if wall else 0:6.2f} %")
    return "\n".join(lines)
