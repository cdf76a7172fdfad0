"""Per-node feature extraction (Table 1 of the paper).

For every merged decision point (one per node per minute with events, see
:mod:`repro.telemetry.merging`) the agent observes:

* corrected-error features: CEs since the last event, CEs since the beginning
  of operation, the number of distinct ranks / banks / rows / columns with
  CEs, and the number of DIMMs with CEs;
* uncorrected-error features: the number of UE warnings since the beginning
  of operation;
* system-state features: time since the last node boot and the number of
  node boots;
* the *feature variation over time* (Equation 2) of the cumulative CE count
  and boot count, for Δt of one minute and one hour;
* the potential UE cost (Equation 3) — supplied by the environment, not by
  this module, because it depends on the workload and the mitigation history.

Counts are cumulative from the beginning of the extracted range, which in
training/evaluation corresponds to the beginning of the cross-validation
split — the same information the production monitoring daemon would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.error_log import ErrorLog
from repro.telemetry.merging import merge_step_ends, searchsorted_by_node
from repro.telemetry.records import EventKind, EventRecord
from repro.utils.timeutils import HOUR, MINUTE
from repro.utils.validation import check_positive

#: Names of the telemetry-derived state features, in vector order.
FEATURE_NAMES: Tuple[str, ...] = (
    "ces_since_last_event",
    "ces_total",
    "ranks_with_ce",
    "banks_with_ce",
    "rows_with_ce",
    "cols_with_ce",
    "dimms_with_ce",
    "ue_warnings_total",
    "time_since_boot",
    "boots_total",
    "ces_total_var_1min",
    "ces_total_var_1hour",
    "boots_var_1min",
    "boots_var_1hour",
)

#: Number of telemetry-derived features (the full state adds the UE cost).
N_FEATURES: int = len(FEATURE_NAMES)

#: Index of each feature name in the feature vector.
FEATURE_INDEX: Dict[str, int] = {name: i for i, name in enumerate(FEATURE_NAMES)}

#: Δt values for the feature-variation-over-time calculation (Equation 2).
VARIATION_DELTAS: Tuple[float, ...] = (MINUTE, HOUR)


def feature_variation(
    history_times: Sequence[float],
    history_values: Sequence[float],
    now: float,
    value_now: float,
    delta: float,
) -> float:
    """Equation 2: value(now) / value(now - Δt), 0 when the denominator is 0.

    ``history_times``/``history_values`` record the cumulative feature value
    after each past event; the value at ``now - Δt`` is the value after the
    last event at or before that instant.
    """
    t_ref = now - delta
    idx = int(np.searchsorted(history_times, t_ref, side="right")) - 1
    past = history_values[idx] if idx >= 0 else 0.0
    if past == 0.0:
        return 0.0
    return float(value_now) / float(past)


@dataclass(frozen=True)
class NodeFeatureTrack:
    """Pre-computed feature snapshots for one node, one per merged event.

    Attributes
    ----------
    node:
        Node identifier.
    times:
        Time of each merged event (decision point), sorted.
    features:
        Array of shape ``(n_events, N_FEATURES)``, the telemetry features at
        each decision point.
    is_ue:
        True where the merged event contains an uncorrected error (a terminal
        transition; the agent is not invoked for these).
    """

    node: int
    times: np.ndarray
    features: np.ndarray
    is_ue: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.features) == len(self.is_ue)):
            raise ValueError("track arrays must have the same length")
        if self.features.ndim != 2 or (
            len(self.features) and self.features.shape[1] != N_FEATURES
        ):
            raise ValueError(
                f"features must have shape (n, {N_FEATURES}), got {self.features.shape}"
            )

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def n_decision_points(self) -> int:
        """Number of events at which the agent is actually invoked."""
        return int(np.count_nonzero(~self.is_ue))

    @property
    def ue_times(self) -> np.ndarray:
        """Times of the UE events on this node."""
        return self.times[self.is_ue]

    def slice_time(self, t_start: float, t_end: float) -> "NodeFeatureTrack":
        """Sub-track with ``t_start <= time < t_end``."""
        mask = (self.times >= t_start) & (self.times < t_end)
        return NodeFeatureTrack(
            node=self.node,
            times=self.times[mask],
            features=self.features[mask],
            is_ue=self.is_ue[mask],
        )


def _table1_steps(
    log: ErrorLog, indices: np.ndarray, merge_window_seconds: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Times, features, UE flags and nodes of every merged step of ``indices``.

    One segmented pass over node-major ``indices`` (see
    :func:`~repro.telemetry.merging.merge_step_ends`) serves every node at
    once, bit-identical to the per-event reference loop
    (:func:`_extract_node_features_loop`, pinned by the equivalence tests).
    Every count is an exact float64 prefix sum of integers minus its node's
    offset; distinct CE locations are first occurrences in a node-led
    ``lexsort``; the last boot is a masked forward fill; and the Equation 2
    look-backs are one node-wise search per Δt.
    """
    indices = np.asarray(indices, dtype=np.int64)
    ends = merge_step_ends(log, indices, merge_window_seconds)
    last = ends - 1
    n = indices.size
    position = np.arange(n)
    ev_time = log.time[indices]
    node = log.node[indices]
    kind = log.kind[indices]
    is_ce = kind == int(EventKind.CE)
    is_boot = kind == int(EventKind.BOOT)
    times = ev_time[last]
    step_node = node[last]
    # A UE ends its step, so a step holds one iff its last event is one.
    is_ue = log.is_ue_mask[indices][last]
    new_node = np.ones(n, dtype=bool)
    new_node[1:] = node[1:] != node[:-1]
    node_start = np.maximum.accumulate(np.where(new_node, position, 0))[last]
    features = np.zeros((len(ends), N_FEATURES))
    column = {name: features[:, i] for i, name in enumerate(FEATURE_NAMES)}

    def total(values: np.ndarray, since: np.ndarray) -> np.ndarray:
        """Sum of per-event ``values`` from position ``since`` to each step end."""
        prefix = np.concatenate(([0.0], np.cumsum(values, dtype=np.float64)))
        return prefix[ends] - prefix[since]

    def first_seen(member: np.ndarray, *keys: np.ndarray) -> np.ndarray:
        """Marks each ``member`` event whose key tuple is new to its node."""
        at = np.flatnonzero(member)
        columns = np.stack([column[at] for column in (node, *keys)])
        order = np.lexsort(columns[::-1])  # stable: ties keep event order
        ordered = columns[:, order]
        new_key = np.ones(at.size, dtype=bool)
        new_key[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        marks = np.zeros(n, dtype=bool)
        marks[at[order[new_key]]] = True
        return marks

    def look_back(delta: float) -> np.ndarray:
        """Each step's last same-node step at or before ``now - Δt``, or -1."""
        reference = searchsorted_by_node(step_node, times, times - delta, "right") - 1
        same_node = (reference >= 0) & (step_node[reference] == step_node)
        return np.where(same_node, reference, -1)

    def variation(name: str, values: np.ndarray, reference: np.ndarray) -> None:
        """Equation 2 into column ``name``: value(now) / value(now - Δt)."""
        past = np.where(reference >= 0, values[reference], 0.0)
        np.divide(values, past, out=column[name], where=past != 0.0)

    dimm = log.dimm[indices]
    rank = log.rank[indices]
    bank = log.bank[indices]
    row = log.row[indices]
    col = log.col[indices]
    ce_counts = np.where(is_ce, log.ce_count[indices], 0)
    counted = {
        "ces_total": ce_counts,
        "ranks_with_ce": first_seen(is_ce & (rank >= 0), dimm, rank),
        "banks_with_ce": first_seen(is_ce & (bank >= 0), dimm, rank, bank),
        "rows_with_ce": first_seen(is_ce & (row >= 0), dimm, rank, bank, row),
        "cols_with_ce": first_seen(is_ce & (col >= 0), dimm, rank, bank, col),
        "dimms_with_ce": first_seen(is_ce, dimm),
        "ue_warnings_total": kind == int(EventKind.UE_WARNING),
        "boots_total": is_boot,
    }
    for name, values in counted.items():
        column[name][:] = total(values, node_start)
    step_start = np.concatenate(([0], ends))[:-1]
    column["ces_since_last_event"][:] = total(ce_counts, step_start)

    # Time since the last boot up to each step's end; nodes without a boot
    # yet measure from their first event.
    boot_at = np.maximum.accumulate(np.where(is_boot, position, -1))[last]
    since_boot = times - ev_time[np.maximum(boot_at, node_start)]
    column["time_since_boot"][:] = np.maximum(since_boot, 0.0)
    for delta, suffix in ((MINUTE, "1min"), (HOUR, "1hour")):
        reference = look_back(delta)
        variation(f"ces_total_var_{suffix}", column["ces_total"], reference)
        variation(f"boots_var_{suffix}", column["boots_total"], reference)
    return times, features, is_ue, step_node


def extract_node_features(
    log: ErrorLog,
    node: int,
    indices: Optional[np.ndarray] = None,
    merge_window_seconds: float = MINUTE,
) -> NodeFeatureTrack:
    """Compute the Table 1 feature track for one node.

    Runs the whole-log pass of :func:`build_feature_tracks` on this node's
    events alone.

    Parameters
    ----------
    log:
        The (preprocessed) error log.
    node:
        Node to extract.
    indices:
        Optional pre-computed indices of the node's events in ``log`` (from
        :meth:`ErrorLog.node_slices`); computed if omitted.
    merge_window_seconds:
        Per-minute merging window (Section 3.2.3).
    """
    if indices is None:
        indices = np.flatnonzero(log.node == node)
    times, features, is_ue, _ = _table1_steps(log, indices, merge_window_seconds)
    return NodeFeatureTrack(node=int(node), times=times, features=features, is_ue=is_ue)


def _extract_node_features_loop(
    log: ErrorLog,
    node: int,
    indices: Optional[np.ndarray] = None,
    merge_window_seconds: float = MINUTE,
) -> NodeFeatureTrack:
    """Per-event reference implementation of :func:`extract_node_features`.

    Kept as the behavioural specification of the vectorized path: the
    equivalence suite and the decision-core benchmark compare the two
    bit for bit on fuzzed logs.
    """
    if indices is None:
        indices = np.flatnonzero(log.node == node)
    ends = merge_step_ends(log, indices, merge_window_seconds)
    ue_mask = log.is_ue_mask[indices]

    times = np.empty(len(ends))
    features = np.zeros((len(ends), N_FEATURES))
    is_ue = np.zeros(len(ends), dtype=bool)

    ces_total = 0.0
    warnings_total = 0.0
    boots_total = 0.0
    last_boot_time: Optional[float] = None
    ranks: set = set()
    banks: set = set()
    rows: set = set()
    cols: set = set()
    dimms: set = set()

    # Histories of the cumulative features used by Equation 2.
    hist_times: List[float] = []
    hist_ces: List[float] = []
    hist_boots: List[float] = []

    track_start = float(log.time[indices[0]]) if len(ends) else 0.0

    for i, (start, end) in enumerate(zip([0, *ends[:-1]], ends)):
        ces_in_step = 0.0
        for idx in indices[start:end]:
            kind = EventKind(int(log.kind[idx]))
            if kind == EventKind.CE:
                count = float(log.ce_count[idx])
                ces_in_step += count
                ces_total += count
                dimm = int(log.dimm[idx])
                dimms.add(dimm)
                if log.rank[idx] >= 0:
                    ranks.add((dimm, int(log.rank[idx])))
                if log.bank[idx] >= 0:
                    banks.add((dimm, int(log.rank[idx]), int(log.bank[idx])))
                if log.row[idx] >= 0:
                    rows.add((dimm, int(log.rank[idx]), int(log.bank[idx]), int(log.row[idx])))
                if log.col[idx] >= 0:
                    cols.add((dimm, int(log.rank[idx]), int(log.bank[idx]), int(log.col[idx])))
            elif kind == EventKind.UE_WARNING:
                warnings_total += 1.0
            elif kind == EventKind.BOOT:
                boots_total += 1.0
                last_boot_time = float(log.time[idx])

        t = float(log.time[indices[end - 1]])
        times[i] = t
        is_ue[i] = ue_mask[start:end].any()

        if last_boot_time is None:
            time_since_boot = t - track_start
        else:
            time_since_boot = t - last_boot_time

        vec = features[i]
        vec[FEATURE_INDEX["ces_since_last_event"]] = ces_in_step
        vec[FEATURE_INDEX["ces_total"]] = ces_total
        vec[FEATURE_INDEX["ranks_with_ce"]] = len(ranks)
        vec[FEATURE_INDEX["banks_with_ce"]] = len(banks)
        vec[FEATURE_INDEX["rows_with_ce"]] = len(rows)
        vec[FEATURE_INDEX["cols_with_ce"]] = len(cols)
        vec[FEATURE_INDEX["dimms_with_ce"]] = len(dimms)
        vec[FEATURE_INDEX["ue_warnings_total"]] = warnings_total
        vec[FEATURE_INDEX["time_since_boot"]] = max(time_since_boot, 0.0)
        vec[FEATURE_INDEX["boots_total"]] = boots_total
        vec[FEATURE_INDEX["ces_total_var_1min"]] = feature_variation(
            hist_times, hist_ces, t, ces_total, MINUTE
        )
        vec[FEATURE_INDEX["ces_total_var_1hour"]] = feature_variation(
            hist_times, hist_ces, t, ces_total, HOUR
        )
        vec[FEATURE_INDEX["boots_var_1min"]] = feature_variation(
            hist_times, hist_boots, t, boots_total, MINUTE
        )
        vec[FEATURE_INDEX["boots_var_1hour"]] = feature_variation(
            hist_times, hist_boots, t, boots_total, HOUR
        )

        hist_times.append(t)
        hist_ces.append(ces_total)
        hist_boots.append(boots_total)

    return NodeFeatureTrack(node=int(node), times=times, features=features, is_ue=is_ue)


class _GrowableArray:
    """Append-only float64 buffer with amortised growth and a zero-copy view.

    The Equation 2 histories grow one entry per merged step for the lifetime
    of a node; a list would force ``np.searchsorted`` to re-copy it on every
    lookup, so the online state keeps real arrays.
    """

    __slots__ = ("_buf", "_n")

    def __init__(self) -> None:
        self._buf = np.empty(16, dtype=np.float64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, value: float) -> None:
        if self._n == self._buf.shape[0]:
            grown = np.empty(self._buf.shape[0] * 2, dtype=np.float64)
            grown[: self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = value
        self._n += 1

    def view(self) -> np.ndarray:
        return self._buf[: self._n]

    def __deepcopy__(self, memo) -> "_GrowableArray":
        clone = _GrowableArray.__new__(_GrowableArray)
        clone._buf = self._buf.copy()
        clone._n = self._n
        return clone


@dataclass(frozen=True)
class OnlineStep:
    """One finalised merged decision step emitted by the online extractor.

    ``features`` is the same 14-vector a :class:`NodeFeatureTrack` row would
    carry for this step; ``is_ue`` marks terminal (UE / over-temperature)
    steps, for which the agent is not invoked.
    """

    node: int
    time: float
    features: np.ndarray
    is_ue: bool


class OnlineFeatureState:
    """Incremental, per-node equivalent of :func:`extract_node_features`.

    The offline extractors see a complete log and fold it in one pass; a
    serving daemon sees one event at a time and needs the Table 1 features
    of each merged step the moment the step closes.  This class replays the
    exact operation order of :func:`_extract_node_features_loop` — the same
    left-fold float additions, the same distinct-location sets, the same
    Equation 2 ``searchsorted`` look-backs — so a stream absorbed event by
    event produces rows bit-identical to the batch extractor run over any
    prefix of the same stream (pinned by the prefix-equivalence tests).

    Merge-group life cycle (mirrors
    :func:`~repro.telemetry.merging.merge_step_ends`):

    * an event more than ``merge_window_seconds`` after the open group's
      first event closes that group and starts a new one;
    * a UE joins the open group and closes it immediately (no later event
      may share a group with a UE, so nothing can change the step anymore);
    * :meth:`advance_to` closes an open group once the *stream* clock passes
      ``window start + merge window`` — by then every unseen event is too
      late to join, so the step is final even though no node event arrived;
    * :meth:`flush` force-closes the open group at end of stream, matching
      how the batch extractor terminates the last group at the array end.

    Events must be absorbed in non-decreasing time order (the log is sorted;
    a live tail is too).
    """

    def __init__(self, node: int, merge_window_seconds: float = MINUTE) -> None:
        check_positive("merge_window_seconds", merge_window_seconds)
        self.node = int(node)
        self.merge_window_seconds = float(merge_window_seconds)

        self._ces_total = 0.0
        self._warnings_total = 0.0
        self._boots_total = 0.0
        self._last_boot_time: Optional[float] = None
        self._ranks: set = set()
        self._banks: set = set()
        self._rows: set = set()
        self._cols: set = set()
        self._dimms: set = set()

        self._hist_times = _GrowableArray()
        self._hist_ces = _GrowableArray()
        self._hist_boots = _GrowableArray()

        self._track_start: Optional[float] = None
        self._last_event_time: Optional[float] = None
        self._group: List[Tuple[float, int, int, int, int, int, int, int]] = []
        self._group_start = 0.0
        self._group_has_ue = False
        self._n_steps = 0

    @property
    def n_steps(self) -> int:
        """Number of merged steps finalised so far."""
        return self._n_steps

    @property
    def has_open_group(self) -> bool:
        """True while events are accumulating in an unfinalised step."""
        return bool(self._group)

    @property
    def open_group_deadline(self) -> Optional[float]:
        """Stream time at which the open group becomes final, or ``None``.

        Once the stream clock reaches this instant no future event can join
        the group, so :meth:`advance_to` will close it.
        """
        if not self._group:
            return None
        return self._group_start + self.merge_window_seconds

    def absorb(self, record: EventRecord) -> List[OnlineStep]:
        """Absorb one :class:`EventRecord`; return any steps it finalised."""
        return self.absorb_event(
            record.time,
            int(record.kind),
            ce_count=record.ce_count,
            dimm=record.dimm,
            rank=record.rank,
            bank=record.bank,
            row=record.row,
            col=record.col,
        )

    def absorb_event(
        self,
        time: float,
        kind: int,
        ce_count: int = 0,
        dimm: int = -1,
        rank: int = -1,
        bank: int = -1,
        row: int = -1,
        col: int = -1,
    ) -> List[OnlineStep]:
        """Absorb one raw event given as plain fields (the fast path)."""
        t = float(time)
        if self._last_event_time is not None and t < self._last_event_time:
            raise ValueError(
                f"node {self.node}: events must arrive in time order "
                f"(got {t!r} after {self._last_event_time!r})"
            )
        self._last_event_time = t
        if self._track_start is None:
            self._track_start = t

        out: List[OnlineStep] = []
        if self._group and t - self._group_start >= self.merge_window_seconds:
            out.append(self._finalize())
        if not self._group:
            self._group_start = t
        self._group.append(
            (t, int(kind), int(ce_count), int(dimm), int(rank), int(bank), int(row), int(col))
        )
        if EventKind(int(kind)).counts_as_ue:
            self._group_has_ue = True
            out.append(self._finalize())
        return out

    def absorb_log(
        self, log: ErrorLog, indices: Optional[np.ndarray] = None
    ) -> List[OnlineStep]:
        """Absorb one event batch (this node's slice of ``log``) at a time."""
        if indices is None:
            indices = np.flatnonzero(log.node == self.node)
        out: List[OnlineStep] = []
        time, kind, count = log.time, log.kind, log.ce_count
        dimm, rank, bank = log.dimm, log.rank, log.bank
        row, col = log.row, log.col
        for idx in np.asarray(indices):
            out.extend(
                self.absorb_event(
                    float(time[idx]),
                    int(kind[idx]),
                    ce_count=int(count[idx]),
                    dimm=int(dimm[idx]),
                    rank=int(rank[idx]),
                    bank=int(bank[idx]),
                    row=int(row[idx]),
                    col=int(col[idx]),
                )
            )
        return out

    def advance_to(self, stream_time: float) -> List[OnlineStep]:
        """Finalise the open group once the stream clock has passed it by.

        ``stream_time`` must not exceed the time of the next event this node
        will absorb (the global stream clock satisfies this: events arrive
        across nodes in non-decreasing time order).
        """
        if self._group and (
            float(stream_time) - self._group_start >= self.merge_window_seconds
        ):
            return [self._finalize()]
        return []

    def flush(self) -> List[OnlineStep]:
        """Force-close the open group (end of stream)."""
        if self._group:
            return [self._finalize()]
        return []

    def _finalize(self) -> OnlineStep:
        group = self._group
        ces_in_step = 0.0
        for t_ev, kind, count, dimm, rank, bank, row, col in group:
            if kind == int(EventKind.CE):
                count_f = float(count)
                ces_in_step += count_f
                self._ces_total += count_f
                self._dimms.add(dimm)
                if rank >= 0:
                    self._ranks.add((dimm, rank))
                if bank >= 0:
                    self._banks.add((dimm, rank, bank))
                if row >= 0:
                    self._rows.add((dimm, rank, bank, row))
                if col >= 0:
                    self._cols.add((dimm, rank, bank, col))
            elif kind == int(EventKind.UE_WARNING):
                self._warnings_total += 1.0
            elif kind == int(EventKind.BOOT):
                self._boots_total += 1.0
                self._last_boot_time = t_ev

        t = group[-1][0]
        is_ue = self._group_has_ue

        if self._last_boot_time is None:
            time_since_boot = t - float(self._track_start)
        else:
            time_since_boot = t - self._last_boot_time

        vec = np.zeros(N_FEATURES)
        vec[FEATURE_INDEX["ces_since_last_event"]] = ces_in_step
        vec[FEATURE_INDEX["ces_total"]] = self._ces_total
        vec[FEATURE_INDEX["ranks_with_ce"]] = len(self._ranks)
        vec[FEATURE_INDEX["banks_with_ce"]] = len(self._banks)
        vec[FEATURE_INDEX["rows_with_ce"]] = len(self._rows)
        vec[FEATURE_INDEX["cols_with_ce"]] = len(self._cols)
        vec[FEATURE_INDEX["dimms_with_ce"]] = len(self._dimms)
        vec[FEATURE_INDEX["ue_warnings_total"]] = self._warnings_total
        vec[FEATURE_INDEX["time_since_boot"]] = max(time_since_boot, 0.0)
        vec[FEATURE_INDEX["boots_total"]] = self._boots_total
        hist_times = self._hist_times.view()
        hist_ces = self._hist_ces.view()
        hist_boots = self._hist_boots.view()
        vec[FEATURE_INDEX["ces_total_var_1min"]] = feature_variation(
            hist_times, hist_ces, t, self._ces_total, MINUTE
        )
        vec[FEATURE_INDEX["ces_total_var_1hour"]] = feature_variation(
            hist_times, hist_ces, t, self._ces_total, HOUR
        )
        vec[FEATURE_INDEX["boots_var_1min"]] = feature_variation(
            hist_times, hist_boots, t, self._boots_total, MINUTE
        )
        vec[FEATURE_INDEX["boots_var_1hour"]] = feature_variation(
            hist_times, hist_boots, t, self._boots_total, HOUR
        )

        self._hist_times.append(t)
        self._hist_ces.append(self._ces_total)
        self._hist_boots.append(self._boots_total)

        self._group = []
        self._group_has_ue = False
        self._n_steps += 1
        return OnlineStep(node=self.node, time=t, features=vec, is_ue=is_ue)


def build_feature_tracks(
    log: ErrorLog, merge_window_seconds: float = MINUTE
) -> Dict[int, NodeFeatureTrack]:
    """Compute feature tracks for every node present in ``log``.

    One pass over the whole log in node-major time order; each node's track
    is a slice of its result.
    """
    node_major = np.lexsort((log.time, log.node))
    times, features, is_ue, step_node = _table1_steps(
        log, node_major, merge_window_seconds
    )
    nodes, starts = np.unique(step_node, return_index=True)
    stops = np.append(starts[1:], len(times))
    return {
        int(node): NodeFeatureTrack(
            node=int(node), times=times[a:b], features=features[a:b], is_ue=is_ue[a:b]
        )
        for node, a, b in zip(nodes, starts, stops)
    }


class StateNormalizer:
    """Deterministic scaling of the state vector fed to the Q-network.

    Counts, times and costs span several orders of magnitude, so they are
    compressed with ``log1p``; the Equation 2 variation ratios are already
    dimensionless and are only clipped.  The transform is fixed (not fitted)
    so there is no risk of leaking test-set statistics into training.
    """

    #: Features passed through untransformed (only clipped).
    RATIO_FEATURES = (
        "ces_total_var_1min",
        "ces_total_var_1hour",
        "boots_var_1min",
        "boots_var_1hour",
    )

    def __init__(self, ratio_clip: float = 50.0) -> None:
        if ratio_clip <= 0:
            raise ValueError("ratio_clip must be > 0")
        self.ratio_clip = float(ratio_clip)
        self._log_mask = np.ones(N_FEATURES + 1, dtype=bool)
        for name in self.RATIO_FEATURES:
            self._log_mask[FEATURE_INDEX[name]] = False

    @property
    def state_dim(self) -> int:
        """Dimensionality of the normalised state (features + UE cost)."""
        return N_FEATURES + 1

    def state_vector(self, features: np.ndarray, ue_cost: float) -> np.ndarray:
        """Build and normalise the full state vector (features ‖ UE cost)."""
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != N_FEATURES:
            raise ValueError(
                f"expected {N_FEATURES} telemetry features, got {features.shape[-1]}"
            )
        state = np.concatenate([features, [float(ue_cost)]])
        return self.transform(state)

    def transform(self, state: np.ndarray) -> np.ndarray:
        """Normalise a raw state vector (or batch of them)."""
        state = np.asarray(state, dtype=float)
        out = np.array(state, dtype=float, copy=True)
        log_part = out[..., self._log_mask]
        out[..., self._log_mask] = np.log1p(np.maximum(log_part, 0.0))
        ratio_part = out[..., ~self._log_mask]
        out[..., ~self._log_mask] = np.clip(ratio_part, 0.0, self.ratio_clip)
        return out
