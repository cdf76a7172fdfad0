"""Per-node, per-minute event merging (Section 3.2.3).

The paper imposes a minimum wallclock time of one minute between state
transitions: all events observed on a node within the same minute are
combined into a single decision point.  This module finds the boundaries of
those merged steps in a node-major run of log indices, so that feature
extraction can reduce every step's raw records (e.g. distinct CE locations)
with array operations over the whole log at once.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.error_log import ErrorLog
from repro.utils.timeutils import MINUTE
from repro.utils.validation import check_positive


def searchsorted_by_node(
    node: np.ndarray, values: np.ndarray, queries: np.ndarray, side: str = "left"
) -> np.ndarray:
    """``np.searchsorted`` of each query into its own node's run of ``values``.

    ``node``/``values`` are sorted node-major and query ``i`` belongs to node
    ``node[i]``; the result indexes the whole array.  One stable ``lexsort``
    merges the queries into the data, with ties resolved as ``side`` says.
    """
    n = len(values)
    is_query = np.repeat([False, True], n)
    # On equal keys "left" sorts a query before the data, "right" after it.
    order = np.lexsort(
        (
            is_query != (side == "left"),
            np.concatenate([values, queries]),
            np.concatenate([node, node]),
        )
    )
    query_at = is_query[order]
    data_before = np.cumsum(~query_at)
    positions = np.empty(n, dtype=np.int64)
    positions[order[query_at] - n] = data_before[query_at]
    return positions


def merge_step_ends(
    log: ErrorLog, indices: np.ndarray, merge_window_seconds: float = MINUTE
) -> np.ndarray:
    """Exclusive end offset into ``indices`` of every merged decision step.

    ``indices`` lists events node by node, each node's in time order (the
    concatenated values of :meth:`ErrorLog.node_slices`).  A node's first
    event starts a step.  A later event joins the open step unless it comes
    ``merge_window_seconds`` or more after the step's first event, or the
    step already holds an uncorrected error: a UE always ends its step, so
    the terminal transition is distinct from ordinary telemetry.  Step ``k``
    covers ``indices[ends[k - 1]:ends[k]]`` and is decided at the time of its
    last event.
    """
    check_positive("merge_window_seconds", merge_window_seconds)
    indices = np.asarray(indices, dtype=np.int64)
    n = indices.size
    times = log.time[indices]
    node = log.node[indices]
    # No step extends past a UE or its node's last event.
    stop = log.is_ue_mask[indices]
    stop[:-1] |= node[1:] != node[:-1]
    stop[-1:] = True
    stop_at = np.where(stop, np.arange(n), n)
    stop_end = np.minimum.accumulate(stop_at[::-1])[::-1] + 1

    # The open step's window test is ``t - t_first >= window`` (as in the
    # online extractor); nudge ``t_first + window`` to the least float that
    # passes it, so one search finds every step's first out-of-window event.
    threshold = times + merge_window_seconds
    while True:
        lower = np.nextafter(threshold, -np.inf)
        down = lower - times >= merge_window_seconds
        up = threshold - times < merge_window_seconds
        if not (down.any() or up.any()):
            break
        higher = np.nextafter(threshold, np.inf)
        threshold = np.where(down, lower, np.where(up, higher, threshold))
    window_end = searchsorted_by_node(node, times, threshold)
    next_start = memoryview(np.minimum(window_end, stop_end))

    # Steps chain greedily from each node's first event; node ends are
    # forced boundaries, so one walk crosses every node.  The memoryview
    # hands the walk Python ints without materialising a list.
    ends = []
    i = 0
    while i < n:
        i = next_start[i]
        ends.append(i)
    return np.array(ends, dtype=np.int64)


def count_merged_events(
    log: ErrorLog, merge_window_seconds: float = MINUTE
) -> int:
    """Total number of merged decision points in the log (paper: 259,270)."""
    node_major = np.lexsort((log.time, log.node))
    return len(merge_step_ends(log, node_major, merge_window_seconds))
