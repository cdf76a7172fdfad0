"""Tests for per-minute event merging."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.error_log import ErrorLog
from repro.telemetry.merging import count_merged_events, merge_step_ends
from repro.telemetry.records import EventKind, EventRecord
from repro.utils.timeutils import MINUTE


def _log_from_times(times, kinds=None, node=0):
    kinds = kinds or [EventKind.CE] * len(times)
    records = [
        EventRecord(
            time=t, node=node, dimm=0, kind=k, ce_count=1 if k == EventKind.CE else 0
        )
        for t, k in zip(times, kinds)
    ]
    return ErrorLog.from_records(records)


def _step_starts(ends):
    return np.concatenate(([0], ends[:-1])).astype(np.int64)


class TestMergeNodeEvents:
    def test_events_within_minute_are_merged(self):
        log = _log_from_times([0.0, 10.0, 30.0, 59.0])
        ends = merge_step_ends(log, np.arange(4))
        assert ends.tolist() == [4]
        assert log.time[ends[0] - 1] == pytest.approx(59.0)

    def test_events_beyond_minute_start_new_step(self):
        log = _log_from_times([0.0, 61.0, 200.0])
        assert merge_step_ends(log, np.arange(3)).tolist() == [1, 2, 3]

    def test_ue_terminates_step(self):
        log = _log_from_times(
            [0.0, 10.0, 20.0], kinds=[EventKind.CE, EventKind.UE, EventKind.CE]
        )
        ends = merge_step_ends(log, np.arange(3))
        # The CE+UE group closes at the UE; the trailing CE is its own step.
        assert ends.tolist() == [2, 3]
        assert log.is_ue_mask[0:2].any()
        assert not log.is_ue_mask[2:3].any()

    def test_empty_indices(self):
        log = _log_from_times([1.0])
        ends = merge_step_ends(log, np.array([], dtype=int))
        assert ends.size == 0 and ends.dtype == np.int64

    def test_invalid_window_rejected(self):
        log = _log_from_times([1.0])
        with pytest.raises(ValueError):
            merge_step_ends(log, np.arange(1), merge_window_seconds=0)

    def test_merged_events_cover_all_indices(self):
        times = [0.0, 5.0, 100.0, 130.0, 500.0]
        log = _log_from_times(times)
        ends = merge_step_ends(log, np.arange(len(times)))
        assert ends.tolist() == [2, 4, 5]
        assert np.all(np.diff(ends) > 0) and ends[0] > 0 and ends[-1] == len(times)

    @pytest.mark.parametrize(
        "first, second", [(0.593, 60.592999999999996), (125.193, 185.19299999999998)]
    )
    def test_window_edge_is_the_difference_from_the_step_start(self, first, second):
        # ``first + window`` rounds to the other side of ``second`` here; the
        # step breaks iff ``second - first >= window``, the online test.
        log = _log_from_times([first, second])
        expected = [1, 2] if second - first >= MINUTE else [2]
        assert merge_step_ends(log, np.arange(2)).tolist() == expected

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([MINUTE, 0.1, 1e-9]),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_no_two_steps_closer_than_window(self, events, window):
        events = sorted(events, key=lambda event: event[0])
        kinds = [EventKind.UE if ue else EventKind.CE for _, ue in events]
        log = _log_from_times([t for t, _ in events], kinds)
        ends = merge_step_ends(log, np.arange(len(events)), window)
        starts = _step_starts(ends)
        assert ends[-1] == len(events) and np.all(ends > starts)
        times, ue = log.time, log.is_ue_mask
        for start, end in zip(starts, ends):
            # A step spans less than the window and holds a UE only last ...
            assert times[end - 1] - times[start] < window
            assert not ue[start : end - 1].any()
            # ... and only a UE starts the next step before the window passed.
            if end < len(events):
                assert ue[end - 1] or times[end] - times[start] >= window


class TestMergeEvents:
    def test_merge_per_node(self, reduced_error_log):
        log = reduced_error_log
        slices = log.node_slices()
        node_major = np.concatenate(list(slices.values()))
        ends = merge_step_ends(log, node_major)
        assert ends[-1] == len(log)
        # Every node ends a step, and each node merges as it would alone.
        node_ends = np.cumsum([len(indices) for indices in slices.values()])
        assert np.isin(node_ends, ends).all()
        per_node = [merge_step_ends(log, indices) for indices in slices.values()]
        offsets = np.concatenate(([0], node_ends[:-1]))
        assert np.array_equal(
            ends, np.concatenate([e + o for e, o in zip(per_node, offsets)])
        )

    def test_count_merged_events_smaller_than_raw(self, reduced_error_log):
        merged_count = count_merged_events(reduced_error_log)
        assert 0 < merged_count <= len(reduced_error_log)
