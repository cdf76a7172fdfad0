"""Tests for the FCFS and backfill cluster schedulers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.timeutils import HOUR
from repro.workload.job import JobRecord
from repro.workload.scheduler import BackfillScheduler, ClusterScheduler, ScheduledJob


class TestSchedule:
    def test_job_starts_at_submit_when_cluster_free(self):
        scheduler = ClusterScheduler(n_nodes=8)
        job = scheduler.schedule(submit=100.0, n_nodes=4, duration=HOUR)
        assert job.record.start == pytest.approx(100.0)
        assert job.n_nodes == 4

    def test_job_waits_when_cluster_busy(self):
        scheduler = ClusterScheduler(n_nodes=4)
        first = scheduler.schedule(submit=0.0, n_nodes=4, duration=HOUR)
        second = scheduler.schedule(submit=10.0, n_nodes=2, duration=HOUR)
        assert second.record.start == pytest.approx(first.record.end)

    def test_small_job_backfills_free_nodes(self):
        scheduler = ClusterScheduler(n_nodes=4)
        scheduler.schedule(submit=0.0, n_nodes=2, duration=HOUR)
        second = scheduler.schedule(submit=0.0, n_nodes=2, duration=HOUR)
        # Two free nodes remain, so the second job does not wait.
        assert second.record.start == pytest.approx(0.0)

    def test_allocated_nodes_do_not_overlap_in_time(self):
        scheduler = ClusterScheduler(n_nodes=6)
        jobs = scheduler.schedule_all(
            submits=[0.0, 0.0, 0.0, 0.0],
            n_nodes=[3, 3, 3, 3],
            durations=[HOUR, HOUR, HOUR, HOUR],
        )
        intervals = {}
        for job in jobs:
            for node in job.nodes:
                intervals.setdefault(node, []).append(
                    (job.record.start, job.record.end)
                )
        for spans in intervals.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9

    def test_rejects_oversized_job(self):
        scheduler = ClusterScheduler(n_nodes=2)
        with pytest.raises(ValueError):
            scheduler.schedule(submit=0.0, n_nodes=3, duration=HOUR)

    def test_rejects_non_positive_duration(self):
        scheduler = ClusterScheduler(n_nodes=2)
        with pytest.raises(ValueError):
            scheduler.schedule(submit=0.0, n_nodes=1, duration=0.0)

    def test_reset(self):
        scheduler = ClusterScheduler(n_nodes=2)
        scheduler.schedule(submit=0.0, n_nodes=2, duration=HOUR)
        scheduler.reset()
        job = scheduler.schedule(submit=0.0, n_nodes=2, duration=HOUR)
        assert job.record.start == pytest.approx(0.0)

    def test_schedule_all_requires_aligned_arrays(self):
        scheduler = ClusterScheduler(n_nodes=2)
        with pytest.raises(ValueError):
            scheduler.schedule_all([0.0], [1, 1], [HOUR])

    def test_to_job_log(self):
        scheduler = ClusterScheduler(n_nodes=4)
        jobs = scheduler.schedule_all(
            submits=[0.0, 5.0], n_nodes=[2, 2], durations=[HOUR, HOUR]
        )
        log = ClusterScheduler.to_job_log(jobs)
        assert len(log) == 2
        assert log.total_node_hours() == pytest.approx(4.0)


def test_ties_go_to_the_lowest_node_id():
    scheduler = ClusterScheduler(n_nodes=4)
    first = scheduler.schedule(submit=0.0, n_nodes=2, duration=5.0)
    second = scheduler.schedule(submit=0.0, n_nodes=3, duration=5.0)
    np.testing.assert_array_equal(first.nodes, [0, 1])
    # Nodes 2 and 3 are free now; the third node is the lowest id of the
    # pair that frees up at t=5.
    np.testing.assert_array_equal(second.nodes, [0, 2, 3])
    assert second.record.start == 5.0
    np.testing.assert_array_equal(scheduler.node_free_times, [10.0, 5.0, 10.0, 10.0])


class TestRejectedCallsLeaveStateUnchanged:
    """A rejected call raises before it touches the free-time index."""

    def _busy(self, cls=ClusterScheduler):
        scheduler = cls(n_nodes=4)
        scheduler.schedule(submit=0.0, n_nodes=2, duration=HOUR)
        return scheduler, scheduler.node_free_times

    @pytest.mark.parametrize("width", [-1, -3])
    def test_negative_width(self, width):
        scheduler, before = self._busy()
        with pytest.raises(ValueError):
            scheduler.schedule(submit=0.0, n_nodes=width, duration=10.0)
        np.testing.assert_array_equal(scheduler.node_free_times, before)

    @pytest.mark.parametrize(
        "submit, duration",
        [(float("nan"), 5.0), (float("inf"), 5.0), (0.0, float("inf"))],
    )
    def test_non_finite_times(self, submit, duration):
        scheduler, before = self._busy()
        with pytest.raises(ValueError):
            scheduler.schedule(submit=submit, n_nodes=1, duration=duration)
        np.testing.assert_array_equal(scheduler.node_free_times, before)

    @pytest.mark.parametrize("cls", [ClusterScheduler, BackfillScheduler])
    @pytest.mark.parametrize(
        "submits, widths, durations",
        [
            ([0.0, 1.0, float("nan")], [1, 1, 1], [5.0, 5.0, 5.0]),
            ([0.0, 1.0, 2.0], [1, 1, 1], [5.0, 5.0, float("inf")]),
            ([0.0, 1.0, 2.0], [1, 1, -1], [5.0, 5.0, 5.0]),
        ],
    )
    def test_bad_job_in_a_batch(self, cls, submits, widths, durations):
        scheduler, before = self._busy(cls)
        with pytest.raises(ValueError):
            scheduler.schedule_all(submits, widths, durations)
        np.testing.assert_array_equal(scheduler.node_free_times, before)

    def test_earliest_start_rejects_negative_width(self):
        scheduler, _ = self._busy(BackfillScheduler)
        with pytest.raises(ValueError):
            scheduler.earliest_start(0.0, -2)


# --------------------------------------------------------------------- #
# Properties over random streams with many ties
# --------------------------------------------------------------------- #
def reference_schedule(n_nodes, submits, widths, durations, backfill_depth=None):
    """Both schedulers spelled out over a per-node free-time array: each job
    takes the first ``width`` nodes of a stable argsort of the free times."""
    free_at = np.zeros(n_nodes)

    def place(i):
        chosen = np.argsort(free_at, kind="stable")[: widths[i]]
        return chosen, max(submits[i], float(free_at[chosen].max()))

    queue = list(np.argsort(submits, kind="stable"))
    jobs = []
    while queue:
        pick = 0
        reservation = place(queue[0])[1]
        if backfill_depth is not None and reservation > submits[queue[0]]:
            fits = [
                pos for pos in range(1, min(len(queue), 1 + backfill_depth))
                if place(queue[pos])[1] + durations[queue[pos]] <= reservation
            ]
            pick = fits[0] if fits else 0
        i = queue.pop(pick)
        chosen, start = place(i)
        free_at[chosen] = start + durations[i]
        record = JobRecord(submits[i], start, start + durations[i], float(widths[i]), len(jobs))
        jobs.append(ScheduledJob(record, np.sort(chosen)))
    return jobs


@st.composite
def job_streams(draw):
    """Integer submits and durations in bursts of equal submits."""
    n_nodes = draw(st.integers(1, 6))
    bursts = draw(
        st.lists(
            st.tuples(
                st.integers(0, 20),
                st.lists(
                    st.tuples(st.integers(1, n_nodes), st.integers(1, 8)),
                    min_size=1,
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=10,
        )
    )
    jobs = [(float(submit), width, float(duration))
            for submit, burst in bursts for width, duration in burst]
    submits, widths, durations = (list(column) for column in zip(*jobs))
    return n_nodes, submits, widths, durations


def _schedulers(n_nodes):
    return [
        ("fcfs", ClusterScheduler(n_nodes), None),
        ("backfill", BackfillScheduler(n_nodes, backfill_depth=3), 3),
    ]


def _queue_positions(submits, widths, durations, scheduled):
    """Replay the queue: for each scheduled job, its queue position when it
    left and the queue head at that moment.  Jobs with equal
    (submit, width, duration) are interchangeable, so the first match is it."""
    queue = list(np.argsort(submits, kind="stable"))
    out = []
    for job in scheduled:
        r = job.record
        pos = next(
            p for p, i in enumerate(queue)
            if (submits[i], float(widths[i]), durations[i]) == (r.submit, r.n_nodes, r.duration)
        )
        out.append((pos, queue[0]))
        queue.pop(pos)
    return out


class TestSchedulerProperties:
    @settings(max_examples=150, deadline=None)
    @given(job_streams())
    def test_equals_the_stable_argsort_reference(self, stream):
        n_nodes, submits, widths, durations = stream
        for _, scheduler, depth in _schedulers(n_nodes):
            got = scheduler.schedule_all(submits, widths, durations)
            want = reference_schedule(n_nodes, submits, widths, durations, depth)
            assert [job.record for job in got] == [job.record for job in want]
            for a, b in zip(got, want):
                assert a.nodes.dtype == b.nodes.dtype
                np.testing.assert_array_equal(a.nodes, b.nodes)

    @settings(max_examples=150, deadline=None)
    @given(job_streams())
    def test_invariants(self, stream):
        n_nodes, submits, widths, durations = stream
        for name, scheduler, _ in _schedulers(n_nodes):
            scheduled = scheduler.schedule_all(submits, widths, durations)
            assert len(scheduled) == len(submits)
            busy = {}
            for job in scheduled:
                r = job.record
                assert r.start >= r.submit
                assert job.n_nodes == r.n_nodes
                assert np.all(np.diff(job.nodes) > 0)
                assert 0 <= job.nodes[0] and job.nodes[-1] < n_nodes
                for node in job.nodes.tolist():
                    busy.setdefault(node, []).append((r.start, r.end))
            for spans in busy.values():
                spans.sort()
                assert all(s2 >= e1 for (_, e1), (s2, _) in zip(spans, spans[1:]))

            positions = _queue_positions(submits, widths, durations, scheduled)
            head_starts = [
                job.record.start
                for job, (pos, _) in zip(scheduled, positions) if pos == 0
            ]
            # Jobs leaving from the queue head start in submission order.
            assert head_starts == sorted(head_starts)
            if name == "fcfs":
                assert all(pos == 0 for pos, _ in positions)
            # A job backfilled ahead of the head ends by the head's start,
            # which is the reservation the head held when the job jumped.
            head_start = {
                head: job.record.start
                for job, (pos, head) in zip(scheduled, positions) if pos == 0
            }
            for job, (pos, head) in zip(scheduled, positions):
                if pos > 0:
                    assert job.record.end <= head_start[head]
