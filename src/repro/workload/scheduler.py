"""A minimal FCFS cluster scheduler used to place generated jobs on nodes.

The workload generator produces jobs (submission time, requested nodes,
duration); this scheduler assigns start times and concrete node allocations
in first-come-first-served order, always picking the nodes that free up
earliest.  It is intentionally simple — the paper's method only needs the
resulting joint distribution of (node count, elapsed time) — but it gives the
generated log realistic queueing behaviour (jobs wait when the machine is
full) and lets tests check the >95 % utilization property end to end.

Tie rule: a job takes the nodes with the earliest free time first and, among
nodes that free up at the same time, the lowest node ids first (the order of
a stable argsort of the per-node free times).  The schedulers keep the pool
as a free-time index, so placing a job costs time in the number of distinct
free times it passes over, not in the size of the pool.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive
from repro.workload.job import JobLog, JobRecord


@dataclass(frozen=True)
class ScheduledJob:
    """A job with its scheduler-assigned start time and node allocation."""

    record: JobRecord
    nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)


class ClusterScheduler:
    """First-come-first-served scheduler over a fixed pool of nodes.

    The pool is a free-time index: ``_times`` is the ascending list of the
    distinct times at which nodes free up, and ``_nodes`` maps each of those
    times to the ascending array of the node ids that free up then.
    """

    def __init__(self, n_nodes: int) -> None:
        check_positive("n_nodes", n_nodes)
        self.n_nodes = int(n_nodes)
        self.reset()

    def reset(self) -> None:
        """Forget all previous allocations."""
        self._times: List[float] = [0.0]
        self._nodes: Dict[float, np.ndarray] = {
            0.0: np.arange(self.n_nodes, dtype=np.intp)
        }

    @property
    def node_free_times(self) -> np.ndarray:
        """Copy of the per-node earliest-availability times."""
        free_at = np.empty(self.n_nodes, dtype=np.float64)
        for time in self._times:
            free_at[self._nodes[time]] = time
        return free_at

    def _check_request(self, submit: float, n_nodes: int) -> Tuple[float, int]:
        width = operator.index(n_nodes)
        if not 1 <= width <= self.n_nodes:
            raise ValueError(
                f"job requests {width} nodes but the cluster has {self.n_nodes}"
            )
        if not math.isfinite(submit):
            raise ValueError(f"submit must be finite, got {submit!r}")
        return float(submit), width

    def _check_batch(
        self,
        submits: Sequence[float],
        n_nodes: Sequence[int],
        durations: Sequence[float],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate a whole batch before any of it is placed."""
        submits = np.asarray(submits, dtype=float)
        n_nodes_arr = np.asarray(n_nodes, dtype=int)
        durations = np.asarray(durations, dtype=float)
        if not (len(submits) == len(n_nodes_arr) == len(durations)):
            raise ValueError("submits, n_nodes and durations must be equally long")
        if not np.all(np.isfinite(submits)):
            raise ValueError("submits must be finite")
        if not np.all(np.isfinite(durations)):
            raise ValueError("durations must be finite")
        if not np.all(durations > 0):
            raise ValueError("durations must be > 0")
        if not np.all((n_nodes_arr >= 1) & (n_nodes_arr <= self.n_nodes)):
            raise ValueError(f"every job must request 1 to {self.n_nodes} nodes")
        return submits, n_nodes_arr, durations

    def _last_group(self, n_nodes: int) -> Tuple[int, int]:
        """Index of the last free-time group ``n_nodes`` nodes reach into,
        and how many nodes the groups before it hold."""
        taken = 0
        for k, time in enumerate(self._times):
            size = self._nodes[time].size
            if taken + size >= n_nodes:
                return k, taken
            taken += size
        raise AssertionError("the free-time index holds fewer nodes than the pool")

    def _start(self, submit: float, n_nodes: int) -> float:
        k, _ = self._last_group(n_nodes)
        return max(submit, self._times[k])

    def _place(
        self, submit: float, n_nodes: int, duration: float, job_id: int
    ) -> ScheduledJob:
        """Place one validated job: take the ``n_nodes`` earliest-free nodes."""
        times, groups = self._times, self._nodes
        k, taken = self._last_group(n_nodes)
        start = max(submit, times[k])
        end = start + duration
        last = groups[times[k]]
        need = n_nodes - taken
        parts = [groups.pop(time) for time in times[:k]]
        parts.append(last[:need])
        if need == last.size:
            del groups[times[k]]
            del times[: k + 1]
        else:
            groups[times[k]] = last[need:]
            del times[:k]
        chosen = np.concatenate(parts)
        if len(parts) > 1:
            chosen.sort()
        if end in groups:
            groups[end] = np.sort(np.concatenate([groups[end], chosen]))
        else:
            bisect.insort(times, end)
            groups[end] = chosen
        record = JobRecord(
            submit=submit, start=start, end=end, n_nodes=float(n_nodes), job_id=int(job_id)
        )
        return ScheduledJob(record=record, nodes=chosen.copy())

    def schedule(
        self, submit: float, n_nodes: int, duration: float, job_id: int = 0
    ) -> ScheduledJob:
        """Place one job and return its allocation.

        The job starts as soon as ``n_nodes`` nodes are simultaneously free
        after ``submit``; the chosen nodes are those that free up earliest.
        A width outside ``[1, n_nodes]``, a non-finite ``submit`` or a
        non-finite or non-positive ``duration`` raises ``ValueError`` and
        leaves the scheduler unchanged.
        """
        submit, width = self._check_request(submit, n_nodes)
        if not math.isfinite(duration):
            raise ValueError(f"duration must be finite, got {duration!r}")
        check_positive("duration", duration)
        return self._place(submit, width, float(duration), job_id)

    def schedule_all(
        self,
        submits: Sequence[float],
        n_nodes: Sequence[int],
        durations: Sequence[float],
    ) -> List[ScheduledJob]:
        """Schedule a batch of jobs in submission order.

        The batch is validated as a whole first, so a bad job raises
        ``ValueError`` before any job of the batch is placed.
        """
        submits, n_nodes_arr, durations = self._check_batch(submits, n_nodes, durations)
        order = np.argsort(submits, kind="stable")
        jobs = zip(submits[order].tolist(), n_nodes_arr[order].tolist(), durations[order].tolist())
        return [
            self._place(submit, width, duration, job_id)
            for job_id, (submit, width, duration) in enumerate(jobs)
        ]

    @staticmethod
    def to_job_log(scheduled: Sequence[ScheduledJob]) -> JobLog:
        """Collect scheduled jobs into a :class:`JobLog`."""
        return JobLog.from_records([s.record for s in scheduled])


class BackfillScheduler(ClusterScheduler):
    """EASY-style conservative backfill over the same node-pool model.

    Jobs are still taken in submission order, but whenever the queue head
    cannot start immediately a reservation is computed for it, and shorter
    jobs further down the queue (up to ``backfill_depth`` positions) may
    jump ahead provided they finish no later than the reserved start — so
    the head job is never delayed.  Backfilled allocations only raise node
    availability up to the reservation time, which keeps the guarantee
    conservative in this earliest-free-node model.
    """

    def __init__(self, n_nodes: int, backfill_depth: int = 32) -> None:
        super().__init__(n_nodes)
        check_positive("backfill_depth", backfill_depth)
        self.backfill_depth = int(backfill_depth)

    def earliest_start(self, submit: float, n_nodes: int) -> float:
        """Start time the job would get if scheduled right now."""
        return self._start(*self._check_request(submit, n_nodes))

    def schedule_all(
        self,
        submits: Sequence[float],
        n_nodes: Sequence[int],
        durations: Sequence[float],
    ) -> List[ScheduledJob]:
        """Schedule a batch with EASY backfilling.

        The batch is validated as a whole first, as in
        :meth:`ClusterScheduler.schedule_all`.
        """
        submits, n_nodes_arr, durations = self._check_batch(submits, n_nodes, durations)
        queue = np.argsort(submits, kind="stable").tolist()
        submits, widths, durations = submits.tolist(), n_nodes_arr.tolist(), durations.tolist()
        scheduled: List[ScheduledJob] = []
        while queue:
            pick = 0
            head = queue[0]
            reservation = self._start(submits[head], widths[head])
            if reservation > submits[head]:
                # Head must wait: slide the first shorter job that fits in
                # front of its reservation, then re-evaluate.
                for pos in range(1, min(len(queue), 1 + self.backfill_depth)):
                    cand = queue[pos]
                    if self._start(submits[cand], widths[cand]) + durations[cand] <= reservation:
                        pick = pos
                        break
            job = queue.pop(pick)
            scheduled.append(
                self._place(submits[job], widths[job], durations[job], len(scheduled))
            )
        return scheduled
