"""Experience replay memories: uniform and prioritized (Schaul et al., 2015).

Prioritized experience replay (PER) is the mechanism the paper relies on to
cope with the extreme class imbalance between ordinary telemetry events and
uncorrected errors (Section 3.3.4): transitions with a large temporal-
difference error — typically the rare terminal UE transitions — are replayed
far more often than the abundant uneventful ones.

Both memories keep transitions in one preallocated ring of arrays (a state
row, a next-state row, action, reward and done per slot), so a batch is five
fancy-index gathers.  The first push fixes the state dimension.

The sum tree and the prioritized buffer expose two equivalent code paths:

* the scalar per-element methods (``SumTree.update`` / ``SumTree.sample``,
  ``PrioritizedReplayBuffer._sample_scalar`` /
  ``_update_priorities_scalar``) — the historical reference implementation;
* vectorized batch methods (``SumTree.update_many`` / ``SumTree.sample_many``,
  the default ``sample`` / ``update_priorities`` / ``push_many``) that
  reproduce the scalar results *bit for bit*: every floating-point operation
  is applied element-wise in the same order the scalar loops used
  (``np.add.at`` is an ordered, unbuffered fold; batched
  ``Generator.uniform`` draws consume the stream exactly like the scalar
  calls; priority exponentiation stays per-element because NumPy's SIMD
  ``pow`` is not bitwise-identical to Python's), and the one stream-order
  hazard — the pre-wrap unfilled-slot fallback, which interleaves an extra
  ``integers`` draw between ``uniform`` draws — rewinds the generator and
  replays the scalar loop verbatim.

At the paper's mini-batch size (32) the sampling path is numpy-dispatch
bound, so :meth:`PrioritizedReplayBuffer.sample` amortises the per-step
overheads across training steps: the stratified uniforms of several future
steps are pre-drawn in one ``Generator.random`` call (raw doubles are
stream-position-exact: ``uniform(low, high)`` is ``low + (high - low) *
next_double`` per element, and each step's bounds are applied to its slice
of the pool when the step actually happens, with whatever tree total is
current then), and all of a step's values descend the sum tree together
(:meth:`SumTree.sample_many`).  The pre-wrap fallback rewinds the
generator to the pool's checkpoint, fast-forwards the doubles consumed by
earlier steps, and replays the scalar loop verbatim — then discards the rest
of the pool, whose stream positions it invalidated.

The equivalence is pinned by ``tests/core/test_replay_vectorized.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.mdp import Transition
from repro.utils.rng import as_generator
from repro.utils.validation import check_fraction, check_positive

#: Training steps' worth of stratified uniforms pre-drawn per RNG call by
#: :meth:`PrioritizedReplayBuffer.sample` (see the module docstring).
PER_PREDRAW_STEPS = 8


class SumTree:
    """A complete binary tree whose internal nodes store the sum of leaves.

    Supports O(log n) priority updates and O(log n) sampling proportional to
    the stored priorities.  Leaves are allocated in ring-buffer order by the
    replay memory.
    """

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._tree = np.zeros(2 * self.capacity - 1, dtype=np.float64)
        #: Upper bound on the root-to-leaf path length; the batched descent
        #: runs exactly this many levels (parked rows are no-ops), which
        #: avoids a per-level any() termination check.
        self._depth_bound = (
            int(np.ceil(np.log2(self.capacity))) + 1 if self.capacity > 1 else 0
        )

    @property
    def total(self) -> float:
        """Sum of all leaf priorities."""
        return float(self._tree[0])

    def _leaf_index(self, data_index: int) -> int:
        return data_index + self.capacity - 1

    def update(self, data_index: int, priority: float) -> None:
        """Set the priority of leaf ``data_index``."""
        if not (0 <= data_index < self.capacity):
            raise IndexError(f"leaf index {data_index} out of range")
        if priority < 0:
            raise ValueError("priorities must be non-negative")
        idx = self._leaf_index(data_index)
        change = priority - self._tree[idx]
        self._tree[idx] = priority
        while idx > 0:
            idx = (idx - 1) // 2
            self._tree[idx] += change

    def update_many(self, data_indices: np.ndarray, priorities: np.ndarray) -> None:
        """Apply a batch of :meth:`update` calls, bit-identical to the loop.

        Repeated indices behave exactly like sequential scalar updates: each
        occurrence's propagated change is measured against the value the
        previous occurrence left behind, and all ancestor additions are
        applied in update order (``np.add.at`` folds repeated indices
        sequentially), so internal-node rounding matches the scalar path.
        """
        indices = np.asarray(data_indices, dtype=np.int64).ravel()
        priorities = np.asarray(priorities, dtype=np.float64).ravel()
        if indices.size != priorities.size:
            raise ValueError("indices and priorities must be equally long")
        if indices.size == 0:
            return
        if int(indices.min()) < 0 or int(indices.max()) >= self.capacity:
            raise IndexError("leaf index out of range")
        if (priorities < 0).any():
            raise ValueError("priorities must be non-negative")

        leaves = indices + (self.capacity - 1)
        # The change each update propagates is (new - value at its turn);
        # duplicates therefore read the previous occurrence's priority.
        order = np.argsort(leaves, kind="stable")
        sorted_leaves = leaves[order]
        sorted_priorities = priorities[order]
        first = np.ones(leaves.size, dtype=bool)
        first[1:] = sorted_leaves[1:] != sorted_leaves[:-1]
        previous = np.empty(leaves.size, dtype=np.float64)
        previous[first] = self._tree[sorted_leaves[first]]
        previous[~first] = sorted_priorities[:-1][~first[1:]]
        changes_sorted = sorted_priorities - previous
        changes = np.empty(leaves.size, dtype=np.float64)
        changes[order] = changes_sorted

        # Leaf values are assignments, not additions: the last update of
        # each leaf wins, exactly like sequential overwrites.
        last = np.ones(leaves.size, dtype=bool)
        last[:-1] = sorted_leaves[:-1] != sorted_leaves[1:]
        self._tree[sorted_leaves[last]] = sorted_priorities[last]

        # Ancestor chains (leaf excluded, root included), padded with -1;
        # flattened row-major so a node shared by several updates receives
        # its additions in update order — np.add.at applies repeated
        # indices as an ordered fold, matching the scalar propagation.
        # Floor division makes -1 a fixed point ((-1 - 1) // 2 == -1), so
        # exhausted chains pad themselves without per-level masking.
        chains: List[np.ndarray] = []
        cursor = leaves
        for _ in range(self._depth_bound):
            cursor = (cursor - 1) // 2
            chains.append(cursor)
        if not chains:
            return
        paths = np.stack(chains, axis=1)
        valid = paths >= 0
        flat_nodes = paths.ravel()[valid.ravel()]
        flat_changes = np.broadcast_to(
            changes[:, None], paths.shape
        ).ravel()[valid.ravel()]
        np.add.at(self._tree, flat_nodes, flat_changes)

    def get(self, data_index: int) -> float:
        """Priority currently stored at leaf ``data_index``."""
        return float(self._tree[self._leaf_index(data_index)])

    def sample(self, value: float) -> Tuple[int, float]:
        """Find the leaf such that the prefix sum of priorities covers ``value``.

        Returns ``(data_index, priority)``.
        """
        if self.total <= 0:
            raise ValueError("cannot sample from an empty tree")
        value = float(np.clip(value, 0.0, np.nextafter(self.total, 0.0)))
        idx = 0
        while idx < self.capacity - 1:
            left = 2 * idx + 1
            right = left + 1
            if value <= self._tree[left] or self._tree[right] <= 0.0:
                idx = left
            else:
                value -= self._tree[left]
                idx = right
        data_index = idx - (self.capacity - 1)
        return data_index, float(self._tree[idx])

    def sample_many(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`sample` over an array of values.

        All values descend the tree level by level; the per-element
        comparisons and subtractions are the same operations the scalar
        walk performs, so the returned ``(data_indices, priorities)`` are
        bit-identical to calling :meth:`sample` once per value.
        """
        if self.total <= 0:
            raise ValueError("cannot sample from an empty tree")
        values = np.asarray(values, dtype=np.float64).ravel().copy()
        np.clip(values, 0.0, np.nextafter(self.total, 0.0), out=values)
        idx = np.zeros(values.shape, dtype=np.int64)
        n_internal = self.capacity - 1
        top = 2 * self.capacity - 2
        for _ in range(self._depth_bound):
            active = idx < n_internal
            left = 2 * idx + 1
            right = left + 1
            # Leaf rows gather out-of-range children; clip the gather (their
            # results are discarded by the np.where below).
            left_c = np.minimum(left, top)
            right_c = np.minimum(right, top)
            go_left = (values <= self._tree[left_c]) | (self._tree[right_c] <= 0.0)
            next_idx = np.where(go_left, left, right)
            next_values = np.where(go_left, values, values - self._tree[left_c])
            idx = np.where(active, next_idx, idx)
            values = np.where(active, next_values, values)
        return idx - n_internal, self._tree[idx].copy()


@dataclass
class ReplayBatch:
    """A sampled mini-batch in array form, ready for the Q-network."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    weights: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return int(self.states.shape[0])


class _TransitionStore:
    """Preallocated ring storage for transitions, one row per slot.

    :meth:`write` copies a transition into float64 rows (a terminal
    ``next_state=None`` becomes a zero row); the arrays are allocated on the
    first write, whose state fixes the dimension.  No reference to a pushed
    :class:`Transition` is kept.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._states: Optional[np.ndarray] = None
        self._next_states: Optional[np.ndarray] = None
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._dones = np.zeros(capacity)

    def write(self, slot: int, transition: Transition) -> None:
        """Copy ``transition`` into row ``slot``; reject a mismatched state."""
        state = np.asarray(transition.state, dtype=np.float64)
        if state.ndim != 1:
            raise ValueError(f"states must be 1-D, got shape {state.shape}")
        if self._states is not None and state.shape[0] != self._states.shape[1]:
            raise ValueError(
                f"state shape {state.shape} differs from the stored "
                f"({self._states.shape[1]},)"
            )
        next_state = transition.next_state
        if next_state is not None and np.shape(next_state) != state.shape:
            raise ValueError(
                f"next_state shape {np.shape(next_state)} differs from the "
                f"state shape {state.shape}"
            )
        if self._states is None:
            self._states = np.zeros((self.capacity, state.shape[0]))
            self._next_states = np.zeros((self.capacity, state.shape[0]))
        self._states[slot] = state
        self._next_states[slot] = 0.0 if next_state is None else next_state
        self._actions[slot] = transition.action
        self._rewards[slot] = transition.reward
        self._dones[slot] = transition.done

    def batch(self, indices: np.ndarray, weights: np.ndarray) -> ReplayBatch:
        """Gather the rows at ``indices`` into a :class:`ReplayBatch`."""
        indices = np.asarray(indices, dtype=np.int64)
        return ReplayBatch(
            states=self._states[indices],
            actions=self._actions[indices],
            rewards=self._rewards[indices],
            next_states=self._next_states[indices],
            dones=self._dones[indices],
            weights=np.asarray(weights, dtype=np.float64),
            indices=indices,
        )


class UniformReplayBuffer:
    """Plain ring-buffer replay memory with uniform sampling (ablation)."""

    def __init__(self, capacity: int, seed=0) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._store = _TransitionStore(self.capacity)
        self._next = 0
        self._size = 0
        self._rng = as_generator(seed, "replay")

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        """Store one transition, evicting the oldest when full."""
        self._store.write(self._next, transition)
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def push_many(self, transitions: Iterable[Transition]) -> None:
        """Bulk insert; identical to calling :meth:`push` repeatedly."""
        for transition in transitions:
            self.push(transition)

    def sample(self, batch_size: int) -> ReplayBatch:
        """Sample a batch uniformly at random (importance weights are 1)."""
        check_positive("batch_size", batch_size)
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        indices = self._rng.integers(0, self._size, size=batch_size)
        return self._store.batch(indices, np.ones(batch_size))

    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        """No-op: uniform replay does not track priorities."""

    def anneal(self, fraction: float) -> None:
        """No-op: uniform replay has no importance-sampling correction."""


class PrioritizedReplayBuffer:
    """Proportional prioritized experience replay (Schaul et al., 2015).

    Parameters
    ----------
    capacity:
        Maximum number of stored transitions.
    alpha:
        Priority exponent (0 = uniform, 1 = fully proportional).
    beta0:
        Initial importance-sampling exponent, annealed towards 1 by
        :meth:`anneal`.
    epsilon:
        Small constant added to |TD error| so no transition starves.
    """

    def __init__(
        self,
        capacity: int,
        alpha: float = 0.6,
        beta0: float = 0.4,
        epsilon: float = 1e-3,
        seed=0,
    ) -> None:
        check_positive("capacity", capacity)
        check_fraction("alpha", alpha)
        check_fraction("beta0", beta0)
        check_positive("epsilon", epsilon)
        self.capacity = int(capacity)
        self.alpha = float(alpha)
        self.beta = float(beta0)
        self.beta0 = float(beta0)
        self.epsilon = float(epsilon)
        self._tree = SumTree(self.capacity)
        self._store = _TransitionStore(self.capacity)
        self._next = 0
        self._size = 0
        self._max_priority = 1.0
        self._rng = as_generator(seed, "per")
        #: Pre-drawn raw uniform doubles for multi-step stratified sampling
        #: (see the module docstring), plus the generator checkpoint taken
        #: when the pool was drawn and the number of doubles consumed since.
        self._pool_values: Optional[np.ndarray] = None
        self._pool_cursor = 0
        self._pool_checkpoint = None

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        """Store a transition with the maximum priority seen so far."""
        self._store.write(self._next, transition)
        self._tree.update(self._next, self._max_priority**self.alpha)
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def push_many(self, transitions: Iterable[Transition]) -> None:
        """Bulk insert; identical to calling :meth:`push` per transition.

        Every transition receives the same ``max_priority ** alpha`` leaf
        value a sequence of pushes would have assigned (pushes never raise
        the maximum), and the tree update folds the ring-buffer slots —
        including wrap-around overwrites — in insertion order.
        """
        transitions = list(transitions)
        if not transitions:
            return
        count = len(transitions)
        priority = self._max_priority**self.alpha
        slots = (self._next + np.arange(count, dtype=np.int64)) % self.capacity
        for slot, transition in zip(slots, transitions):
            self._store.write(int(slot), transition)
        self._tree.update_many(slots, np.full(count, priority, dtype=np.float64))
        self._next = int((self._next + count) % self.capacity)
        self._size = min(self._size + count, self.capacity)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalized_weights(
        priorities: np.ndarray, total: float, size: int, beta: float
    ) -> np.ndarray:
        """Importance-sampling weights, normalised by their maximum.

        Guards the normalisation against a zero (or non-finite) maximum:
        all-zero sampled priorities with β > 0 make every raw weight
        infinite — ``inf / inf`` would poison the whole batch with NaNs —
        so the correction degenerates to uniform weights instead.
        """
        probabilities = priorities / max(total, 1e-12)
        with np.errstate(divide="ignore"):
            weights = (size * probabilities) ** (-beta)
        max_weight = float(np.max(weights))
        if max_weight > 0.0 and np.isfinite(max_weight):
            return weights / max_weight
        return np.ones(len(weights))

    def _next_doubles(self, count: int) -> np.ndarray:
        """The next ``count`` raw uniform doubles of the stream, pooled.

        Pre-draws ``PER_PREDRAW_STEPS`` steps' worth in one generator call;
        ``Generator.random`` consumes one ``next_double`` per element, so
        slicing the pool step by step yields exactly the doubles a sequence
        of per-step ``uniform`` calls would have drawn.  A call that drains
        the pool consumes its tail and draws the shortfall directly (the
        tail came first in the stream); the next call starts a fresh pool.
        """
        pool = self._pool_values
        if pool is None:
            self._pool_checkpoint = self._rng.bit_generator.state
            self._pool_values = pool = self._rng.random(PER_PREDRAW_STEPS * count)
            self._pool_cursor = 0
        start = self._pool_cursor
        available = pool.size - start
        if available >= count:
            self._pool_cursor = start + count
            return pool[start : start + count]
        raw = np.empty(count)
        raw[:available] = pool[start:]
        raw[available:] = self._rng.random(count - available)
        # Mark the whole pool consumed; the *rewind* checkpoint still covers
        # this call (checkpoint + ``start`` skipped doubles), but the next
        # call must start a fresh pool from the advanced generator.
        self._pool_cursor = pool.size
        self._pool_values = None
        return raw

    def _abandon_pool(self) -> None:
        """Rewind the generator to the first unconsumed pooled double.

        Restores the exact stream position a pool-free implementation would
        be at, so direct generator draws (the scalar reference path, the
        pre-wrap fallback) stay stream-identical.
        """
        if self._pool_values is None:
            return
        self._rng.bit_generator.state = self._pool_checkpoint
        if self._pool_cursor:
            self._rng.random(self._pool_cursor)
        self._pool_values = None

    def sample(self, batch_size: int) -> ReplayBatch:
        """Sample proportionally to priority, with importance weights.

        The common path takes this step's stratified uniforms from the
        pre-drawn pool (``uniform(low, high)`` is ``low + (high - low) *
        next_double`` element by element, applied here to the pooled raw
        doubles with this step's current segment bounds — bit- and
        stream-identical to per-step ``uniform`` calls) and walks the sum
        tree for the whole batch at once.  Only when a draw lands on a
        not-yet-filled slot (possible before the buffer wraps for the first
        time) does the generator rewind to the pool checkpoint, fast-forward
        the doubles earlier steps consumed, and replay the scalar loop,
        whose fallback interleaves an extra ``integers`` draw mid-stream —
        invalidating (and therefore discarding) the rest of the pool.
        """
        check_positive("batch_size", batch_size)
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        total = self._tree.total
        segment = total / batch_size
        checkpoint = self._pool_checkpoint if self._pool_values is not None else None
        skip = self._pool_cursor if checkpoint is not None else 0
        if checkpoint is None:
            checkpoint = self._rng.bit_generator.state
        raw = self._next_doubles(batch_size)
        steps = np.arange(batch_size, dtype=np.float64)
        low = steps * segment
        values = low + ((steps + 1.0) * segment - low) * raw
        indices, priorities = self._tree.sample_many(values)
        if bool((indices >= self._size).any()):
            # A slot is unfilled iff its index is >= the current size; redo
            # the draws scalar-style from the checkpoint so the uniform and
            # fallback-integer draws interleave as they historically did.
            self._rng.bit_generator.state = checkpoint
            if skip:
                self._rng.random(skip)
            self._pool_values = None
            indices, priorities = self._sample_indices_scalar(batch_size, segment)
        weights = self._normalized_weights(priorities, total, self._size, self.beta)
        return self._store.batch(indices, weights)

    def _sample_indices_scalar(
        self, batch_size: int, segment: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Reference scalar stratified draw (also the pre-wrap fallback path)."""
        indices = np.empty(batch_size, dtype=np.int64)
        priorities = np.empty(batch_size, dtype=np.float64)
        for i in range(batch_size):
            value = self._rng.uniform(i * segment, (i + 1) * segment)
            idx, priority = self._tree.sample(value)
            # Guard against sampling a not-yet-filled slot (only possible
            # before the buffer wraps for the first time).
            if idx >= self._size:
                idx = int(self._rng.integers(0, self._size))
                priority = max(self._tree.get(idx), self.epsilon**self.alpha)
            indices[i] = idx
            priorities[i] = priority
        return indices, priorities

    def _sample_scalar(self, batch_size: int) -> ReplayBatch:
        """Reference implementation of :meth:`sample` (per-draw tree walks).

        Kept for the equivalence tests and the decision-core benchmark;
        produces bit-identical batches and consumes the RNG stream exactly
        like :meth:`sample` (any multi-step pool is rewound first, so mixing
        the two entry points on one buffer stays stream-exact).
        """
        check_positive("batch_size", batch_size)
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        self._abandon_pool()
        total = self._tree.total
        segment = total / batch_size
        indices, priorities = self._sample_indices_scalar(batch_size, segment)
        weights = self._normalized_weights(priorities, total, self._size, self.beta)
        return self._store.batch(indices, weights)

    # ------------------------------------------------------------------ #
    # Priority maintenance
    # ------------------------------------------------------------------ #
    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        """Refresh priorities with the latest |TD errors| (batched).

        The α-exponentiation stays per-element (NumPy's SIMD ``pow`` is not
        bitwise-identical to Python's ``**`` on large arrays) and the tree
        refresh goes through :meth:`SumTree.update_many`, so the stored
        priorities match the scalar reference exactly.
        """
        td_errors = np.abs(np.asarray(td_errors, dtype=float)).ravel()
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if indices.size == 0:
            return
        priorities = td_errors + self.epsilon
        self._max_priority = max(self._max_priority, float(priorities.max()))
        powered = np.array(
            [float(priority) ** self.alpha for priority in priorities]
        )
        self._tree.update_many(indices, powered)

    def _update_priorities_scalar(
        self, indices: np.ndarray, td_errors: np.ndarray
    ) -> None:
        """Reference per-element priority refresh (equivalence tests/bench)."""
        td_errors = np.abs(np.asarray(td_errors, dtype=float))
        for idx, err in zip(np.asarray(indices, dtype=int), td_errors):
            priority = float(err) + self.epsilon
            self._max_priority = max(self._max_priority, priority)
            self._tree.update(int(idx), priority**self.alpha)

    def anneal(self, fraction: float) -> None:
        """Anneal the importance-sampling exponent β from β₀ to 1."""
        fraction = float(np.clip(fraction, 0.0, 1.0))
        self.beta = self.beta0 + (1.0 - self.beta0) * fraction
