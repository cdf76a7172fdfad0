"""Equivalence suite: vectorized replay memory vs the scalar reference.

The vectorized :class:`SumTree` batch methods and the batched
:class:`PrioritizedReplayBuffer` sampling/priority-refresh must reproduce
the historical per-element implementations *bit for bit* — same tree
contents, same RNG stream consumption, same sampled indices and weights —
because RL training (and therefore the golden experiment fingerprints)
depends on every one of those bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mdp import Transition
from repro.core.replay import PrioritizedReplayBuffer, SumTree


def _make_transitions(rng, count, state_dim=4):
    return [
        Transition(
            state=rng.normal(size=state_dim),
            action=int(rng.integers(2)),
            reward=float(rng.normal()),
            next_state=rng.normal(size=state_dim),
            done=bool(rng.random() < 0.05),
        )
        for _ in range(count)
    ]


class TestSumTreeVectorized:
    @pytest.mark.parametrize("capacity", [1, 2, 5, 16, 100])
    def test_update_many_matches_sequential_updates(self, capacity, rng):
        scalar_tree, batch_tree = SumTree(capacity), SumTree(capacity)
        for _ in range(15):
            indices = rng.integers(0, capacity, size=int(rng.integers(1, 40)))
            priorities = rng.random(indices.size) * rng.choice(
                [1e-6, 1.0, 1e5], indices.size
            )
            for index, priority in zip(indices, priorities):
                scalar_tree.update(int(index), float(priority))
            batch_tree.update_many(indices, priorities)
            assert np.array_equal(scalar_tree._tree, batch_tree._tree)

    def test_update_many_duplicate_indices_fold_in_order(self):
        scalar_tree, batch_tree = SumTree(8), SumTree(8)
        indices = np.array([3, 3, 3, 5, 3, 5])
        priorities = np.array([1.0, 0.25, 7.5, 2.0, 0.125, 0.5])
        for index, priority in zip(indices, priorities):
            scalar_tree.update(int(index), float(priority))
        batch_tree.update_many(indices, priorities)
        assert np.array_equal(scalar_tree._tree, batch_tree._tree)
        assert batch_tree.get(3) == 0.125 and batch_tree.get(5) == 0.5

    def test_update_many_validation(self):
        tree = SumTree(4)
        with pytest.raises(IndexError):
            tree.update_many(np.array([4]), np.array([1.0]))
        with pytest.raises(ValueError):
            tree.update_many(np.array([0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            tree.update_many(np.array([0, 1]), np.array([1.0]))

    def test_sample_many_matches_scalar_walks(self, rng):
        tree = SumTree(37)
        tree.update_many(rng.integers(0, 37, size=60), rng.random(60))
        values = rng.uniform(0, tree.total, size=200)
        scalar = [tree.sample(float(value)) for value in values]
        indices, priorities = tree.sample_many(values)
        assert np.array_equal(indices, np.array([s[0] for s in scalar]))
        assert np.array_equal(priorities, np.array([s[1] for s in scalar]))

    def test_sample_many_empty_tree_raises(self):
        with pytest.raises(ValueError):
            SumTree(4).sample_many(np.array([0.0]))


class TestPrioritizedReplayVectorized:
    def test_sample_and_update_interplay_is_bit_identical(self, rng):
        """200 interleaved sample/update/push rounds: identical streams."""
        transitions = _make_transitions(rng, 600)
        scalar = PrioritizedReplayBuffer(128, seed=5)
        batched = PrioritizedReplayBuffer(128, seed=5)
        for transition in transitions[:300]:
            scalar.push(transition)
        batched.push_many(transitions[:300])
        assert np.array_equal(scalar._tree._tree, batched._tree._tree)
        assert scalar._next == batched._next and scalar._size == batched._size

        extra = iter(transitions[300:])
        for round_index in range(200):
            reference = scalar._sample_scalar(32)
            batch = batched.sample(32)
            assert np.array_equal(reference.indices, batch.indices)
            assert np.array_equal(reference.weights, batch.weights)
            errors = rng.normal(size=32) * 10
            scalar._update_priorities_scalar(reference.indices, errors)
            batched.update_priorities(batch.indices, errors)
            assert np.array_equal(scalar._tree._tree, batched._tree._tree)
            assert scalar._max_priority == batched._max_priority
            if round_index % 10 == 0:
                fresh = [next(extra), next(extra)]
                for transition in fresh:
                    scalar.push(transition)
                batched.push_many(fresh)

    def test_large_batch_update_takes_the_vectorized_path(self, rng):
        """Batches >= 64 refresh through SumTree.update_many; identical."""
        transitions = _make_transitions(rng, 300)
        scalar = PrioritizedReplayBuffer(256, seed=2)
        batched = PrioritizedReplayBuffer(256, seed=2)
        for transition in transitions:
            scalar.push(transition)
        batched.push_many(transitions)
        for _ in range(20):
            indices = rng.integers(0, 256, size=128)
            errors = rng.normal(size=128) * rng.choice([1e-4, 1.0, 1e3], 128)
            scalar._update_priorities_scalar(indices, errors)
            batched.update_priorities(indices, errors)
            assert np.array_equal(scalar._tree._tree, batched._tree._tree)
            assert scalar._max_priority == batched._max_priority

    def test_push_many_wraps_like_repeated_push(self, rng):
        transitions = _make_transitions(rng, 25)
        scalar = PrioritizedReplayBuffer(8, seed=1)
        batched = PrioritizedReplayBuffer(8, seed=1)
        for transition in transitions:
            scalar.push(transition)
        batched.push_many(transitions)  # wraps the ring three times
        assert np.array_equal(scalar._tree._tree, batched._tree._tree)
        assert scalar._next == batched._next and len(scalar) == len(batched)
        everything = np.arange(8)
        stored = scalar._store.batch(everything, np.ones(8))
        bulk = batched._store.batch(everything, np.ones(8))
        for field in ("states", "actions", "rewards", "next_states", "dones"):
            assert np.array_equal(getattr(stored, field), getattr(bulk, field))

    def test_prewrap_unfilled_slot_fallback_matches_scalar(self, rng):
        """A draw landing on a not-yet-filled slot rewinds and replays.

        The fallback is only reachable before the buffer wraps (and needs a
        zero-priority region adjacent to live leaves), so the tree is rigged
        directly: leaf 2 gets priority while slot 2 is still unfilled.
        The batched path must detect it, rewind the generator, and produce
        exactly the scalar loop's indices/weights — including the extra
        mid-stream ``integers`` draw the fallback consumes.
        """
        transitions = _make_transitions(rng, 2)
        scalar = PrioritizedReplayBuffer(4, seed=11)
        batched = PrioritizedReplayBuffer(4, seed=11)
        for buffer in (scalar, batched):
            for transition in transitions:
                buffer.push(transition)
            buffer._tree.update(2, 5.0)
        reference = scalar._sample_scalar(16)
        batch = batched.sample(16)
        assert np.array_equal(reference.indices, batch.indices)
        assert np.array_equal(reference.weights, batch.weights)
        # Every returned transition is a real (filled) slot.
        assert (batch.indices < 2).all()
        # And the RNG streams stayed in lockstep for the next call too.
        assert np.array_equal(
            scalar._sample_scalar(8).indices, batched.sample(8).indices
        )

    def test_zero_priority_weights_degrade_to_uniform(self):
        """All-zero sampled priorities with β > 0 must not produce NaNs."""
        weights = PrioritizedReplayBuffer._normalized_weights(
            np.zeros(8), total=1.0, size=8, beta=0.5
        )
        assert np.array_equal(weights, np.ones(8))

    def test_degenerate_overflow_weights_degrade_to_uniform(self):
        """A priority underflowing to probability 0 makes its raw weight
        infinite; the guard must keep the batch finite."""
        priorities = np.array([1.0, 0.0, 2.0])
        weights = PrioritizedReplayBuffer._normalized_weights(
            priorities, total=3.0, size=3, beta=0.4
        )
        assert np.all(np.isfinite(weights))
        assert np.array_equal(weights, np.ones(3))

    def test_normal_weights_match_historical_formula(self):
        priorities = np.array([0.5, 1.0, 0.25])
        total = 1.75
        probabilities = priorities / max(total, 1e-12)
        expected = (3 * probabilities) ** (-0.6)
        expected = expected / expected.max()
        got = PrioritizedReplayBuffer._normalized_weights(
            priorities, total=total, size=3, beta=0.6
        )
        assert np.array_equal(got, expected)


class TestPerDrawPool:
    """The multi-step pre-drawn uniform pool must be RNG-stream-exact.

    ``sample`` pre-draws ``PER_PREDRAW_STEPS`` steps' worth of raw doubles
    per generator call; slicing that pool step by step must yield exactly
    the doubles a pool-free buffer draws one ``uniform`` call at a time —
    across pool refills, partial drains, and mid-stream scalar entry
    points (which rewind the pool).
    """

    def _filled_pair(self, rng, capacity=128, fill=200, seed=9):
        transitions = _make_transitions(rng, fill)
        scalar = PrioritizedReplayBuffer(capacity, seed=seed)
        pooled = PrioritizedReplayBuffer(capacity, seed=seed)
        for transition in transitions:
            scalar.push(transition)
        pooled.push_many(transitions)
        return scalar, pooled

    def _assert_round(self, scalar, pooled, batch_size, rng):
        reference = scalar._sample_scalar(batch_size)
        batch = pooled.sample(batch_size)
        assert np.array_equal(reference.indices, batch.indices), batch_size
        assert np.array_equal(reference.weights, batch.weights), batch_size
        errors = rng.normal(size=batch_size) * 5
        scalar._update_priorities_scalar(reference.indices, errors)
        pooled.update_priorities(batch.indices, errors)
        assert np.array_equal(scalar._tree._tree, pooled._tree._tree)

    def test_constant_batch_size_spans_many_pools(self, rng):
        """At batch 32 a pool covers PER_PREDRAW_STEPS calls; 50 rounds
        force several full drain-and-refill cycles."""
        from repro.core.replay import PER_PREDRAW_STEPS

        scalar, pooled = self._filled_pair(rng)
        rounds = PER_PREDRAW_STEPS * 6 + 2  # refills plus a partial pool
        for _ in range(rounds):
            self._assert_round(scalar, pooled, 32, rng)

    def test_varying_batch_sizes_straddle_pool_boundaries(self, rng):
        """Cycling 1/7/32/64 makes calls drain the pool mid-slice: the
        tail-plus-shortfall path must splice the stream seamlessly."""
        scalar, pooled = self._filled_pair(rng, capacity=256, fill=300)
        for _ in range(8):
            for batch_size in (1, 7, 32, 64):
                self._assert_round(scalar, pooled, batch_size, rng)

    def test_scalar_entry_point_mid_pool_rewinds_exactly(self, rng):
        """``_sample_scalar`` on a buffer holding a half-consumed pool must
        rewind the generator to the first unconsumed double, keeping the
        whole interleaved sequence stream-identical to a pool-free run."""
        scalar, pooled = self._filled_pair(rng, seed=21)
        for batch_size, entry in (
            (16, "pooled"),   # opens a pool, consumes 1/8th
            (16, "scalar"),   # must rewind the remaining 7/8ths
            (8, "pooled"),
            (8, "pooled"),
            (24, "scalar"),
            (32, "pooled"),
        ):
            reference = scalar._sample_scalar(batch_size)
            if entry == "pooled":
                batch = pooled.sample(batch_size)
            else:
                batch = pooled._sample_scalar(batch_size)
            assert np.array_equal(reference.indices, batch.indices)
            assert np.array_equal(reference.weights, batch.weights)
        # Rewinding the still-open pool restores the exact pool-free
        # generator state — the invariant the rewind exists to provide.
        pooled._abandon_pool()
        assert (
            scalar._rng.bit_generator.state["state"]
            == pooled._rng.bit_generator.state["state"]
        )

    def test_prewrap_fallback_discards_pool(self, rng):
        """The unfilled-slot fallback replays the draws scalar-style from
        the pool checkpoint — even when the pool was opened by an earlier,
        smaller call."""
        transitions = _make_transitions(rng, 3)
        scalar = PrioritizedReplayBuffer(8, seed=13)
        pooled = PrioritizedReplayBuffer(8, seed=13)
        for buffer in (scalar, pooled):
            for transition in transitions:
                buffer.push(transition)
        self._assert_round(scalar, pooled, 4, rng)  # opens a pool
        for buffer in (scalar, pooled):
            buffer._tree.update(5, 50.0)  # unfilled slot dominates the mass
        reference = scalar._sample_scalar(16)
        batch = pooled.sample(16)
        assert np.array_equal(reference.indices, batch.indices)
        assert np.array_equal(reference.weights, batch.weights)
        assert (batch.indices < 3).all()
        self._assert_round(scalar, pooled, 16, rng)  # streams still aligned
