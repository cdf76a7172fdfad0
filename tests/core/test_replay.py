"""Tests for the replay memories (sum tree, uniform, prioritized)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mdp import Transition
from repro.core.replay import PrioritizedReplayBuffer, SumTree, UniformReplayBuffer


def _transition(value=0.0, done=False, action=0):
    state = np.full(4, value)
    return Transition(
        state=state,
        action=action,
        reward=-value,
        next_state=None if done else state + 1,
        done=done,
    )


class TestSumTree:
    def test_total_tracks_updates(self):
        tree = SumTree(8)
        tree.update(0, 1.0)
        tree.update(3, 2.0)
        assert tree.total == pytest.approx(3.0)
        tree.update(0, 0.5)
        assert tree.total == pytest.approx(2.5)

    def test_get_returns_stored_priority(self):
        tree = SumTree(4)
        tree.update(2, 1.25)
        assert tree.get(2) == pytest.approx(1.25)

    def test_sample_respects_prefix_sums(self):
        tree = SumTree(4)
        tree.update(0, 1.0)
        tree.update(1, 2.0)
        tree.update(2, 3.0)
        idx, priority = tree.sample(0.5)
        assert idx == 0
        idx, priority = tree.sample(2.5)
        assert idx == 1
        idx, priority = tree.sample(5.5)
        assert idx == 2

    def test_sample_empty_tree_raises(self):
        with pytest.raises(ValueError):
            SumTree(4).sample(0.0)

    def test_update_out_of_range(self):
        tree = SumTree(4)
        with pytest.raises(IndexError):
            tree.update(4, 1.0)

    def test_negative_priority_rejected(self):
        with pytest.raises(ValueError):
            SumTree(4).update(0, -1.0)

    def test_non_power_of_two_capacity(self):
        tree = SumTree(5)
        for i in range(5):
            tree.update(i, float(i + 1))
        assert tree.total == pytest.approx(15.0)
        # Sampling remains proportional even when the leaf layer is ragged:
        # the returned leaf always carries the priority that was stored in it.
        idx, priority = tree.sample(14.9)
        assert 0 <= idx < 5
        assert priority == pytest.approx(float(idx + 1))

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_property_sampling_proportional(self, priorities):
        tree = SumTree(len(priorities))
        for i, p in enumerate(priorities):
            tree.update(i, p)
        assert tree.total == pytest.approx(sum(priorities), rel=1e-9)
        rng = np.random.default_rng(0)
        for _ in range(20):
            idx, priority = tree.sample(rng.uniform(0, tree.total))
            assert 0 <= idx < len(priorities)
            assert priority == pytest.approx(priorities[idx], rel=1e-9)


class TestUniformReplayBuffer:
    def test_push_and_len(self):
        buffer = UniformReplayBuffer(4)
        for i in range(3):
            buffer.push(_transition(i))
        assert len(buffer) == 3

    def test_capacity_eviction(self):
        buffer = UniformReplayBuffer(4)
        for i in range(10):
            buffer.push(_transition(i))
        assert len(buffer) == 4

    def test_sample_shapes(self):
        buffer = UniformReplayBuffer(16, seed=0)
        for i in range(8):
            buffer.push(_transition(i, done=(i % 3 == 0), action=i % 2))
        batch = buffer.sample(5)
        assert batch.states.shape == (5, 4)
        assert batch.next_states.shape == (5, 4)
        assert batch.actions.shape == (5,)
        assert np.all(batch.weights == 1.0)

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            UniformReplayBuffer(4).sample(1)


class TestPrioritizedReplayBuffer:
    def _filled(self, n=32, capacity=64):
        buffer = PrioritizedReplayBuffer(capacity, seed=1)
        for i in range(n):
            buffer.push(_transition(i, done=(i % 7 == 0)))
        return buffer

    def test_sample_shapes_and_weights(self):
        buffer = self._filled()
        batch = buffer.sample(8)
        assert batch.states.shape == (8, 4)
        assert batch.weights.shape == (8,)
        assert np.all(batch.weights > 0) and np.all(batch.weights <= 1.0 + 1e-9)

    def test_update_priorities_biases_sampling(self):
        buffer = PrioritizedReplayBuffer(64, alpha=1.0, seed=2)
        for i in range(16):
            buffer.push(_transition(i))
        # Give index 3 an enormous priority.
        buffer.update_priorities(np.arange(16), np.full(16, 1e-3))
        buffer.update_priorities(np.array([3]), np.array([1000.0]))
        counts = np.zeros(16)
        for _ in range(40):
            batch = buffer.sample(8)
            for idx in batch.indices:
                counts[idx] += 1
        assert counts[3] == counts.max()
        assert counts[3] > 40  # sampled in nearly every batch

    def test_beta_annealing(self):
        buffer = PrioritizedReplayBuffer(8, beta0=0.4)
        buffer.anneal(0.5)
        assert buffer.beta == pytest.approx(0.7)
        buffer.anneal(2.0)
        assert buffer.beta == pytest.approx(1.0)

    def test_capacity_eviction(self):
        buffer = self._filled(n=200, capacity=64)
        assert len(buffer) == 64

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(0)
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4, alpha=1.5)
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4, epsilon=0)

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4).sample(1)

    def test_new_transitions_get_max_priority(self):
        buffer = PrioritizedReplayBuffer(16, alpha=1.0, seed=3)
        buffer.push(_transition(0))
        buffer.update_priorities(np.array([0]), np.array([50.0]))
        buffer.push(_transition(1))
        # The new transition should have priority comparable to the maximum.
        assert buffer._tree.get(1) >= buffer._tree.get(0) - 1e-9


@pytest.mark.parametrize(
    "make_buffer",
    [
        lambda capacity: UniformReplayBuffer(capacity, seed=5),
        lambda capacity: PrioritizedReplayBuffer(capacity, seed=5),
    ],
    ids=["uniform", "prioritized"],
)
class TestArrayStore:
    """Both memories copy transitions into one preallocated array ring."""

    @staticmethod
    def _check_rows(batch, expected):
        for row, slot in enumerate(batch.indices):
            transition = expected[int(slot)]
            assert np.array_equal(batch.states[row], transition.state)
            assert batch.actions[row] == transition.action
            assert batch.rewards[row] == transition.reward
            assert batch.dones[row] == float(transition.done)
            if transition.next_state is None:
                assert np.array_equal(batch.next_states[row], np.zeros(4))
            else:
                assert np.array_equal(batch.next_states[row], transition.next_state)

    def test_sampled_rows_equal_pushed_transitions(self, make_buffer):
        buffer = make_buffer(16)
        pushed = [_transition(i, done=(i % 3 == 0), action=i % 2) for i in range(10)]
        for transition in pushed:
            buffer.push(transition)
        batch = buffer.sample(64)
        assert batch.states.dtype == np.float64 and batch.actions.dtype == np.int64
        assert set(batch.indices.tolist()) == set(range(10))
        self._check_rows(batch, pushed)

    def test_wrap_overwrites_oldest_rows(self, make_buffer):
        buffer = make_buffer(4)
        pushed = [_transition(i, done=(i == 9)) for i in range(10)]
        buffer.push_many(pushed)
        batch = buffer.sample(64)
        # Slot s holds the last transition pushed into it: 8, 9, 6, 7.
        survivors = {i % 4: transition for i, transition in enumerate(pushed)}
        assert set(batch.states[:, 0].tolist()) == {6.0, 7.0, 8.0, 9.0}
        self._check_rows(batch, survivors)

    def test_rows_are_copies(self, make_buffer):
        buffer = make_buffer(4)
        transition = _transition(2.0)
        buffer.push(transition)
        transition.state[:] = -1.0
        assert np.array_equal(buffer.sample(1).states[0], np.full(4, 2.0))

    def test_mismatched_state_shape_rejected(self, make_buffer):
        buffer = make_buffer(8)
        buffer.push(_transition(1.0))
        wider = Transition(
            state=np.zeros(5), action=0, reward=0.0, next_state=np.zeros(5), done=False
        )
        with pytest.raises(ValueError, match="state shape"):
            buffer.push(wider)
        ragged = Transition(
            state=np.zeros(4), action=0, reward=0.0, next_state=np.zeros(3), done=False
        )
        with pytest.raises(ValueError, match="next_state shape"):
            buffer.push(ragged)
        assert len(buffer) == 1

    def test_two_dimensional_state_rejected(self, make_buffer):
        buffer = make_buffer(8)
        flat = Transition(
            state=np.zeros((2, 2)), action=1, reward=0.0, next_state=None, done=True
        )
        with pytest.raises(ValueError, match="1-D"):
            buffer.push(flat)
        assert len(buffer) == 0
