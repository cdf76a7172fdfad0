"""Tests for the mitigation replay environment."""

import numpy as np
import pytest

from repro.core.environment import MitigationEnv
from repro.core.features import NodeFeatureTrack, N_FEATURES, StateNormalizer
from repro.core.mdp import Action
from repro.utils.timeutils import HOUR
from repro.workload.job import JobLog, JobRecord
from repro.workload.sampling import JobSequenceSampler


def _track(node, times, is_ue):
    times = np.asarray(times, dtype=float)
    return NodeFeatureTrack(
        node=node,
        times=times,
        features=np.tile(np.arange(N_FEATURES, dtype=float), (len(times), 1)),
        is_ue=np.asarray(is_ue, dtype=bool),
    )


@pytest.fixture()
def constant_job_sampler():
    # A single job type (4 nodes, 100 hours) so costs are easy to predict.
    log = JobLog.from_records(
        [JobRecord(submit=0, start=0, end=100 * HOUR, n_nodes=4, job_id=0)]
    )
    return JobSequenceSampler(log, seed=0)


@pytest.fixture()
def simple_env(constant_job_sampler):
    tracks = {
        0: _track(0, [HOUR, 2 * HOUR, 3 * HOUR, 4 * HOUR], [False, False, False, True]),
        1: _track(1, [HOUR, 5 * HOUR], [False, False]),
    }
    return MitigationEnv(
        tracks,
        constant_job_sampler,
        mitigation_cost=2 / 60.0,
        restartable=True,
        t_start=0.0,
        t_end=6 * HOUR,
        seed=3,
    )


class TestReset:
    def test_reset_returns_state_of_right_dim(self, simple_env):
        state = simple_env.reset()
        assert state.shape == (simple_env.state_dim,)

    def test_reset_specific_node(self, simple_env):
        state = simple_env.reset(node=0)
        assert state is not None

    def test_reset_unknown_node_rejected(self, simple_env):
        with pytest.raises(ValueError):
            simple_env.reset(node=99)

    def test_requires_decision_points(self, constant_job_sampler):
        tracks = {0: _track(0, [HOUR], [True])}
        with pytest.raises(ValueError):
            MitigationEnv(tracks, constant_job_sampler, mitigation_cost=0.033)


class TestStep:
    def test_episode_terminates_on_ue_with_cost(self, simple_env):
        simple_env.reset(node=0)
        total_reward = 0.0
        done = False
        steps = 0
        while not done:
            _, reward, done, info = simple_env.step(Action.NO_MITIGATION)
            total_reward += reward
            steps += 1
        assert steps == 3
        assert info["ue_occurred"]
        # The job started before the first event; with no mitigation the UE
        # at t=4h costs 4 nodes x (4h - job_start)/1h >= 16 node-hours.
        assert info["ue_cost"] >= 16.0 - 1e-6
        assert total_reward == pytest.approx(-info["ue_cost"])

    def test_mitigation_reduces_ue_cost(self, simple_env):
        # Mitigate at every step: the UE cost is only the time since the last
        # event (1 hour on a 4-node job) plus the mitigation costs.
        simple_env.reset(node=0)
        done = False
        total_mitigations = 0
        while not done:
            _, reward, done, info = simple_env.step(Action.MITIGATE)
            total_mitigations += 1
        assert info["ue_cost"] == pytest.approx(4.0, rel=1e-6)
        summary = simple_env.episode_summary()
        assert summary.n_mitigations == total_mitigations == 3
        assert summary.mitigation_cost == pytest.approx(3 * 2 / 60.0)

    def test_episode_without_ue_ends_cleanly(self, simple_env):
        simple_env.reset(node=1)
        _, reward, done, info = simple_env.step(Action.NO_MITIGATION)
        assert not done
        _, reward, done, info = simple_env.step(Action.NO_MITIGATION)
        assert done
        assert not info["ue_occurred"]
        assert reward == 0.0

    def test_non_restartable_mitigation_does_not_reset_cost(self, constant_job_sampler):
        tracks = {0: _track(0, [HOUR, 2 * HOUR, 3 * HOUR], [False, False, True])}
        env = MitigationEnv(
            tracks,
            constant_job_sampler,
            mitigation_cost=2 / 60.0,
            restartable=False,
            t_start=0.0,
            t_end=4 * HOUR,
            seed=1,
        )
        env.reset(node=0)
        env.step(Action.MITIGATE)
        _, reward, done, info = env.step(Action.MITIGATE)
        assert done
        # Despite mitigating, the full cost since job start is lost.
        assert info["ue_cost"] >= 4 * 3.0 - 1e-6

    def test_zero_cost_ue_is_reported_in_summary(self, constant_job_sampler):
        # Mitigating (restartable) at the UE's own timestamp makes its potential
        # cost zero; the summary must still count the UE that ended the episode.
        env = MitigationEnv(
            {0: _track(0, [HOUR, HOUR], [False, True])},
            constant_job_sampler,
            mitigation_cost=2 / 60.0,
            restartable=True,
            t_start=0.0,
            t_end=2 * HOUR,
            seed=0,
        )
        env.reset(node=0)
        _, _, done, info = env.step(Action.MITIGATE)
        assert done and info["ue_occurred"] and info["ue_cost"] == 0.0
        assert info["episode"].ue_occurred
        assert env.episode_summary().ue_occurred

    def test_invalid_action_rejected(self, simple_env):
        simple_env.reset(node=0)
        with pytest.raises(ValueError):
            simple_env.step(5)

    def test_step_before_reset_raises(self, simple_env):
        env = simple_env
        env._episode = None
        with pytest.raises(RuntimeError):
            env.step(0)


class TestRealisticEnvironment:
    def test_runs_on_generated_data(self, feature_tracks, job_sampler):
        env = MitigationEnv(
            feature_tracks,
            job_sampler,
            mitigation_cost=2 / 60.0,
            seed=9,
        )
        for _ in range(5):
            state = env.reset()
            done = False
            steps = 0
            while not done and steps < 500:
                state, reward, done, info = env.step(steps % 2)
                steps += 1
                assert reward <= 0.0
            summary = env.episode_summary()
            assert summary.n_steps == steps

    def test_state_is_normalised(self, feature_tracks, job_sampler, normalizer):
        env = MitigationEnv(
            feature_tracks, job_sampler, mitigation_cost=0.033, normalizer=normalizer, seed=1
        )
        state = env.reset()
        assert np.all(np.isfinite(state))
        assert state.shape == (normalizer.state_dim,)
