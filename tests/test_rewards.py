import math

import numpy as np
import pytest

from planarmimic.rewards import (RewardWeights, RunningStats,
                                 handcrafted_backflip_reward,
                                 handcrafted_standup_reward, imitation_reward,
                                 regularization_reward,
                                 termination_penalty, total_reward)


class TestRunningStats:
    def test_two_values(self):
        s = RunningStats()
        s.update(0.0)
        s.update(2.0)
        assert s.mean == pytest.approx(1.0)
        assert s.variance == pytest.approx(1.0)  # population variance

    def test_constant_stream_hits_epsilon_floor(self):
        s = RunningStats(epsilon=1e-6)
        for _ in range(50):
            s.update(3.25)
        assert s.mean == pytest.approx(3.25)
        assert s.std == 1e-6

    def test_monte_carlo_normal_stream(self):
        rng = np.random.default_rng(314)
        s = RunningStats()
        s.update_batch(rng.normal(3.0, 2.0, size=100_000))
        assert abs(s.mean - 3.0) < 0.05
        assert abs(s.std - 2.0) < 0.05

    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=1000) * 5 + 1
        s = RunningStats()
        s.update_batch(values)
        assert s.mean == pytest.approx(values.mean(), rel=1e-12)
        assert s.variance == pytest.approx(values.var(), rel=1e-10)

    def test_non_finite_rejected(self):
        s = RunningStats()
        with pytest.raises(ValueError):
            s.update(math.inf)

    def test_count_monotone(self):
        s = RunningStats()
        for i in range(10):
            assert s.count == i
            s.update(float(i))


class TestImitationReward:
    def _warm_stats(self, mean=5.0, std=1.0, n=5000, seed=0):
        s = RunningStats()
        s.update_batch(np.random.default_rng(seed).normal(mean, std, size=n))
        return s

    def test_score_at_mean_is_zero(self):
        s = self._warm_stats()
        assert imitation_reward(s.mean, s) == pytest.approx(0.0)

    def test_score_one_sigma_above(self):
        s = self._warm_stats()
        assert imitation_reward(s.mean + s.std, s) == pytest.approx(1.0)

    def test_monte_carlo_center(self):
        s = self._warm_stats(mean=5.0, std=1.0)
        assert abs(imitation_reward(5.0, s)) < 0.05

    def test_warmup_returns_zero(self):
        s = RunningStats()
        for _ in range(99):
            s.update(7.0)
        assert imitation_reward(100.0, s) == 0.0
        s.update(7.0)
        assert imitation_reward(100.0, s) != 0.0

    def test_normalization_contract(self):
        # after many updates, fresh samples from the stream normalize to
        # zero mean / unit std
        rng = np.random.default_rng(2718)
        s = RunningStats()
        s.update_batch(rng.normal(-4.0, 3.0, size=20_000))
        fresh = rng.normal(-4.0, 3.0, size=20_000)
        out = imitation_reward(fresh, s)
        assert abs(out.mean()) < 0.1
        assert 0.9 < out.std() < 1.1


class TestTerminationPenalty:
    def test_paper_value(self):
        assert termination_penalty(True, 0.99) == pytest.approx(-500.0)

    def test_non_terminal(self):
        assert termination_penalty(False, 0.99) == 0.0

    def test_gamma_09(self):
        assert termination_penalty(True, 0.9) == pytest.approx(-50.0)

    def test_magnitude_increases_with_gamma(self):
        gammas = np.linspace(0.05, 0.995, 50)
        values = [termination_penalty(True, g) for g in gammas]
        assert all(v < -5.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            termination_penalty(True, 1.0)

    def test_vectorized(self):
        out = termination_penalty(np.array([True, False]), 0.99)
        assert out == pytest.approx([-500.0, 0.0])


class TestRegularization:
    def _weights(self, **kw):
        defaults = dict(w_action_rate=-0.005, w_joint_accel=-1.25e-8,
                        w_joint_torque=-1.25e-6, w_pitch_rate=0.0)
        defaults.update(kw)
        return RewardWeights(**defaults)

    def test_steady_state_is_zero(self):
        w = self._weights()
        a = np.ones(4)
        qd = np.full(4, 2.0)
        out = regularization_reward(a, a, qd, qd, np.zeros(4), 0.0, 0.02, w)
        assert out == 0.0

    def test_action_rate_term(self):
        w = self._weights(w_joint_accel=0.0, w_joint_torque=0.0)
        a = np.array([2.0, 0.0, 0.0, 0.0])   # ||a' - a||^2 = 4
        prev = np.zeros(4)
        out = regularization_reward(a, prev, np.zeros(4), np.zeros(4),
                                    np.zeros(4), 0.0, 0.02, w)
        assert out == pytest.approx(-0.02)

    def test_all_weights_zero(self):
        w = RewardWeights(w_action_rate=0.0, w_joint_accel=0.0,
                          w_joint_torque=0.0, w_pitch_rate=0.0)
        rng = np.random.default_rng(0)
        out = regularization_reward(rng.normal(size=4), rng.normal(size=4),
                                    rng.normal(size=4), rng.normal(size=4),
                                    rng.normal(size=4), rng.normal(), 0.02, w)
        assert out == 0.0

    def test_nonpositive_whenever_weights_nonpositive(self):
        w = self._weights(w_pitch_rate=-0.01)
        rng = np.random.default_rng(42)
        for _ in range(100):
            out = regularization_reward(
                rng.normal(size=4), rng.normal(size=4), rng.normal(size=4),
                rng.normal(size=4), rng.normal(size=4), rng.normal(), 0.02, w)
            assert out <= 0.0

    def test_joint_accel_uses_dt(self):
        w = self._weights(w_action_rate=0.0, w_joint_torque=0.0,
                          w_joint_accel=-1.0)
        qd = np.array([1.0, 0.0, 0.0, 0.0])
        out = regularization_reward(np.zeros(4), np.zeros(4), qd, np.zeros(4),
                                    np.zeros(4), 0.0, 0.02, w)
        assert out == pytest.approx(-(1.0 / 0.02) ** 2)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            regularization_reward(np.zeros(4), np.zeros(4), np.zeros(4),
                                  np.zeros(4), np.zeros(4), 0.0, 0.0,
                                  self._weights())

    def test_batched(self):
        w = self._weights()
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 4))
        prev = rng.normal(size=(5, 4))
        qd = rng.normal(size=(5, 4))
        pqd = rng.normal(size=(5, 4))
        tq = rng.normal(size=(5, 4))
        pr = rng.normal(size=5)
        batch = regularization_reward(a, prev, qd, pqd, tq, pr, 0.02, w)
        for i in range(5):
            single = regularization_reward(a[i], prev[i], qd[i], pqd[i],
                                           tq[i], pr[i], 0.02, w)
            assert batch[i] == pytest.approx(single)


class TestTotalReward:
    def test_pure_imitation(self):
        assert total_reward(1.0, 0.0, 0.0, 4.0) == pytest.approx(4.0)

    def test_terminal_composition(self):
        assert total_reward(0.0, -500.0, -0.1, 1.0) == pytest.approx(-500.1)

    def test_zero_imitation_weight(self):
        assert total_reward(123.0, -500.0, -0.25, 0.0) == pytest.approx(-0.25)

    def test_linearity_by_superposition(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ri1, rt1, rr1, ri2, rt2, rr2 = rng.normal(size=6)
            w = rng.uniform(0.1, 8.0)
            lhs = total_reward(ri1 + ri2, rt1 + rt2, rr1 + rr2, w)
            rhs = total_reward(ri1, rt1, rr1, w) + total_reward(ri2, rt2, rr2, w)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestHandcrafted:
    def test_standup_front_contact(self):
        assert handcrafted_standup_reward(0.0, 0.3, True) == pytest.approx(0.9)

    def test_standup_upright_clear(self):
        expected = math.pi / 2 + 3 * 0.5 + 2.0
        assert handcrafted_standup_reward(math.pi / 2, 0.5, False) == \
            pytest.approx(expected)

    def test_standup_zero_weights(self):
        assert handcrafted_standup_reward(1.0, 1.0, False, (0, 0, 0)) == 0.0

    def test_backflip_full_rotation(self):
        assert handcrafted_backflip_reward(2 * math.pi, True) == \
            pytest.approx(10 * math.pi)

    def test_backflip_airborne_pays_nothing(self):
        assert handcrafted_backflip_reward(2 * math.pi, False) == 0.0

    def test_backflip_zero_angle(self):
        assert handcrafted_backflip_reward(0.0, True) == 0.0
