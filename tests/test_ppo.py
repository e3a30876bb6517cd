import numpy as np
import pytest

from planarmimic.discriminator import (DiscriminatorConfig, build_discriminator,
                                       raw_score)
from planarmimic.nets import ForwardCache, MlpNet, OptimizerState
from planarmimic.ppo import (ACTION_DIM, GaussianPolicy, OBS_NOISE_TEMPLATE,
                             POLICY_FRAME_DIM, POLICY_FRAMES, POLICY_OBS_DIM,
                             PpoConfig, RolloutBuffer, RolloutCollector,
                             adaptive_lr, gae_advantages, ppo_update)
from planarmimic.rewards import (STATS_WARMUP, ImitationReward, RewardWeights,
                                 RunningStats, regularization_reward,
                                 termination_penalty, total_reward)
from planarmimic.sim import PlanarEnv, SimParams

from test_nets import assert_views_of


def gae_direct_sum(rewards, values, dones, bootstrap, gamma, lam):
    """Literal definition: A_t = sum_k (gamma lam)^k delta_{t+k}, with the
    product of continuation masks cutting the sum at episode ends."""
    T = len(rewards)
    next_values = list(values[1:]) + [bootstrap]
    deltas = [rewards[t] + gamma * next_values[t] * (1 - dones[t]) - values[t]
              for t in range(T)]
    adv = np.zeros(T)
    for t in range(T):
        total, mask = 0.0, 1.0
        for k in range(t, T):
            total += (gamma * lam) ** (k - t) * mask * deltas[k]
            mask *= 1.0 - dones[k]
            if mask == 0.0:
                break
        adv[t] = total
    return adv


class TestGae:
    def test_single_step(self):
        adv, ret = gae_advantages(np.array([[1.0]]), np.array([[0.0]]),
                                  np.array([[0.0]]), np.array([0.0]), 1.0, 1.0)
        assert adv[0, 0] == pytest.approx(1.0)
        assert ret[0, 0] == pytest.approx(1.0)

    def test_lambda_zero_is_td_residual(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=(6, 1))
        v = rng.normal(size=(6, 1))
        d = np.zeros((6, 1))
        boot = rng.normal(size=1)
        adv, _ = gae_advantages(r, v, d, boot, 0.97, 0.0)
        next_v = np.vstack([v[1:], boot[None, :]])
        expected = r + 0.97 * next_v - v
        assert np.allclose(adv, expected, atol=1e-12)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(7)
        for seed in range(1000):
            srng = np.random.default_rng(seed)
            T = int(srng.integers(1, 11))
            r = srng.normal(size=T)
            v = srng.normal(size=T)
            d = (srng.random(T) < 0.25).astype(float)
            boot = float(srng.normal())
            gamma = float(srng.uniform(0.5, 1.0))
            lam = float(srng.uniform(0.0, 1.0))
            adv, ret = gae_advantages(r[:, None], v[:, None], d[:, None],
                                      np.array([boot]), gamma, lam)
            oracle = gae_direct_sum(r, v, d, boot, gamma, lam)
            assert np.allclose(adv[:, 0], oracle, atol=1e-12)
            assert np.allclose(ret[:, 0], oracle + v, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gae_advantages(np.zeros((3, 1)), np.zeros((4, 1)), np.zeros((3, 1)),
                           np.zeros(1), 0.99, 0.95)


class TestAdaptiveLr:
    def test_shrinks_on_overshoot(self):
        assert adaptive_lr(3e-4, 0.03, 0.01) == pytest.approx(2e-4)

    def test_grows_when_timid(self):
        assert adaptive_lr(3e-4, 0.004, 0.01) == pytest.approx(4.5e-4)

    def test_unchanged_in_band(self):
        assert adaptive_lr(3e-4, 0.01, 0.01) == pytest.approx(3e-4)

    def test_clamped(self):
        assert adaptive_lr(1e-2, 1e-9, 0.01) == 1e-2
        assert adaptive_lr(1.2e-7, 10.0, 0.01) == pytest.approx(1e-7)


def tiny_setup(seed=0, loss="wgan", num_envs=4, steps=8, horizon=2):
    sim = SimParams()
    ppo_cfg = PpoConfig(num_envs=num_envs, steps_per_iter=steps,
                        hidden_sizes=(16, 16), learning_rate=5e-4)
    disc_cfg = DiscriminatorConfig(loss_kind=loss, horizon=horizon,
                                   hidden_sizes=(16, 8))
    weights = RewardWeights(w_imitation=1.0)
    rng = np.random.default_rng(seed)
    policy = GaussianPolicy(MlpNet.create(
        [POLICY_OBS_DIM, 16, 16, ACTION_DIM], activation="elu", rng=rng,
        output_gain=0.01))
    value_net = MlpNet.create([POLICY_OBS_DIM, 16, 16, 1], activation="elu",
                              rng=rng)
    disc = build_discriminator(disc_cfg, rng)
    env = PlanarEnv(sim, num_envs=num_envs, seed=seed)
    collector = RolloutCollector(env, disc_cfg, ppo_cfg, weights, seed=seed)
    imitation = ImitationReward(loss, RunningStats())
    return collector, policy, value_net, disc, imitation, ppo_cfg


def oracle_collect(collector, policy, value_net, disc_net, imitation):
    """The step-by-step collection ``collect`` replaced, the slow oracle of
    its batched passes: every noise draw, forward and reward term inside the
    step loop, one step at a time, with the imitation reward written out. It
    reads and advances the collector's state (env, history, windows,
    generators) and the statistics of ``imitation`` as ``collect`` does."""
    cfg, disc_cfg, weights = collector.ppo_cfg, collector.disc_cfg, collector.weights
    env, hist, rngs = collector.env, collector.history, collector.action_rngs
    E, T = env.num_envs, cfg.steps_per_iter
    shp = (T, E)
    buf = RolloutBuffer(
        obs=np.zeros((T, E, POLICY_OBS_DIM)), actions=np.zeros((T, E, ACTION_DIM)),
        log_probs=np.zeros(shp), values=np.zeros(shp), rewards=np.zeros(shp),
        dones=np.zeros(shp, dtype=bool), windows=np.zeros((T, E, disc_cfg.input_dim)),
        bootstrap_value=np.zeros(E), scores=np.zeros(shp), r_imitation=np.zeros(shp),
        r_regularization=np.zeros(shp), r_termination=np.zeros(shp))

    def disc_frame():
        feats = env.observation_features()
        if disc_cfg.full_state:
            feats = np.concatenate([feats, env.q, env.qd], axis=1)
        return feats

    def policy_obs():
        return np.concatenate([hist.prev_frame, hist.cur_frame], axis=1)

    for t in range(T):
        obs = policy_obs()
        if cfg.obs_noise > 0:
            for i in range(E):
                eps = rngs[i].standard_normal(POLICY_FRAME_DIM * POLICY_FRAMES)
                obs[i] += cfg.obs_noise * np.tile(OBS_NOISE_TEMPLATE, POLICY_FRAMES) * eps
        noise = np.stack([rngs[i].standard_normal(ACTION_DIM) for i in range(E)])
        mean, _ = policy.net.forward(obs)
        actions = mean + np.exp(policy.log_std) * noise
        logp = policy.log_prob(mean, actions)
        values, _ = value_net.forward(obs)

        result = env.step(actions)
        windows = collector.window_buf.push(disc_frame())
        scores = raw_score(disc_net, windows)
        stats = imitation.stats
        if disc_cfg.loss_kind == "lsgan":
            r_imit = np.maximum(0.0, 1.0 - 0.25 * (scores - 1.0) ** 2)
        else:
            r_imit = (np.zeros(E) if stats.count < STATS_WARMUP
                      else (scores - stats.mean) / stats.std)
            for v in scores:
                stats.update(v)
        r_term = termination_penalty(result.terminal, weights.gamma)
        r_reg = regularization_reward(
            actions, hist.prev_action, env.qd, hist.prev_joint_vel,
            result.joint_torques, env.om, env.params.control_dt, weights)
        rewards = total_reward(r_imit, r_term, r_reg, weights.w_imitation)

        dones = result.terminal | result.timeout
        buf.obs[t] = obs
        buf.actions[t] = actions
        buf.log_probs[t] = logp
        buf.values[t] = values[:, 0]
        buf.rewards[t] = rewards
        buf.dones[t] = dones
        buf.windows[t] = windows
        buf.scores[t] = scores
        buf.r_imitation[t] = r_imit
        buf.r_regularization[t] = r_reg
        buf.r_termination[t] = r_term

        buf.termination_count += int(result.terminal.sum())
        if dones.any():
            for i in np.nonzero(dones)[0]:
                buf.episode_lengths.append(int(env.steps[i]))
            env.reset_rows(dones)
            hist.reset_rows(dones)
            collector.window_buf.reset_rows(dones, disc_frame())
        live = ~dones
        hist.prev_action[live] = actions[live]
        hist.prev_joint_vel[live] = env.qd[live]
        hist.prev_frame[live] = hist.cur_frame[live]
        hist.cur_frame[live] = hist.frame()[live]

    final_values, _ = value_net.forward(policy_obs())
    buf.bootstrap_value = final_values[:, 0]
    return buf


BUFFER_ARRAYS = ("obs", "actions", "log_probs", "values", "rewards", "dones",
                 "windows", "bootstrap_value", "scores", "r_imitation",
                 "r_regularization", "r_termination")


class TestCollectMatchesOracle:
    @staticmethod
    def setup(loss, obs_noise, full_state):
        # the desk config's shapes, at which a product over all T * E rows at
        # once would round differently from the per-step products
        ppo_cfg = PpoConfig(num_envs=16, steps_per_iter=24, obs_noise=obs_noise)
        disc_cfg = DiscriminatorConfig(loss_kind=loss, horizon=2,
                                       full_state=full_state)
        rng = np.random.default_rng(17)
        # a flailing policy falls at row-dependent steps
        policy = GaussianPolicy(MlpNet.create([POLICY_OBS_DIM, 64, 64, ACTION_DIM],
                                              rng=rng, output_gain=0.3))
        value_net = MlpNet.create([POLICY_OBS_DIM, 64, 64, 1], rng=rng)
        disc = build_discriminator(disc_cfg, rng)
        env = PlanarEnv(SimParams(), num_envs=16, seed=17)
        collector = RolloutCollector(env, disc_cfg, ppo_cfg, RewardWeights(), seed=17)
        # more resets in mid-rollout: row 2 starts in a crashing attitude,
        # and row 1's episode clock runs out three steps in
        env.pitch[2], env.z[2] = np.pi / 2 + 0.4, 0.25
        env.time[1] = env.params.max_episode_time - 0.05
        return collector, policy, value_net, disc, ImitationReward(loss, RunningStats())

    @pytest.mark.parametrize("loss", ["wgan", "lsgan"])
    @pytest.mark.parametrize("obs_noise", [0.0, 0.5])
    @pytest.mark.parametrize("full_state", [False, True])
    def test_bytes_equal_to_step_by_step_collection(self, loss, obs_noise, full_state):
        fast = self.setup(loss, obs_noise, full_state)
        slow = self.setup(loss, obs_noise, full_state)
        lengths, terminations = [], 0
        # the first rollout's 384 windows take the wgan statistics past warmup
        for _ in range(3):
            got = fast[0].collect(*fast[1:])
            want = oracle_collect(slow[0], *slow[1:])
            for name in BUFFER_ARRAYS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name
            assert got.episode_lengths == want.episode_lengths
            assert got.termination_count == want.termination_count
            lengths += got.episode_lengths
            terminations += got.termination_count
            assert fast[4].stats == slow[4].stats
            assert fast[0].state_dict() == slow[0].state_dict()
            assert fast[0].env.state_dict() == slow[0].env.state_dict()
        assert 3 in lengths and len(lengths) >= 3 and terminations >= 2
        if loss == "wgan":
            assert fast[4].stats.count >= STATS_WARMUP
            assert np.any(got.r_imitation != 0.0)


class TestCollector:
    def test_fixed_seed_bit_identical(self):
        a = tiny_setup(seed=3)
        b = tiny_setup(seed=3)
        buf_a = a[0].collect(*a[1:5])
        buf_b = b[0].collect(*b[1:5])
        assert np.array_equal(buf_a.obs, buf_b.obs)
        assert np.array_equal(buf_a.actions, buf_b.actions)
        assert np.array_equal(buf_a.rewards, buf_b.rewards)
        assert np.array_equal(buf_a.windows, buf_b.windows)

    def test_zero_imitation_weight_leaves_regularization(self):
        collector, policy, value_net, disc, imitation, _ = tiny_setup(seed=5)
        collector.weights = RewardWeights(w_imitation=0.0)
        buf = collector.collect(policy, value_net, disc, imitation)
        assert np.allclose(buf.rewards, buf.r_regularization)

    def test_termination_penalty_scaled_by_imitation_weight(self):
        collector, policy, value_net, disc, imitation, _ = tiny_setup(seed=6)
        w = RewardWeights(w_imitation=2.0)
        collector.weights = w
        # Drop every env into a crashing attitude so terminations occur.
        collector.env.pitch[:] = np.pi / 2 + 0.4
        collector.env.z[:] = 0.25
        buf = collector.collect(policy, value_net, disc, imitation)
        assert buf.termination_count > 0
        t, e = np.nonzero(buf.r_termination < 0)
        expected = -5.0 / (1.0 - w.gamma)
        assert np.allclose(buf.r_termination[t, e], expected)
        contribution = buf.rewards[t, e] - buf.r_regularization[t, e]
        assert np.allclose(contribution,
                           w.w_imitation * (buf.r_imitation[t, e] + expected))

    def test_buffer_shapes(self):
        collector, policy, value_net, disc, imitation, cfg = tiny_setup(steps=8, num_envs=4)
        buf = collector.collect(policy, value_net, disc, imitation)
        assert buf.obs.shape == (8, 4, POLICY_OBS_DIM)
        assert buf.windows.shape == (8, 4, collector.disc_cfg.input_dim)
        assert buf.size == 32
        assert buf.bootstrap_value.shape == (4,)

    def test_lsgan_rewards_bounded(self):
        collector, policy, value_net, disc, imitation, _ = tiny_setup(seed=8, loss="lsgan")
        buf = collector.collect(policy, value_net, disc, imitation)
        assert np.all(buf.r_imitation >= 0.0)
        assert np.all(buf.r_imitation <= 1.0)

    def test_wgan_stats_updated_from_policy_scores_only(self):
        collector, policy, value_net, disc, imitation, _ = tiny_setup(seed=9)
        buf = collector.collect(policy, value_net, disc, imitation)
        assert imitation.stats.count == buf.size

    def test_windows_prefilled_after_reset(self):
        collector, policy, value_net, disc, imitation, _ = tiny_setup(horizon=4)
        win = collector.window_buf.state()
        for k in range(1, 4):
            assert np.array_equal(win[:, 0], win[:, k])


class TestPpoUpdate:
    def _buffer(self, collector, policy, value_net, disc, imitation):
        return collector.collect(policy, value_net, disc, imitation)

    def _opts(self, policy, value_net, lr):
        return (OptimizerState.for_params(policy.flat, "adam", lr),
                OptimizerState.for_params(value_net.flat, "adam", lr))

    def test_lr_zero_changes_nothing(self):
        collector, policy, value_net, disc, imitation, cfg = tiny_setup(seed=11)
        buf = self._buffer(collector, policy, value_net, disc, imitation)
        p_opt, v_opt = self._opts(policy, value_net, 0.0)
        before_p = policy.flat.copy()
        before_v = value_net.flat.copy()
        ppo_update(policy, value_net, buf, cfg, p_opt, v_opt,
                   np.random.default_rng(0))
        assert np.array_equal(policy.flat, before_p)
        assert np.array_equal(value_net.flat, before_v)

    def test_identical_policy_has_unit_ratio(self):
        collector, policy, value_net, disc, imitation, cfg = tiny_setup(seed=12)
        buf = self._buffer(collector, policy, value_net, disc, imitation)
        # ratio of fresh logp to stored logp is exactly 1 before any step
        mean, _ = policy.net.forward(buf.obs.reshape(buf.size, -1))
        logp = policy.log_prob(mean, buf.actions.reshape(buf.size, -1))
        assert np.allclose(logp, buf.log_probs.reshape(-1), atol=1e-12)

    def test_update_reports_finite_stats(self):
        collector, policy, value_net, disc, imitation, cfg = tiny_setup(seed=13)
        buf = self._buffer(collector, policy, value_net, disc, imitation)
        p_opt, v_opt = self._opts(policy, value_net, cfg.learning_rate)
        stats = ppo_update(policy, value_net, buf, cfg, p_opt, v_opt,
                           np.random.default_rng(1))
        assert not stats.aborted
        assert np.isfinite(stats.kl)
        assert 0.0 <= stats.clip_fraction <= 1.0

    def test_kl_stays_bounded_after_single_update(self):
        # health check over 5 seeds: one update at the default rate keeps
        # the measured divergence under 5x the target
        for seed in range(5):
            collector, policy, value_net, disc, imitation, cfg = tiny_setup(seed=20 + seed)
            buf = self._buffer(collector, policy, value_net, disc, imitation)
            p_opt, v_opt = self._opts(policy, value_net, cfg.learning_rate)
            stats = ppo_update(policy, value_net, buf, cfg, p_opt, v_opt,
                               np.random.default_rng(seed))
            assert stats.kl < 5 * cfg.kl_target

    def test_advantage_shift_invariance_after_normalization(self):
        # adding a constant to all rewards shifts advantages by a constant;
        # per-batch normalization makes the resulting update identical up to
        # the value-function branch, so freeze it by comparing policy grads
        collector, policy, value_net, disc, imitation, cfg = tiny_setup(seed=14)
        buf = self._buffer(collector, policy, value_net, disc, imitation)

        import copy
        buf2 = copy.deepcopy(buf)
        # shift advantages directly: add c * (1, gamma-discount-free) via
        # rewards is messy; instead verify normalized advantages directly
        from planarmimic.ppo import gae_advantages as gae
        adv1, _ = gae(buf.rewards, buf.values, buf.dones, buf.bootstrap_value,
                      cfg.gamma, cfg.gae_lambda)
        adv2 = adv1 + 3.7
        n1 = (adv1 - adv1.mean()) / (adv1.std() + 1e-8)
        n2 = (adv2 - adv2.mean()) / (adv2.std() + 1e-8)
        assert np.allclose(n1, n2, atol=1e-9)

    def test_aborts_on_nonfinite_rewards(self):
        collector, policy, value_net, disc, imitation, cfg = tiny_setup(seed=15)
        buf = self._buffer(collector, policy, value_net, disc, imitation)
        buf.rewards[0, 0] = np.nan
        p_opt, v_opt = self._opts(policy, value_net, cfg.learning_rate)
        before = policy.flat.copy()
        stats = ppo_update(policy, value_net, buf, cfg, p_opt, v_opt,
                           np.random.default_rng(2))
        assert stats.aborted
        assert np.array_equal(policy.flat, before)

    def test_abort_mid_update_restores_both_nets(self):
        # a non-finite observation in the last minibatch of the first epoch:
        # the earlier minibatches have stepped both nets, which must roll back
        collector, policy, value_net, disc, imitation, cfg = tiny_setup(seed=16)
        buf = self._buffer(collector, policy, value_net, disc, imitation)
        order = np.random.default_rng(3).permutation(buf.size)
        assert order[-1] not in np.array_split(order, cfg.minibatches)[0]
        buf.obs.reshape(buf.size, -1)[order[-1], 0] = np.nan
        p_opt, v_opt = self._opts(policy, value_net, cfg.learning_rate)
        before_p, before_v = policy.flat.copy(), value_net.flat.copy()
        stats = ppo_update(policy, value_net, buf, cfg, p_opt, v_opt,
                           np.random.default_rng(3))
        assert stats.aborted
        assert p_opt.step_count == v_opt.step_count == cfg.minibatches - 1
        assert np.array_equal(policy.flat, before_p)
        assert np.array_equal(value_net.flat, before_v)

    def test_kept_arrays_give_the_fresh_arrays_update(self):
        # two updates with the caches and value gradient kept across them
        # step both nets as two updates with new ones do, byte for byte
        runs = []
        for keep in (False, True):
            collector, policy, value_net, disc, imitation, cfg = tiny_setup(seed=17)
            p_opt, v_opt = self._opts(policy, value_net, cfg.learning_rate)
            rng = np.random.default_rng(4)
            kept = (ForwardCache(), ForwardCache(), np.empty_like(value_net.flat))
            for _ in range(2):
                buf = self._buffer(collector, policy, value_net, disc, imitation)
                ppo_update(policy, value_net, buf, cfg, p_opt, v_opt, rng,
                           *(kept if keep else ()))
            runs.append((policy.flat.tobytes(), value_net.flat.tobytes()))
        assert runs[0] == runs[1]
        pol_cache, val_cache, val_grad = kept
        # the kept vector holds the last minibatch's value gradient
        assert np.any(val_grad != 0.0)
        assert pol_cache.x is not None and val_cache.x is not None

    def test_clipped_ratio_kills_gradient(self):
        # crafted single-sample check of the clip rule
        cfg = PpoConfig(clip=0.2)
        ratio = 1.5
        adv = 1.0
        unclipped = ratio * adv
        clipped = np.clip(ratio, 0.8, 1.2) * adv
        assert min(unclipped, clipped) == pytest.approx(1.2)
        # the active branch is the clipped one: no gradient through ratio
        assert (unclipped <= clipped) is np.False_


class TestPolicyHead:
    def test_log_prob_matches_scipy_style_formula(self):
        rng = np.random.default_rng(0)
        policy = GaussianPolicy(MlpNet.create([3, 8, 2], rng=rng),
                                init_log_std=-0.3)
        mean = rng.normal(size=(5, 2))
        actions = rng.normal(size=(5, 2))
        logp = policy.log_prob(mean, actions)
        std = np.exp(policy.log_std)
        expected = -0.5 * (((actions - mean) / std) ** 2).sum(axis=1) \
            - np.log(std).sum() - np.log(2 * np.pi)
        assert np.allclose(logp, expected, atol=1e-12)

    def test_entropy_closed_form(self):
        rng = np.random.default_rng(1)
        policy = GaussianPolicy(MlpNet.create([3, 8, 2], rng=rng),
                                init_log_std=0.5)
        expected = 2 * 0.5 + 0.5 * 2 * (np.log(2 * np.pi) + 1)
        assert policy.entropy() == pytest.approx(expected)

    def test_one_vector_net_then_log_std(self):
        net = MlpNet.create([3, 8, 2], rng=np.random.default_rng(3))
        policy = GaussianPolicy(net, log_std=[0.1, -0.2])
        assert np.array_equal(policy.flat, np.concatenate([net.flat, [0.1, -0.2]]))
        assert policy.shapes == net.shapes + [(2,)]
        assert_views_of(policy.flat, policy.net.weights + policy.net.biases
                        + [policy.net.flat, policy.log_std])
        assert not np.shares_memory(policy.flat, net.flat)
