import tracemalloc

import numpy as np
import pytest

from planarmimic.discriminator import (DiscriminatorConfig, build_discriminator,
                                       discriminator_loss,
                                       pad_windows_full_state, raw_score)
from planarmimic.nets import ForwardCache, MlpNet, OptimizerState, optimizer_step
from planarmimic.rewards import ImitationReward, RunningStats

from test_nets import fd_param_gradient, rand_net, rel_err, FD_RTOL


def small_cfg(**kwargs):
    defaults = dict(horizon=2, hidden_sizes=(8, 6), w_loss=0.5, w_gp=5.0)
    defaults.update(kwargs)
    return DiscriminatorConfig(**defaults)


# one layer has no hidden activation: these nets are affine maps
def constant_net(input_dim, value):
    net = MlpNet([input_dim, 1], activation="relu")
    net.biases[0][0] = value
    return net


def linear_net(w):
    w = np.asarray(w, dtype=np.float64)
    net = MlpNet([w.size, 1], activation="relu")
    net.weights[0][0] = w
    return net


def input_gradient_norm2(net, window):
    """Squared norm of d(score)/d(input) at one window: the penalty value of
    ``input_gradient_norm_grads`` at ``coef=1``."""
    _, cache = net.forward(np.asarray(window, dtype=np.float64)[None, :])
    return net.input_gradient_norm_grads(cache)[0]


class TestLossArithmetic:
    def test_wgan_constant_discriminator_is_zero(self):
        net = constant_net(12, 3.3)
        cfg = small_cfg(w_gp=0.0)
        rng = np.random.default_rng(0)
        res = discriminator_loss(net, rng.normal(size=(5, 12)), rng.normal(size=(7, 12)), cfg)
        assert res.total == pytest.approx(0.0, abs=1e-12)

    def test_wgan_separated_batches(self):
        # D(ref)=1, D(pol)=0 -> loss = 0.5 * (-1 + 0) = -0.5
        net = linear_net([1.0] + [0.0] * 11)
        cfg = small_cfg(w_gp=0.0)
        ref = np.zeros((4, 12)); ref[:, 0] = 1.0
        pol = np.zeros((4, 12))
        res = discriminator_loss(net, ref, pol, cfg)
        assert res.total == pytest.approx(-0.5)

    def test_wgan_gradient_penalty_of_linear_map(self):
        w = np.array([1.0, -2.0, 0.5, 3.0])
        net = linear_net(w)
        cfg = DiscriminatorConfig(horizon=1, w_loss=0.5, w_gp=5.0)
        ref = np.random.default_rng(1).normal(size=(6, 4))
        pol = np.random.default_rng(2).normal(size=(6, 4))
        res = discriminator_loss(net, ref, pol, cfg)
        assert res.gp_term == pytest.approx(5.0 * float(w @ w))

    def test_lsgan_global_minimum(self):
        # crafted: D(x) = x[0], ref batches have x0=1, pol batches x0=-1
        net = linear_net([1.0] + [0.0] * 5)
        cfg = small_cfg(loss_kind="lsgan", w_gp=0.0)
        ref = np.zeros((3, 6)); ref[:, 0] = 1.0
        pol = np.zeros((3, 6)); pol[:, 0] = -1.0
        res = discriminator_loss(net, ref, pol, cfg)
        assert res.total == pytest.approx(0.0, abs=1e-12)

    def test_lsgan_zero_discriminator(self):
        net = constant_net(6, 0.0)
        res = discriminator_loss(net, np.zeros((3, 6)), np.zeros((3, 6)),
                                 small_cfg(loss_kind="lsgan", w_gp=0.0))
        assert res.total == pytest.approx(2.0)

    def test_lsgan_asymmetric_outputs(self):
        net = constant_net(6, 3.0)
        ref = np.zeros((3, 6))
        pol_net_value = constant_net(6, 0.0)
        # D(ref)=3 via constant net; for D(pol)=0 use a second evaluation
        res_ref_side = discriminator_loss(net, ref, ref,
                                          small_cfg(loss_kind="lsgan", w_gp=0.0))
        # (3-1)^2 + (3+1)^2 = 20 when both batches score 3
        assert res_ref_side.total == pytest.approx(20.0)
        # direct arithmetic of the documented example: (3-1)^2 + (0+1)^2 = 5
        assert (3 - 1) ** 2 + (0 + 1) ** 2 == 5

    def test_mismatched_window_size_rejected(self):
        net = constant_net(12, 0.0)
        with pytest.raises(ValueError, match="expected"):
            discriminator_loss(net, np.zeros((2, 10)), np.zeros((2, 12)), small_cfg())

    def test_single_window_rejected(self):
        # one window is a batch of one, (1, D), never a bare (D,) vector
        net = constant_net(12, 0.0)
        with pytest.raises(ValueError, match="expected"):
            discriminator_loss(net, np.zeros(12), np.zeros((2, 12)), small_cfg())
        with pytest.raises(ValueError, match="expected"):
            discriminator_loss(net, np.zeros((2, 12)), np.zeros((1, 2, 12)), small_cfg())

    def test_empty_batch_rejected(self):
        net = constant_net(12, 0.0)
        with pytest.raises(ValueError, match="non-empty"):
            discriminator_loss(net, np.zeros((0, 12)), np.zeros((2, 12)), small_cfg())

    def test_unknown_loss_kind_rejected(self):
        net = constant_net(12, 0.0)
        with pytest.raises(ValueError, match="unknown loss kind"):
            discriminator_loss(net, np.zeros((2, 12)), np.zeros((2, 12)),
                               small_cfg(loss_kind="hinge"))


def separate_kind_loss(net, ref, pol, cfg):
    """The per-kind losses as two functions computed them before they were
    merged: the oracle for the merged arithmetic, bit for bit."""
    y_ref, cache_ref = net.forward(ref)
    y_pol, cache_pol = net.forward(pol)
    if cfg.loss_kind == "wgan":
        main = cfg.w_loss * (-float(y_ref.mean()) + float(y_pol.mean()))
        grads = net.backward(cache_ref, np.full_like(y_ref, -cfg.w_loss / ref.shape[0]))
        grads += net.backward(cache_pol, np.full_like(y_pol, cfg.w_loss / pol.shape[0]))
    else:
        res_ref = y_ref - 1.0
        res_pol = y_pol + 1.0
        main = float((res_ref ** 2).mean()) + float((res_pol ** 2).mean())
        grads = net.backward(cache_ref, 2.0 * res_ref / ref.shape[0])
        grads += net.backward(cache_pol, 2.0 * res_pol / pol.shape[0])
    gp_value, flat = 0.0, grads
    if cfg.w_gp != 0.0:
        gp_value, gp = net.input_gradient_norm_grads(cache_ref, coef=cfg.w_gp / ref.shape[0])
        flat = flat + gp
    return main + gp_value, main, gp_value, flat


@pytest.mark.parametrize("loss_kind", ["wgan", "lsgan"])
@pytest.mark.parametrize("w_gp", [0.0, 5.0])
def test_merged_loss_keeps_each_kind_bit_exact(loss_kind, w_gp):
    rng = np.random.default_rng(17)
    cfg = small_cfg(loss_kind=loss_kind, w_gp=w_gp)
    net = build_discriminator(cfg, rng)
    ref = rng.normal(size=(16, cfg.input_dim))
    pol = rng.normal(size=(11, cfg.input_dim))
    res = discriminator_loss(net, ref, pol, cfg)
    total, main, gp_value, flat = separate_kind_loss(net, ref, pol, cfg)
    assert (res.total, res.main_term, res.gp_term) == (total, main, gp_value)
    assert np.array_equal(res.grads, flat)


def desk_setup(seed):
    """The discriminator, its optimizer and a batch source at the desk
    config's shapes: H=2, hidden (256, 128), minibatches of 64, rmsprop."""
    cfg = DiscriminatorConfig(horizon=2)
    assert (cfg.hidden_sizes, cfg.minibatch_size, cfg.optimizer_kind) == (
        (256, 128), 64, "rmsprop")
    rng = np.random.default_rng(seed)
    net = build_discriminator(cfg, rng)

    def optimizer(params):
        return OptimizerState.for_params(
            params, cfg.optimizer_kind, cfg.learning_rate,
            weight_decay=cfg.weight_decay, momentum=cfg.momentum, rho=cfg.rho)

    def batch(rows=cfg.minibatch_size):
        return rng.normal(size=(rows, cfg.input_dim))

    return cfg, net, optimizer, batch


def disc_step(net, opt, cfg, caches, ref, pol):
    """One discriminator step as the trainer takes it: loss, optimizer step,
    then the post-step reference score, with the (reference, policy) forward
    caches ``caches``."""
    res = discriminator_loss(net, ref, pol, cfg, *caches)
    optimizer_step(opt, net.flat, res.grads)
    return res, float(raw_score(net, ref, caches[0]).mean())


class TestKeptBuffers:
    def test_step_allocates_less_than_one_activation(self):
        # a (64, 256) float64 activation is 128 KiB, the size from which
        # malloc maps fresh pages for every array and unmaps them on free
        cfg, net, optimizer, batch = desk_setup(21)
        opt, caches = optimizer(net.flat), (ForwardCache(), ForwardCache())
        disc_step(net, opt, cfg, caches, batch(), batch())
        ref, pol = batch(), batch()
        tracemalloc.start()
        try:
            disc_step(net, opt, cfg, caches, ref, pol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_kept_until_the_batch_size_changes(self):
        # fewer policy windows than minibatch_size make smaller batches
        cfg, net, optimizer, batch = desk_setup(22)
        fresh_net = MlpNet(net.layer_sizes, net.activation, flat=net.flat.copy())
        opt, fresh_opt = optimizer(net.flat), optimizer(fresh_net.flat)
        ref_cache, pol_cache = ForwardCache(), ForwardCache()
        kept = None
        for rows in (64, 64, 10, 10, 64):
            ref, pol = batch(rows), batch(rows)
            res, score = disc_step(net, opt, cfg, (ref_cache, pol_cache), ref, pol)
            want, want_score = disc_step(fresh_net, fresh_opt, cfg, (None, None),
                                         ref, pol)
            assert (res.total, res.main_term, res.gp_term, score) == (
                want.total, want.main_term, want.gp_term, want_score)
            assert net.flat.tobytes() == fresh_net.flat.tobytes()
            arrays = [res.grads, *opt.scratch, *ref_cache.zs,
                      *ref_cache.activs, *pol_cache.zs, *pol_cache.activs]
            assert pol_cache.zs[0].shape == (rows, 256)
            if kept is not None:
                same = [a is b for a, b in zip(arrays, kept[1])]
                if rows == kept[0]:
                    assert all(same)
                else:   # the caches' arrays are rebuilt, the gradients with
                    # them; the optimizer's scratch follows the parameters
                    assert same[1:3] == [True, True]
                    assert not same[0] and not any(same[3:])
            kept = rows, arrays

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_reference_window_rejects_the_step(self, bad):
        # the penalty's skipped second-order pass would turn an infinity into
        # nan by a product with 0; the kept products carry it as well
        cfg = small_cfg()
        rng = np.random.default_rng(23)
        net = build_discriminator(cfg, rng)
        ref = rng.normal(size=(8, cfg.input_dim))
        ref[3, 5] = bad
        with np.errstate(invalid="ignore"):
            res = discriminator_loss(net, ref, rng.normal(size=(8, cfg.input_dim)), cfg)
        assert not np.all(np.isfinite(res.grads))
        opt = OptimizerState.for_params(net.flat, "rmsprop", learning_rate=0.1)
        before = net.flat.copy()
        with pytest.raises(ValueError, match="non-finite"):
            optimizer_step(opt, net.flat, res.grads)
        assert net.flat.tobytes() == before.tobytes()


class TestInputGradient:
    def test_linear_map_norm(self):
        w = np.array([3.0, 4.0])
        net = linear_net(w)
        assert input_gradient_norm2(net, np.array([5.0, -1.0])) == pytest.approx(25.0)

    def test_constant_net_zero(self):
        net = constant_net(4, 9.0)
        assert input_gradient_norm2(net, np.ones(4)) == pytest.approx(0.0)

    def test_random_relu_net_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        net = rand_net(rng, [5, 9, 7, 1], "relu")
        x = rng.normal(size=5)
        analytic = np.sqrt(input_gradient_norm2(net, x))
        eps = 1e-6
        fd = np.zeros(5)
        for i in range(5):
            hi = x[None].copy(); hi[0, i] += eps
            lo = x[None].copy(); lo[0, i] -= eps
            fd[i] = (raw_score(net, hi)[0] - raw_score(net, lo)[0]) / (2 * eps)
        assert abs(np.linalg.norm(fd) - analytic) / max(analytic, 1e-12) < FD_RTOL


class TestLossGradients:
    @pytest.mark.parametrize("loss_kind", ["wgan", "lsgan"])
    @pytest.mark.parametrize("activation", ["relu"])
    def test_full_loss_gradient_matches_finite_differences(self, loss_kind, activation):
        failures = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            net = rand_net(rng, [4, 6, 5, 1], activation)
            cfg = DiscriminatorConfig(loss_kind=loss_kind, horizon=1,
                                      w_loss=0.5, w_gp=5.0)
            ref = rng.normal(size=(4, 4))
            pol = rng.normal(size=(4, 4))
            analytic = discriminator_loss(net, ref, pol, cfg).grads

            def scalar():
                return discriminator_loss(net, ref, pol, cfg).total

            fd = fd_param_gradient(scalar, net)
            if rel_err(analytic, fd) >= FD_RTOL:
                failures += 1
        assert failures == 0

    def test_gradient_penalty_only_gradient(self):
        # isolate the double-backward: w_loss term removed by equal batches
        rng = np.random.default_rng(55)
        net = rand_net(rng, [3, 7, 1], "relu")
        cfg = DiscriminatorConfig(horizon=1, w_loss=0.5, w_gp=2.0)
        batch = rng.normal(size=(5, 3))
        analytic = discriminator_loss(net, batch, batch, cfg).grads

        def scalar():
            return discriminator_loss(net, batch, batch, cfg).total

        fd = fd_param_gradient(scalar, net)
        assert rel_err(analytic, fd) < FD_RTOL


class TestShiftInvariance:
    @pytest.mark.parametrize("shift", [-10.0, 1.0, 1e3])
    def test_output_bias_shift_cancels_in_main_term(self, shift):
        rng = np.random.default_rng(3)
        cfg = small_cfg()
        net = build_discriminator(cfg, rng)
        ref = rng.normal(size=(64, cfg.input_dim))
        pol = rng.normal(size=(64, cfg.input_dim))
        before = discriminator_loss(net, ref, pol, cfg).main_term
        net.biases[-1][0] += shift
        after = discriminator_loss(net, ref, pol, cfg).main_term
        assert abs(after - before) < 1e-9


class TestRawScore:
    def test_zero_parameter_net_outputs_bias(self):
        net = constant_net(12, 0.7)
        assert raw_score(net, np.ones((1, 12)))[0] == pytest.approx(0.7)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        cfg = small_cfg()
        net = build_discriminator(cfg, rng)
        x = rng.normal(size=(1, cfg.input_dim))
        assert raw_score(net, x)[0] == raw_score(net, x)[0]

    def test_full_state_changes_input_dim(self):
        rng = np.random.default_rng(10)
        base = small_cfg(full_state=False)
        full = small_cfg(full_state=True)
        assert base.input_dim == 2 * 6
        assert full.input_dim == 2 * (6 + 8)
        net = build_discriminator(full, rng)
        windows = rng.normal(size=(3, 2, 6))
        padded = pad_windows_full_state(windows, horizon=2)
        assert padded.shape == (3, full.input_dim)
        scores = raw_score(net, padded)
        assert scores.shape == (3,)


class TestLsganImitationReward:
    reward = ImitationReward("lsgan", RunningStats())

    def test_paper_mapping_points(self):
        assert self.reward(1.0) == pytest.approx(1.0)
        assert self.reward(-1.0) == pytest.approx(0.0)
        assert self.reward(5.0) == pytest.approx(0.0)

    def test_range_and_floor(self):
        scores = np.linspace(-6, 8, 2001)
        rewards = self.reward(scores)
        assert np.all(rewards >= 0.0)
        assert np.all(rewards <= 1.0)
        assert np.all(rewards[scores <= -1.0] == 0.0)
        assert np.all(rewards[scores >= 3.0] == 0.0)
        assert rewards[np.argmin(np.abs(scores - 1.0))] == pytest.approx(1.0)
        # equals 1 only at score == 1
        assert np.count_nonzero(rewards == 1.0) <= 1


class TestMonotoneSeparation:
    def test_wgan_training_separates_fixed_batches(self):
        # linearly separable clusters; after training the mean reference
        # score must exceed the mean policy score for every seed
        cfg = DiscriminatorConfig(horizon=1, hidden_sizes=(16, 8), w_loss=0.5,
                                  w_gp=5.0, weight_decay=1e-3,
                                  learning_rate=1e-3)
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            net = build_discriminator(cfg, rng)
            opt = OptimizerState.for_params(net.flat, "rmsprop",
                                            cfg.learning_rate,
                                            weight_decay=cfg.weight_decay,
                                            momentum=cfg.momentum, rho=cfg.rho)
            ref = rng.normal(size=(64, cfg.input_dim)) + 2.0
            pol = rng.normal(size=(64, cfg.input_dim)) - 2.0
            for _ in range(300):
                res = discriminator_loss(net, ref, pol, cfg)
                optimizer_step(opt, net.flat, res.grads)
            assert raw_score(net, ref).mean() > raw_score(net, pol).mean()
