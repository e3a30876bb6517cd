import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planarmimic.nets import (ACTIVATIONS, ForwardCache, MlpNet, OptimizerState,
                              clip_grad_norm, optimizer_step, orthogonal_init,
                              unflatten)

FD_EPS = 1e-5
FD_RTOL = 1e-4


def rand_net(rng, sizes=None, activation="elu"):
    sizes = sizes or [5, 8, 6, 1]
    net = MlpNet.create(sizes, activation=activation, rng=rng)
    # break the orthogonal structure so tests see generic parameters
    for w in net.weights:
        w += 0.3 * rng.standard_normal(w.shape)
    for b in net.biases:
        b += 0.3 * rng.standard_normal(b.shape)
    return net


def fd_param_gradient(fn, net, eps=FD_EPS):
    """Central finite differences of a scalar function of the parameters."""
    flat = net.flat.copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bump = flat.copy()
        bump[i] += eps
        net.flat[...] = bump
        hi = fn()
        bump[i] -= 2 * eps
        net.flat[...] = bump
        lo = fn()
        grad[i] = (hi - lo) / (2 * eps)
    net.flat[...] = flat
    return grad


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


class TestForward:
    def test_zero_weight_net_outputs_bias(self):
        net = MlpNet.create([3, 4, 2], rng=np.random.default_rng(0))
        for w in net.weights:
            w[...] = 0.0
        net.biases[-1][...] = [1.5, -2.5]
        y, _ = net.forward(np.random.default_rng(1).normal(size=(7, 3)))
        assert np.allclose(y, np.tile([1.5, -2.5], (7, 1)))

    def test_identity_single_layer(self):
        # a net of one layer has no hidden activation: it is the linear map
        net = MlpNet([4, 4], activation="relu")
        net.weights[0][...] = np.eye(4)
        x = np.random.default_rng(2).normal(size=(1, 4))
        y, _ = net.forward(x)
        assert np.array_equal(y, x)

    @pytest.mark.parametrize("activation", ["elu", "relu"])
    def test_matches_straight_line_oracle(self, activation):
        # independent re-implementation: plain loops over rows and layers
        rng = np.random.default_rng(11)
        net = rand_net(rng, [4, 6, 5, 2], activation)
        x = rng.normal(size=(3, 4))
        y, _ = net.forward(x)

        def act(v):
            if activation == "relu":
                return max(v, 0.0)
            return v if v > 0 else math.expm1(v)

        for b in range(3):
            a = list(x[b])
            for l in range(net.num_layers):
                z = []
                for j in range(net.layer_sizes[l + 1]):
                    s = net.biases[l][j]
                    for i in range(net.layer_sizes[l]):
                        s += net.weights[l][j, i] * a[i]
                    z.append(s)
                a = [act(v) for v in z] if l < net.num_layers - 1 else z
            assert np.allclose(y[b], a, atol=1e-12)

    def test_shape_mismatch(self):
        net = MlpNet.create([3, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="expects a batch"):
            net.forward(np.zeros((1, 4)))
        # one sample is a batch of one, never a bare vector
        with pytest.raises(ValueError, match="expects a batch"):
            net.forward(np.zeros(3))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(5)
        net = rand_net(rng)
        x = rng.normal(size=(2, 5))
        y1, _ = net.forward(x)
        y2, _ = net.forward(x)
        assert np.array_equal(y1, y2)


class TestBackward:
    def test_linear_net_weight_grad_is_input(self):
        net = MlpNet([3, 1], activation="relu")
        x = np.array([[1.0, 2.0, 3.0]])
        _, cache = net.forward(x)
        d_weights, d_biases = unflatten(net.backward(cache, np.ones((1, 1))),
                                        net.shapes)
        assert np.array_equal(d_weights, x)
        assert np.array_equal(d_biases, [1.0])

    def test_zero_output_grad(self):
        rng = np.random.default_rng(1)
        net = rand_net(rng)
        x = rng.normal(size=(4, 5))
        _, cache = net.forward(x)
        grads = net.backward(cache, np.zeros((4, 1)))
        assert grads.shape == net.flat.shape
        assert np.all(grads == 0)

    @pytest.mark.parametrize("activation", ["elu", "relu"])
    def test_param_gradients_match_finite_differences(self, activation):
        failures = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sizes = [rng.integers(2, 6), rng.integers(2, 8), rng.integers(1, 6)]
            net = rand_net(rng, list(sizes), activation)
            x = rng.normal(size=(3, sizes[0]))
            dy = rng.normal(size=(3, sizes[-1]))
            _, cache = net.forward(x)
            analytic = net.backward(cache, dy)

            def scalar():
                y, _ = net.forward(x)
                return float((y * dy).sum())

            fd = fd_param_gradient(scalar, net)
            if rel_err(analytic, fd) >= FD_RTOL:
                failures += 1
        assert failures == 0


class TestEluSmoothness:
    def test_c1_at_zero(self):
        elu_fn, delu_fn = ACTIVATIONS["elu"]

        def elu(v):
            return elu_fn(np.array([v]), np.empty(1)).item()

        h = 1e-7
        left = (elu(0.0) - elu(-h)) / h
        right = (elu(h) - elu(0.0)) / h
        assert abs(left - right) < 1e-6
        assert delu_fn(np.array([0.0]), np.empty(1))[0] == pytest.approx(1.0)


class TestEluForward:
    def test_same_bytes_as_the_masked_form(self):
        # max(z, expm1(min(z, 0))) against expm1(min(z, 0)) with z put where
        # z > 0: signed zeros, infinities, NaNs of both signs, subnormals,
        # every power of two and its neighbours, and dense random values
        tiny = np.finfo(np.float64).tiny
        special = np.array([0.0, -0.0, tiny, -tiny, tiny / 4, -tiny / 4, 5e-324,
                            -5e-324, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0,
                            1e-300, -745.2, -800.0, -1e308, 1e308, 709.0, 3.5, -3.5])
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        neighbours = np.concatenate([powers, np.nextafter(powers, 0.0),
                                     np.nextafter(powers, np.inf)])
        rng = np.random.default_rng(0)
        dense = np.concatenate([rng.standard_normal(200_000) * scale
                                for scale in (1e-8, 1e-3, 1.0, 30.0)])
        z = np.concatenate([special, neighbours, -neighbours, dense])
        masked = np.expm1(np.minimum(z, 0.0))
        np.putmask(masked, z > 0.0, z)
        elu_fn, _ = ACTIVATIONS["elu"]
        assert elu_fn(z, np.empty_like(z)).tobytes() == masked.tobytes()


class TestEluDerivative:
    def test_same_bytes_as_the_masked_form(self):
        # exp(min(z, 0)) alone against exp(min(z, 0)) with 1 put where z > 0
        tiny = np.finfo(np.float64).tiny
        z = np.array([0.0, -0.0, tiny, -tiny, tiny / 4, -tiny / 4, 5e-324, -5e-324,
                      np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 1e-300, -745.2,
                      -800.0, -1e308, 1e308, 709.0, 3.5, -3.5])
        masked = np.exp(np.minimum(z, 0.0))
        np.putmask(masked, z > 0.0, 1.0)
        _, delu_fn = ACTIVATIONS["elu"]
        assert delu_fn(z, np.empty_like(z)).tobytes() == masked.tobytes()


# The forward pass, the ReLU derivatives and the full double-backward of the
# input-gradient penalty, with the second-order pass through relu'' = 0 that
# the penalty leaves out, each temporary a new array: the slow oracle of that
# omission and of the kept arrays.
def full_penalty_oracle(net, x, coef):
    def dact(z):
        return (z > 0.0).astype(np.float64)

    L = net.num_layers
    zs, activs, a = [], [], x
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        zs.append(a @ w.T + b)
        if l != L - 1:
            a = np.maximum(zs[-1], 0.0)
            activs.append(a)

    deltas, cs, ss = [None] * L, [None] * L, [None] * L
    deltas[L - 1] = np.ones((x.shape[0], 1))
    for l in range(L - 2, -1, -1):
        cs[l] = deltas[l + 1] @ net.weights[l + 1]
        ss[l] = dact(zs[l])
        deltas[l] = cs[l] * ss[l]
    g = deltas[0] @ net.weights[0]
    value = coef * float((g * g).sum())

    d_weights = [np.zeros(w.shape) for w in net.weights]
    d_biases = [np.zeros(b.shape) for b in net.biases]
    g_bar = 2.0 * coef * g
    d_weights[0] += deltas[0].T @ g_bar
    delta_bar = g_bar @ net.weights[0].T
    z_bar_src = [None] * L
    for l in range(L - 1):
        c_bar = delta_bar * ss[l]
        s_bar = delta_bar * cs[l]
        z_bar_src[l] = s_bar * np.zeros_like(zs[l])   # relu''(z) = 0
        d_weights[l + 1] += deltas[l + 1].T @ c_bar
        delta_bar = c_bar @ net.weights[l + 1].T
    z_bar_total = None
    for l in range(L - 1, -1, -1):
        if l < L - 1 and z_bar_src[l] is not None:
            z_bar = z_bar_src[l].copy()
        else:
            z_bar = np.zeros_like(zs[l])
        if l < L - 1:
            a_bar = z_bar_total @ net.weights[l + 1]
            z_bar += a_bar * dact(zs[l])
        a_prev = x if l == 0 else activs[l - 1]
        d_weights[l] += z_bar.T @ a_prev
        d_biases[l] += z_bar.sum(axis=0)
        z_bar_total = z_bar
    flat = np.concatenate([p.reshape(-1) for pair in zip(d_weights, d_biases)
                           for p in pair])
    return value, flat


@settings(deadline=None, max_examples=80)
@given(hidden=st.lists(st.integers(1, 300), min_size=1, max_size=3),
       batch=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
@example(hidden=[256, 128], batch=64, seed=0)  # desk shapes
def test_penalty_matches_the_full_double_backward(hidden, batch, seed):
    # the omitted term adds only products with a factor of exactly 0, so it
    # can at most flip the sign of a zero
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(1, 13))
    net = rand_net(rng, [n_in, *hidden, 1], "relu")
    x = rng.normal(size=(batch, n_in))
    coef = float(rng.uniform(0.01, 10.0))
    value, grads = net.input_gradient_norm_grads(net.forward(x)[1], coef)
    want_value, want = full_penalty_oracle(net, x, coef)
    assert value == want_value
    assert np.array_equal(grads, want)
    nonzero = want != 0.0
    assert grads[nonzero].tobytes() == want[nonzero].tobytes()


def test_penalty_rejects_a_net_that_is_not_relu():
    # ELU's second derivative is not zero: without the second-order pass
    # the gradient would be wrong
    rng = np.random.default_rng(3)
    net = rand_net(rng, [4, 6, 1], "elu")
    _, cache = net.forward(rng.normal(size=(5, 4)))
    with pytest.raises(ValueError, match="relu"):
        net.input_gradient_norm_grads(cache)


class TestForwardCache:
    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_kept_arrays_give_the_same_bytes(self, activation):
        # one cache through batches of changing size against a new cache each
        rng = np.random.default_rng(12)
        net = rand_net(rng, [6, 9, 7, 1], activation)
        cache = ForwardCache()
        for batch in (5, 5, 3, 5):
            x = rng.normal(size=(batch, 6))
            dy = rng.normal(size=(batch, 1))
            y, kept = net.forward(x, cache)
            y_new, fresh = net.forward(x)
            assert kept is cache
            assert y.tobytes() == y_new.tobytes()
            assert (net.backward(kept, dy).tobytes()
                    == net.backward(fresh, dy).tobytes())
            if activation == "relu":
                v_kept, g_kept = net.input_gradient_norm_grads(kept, 0.5)
                v_new, g_new = net.input_gradient_norm_grads(fresh, 0.5)
                assert v_kept == v_new
                assert g_kept.tobytes() == g_new.tobytes()

    def test_one_cache_across_shapes_and_nets(self):
        # one cache taken in turn by two nets of equal layer sizes and two
        # batch shapes, against a new cache each time
        rng = np.random.default_rng(13)
        nets = [rand_net(rng, [6, 9, 7, 1], "relu") for _ in range(2)]
        cache = ForwardCache()
        layers = None
        for batch, which in [(5, 0), (5, 1), (3, 1), (3, 0), (5, 0), (5, 1), (3, 1)]:
            net = nets[which]
            x = rng.normal(size=(batch, 6))
            dy = rng.normal(size=(batch, 1))
            y, kept = net.forward(x, cache)
            y_new, fresh = net.forward(x)
            assert y.tobytes() == y_new.tobytes()
            assert (net.backward(kept, dy).tobytes()
                    == net.backward(fresh, dy).tobytes())
            v_kept, g_kept = net.input_gradient_norm_grads(kept, 0.5)
            v_new, g_new = net.input_gradient_norm_grads(fresh, 0.5)
            assert v_kept == v_new
            assert g_kept.tobytes() == g_new.tobytes()
            # the layer arrays are made once per batch shape, whichever net
            if layers is not None and layers[0].shape[0] == batch:
                assert all(a is b for a, b in zip(layers, cache.zs + cache.activs))
            layers = cache.zs + cache.activs


class TestStackedForward:
    @pytest.mark.parametrize("activation", ["relu", "elu"])
    @pytest.mark.parametrize("sizes,T,B", [([36, 64, 64, 4], 24, 16),
                                           ([36, 64, 64, 1], 25, 16),
                                           ([24, 256, 128, 1], 24, 16),
                                           ([36, 64, 64, 4], 20, 1)])
    def test_same_bytes_as_one_forward_per_batch(self, activation, sizes, T, B):
        # a (T, B, n) stack against T forwards of (B, n); a (T * B, n) batch
        # would round differently at these shapes
        rng = np.random.default_rng(T * B)
        net = rand_net(rng, sizes, activation)
        x = rng.normal(size=(T, B, sizes[0]))
        y, cache = net.forward(x)
        assert y.shape == (T, B, sizes[-1])
        for t in range(T):
            assert y[t].tobytes() == net.forward(x[t])[0].tobytes()
        # the output is a view of the cache: a kept cache gives the bytes again
        first = y.copy()
        assert net.forward(x, cache)[0].tobytes() == first.tobytes()


class TestOptimizers:
    def test_sgd_step(self):
        p = np.array([1.0, 2.0])
        g = np.array([10.0, -10.0])
        opt = OptimizerState.for_params(p, "sgd", learning_rate=0.1)
        optimizer_step(opt, p, g)
        assert np.allclose(p, [0.0, 3.0])

    def test_weight_decay_as_l2_gradient(self):
        p = np.array([1.0, -4.0])
        opt = OptimizerState.for_params(p, "sgd", learning_rate=1.0,
                                        weight_decay=0.001)
        optimizer_step(opt, p, np.zeros(2))
        assert np.allclose(p, [0.999, -3.996])

    def test_rmsprop_unit_normalized_fixed_point(self):
        # constant gradient: accumulator -> g^2, step magnitude -> lr
        p = np.array([0.0])
        g = np.array([3.7])
        opt = OptimizerState.for_params(p, "rmsprop", learning_rate=0.01, rho=0.9)
        prev = p.copy()
        for _ in range(2000):
            prev = p.copy()
            optimizer_step(opt, p, g)
        assert abs(abs(float(p[0] - prev[0])) - 0.01) < 1e-6

    def test_adam_moves_against_gradient(self):
        p = np.array([0.0, 0.0])
        opt = OptimizerState.for_params(p, "adam", learning_rate=0.1)
        for _ in range(10):
            optimizer_step(opt, p, np.array([1.0, -1.0]))
        assert p[0] < 0 < p[1]

    def test_non_finite_gradient_rejected(self):
        p = np.array([1.0])
        opt = OptimizerState.for_params(p, "sgd", learning_rate=0.1)
        with pytest.raises(ValueError, match="non-finite"):
            optimizer_step(opt, p, np.array([np.nan]))
        assert p[0] == 1.0  # untouched

    def test_mismatched_vectors_rejected(self):
        p = np.array([1.0, 2.0])
        opt = OptimizerState.for_params(p, "adam", learning_rate=0.1)
        with pytest.raises(ValueError, match="does not match"):
            optimizer_step(opt, p, np.ones(3))
        with pytest.raises(ValueError, match="does not match"):
            optimizer_step(opt, np.ones(3), np.ones(3))

    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_one_step_equals_per_array_steps(self, kind):
        # the same update applied array by array, as one optimizer per
        # parameter array: an elementwise step must not care about the split
        rng = np.random.default_rng(6)
        net = MlpNet.create([5, 7, 3], rng=rng)
        kw = dict(learning_rate=0.01, weight_decay=1e-3, momentum=0.5)
        opt = OptimizerState.for_params(net.flat, kind, **kw)
        arrays = [p.copy() for p in unflatten(net.flat, net.shapes)]
        per_array = [OptimizerState.for_params(p, kind, **kw) for p in arrays]
        for _ in range(3):
            g = rng.normal(size=net.flat.size)
            optimizer_step(opt, net.flat, g)
            for p, o, gv in zip(arrays, per_array, unflatten(g, net.shapes)):
                optimizer_step(o, p, gv)
        assert net.flat.tobytes() == np.concatenate(
            [p.reshape(-1) for p in arrays]).tobytes()

    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    @pytest.mark.parametrize("weight_decay, momentum", [(0.0, 0.0), (1e-3, 0.05)])
    def test_scratch_keeps_the_plain_arithmetic(self, kind, weight_decay, momentum):
        rng = np.random.default_rng(8)
        kw = dict(learning_rate=3e-4, weight_decay=weight_decay, momentum=momentum)
        p = rng.normal(size=50)
        q = p.copy()
        opt = OptimizerState.for_params(p, kind, **kw)
        oracle = OptimizerState.for_params(q, kind, **kw)
        for _ in range(20):
            g = rng.normal(size=50) * 10.0 ** rng.integers(-6, 3)
            optimizer_step(opt, p, g)
            plain_step(oracle, q, g)
            assert p.tobytes() == q.tobytes()
            for name, slot in opt.slots.items():
                assert slot.tobytes() == oracle.slots[name].tobytes()
        kept = opt.scratch
        optimizer_step(opt, p, g)
        assert len(kept) == 2 and all(a is b for a, b in zip(opt.scratch, kept))

    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_slot_of_another_length_is_rejected(self, kind, tmp_path):
        # a short slot used to be caught only at the first step; a trainer
        # built from the dict, whose optimizers adopt its slots, now refuses
        # it whatever the kind, before it adopts them, and leaves the dict
        # as it was
        # imported here: test_trainer imports this module
        from planarmimic.trainer import Trainer
        from test_trainer import assert_same, tiny_config, tiny_dataset

        cfg = tiny_config(tmp_path=tmp_path)
        cfg.disc.optimizer = kind
        trainer = Trainer(cfg, tiny_dataset(cfg))
        ckpt = copy.deepcopy(trainer.checkpoint_dict())
        slot = "buf" if kind != "adam" else "v"
        n = trainer.disc.flat.size
        ckpt["disc_opt"]["slots"][slot] = np.zeros(n - 1)
        message = (rf"disc_opt/slots/{slot} is float64 \({n - 1},\), "
                   rf"this trainer's float64 \({n},\)")
        kept = copy.deepcopy(ckpt)
        with pytest.raises(ValueError, match=message):
            Trainer(cfg, tiny_dataset(cfg), ckpt)
        assert_same(ckpt, kept)
        with pytest.raises(ValueError, match=message):
            Trainer.from_checkpoint(ckpt)
        assert_same(ckpt, kept)


def plain_step(state, p, grads):
    """``optimizer_step``'s arithmetic as plain expressions, each temporary a
    new array: the oracle of its scratch vectors."""
    lr = state.learning_rate
    state.step_count += 1
    slot = state.slots
    eff = grads if state.weight_decay == 0.0 else grads + state.weight_decay * p
    if state.kind == "sgd":
        if state.momentum > 0.0:
            slot["buf"] *= state.momentum
            slot["buf"] += eff
            step = slot["buf"]
        else:
            step = eff
        p -= lr * step
    elif state.kind == "rmsprop":
        slot["sq"] *= state.rho
        slot["sq"] += (1.0 - state.rho) * eff * eff
        normed = eff / np.sqrt(slot["sq"] + state.eps)
        if state.momentum > 0.0:
            slot["buf"] *= state.momentum
            slot["buf"] += normed
            p -= lr * slot["buf"]
        else:
            p -= lr * normed
    else:
        slot["m"] *= state.beta1
        slot["m"] += (1.0 - state.beta1) * eff
        slot["v"] *= state.beta2
        slot["v"] += (1.0 - state.beta2) * eff * eff
        mhat = slot["m"] / (1.0 - state.beta1 ** state.step_count)
        vhat = slot["v"] / (1.0 - state.beta2 ** state.step_count)
        p -= lr * mhat / (np.sqrt(vhat) + state.eps)


class TestInit:
    def test_orthogonal_columns(self):
        rng = np.random.default_rng(0)
        w = orthogonal_init(8, 8, 1.0, rng)
        assert np.allclose(w @ w.T, np.eye(8), atol=1e-10)

    def test_gain_scaling(self):
        rng = np.random.default_rng(0)
        w = orthogonal_init(6, 6, 2.0, rng)
        assert np.allclose(w @ w.T, 4 * np.eye(6), atol=1e-10)

    def test_param_count_matches_formula(self):
        net = MlpNet.create([7, 11, 3], rng=np.random.default_rng(0))
        assert net.num_params() == (7 + 1) * 11 + (11 + 1) * 3
        assert net.flat.size == net.num_params()

    def test_deterministic_given_seed(self):
        a = MlpNet.create([4, 5, 2], rng=np.random.default_rng(9))
        b = MlpNet.create([4, 5, 2], rng=np.random.default_rng(9))
        assert np.array_equal(a.flat, b.flat)

    def test_weights_are_c_contiguous(self):
        # [8 -> 3] is wide (rows < cols), [3 -> 16] tall and [16 -> 16] square.
        # A reload rebuilds C-ordered arrays and BLAS rounds by layout, so
        # fresh weights must already be C-ordered for bit-exact resume.
        net = MlpNet.create([8, 3, 16, 16, 1], rng=np.random.default_rng(0))
        assert any(w.shape[0] < w.shape[1] for w in net.weights)
        assert any(w.shape[0] > w.shape[1] for w in net.weights)
        for w in net.weights:
            assert w.flags.c_contiguous


def assert_views_of(vector, arrays):
    """Each array is C-contiguous and lives in ``vector``'s memory."""
    assert vector.flags.c_contiguous and vector.ndim == 1
    for a in arrays:
        assert a.flags.c_contiguous
        assert np.shares_memory(a, vector)


class TestLayout:
    SIZES = [8, 3, 16, 16, 1]  # wide, tall and square layers

    def test_weights_and_biases_are_views_of_the_vector(self):
        net = MlpNet.create(self.SIZES, rng=np.random.default_rng(0))
        assert_views_of(net.flat, net.weights + net.biases)
        offsets = [w.__array_interface__["data"][0] for w in net.weights]
        assert offsets == sorted(offsets)
        # writing through the vector is seen by the views, and back
        net.flat[:] = np.arange(net.flat.size)
        assert net.weights[0][0, 1] == 1.0
        assert net.biases[0][0] == 24.0  # after the 3 x 8 first weights
        net.biases[-1][0] = -1.0
        assert net.flat[-1] == -1.0

    def test_gradient_views(self):
        rng = np.random.default_rng(1)
        net = MlpNet.create(self.SIZES, activation="relu", rng=rng)
        _, cache = net.forward(rng.normal(size=(5, 8)))
        grads = net.backward(cache, rng.normal(size=(5, 1)))
        _, gp = net.input_gradient_norm_grads(cache)
        for g in (grads, gp):
            assert g.shape == net.flat.shape and g.dtype == np.float64
            assert_views_of(g, unflatten(g, net.shapes))

    def test_backward_writes_into_out(self):
        rng = np.random.default_rng(2)
        net = MlpNet.create(self.SIZES, rng=rng)
        _, cache = net.forward(rng.normal(size=(5, 8)))
        dy = rng.normal(size=(5, 1))
        host = np.zeros(net.flat.size + 2)
        grads = net.backward(cache, dy, out=host[:-2])
        assert np.shares_memory(grads, host)
        assert np.array_equal(host[:-2], net.backward(cache, dy))
        assert np.array_equal(host[-2:], [0.0, 0.0])

    def test_slots_are_vectors_in_the_layout(self):
        net = MlpNet.create(self.SIZES, rng=np.random.default_rng(3))
        for kind in ("sgd", "rmsprop", "adam"):
            opt = OptimizerState.for_params(net.flat, kind, learning_rate=0.1)
            for slot in opt.slots.values():
                assert slot.shape == net.flat.shape
                assert slot.flags.c_contiguous
                assert not np.shares_memory(slot, net.flat)

    def test_foreign_vectors_rejected(self):
        with pytest.raises(ValueError, match="vector"):
            MlpNet([3, 2], flat=np.zeros(7))
        with pytest.raises(ValueError, match="C-contiguous"):
            MlpNet([3, 2], flat=np.zeros(16)[::2])
        with pytest.raises(ValueError, match="float64"):
            MlpNet([3, 2], flat=np.zeros(8, dtype=np.float32))


class TestClipGradNorm:
    def test_sums_per_array_in_layout_order(self):
        # oracle: the clip over a list of separate arrays; a pairwise sum
        # over the whole vector rounds differently in some of these layouts
        rng = np.random.default_rng(4)
        whole_sum_differs = 0
        for _ in range(60):
            sizes = [int(n) for n in rng.integers(2, 80, size=rng.integers(2, 5))]
            shapes = MlpNet(sizes).shapes + [(4,)]
            g = rng.normal(size=sum(math.prod(s) for s in shapes)) * 10.0
            arrays = [a.copy() for a in unflatten(g.copy(), shapes)]
            total = math.sqrt(sum(float((a * a).sum()) for a in arrays))
            whole_sum_differs += total != math.sqrt(float((g * g).sum()))
            for a in arrays:
                a *= 1.0 / total
            clip_grad_norm(g, shapes, 1.0)
            assert g.tobytes() == np.concatenate(
                [a.reshape(-1) for a in arrays]).tobytes()
        assert whole_sum_differs > 0

    def test_small_norm_and_zero_bound_leave_it(self):
        g = np.array([0.3, 0.4])
        clip_grad_norm(g, [(2,)], 1.0)
        clip_grad_norm(g, [(2,)], 0.0)
        assert np.array_equal(g, [0.3, 0.4])
