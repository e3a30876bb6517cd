"""Dense networks with hand-written reverse-mode gradients.

Everything here is plain float64 numpy. The networks are small enough that
explicit matrix calculus beats any framework overhead, and having the exact
backward pass in hand is what makes the analytic input-gradient penalty
(see ``input_gradient_norm_grads``) tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def _relu(z):
    return np.maximum(z, 0.0)


def _relu_d(z):
    return (z > 0.0).astype(np.float64)


def _relu_dd(z):
    return np.zeros_like(z)


def _elu(z):
    return np.where(z > 0.0, z, np.expm1(np.minimum(z, 0.0)))


def _elu_d(z):
    return np.where(z > 0.0, 1.0, np.exp(np.minimum(z, 0.0)))


def _elu_dd(z):
    return np.where(z > 0.0, 0.0, np.exp(np.minimum(z, 0.0)))


def _identity(z):
    return z


def _one(z):
    return np.ones_like(z)


def _zero(z):
    return np.zeros_like(z)


ACTIVATIONS = {
    "relu": (_relu, _relu_d, _relu_dd),
    "elu": (_elu, _elu_d, _elu_dd),
    "identity": (_identity, _one, _zero),
}


def orthogonal_init(rows: int, cols: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal(-ish) matrix scaled by ``gain`` (QR of a Gaussian draw).

    The result is always C-contiguous. A wide matrix (``rows < cols``) comes
    from ``q.T``, which is Fortran-ordered, while a checkpoint reload rebuilds
    every weight from nested lists in C order. BLAS rounds ``x @ w.T``
    differently for the two layouts, so a fresh net and a restored one must
    share a layout for a resumed run to match an unbroken one bit for bit.
    """
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix sign ambiguity for determinism
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(gain * q[:rows, :cols])


@dataclass
class ForwardCache:
    """Intermediates retained by ``forward`` for the backward passes."""

    x: np.ndarray            # (B, n0)
    zs: list                 # pre-activations per layer, (B, n_l)
    activs: list             # post-activations per hidden layer, (B, n_l)


@dataclass
class Grads:
    """Per-parameter gradients plus the gradient w.r.t. the input batch."""

    d_weights: list
    d_biases: list
    d_input: np.ndarray | None = None

    def add_(self, other: "Grads") -> "Grads":
        for a, b in zip(self.d_weights, other.d_weights):
            a += b
        for a, b in zip(self.d_biases, other.d_biases):
            a += b
        if self.d_input is not None and other.d_input is not None:
            self.d_input += other.d_input
        return self

    def as_list(self) -> list:
        """Parameter gradients in ``MlpNet.params()`` order: each layer's
        weights, then its biases."""
        return [g for wb in zip(self.d_weights, self.d_biases) for g in wb]

    def flat(self) -> np.ndarray:
        return np.concatenate([g.reshape(-1) for g in self.as_list()])


class MlpNet:
    """Fully connected net: affine layers with an elementwise hidden
    activation and a linear output layer."""

    def __init__(self, layer_sizes, activation: str = "elu",
                 weights=None, biases=None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.layer_sizes = list(int(n) for n in layer_sizes)
        self.activation = activation
        self.weights = weights
        self.biases = biases

    @classmethod
    def create(cls, layer_sizes, activation: str = "elu",
               rng: np.random.Generator | None = None,
               hidden_gain: float = math.sqrt(2.0),
               output_gain: float = 1.0) -> "MlpNet":
        rng = rng or np.random.default_rng(0)
        net = cls(layer_sizes, activation)
        net.weights = []
        net.biases = []
        n_layers = len(net.layer_sizes) - 1
        for l in range(n_layers):
            n_in, n_out = net.layer_sizes[l], net.layer_sizes[l + 1]
            gain = output_gain if l == n_layers - 1 else hidden_gain
            net.weights.append(orthogonal_init(n_out, n_in, gain, rng))
            net.biases.append(np.zeros(n_out))
        return net

    # -- bookkeeping --------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def num_params(self) -> int:
        return sum((n_in + 1) * n_out
                   for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))

    def params(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def params_flat(self) -> np.ndarray:
        return np.concatenate([p.reshape(-1) for p in self.params()])

    def set_params_flat(self, flat: np.ndarray) -> None:
        i = 0
        for p in self.params():
            n = p.size
            p[...] = flat[i:i + n].reshape(p.shape)
            i += n
        if i != flat.size:
            raise ValueError("flat parameter vector has wrong length")

    def copy(self) -> "MlpNet":
        return MlpNet(self.layer_sizes, self.activation,
                      [w.copy() for w in self.weights],
                      [b.copy() for b in self.biases])

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple:
        """Run the net on a batch (B, n0). Returns (output (B, nL), cache)."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input has {x.shape[1]} features, net expects {self.layer_sizes[0]}")
        act, _, _ = ACTIVATIONS[self.activation]
        zs, activs = [], []
        a = x
        last = self.num_layers - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            zs.append(z)
            if l != last:
                a = act(z)
                activs.append(a)
        y = zs[-1]
        cache = ForwardCache(x=x, zs=zs, activs=activs)
        return (y[0] if squeeze else y), cache

    def backward(self, cache: ForwardCache, output_grad: np.ndarray) -> Grads:
        """Exact VJP: gradients of sum_b <output_b, output_grad_b> w.r.t.
        all parameters and the input batch."""
        dy = np.asarray(output_grad, dtype=np.float64)
        if dy.ndim == 1:
            dy = dy[None, :]
        if dy.shape != cache.zs[-1].shape:
            raise ValueError("output_grad shape does not match cached forward")
        _, dact, _ = ACTIVATIONS[self.activation]
        d_weights = [None] * self.num_layers
        d_biases = [None] * self.num_layers
        dz = dy
        for l in range(self.num_layers - 1, -1, -1):
            a_prev = cache.x if l == 0 else cache.activs[l - 1]
            d_weights[l] = dz.T @ a_prev
            d_biases[l] = dz.sum(axis=0)
            if l > 0:
                da = dz @ self.weights[l]
                dz = da * dact(cache.zs[l - 1])
        d_input = dz @ self.weights[0]
        return Grads(d_weights, d_biases, d_input)

    # -- input gradients and their double-backward --------------------------

    def _input_grad_sweep(self, cache: ForwardCache):
        """Reverse sweep for the scalar-output input gradient.

        Returns (g, deltas, cs, ss) where for the scalar output y:
          deltas[l] = dy/dz_l (B, n_l), ss[l] = act'(z_l),
          cs[l] = deltas[l+1] @ W_{l+1}  (the pre-gating backprop signal), and
          g = dy/dx (B, n0).
        """
        if self.layer_sizes[-1] != 1:
            raise ValueError("input gradients require a scalar-output net")
        _, dact, _ = ACTIVATIONS[self.activation]
        B = cache.x.shape[0]
        L = self.num_layers
        deltas = [None] * L
        cs = [None] * L
        ss = [None] * L
        deltas[L - 1] = np.ones((B, 1))
        for l in range(L - 2, -1, -1):
            cs[l] = deltas[l + 1] @ self.weights[l + 1]
            ss[l] = dact(cache.zs[l])
            deltas[l] = cs[l] * ss[l]
        g = deltas[0] @ self.weights[0]
        return g, deltas, cs, ss

    def input_gradients(self, cache: ForwardCache) -> np.ndarray:
        """d(scalar output)/d(input) for every sample in the batch, (B, n0)."""
        g, _, _, _ = self._input_grad_sweep(cache)
        return g

    def input_gradient_norm_grads(self, cache: ForwardCache, coef: float = 1.0) -> tuple:
        """Value and parameter gradients of  coef * sum_b ||d y_b / d x_b||^2.

        This is a double-backward: the penalty P depends on the parameters
        both through the reverse sweep (the chain of W^T and act'(z) factors)
        and through the forward pass (the z_l entering act'). For ReLU the
        second derivative act'' vanishes almost everywhere, so only the
        cross terms  d delta_l / d W  survive; for ELU the act'' = exp(z)
        branch contributes as well.
        """
        _, dact, ddact = ACTIVATIONS[self.activation]
        g, deltas, cs, ss = self._input_grad_sweep(cache)
        L = self.num_layers
        value = coef * float((g * g).sum())

        d_weights = [np.zeros_like(w) for w in self.weights]
        d_biases = [np.zeros_like(b) for b in self.biases]

        g_bar = 2.0 * coef * g                       # dP/dg
        # g = deltas[0] @ W_0
        d_weights[0] += deltas[0].T @ g_bar
        delta_bar = g_bar @ self.weights[0].T        # dP/ddeltas[0]

        # z_bar_src[l] collects dP/dz_l arising from act'(z_l) in the sweep.
        z_bar_src = [None] * L
        for l in range(L - 1):
            c_bar = delta_bar * ss[l]
            s_bar = delta_bar * cs[l]
            z_bar_src[l] = s_bar * ddact(cache.zs[l])
            # cs[l] = deltas[l+1] @ W_{l+1}
            d_weights[l + 1] += deltas[l + 1].T @ c_bar
            delta_bar = c_bar @ self.weights[l + 1].T
        # deltas[L-1] is constant: chain ends.

        # Propagate the z-sources back through the forward graph.
        z_bar_total = None
        for l in range(L - 1, -1, -1):
            if l < L - 1 and z_bar_src[l] is not None:
                z_bar = z_bar_src[l].copy()
            else:
                z_bar = np.zeros_like(cache.zs[l])
            if l < L - 1:
                a_bar = z_bar_total @ self.weights[l + 1]
                z_bar += a_bar * dact(cache.zs[l])
            a_prev = cache.x if l == 0 else cache.activs[l - 1]
            d_weights[l] += z_bar.T @ a_prev
            d_biases[l] += z_bar.sum(axis=0)
            z_bar_total = z_bar

        return value, Grads(d_weights, d_biases)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Per-parameter optimizer with additive-L2 weight decay.

    kinds:
      ``sgd``      classical momentum buffer (``momentum`` = decay constant)
      ``rmsprop``  squared-gradient accumulator with smoothing ``rho`` and an
                   optional momentum buffer on the normalized step. The
                   ambiguity of what "momentum" means for this kind is
                   resolved here as the buffer coefficient (torch-style);
                   ``rho`` is the separate smoothing constant.
      ``adam``     first/second moments with bias correction
    """

    kind: str
    learning_rate: float
    weight_decay: float = 0.0
    momentum: float = 0.0
    rho: float = 0.99
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    slots: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, kind: str, learning_rate: float,
                   weight_decay: float = 0.0, momentum: float = 0.0,
                   rho: float = 0.99) -> "OptimizerState":
        if kind not in ("sgd", "rmsprop", "adam"):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        state = cls(kind=kind, learning_rate=learning_rate,
                    weight_decay=weight_decay, momentum=momentum, rho=rho)
        for p in params:
            if kind == "sgd":
                state.slots.append({"buf": np.zeros_like(p)})
            elif kind == "rmsprop":
                state.slots.append({"sq": np.zeros_like(p), "buf": np.zeros_like(p)})
            else:
                state.slots.append({"m": np.zeros_like(p), "v": np.zeros_like(p)})
        return state


def optimizer_step(state: OptimizerState, params, grads) -> None:
    """Apply one in-place update. Rejects non-finite gradients up front so a
    bad step never corrupts the parameters."""
    if len(params) != len(state.slots):
        raise ValueError("parameter list does not match optimizer state")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient: step rejected")
    lr = state.learning_rate
    state.step_count += 1
    for p, g, slot in zip(params, grads, state.slots):
        eff = g if state.weight_decay == 0.0 else g + state.weight_decay * p
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
        else:  # adam
            slot["m"] *= state.beta1
            slot["m"] += (1.0 - state.beta1) * eff
            slot["v"] *= state.beta2
            slot["v"] += (1.0 - state.beta2) * eff * eff
            mhat = slot["m"] / (1.0 - state.beta1 ** state.step_count)
            vhat = slot["v"] / (1.0 - state.beta2 ** state.step_count)
            p -= lr * mhat / (np.sqrt(vhat) + state.eps)


# ---------------------------------------------------------------------------
# Serialization (checkpoint building blocks)
# ---------------------------------------------------------------------------

def net_to_dict(net: MlpNet) -> dict:
    return {
        "layer_sizes": net.layer_sizes,
        "activation": net.activation,
        "params": [p.tolist() for p in net.params()],
    }


def net_from_dict(d: dict) -> MlpNet:
    net = MlpNet(d["layer_sizes"], d["activation"])
    net.weights = []
    net.biases = []
    params = d["params"]
    for l in range(net.num_layers):
        net.weights.append(np.array(params[2 * l], dtype=np.float64))
        net.biases.append(np.array(params[2 * l + 1], dtype=np.float64))
    return net


def optimizer_to_dict(state: OptimizerState) -> dict:
    return {
        "kind": state.kind,
        "learning_rate": state.learning_rate,
        "weight_decay": state.weight_decay,
        "momentum": state.momentum,
        "rho": state.rho,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "eps": state.eps,
        "step_count": state.step_count,
        "slots": [{k: v.tolist() for k, v in slot.items()} for slot in state.slots],
    }


def optimizer_from_dict(d: dict) -> OptimizerState:
    state = OptimizerState(
        kind=d["kind"], learning_rate=d["learning_rate"],
        weight_decay=d["weight_decay"], momentum=d["momentum"], rho=d["rho"],
        beta1=d["beta1"], beta2=d["beta2"], eps=d["eps"],
        step_count=d["step_count"])
    state.slots = [{k: np.array(v, dtype=np.float64) for k, v in slot.items()}
                   for slot in d["slots"]]
    return state
