"""Dense networks with hand-written reverse-mode gradients, and their
optimizers.

Everything here is plain float64 numpy. The networks are small enough that
explicit matrix calculus beats any framework overhead, and having the exact
backward pass in hand is what makes the analytic input-gradient penalty
(see ``input_gradient_norm_grads``) tractable.

Layout: a learner's parameters are one C-contiguous float64 vector ``flat``
holding, layer by layer, the weights (n_out, n_in) row by row and then the
biases; the policy appends its ``log_std``. ``weights`` and ``biases`` are
views into it (``unflatten``), so fresh and reloaded nets share one memory
layout, which BLAS rounds by. A gradient and each optimizer slot is a vector
of the same layout: a step, a snapshot or a restore is one array operation.
``clip_grad_norm`` still sums squares per array view, in layout order: numpy
sums pairwise, so one sum over the whole vector would round differently.

Kept arrays: a ``ForwardCache`` owns every array that ``forward``,
``backward`` and the penalty write over it, gradients a caller asks for
included, and an ``OptimizerState`` two scratch vectors for its step; kept
from one minibatch to the next, they make a step allocate no large array.
That saves page faults, not arithmetic: at the discriminator's desk shapes
a (64, 256) activation is 128 KiB, glibc's mmap threshold, and a gradient
vector 284 KiB, so each new one was mapped, faulted in and unmapped. A desk
training iteration took about 6,700 minor faults, about 630 in each
discriminator loss; with the discriminator's arrays kept, about 230.
A kept array is sized by one step's batch or one minibatch, never by a
rollout: the collector runs its value and critic forwards one step's
(E, n) batch at a time, since caches of a stacked (T, E, n) forward would
hold T times the memory from one iteration to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def _relu(z, out):
    return np.maximum(z, 0.0, out=out)


def _relu_d(z, out):
    return np.greater(z, 0.0, out=out)


def _elu(z, out):
    # expm1(min(z, 0)) is 0 where z > 0 and above z where z < 0 (or equal
    # to it, where expm1 rounds to its argument), so the maximum picks z
    # where z > 0 and the exponential elsewhere, as a mask would
    np.expm1(np.minimum(z, 0.0, out=out), out=out)
    return np.maximum(z, out, out=out)


def _elu_d(z, out):
    # exp(min(z, 0)) is exp(0) = 1 exactly where z > 0
    return np.exp(np.minimum(z, 0.0, out=out), out=out)


# name: (activation, derivative); both write into ``out``. The input-gradient
# penalty takes only ReLU nets, whose second derivative is zero.
ACTIVATIONS = {
    "relu": (_relu, _relu_d),
    "elu": (_elu, _elu_d),
}


def orthogonal_init(rows: int, cols: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal(-ish) matrix scaled by ``gain`` (QR of a Gaussian draw)."""
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix sign ambiguity for determinism
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------

def param_shapes(layer_sizes) -> list:
    """Shapes of an MLP's parameter arrays in layout order: each layer's
    weights (n_out, n_in), then its biases (n_out,)."""
    shapes = []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        shapes += [(n_out, n_in), (n_out,)]
    return shapes


def unflatten(flat: np.ndarray, shapes) -> list:
    """Views of consecutive slices of the vector ``flat``, one per shape;
    each is C-contiguous and shares ``flat``'s memory."""
    if flat.dtype != np.float64 or flat.ndim != 1 or not flat.flags.c_contiguous:
        raise ValueError("parameters must be one C-contiguous float64 vector")
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != flat.size:
        raise ValueError(f"vector has {flat.size} entries, the layout {sum(sizes)}")
    views, i = [], 0
    for shape, n in zip(shapes, sizes):
        views.append(flat[i:i + n].reshape(shape))
        i += n
    return views


class ForwardCache:
    """What ``forward`` keeps for the backward passes: the input batch ``x``
    (B, n0), the pre-activations ``zs`` and the hidden post-activations
    ``activs``, (B, n_l) per layer. The cache owns these and every other
    array the passes over it write (``array``), so a caller that passes it
    back to ``forward`` for the next batch of the same shape allocates none
    of them again; a new batch shape or net layout drops them all."""

    def __init__(self):
        self.x = None
        self.zs, self.activs = [], []
        self._key = None
        self._arrays = {}

    def bind(self, x: np.ndarray, layer_sizes) -> None:
        """Start a forward pass of ``x`` through a net of ``layer_sizes``."""
        key = (x.shape, tuple(layer_sizes))
        if key != self._key:
            self._key, self._arrays = key, {}
        self.x = x
        self.zs, self.activs = [], []

    def array(self, name, shape) -> np.ndarray:
        """The array kept under ``name``, uninitialised when first made."""
        a = self._arrays.get(name)
        if a is None:
            a = self._arrays[name] = np.empty(shape)
        return a


class MlpNet:
    """Fully connected net: affine layers with an elementwise hidden
    activation and a linear output layer. Its parameters are the vector
    ``flat`` (see the module docstring): the one passed in, not a copy, or
    zeros."""

    def __init__(self, layer_sizes, activation: str = "elu",
                 flat: np.ndarray | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.layer_sizes = list(int(n) for n in layer_sizes)
        self.activation = activation
        self.shapes = param_shapes(self.layer_sizes)
        self.flat = np.zeros(self.num_params()) if flat is None else flat
        views = unflatten(self.flat, self.shapes)
        self.weights = views[0::2]
        self.biases = views[1::2]

    @classmethod
    def create(cls, layer_sizes, activation: str = "elu",
               rng: np.random.Generator | None = None,
               output_gain: float = 1.0) -> "MlpNet":
        rng = rng or np.random.default_rng(0)
        net = cls(layer_sizes, activation)
        last = net.num_layers - 1
        for l, w in enumerate(net.weights):
            gain = output_gain if l == last else math.sqrt(2.0)
            w[...] = orthogonal_init(*w.shape, gain, rng)
        return net

    # -- bookkeeping --------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def num_params(self) -> int:
        return sum(math.prod(shape) for shape in self.shapes)

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, cache: ForwardCache | None = None) -> tuple:
        """Run the net on a batch (..., B, n0). Returns (output (..., B, nL),
        cache): ``cache``, or a new one, holds the intermediates, and the
        output is a view of it, overwritten when the cache is next used.

        Leading axes stack batches: each (B, n0) slice goes through its own
        matrix products, so a stacked forward gives the bytes of separate
        forwards of its slices. A (T * B, n0) batch would not: BLAS blocks
        a taller product differently and rounds its sums otherwise."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-1] != self.layer_sizes[0]:
            raise ValueError(f"input has shape {x.shape}, net expects a batch "
                             f"(..., B, {self.layer_sizes[0]})")
        act, _ = ACTIVATIONS[self.activation]
        cache = ForwardCache() if cache is None else cache
        cache.bind(x, self.layer_sizes)
        a = x
        last = self.num_layers - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(a, w.T, out=cache.array(("z", l), x.shape[:-1] + w.shape[:1]))
            z += b
            cache.zs.append(z)
            if l != last:
                a = act(z, cache.array(("a", l), z.shape))
                cache.activs.append(a)
        return cache.zs[-1], cache

    def backward(self, cache: ForwardCache, output_grad: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Exact VJP: gradients of sum_b <output_b, output_grad_b> w.r.t.
        all parameters, as a vector in this net's layout: ``out``, or a new
        one. The intermediates go into arrays of ``cache``."""
        dz = np.asarray(output_grad, dtype=np.float64)
        if dz.shape != cache.zs[-1].shape:
            raise ValueError("output_grad shape does not match cached forward")
        _, dact = ACTIVATIONS[self.activation]
        grads = np.empty(self.num_params()) if out is None else out
        views = unflatten(grads, self.shapes)
        for l in range(self.num_layers - 1, -1, -1):
            a_prev = cache.x if l == 0 else cache.activs[l - 1]
            np.matmul(dz.T, a_prev, out=views[2 * l])
            dz.sum(axis=0, out=views[2 * l + 1])
            if l > 0:
                z = cache.zs[l - 1]
                dz = np.matmul(dz, self.weights[l], out=cache.array(("dz", l - 1), z.shape))
                dz *= dact(z, cache.array(("dact", l - 1), z.shape))
        return grads

    # -- input gradients and their double-backward --------------------------

    def _input_grad_sweep(self, cache: ForwardCache):
        """Reverse sweep for the scalar-output input gradient.

        Returns (g, deltas, ss) where for the scalar output y:
          deltas[l] = dy/dz_l (B, n_l), ss[l] = act'(z_l), and
          g = dy/dx (B, n0).
        """
        if self.layer_sizes[-1] != 1:
            raise ValueError("input gradients require a scalar-output net")
        _, dact = ACTIVATIONS[self.activation]
        L = self.num_layers
        deltas = [None] * L
        ss = [None] * L
        deltas[L - 1] = np.ones((cache.x.shape[0], 1))
        for l in range(L - 2, -1, -1):
            z = cache.zs[l]
            c = np.matmul(deltas[l + 1], self.weights[l + 1],
                          out=cache.array(("c", l), z.shape))
            ss[l] = dact(z, cache.array(("dact", l), z.shape))
            deltas[l] = np.multiply(c, ss[l], out=cache.array(("delta", l), z.shape))
        g = np.matmul(deltas[0], self.weights[0], out=cache.array("g", cache.x.shape))
        return g, deltas, ss

    def input_gradient_norm_grads(self, cache: ForwardCache, coef: float = 1.0,
                                  out: np.ndarray | None = None) -> tuple:
        """Value and parameter gradients of  coef * sum_b ||d y_b / d x_b||^2
        for a ReLU net, the gradients as a vector in this net's layout:
        ``out``, or a new one.

        The penalty P depends on the parameters through the reverse sweep,
        the chain of W^T and relu'(z) factors. It also depends on them
        through the z_l entering relu', but relu'' is zero almost
        everywhere, so that term vanishes; for any other activation it
        would not, and this raises rather than return a wrong gradient.
        Each factor of the sweep also enters a product kept here or in
        ``backward`` over this cache, which the discriminator loss takes
        too, so a non-finite one still reaches the loss gradient and
        ``optimizer_step`` rejects the step.
        """
        if self.activation != "relu":
            raise ValueError(
                f"the input-gradient penalty needs a relu net, not {self.activation!r}")
        g, deltas, ss = self._input_grad_sweep(cache)
        value = coef * float((g * g).sum())

        grads = np.empty(self.num_params()) if out is None else out
        grads.fill(0.0)
        d_weights = unflatten(grads, self.shapes)[0::2]

        def add_product(l, left, right):
            """d_weights[l] += left.T @ right"""
            d_weights[l] += np.matmul(left.T, right,
                                      out=cache.array(("dw", l), d_weights[l].shape))

        g_bar = 2.0 * coef * g                       # dP/dg
        # g = deltas[0] @ W_0
        add_product(0, deltas[0], g_bar)
        bar = g_bar
        for l in range(self.num_layers - 1):
            # dP/ddeltas[l], then in place dP/dc_l, in backward's dz array;
            # deltas[L-1] is constant, so the chain ends before its product
            bar = np.matmul(bar, self.weights[l].T, out=cache.array(("dz", l), ss[l].shape))
            bar *= ss[l]
            # c_l = deltas[l+1] @ W_{l+1}
            add_product(l + 1, deltas[l + 1], bar)
        return value, grads


def clip_grad_norm(grads: np.ndarray, shapes, max_norm: float) -> None:
    """Scale the gradient vector ``grads`` in place so that its L2 norm is at
    most ``max_norm``; a no-op for ``max_norm <= 0``. The squared norm is
    summed per parameter array of the layout ``shapes``, in order."""
    if max_norm <= 0:
        return
    total = math.sqrt(sum(float((g * g).sum()) for g in unflatten(grads, shapes)))
    if total > max_norm:
        grads *= max_norm / total


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

SLOT_NAMES = {"sgd": ("buf",), "rmsprop": ("sq", "buf"), "adam": ("m", "v")}


@dataclass
class OptimizerState:
    """Optimizer over one parameter vector with additive-L2 weight decay.
    Each slot is one vector in the parameters' layout.

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
    slots: dict = field(default_factory=dict)
    # two vectors a step writes its temporaries into; not optimizer state,
    # and not in the checkpoint
    scratch: tuple = field(default=(), repr=False, compare=False)

    @classmethod
    def for_params(cls, params: np.ndarray, kind: str, learning_rate: float,
                   weight_decay: float = 0.0, momentum: float = 0.0,
                   rho: float = 0.99) -> "OptimizerState":
        if kind not in SLOT_NAMES:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        state = cls(kind=kind, learning_rate=learning_rate,
                    weight_decay=weight_decay, momentum=momentum, rho=rho)
        state.slots = {name: np.zeros_like(params) for name in SLOT_NAMES[kind]}
        return state


def optimizer_step(state: OptimizerState, params: np.ndarray,
                   grads: np.ndarray) -> None:
    """Update the parameter vector ``params`` in place from the gradient
    vector ``grads``. Rejects non-finite gradients up front so a bad step
    never corrupts the parameters."""
    if grads.shape != params.shape or any(
            s.shape != params.shape for s in state.slots.values()):
        raise ValueError("parameter vector does not match gradient or optimizer state")
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient: step rejected")
    if not state.scratch or state.scratch[0].shape != params.shape:
        state.scratch = (np.empty_like(params), np.empty_like(params))
    # the temporaries go into the scratch; each is the same operation on the
    # same operands, in the same order, as the expression in its comment
    s1, s2 = state.scratch
    lr = state.learning_rate
    state.step_count += 1
    p, slot = params, state.slots
    if state.weight_decay == 0.0:
        eff = grads
    else:   # grads + weight_decay * p
        eff = np.add(grads, np.multiply(state.weight_decay, p, out=s1), out=s1)
    if state.kind == "sgd":
        if state.momentum > 0.0:
            slot["buf"] *= state.momentum
            slot["buf"] += eff
            step = slot["buf"]
        else:
            step = eff
        p -= np.multiply(lr, step, out=s2)
    elif state.kind == "rmsprop":
        slot["sq"] *= state.rho
        # (1 - rho) * eff * eff
        slot["sq"] += np.multiply(np.multiply(1.0 - state.rho, eff, out=s2), eff, out=s2)
        # eff / sqrt(sq + eps)
        normed = np.divide(eff, np.sqrt(np.add(slot["sq"], state.eps, out=s2), out=s2),
                           out=s2)
        if state.momentum > 0.0:
            slot["buf"] *= state.momentum
            slot["buf"] += normed
            p -= np.multiply(lr, slot["buf"], out=s2)
        else:
            p -= np.multiply(lr, normed, out=s2)
    else:  # adam
        slot["m"] *= state.beta1
        slot["m"] += np.multiply(1.0 - state.beta1, eff, out=s2)
        slot["v"] *= state.beta2
        slot["v"] += np.multiply(np.multiply(1.0 - state.beta2, eff, out=s2), eff, out=s2)
        # lr * mhat / (sqrt(vhat) + eps); eff is not read again
        vhat = np.divide(slot["v"], 1.0 - state.beta2 ** state.step_count, out=s2)
        denom = np.add(np.sqrt(vhat, out=s2), state.eps, out=s2)
        mhat = np.divide(slot["m"], 1.0 - state.beta1 ** state.step_count, out=s1)
        p -= np.divide(np.multiply(lr, mhat, out=s1), denom, out=s1)
