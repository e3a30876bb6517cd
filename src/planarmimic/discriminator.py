"""Adversarial objectives over observation windows.

Two discriminator losses are supported: a least-squares objective that pins
reference windows to +1 and policy windows to -1, and a Wasserstein objective
that separates the two means. Both add a penalty on the squared input-gradient
norm evaluated on reference samples. Lipschitz control for the Wasserstein
variant comes from L2 weight decay in the optimizer, never from the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import OBS_DIM
from .nets import ForwardCache, MlpNet

LOSS_KINDS = ("wgan", "lsgan")

# Joint position + velocity features appended per frame when the discriminator
# sees the full robot configuration.
FULL_STATE_EXTRA = 8


@dataclass
class DiscriminatorConfig:
    loss_kind: str = "wgan"
    horizon: int = 4
    w_loss: float = 0.5          # weight on the Wasserstein mean-separation term
    w_gp: float = 5.0            # weight on the reference input-gradient penalty
    weight_decay: float = 1e-3
    learning_rate: float = 3e-4
    minibatches: int = 10
    minibatch_size: int = 64
    momentum: float = 0.05
    rho: float = 0.99
    optimizer: str = ""          # "" = pick by loss kind (sgd for lsgan, rmsprop for wgan)
    full_state: bool = False
    hidden_sizes: tuple = (256, 128)

    @property
    def frame_dim(self) -> int:
        return OBS_DIM + (FULL_STATE_EXTRA if self.full_state else 0)

    @property
    def input_dim(self) -> int:
        return self.horizon * self.frame_dim

    @property
    def optimizer_kind(self) -> str:
        if self.optimizer:
            return self.optimizer
        return "sgd" if self.loss_kind == "lsgan" else "rmsprop"

    def validate(self) -> list:
        errors = []
        if self.loss_kind not in LOSS_KINDS:
            errors.append(f"disc.loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.horizon < 1:
            errors.append("disc.horizon must be >= 1")
        if self.w_loss <= 0:
            errors.append("disc.w_loss must be > 0")
        if self.w_gp < 0:
            errors.append("disc.w_gp must be >= 0")
        if self.learning_rate <= 0:
            errors.append("disc.learning_rate must be > 0")
        if self.minibatches < 1:
            errors.append("disc.minibatches must be >= 1")
        if self.minibatch_size < 1:
            errors.append("disc.minibatch_size must be >= 1")
        return errors


def build_discriminator(cfg: DiscriminatorConfig, rng: np.random.Generator) -> MlpNet:
    sizes = [cfg.input_dim, *cfg.hidden_sizes, 1]
    return MlpNet.create(sizes, activation="relu", rng=rng)


@dataclass
class DiscLossResult:
    total: float
    main_term: float   # mean-separation (wgan) or least-squares (lsgan) part
    gp_term: float
    grads: np.ndarray = field(repr=False, default=None)


def _as_batch(windows: np.ndarray, input_dim: int) -> np.ndarray:
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != input_dim:
        raise ValueError(f"window batch has shape {w.shape}, expected (B, {input_dim})")
    return w


def raw_score(net: MlpNet, windows: np.ndarray,
              cache: ForwardCache | None = None) -> np.ndarray:
    """Discriminator output (B,) for a batch of windows (B, D), such as one
    rollout step's (E, D). With a ``cache`` the scores are a view of it."""
    y, _ = net.forward(windows, cache)
    return y[..., 0]


def discriminator_loss(net: MlpNet, ref_batch, pol_batch,
                       cfg: DiscriminatorConfig,
                       ref_cache: ForwardCache | None = None,
                       pol_cache: ForwardCache | None = None) -> DiscLossResult:
    """Discriminator objective of ``cfg.loss_kind`` with its parameter
    gradients, plus the reference gradient penalty shared by both kinds:

      wgan:   main = w_loss * (-mean D(ref) + mean D(pol))
      lsgan:  main = mean (D(ref) - 1)^2 + mean (D(pol) + 1)^2
      total = main + w_gp * mean_ref ||d D/d input||^2

    Every array it writes belongs to the forward caches of the two batches,
    new ones by default; kept ones overwrite the gradients when next used.
    """
    if cfg.loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {cfg.loss_kind!r}")
    ref = _as_batch(ref_batch, net.layer_sizes[0])
    pol = _as_batch(pol_batch, net.layer_sizes[0])
    if ref.shape[0] == 0 or pol.shape[0] == 0:
        raise ValueError("batches must be non-empty")

    y_ref, cache_ref = net.forward(ref, ref_cache)
    y_pol, cache_pol = net.forward(pol, pol_cache)
    if cfg.loss_kind == "wgan":
        main = cfg.w_loss * (-float(y_ref.mean()) + float(y_pol.mean()))
        dy_ref = np.full_like(y_ref, -cfg.w_loss / ref.shape[0])
        dy_pol = np.full_like(y_pol, cfg.w_loss / pol.shape[0])
    else:
        res_ref = y_ref - 1.0
        res_pol = y_pol + 1.0
        main = float((res_ref ** 2).mean()) + float((res_pol ** 2).mean())
        dy_ref = 2.0 * res_ref / ref.shape[0]
        dy_pol = 2.0 * res_pol / pol.shape[0]

    # the policy batch's gradients, and then the penalty's, go into ``other``
    n = (net.num_params(),)
    grads = net.backward(cache_ref, dy_ref, out=cache_ref.array("grads", n))
    other = cache_ref.array("other_grads", n)
    grads += net.backward(cache_pol, dy_pol, out=other)

    gp_value = 0.0
    if cfg.w_gp != 0.0:
        gp_value, gp_grads = net.input_gradient_norm_grads(
            cache_ref, coef=cfg.w_gp / ref.shape[0], out=other)
        grads += gp_grads

    return DiscLossResult(total=main + gp_value, main_term=main, gp_term=gp_value,
                          grads=grads)


def reference_input(windows: np.ndarray, full_state: bool) -> np.ndarray:
    """Discriminator input (B, H * frame_dim) of base-only reference windows
    (B, H, 6). A full-state discriminator sees their joint features as
    zeros: demonstrations never carry joints."""
    b, h, f = windows.shape
    if not full_state:
        return windows.reshape(b, -1)
    out = np.zeros((b, h, f + FULL_STATE_EXTRA), dtype=np.float64)
    out[:, :, :f] = windows
    return out.reshape(b, -1)
