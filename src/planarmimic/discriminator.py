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
from .nets import Grads, MlpNet

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
    epochs_per_iter: int = 1
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
        if self.epochs_per_iter < 1:
            errors.append("disc.epochs_per_iter must be >= 1")
        if self.minibatches < 1:
            errors.append("disc.minibatches must be >= 1")
        return errors


def build_discriminator(cfg: DiscriminatorConfig, rng: np.random.Generator) -> MlpNet:
    sizes = [cfg.input_dim, *cfg.hidden_sizes, 1]
    return MlpNet.create(sizes, activation="relu", rng=rng)


@dataclass
class DiscLossResult:
    total: float
    main_term: float   # mean-separation (wgan) or least-squares (lsgan) part
    gp_term: float
    grads: Grads = field(repr=False, default=None)


def _as_batch(windows: np.ndarray, input_dim: int) -> np.ndarray:
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim == 1:
        w = w[None, :]
    if w.ndim == 3:  # (B, H, F) stacks are accepted and flattened time-major
        w = w.reshape(w.shape[0], -1)
    if w.shape[1] != input_dim:
        raise ValueError(f"window batch has {w.shape[1]} features, expected {input_dim}")
    return w


def raw_score(net: MlpNet, windows: np.ndarray) -> np.ndarray:
    """Discriminator output for a window or a batch of windows."""
    w = _as_batch(windows, net.layer_sizes[0])
    y, _ = net.forward(w)
    return y[:, 0]


def input_gradient_norm2(net: MlpNet, window: np.ndarray) -> float:
    """Squared L2 norm of d(score)/d(input) at one window, analytically."""
    w = _as_batch(window, net.layer_sizes[0])
    if w.shape[0] != 1:
        raise ValueError("input_gradient_norm2 expects a single window")
    _, cache = net.forward(w)
    g = net.input_gradients(cache)
    return float((g * g).sum())


def discriminator_loss(net: MlpNet, ref_batch, pol_batch,
                       cfg: DiscriminatorConfig) -> DiscLossResult:
    """Discriminator objective of ``cfg.loss_kind`` with its parameter
    gradients, plus the reference gradient penalty shared by both kinds:

      wgan:   main = w_loss * (-mean D(ref) + mean D(pol))
      lsgan:  main = mean (D(ref) - 1)^2 + mean (D(pol) + 1)^2
      total = main + w_gp * mean_ref ||d D/d input||^2
    """
    if cfg.loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {cfg.loss_kind!r}")
    ref = _as_batch(ref_batch, net.layer_sizes[0])
    pol = _as_batch(pol_batch, net.layer_sizes[0])
    if ref.shape[0] == 0 or pol.shape[0] == 0:
        raise ValueError("batches must be non-empty")

    y_ref, cache_ref = net.forward(ref)
    y_pol, cache_pol = net.forward(pol)
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

    grads = net.backward(cache_ref, dy_ref)
    grads.d_input = None  # parameter gradients only: batches differ in size
    grads.add_(net.backward(cache_pol, dy_pol))

    gp_value = 0.0
    if cfg.w_gp != 0.0:
        gp_value, gp_grads = net.input_gradient_norm_grads(
            cache_ref, coef=cfg.w_gp / ref.shape[0])
        grads.add_(gp_grads)

    return DiscLossResult(total=main + gp_value, main_term=main, gp_term=gp_value,
                          grads=grads)


def lsgan_imitation_reward(score):
    """Bounded reward mapping for the least-squares discriminator:
    max[0, 1 - 0.25 (score - 1)^2]. Scores at or below -1 (and at or above 3)
    land exactly on the 0 floor, which is where the least-squares variant
    stops carrying distance information."""
    score = np.asarray(score, dtype=np.float64)
    value = np.maximum(0.0, 1.0 - 0.25 * (score - 1.0) ** 2)
    return float(value) if value.ndim == 0 else value


def pad_windows_full_state(windows: np.ndarray, horizon: int) -> np.ndarray:
    """Zero-fill joint features of base-only reference windows so they can be
    fed to a full-state discriminator. (Demonstrations never carry joints.)"""
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim == 2:
        w = w.reshape(w.shape[0], horizon, -1)
    b, h, f = w.shape
    out = np.zeros((b, h, f + FULL_STATE_EXTRA), dtype=np.float64)
    out[:, :, :f] = w
    return out.reshape(b, -1)
