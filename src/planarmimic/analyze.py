"""Post-hoc analysis exports: imitation-reward surfaces over (pitch rate,
height) and reward histograms over a rollout batch. Every reward is the
trainer's ``imitation`` map at its checkpoint's statistics, the map training
pays with (so a wgan trainer still in warm-up exports zeros). Everything is
written as CSV so any external plotter can render the figures."""

from __future__ import annotations

import copy

import numpy as np

from .core import sample_reference_windows
from .discriminator import raw_score


def reward_surface(trainer, grid_n: int = 101,
                   pitch_rate_range=(-12.0, 12.0),
                   height_range=(0.0, 0.8)) -> np.ndarray:
    """Imitation reward on a (pitch_rate, height) grid.

    Every window frame is pinned to the dataset feature means except the two
    swept features, which are held constant across the window. Returns rows of
    (pitch_rate, height, reward), grid_n^2 of them.
    """
    cfg = trainer.cfg
    means = trainer.dataset.frames.mean(axis=0)
    H = cfg.disc.horizon
    pr_values = np.linspace(*pitch_rate_range, grid_n)
    h_values = np.linspace(*height_range, grid_n)

    rows = np.empty((grid_n * grid_n, 3))
    windows = np.tile(means, (grid_n, H, 1))
    k = 0
    for pr in pr_values:
        windows[:, :, 2] = pr
        windows[:, :, 5] = h_values[:, None]
        scores = raw_score(trainer.disc, windows.reshape(grid_n, -1))
        rewards = trainer.imitation(scores)
        rows[k:k + grid_n, 0] = pr
        rows[k:k + grid_n, 1] = h_values
        rows[k:k + grid_n, 2] = rewards
        k += grid_n
    return rows


def reference_window_rewards(trainer, n_samples: int = 512,
                             seed: int = 0) -> np.ndarray:
    """Imitation rewards of windows sampled from the reference dataset."""
    cfg = trainer.cfg
    rng = np.random.default_rng(seed)
    n_samples = min(n_samples, len(trainer.dataset.frames))
    windows = sample_reference_windows(trainer.dataset, n_samples,
                                       cfg.disc.horizon, rng)
    return trainer.imitation(raw_score(trainer.disc, windows.reshape(n_samples, -1)))


def rollout_reward_histogram(trainer) -> np.ndarray:
    """Per-sample imitation rewards over one fresh rollout batch.

    The batch pays its rewards with a copy of the trainer's imitation map, so
    its scores never reach the trainer's statistics: every reward this module
    exports is normalized with the same statistics.
    """
    buf = trainer.collector.collect(trainer.policy, trainer.value_net, trainer.disc,
                                    copy.deepcopy(trainer.imitation))
    return trainer.imitation(buf.scores.reshape(-1))

