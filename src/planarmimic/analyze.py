"""Post-hoc analysis exports: imitation-reward surfaces over (pitch rate,
height) and reward histograms over a rollout batch. Everything is written as
CSV so any external plotter can render the figures."""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

import numpy as np

from .core import ReferenceDataset, sample_reference_windows
from .discriminator import pad_windows_full_state, raw_score


def reward_surface(trainer, grid_n: int = 101,
                   pitch_rate_range=(-12.0, 12.0),
                   height_range=(0.0, 0.8)) -> np.ndarray:
    """Imitation reward on a (pitch_rate, height) grid.

    Every window frame is pinned to the dataset feature means except the two
    swept features, which are held constant across the window. Returns rows of
    (pitch_rate, height, reward), grid_n^2 of them.
    """
    cfg = trainer.cfg
    means = trainer.dataset.feature_means()
    H = cfg.disc.horizon
    pr_values = np.linspace(*pitch_rate_range, grid_n)
    h_values = np.linspace(*height_range, grid_n)

    rows = np.empty((grid_n * grid_n, 3))
    windows = np.tile(means, (grid_n, H, 1))
    k = 0
    for pr in pr_values:
        windows[:, :, 2] = pr
        windows[:, :, 5] = h_values[:, None]
        flat = windows.reshape(grid_n, -1)
        if cfg.disc.full_state:
            flat = pad_windows_full_state(flat, H)
        scores = raw_score(trainer.disc, flat)
        rewards = trainer.imitation_reward_of_scores(scores)
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
    n_samples = min(n_samples, trainer.dataset.total_frames())
    windows = sample_reference_windows(trainer.dataset, n_samples,
                                       cfg.disc.horizon, rng)
    flat = windows.reshape(n_samples, -1)
    if cfg.disc.full_state:
        flat = pad_windows_full_state(flat, cfg.disc.horizon)
    return trainer.imitation_reward_of_scores(raw_score(trainer.disc, flat))


def rollout_reward_histogram(trainer) -> np.ndarray:
    """Per-sample imitation rewards over one fresh rollout batch.

    The batch is collected against a copy of the trainer's running
    statistics, so its scores never reach ``trainer.stats``: every reward
    this module exports is normalized with the same statistics.
    """
    collector = trainer.collector
    collector.stats = dataclasses.replace(trainer.stats)
    try:
        buf = collector.collect(trainer.policy, trainer.value_net, trainer.disc)
    finally:
        collector.stats = trainer.stats
    return trainer.imitation_reward_of_scores(buf.scores.reshape(-1))


def write_surface_csv(path, rows: np.ndarray) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["pitch_rate", "height", "reward"])
        for pr, h, r in rows:
            writer.writerow([repr(float(pr)), repr(float(h)), repr(float(r))])


def write_histogram_csv(path, values: np.ndarray, label: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["source", "reward"])
        for v in np.asarray(values).reshape(-1):
            writer.writerow([label, repr(float(v))])


def write_alignment_csv(path, query, reference, alignment, local_costs) -> None:
    """Alignment export: one row per matched (query, reference) index pair."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["query_index", "reference_index", "local_cost"])
        for qi, ri in alignment:
            writer.writerow([qi, ri, repr(float(local_costs[qi, ri]))])
