import numpy as np

from planarmimic.analyze import (reference_window_rewards, reward_surface,
                                 rollout_reward_histogram)
from planarmimic.rewards import STATS_WARMUP
from planarmimic.trainer import Trainer

from test_trainer import tiny_config, tiny_dataset


def test_histogram_leaves_the_reward_statistics_alone():
    # under wgan, collecting folds fresh scores into the running statistics;
    # the exported rewards must all use the checkpoint's statistics
    cfg = tiny_config(loss="wgan")
    trainer = Trainer(cfg, tiny_dataset(cfg))
    while trainer.imitation.count <= STATS_WARMUP:
        trainer.train_iteration()
    stats = dict(vars(trainer.imitation))
    ref_rewards = reference_window_rewards(trainer)
    surface = reward_surface(trainer, grid_n=5)
    rollout_reward_histogram(trainer)
    assert vars(trainer.imitation) == stats
    assert np.array_equal(reference_window_rewards(trainer), ref_rewards)
    assert np.array_equal(reward_surface(trainer, grid_n=5), surface)


def test_exports_pay_zero_before_warmup():
    # a wgan trainer whose statistics have not warmed up pays 0 for every
    # score in training, and the exports show that same map
    cfg = tiny_config(loss="wgan")
    trainer = Trainer(cfg, tiny_dataset(cfg))
    assert trainer.imitation.count < STATS_WARMUP
    assert np.all(reference_window_rewards(trainer) == 0.0)
    assert np.all(reward_surface(trainer, grid_n=5)[:, 2] == 0.0)
    histogram = rollout_reward_histogram(trainer)
    assert trainer.imitation.count == 0
    assert np.all(histogram == 0.0)
    record = trainer.train_iteration()
    assert record["imitation_mean"] == 0.0
