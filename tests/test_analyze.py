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
    while trainer.stats.count <= STATS_WARMUP:
        trainer.train_iteration()
    stats = trainer.stats.to_dict()
    ref_rewards = reference_window_rewards(trainer)
    surface = reward_surface(trainer, grid_n=5)
    rollout_reward_histogram(trainer)
    assert trainer.stats.to_dict() == stats
    assert trainer.collector.stats is trainer.stats
    assert np.array_equal(reference_window_rewards(trainer), ref_rewards)
    assert np.array_equal(reward_surface(trainer, grid_n=5), surface)
