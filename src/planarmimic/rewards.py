"""Reward assembly: the imitation reward, termination penalty,
regularization penalties, and the handcrafted baseline task rewards.

``ImitationReward`` is the one place a discriminator score becomes an
imitation reward: the least-squares critic's bounded map, or the Wasserstein
critic's score normalized by the running statistics of the policy scores,
which it holds and alone updates. Every other function here is elementwise
over arrays of any shape."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Normalization only switches on once enough scores have been seen; before
# that the imitation reward is 0 so early gradients come from regularization.
STATS_WARMUP = 100
# The normalizer's std never drops below this, so a constant score stream
# keeps it finite.
STD_FLOOR = 1e-6


class ImitationReward:
    """Maps discriminator scores to imitation rewards, by the loss kind.

    * ``lsgan``: the bounded map max[0, 1 - 0.25 (score - 1)^2] (AMP). Scores
      at or below -1 (and at or above 3) land exactly on the 0 floor, where
      the least-squares critic stops carrying distance information.
    * ``wgan``: the score normalized to zero mean and unit variance by the
      running (Welford) statistics of every policy score paid so far:
      ``count``, ``mean`` and ``m2``, the sum of squared deviations, so the
      std is the population one, floored at ``STD_FLOOR``. The reward is 0
      until they have seen ``STATS_WARMUP`` scores.

    Calling it only reads the statistics; ``pay`` is the one writer.
    """

    def __init__(self, loss_kind: str):
        self.loss_kind = loss_kind
        self.count, self.mean, self.m2 = 0, 0.0, 0.0

    def __call__(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64)
        if self.loss_kind == "lsgan":
            return np.maximum(0.0, 1.0 - 0.25 * (scores - 1.0) ** 2)
        if self.count < STATS_WARMUP:
            return np.zeros_like(scores)
        return (scores - self.mean) / max(math.sqrt(self.m2 / self.count), STD_FLOOR)

    def pay(self, scores: np.ndarray) -> np.ndarray:
        """Rewards of a (T, E) rollout's policy scores. Row by row, each
        row's rewards are read from the statistics first, then its scores
        are folded into them in order, one Welford step each (wgan; the
        lsgan map has no statistics). A row holding a non-finite score
        raises ``ValueError`` before any of it is folded."""
        if self.loss_kind == "lsgan":
            return self(scores)
        rewards = np.empty_like(scores)
        for t, row in enumerate(scores):
            rewards[t] = self(row)
            if not np.isfinite(row).all():
                raise ValueError("non-finite score rejected by the imitation reward")
            for value in row.tolist():
                self.count += 1
                delta = value - self.mean
                self.mean += delta / self.count
                self.m2 += delta * (value - self.mean)
        return rewards


def termination_penalty(is_early_termination, gamma: float):
    """Return-scale penalty for collisions: -5 / (1 - gamma) on the terminal
    transition, 0 otherwise. The 5 is a high-probability lower bound on a
    unit-variance reward; the geometric factor converts it to return scale."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    flag = np.asarray(is_early_termination, dtype=np.float64)
    return flag * (-5.0 / (1.0 - gamma))


def total_reward(r_imitation, r_termination, r_regularization, w_imitation: float):
    value = w_imitation * (np.asarray(r_imitation, dtype=np.float64)
                           + np.asarray(r_termination, dtype=np.float64))
    return value + np.asarray(r_regularization, dtype=np.float64)


@dataclass
class RewardWeights:
    """Weights of the reward terms. ``w_imitation`` must be >= 0, and the
    regularization weights are penalties and must be <= 0. ``w_pitch_rate``
    is the planar stand-in for the out-of-plane angular/lateral velocity
    penalties that have no 2D counterpart; it defaults to off."""

    w_imitation: float = 1.0
    w_action_rate: float = -0.005
    w_joint_accel: float = -1.25e-8
    w_joint_torque: float = -1.25e-6
    w_pitch_rate: float = 0.0

    def validate(self) -> list:
        errors = []
        if not self.w_imitation >= 0:
            errors.append("reward.w_imitation must be >= 0")
        for name in ("w_action_rate", "w_joint_accel", "w_joint_torque", "w_pitch_rate"):
            if getattr(self, name) > 0:
                errors.append(f"reward.{name} must be <= 0 (penalty weight)")
        return errors


def regularization_reward(action, prev_action, joint_vel, prev_joint_vel,
                          torques, pitch_rate, dt: float,
                          weights: RewardWeights):
    """Task-agnostic penalties: action rate, joint acceleration, joint torque,
    and the planar pitch-rate knob. Accepts (4,) vectors or (E, 4) batches."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    action = np.asarray(action, dtype=np.float64)
    prev_action = np.asarray(prev_action, dtype=np.float64)
    joint_vel = np.asarray(joint_vel, dtype=np.float64)
    prev_joint_vel = np.asarray(prev_joint_vel, dtype=np.float64)
    torques = np.asarray(torques, dtype=np.float64)
    pitch_rate = np.asarray(pitch_rate, dtype=np.float64)

    ar = ((action - prev_action) ** 2).sum(axis=-1)
    qa = (((joint_vel - prev_joint_vel) / dt) ** 2).sum(axis=-1)
    qt = (torques ** 2).sum(axis=-1)
    pr = pitch_rate ** 2
    return (weights.w_action_rate * ar + weights.w_joint_accel * qa
            + weights.w_joint_torque * qt + weights.w_pitch_rate * pr)


# -- handcrafted baseline task rewards ---------------------------------------

STANDUP_WEIGHTS = (1.0, 3.0, 2.0)  # (pitch, height, front-feet-off-ground)
BACKFLIP_ANGLE_WEIGHT = 5.0


def handcrafted_standup_reward(pitch, height, front_feet_contact,
                               weights=STANDUP_WEIGHTS) -> np.ndarray:
    """Stand-up shaping: reward nose-up pitch, height, and lifting the front
    feet off the ground."""
    w_pitch, w_height, w_clear = weights
    clear = np.where(front_feet_contact, 0.0, 1.0)
    return w_pitch * pitch + w_height * height + w_clear * clear


def handcrafted_backflip_reward(flight_traversed_angle, landed,
                                weight: float = BACKFLIP_ANGLE_WEIGHT) -> np.ndarray:
    """Flip shaping: the angle traversed while airborne, paid out only on the
    landing event. Callers pass the angle measured positive in the flip
    direction (backward rotation for this robot)."""
    return np.where(landed, weight * flight_traversed_angle, 0.0)
