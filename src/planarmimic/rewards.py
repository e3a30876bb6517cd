"""Reward assembly: normalized imitation reward, termination penalty,
regularization penalties, and the handcrafted baseline task rewards."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Normalization only switches on once enough scores have been seen; before
# that the imitation reward is 0 so early gradients come from regularization.
STATS_WARMUP = 100


@dataclass
class RunningStats:
    """Single-pass (Welford) mean/variance tracker with a variance floor.

    Population variance; the floor keeps the normalizer sane for degenerate
    (constant) score streams.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    epsilon: float = 1e-6

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count > 0 else 0.0

    @property
    def std(self) -> float:
        return max(math.sqrt(self.variance), self.epsilon)

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("non-finite value rejected by running stats")
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def update_batch(self, values) -> None:
        for v in np.asarray(values, dtype=np.float64).reshape(-1):
            self.update(float(v))

    def normalize(self, score):
        return (np.asarray(score, dtype=np.float64) - self.mean) / self.std

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean, "m2": self.m2,
                "epsilon": self.epsilon}

    @classmethod
    def from_dict(cls, d: dict) -> "RunningStats":
        return cls(count=d["count"], mean=d["mean"], m2=d["m2"], epsilon=d["epsilon"])


def imitation_reward(score, stats: RunningStats, warmup: int = STATS_WARMUP):
    """Discriminator score normalized to zero mean / unit variance by the
    running statistics. Returns 0 until the stats have seen ``warmup`` scores."""
    if stats.count < warmup:
        score = np.asarray(score, dtype=np.float64)
        zero = np.zeros_like(score)
        return float(zero) if zero.ndim == 0 else zero
    value = stats.normalize(score)
    return float(value) if value.ndim == 0 else value


def termination_penalty(is_early_termination, gamma: float):
    """Return-scale penalty for collisions: -5 / (1 - gamma) on the terminal
    transition, 0 otherwise. The 5 is a high-probability lower bound on a
    unit-variance reward; the geometric factor converts it to return scale."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    flag = np.asarray(is_early_termination, dtype=np.float64)
    value = flag * (-5.0 / (1.0 - gamma))
    return float(value) if value.ndim == 0 else value


def total_reward(r_imitation, r_termination, r_regularization, w_imitation: float):
    value = w_imitation * (np.asarray(r_imitation, dtype=np.float64)
                           + np.asarray(r_termination, dtype=np.float64))
    value = value + np.asarray(r_regularization, dtype=np.float64)
    return float(value) if value.ndim == 0 else value


@dataclass
class RewardWeights:
    """Weights of the reward terms. Regularization weights are penalties and
    must be <= 0. ``w_pitch_rate`` is the planar stand-in for the out-of-plane
    angular/lateral velocity penalties that have no 2D counterpart; it
    defaults to off."""

    w_imitation: float = 1.0
    w_action_rate: float = -0.005
    w_joint_accel: float = -1.25e-8
    w_joint_torque: float = -1.25e-6
    w_pitch_rate: float = 0.0
    gamma: float = 0.99

    def validate(self) -> list:
        errors = []
        if not 0.0 < self.gamma < 1.0:
            errors.append("reward.gamma must be in (0, 1)")
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
    value = (weights.w_action_rate * ar + weights.w_joint_accel * qa
             + weights.w_joint_torque * qt + weights.w_pitch_rate * pr)
    return float(value) if value.ndim == 0 else value


# -- handcrafted baseline task rewards ---------------------------------------

STANDUP_WEIGHTS = (1.0, 3.0, 2.0)  # (pitch, height, front-feet-off-ground)
BACKFLIP_ANGLE_WEIGHT = 5.0


def handcrafted_standup_reward(pitch: float, height: float,
                               front_feet_contact: bool,
                               weights=STANDUP_WEIGHTS) -> float:
    """Stand-up shaping: reward nose-up pitch, height, and lifting the front
    feet off the ground."""
    w_pitch, w_height, w_clear = weights
    clear = 0.0 if front_feet_contact else 1.0
    return w_pitch * pitch + w_height * height + w_clear * clear


def handcrafted_backflip_reward(flight_traversed_angle: float, landed: bool,
                                weight: float = BACKFLIP_ANGLE_WEIGHT) -> float:
    """Flip shaping: the angle traversed while airborne, paid out only on the
    landing event. Callers pass the angle measured positive in the flip
    direction (backward rotation for this robot)."""
    if not landed:
        return 0.0
    return weight * flight_traversed_angle
