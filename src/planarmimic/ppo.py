"""On-policy learner: clipped-surrogate policy optimization with generalized
advantage estimation, an entropy bonus, and a KL-targeted adaptive learning
rate. Rollout collection builds the adversarial reward on the fly from
discriminator scores, the termination penalty, and the regularization terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BatchWindowBuffer, OBS_DIM
from .discriminator import DiscriminatorConfig, lsgan_imitation_reward, raw_score
from .nets import MlpNet, OptimizerState, optimizer_step
from .rewards import (RewardWeights, RunningStats, imitation_reward,
                      regularization_reward, termination_penalty, total_reward)

ACTION_DIM = 4
# per-frame policy features: base observation, joint pos/vel, previous action
POLICY_FRAME_DIM = OBS_DIM + 4 + 4 + ACTION_DIM
POLICY_FRAMES = 2
POLICY_OBS_DIM = POLICY_FRAMES * POLICY_FRAME_DIM

# observation-noise template per frame entry (scaled by ppo.obs_noise; off by
# default): velocities, pitch rate, gravity, height, joint pos, joint vel,
# previous action
OBS_NOISE_TEMPLATE = np.array(
    [0.2, 0.2, 0.05, 0.05, 0.05, 0.01] + [0.01] * 4 + [0.75] * 4 + [0.0] * 4)

LOG2PI = math.log(2.0 * math.pi)


@dataclass
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip: float = 0.2
    entropy_coef: float = 0.01
    epochs: int = 5
    minibatches: int = 4
    kl_target: float = 0.01
    steps_per_iter: int = 24
    num_envs: int = 16
    learning_rate: float = 5e-4
    adaptive_lr: bool = True
    max_grad_norm: float = 1.0
    init_log_std: float = 0.0
    obs_noise: float = 0.0
    hidden_sizes: tuple = (64, 64)

    def validate(self) -> list:
        errors = []
        if not 0.0 < self.gamma < 1.0:
            errors.append("ppo.gamma must be in (0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            errors.append("ppo.gae_lambda must be in [0, 1]")
        if self.clip <= 0:
            errors.append("ppo.clip must be > 0")
        if self.kl_target <= 0:
            errors.append("ppo.kl_target must be > 0")
        if self.epochs < 1 or self.minibatches < 1:
            errors.append("ppo.epochs and ppo.minibatches must be >= 1")
        if self.steps_per_iter < 1:
            errors.append("ppo.steps_per_iter must be >= 1")
        if self.num_envs < 1:
            errors.append("ppo.num_envs must be >= 1")
        if self.learning_rate < 0:
            errors.append("ppo.learning_rate must be >= 0")
        return errors


def adaptive_lr(current_lr: float, measured_kl: float, kl_target: float) -> float:
    """Shrink the rate when the update overshoots the KL target, grow it when
    the update is timid; clamp to a sane band."""
    new_lr = current_lr
    if measured_kl > 2.0 * kl_target:
        new_lr = current_lr / 1.5
    elif measured_kl < 0.5 * kl_target:
        new_lr = current_lr * 1.5
    return float(np.clip(new_lr, 1e-7, 1e-2))


def gae_advantages(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                   bootstrap_value: np.ndarray, gamma: float, lam: float):
    """Generalized advantage estimation over (T, E) arrays. ``dones`` cut the
    bootstrap at episode ends. Returns (advantages, returns)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if not (rewards.shape == values.shape == dones.shape):
        raise ValueError("rewards, values and dones must have matching shapes")
    T = rewards.shape[0]
    adv = np.zeros_like(rewards)
    next_value = np.asarray(bootstrap_value, dtype=np.float64)
    gae = np.zeros_like(next_value)
    for t in range(T - 1, -1, -1):
        not_done = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * not_done - values[t]
        gae = delta + gamma * lam * not_done * gae
        adv[t] = gae
        next_value = values[t]
    return adv, adv + values


class GaussianPolicy:
    """Diagonal-Gaussian action head: the network emits the mean, a learnable
    state-independent log-std sets the exploration scale."""

    def __init__(self, net: MlpNet, log_std: np.ndarray | None = None,
                 init_log_std: float = 0.0):
        self.net = net
        if log_std is None:
            out = net.layer_sizes[-1]
            log_std = np.full(out, float(init_log_std))
        self.log_std = np.asarray(log_std, dtype=np.float64)

    @property
    def action_dim(self) -> int:
        return self.log_std.shape[0]

    def params(self) -> list:
        return self.net.params() + [self.log_std]

    def mean_action(self, obs: np.ndarray) -> np.ndarray:
        y, _ = self.net.forward(obs)
        return y

    def sample(self, obs: np.ndarray, noise: np.ndarray):
        """Actions and log-probs for a batch, given externally drawn standard
        normal ``noise`` (per-env generators keep rollouts reproducible)."""
        mean, _ = self.net.forward(obs)
        std = np.exp(self.log_std)
        actions = mean + std * noise
        logp = self.log_prob(mean, actions)
        return actions, logp

    def log_prob(self, mean: np.ndarray, actions: np.ndarray) -> np.ndarray:
        std = np.exp(self.log_std)
        z = (actions - mean) / std
        return (-0.5 * (z * z).sum(axis=-1) - self.log_std.sum()
                - 0.5 * self.action_dim * LOG2PI)

    def entropy(self) -> float:
        return float(self.log_std.sum() + 0.5 * self.action_dim * (LOG2PI + 1.0))


@dataclass
class RolloutBuffer:
    """On-policy storage for one learning iteration, shaped (T, E, ...).
    Cleared (rebuilt) every iteration."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    windows: np.ndarray
    bootstrap_value: np.ndarray
    scores: np.ndarray
    r_imitation: np.ndarray
    r_regularization: np.ndarray
    r_termination: np.ndarray
    episode_lengths: list = field(default_factory=list)
    termination_count: int = 0

    @property
    def size(self) -> int:
        return self.obs.shape[0] * self.obs.shape[1]

    def flat_windows(self) -> np.ndarray:
        return self.windows.reshape(self.size, -1)


@dataclass
class PpoStats:
    kl: float
    clip_fraction: float
    policy_loss: float
    value_loss: float
    entropy: float
    learning_rate: float
    aborted: bool = False


class RolloutCollector:
    """Steps a vectorized environment with the current policy, assembles the
    observation windows the discriminator scores, and writes fully assembled
    rewards into a fresh buffer.

    Reward normalization statistics are consulted before being updated with
    the new scores, and only policy scores ever reach them.
    """

    def __init__(self, env, disc_cfg: DiscriminatorConfig, ppo_cfg: PpoConfig,
                 weights: RewardWeights, stats: RunningStats, seed: int = 0):
        self.env = env
        self.disc_cfg = disc_cfg
        self.ppo_cfg = ppo_cfg
        self.weights = weights
        self.stats = stats
        E = env.num_envs
        self.action_rngs = [np.random.default_rng(np.random.SeedSequence([seed, 1000 + i]))
                            for i in range(E)]
        self.window_buf = BatchWindowBuffer(E, disc_cfg.horizon, disc_cfg.frame_dim)
        self.prev_frame = np.zeros((E, POLICY_FRAME_DIM))
        self.cur_frame = np.zeros((E, POLICY_FRAME_DIM))
        self.prev_action = np.zeros((E, ACTION_DIM))
        self.prev_joint_vel = np.zeros((E, 4))
        self._init_rows(np.ones(E, dtype=bool))

    def _disc_frame(self) -> np.ndarray:
        feats = self.env.observation_features()
        if self.disc_cfg.full_state:
            feats = np.concatenate([feats, self.env.q, self.env.qd], axis=1)
        return feats

    def _policy_frame(self) -> np.ndarray:
        return np.concatenate([self.env.observation_features(), self.env.q,
                               self.env.qd, self.prev_action], axis=1)

    def _init_rows(self, mask: np.ndarray) -> None:
        self.prev_action[mask] = 0.0
        self.prev_joint_vel[mask] = self.env.qd[mask]
        frame = self._policy_frame()
        self.cur_frame[mask] = frame[mask]
        self.prev_frame[mask] = frame[mask]
        self.window_buf.reset_rows(mask, self._disc_frame())

    def policy_obs(self) -> np.ndarray:
        return np.concatenate([self.prev_frame, self.cur_frame], axis=1)

    def advance(self, actions: np.ndarray, live: np.ndarray) -> None:
        """Shift the ``live`` rows' policy history by one control step, after
        ``env.step(actions)``."""
        self.prev_action[live] = actions[live]
        self.prev_joint_vel[live] = self.env.qd[live]
        self.prev_frame[live] = self.cur_frame[live]
        self.cur_frame[live] = self._policy_frame()[live]

    def collect(self, policy: GaussianPolicy, value_net: MlpNet,
                disc_net: MlpNet) -> RolloutBuffer:
        cfg = self.ppo_cfg
        E = self.env.num_envs
        T = cfg.steps_per_iter
        shp = (T, E)
        buf = RolloutBuffer(
            obs=np.zeros((T, E, POLICY_OBS_DIM)),
            actions=np.zeros((T, E, ACTION_DIM)),
            log_probs=np.zeros(shp), values=np.zeros(shp),
            rewards=np.zeros(shp), dones=np.zeros(shp, dtype=bool),
            windows=np.zeros((T, E, self.disc_cfg.input_dim)),
            bootstrap_value=np.zeros(E),
            scores=np.zeros(shp), r_imitation=np.zeros(shp),
            r_regularization=np.zeros(shp), r_termination=np.zeros(shp))

        dt = self.env.params.control_dt
        use_lsgan = self.disc_cfg.loss_kind == "lsgan"
        for t in range(T):
            obs = self.policy_obs()
            if cfg.obs_noise > 0:
                for i in range(E):
                    eps = self.action_rngs[i].standard_normal(POLICY_FRAME_DIM * POLICY_FRAMES)
                    obs[i] += cfg.obs_noise * np.tile(OBS_NOISE_TEMPLATE, POLICY_FRAMES) * eps
            noise = np.stack([self.action_rngs[i].standard_normal(ACTION_DIM)
                              for i in range(E)])
            actions, logp = policy.sample(obs, noise)
            values, _ = value_net.forward(obs)

            result = self.env.step(actions)
            windows = self.window_buf.push(self._disc_frame())
            scores = raw_score(disc_net, windows)

            if use_lsgan:
                r_imit = lsgan_imitation_reward(scores)
            else:
                r_imit = imitation_reward(scores, self.stats)
                self.stats.update_batch(scores)
            r_term = termination_penalty(result.terminal, self.weights.gamma)
            r_reg = regularization_reward(
                actions, self.prev_action, self.env.qd, self.prev_joint_vel,
                result.joint_torques, self.env.om, dt, self.weights)
            rewards = total_reward(r_imit, r_term, r_reg, self.weights.w_imitation)

            dones = result.terminal | result.timeout
            buf.obs[t] = obs
            buf.actions[t] = actions
            buf.log_probs[t] = logp
            buf.values[t] = values[:, 0]
            buf.rewards[t] = rewards
            buf.dones[t] = dones
            buf.windows[t] = windows
            buf.scores[t] = scores
            buf.r_imitation[t] = r_imit
            buf.r_regularization[t] = r_reg
            buf.r_termination[t] = r_term

            buf.termination_count += int(result.terminal.sum())
            if dones.any():
                for i in np.nonzero(dones)[0]:
                    buf.episode_lengths.append(int(self.env.steps[i]))
                self.env.reset_rows(dones)
                self._init_rows(dones)
            self.advance(actions, ~dones)

        final_values, _ = value_net.forward(self.policy_obs())
        buf.bootstrap_value = final_values[:, 0]
        return buf

    def state_dict(self) -> dict:
        return {
            "windows": self.window_buf.state().tolist(),
            "prev_frame": self.prev_frame.tolist(),
            "cur_frame": self.cur_frame.tolist(),
            "prev_action": self.prev_action.tolist(),
            "prev_joint_vel": self.prev_joint_vel.tolist(),
            "action_rng_states": [r.bit_generator.state for r in self.action_rngs],
        }

    def load_state_dict(self, d: dict) -> None:
        self.window_buf.load_state(np.array(d["windows"], dtype=np.float64))
        self.prev_frame[...] = np.array(d["prev_frame"], dtype=np.float64)
        self.cur_frame[...] = np.array(d["cur_frame"], dtype=np.float64)
        self.prev_action[...] = np.array(d["prev_action"], dtype=np.float64)
        self.prev_joint_vel[...] = np.array(d["prev_joint_vel"], dtype=np.float64)
        for r, s in zip(self.action_rngs, d["action_rng_states"]):
            r.bit_generator.state = s


def _clip_grad_norm(grads: list, max_norm: float) -> None:
    if max_norm <= 0:
        return
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale


def ppo_update(policy: GaussianPolicy, value_net: MlpNet, buf: RolloutBuffer,
               cfg: PpoConfig, policy_opt: OptimizerState,
               value_opt: OptimizerState, rng: np.random.Generator) -> PpoStats:
    """Run the clipped-surrogate update over the buffer.

    Runs ``epochs`` passes of shuffled minibatches; the learning rate adapts
    toward the KL target after each epoch. A non-finite loss aborts the whole
    update and restores the pre-update parameters.
    """
    B = buf.size
    obs = buf.obs.reshape(B, -1)
    actions = buf.actions.reshape(B, -1)
    logp_old = buf.log_probs.reshape(B)
    adv, returns = gae_advantages(buf.rewards, buf.values, buf.dones,
                                  buf.bootstrap_value, cfg.gamma, cfg.gae_lambda)
    adv = adv.reshape(B)
    returns = returns.reshape(B)
    adv_std = adv.std()
    adv_norm = (adv - adv.mean()) / (adv_std + 1e-8)

    snapshot = ([p.copy() for p in policy.params()],
                [p.copy() for p in value_net.params()])

    kls, clip_fracs, pol_losses, val_losses = [], [], [], []
    aborted = False
    for _ in range(cfg.epochs):
        order = rng.permutation(B)
        epoch_kls = []
        for chunk in np.array_split(order, cfg.minibatches):
            mb_obs = obs[chunk]
            mb_act = actions[chunk]
            mb_adv = adv_norm[chunk]
            mb_ret = returns[chunk]
            mb_logp_old = logp_old[chunk]
            n = chunk.shape[0]

            mean, cache = policy.net.forward(mb_obs)
            std = np.exp(policy.log_std)
            zscore = (mb_act - mean) / std
            logp = (-0.5 * (zscore * zscore).sum(axis=1)
                    - policy.log_std.sum() - 0.5 * policy.action_dim * LOG2PI)
            log_ratio = logp - mb_logp_old
            ratio = np.exp(log_ratio)
            unclipped = ratio * mb_adv
            clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * mb_adv
            pol_loss = -float(np.minimum(unclipped, clipped).mean())
            entropy = policy.entropy()
            kl = float(((ratio - 1.0) - log_ratio).mean())

            v, vcache = value_net.forward(mb_obs)
            v = v[:, 0]
            val_loss = float(((v - mb_ret) ** 2).mean())

            if not (math.isfinite(pol_loss) and math.isfinite(val_loss)
                    and math.isfinite(kl)):
                aborted = True
                break

            # d loss / d logp: gradient flows only where the unclipped branch
            # is the active minimum
            active = (unclipped <= clipped).astype(np.float64)
            dlogp = -(mb_adv * ratio * active) / n
            dmean = (dlogp[:, None] * zscore / std)
            grads = policy.net.backward(cache, dmean)
            dlog_std = (dlogp[:, None] * (zscore * zscore - 1.0)).sum(axis=0)
            dlog_std -= cfg.entropy_coef  # entropy bonus, dH/dlog_std = 1
            pol_grads = grads.as_list() + [dlog_std]
            _clip_grad_norm(pol_grads, cfg.max_grad_norm)
            optimizer_step(policy_opt, policy.params(), pol_grads)

            dv = (2.0 * (v - mb_ret) / n)[:, None]
            vgrads = value_net.backward(vcache, dv)
            val_grads = vgrads.as_list()
            _clip_grad_norm(val_grads, cfg.max_grad_norm)
            optimizer_step(value_opt, value_net.params(), val_grads)

            epoch_kls.append(kl)
            kls.append(kl)
            clip_fracs.append(float((np.abs(ratio - 1.0) > cfg.clip).mean()))
            pol_losses.append(pol_loss - cfg.entropy_coef * entropy)
            val_losses.append(val_loss)
        if aborted:
            break
        if cfg.adaptive_lr and policy_opt.learning_rate > 0 and epoch_kls:
            new_lr = adaptive_lr(policy_opt.learning_rate,
                                 float(np.mean(epoch_kls)), cfg.kl_target)
            policy_opt.learning_rate = new_lr
            value_opt.learning_rate = new_lr

    if aborted:
        for p, saved in zip(policy.params(), snapshot[0]):
            p[...] = saved
        for p, saved in zip(value_net.params(), snapshot[1]):
            p[...] = saved
        return PpoStats(kl=float("nan"), clip_fraction=0.0, policy_loss=float("nan"),
                        value_loss=float("nan"), entropy=policy.entropy(),
                        learning_rate=policy_opt.learning_rate, aborted=True)

    return PpoStats(
        kl=float(np.mean(kls)) if kls else 0.0,
        clip_fraction=float(np.mean(clip_fracs)) if clip_fracs else 0.0,
        policy_loss=float(np.mean(pol_losses)) if pol_losses else 0.0,
        value_loss=float(np.mean(val_losses)) if val_losses else 0.0,
        entropy=policy.entropy(),
        learning_rate=policy_opt.learning_rate)
