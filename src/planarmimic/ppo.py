"""On-policy learner: clipped-surrogate policy optimization with generalized
advantage estimation, an entropy bonus, and a KL-targeted adaptive learning
rate. Rollout collection builds the adversarial reward from discriminator
scores (through the trainer's ``rewards.ImitationReward``), the termination
penalty, and the regularization terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BatchWindowBuffer, OBS_DIM
from .discriminator import DiscriminatorConfig, raw_score
from .nets import (ForwardCache, MlpNet, OptimizerState, clip_grad_norm,
                   optimizer_step)
from .rewards import (ImitationReward, RewardWeights, regularization_reward,
                      termination_penalty, total_reward)

ACTION_DIM = 4
# per-frame policy features: base observation, joint pos/vel, the action that
# led to the frame; a discriminator frame is a column prefix of it
POLICY_FRAME_DIM = OBS_DIM + 4 + 4 + ACTION_DIM
JOINT_VEL = slice(OBS_DIM + 4, OBS_DIM + 8)
ACTION = slice(OBS_DIM + 8, POLICY_FRAME_DIM)
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
        if self.minibatches > self.num_envs * self.steps_per_iter:
            # an empty minibatch has a NaN loss, which aborts every update
            errors.append("ppo.minibatches must be <= ppo.num_envs * ppo.steps_per_iter")
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
    state-independent log-std sets the exploration scale.

    The parameters are one vector ``flat`` in the layout ``shapes``: the
    net's parameters, then ``log_std``. ``self.net`` and ``self.log_std``
    are views into it."""

    def __init__(self, net: MlpNet, log_std=None, init_log_std: float = 0.0):
        """A policy over a copy of ``net``'s parameters."""
        n = net.num_params()
        flat = np.empty(n + net.layer_sizes[-1])
        flat[:n] = net.flat
        flat[n:] = init_log_std if log_std is None else log_std
        self._adopt(net.layer_sizes, net.activation, flat)

    @classmethod
    def from_flat(cls, layer_sizes, activation: str,
                  flat: np.ndarray) -> "GaussianPolicy":
        """A policy whose parameters are ``flat`` itself, not a copy."""
        policy = cls.__new__(cls)
        policy._adopt(layer_sizes, activation, flat)
        return policy

    def _adopt(self, layer_sizes, activation, flat) -> None:
        # the net's layout checks the length, as the log-std takes the rest
        self.flat = flat
        self.net = MlpNet(layer_sizes, activation, flat[:-layer_sizes[-1]])
        self.log_std = flat[-layer_sizes[-1]:]
        self.shapes = self.net.shapes + [self.log_std.shape]

    @property
    def action_dim(self) -> int:
        return self.log_std.shape[0]

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


class PolicyHistory:
    """The frames each row of a vectorized environment has seen, newest
    last: one ``BatchWindowBuffer`` of ``max(horizon, POLICY_FRAMES)``
    policy frames. A policy frame is the base observation, the joint
    positions and rates, and the action that led to it (zero after a
    reset). Every reader takes a slice of it: the policy observation is the
    last ``POLICY_FRAMES`` frames, a critic window is the first
    ``frame_dim`` columns of the last ``horizon`` frames, and the previous
    action and joint rates the regularizer reads are columns of the last
    frame."""

    def __init__(self, env, horizon: int = 1):
        self.env = env
        self.frames = BatchWindowBuffer(env.num_envs, max(horizon, POLICY_FRAMES),
                                        POLICY_FRAME_DIM)
        self.reset_rows(np.ones(env.num_envs, dtype=bool))

    def _frame(self, actions: np.ndarray) -> np.ndarray:
        env = self.env
        return np.concatenate([env.observation_features(), env.q, env.qd, actions],
                              axis=1)

    def reset_rows(self, mask: np.ndarray) -> None:
        """Start the ``mask`` rows' history over, after the env reset them."""
        self.frames.reset_rows(
            mask, self._frame(np.zeros((self.env.num_envs, ACTION_DIM))))

    def advance(self, actions: np.ndarray) -> None:
        """Push every row's frame after ``env.step(actions)``."""
        self.frames.push(self._frame(actions))

    def obs(self, out: np.ndarray | None = None) -> np.ndarray:
        """The policy's observation (E, POLICY_OBS_DIM): the last
        ``POLICY_FRAMES`` frames, oldest first."""
        last = self.frames.last(POLICY_FRAMES)
        return np.concatenate([last[:, k] for k in range(POLICY_FRAMES)], axis=1,
                              out=out)


class RolloutCollector:
    """Steps a vectorized environment with the current policy, cuts the
    observation windows the discriminator scores from the policy history,
    and writes fully assembled rewards into a fresh buffer.

    The step loop does only what the next step reads: sample the policy,
    step the env, advance the history of every row, and then reset the
    finished rows, whose history starts over in every slot. It records the
    rest, and after the loop the values and the scores come from one forward
    of each step's (E, ·) batch, and the rewards are assembled over the whole
    (T, E) rollout. Every value is the one a step-by-step collection
    computes, byte for byte (the tests keep that loop as the oracle): each
    forward is its step's own, and the reward terms are elementwise. The
    forward caches, kept from one rollout to the next, hold E-row arrays
    only; a stacked (T, E, ·) forward gives the same bytes but keeps T
    times the memory. The imitation rewards come from ``imitation.pay``, so
    only policy scores reach its statistics, each step's after that step's
    rewards are read.
    """

    def __init__(self, env, disc_cfg: DiscriminatorConfig, ppo_cfg: PpoConfig,
                 weights: RewardWeights, seed: int = 0):
        self.env = env
        self.disc_cfg = disc_cfg
        self.ppo_cfg = ppo_cfg
        self.weights = weights
        self.action_rngs = [np.random.default_rng(np.random.SeedSequence([seed, 1000 + i]))
                            for i in range(env.num_envs)]
        self.history = PolicyHistory(env, disc_cfg.horizon)
        # the forwards' arrays, kept from one step and one rollout to the next
        self._policy_cache, self._value_cache, self._disc_cache = (
            ForwardCache(), ForwardCache(), ForwardCache())

    def _window(self) -> np.ndarray:
        """A view of every row's critic window, (E, horizon, frame_dim)."""
        return self.history.frames.last(self.disc_cfg.horizon, self.disc_cfg.frame_dim)

    def _draw_noise(self, T: int) -> tuple:
        """The standard normal draws of a T-step rollout, (T, E, n) each:
        the observation noise (None when it is off) and the action noise.
        Each row's generator draws all its steps at once, which gives the
        values and the final state of drawing step by step, the observation
        noise of a step before its action noise."""
        obs_dim = POLICY_OBS_DIM if self.ppo_cfg.obs_noise > 0 else 0
        eps = np.stack([rng.standard_normal((T, obs_dim + ACTION_DIM))
                        for rng in self.action_rngs], axis=1)
        if not obs_dim:
            return None, eps
        scale = self.ppo_cfg.obs_noise * np.tile(OBS_NOISE_TEMPLATE, POLICY_FRAMES)
        return scale * eps[..., :obs_dim], eps[..., obs_dim:]

    def collect(self, policy: GaussianPolicy, value_net: MlpNet,
                disc_net: MlpNet, imitation: ImitationReward) -> RolloutBuffer:
        env, hist = self.env, self.history
        E = env.num_envs
        T = self.ppo_cfg.steps_per_iter
        obs_noise, action_noise = self._draw_noise(T)
        obs = np.empty((T + 1, E, POLICY_OBS_DIM))   # the last row bootstraps
        means = np.empty((T, E, ACTION_DIM))
        actions = np.empty((T, E, ACTION_DIM))
        windows = np.empty((T, E, self.disc_cfg.horizon, self.disc_cfg.frame_dim))
        # what the rewards read of each step
        prev_actions, prev_joint_vel, joint_vel, torques = (
            np.empty((T, E, 4)) for _ in range(4))
        pitch_rate = np.empty((T, E))
        terminal = np.empty((T, E), dtype=bool)
        dones = np.empty((T, E), dtype=bool)
        episode_lengths = []
        std = np.exp(policy.log_std)

        for t in range(T):
            hist.obs(out=obs[t])
            if obs_noise is not None:
                obs[t] += obs_noise[t]
            mean, _ = policy.net.forward(obs[t], self._policy_cache)
            means[t] = mean
            np.add(mean, np.multiply(std, action_noise[t], out=actions[t]),
                   out=actions[t])
            last = hist.frames.last(1)[:, 0]
            prev_actions[t] = last[:, ACTION]
            prev_joint_vel[t] = last[:, JOINT_VEL]

            result = env.step(actions[t])
            joint_vel[t] = env.qd
            pitch_rate[t] = env.om
            torques[t] = result.joint_torques
            terminal[t] = result.terminal
            hist.advance(actions[t])
            windows[t] = self._window()

            done = np.logical_or(result.terminal, result.timeout, out=dones[t])
            if done.any():
                episode_lengths.extend(env.steps[done].tolist())
                env.reset_rows(done)
                hist.reset_rows(done)
        hist.obs(out=obs[T])
        windows = windows.reshape(T, E, -1)

        # one step's batch per forward, so the kept caches hold E rows
        values, scores = np.empty((T + 1, E)), np.empty((T, E))
        for t in range(T + 1):
            values[t] = value_net.forward(obs[t], self._value_cache)[0][:, 0]
        for t in range(T):
            scores[t] = raw_score(disc_net, windows[t], self._disc_cache)
        r_imit = imitation.pay(scores)
        r_term = termination_penalty(terminal, self.ppo_cfg.gamma)
        r_reg = regularization_reward(actions, prev_actions, joint_vel, prev_joint_vel,
                                      torques, pitch_rate, env.params.control_dt,
                                      self.weights)
        return RolloutBuffer(
            obs=obs[:T], actions=actions,
            log_probs=policy.log_prob(means, actions),
            values=values[:T],
            rewards=total_reward(r_imit, r_term, r_reg, self.weights.w_imitation),
            dones=dones, windows=windows, bootstrap_value=values[T],
            scores=scores, r_imitation=r_imit, r_regularization=r_reg,
            r_termination=r_term, episode_lengths=episode_lengths,
            termination_count=int(terminal.sum()))


def ppo_update(policy: GaussianPolicy, value_net: MlpNet, buf: RolloutBuffer,
               cfg: PpoConfig, policy_opt: OptimizerState,
               value_opt: OptimizerState, rng: np.random.Generator,
               pol_cache: ForwardCache | None = None,
               val_cache: ForwardCache | None = None,
               val_grad: np.ndarray | None = None) -> PpoStats:
    """Run the clipped-surrogate update over the buffer.

    Runs ``epochs`` passes of shuffled minibatches; the learning rate adapts
    toward the KL target after each epoch. A non-finite loss aborts the whole
    update and restores the pre-update parameters.

    The passes write into the forward caches of the two nets and the value
    gradient into ``val_grad`` (a vector in the value net's layout); new ones
    by default. A caller that keeps them across updates saves their page
    faults: freed between updates, their pages go back to the system.
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

    snapshot = (policy.flat.copy(), value_net.flat.copy())
    n_net = policy.net.flat.size
    pol_grad = np.empty_like(policy.flat)
    # minibatches of one size reuse the arrays of their passes
    pol_cache = ForwardCache() if pol_cache is None else pol_cache
    val_cache = ForwardCache() if val_cache is None else val_cache
    if val_grad is None:
        val_grad = np.empty_like(value_net.flat)

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

            mean, cache = policy.net.forward(mb_obs, pol_cache)
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

            v, vcache = value_net.forward(mb_obs, val_cache)
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
            policy.net.backward(cache, dmean, out=pol_grad[:n_net])
            pol_grad[n_net:] = (dlogp[:, None] * (zscore * zscore - 1.0)).sum(axis=0)
            pol_grad[n_net:] -= cfg.entropy_coef  # entropy bonus, dH/dlog_std = 1
            clip_grad_norm(pol_grad, policy.shapes, cfg.max_grad_norm)
            optimizer_step(policy_opt, policy.flat, pol_grad)

            dv = (2.0 * (v - mb_ret) / n)[:, None]
            value_net.backward(vcache, dv, out=val_grad)
            clip_grad_norm(val_grad, value_net.shapes, cfg.max_grad_norm)
            optimizer_step(value_opt, value_net.flat, val_grad)

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
        policy.flat[...] = snapshot[0]
        value_net.flat[...] = snapshot[1]
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
