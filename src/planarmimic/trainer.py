"""Experiment orchestration: the adversarial training loop, checkpointing,
metrics logging, and policy evaluation."""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import TrainConfig, config_to_mapping, parse_config_text, save_config
from .core import ReferenceDataset, load_reference_dataset, sample_reference_windows
from .discriminator import (build_discriminator, discriminator_loss,
                            lsgan_imitation_reward, pad_windows_full_state,
                            raw_score)
from .dtw import DtwReport, dtw_distances, stand_still_rollout
from .nets import (MlpNet, OptimizerState, net_from_dict, net_to_dict,
                   optimizer_from_dict, optimizer_to_dict, optimizer_step)
from .ppo import (ACTION_DIM, GaussianPolicy, POLICY_OBS_DIM, RolloutCollector,
                  ppo_update)
from .rewards import (RunningStats, handcrafted_backflip_reward,
                      handcrafted_standup_reward)
from .sim import PlanarEnv

CHECKPOINT_FORMAT_VERSION = 1
# config keys that older checkpoints carry and nothing reads any more
RETIRED_CONFIG_KEYS = ("demo_noise", "demo_height_offset")


def build_identifier() -> str:
    """Best-effort source identifier for run provenance."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5,
                             cwd=Path(__file__).resolve().parent)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"planarmimic-{__version__}"


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: the text goes to a temp
    file in the same directory, is flushed to disk, and is renamed over
    ``path``, so a crash mid-write leaves the previous file intact."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _truncate_metrics(path: Path, iteration: int) -> None:
    """Keep the metrics records up to ``iteration``. A last line torn by a
    crash mid-write is dropped with the rest: it was written after the last
    checkpoint, since records are flushed before every checkpoint."""
    kept = []
    for line in path.read_text().splitlines(keepends=True):
        try:
            if json.loads(line)["iteration"] <= iteration:
                kept.append(line)
        except json.JSONDecodeError:
            pass
    _write_atomic(path, "".join(kept))


class Trainer:
    """Owns every piece of training state. One writer; rollout collection and
    the two learners run strictly in sequence inside an iteration."""

    def __init__(self, cfg: TrainConfig, dataset: ReferenceDataset):
        cfg.require_valid()
        dataset.validate(cfg.disc.horizon)
        self.cfg = cfg
        self.dataset = dataset
        self.iteration = 0

        seed = cfg.seed
        init_rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        self.policy = GaussianPolicy(
            MlpNet.create([POLICY_OBS_DIM, *cfg.ppo.hidden_sizes, ACTION_DIM],
                          activation="elu", rng=init_rng, output_gain=0.01),
            init_log_std=cfg.ppo.init_log_std)
        self.value_net = MlpNet.create([POLICY_OBS_DIM, *cfg.ppo.hidden_sizes, 1],
                                       activation="elu", rng=init_rng)
        self.disc = build_discriminator(cfg.disc, init_rng)

        self.policy_opt = OptimizerState.for_params(
            self.policy.params(), "adam", cfg.ppo.learning_rate)
        self.value_opt = OptimizerState.for_params(
            self.value_net.params(), "adam", cfg.ppo.learning_rate)
        self.disc_opt = OptimizerState.for_params(
            self.disc.params(), cfg.disc.optimizer_kind, cfg.disc.learning_rate,
            weight_decay=cfg.disc.weight_decay, momentum=cfg.disc.momentum,
            rho=cfg.disc.rho)

        self.stats = RunningStats()
        self.env = PlanarEnv(cfg.sim, cfg.ppo.num_envs, seed=seed)
        self.collector = RolloutCollector(self.env, cfg.disc, cfg.ppo,
                                          cfg.reward, self.stats, seed=seed)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))

    # -- one iteration ---------------------------------------------------------

    def train_iteration(self) -> dict:
        cfg = self.cfg
        buf = self.collector.collect(self.policy, self.value_net, self.disc)
        stats = ppo_update(self.policy, self.value_net, buf, cfg.ppo,
                           self.policy_opt, self.value_opt, self.rng)

        pol_windows = buf.flat_windows()
        mb_size = min(cfg.disc.minibatch_size, pol_windows.shape[0])
        disc_totals, disc_mains, disc_gps, ref_scores = [], [], [], []
        for _ in range(cfg.disc.epochs_per_iter):
            for _ in range(cfg.disc.minibatches):
                idx = self.rng.integers(0, pol_windows.shape[0], size=mb_size)
                pol_mb = pol_windows[idx]
                ref_mb = sample_reference_windows(self.dataset, mb_size,
                                                  cfg.disc.horizon, self.rng)
                ref_mb = ref_mb.reshape(mb_size, -1)
                if cfg.disc.full_state:
                    ref_mb = pad_windows_full_state(ref_mb, cfg.disc.horizon)
                res = discriminator_loss(self.disc, ref_mb, pol_mb, cfg.disc)
                optimizer_step(self.disc_opt, self.disc.params(),
                               res.grads.as_list())
                disc_totals.append(res.total)
                disc_mains.append(res.main_term)
                disc_gps.append(res.gp_term)
                ref_scores.append(float(raw_score(self.disc, ref_mb).mean()))

        self.iteration += 1
        ep_len = (float(np.mean(buf.episode_lengths))
                  if buf.episode_lengths else None)
        record = {
            "iteration": self.iteration,
            "reward_mean": float(buf.rewards.mean()),
            "imitation_mean": float(buf.r_imitation.mean()),
            "regularization_mean": float(buf.r_regularization.mean()),
            "termination_rate": buf.termination_count / buf.size,
            "disc_loss": float(np.mean(disc_totals)),
            "disc_main": float(np.mean(disc_mains)),
            "disc_gp": float(np.mean(disc_gps)),
            "score_mean_policy": float(buf.scores.mean()),
            "score_mean_ref": float(np.mean(ref_scores)),
            "kl": stats.kl if np.isfinite(stats.kl) else None,
            "lr": stats.learning_rate,
            "episode_length_mean": ep_len,
            "ppo_aborted": stats.aborted,
        }
        return record

    # -- full run ----------------------------------------------------------------

    def run(self, out_dir, iterations: int | None = None,
            progress=None) -> Path:
        """Train until ``iterations`` (defaults to the configured count),
        appending one JSONL metrics record per iteration and checkpointing
        periodically. Returns the final checkpoint path.

        A run that starts past iteration 0 (a resume) first drops the metrics
        records after its iteration, which an interrupted run may have
        written past its last checkpoint, and logs itself under ``resumes``
        in ``run.json``; every iteration then has exactly one record."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        target = iterations if iterations is not None else self.cfg.iterations
        metrics_path = out / "metrics.jsonl"
        run_path = out / "run.json"
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")

        if self.iteration == 0:
            save_config(self.cfg, out / "config.txt")
            _write_atomic(run_path, json.dumps({
                "seed": self.cfg.seed,
                "build": build_identifier(),
                "task": self.cfg.task,
                "loss": self.cfg.disc.loss_kind,
                "started": stamp,
            }, indent=2) + "\n")
        else:
            meta = json.loads(run_path.read_text()) if run_path.exists() else {}
            meta.setdefault("resumes", []).append(
                {"resumed_from": self.iteration, "at": stamp})
            _write_atomic(run_path, json.dumps(meta, indent=2) + "\n")
            if metrics_path.exists():
                _truncate_metrics(metrics_path, self.iteration)

        with metrics_path.open("a") as metrics:
            while self.iteration < target:
                record = self.train_iteration()
                metrics.write(json.dumps(record) + "\n")
                if self.iteration % self.cfg.checkpoint_interval == 0:
                    # a checkpoint never gets ahead of the records on disk
                    metrics.flush()
                    self.save_checkpoint(out / f"checkpoint_{self.iteration:06d}.json")
                if progress is not None and (
                        self.iteration % max(1, self.cfg.log_interval) == 0):
                    progress(record)
        final = out / "checkpoint_final.json"
        self.save_checkpoint(final)
        return final

    # -- checkpointing -------------------------------------------------------------

    def checkpoint_dict(self) -> dict:
        return {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "iteration": self.iteration,
            "config": config_to_mapping(self.cfg),
            "policy_net": net_to_dict(self.policy.net),
            "policy_log_std": self.policy.log_std.tolist(),
            "value_net": net_to_dict(self.value_net),
            "discriminator": net_to_dict(self.disc),
            "policy_opt": optimizer_to_dict(self.policy_opt),
            "value_opt": optimizer_to_dict(self.value_opt),
            "disc_opt": optimizer_to_dict(self.disc_opt),
            "running_stats": self.stats.to_dict(),
            "trainer_rng": self.rng.bit_generator.state,
            "env": self.env.state_dict(),
            "collector": self.collector.state_dict(),
        }

    def save_checkpoint(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, json.dumps(self.checkpoint_dict()) + "\n")
        return path

    def restore(self, ckpt: dict) -> None:
        if ckpt.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {ckpt.get('format_version')!r}")
        self.iteration = ckpt["iteration"]
        self.policy.net = net_from_dict(ckpt["policy_net"])
        self.policy.log_std = np.array(ckpt["policy_log_std"], dtype=np.float64)
        self.value_net = net_from_dict(ckpt["value_net"])
        self.disc = net_from_dict(ckpt["discriminator"])
        self.policy_opt = optimizer_from_dict(ckpt["policy_opt"])
        self.value_opt = optimizer_from_dict(ckpt["value_opt"])
        self.disc_opt = optimizer_from_dict(ckpt["disc_opt"])
        self.stats = RunningStats.from_dict(ckpt["running_stats"])
        self.collector.stats = self.stats
        self.rng.bit_generator.state = ckpt["trainer_rng"]
        self.env.load_state_dict(ckpt["env"])
        self.collector.load_state_dict(ckpt["collector"])

    @classmethod
    def from_checkpoint(cls, path, dataset: ReferenceDataset | None = None,
                        cfg: TrainConfig | None = None) -> "Trainer":
        ckpt = json.loads(Path(path).read_text())
        if cfg is None:
            lines = [f"{k} = {v}" for k, v in ckpt["config"].items()
                     if k not in RETIRED_CONFIG_KEYS]
            cfg = parse_config_text("\n".join(lines))
        if dataset is None:
            if not cfg.refs:
                raise ValueError("checkpoint config has no reference path; "
                                 "pass a dataset explicitly")
            dataset = load_reference_dataset(cfg.refs, cfg.disc.horizon)
        trainer = cls(cfg, dataset)
        trainer.restore(ckpt)
        return trainer

    # -- reward views -------------------------------------------------------------

    def imitation_reward_of_scores(self, scores: np.ndarray) -> np.ndarray:
        if self.cfg.disc.loss_kind == "lsgan":
            return lsgan_imitation_reward(scores)
        return self.stats.normalize(scores)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class HandcraftedReport:
    kind: str
    mean: float
    std: float
    per_rollout: list


@dataclass
class EvalReport:
    dtw: DtwReport
    stand_still: DtwReport
    handcrafted: HandcraftedReport | None
    n_rollouts: int
    n_references: int
    rollouts: np.ndarray  # (n_rollouts, frames, 6); not part of the report file

    def to_dict(self) -> dict:
        return {
            "dtw": self.dtw.to_dict(),
            "stand_still": self.stand_still.to_dict(),
            "handcrafted": None if self.handcrafted is None else {
                "kind": self.handcrafted.kind,
                "mean": self.handcrafted.mean,
                "std": self.handcrafted.std,
                "per_rollout": self.handcrafted.per_rollout,
            },
            "n_rollouts": self.n_rollouts,
            "n_references": self.n_references,
        }


def rollout_observations(cfg: TrainConfig, policy: GaussianPolicy, frames: int,
                         seed: int, collect_handcrafted: bool = False):
    """One deterministic (mean-action) rollout: the (frames, 6) base
    observation sequence and the handcrafted-reward tallies of
    ``rollout_batch`` with the single seed ``seed``."""
    seqs, extras = rollout_batch(cfg, policy, frames, [seed], collect_handcrafted)
    return seqs[0], extras[0]


def rollout_batch(cfg: TrainConfig, policy: GaussianPolicy, frames: int,
                  seeds, collect_handcrafted: bool = False):
    """Deterministic (mean-action) rollouts, one per seed, stepped together
    in one environment whose row ``i`` replays a one-env environment seeded
    with ``seeds[i]``. Returns the (R, frames, 6) base observation sequences
    and one handcrafted-tally dict per rollout; each equals what
    ``rollout_observations`` gives for its seed alone, bit for bit.

    Once a row's body hits the ground its remaining frames hold its last
    observation: the motion is over, and a frozen tail keeps the sequence
    comparable to full-length references. Its tallies stop at that step.
    Frozen rows repeat their last action until every row is done.
    """
    R = len(seeds)
    env = PlanarEnv(cfg.sim, num_envs=R, seed=list(seeds))
    # mean actions draw no noise, so the collector's own generators stay unused
    collector = RolloutCollector(env, cfg.disc, cfg.ppo, cfg.reward,
                                 RunningStats())
    seqs = np.zeros((R, frames, 6))
    seqs[:, 0] = env.observation_features()
    standup_terms = [[] for _ in range(R)]
    backflip_total = np.zeros(R)
    done = np.zeros(R, dtype=bool)
    action = np.zeros((R, ACTION_DIM))
    for t in range(1, frames):
        obs = collector.policy_obs()
        # one row per product: a many-row matrix product rounds differently
        # from a one-row product, and a falling robot amplifies that ~1e-17
        # to 1e-8 within 100 steps
        for i in np.nonzero(~done)[0]:
            action[i] = policy.mean_action(obs[i:i + 1])[0]
        result = env.step(action)
        seqs[:, t] = np.where(done[:, None], seqs[:, t - 1],
                              env.observation_features())
        if collect_handcrafted:
            for i in np.nonzero(~done)[0]:
                standup_terms[i].append(handcrafted_standup_reward(
                    float(env.pitch[i]), float(env.z[i]),
                    bool(result.foot_contacts[i, 0])))
                if result.landing_event[i]:
                    # backward rotation counts positive for the flip reward
                    backflip_total[i] += handcrafted_backflip_reward(
                        -float(result.flight_traversed_angle[i]), True)
        done |= result.terminal
        if done.all():
            seqs[:, t + 1:] = seqs[:, t, None]
            break
        collector.advance(action, ~done)
    extras = [{"standup_mean": float(np.mean(terms)) if terms else 0.0,
               "backflip_total": float(total)}
              for terms, total in zip(standup_terms, backflip_total)]
    return seqs, extras


def evaluate_policy(cfg: TrainConfig, policy: GaussianPolicy,
                    dataset: ReferenceDataset, seed: int = 0) -> EvalReport:
    """DTW evaluation against the dataset plus the stand-still baseline and,
    for tasks with one, the handcrafted task-reward score."""
    frames = cfg.eval.episode_frames or max(t.shape[0] for t in dataset.trajectories)
    handcrafted_kind = {"standup": "standup", "backflip": "backflip"}.get(cfg.task)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23, seed]))
    seeds = [int(rng.integers(0, 2 ** 31)) for _ in range(cfg.eval.rollouts)]
    seqs, extras_log = rollout_batch(cfg, policy, frames, seeds,
                                     collect_handcrafted=bool(handcrafted_kind))
    dtw_report = DtwReport.of(dtw_distances(seqs, dataset.trajectories, cfg.dtw))

    still = stand_still_rollout(_nominal_observation(cfg), frames)
    still_report = DtwReport.of(dtw_distances([still], dataset.trajectories,
                                              cfg.dtw))

    handcrafted = None
    if handcrafted_kind:
        key = "standup_mean" if handcrafted_kind == "standup" else "backflip_total"
        values = [e[key] for e in extras_log]
        handcrafted = HandcraftedReport(kind=handcrafted_kind,
                                        mean=float(np.mean(values)),
                                        std=float(np.std(values)),
                                        per_rollout=values)
    return EvalReport(dtw=dtw_report, stand_still=still_report,
                      handcrafted=handcrafted, n_rollouts=cfg.eval.rollouts,
                      n_references=dataset.num_trajectories, rollouts=seqs)


def _nominal_observation(cfg: TrainConfig) -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, 0.0, -1.0, cfg.sim.nominal_height()])
