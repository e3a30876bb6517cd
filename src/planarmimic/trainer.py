"""Experiment orchestration: the adversarial training loop, checkpointing,
metrics logging, and policy evaluation.

A checkpoint (format 4) is one uncompressed zip in numpy's ``.npz`` layout,
so ``np.load`` opens it too. Its first member, ``meta.json``, is a JSON
object of everything but the arrays: the format version, the iteration, the
config mapping, each optimizer's ``learning_rate`` and ``step_count``, the
running statistics' ``count``, ``mean`` and ``m2``, and last the generator
states of the trainer (``trainer_rng``), the env rows (``env_rngs``) and the
action rows (``action_rngs``); under ``members`` it names the array members
in file order. Every other member is one array in ``.npy`` form, named by
its key path in the checkpoint dict (``policy_opt/slots/m``): each net's
parameter vector (``policy``, ``value_net``, ``discriminator``), each
optimizer's slots, the env's ``sim.STATE_ARRAYS`` (``env/arrays/x``), and
the collector's whole frame buffer, (E, max(H, 2), 18), as
``collector/frames``.

Only ``Trainer`` knows this layout: ``checkpoint_dict`` lists the live
arrays, and ``restore`` walks a loaded dict against it, checking every key,
every array's shape and dtype and every generator list's length before it
writes anything (see ``restore``). Optimizer hyperparameters come from the
config.

``open_checkpoint`` is the one reader of a checkpoint into a run: the dict,
its config with overrides, validated, and the data its ``refs`` names.

``write_checkpoint`` writes each array's bytes straight from its memory, not
from a copy, and every member carries the zip format's fixed earliest date,
so the same state always gives the same bytes. ``load_checkpoint`` decides
the format by the file's first bytes, never by its name, and reads each
array a block of ``MEMBER_BLOCK`` bytes at a time into the array it returns,
checking the zip's CRC; nothing is unpickled. A torn or damaged file, a
missing, extra or renamed member, a member of another dtype, a zip of
another format (format 3 included) and a JSON checkpoint of format 1 or 2
(named by its format) each raise ``ValueError``.

Every file the program replaces goes through ``_write_atomic``: the content
goes to a temp file beside the target, which is flushed, synced and renamed
over it. A crash, or an error raised while the content is written, leaves
the previous file as it was and no temp file behind.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import time
import zipfile
from tokenize import TokenError
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import TrainConfig, build_config, config_to_mapping, save_config
from .core import ReferenceDataset, load_reference_dataset, sample_reference_windows
from .discriminator import discriminator_loss, raw_score, reference_input
from .dtw import DtwReport, dtw_distances, stand_still_rollout
from .nets import ForwardCache, MlpNet, OptimizerState, optimizer_step
from .ppo import (ACTION_DIM, GaussianPolicy, POLICY_OBS_DIM, PolicyHistory,
                  RolloutCollector, ppo_update)
from .rewards import (ImitationReward, RunningStats,
                      handcrafted_backflip_reward, handcrafted_standup_reward)
from .sim import STATE_ARRAYS, PlanarEnv

CHECKPOINT_FORMAT_VERSION = 4
META_MEMBER = "meta.json"
# bytes of an array member read at a time
MEMBER_BLOCK = 64 * 1024
# the dtypes an array member may have
MEMBER_DTYPES = (np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.bool_))


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


def _write_atomic(path: Path, content) -> None:
    """Replace ``path`` in one step with ``content``: bytes, or a function
    that writes to the binary file it is given. It goes to a temp file in
    the same directory, which is flushed to disk and renamed over ``path``.
    A crash mid-write, or an exception from ``content``, leaves the previous
    file intact and removes the temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            if callable(content):
                content(f)
            else:
                f.write(content)
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
    _write_atomic(path, "".join(kept).encode())


def _split(tree: dict, prefix: str = "") -> tuple:
    """``tree`` without its arrays, and its arrays by key path."""
    rest, arrays = {}, {}
    for key, value in tree.items():
        if isinstance(value, np.ndarray):
            arrays[prefix + key] = value
        elif isinstance(value, dict):
            rest[key], inner = _split(value, f"{prefix}{key}/")
            arrays.update(inner)
        else:
            rest[key] = value
    return rest, arrays


def write_checkpoint(path, ckpt: dict) -> Path:
    """Write the checkpoint dict ``ckpt`` to ``path`` in one step (see the
    module docstring). Its arrays must be C-contiguous, of a member dtype."""
    meta, arrays = _split(ckpt)
    meta["members"] = list(arrays)

    def write(f):
        # ZipFile.open dates a member it is given by name 1980-01-01, not by
        # the clock, so the same state gives the same bytes
        with zipfile.ZipFile(f, "w") as zf:
            with zf.open(META_MEMBER, "w") as member:
                member.write(json.dumps(meta).encode())
            for name, a in arrays.items():
                if a.dtype not in MEMBER_DTYPES or not a.flags.c_contiguous:
                    raise ValueError(f"checkpoint array {name} is not a "
                                     "C-contiguous array of a member dtype")
                with zf.open(name + ".npy", "w") as member:
                    np.lib.format.write_array_header_1_0(
                        member, np.lib.format.header_data_from_array_1_0(a))
                    member.write(a.data)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, write)
    return path


def _read_member(f, size: int) -> np.ndarray:
    """The array of one ``.npy`` member of ``size`` bytes, read
    ``MEMBER_BLOCK`` bytes at a time into it."""
    if np.lib.format.read_magic(f) != (1, 0):
        raise ValueError("checkpoint array member is not .npy version 1.0")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(f)
    if dtype not in MEMBER_DTYPES or fortran_order:
        raise ValueError(f"checkpoint array member of dtype {dtype}"
                         f"{' in Fortran order' if fortran_order else ''}")
    if math.prod(shape) * dtype.itemsize != size - f.tell():
        raise ValueError("checkpoint array member's size does not match its header")
    array = np.empty(shape, dtype)
    # a flat view: memoryview casts no empty array of more than one axis
    view = memoryview(array.reshape(-1)).cast("B")
    for start in range(0, view.nbytes, MEMBER_BLOCK):
        block = f.read(MEMBER_BLOCK)
        if len(block) < min(MEMBER_BLOCK, view.nbytes - start):
            raise ValueError("checkpoint array member ends early")
        view[start:start + len(block)] = block
    return array


def _read_zip(zf: zipfile.ZipFile) -> dict:
    infos = zf.infolist()
    if not infos or infos[0].filename != META_MEMBER:
        raise ValueError(f"checkpoint does not start with {META_MEMBER}")
    ckpt = json.loads(zf.read(infos[0]))
    version = ckpt.get("format_version") if isinstance(ckpt, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {version!r}")
    names = ckpt.pop("members", None)
    if not isinstance(names, list) or (
            [info.filename for info in infos[1:]] != [f"{name}.npy" for name in names]):
        raise ValueError(f"checkpoint members do not match those {META_MEMBER} lists")
    for info, name in zip(infos[1:], names):
        with zf.open(info) as f:
            array = _read_member(f, info.file_size)
        *parents, key = name.split("/")
        node = ckpt
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = array
    return ckpt


def load_checkpoint(path) -> dict:
    """The checkpoint dict of a format-4 file: ``meta.json``'s object with
    each array member at its key path (see the module docstring)."""
    with Path(path).open("rb") as f:
        head = f.read(64)
        if not head.startswith(b"PK\x03\x04"):
            old = re.match(rb'\s*\{\s*"format_version"\s*:\s*(\d+)', head)
            raise ValueError(
                f"{path} is a JSON checkpoint of format {int(old[1])}, which this "
                f"version no longer reads (it reads format {CHECKPOINT_FORMAT_VERSION})"
                if old else f"{path} is not a checkpoint")
        f.seek(0)
        # numpy tokenizes an npy header it cannot parse as it stands
        try:
            with zipfile.ZipFile(f) as zf:
                return _read_zip(zf)
        except (zipfile.BadZipFile, EOFError, NotImplementedError, TokenError) as e:
            raise ValueError(f"damaged checkpoint {path}: {e}") from None


def open_checkpoint(checkpoint, keys=()) -> tuple:
    """``(ckpt, cfg, dataset)`` of ``checkpoint``, a file's path or the dict
    ``load_checkpoint`` read from one: the dict, its config with ``keys``,
    ``(key, value)`` pairs, over it, validated, and the reference data that
    the config's ``refs`` names, windowed at its horizon."""
    ckpt = checkpoint if isinstance(checkpoint, dict) else load_checkpoint(checkpoint)
    cfg = build_config(keys=[*ckpt["config"].items(), *keys]).require_valid()
    if not cfg.refs:
        raise ValueError("checkpoint config has no reference path (the refs key)")
    return ckpt, cfg, load_reference_dataset(cfg.refs, cfg.disc.horizon)


def _policy_sizes(cfg: TrainConfig) -> list:
    return [POLICY_OBS_DIM, *cfg.ppo.hidden_sizes, ACTION_DIM]


def checkpoint_policy(cfg: TrainConfig, ckpt: dict) -> GaussianPolicy:
    """The policy of the checkpoint dict ``ckpt`` under its config ``cfg``;
    it adopts the dict's vector, not a copy."""
    if "policy" not in ckpt:
        raise ValueError("checkpoint has no 'policy'")
    return GaussianPolicy.from_flat(_policy_sizes(cfg), "elu", ckpt["policy"])


class Trainer:
    """Owns every piece of training state. One writer; rollout collection and
    the two learners run strictly in sequence inside an iteration."""

    def __init__(self, cfg: TrainConfig, dataset: ReferenceDataset,
                 ckpt: dict | None = None):
        """A fresh trainer at ``cfg.seed``, or with ``ckpt``, a checkpoint
        dict (``load_checkpoint``), the trainer it holds: its nets adopt the
        dict's vectors, not copies, so a dict restores one trainer, and
        ``restore`` writes the rest of the dict over the fresh state."""
        cfg.require_valid()
        dataset.validate(cfg.disc.horizon)
        self.cfg = cfg
        self.dataset = dataset

        seed = cfg.seed
        value_sizes = [POLICY_OBS_DIM, *cfg.ppo.hidden_sizes, 1]
        disc_sizes = [cfg.disc.input_dim, *cfg.disc.hidden_sizes, 1]
        if ckpt is None:
            init_rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
            self.policy = GaussianPolicy(
                MlpNet.create(_policy_sizes(cfg), "elu", rng=init_rng,
                              output_gain=0.01),
                init_log_std=cfg.ppo.init_log_std)
            self.value_net = MlpNet.create(value_sizes, "elu", rng=init_rng)
            self.disc = MlpNet.create(disc_sizes, "relu", rng=init_rng)
        else:
            self.policy = checkpoint_policy(cfg, ckpt)
            self.value_net = MlpNet(value_sizes, "elu", ckpt["value_net"])
            self.disc = MlpNet(disc_sizes, "relu", ckpt["discriminator"])
        self.iteration = 0
        self.policy_opt = OptimizerState.for_params(
            self.policy.flat, "adam", cfg.ppo.learning_rate)
        self.value_opt = OptimizerState.for_params(
            self.value_net.flat, "adam", cfg.ppo.learning_rate)
        self.disc_opt = OptimizerState.for_params(
            self.disc.flat, cfg.disc.optimizer_kind, cfg.disc.learning_rate,
            weight_decay=cfg.disc.weight_decay, momentum=cfg.disc.momentum,
            rho=cfg.disc.rho)
        # the discriminator step's and the PPO update's arrays, kept from one
        # minibatch and one iteration to the next
        self.disc_ref_cache, self.disc_pol_cache = ForwardCache(), ForwardCache()
        self.ppo_pol_cache, self.ppo_val_cache = ForwardCache(), ForwardCache()
        self.ppo_val_grad = np.empty_like(self.value_net.flat)

        self.imitation = ImitationReward(cfg.disc.loss_kind, RunningStats())
        self.env = PlanarEnv(cfg.sim, cfg.ppo.num_envs, seed=seed)
        self.collector = RolloutCollector(self.env, cfg.disc, cfg.ppo,
                                          cfg.reward, seed=seed)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        if ckpt is not None:
            self.restore(ckpt)

    # -- one iteration ---------------------------------------------------------

    def train_iteration(self) -> dict:
        cfg = self.cfg
        buf = self.collector.collect(self.policy, self.value_net, self.disc,
                                     self.imitation)
        stats = ppo_update(self.policy, self.value_net, buf, cfg.ppo,
                           self.policy_opt, self.value_opt, self.rng,
                           self.ppo_pol_cache, self.ppo_val_cache,
                           self.ppo_val_grad)

        pol_windows = buf.flat_windows()
        mb_size = min(cfg.disc.minibatch_size, pol_windows.shape[0])
        disc_totals, disc_mains, disc_gps, ref_scores = [], [], [], []
        for _ in range(cfg.disc.minibatches):
            idx = self.rng.integers(0, pol_windows.shape[0], size=mb_size)
            pol_mb = pol_windows[idx]
            ref_mb = reference_input(sample_reference_windows(
                self.dataset, mb_size, cfg.disc.horizon, self.rng),
                cfg.disc.full_state)
            res = discriminator_loss(self.disc, ref_mb, pol_mb, cfg.disc,
                                     self.disc_ref_cache, self.disc_pol_cache)
            optimizer_step(self.disc_opt, self.disc.flat, res.grads)
            disc_totals.append(res.total)
            disc_mains.append(res.main_term)
            disc_gps.append(res.gp_term)
            # the loss is done with the reference cache, so this forward reuses it
            ref_scores.append(float(
                raw_score(self.disc, ref_mb, self.disc_ref_cache).mean()))

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

        The run first drops the metrics records after its iteration: all of
        them on a fresh run, and on a resume those an interrupted run wrote
        past its last checkpoint. So every iteration has exactly one record.
        A run that starts past iteration 0 (a resume) logs itself under
        ``resumes`` in ``run.json``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        target = iterations if iterations is not None else self.cfg.iterations
        metrics_path = out / "metrics.jsonl"
        run_path = out / "run.json"
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")

        # a fresh run, or a resume into a new directory, starts the record
        if self.iteration == 0 or not run_path.exists():
            save_config(self.cfg, out / "config.txt")
            meta = {
                "seed": self.cfg.seed,
                "build": build_identifier(),
                "task": self.cfg.task,
                "loss": self.cfg.disc.loss_kind,
                "started": stamp,
            }
        else:
            meta = json.loads(run_path.read_text())
        if self.iteration > 0:
            meta.setdefault("resumes", []).append(
                {"resumed_from": self.iteration, "at": stamp})
        if metrics_path.exists():
            _truncate_metrics(metrics_path, self.iteration)
        _write_atomic(run_path, (json.dumps(meta, indent=2) + "\n").encode())

        with metrics_path.open("a") as metrics:
            while self.iteration < target:
                record = self.train_iteration()
                metrics.write(json.dumps(record) + "\n")
                if self.iteration % self.cfg.checkpoint_interval == 0:
                    # a checkpoint never gets ahead of the records on disk
                    metrics.flush()
                    self.save_checkpoint(out / f"checkpoint_{self.iteration:06d}.npz")
                if progress is not None and (
                        self.iteration % max(1, self.cfg.log_interval) == 0):
                    progress(record)
        final = out / "checkpoint_final.npz"
        self.save_checkpoint(final)
        return final

    # -- checkpointing -------------------------------------------------------------

    def checkpoint_dict(self) -> dict:
        """The trainer's state as a checkpoint dict (see the module
        docstring); its arrays are the live ones, not copies."""
        stats = self.imitation.stats
        return {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "iteration": self.iteration,
            "config": config_to_mapping(self.cfg),
            "policy": self.policy.flat,
            "value_net": self.value_net.flat,
            "discriminator": self.disc.flat,
            **{name: {"learning_rate": opt.learning_rate,
                      "step_count": opt.step_count, "slots": dict(opt.slots)}
               for name, opt in self._optimizers()},
            "running_stats": {"count": stats.count, "mean": stats.mean, "m2": stats.m2},
            "env": {"arrays": {key: getattr(self.env, key) for key in STATE_ARRAYS}},
            "collector": {"frames": self.collector.history.frames.buf},
            "trainer_rng": self.rng.bit_generator.state,
            "env_rngs": [r.bit_generator.state for r in self.env.rngs],
            "action_rngs": [r.bit_generator.state for r in self.collector.action_rngs],
        }

    def _optimizers(self) -> tuple:
        return (("policy_opt", self.policy_opt), ("value_opt", self.value_opt),
                ("disc_opt", self.disc_opt))

    def restore(self, ckpt: dict) -> None:
        """Write the checkpoint dict ``ckpt`` over this trainer's state: its
        generator states, its arrays in place, then its scalars. Raises
        ``ValueError``, with nothing written, unless ``ckpt`` has
        ``checkpoint_dict``'s keys at every level, each array the live
        array's shape and dtype, each list the live list's length and each
        generator state one its generator takes: a one-row array would
        otherwise broadcast into every row, and a short list restore only
        its first rows' generators. The config stays this trainer's
        (``from_checkpoint`` builds it from the dict's), so its keys are not
        compared: a key the dict lacks takes its default."""
        live = self.checkpoint_dict()
        del live["config"]
        saved = {key: value for key, value in ckpt.items() if key != "config"}
        _check_layout(saved, live)
        # a generator checks a state only as it is set: set them first, and
        # put back the ones already set if one is refused
        rngs = [self.rng, *self.env.rngs, *self.collector.action_rngs]
        try:
            for rng, state in zip(rngs, _generator_states(saved)):
                rng.bit_generator.state = state
        except (TypeError, ValueError, KeyError) as e:
            for rng, state in zip(rngs, _generator_states(live)):
                rng.bit_generator.state = state
            raise ValueError(f"checkpoint generator state: {e}") from None
        _copy_arrays(saved, live)
        self.iteration = ckpt["iteration"]
        for name, opt in self._optimizers():
            opt.learning_rate = ckpt[name]["learning_rate"]
            opt.step_count = ckpt[name]["step_count"]
        stats, kept = self.imitation.stats, ckpt["running_stats"]
        stats.count, stats.mean, stats.m2 = kept["count"], kept["mean"], kept["m2"]

    def save_checkpoint(self, path) -> Path:
        return write_checkpoint(path, self.checkpoint_dict())

    @classmethod
    def from_checkpoint(cls, checkpoint, keys=()) -> "Trainer":
        """The trainer restored from ``checkpoint`` (see ``open_checkpoint``),
        whose net vectors it adopts. Raises ``ValueError`` where the dict is
        not the layout of the trainer its config builds."""
        ckpt, cfg, dataset = open_checkpoint(checkpoint, keys)
        try:
            return cls(cfg, dataset, ckpt)
        except KeyError as e:
            raise ValueError(f"checkpoint has no {e}") from None


def _check_layout(got, live, path: str = "checkpoint") -> None:
    """Raise ``ValueError`` unless ``got`` has the layout of ``live``: the
    same keys at every level, each array of the live array's shape and
    dtype, and each list of the live list's length."""
    if isinstance(live, dict):
        if not isinstance(got, dict) or got.keys() != live.keys():
            have = sorted(got) if isinstance(got, dict) else type(got).__name__
            raise ValueError(f"{path} has {have}, this trainer {sorted(live)}")
        for key, value in live.items():
            _check_layout(got[key], value, f"{path}/{key}")
    elif isinstance(live, np.ndarray):
        if not isinstance(got, np.ndarray) or (got.dtype, got.shape) != (
                live.dtype, live.shape):
            have = (f"{got.dtype} {got.shape}" if isinstance(got, np.ndarray)
                    else type(got).__name__)
            raise ValueError(f"{path} is {have}, this trainer's {live.dtype} {live.shape}")
    elif isinstance(live, list):
        if not isinstance(got, list) or len(got) != len(live):
            have = len(got) if isinstance(got, list) else type(got).__name__
            raise ValueError(f"{path} has {have} entries, this trainer {len(live)}")
        for i, (item, value) in enumerate(zip(got, live)):
            _check_layout(item, value, f"{path}[{i}]")


def _generator_states(ckpt: dict) -> list:
    """A checkpoint dict's generator states: the trainer's, then the env
    rows', then the action rows'."""
    return [ckpt["trainer_rng"], *ckpt["env_rngs"], *ckpt["action_rngs"]]


def _copy_arrays(got, live) -> None:
    """Copy each array of ``got`` into ``live``'s at its key path."""
    if isinstance(live, dict):
        for key, value in live.items():
            _copy_arrays(got[key], value)
    elif isinstance(live, np.ndarray) and got is not live:
        np.copyto(live, got)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    dtw: DtwReport
    stand_still: DtwReport
    handcrafted: dict | None  # kind, mean, std, per_rollout
    n_rollouts: int
    n_references: int
    rollouts: np.ndarray  # (n_rollouts, frames, 6); not part of the report file

    def to_dict(self) -> dict:
        return {
            "dtw": self.dtw.to_dict(),
            "stand_still": self.stand_still.to_dict(),
            "handcrafted": self.handcrafted,
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
    comparable to full-length references. Its tallies stop at that step: the
    stand-up mean is taken over the row's live steps only, and a backflip
    landing counts only while the row is live. Frozen rows repeat their last
    action until every row is done; their history still advances, unread.
    """
    R = len(seeds)
    env = PlanarEnv(cfg.sim, num_envs=R, seed=list(seeds))
    history = PolicyHistory(env)
    seqs = np.zeros((R, frames, 6))
    seqs[:, 0] = env.observation_features()
    standup_terms = np.zeros((R, frames - 1))
    live_steps = np.zeros(R, dtype=np.int64)
    backflip_total = np.zeros(R)
    done = np.zeros(R, dtype=bool)
    action = np.zeros((R, ACTION_DIM))
    obs = np.empty((R, 1, POLICY_OBS_DIM))
    cache = ForwardCache()
    for t in range(1, frames):
        history.obs(out=obs[:, 0])
        # each row is its own one-row product, stacked in one forward: a
        # many-row matrix product rounds differently from a one-row product,
        # and a falling robot amplifies that ~1e-17 to 1e-8 within 100 steps
        live = np.flatnonzero(~done)
        mean, _ = policy.net.forward(obs[live], cache)
        action[live] = mean[:, 0]
        result = env.step(action)
        seqs[:, t] = np.where(done[:, None], seqs[:, t - 1],
                              env.observation_features())
        if collect_handcrafted:
            standup_terms[:, t - 1] = handcrafted_standup_reward(
                env.pitch, env.z, result.foot_contacts[:, 0])
            # backward rotation counts positive for the flip reward
            np.add(backflip_total, handcrafted_backflip_reward(
                -result.flight_traversed_angle, True), out=backflip_total,
                where=result.landing_event & ~done)
            live_steps += ~done
        done |= result.terminal
        if done.all():
            seqs[:, t + 1:] = seqs[:, t, None]
            break
        history.advance(action)
    # a row's live steps are a prefix of its terms: np.mean sums that slice
    # pairwise, as it summed the list of them
    extras = [{"standup_mean": float(np.mean(terms[:n])) if n else 0.0,
               "backflip_total": float(total)}
              for terms, n, total in zip(standup_terms, live_steps, backflip_total)]
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
        handcrafted = {"kind": handcrafted_kind, "mean": float(np.mean(values)),
                       "std": float(np.std(values)), "per_rollout": values}
    return EvalReport(dtw=dtw_report, stand_still=still_report,
                      handcrafted=handcrafted, n_rollouts=cfg.eval.rollouts,
                      n_references=dataset.num_trajectories, rollouts=seqs)


def _nominal_observation(cfg: TrainConfig) -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, 0.0, -1.0, cfg.sim.nominal_height()])
