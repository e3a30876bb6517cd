"""Experiment orchestration: the adversarial training loop, checkpointing,
metrics logging, and policy evaluation.

A checkpoint (format 7) is one uncompressed zip in numpy's ``.npz`` layout,
so ``np.load`` opens it too. Its first member, ``meta.json``, is a JSON
object of everything but the arrays: the format version, the iteration, the
config mapping, each optimizer's ``learning_rate`` and ``step_count``, the
imitation reward's ``count``, ``mean`` and ``m2`` (as ``running_stats``), and
last the generator states of the trainer (``trainer_rng``), the env rows
(``env_rngs``) and the action rows (``action_rngs``); under ``members`` it
names the array members in file order. Every other member is one array in
``.npy`` form, named by its key path in the checkpoint dict
(``policy_opt/slots/m``): each net's parameter vector (``policy``,
``value_net``, ``discriminator``), each optimizer's slots, the env's
``sim.STATE_ARRAYS`` (``env/arrays/x``, ``z``, ``pitch``, ``vx``, ``vz``,
``om``, ``q``, ``qd``, ``mass`` and ``steps``), and the collector's whole
frame buffer, (E, max(H, 2), 18), as ``collector/frames``.

Only ``Trainer`` knows this layout: ``checkpoint_dict`` lists the live
arrays, and a loaded dict restores only a new trainer, ``Trainer(cfg,
dataset, ckpt)``, which checks the whole dict against that list before it
adopts any of its arrays, as they are (see ``Trainer.__init__``). Optimizer
hyperparameters come from the config.

``run_inputs`` is the one place a command's config and reference data are
checked and read: ``train`` and ``sweep`` call it, and ``open_checkpoint``,
the one reader of a checkpoint into a run (``train --resume``, ``analyze``
and ``eval``), calls it on the checkpoint's config with overrides.

``write_checkpoint`` writes each array's bytes straight from its memory, not
from a copy, and every member carries the zip format's fixed earliest date,
so the same state always gives the same bytes. ``load_checkpoint`` decides
the format by the file's first bytes, never by its name, and reads each
array a block of ``MEMBER_BLOCK`` bytes at a time into the array it returns,
checking the zip's CRC; nothing is unpickled. A torn or damaged file, a
missing, extra or renamed member, a member of another dtype, a zip of
another format (formats 3, 4, 5 and 6 included) and a JSON checkpoint of
format 1 or 2 (named by its format) each raise ``ValueError``.

Every file the program writes but the appended ``metrics.jsonl`` goes
through ``core._write_atomic``: the content goes to a temp file beside the
target, which is flushed, synced and renamed over it. A crash, or an error
raised while the content is written, leaves the previous file as it was and
no temp file behind.
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
from .config import (ConfigError, TrainConfig, build_config, config_to_mapping,
                     save_config)
from .core import (ReferenceDataset, _write_atomic, load_reference_dataset,
                   sample_reference_windows)
from .discriminator import discriminator_loss, raw_score
from .dtw import DtwReport, dtw_distances, stand_still_rollout
from .nets import SLOT_NAMES, ForwardCache, MlpNet, OptimizerState, optimizer_step
from .ppo import (ACTION_DIM, GaussianPolicy, POLICY_OBS_DIM, PolicyHistory,
                  RolloutCollector, ppo_update)
from .rewards import (ImitationReward, handcrafted_backflip_reward,
                      handcrafted_standup_reward)
from .sim import STATE_ARRAYS, PlanarEnv

CHECKPOINT_FORMAT_VERSION = 7
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
    """The checkpoint dict of a format-7 file: ``meta.json``'s object with
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


def run_inputs(cfg: TrainConfig, windowed: bool = True,
               datasets: dict | None = None) -> tuple:
    """``(cfg, dataset)``: ``cfg`` with its ``refs`` made absolute, so a
    run's checkpoints name its data from any working directory, and the data
    ``refs`` names. Raises ``ConfigError`` unless ``cfg`` validates, names
    data that exists, sampled every control period (the critic windows and
    the DTW compare its frames with the policy's), and, if ``windowed`` (the
    caller reads critic windows), has a ``disc.horizon`` that fits in every
    trajectory; data that does not parse raises ``ValueError``. ``datasets``
    maps absolute ``refs`` paths to the data read from them: a path in it is
    not read again, and a path read is added to it."""
    errors = cfg.validate()
    if not cfg.refs or not Path(cfg.refs).exists():
        errors.append(f"refs must point at reference data that exists "
                      f"(--refs or the refs config key), not {cfg.refs!r}")
    if errors:
        raise ConfigError(errors)
    cfg.refs = str(Path(cfg.refs).absolute())
    datasets = {} if datasets is None else datasets
    if cfg.refs not in datasets:
        datasets[cfg.refs] = load_reference_dataset(cfg.refs, 1)
    dataset = datasets[cfg.refs]
    if abs(dataset.dt - cfg.sim.control_dt) > 1e-9:
        raise ConfigError([f"refs are sampled every {dataset.dt} s, but the policy "
                           f"acts every sim.control_dt = {cfg.sim.control_dt} s"])
    shortest = dataset.lengths.min()
    if windowed and shortest < cfg.disc.horizon:
        raise ConfigError([f"disc.horizon ({cfg.disc.horizon}) must not exceed the "
                           f"shortest reference trajectory ({shortest} frames)"])
    return cfg, dataset


def open_checkpoint(checkpoint, keys=(), windowed: bool = True) -> tuple:
    """``(ckpt, cfg, dataset)`` of ``checkpoint``, a file's path or the dict
    ``load_checkpoint`` read from one: the dict, and ``run_inputs`` of its
    config with ``keys``, ``(key, value)`` pairs, over it."""
    ckpt = checkpoint if isinstance(checkpoint, dict) else load_checkpoint(checkpoint)
    if not isinstance(ckpt.get("config"), dict):
        raise ValueError("checkpoint has no 'config'")
    cfg = build_config(keys=[*ckpt["config"].items(), *keys])
    return (ckpt, *run_inputs(cfg, windowed))


def _policy_sizes(cfg: TrainConfig) -> list:
    return [POLICY_OBS_DIM, *cfg.ppo.hidden_sizes, ACTION_DIM]


def checkpoint_policy(cfg: TrainConfig, ckpt: dict) -> GaussianPolicy:
    """The policy of the checkpoint dict ``ckpt`` under its config ``cfg``;
    it adopts the dict's vector, not a copy."""
    if "policy" not in ckpt:
        raise ValueError("checkpoint has no 'policy'")
    return GaussianPolicy(_policy_sizes(cfg), "elu", ckpt["policy"])


class Trainer:
    """Owns every piece of training state. One writer; rollout collection and
    the two learners run strictly in sequence inside an iteration."""

    def __init__(self, cfg: TrainConfig, dataset: ReferenceDataset,
                 ckpt: dict | None = None):
        """A fresh trainer at ``cfg.seed``, or with ``ckpt``, a checkpoint
        dict (``load_checkpoint``), the trainer it holds. It adopts every
        array of the dict, not a copy: the nets and optimizers as they are
        built, and the rest in one last pass, ``_adopt``. So a dict restores
        one trainer, and its arrays are then that trainer's."""
        cfg.require_valid()
        dataset.window_offsets(cfg.disc.horizon)
        self.cfg = cfg
        self.dataset = dataset

        seed = cfg.seed
        value_sizes = [POLICY_OBS_DIM, *cfg.ppo.hidden_sizes, 1]
        disc_sizes = [cfg.disc.input_dim, *cfg.disc.hidden_sizes, 1]
        if ckpt is None:
            init_rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
            net = MlpNet.create(_policy_sizes(cfg), "elu", rng=init_rng,
                                output_gain=0.01)
            self.policy = GaussianPolicy(net.layer_sizes, "elu", np.concatenate(
                [net.flat, np.full(ACTION_DIM, cfg.ppo.init_log_std)]))
            self.value_net = MlpNet.create(value_sizes, "elu", rng=init_rng)
            self.disc = MlpNet.create(disc_sizes, "relu", rng=init_rng)
        else:
            self.policy = checkpoint_policy(cfg, ckpt)
            self.value_net = MlpNet(value_sizes, "elu", ckpt["value_net"])
            self.disc = MlpNet(disc_sizes, "relu", ckpt["discriminator"])
        self.iteration = 0
        self.policy_opt = OptimizerState.for_params(
            self.policy.flat, "adam", cfg.ppo.learning_rate,
            slots=_kept_slots(ckpt, "policy_opt", self.policy.flat, "adam"))
        self.value_opt = OptimizerState.for_params(
            self.value_net.flat, "adam", cfg.ppo.learning_rate,
            slots=_kept_slots(ckpt, "value_opt", self.value_net.flat, "adam"))
        disc_kind = cfg.disc.optimizer_kind
        self.disc_opt = OptimizerState.for_params(
            self.disc.flat, disc_kind, cfg.disc.learning_rate,
            weight_decay=cfg.disc.weight_decay, momentum=cfg.disc.momentum,
            rho=cfg.disc.rho,
            slots=_kept_slots(ckpt, "disc_opt", self.disc.flat, disc_kind))
        # the discriminator step's and the PPO update's arrays, kept from one
        # minibatch and one iteration to the next
        self.disc_ref_cache, self.disc_pol_cache = ForwardCache(), ForwardCache()
        self.ppo_pol_cache, self.ppo_val_cache = ForwardCache(), ForwardCache()
        self.ppo_val_grad = np.empty_like(self.value_net.flat)

        self.imitation = ImitationReward(cfg.disc.loss_kind)
        self.env = PlanarEnv(cfg.sim, cfg.ppo.num_envs, seed=seed)
        self.collector = RolloutCollector(self.env, cfg.disc, cfg.ppo,
                                          cfg.reward, seed=seed)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        if ckpt is not None:
            self._adopt(ckpt)

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
            ref_mb = sample_reference_windows(
                self.dataset, mb_size, cfg.disc.horizon, self.rng).reshape(mb_size, -1)
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
            "running_stats": {key: getattr(self.imitation, key)
                              for key in ("count", "mean", "m2")},
            "env": {"arrays": {key: getattr(self.env, key) for key in STATE_ARRAYS}},
            "collector": {"frames": self.collector.history.frames.buf},
            "trainer_rng": self.rng.bit_generator.state,
            "env_rngs": [r.bit_generator.state for r in self.env.rngs],
            "action_rngs": [r.bit_generator.state for r in self.collector.action_rngs],
        }

    def _optimizers(self) -> tuple:
        return (("policy_opt", self.policy_opt), ("value_opt", self.value_opt),
                ("disc_opt", self.disc_opt))

    def _adopt(self, ckpt: dict) -> None:
        """Raise ``ValueError``, the dict left as it was, unless ``ckpt`` has
        ``checkpoint_dict``'s layout (``_check_layout``), its iteration,
        step counts, reward count and ``m2`` are >= 0, and each generator
        state is one its generator takes; then set the generator states,
        make the dict's env state arrays and frame buffer the env's and the
        collector's, and set the scalars. The config is this trainer's, so
        it is not compared: a key the dict's config lacks takes its default."""
        live = self.checkpoint_dict()
        del live["config"]
        _check_layout({key: value for key, value in ckpt.items() if key != "config"},
                      live)
        counts = {"iteration": ckpt["iteration"],
                  **{f"{name}/step_count": ckpt[name]["step_count"]
                     for name, _ in self._optimizers()},
                  **{f"running_stats/{key}": ckpt["running_stats"][key]
                     for key in ("count", "m2")}}
        for path, value in counts.items():
            if value < 0:
                raise ValueError(f"checkpoint/{path} is {value!r}, must be >= 0")
        rngs = [self.rng, *self.env.rngs, *self.collector.action_rngs]
        states = [ckpt["trainer_rng"], *ckpt["env_rngs"], *ckpt["action_rngs"]]
        # a generator checks a state only as it is set
        try:
            for rng, state in zip(rngs, states):
                rng.bit_generator.state = state
        except (TypeError, ValueError, KeyError) as e:
            raise ValueError(f"checkpoint generator state: {e}") from None
        for key, array in ckpt["env"]["arrays"].items():
            setattr(self.env, key, array)
        self.collector.history.frames.buf = ckpt["collector"]["frames"]
        self.iteration = ckpt["iteration"]
        for name, opt in self._optimizers():
            opt.learning_rate = ckpt[name]["learning_rate"]
            opt.step_count = ckpt[name]["step_count"]
        for key, value in ckpt["running_stats"].items():
            setattr(self.imitation, key, value)

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


def _scalar_kind(value):
    """The kind of a checkpoint scalar: bool, int, float or str, else None.
    A bool is not an int here, nor an int a float."""
    for kind in (bool, int, float, str):
        if isinstance(value, kind):
            return kind
    return None


def _check_layout(got, live, path: str = "checkpoint") -> None:
    """Raise ``ValueError`` unless ``got`` has the layout of ``live``: the
    same keys at every level, each array of the live array's shape and
    dtype, each list of the live list's length, and each scalar of the live
    scalar's kind, a float finite."""
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
    elif (kind := _scalar_kind(live)) is not None:
        if _scalar_kind(got) is not kind:
            raise ValueError(f"{path} is {got!r}, this trainer's is a {kind.__name__}")
        if kind is float and not math.isfinite(got):
            raise ValueError(f"{path} is {got!r}, not a finite float")


def _kept_slots(ckpt, name: str, flat: np.ndarray, kind: str):
    """The slots that the checkpoint dict ``ckpt`` keeps for the optimizer
    ``name`` of the vector ``flat``, or None without a dict. Raises
    ``ValueError`` unless they are ``kind``'s slots, each of ``flat``'s
    shape and dtype: an optimizer adopts them, and ``_adopt`` would then
    compare them with themselves."""
    if ckpt is None:
        return None
    slots = ckpt[name]["slots"]
    _check_layout(slots, dict.fromkeys(SLOT_NAMES[kind], flat),
                  f"checkpoint/{name}/slots")
    return slots


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


def rollout_observations(cfg: TrainConfig, policy: GaussianPolicy, frames: int, seed: int):
    """One deterministic (mean-action) rollout: the (frames, 6) base
    observation sequence and the handcrafted tally of ``rollout_batch``
    with the single seed ``seed`` (None for a task without one)."""
    seqs, tallies = rollout_batch(cfg, policy, frames, [seed])
    return seqs[0], None if tallies is None else tallies[0]


def rollout_batch(cfg: TrainConfig, policy: GaussianPolicy, frames: int, seeds):
    """Deterministic (mean-action) rollouts, one per seed, stepped together
    in one environment whose row ``i`` replays a one-env environment seeded
    with ``seeds[i]``. Returns the (R, frames, 6) base observation sequences
    and each rollout's handcrafted tally of the task: the stand-up reward's
    mean for standup, the backflip reward's total for backflip, and None
    for the other tasks. Each equals what ``rollout_observations`` gives
    for its seed alone, bit for bit.

    Once a row's body hits the ground its remaining frames hold its last
    observation: the motion is over, and a frozen tail keeps the sequence
    comparable to full-length references. Its tally stops at that step: the
    stand-up mean is taken over the row's live steps only, and a backflip
    landing counts only while the row is live. Frozen rows repeat their last
    action until every row is done; their history still advances, unread.

    Each step's observation features are computed once, for the sequences
    and the history. Until a row is done, the policy and the sequences take
    every row without selecting any. Only the task's tally is computed: the
    stand-up tally reads the end-of-step foot contacts, the backflip tally
    the flight reader, which keeps its flight state in this loop's arrays.
    """
    R = len(seeds)
    task = cfg.task
    env = PlanarEnv(cfg.sim, num_envs=R, seed=list(seeds))
    history = PolicyHistory(env)
    seqs = np.zeros((R, frames, 6))
    seqs[:, 0] = env.observation_features()
    standup_terms = np.zeros((R, frames - 1))
    live_steps = np.zeros(R, dtype=np.int64)
    backflip_total = np.zeros(R)
    airborne, flight_angle = np.zeros(R, dtype=bool), np.zeros(R)
    done = np.zeros(R, dtype=bool)
    every = live = slice(None)  # the rows not done: every row until one is
    action = np.zeros((R, ACTION_DIM))
    obs = np.empty((R, 1, POLICY_OBS_DIM))
    cache = ForwardCache()
    for t in range(1, frames):
        history.obs(out=obs[:, 0])
        # each row is its own one-row product, stacked in one forward: a
        # many-row matrix product rounds differently from a one-row product,
        # and a falling robot amplifies that ~1e-17 to 1e-8 within 100 steps
        mean, _ = policy.net.forward(obs[live], cache)
        action[live] = mean[:, 0]
        result = env.step(action)
        features = env.observation_features()
        seqs[:, t] = features
        if live is not every:
            seqs[done, t] = seqs[done, t - 1]
        if task == "standup":
            standup_terms[:, t - 1] = handcrafted_standup_reward(
                env.pitch, env.z, env.foot_contacts()[:, 0])
            live_steps += ~done
        elif task == "backflip":
            landing, angle = env.flight(airborne, flight_angle)
            # backward rotation counts positive for the flip reward
            np.add(backflip_total, handcrafted_backflip_reward(-angle, True),
                   out=backflip_total, where=landing & ~done)
        if result.terminal.any():
            done |= result.terminal
            if done.all():
                seqs[:, t + 1:] = seqs[:, t, None]
                break
            live = np.flatnonzero(~done)
        history.advance(action, features)
    if task == "standup":
        # a row's live steps are a prefix of its terms: np.mean sums that
        # slice pairwise, as it summed the list of them
        return seqs, [float(np.mean(terms[:n])) if n else 0.0
                      for terms, n in zip(standup_terms, live_steps)]
    return seqs, backflip_total.tolist() if task == "backflip" else None


def evaluate_policy(cfg: TrainConfig, policy: GaussianPolicy,
                    dataset: ReferenceDataset, seed: int = 0) -> EvalReport:
    """DTW evaluation against the dataset plus the stand-still baseline and,
    for tasks with one, the handcrafted task-reward score."""
    frames = cfg.eval.episode_frames or int(dataset.lengths.max())

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23, seed]))
    seeds = [int(rng.integers(0, 2 ** 31)) for _ in range(cfg.eval.rollouts)]
    seqs, tallies = rollout_batch(cfg, policy, frames, seeds)
    dtw_report = DtwReport.of(dtw_distances(seqs, dataset.trajectories, cfg.dtw))

    still = stand_still_rollout(_nominal_observation(cfg), frames)
    still_report = DtwReport.of(dtw_distances([still], dataset.trajectories,
                                              cfg.dtw))

    handcrafted = None
    if tallies is not None:
        handcrafted = {"kind": cfg.task, "mean": float(np.mean(tallies)),
                       "std": float(np.std(tallies)), "per_rollout": tallies}
    return EvalReport(dtw=dtw_report, stand_still=still_report,
                      handcrafted=handcrafted, n_rollouts=cfg.eval.rollouts,
                      n_references=dataset.num_trajectories, rollouts=seqs)


def _nominal_observation(cfg: TrainConfig) -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, 0.0, -1.0, cfg.sim.nominal_height()])
