"""Experiment orchestration: the adversarial training loop, checkpointing,
metrics logging, and policy evaluation.

Checkpoints are one JSON object per file. ``json_chunks`` writes it piece by
piece: keys and scalars through ``json.dumps``, arrays a row at a time, and a
long vector in slices of ``JSON_SLICE`` values, so a save holds one slice's
text and floats at a time, not the whole checkpoint. The file is byte for
byte ``json.dumps`` of the same dict with every array as nested lists.

``load_checkpoint`` is its mirror. It reads the file in blocks of
``READ_BLOCK`` (64 Ki) characters and walks its objects key by key. The
value of a ``params`` key (a net's parameters) and of a ``slots`` key that
holds an object (a format-2 optimizer's slots) become float64 arrays: the
complete float literals of each block, or a block's worth of a matrix's
complete rows, go to ``np.fromstring`` in one call, and an array's pieces
are joined when its closing ``]`` arrives. Every other value goes to
``json`` whole. So a load holds about two blocks of text and the pieces of
one array and their join, besides the arrays it returns: its transient
memory is set by the block size and the largest array, not by the file.
``np.fromstring`` reads an empty literal as -1.0 without a word
(``np.fromstring("1.0, 2.0, ", sep=",")`` is ``[1., 2., -1.]``), so it is
never handed text that ends in a separator, and the values it returns are
checked against the literals in the text. A file that ends early, or is
not JSON, raises ``ValueError``.

Every file the program replaces goes through ``_write_atomic``: the chunks
stream into a temp file beside the target, which is flushed, synced and
renamed over it. A crash, or an error raised while the chunks are made,
leaves the previous file as it was and no temp file behind.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import TrainConfig, build_config, config_to_mapping, save_config
from .core import ReferenceDataset, load_reference_dataset, sample_reference_windows
from .discriminator import (build_discriminator, discriminator_loss, raw_score,
                            reference_input)
from .dtw import DtwReport, dtw_distances, stand_still_rollout
from .nets import (ForwardCache, MlpNet, OptimizerState, net_from_dict,
                   net_to_dict, optimizer_from_dict, optimizer_to_dict,
                   optimizer_step)
from .ppo import (ACTION_DIM, GaussianPolicy, POLICY_OBS_DIM, PolicyHistory,
                  RolloutCollector, ppo_update)
from .rewards import (ImitationReward, RunningStats,
                      handcrafted_backflip_reward, handcrafted_standup_reward)
from .sim import PlanarEnv

CHECKPOINT_FORMAT_VERSION = 2
# values per encoded slice of a vector: a few hundred KiB of floats and text
JSON_SLICE = 4096
# characters read from a checkpoint file at a time
READ_BLOCK = 64 * 1024
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


def _write_atomic(path: Path, chunks) -> None:
    """Replace ``path`` with the concatenated text ``chunks`` in one step:
    they go to a temp file in the same directory, which is flushed to disk
    and renamed over ``path``. A crash mid-write, or an exception from the
    chunks' iterator, leaves the previous file intact and removes the temp
    file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as f:
            f.writelines(chunks)
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
    _write_atomic(path, kept)


def json_chunks(obj):
    """Yield the text of ``json.dumps(obj)`` in pieces, where ``obj`` may
    hold float64 arrays: each is encoded as its nested lists would be, a row
    at a time, and a 1-D run of values in slices of ``JSON_SLICE``. Dict
    keys must be strings."""
    if isinstance(obj, np.ndarray) and obj.ndim == 1:
        yield "["
        for i in range(0, obj.shape[0], JSON_SLICE):
            yield (", " if i else "") + json.dumps(obj[i:i + JSON_SLICE].tolist())[1:-1]
        yield "]"
    elif isinstance(obj, (list, np.ndarray)):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ", "
            yield from json_chunks(item)
        yield "]"
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"checkpoint keys must be strings, not {key!r}")
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from json_chunks(value)
        yield "}"
    else:
        yield json.dumps(obj)


_BLANK = re.compile(r"[ \t\n\r]*")
_EMPTY_LITERAL = re.compile(r",[ \t\n\r]*(?:,|$)")
_decode = json.JSONDecoder().raw_decode


def _floats(text: str) -> np.ndarray:
    """The values of ``text``, float literals with commas between them,
    checked against the literal count and for an empty literal, which
    np.fromstring reads as -1.0: the text is searched for one only where a
    value is -1.0."""
    values = np.fromstring(text, sep=",")
    if values.size != text.count(",") + 1 or (
            (values == -1.0).any() and _EMPTY_LITERAL.search("," + text)):
        raise ValueError(f"malformed number list in checkpoint near {text[:40]!r}")
    return values


class _Reader:
    """The text of a checkpoint file, read a block at a time: ``buf[pos:]``
    is what is read and not yet parsed."""

    def __init__(self, f):
        self.f, self.buf, self.pos, self.eof = f, "", 0, False

    def more(self) -> bool:
        """Append the next block; False at the end of the file."""
        block = self.f.read(READ_BLOCK)
        self.buf, self.pos = self.buf[self.pos:] + block, 0
        self.eof = not block
        return not self.eof

    def peek(self) -> str:
        """The next non-blank character, not consumed; "" at the end."""
        while True:
            self.pos = _BLANK.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return self.buf[self.pos:self.pos + 1]

    def expect(self, chars: str) -> str:
        c = self.peek()
        if not c or c not in chars:
            raise ValueError(f"checkpoint: expected one of {chars!r}, found {c!r}")
        self.pos += 1
        return c

    def json(self):
        """The next value, parsed by ``json`` whole."""
        self.peek()
        while True:
            try:
                value, end = _decode(self.buf, self.pos)
            except json.JSONDecodeError:
                if self.eof:
                    raise
            else:
                # a number may go on past the text read so far, as "0." goes
                # on into "0.5"; the slice is "" at its end, which `in` finds
                if self.eof or self.buf[end:end + 1] not in "0123456789.eE+-":
                    self.pos = end
                    return value
            # read until the held text doubles, so a value of n blocks is
            # decoded about log2(n) times, not n times
            held = len(self.buf) - self.pos
            while len(self.buf) - self.pos < 2 * held and self.more():
                pass

    def items(self, close: str, read) -> list:
        """``read()`` for each item up to ``close``, the opening bracket
        consumed."""
        items = []
        if self.peek() == close:
            self.pos += 1
            return items
        while True:
            items.append(read())
            if self.expect("," + close) == close:
                return items

    def object(self, member) -> dict:
        """An object whose value under each key ``member(key)`` reads."""
        def pair():
            key = self.json()
            if not isinstance(key, str):
                raise ValueError(f"checkpoint: key {key!r} is not a string")
            self.expect(":")
            return key, member(key)

        self.expect("{")
        return dict(self.items("}", pair))

    def value(self, key: str):
        """The value under ``key``: a net's ``params`` as a list of arrays, a
        format-2 optimizer's ``slots`` as arrays by name, any other object
        member by member, and anything else by ``json``."""
        c = self.peek()
        if key == "params":
            self.expect("[")
            return self.items("]", self.array)
        if key == "slots" and c == "{":
            return self.object(lambda name: self.array())
        if c == "{":
            return self.object(self.value)
        return self.json()

    def array(self) -> np.ndarray:
        """A list of numbers, or of rows of numbers, as a float64 array."""
        self.expect("[")
        return self.rows() if self.peek() == "[" else self.run()

    def rows(self) -> np.ndarray:
        """Rows of numbers up to the "]" that closes them, as one 2-D array.
        Rows are joined into one call to numpy per block's worth of text."""
        pieces, texts, held, widths = [], [], 0, set()
        while True:
            self.expect("[")
            while (end := self.buf.find("]", self.pos)) < 0:
                if not self.more():
                    raise ValueError("checkpoint ends inside a number list")
            texts.append(self.buf[self.pos:end])
            held += end - self.pos
            self.pos = end + 1
            done = self.expect(",]") == "]"
            if done or held >= READ_BLOCK:
                widths.update(text.count(",") + 1 for text in texts)
                pieces.append(_floats(", ".join(texts)))
                texts, held = [], 0
            if done:
                if len(widths) != 1:
                    raise ValueError("checkpoint: rows of different lengths")
                return np.concatenate(pieces).reshape(-1, widths.pop())

    def run(self) -> np.ndarray:
        """The numbers up to the next "]", which is consumed. The complete
        literals read so far are parsed block by block."""
        pieces = []
        while True:
            end = self.buf.find("]", self.pos)
            if end >= 0:
                text, self.pos = self.buf[self.pos:end], end + 1
                if not pieces and not text.strip():
                    return np.zeros(0)
                pieces.append(_floats(text))
                return np.concatenate(pieces)
            cut = self.buf.rfind(",", self.pos)
            if cut >= 0:
                pieces.append(_floats(self.buf[self.pos:cut]))
                self.pos = cut + 1
            if not self.more():
                raise ValueError("checkpoint ends inside a number list")


def load_checkpoint(path) -> dict:
    """Parse a checkpoint file, its parameters and optimizer slots as arrays
    (see the module docstring)."""
    with Path(path).open() as f:
        reader = _Reader(f)
        ckpt = reader.object(reader.value)
        if reader.peek():
            raise ValueError("checkpoint: extra data after the object")
    return ckpt


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
        # the discriminator step's and the PPO update's arrays, kept from one
        # minibatch and one iteration to the next
        self.disc_ref_cache, self.disc_pol_cache = ForwardCache(), ForwardCache()
        self.ppo_pol_cache, self.ppo_val_cache = ForwardCache(), ForwardCache()
        self.ppo_val_grad = np.empty_like(self.value_net.flat)

        self.policy_opt = OptimizerState.for_params(
            self.policy.flat, "adam", cfg.ppo.learning_rate)
        self.value_opt = OptimizerState.for_params(
            self.value_net.flat, "adam", cfg.ppo.learning_rate)
        self.disc_opt = OptimizerState.for_params(
            self.disc.flat, cfg.disc.optimizer_kind, cfg.disc.learning_rate,
            weight_decay=cfg.disc.weight_decay, momentum=cfg.disc.momentum,
            rho=cfg.disc.rho)

        self.imitation = ImitationReward(cfg.disc.loss_kind, RunningStats())
        self.env = PlanarEnv(cfg.sim, cfg.ppo.num_envs, seed=seed)
        self.collector = RolloutCollector(self.env, cfg.disc, cfg.ppo,
                                          cfg.reward, seed=seed)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))

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
        for _ in range(cfg.disc.epochs_per_iter):
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
        _write_atomic(run_path, [json.dumps(meta, indent=2), "\n"])

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
            "policy_log_std": self.policy.log_std,
            "value_net": net_to_dict(self.value_net),
            "discriminator": net_to_dict(self.disc),
            "policy_opt": optimizer_to_dict(self.policy_opt),
            "value_opt": optimizer_to_dict(self.value_opt),
            "disc_opt": optimizer_to_dict(self.disc_opt),
            "running_stats": self.imitation.stats.to_dict(),
            "trainer_rng": self.rng.bit_generator.state,
            "env": self.env.state_dict(),
            "collector": self.collector.state_dict(),
        }

    def save_checkpoint(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, itertools.chain(json_chunks(self.checkpoint_dict()), ("\n",)))
        return path

    def restore(self, ckpt: dict) -> None:
        # format 1 differs only in its optimizer slots (see optimizer_from_dict)
        if ckpt.get("format_version") not in (1, CHECKPOINT_FORMAT_VERSION):
            raise ValueError(
                f"unsupported checkpoint format {ckpt.get('format_version')!r}")
        self.iteration = ckpt["iteration"]
        self.policy = GaussianPolicy(net_from_dict(ckpt["policy_net"]),
                                     ckpt["policy_log_std"])
        self.value_net = net_from_dict(ckpt["value_net"])
        self.disc = net_from_dict(ckpt["discriminator"])
        self.policy_opt = optimizer_from_dict(ckpt["policy_opt"])
        self.value_opt = optimizer_from_dict(ckpt["value_opt"])
        self.disc_opt = optimizer_from_dict(ckpt["disc_opt"])
        self.imitation.stats = RunningStats.from_dict(ckpt["running_stats"])
        self.rng.bit_generator.state = ckpt["trainer_rng"]
        self.env.load_state_dict(ckpt["env"])
        self.collector.load_state_dict(ckpt["collector"])

    @classmethod
    def from_checkpoint(cls, checkpoint, dataset: ReferenceDataset | None = None,
                        keys=()) -> "Trainer":
        """A trainer restored from ``checkpoint``: a file's path, or the dict
        ``load_checkpoint`` parsed from one. ``keys``, ``(key, value)`` pairs,
        override the checkpoint's config."""
        ckpt = checkpoint if isinstance(checkpoint, dict) else load_checkpoint(checkpoint)
        cfg = build_config(keys=[*((k, v) for k, v in ckpt["config"].items()
                                   if k not in RETIRED_CONFIG_KEYS), *keys])
        if dataset is None:
            if not cfg.refs:
                raise ValueError("checkpoint config has no reference path; "
                                 "pass a dataset explicitly")
            dataset = load_reference_dataset(cfg.refs, cfg.disc.horizon)
        trainer = cls(cfg, dataset)
        trainer.restore(ckpt)
        return trainer


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
        handcrafted = HandcraftedReport(kind=handcrafted_kind,
                                        mean=float(np.mean(values)),
                                        std=float(np.std(values)),
                                        per_rollout=values)
    return EvalReport(dtw=dtw_report, stand_still=still_report,
                      handcrafted=handcrafted, n_rollouts=cfg.eval.rollouts,
                      n_references=dataset.num_trajectories, rollouts=seqs)


def _nominal_observation(cfg: TrainConfig) -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, 0.0, -1.0, cfg.sim.nominal_height()])
