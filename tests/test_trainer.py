import copy
import io
import json
import pickle
import struct
import tempfile
import time
import tracemalloc
import zipfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarmimic.config import default_config
from planarmimic.core import ReferenceDataset, save_reference_csv
from planarmimic.dtw import dtw_distance
from planarmimic.nets import unflatten
from planarmimic.ppo import ACTION_DIM
from planarmimic.rewards import (handcrafted_backflip_reward,
                                 handcrafted_standup_reward)
from planarmimic.sim import PlanarEnv, generate_demo_set
from planarmimic.trainer import (CHECKPOINT_FORMAT_VERSION, MEMBER_BLOCK,
                                 Trainer, build_identifier, evaluate_policy,
                                 load_checkpoint, rollout_batch,
                                 rollout_observations, write_checkpoint)

from test_nets import assert_views_of


def tiny_config(task="leap", loss="wgan", seed=3, tmp_path=None):
    cfg = default_config(task, loss)
    cfg.seed = seed
    cfg.iterations = 4
    cfg.checkpoint_interval = 2
    cfg.ppo.num_envs = 4
    cfg.ppo.steps_per_iter = 6
    cfg.ppo.hidden_sizes = (16, 16)
    cfg.disc.hidden_sizes = (16, 8)
    cfg.disc.minibatches = 2
    cfg.disc.minibatch_size = 16
    cfg.eval.rollouts = 2
    if tmp_path is not None:
        refs = tmp_path / "refs"
        demos = generate_demo_set(task, cfg.sim, np.random.default_rng(0),
                                  n_trajectories=4)
        save_reference_csv(refs, demos, cfg.sim.control_dt)
        cfg.refs = str(refs)
    return cfg


def tiny_dataset(cfg, task="leap"):
    demos = generate_demo_set(task, cfg.sim, np.random.default_rng(0),
                              n_trajectories=4)
    return ReferenceDataset(trajectories=demos, dt=cfg.sim.control_dt)


class TestTrainingLoop:
    def test_metrics_record_fields(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        rec = trainer.train_iteration()
        for key in ("iteration", "reward_mean", "imitation_mean",
                    "regularization_mean", "termination_rate", "disc_loss",
                    "kl", "lr", "episode_length_mean"):
            assert key in rec
        assert rec["iteration"] == 1

    def test_run_writes_artifacts(self, tmp_path):
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        final = trainer.run(tmp_path / "run")
        out = tmp_path / "run"
        assert (out / "config.txt").exists()
        assert (out / "run.json").exists()
        assert (out / "metrics.jsonl").exists()
        assert (out / "checkpoint_000002.npz").exists()
        assert final.exists()
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == cfg.iterations
        records = [json.loads(l) for l in lines]
        assert [r["iteration"] for r in records] == [1, 2, 3, 4]
        run_meta = json.loads((out / "run.json").read_text())
        assert run_meta["seed"] == cfg.seed
        assert run_meta["build"]

    def test_same_seed_identical_metrics(self):
        cfg_a = tiny_config(seed=11)
        cfg_b = tiny_config(seed=11)
        ta = Trainer(cfg_a, tiny_dataset(cfg_a))
        tb = Trainer(cfg_b, tiny_dataset(cfg_b))
        for _ in range(3):
            ra = ta.train_iteration()
            rb = tb.train_iteration()
            assert ra == rb

    def test_different_seeds_differ(self):
        cfg_a = tiny_config(seed=1)
        cfg_b = tiny_config(seed=2)
        ra = Trainer(cfg_a, tiny_dataset(cfg_a)).train_iteration()
        rb = Trainer(cfg_b, tiny_dataset(cfg_b)).train_iteration()
        assert ra["reward_mean"] != rb["reward_mean"]

    def test_lsgan_variant_runs(self):
        cfg = tiny_config(loss="lsgan")
        trainer = Trainer(cfg, tiny_dataset(cfg))
        rec = trainer.train_iteration()
        assert np.isfinite(rec["disc_loss"])


def assert_flat_layout(trainer):
    """Every parameter array is a C-contiguous view of its learner's vector,
    and every optimizer slot one vector of that learner's size."""
    policy = trainer.policy
    assert_views_of(policy.flat, [policy.net.flat, policy.log_std]
                    + policy.net.weights + policy.net.biases)
    for net in (trainer.value_net, trainer.disc):
        assert_views_of(net.flat, net.weights + net.biases)
    for opt, flat in ((trainer.policy_opt, policy.flat),
                      (trainer.value_opt, trainer.value_net.flat),
                      (trainer.disc_opt, trainer.disc.flat)):
        for slot in opt.slots.values():
            assert slot.shape == flat.shape and slot.flags.c_contiguous


# each fault a restore refuses, as (key path, the new value made from the
# old one or None to delete the key, the message), on the checkpoint dict of
# ``tiny_config``'s trainer: four rows, adam for the policy and rmsprop for
# the discriminator
RESTORE_FAULTS = {
    "one-row env array": (
        "env/arrays/x", lambda a: a[:1].copy(),
        r"checkpoint/env/arrays/x is float64 \(1,\), this trainer's float64 \(4,\)"),
    "one-row frame buffer": ("collector/frames", lambda a: a[:1].copy(),
                             r"checkpoint/collector/frames is float64 \(1,"),
    "another dtype": ("env/arrays/steps", lambda a: a.astype(np.float64),
                      "checkpoint/env/arrays/steps is float64"),
    "missing member": ("env/arrays/mass", None, "checkpoint/env/arrays has"),
    "extra member": ("collector/windows", lambda _: np.zeros((4, 2, 6)),
                     "checkpoint/collector has"),
    "slots of another kind": (
        "disc_opt/slots", lambda s: {"m": s["sq"], "v": s["buf"]},
        r"checkpoint/disc_opt/slots has \['m', 'v'\], this trainer \['buf', 'sq'\]"),
    "short slot": ("policy_opt/slots/v", lambda a: a[:-1].copy(),
                   "checkpoint/policy_opt/slots/v is float64"),
    "short env generator list": ("env_rngs", lambda s: s[:-1],
                                 "checkpoint/env_rngs has 3 entries, this trainer 4"),
    "one action generator": ("action_rngs", lambda s: s[:1],
                             "checkpoint/action_rngs has 1 entries, this trainer 4"),
    "generator of another kind": (
        "action_rngs", lambda s: [*s[:3], dict(s[3], bit_generator="MT19937")],
        "checkpoint generator state: state must be for a PCG64"),
    "count not a number": ("running_stats/count", lambda _: "many",
                           "checkpoint/running_stats/count is 'many', this trainer's is a int"),
    "no mean": ("running_stats/mean", lambda _: None,
                "checkpoint/running_stats/mean is None, this trainer's is a float"),
    "learning rate not a number": (
        "policy_opt/learning_rate", lambda _: "fast",
        "checkpoint/policy_opt/learning_rate is 'fast', this trainer's is a float"),
    "negative iteration": ("iteration", lambda _: -3,
                           "checkpoint/iteration is -3, must be >= 0"),
    "fractional step count": (
        "policy_opt/step_count", lambda _: 1.5,
        "checkpoint/policy_opt/step_count is 1.5, this trainer's is a int"),
    "bool step count": ("value_opt/step_count", lambda _: True,
                        "checkpoint/value_opt/step_count is True, this trainer's is a int"),
    "negative step count": ("disc_opt/step_count", lambda _: -1,
                            "checkpoint/disc_opt/step_count is -1, must be >= 0"),
    "negative count": ("running_stats/count", lambda _: -2,
                       "checkpoint/running_stats/count is -2, must be >= 0"),
    "negative m2": ("running_stats/m2", lambda _: -0.5,
                    r"checkpoint/running_stats/m2 is -0.5, must be >= 0"),
    "int m2": ("running_stats/m2", lambda _: 0,
               "checkpoint/running_stats/m2 is 0, this trainer's is a float"),
    "nan mean": ("running_stats/mean", lambda _: float("nan"),
                 "checkpoint/running_stats/mean is nan, not a finite float"),
    "infinite learning rate": (
        "disc_opt/learning_rate", lambda _: float("inf"),
        "checkpoint/disc_opt/learning_rate is inf, not a finite float"),
}


def apply_fault(ckpt: dict, fault: str) -> str:
    """Put ``fault`` into ``ckpt``; returns the message it raises."""
    path, change, match = RESTORE_FAULTS[fault]
    *parents, key = path.split("/")
    node = ckpt
    for parent in parents:
        node = node[parent]
    if change is None:
        del node[key]
    else:
        node[key] = change(node.get(key))
    return match


def assert_resume_is_bit_exact(tmp_path, loss):
    cfg = tiny_config(loss=loss, tmp_path=tmp_path, seed=21)
    cfg.iterations = 6
    cfg.checkpoint_interval = 3

    # uninterrupted run
    solid = Trainer(cfg, tiny_dataset(cfg))
    records_solid = [solid.train_iteration() for _ in range(6)]

    # interrupted at 3, resumed from checkpoint
    part = Trainer(tiny_config(loss=loss, tmp_path=tmp_path, seed=21),
                   tiny_dataset(cfg))
    for _ in range(3):
        part.train_iteration()
    ckpt = part.save_checkpoint(tmp_path / "ckpt.npz")
    resumed = Trainer.from_checkpoint(ckpt)
    records_resumed = [resumed.train_iteration() for _ in range(3)]

    assert records_resumed == records_solid[3:]


class TestCheckpointResume:
    def test_resume_is_bit_exact(self, tmp_path):
        assert_resume_is_bit_exact(tmp_path, "wgan")

    def test_resume_is_bit_exact_lsgan(self, tmp_path):
        assert_resume_is_bit_exact(tmp_path, "lsgan")

    def test_checkpoint_preserves_parameters(self, tmp_path):
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.train_iteration()
        path = trainer.save_checkpoint(tmp_path / "c.npz")
        restored = Trainer.from_checkpoint(path)
        assert np.array_equal(restored.policy.flat, trainer.policy.flat)
        assert np.array_equal(restored.value_net.flat, trainer.value_net.flat)
        assert np.array_equal(restored.disc.flat, trainer.disc.flat)
        assert vars(restored.imitation) == vars(trainer.imitation)
        assert restored.iteration == trainer.iteration
        # memory layout too: BLAS rounds by layout, so a restored array that
        # is ordered differently from its original breaks bit-exact resume
        assert_flat_layout(trainer)
        assert_flat_layout(restored)
        for opt in ("policy_opt", "value_opt", "disc_opt"):
            before, after = getattr(trainer, opt), getattr(restored, opt)
            assert after.step_count == before.step_count
            assert after.slots.keys() == before.slots.keys()
            for k in before.slots:
                assert np.array_equal(after.slots[k], before.slots[k])

    def test_fresh_trainer_layout(self):
        cfg = tiny_config()
        assert_flat_layout(Trainer(cfg, tiny_dataset(cfg)))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        path = trainer.save_checkpoint(tmp_path / "c.npz")
        before = path.read_bytes()
        trainer.train_iteration()

        def fail(fd):
            raise OSError("disk full")

        # the new checkpoint is fully written to the temp file when this fails
        monkeypatch.setattr("planarmimic.trainer.os.fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            trainer.save_checkpoint(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.npz", "refs"]
        assert Trainer.from_checkpoint(path).iteration == 0

    def test_resume_keeps_each_record_once(self, tmp_path):
        cfg = tiny_config(tmp_path=tmp_path, seed=21)
        solid_dir, run_dir = tmp_path / "solid", tmp_path / "run"
        Trainer(cfg, tiny_dataset(cfg)).run(solid_dir, iterations=4)

        # run to 3, so iteration 3 is logged past checkpoint_000002; a crash
        # mid-append leaves a torn last line
        Trainer(tiny_config(tmp_path=tmp_path, seed=21), tiny_dataset(cfg)).run(
            run_dir, iterations=3)
        with (run_dir / "metrics.jsonl").open("a") as f:
            f.write('{"iteration": 4, "rew')
        resumed = Trainer.from_checkpoint(run_dir / "checkpoint_000002.npz")
        resumed.run(run_dir, iterations=4)

        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["iteration"] for r in records] == [1, 2, 3, 4]
        solid = [json.loads(line)
                 for line in (solid_dir / "metrics.jsonl").read_text().splitlines()]
        assert records == solid
        resumes = json.loads((run_dir / "run.json").read_text())["resumes"]
        assert [r["resumed_from"] for r in resumes] == [2]
        assert resumes[0]["at"]

    def test_checkpoint_format_versioned(self, tmp_path):
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        ckpt = load_checkpoint(trainer.save_checkpoint(tmp_path / "c.npz"))
        assert ckpt["format_version"] == CHECKPOINT_FORMAT_VERSION == 7
        ckpt["format_version"] = 999
        bad = write_checkpoint(tmp_path / "bad.npz", ckpt)
        with pytest.raises(ValueError, match="format 999"):
            Trainer.from_checkpoint(bad)

    @pytest.mark.parametrize("fault", RESTORE_FAULTS)
    def test_restore_refuses_a_fault_and_writes_nothing(self, tmp_path, fault):
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.train_iteration()
        ckpt = copy.deepcopy(trainer.checkpoint_dict())
        match = apply_fault(ckpt, fault)
        kept = copy.deepcopy(ckpt)
        with pytest.raises(ValueError, match=match):
            Trainer(cfg, tiny_dataset(cfg), ckpt)
        assert_same(ckpt, kept)
        bad = write_checkpoint(tmp_path / "bad.npz", ckpt)
        with pytest.raises(ValueError, match=match):
            Trainer.from_checkpoint(bad)

    def test_format_3_is_refused_by_its_format(self, tmp_path):
        cfg = tiny_config(tmp_path=tmp_path)
        ckpt = dict(Trainer(cfg, tiny_dataset(cfg)).checkpoint_dict(), format_version=3)
        old = write_checkpoint(tmp_path / "old.npz", ckpt)
        with pytest.raises(ValueError, match="unsupported checkpoint format 3"):
            load_checkpoint(old)

    def test_format_4_is_refused_by_its_format(self, tmp_path):
        # format 4 also kept each env row's summed clock and terminal flag
        cfg = tiny_config(tmp_path=tmp_path)
        ckpt = dict(Trainer(cfg, tiny_dataset(cfg)).checkpoint_dict(), format_version=4)
        arrays = ckpt["env"]["arrays"]
        ckpt["env"] = {"arrays": dict(arrays, time=np.zeros(4),
                                      terminal=np.zeros(4, dtype=bool))}
        old = write_checkpoint(tmp_path / "old.npz", ckpt)
        with pytest.raises(ValueError, match="unsupported checkpoint format 4"):
            load_checkpoint(old)

    def test_format_5_is_refused_by_its_format(self, tmp_path):
        # format 5 also kept each env row's flight state
        cfg = tiny_config(tmp_path=tmp_path)
        ckpt = dict(Trainer(cfg, tiny_dataset(cfg)).checkpoint_dict(), format_version=5)
        arrays = ckpt["env"]["arrays"]
        ckpt["env"] = {"arrays": dict(arrays, flight_angle=np.zeros(4),
                                      airborne=np.zeros(4, dtype=bool))}
        old = write_checkpoint(tmp_path / "old.npz", ckpt)
        with pytest.raises(ValueError, match="unsupported checkpoint format 5"):
            load_checkpoint(old)
        with pytest.raises(ValueError, match="unsupported checkpoint format 5"):
            Trainer.from_checkpoint(old)

    def test_format_6_is_refused_by_its_format(self, tmp_path):
        # format 6's config also held the critic's retired disc.full_state
        cfg = tiny_config(tmp_path=tmp_path)
        ckpt = dict(Trainer(cfg, tiny_dataset(cfg)).checkpoint_dict(), format_version=6)
        ckpt["config"] = dict(ckpt["config"], **{"disc.full_state": "false"})
        old = write_checkpoint(tmp_path / "old.npz", ckpt)
        with pytest.raises(ValueError, match="unsupported checkpoint format 6"):
            load_checkpoint(old)
        with pytest.raises(ValueError, match="unsupported checkpoint format 6"):
            Trainer.from_checkpoint(old)


def desk_trainer(loss="wgan"):
    """A trainer at the shipped desk shapes, one iteration in."""
    cfg = default_config("leap", loss)
    trainer = Trainer(cfg, tiny_dataset(cfg))
    trainer.train_iteration()
    return trainer


def array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(array_bytes(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(array_bytes(v) for v in obj)
    return 0


class TestStreamedCheckpoint:
    def test_save_peak_is_one_slice_not_the_checkpoint(self, tmp_path):
        # the list form and its text took 11.8 MiB at these shapes; the
        # arrays now go to the file from their own memory
        trainer = desk_trainer()
        trainer.save_checkpoint(tmp_path / "warm.npz")
        tracemalloc.start()
        try:
            path = trainer.save_checkpoint(tmp_path / "c.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2 ** 20
        assert peak < 2 ** 18

    def test_encoder_failing_midway_keeps_previous_checkpoint(self, tmp_path,
                                                             monkeypatch):
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        path = trainer.save_checkpoint(tmp_path / "c.npz")
        before = path.read_bytes()
        trainer.train_iteration()
        with zipfile.ZipFile(path) as zf:
            n_members = len(zf.namelist())
        tmp = tmp_path / "c.npz.tmp"
        header = np.lib.format.header_data_from_array_1_0
        seen = []

        def failing(a):
            seen.append(tmp.exists())
            if len(seen) == n_members // 2:
                raise RuntimeError("encoder failed")
            return header(a)

        monkeypatch.setattr(np.lib.format, "header_data_from_array_1_0", failing)
        with pytest.raises(RuntimeError, match="encoder failed"):
            trainer.save_checkpoint(path)
        monkeypatch.undo()
        assert seen == [True] * (n_members // 2)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.npz", "refs"]
        assert Trainer.from_checkpoint(path).iteration == 0

    @pytest.mark.parametrize("a", [
        np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0)),
        np.arange(12.0), np.arange(24.0).reshape(2, 3, 4),
        np.arange(10.0)[::3], np.arange(12.0).reshape(3, 4).T])
    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_arrays_encode_as_their_lists(self, tmp_path, monkeypatch, a, block):
        # an array member holds its array's values in C order, whatever the
        # shape, and reads back as the same list at blocks that end inside a
        # float; the writer copies no array, so it refuses a strided view
        def ckpt(a):
            return {"format_version": CHECKPOINT_FORMAT_VERSION, "a": a,
                    "b": {"a": a, "c": [1, None, True]}, "d": "x"}

        path = tmp_path / "c.npz"
        if not a.flags.c_contiguous:
            with pytest.raises(ValueError, match="C-contiguous"):
                write_checkpoint(path, ckpt(a))
            assert list(tmp_path.iterdir()) == []
            a = np.ascontiguousarray(a)
        write_checkpoint(path, ckpt(a))
        monkeypatch.setattr("planarmimic.trainer.MEMBER_BLOCK", block)
        got = load_checkpoint(path)
        assert got["a"].shape == got["b"]["a"].shape == a.shape
        assert got["a"].tolist() == got["b"]["a"].tolist() == a.tolist()
        assert (got["b"]["c"], got["d"]) == ([1, None, True], "x")

    def test_load_decodes_parameters_and_slots_to_arrays(self, tmp_path):
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.train_iteration()
        ckpt = load_checkpoint(trainer.save_checkpoint(tmp_path / "c.npz"))
        for key, flat in (("policy", trainer.policy.flat),
                          ("value_net", trainer.value_net.flat),
                          ("discriminator", trainer.disc.flat)):
            assert ckpt[key].dtype == np.float64
            assert ckpt[key].tobytes() == flat.tobytes()
        for key in ("policy_opt", "value_opt", "disc_opt"):
            for name, slot in ckpt[key]["slots"].items():
                assert slot.dtype == np.float64
                assert slot.tobytes() == getattr(trainer, key).slots[name].tobytes()
        restored = Trainer.from_checkpoint(ckpt)
        assert restored.disc.flat.tobytes() == trainer.disc.flat.tobytes()
        assert_flat_layout(restored)
        # the restored nets adopt the loaded vectors and the optimizers the
        # loaded slots, so a restore makes no orthogonal init and no zeroed
        # slots
        assert restored.policy.flat is ckpt["policy"]
        assert restored.value_net.flat is ckpt["value_net"]
        assert restored.disc.flat is ckpt["discriminator"]
        for key in ("policy_opt", "value_opt", "disc_opt"):
            slots = getattr(restored, key).slots
            assert slots.keys() == ckpt[key]["slots"].keys()
            for name, slot in slots.items():
                assert slot is ckpt[key]["slots"][name]

    def test_new_trainer_adopts_the_loaded_state_arrays(self, tmp_path):
        # the env's state arrays and the collector's frame buffer used to be
        # copied into the fresh trainer's arrays, as a live restore did
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.train_iteration()
        path = trainer.save_checkpoint(tmp_path / "c.npz")
        ckpt = load_checkpoint(path)
        restored = Trainer(cfg, tiny_dataset(cfg), ckpt)
        for key, array in ckpt["env"]["arrays"].items():
            assert getattr(restored.env, key) is array
        assert restored.collector.history.frames.buf is ckpt["collector"]["frames"]
        twin = Trainer(cfg, tiny_dataset(cfg), load_checkpoint(path))
        assert restored.train_iteration() == twin.train_iteration()


def oracle_load(path) -> dict:
    """The checkpoint as numpy's own npz reader and ``json`` read it, the
    oracle of ``load_checkpoint``: meta.json's object with each array member
    at its key path."""
    with np.load(path, allow_pickle=False) as npz:
        ckpt = json.loads(npz["meta.json"])
        for name in ckpt.pop("members"):
            *parents, key = name.split("/")
            node = ckpt
            for parent in parents:
                node = node.setdefault(parent, {})
            node[key] = npz[name]
    return ckpt


def assert_same(got, expected, where="checkpoint"):
    """The same keys in the same order, the same Python types, and the same
    array bytes, NaN included."""
    assert type(got) is type(expected), where
    if isinstance(expected, np.ndarray):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), where
        assert got.flags.c_contiguous, where
        assert got.tobytes() == expected.tobytes(), where
    elif isinstance(expected, dict):
        assert list(got) == list(expected), where
        for key in expected:
            assert_same(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for i, (a, b) in enumerate(zip(got, expected)):
            assert_same(a, b, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert struct.pack("<d", got) == struct.pack("<d", expected), where
    else:
        assert got == expected, where


def reader_case(name):
    """A trainer whose checkpoint the reader is checked on."""
    if name == "desk fresh":
        cfg = default_config()
        return Trainer(cfg, tiny_dataset(cfg))
    if name == "desk trained":
        return desk_trainer()
    cfg = tiny_config(loss="lsgan" if name == "lsgan sgd" else "wgan")
    if name.startswith("E="):
        cfg.ppo.num_envs = int(name[2:])
    trainer = Trainer(cfg, tiny_dataset(cfg))
    trainer.train_iteration()
    if name == "lsgan sgd":
        assert trainer.disc_opt.kind == "sgd"
    if name == "nan window":
        trainer.collector.history.frames.last(1)[1, 0, :] = np.nan
    return trainer


def member_spans(path) -> dict:
    """Each member's ``(header start, data start, data end)`` in the file,
    and the central directory's start under ``"directory"``."""
    spans = {}
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            start = info.header_offset + 30 + len(info.filename) + len(info.extra)
            spans[info.filename] = (info.header_offset, start, start + info.file_size)
        spans["directory"] = zf.start_dir
    return spans


def rewrite_members(path, out, edit):
    """Copy the zip ``path`` to ``out`` with ``edit(name, data)`` for each
    member: a ``(name, data)`` pair to write, or None to leave it out."""
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(out, "w") as dst:
        for name in src.namelist():
            kept = edit(name, src.read(name))
            if kept is not None:
                dst.writestr(zipfile.ZipInfo(kept[0]), kept[1])
    return out


# the places a torn checkpoint is cut: the bytes it keeps end there
TORN_CUTS = {
    "empty": lambda spans, n: 0,
    "inside the zip signature": lambda spans, n: 2,
    "inside the meta member": lambda spans, n: spans["meta.json"][1] + 10,
    "inside an array's header": lambda spans, n: spans["disc_opt/slots/buf.npy"][1] + 20,
    "inside an array's data": lambda spans, n: spans["disc_opt/slots/buf.npy"][2] - 100,
    "between two members": lambda spans, n: spans["value_net.npy"][0],
    "inside the central directory": lambda spans, n: spans["directory"] + 50,
    "before the end record": lambda spans, n: n - 22,
}

# the places a torn JSON checkpoint of format 2 is cut: the text it keeps
# ends there
TORN_JSON_CUTS = {
    "after a comma in a slot run": lambda t: t.index(", ", t.index('"slots": {')) + 1,
    "after a separator in a slot run": lambda t: t.index(", ", t.index('"slots": {')) + 2,
    "inside a number in a slot run": lambda t: t.index(", ", t.index('"slots": {')) + 5,
    "inside a number in a row": lambda t: t.index('"params": [[') + 15,
    "between a row's brackets": lambda t: t.index("], [") + 2,
    "inside a key": lambda t: t.index('"disc_opt"') + 5,
    "before the last brace": lambda t: t.rindex("}"),
}


def listed(obj):
    """``obj`` with each array as its nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: listed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [listed(value) for value in obj]
    return obj


def format2_text(trainer) -> str:
    """The text of ``trainer``'s checkpoint in format 2, the last JSON one:
    every array as its nested lists, each net as its layer sizes, activation
    and parameter arrays, and the policy's log std apart from its net."""
    def layers(net):
        return {"layer_sizes": net.layer_sizes, "activation": net.activation,
                "params": unflatten(net.flat, net.shapes)}

    ckpt = dict(trainer.checkpoint_dict(), format_version=2,
                value_net=layers(trainer.value_net),
                discriminator=layers(trainer.disc),
                policy_net=layers(trainer.policy.net),
                policy_log_std=trainer.policy.log_std)
    del ckpt["policy"]
    return json.dumps(listed(ckpt)) + "\n"


class TestCheckpointReader:
    @pytest.mark.parametrize("case", ["desk fresh", "desk trained", "E=1", "E=256",
                                      "lsgan sgd", "nan window"])
    def test_matches_the_json_oracle(self, tmp_path, case):
        path = reader_case(case).save_checkpoint(tmp_path / "c.npz")
        got = load_checkpoint(path)
        if case == "nan window":
            assert np.isnan(got["collector"]["frames"]).any()
        assert_same(got, oracle_load(path))

    @pytest.mark.parametrize("case", ["desk trained", "nan window"])
    def test_a_loaded_checkpoint_saves_byte_identical(self, tmp_path, case):
        trainer = reader_case(case)
        path = trainer.save_checkpoint(tmp_path / "c.npz")
        again = Trainer(trainer.cfg, tiny_dataset(default_config()), load_checkpoint(path))
        assert again.save_checkpoint(tmp_path / "again.npz").read_bytes() == path.read_bytes()

    def test_the_same_state_saves_the_same_bytes(self, tmp_path):
        trainer = reader_case("lsgan sgd")
        first = trainer.save_checkpoint(tmp_path / "a" / "c.npz").read_bytes()
        # a member's date is fixed, not the time of the save
        time.sleep(2.1)
        assert trainer.save_checkpoint(tmp_path / "b.npz").read_bytes() == first

    @pytest.mark.parametrize("block", [1, 5, 97])
    def test_matches_the_oracle_at_any_block_end(self, tmp_path, monkeypatch, block):
        # blocks that end inside a value, in the header's place and the data's
        path = reader_case("lsgan sgd").save_checkpoint(tmp_path / "c.npz")
        monkeypatch.setattr("planarmimic.trainer.MEMBER_BLOCK", block)
        assert_same(load_checkpoint(path), oracle_load(path))

    @pytest.mark.parametrize("block,n_random", [(MEMBER_BLOCK, 4096), (7, 3)])
    def test_random_bit_patterns_round_trip(self, tmp_path, monkeypatch,
                                            block, n_random):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.integers(0, 2 ** 64, size=n_random, dtype=np.uint64).view(np.float64),
            # subnormals, signed zeros, the extremes, infinities, and NaNs
            # of either sign with their payloads
            [5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
             0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308,
             np.inf, -np.inf],
            np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                      0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF],
                     dtype=np.uint64).view(np.float64)])
        values = rng.permutation(values)
        ckpt = {"format_version": CHECKPOINT_FORMAT_VERSION,
                "opt": {"kind": "adam", "slots": {"m": values, "v": values[::-1].copy()}},
                "steps": rng.integers(-2 ** 63, 2 ** 63 - 1, size=50, dtype=np.int64),
                "flags": rng.random((5, 3)) < 0.5}
        path = write_checkpoint(tmp_path / "bits.npz", ckpt)
        monkeypatch.setattr("planarmimic.trainer.MEMBER_BLOCK", block)
        got = load_checkpoint(path)
        assert_same(got, ckpt)
        assert_same(got, oracle_load(path))

    @pytest.mark.parametrize("cut", sorted([*TORN_CUTS, *TORN_JSON_CUTS]))
    @pytest.mark.parametrize("block", [MEMBER_BLOCK, 3])
    def test_torn_file_raises(self, tmp_path, monkeypatch, cut, block):
        trainer = reader_case("lsgan sgd")
        torn = tmp_path / "torn.npz"
        if cut in TORN_CUTS:
            path = trainer.save_checkpoint(tmp_path / "c.npz")
            data = path.read_bytes()
            torn.write_bytes(data[:TORN_CUTS[cut](member_spans(path), len(data))])
            match = None
        else:
            # a torn JSON checkpoint is still named by its format
            text = format2_text(trainer)
            torn.write_text(text[:TORN_JSON_CUTS[cut](text)])
            match = "JSON checkpoint of format 2"
        monkeypatch.setattr("planarmimic.trainer.MEMBER_BLOCK", block)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(torn)

    @pytest.mark.parametrize("member", ["meta.json", "disc_opt/slots/buf.npy",
                                        "env/arrays/steps.npy"])
    @pytest.mark.parametrize("where", ["header", "data"])
    def test_flipped_byte_raises(self, tmp_path, member, where):
        path = reader_case("lsgan sgd").save_checkpoint(tmp_path / "c.npz")
        _, start, end = member_spans(path)[member]
        at = start + 5 if where == "header" else (start + 128 + end) // 2
        data = bytearray(path.read_bytes())
        data[at] ^= 0x10
        path.write_bytes(data)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda name, data: None if name == "value_opt/slots/v.npy" else (name, data),
        lambda name, data: ("value_opt/slots/w.npy" if name == "value_opt/slots/v.npy"
                            else name, data),
        lambda name, data: None if name == "meta.json" else (name, data)],
        ids=["missing", "renamed", "no meta"])
    def test_member_missing_or_renamed_raises(self, tmp_path, edit):
        path = reader_case("lsgan sgd").save_checkpoint(tmp_path / "c.npz")
        bad = rewrite_members(path, tmp_path / "bad.npz", edit)
        with pytest.raises(ValueError, match="member|meta.json"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("kind", ["object dtype", "pickle", "float32",
                                      "big-endian", "fortran order"])
    def test_member_of_another_kind_raises(self, tmp_path, kind):
        path = reader_case("lsgan sgd").save_checkpoint(tmp_path / "c.npz")
        v = load_checkpoint(path)["value_opt"]["slots"]["v"]
        replacement = {
            "object dtype": np.array([{"x": 1}] * v.size, dtype=object),
            "pickle": None,
            "float32": v.astype(np.float32),
            "big-endian": v.astype(">f8"),
            "fortran order": np.asfortranarray(np.stack([v, v], axis=1)),
        }[kind]

        def edit(name, data):
            if name != "value_opt/slots/v.npy":
                return name, data
            if replacement is None:
                return name, pickle.dumps(v)
            out = io.BytesIO()
            np.lib.format.write_array(out, replacement, allow_pickle=True)
            return name, out.getvalue()

        bad = rewrite_members(path, tmp_path / "bad.npz", edit)
        with pytest.raises(ValueError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("version", [1, 2])
    def test_json_checkpoint_is_refused_by_its_format(self, tmp_path, version):
        old = tmp_path / "old.npz"
        old.write_text('{"format_version": %d, "iteration": 4}\n' % version)
        with pytest.raises(ValueError, match=f"JSON checkpoint of format {version}"):
            load_checkpoint(old)

    @pytest.mark.parametrize("text", [
        # checkpoints of format 2 and earlier were JSON; none of these texts
        # starts as one did, so each is no checkpoint at all
        *('{"opt": {"kind": "sgd", "slots": {"m": [%s]}}}' % run for run in
          ["1.0, , 2.0", "1.0, 2.0, ", " , 1.0", "1.0,", "1.0,, 2.0", "1.0 2.0",
           "1.0, x"]),
        '{"net": {"params": [[[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]]}}',
        '{"net": {"params": [[[1.0, 2.0], [3.0, ]]]}}',
        '{"iteration": 1} {"iteration": 2}'])
    def test_malformed_file_raises(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_load_peak_is_a_block_and_an_array_not_the_file(self, tmp_path):
        # json.load peaked at 4.94 and 6.60 MiB on checkpoints like these,
        # the block reader of format 2 at about 1.5 MiB
        cfg = default_config()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        transient = []
        for name in ("fresh", "trained"):
            if name == "trained":
                trainer.train_iteration()
            path = trainer.save_checkpoint(tmp_path / f"{name}.npz")
            load_checkpoint(path)
            tracemalloc.start()
            try:
                ckpt = load_checkpoint(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            transient.append(peak - array_bytes(ckpt))
        assert path.stat().st_size > 2 ** 20
        assert max(transient) < 2 ** 19
        assert abs(transient[1] - transient[0]) < 2 ** 18


@cache
def unbroken_records(loss):
    cfg = tiny_config(loss=loss, seed=9)
    trainer = Trainer(cfg, tiny_dataset(cfg))
    return [trainer.train_iteration() for _ in range(4)]


@settings(deadline=None, max_examples=8)
@given(loss=st.sampled_from(["wgan", "lsgan"]), at=st.integers(0, 3))
def test_checkpoint_round_trips_at_any_iteration(loss, at):
    cfg = tiny_config(loss=loss, seed=9)
    dataset = tiny_dataset(cfg)
    trainer = Trainer(cfg, dataset)
    for _ in range(at):
        trainer.train_iteration()
    with tempfile.TemporaryDirectory() as tmp:
        path = trainer.save_checkpoint(Path(tmp) / "c.npz")
        resumed = Trainer(cfg, dataset, load_checkpoint(path))
    assert resumed.train_iteration() == unbroken_records(loss)[at]


class TestEvaluation:
    def test_fresh_policy_close_to_stand_still(self):
        # a just-initialized policy barely moves: its warping distance should
        # sit within 2x of the motionless baseline
        cfg = tiny_config()
        cfg.eval.rollouts = 3
        trainer = Trainer(cfg, tiny_dataset(cfg))
        report = evaluate_policy(cfg, trainer.policy, trainer.dataset)
        assert report.dtw.mean <= 2.0 * report.stand_still.mean
        assert report.dtw.mean >= 0.5 * report.stand_still.mean

    def test_report_matrix_shape(self):
        cfg = tiny_config()
        cfg.eval.rollouts = 3
        trainer = Trainer(cfg, tiny_dataset(cfg))
        report = evaluate_policy(cfg, trainer.policy, trainer.dataset)
        assert report.dtw.distances.shape == (3, 4)
        assert report.n_rollouts == 3
        assert report.n_references == 4

    def test_handcrafted_reported_for_backflip(self):
        cfg = tiny_config(task="backflip")
        cfg.eval.rollouts = 2
        trainer = Trainer(cfg, tiny_dataset(cfg, task="backflip"))
        report = evaluate_policy(cfg, trainer.policy, trainer.dataset)
        assert report.handcrafted is not None
        assert report.handcrafted["kind"] == "backflip"
        assert len(report.handcrafted["per_rollout"]) == 2

    def test_no_handcrafted_for_leap(self):
        cfg = tiny_config(task="leap")
        trainer = Trainer(cfg, tiny_dataset(cfg))
        report = evaluate_policy(cfg, trainer.policy, trainer.dataset)
        assert report.handcrafted is None

    def test_rollout_observations_shape_and_determinism(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        a, tally = rollout_observations(cfg, trainer.policy, 50, seed=4)
        b, _ = rollout_observations(cfg, trainer.policy, 50, seed=4)
        assert a.shape == (50, 6)
        assert np.array_equal(a, b)
        assert tally is None   # leap has no handcrafted tally

    # each task's tallies as recorded when the step kept the flight state
    # itself and both tallies were computed for either task (float.hex)
    RECORDED_TALLIES = {
        "backflip": ["0x1.086136a854262p-2", "-0x1.aa384da2e0f07p-2",
                     "-0x1.aa8d4ca8f24d1p-1", "-0x1.0c0044c3d1452p-3"],
        "standup": ["0x1.50f94756174a4p+1", "0x1.2c268916063aap+1",
                    "0x1.82508b34acae3p+1", "0x1.435b593fa5a9dp+1"],
    }

    @pytest.mark.parametrize("task, unread", [("backflip", "foot_contacts"),
                                              ("standup", "flight"), ("leap", "both")])
    def test_eval_computes_only_the_task_tally(self, monkeypatch, task, unread):
        cfg, trainer = flailing_trainer(task)
        cfg.eval.rollouts = 4

        def refuse(*args):
            raise AssertionError(f"{task} eval read a reader it has no use for")
        for name in ("foot_contacts", "flight") if unread == "both" else (unread,):
            monkeypatch.setattr(PlanarEnv, name, refuse)
        report = evaluate_policy(cfg, trainer.policy, trainer.dataset, seed=1)
        if task == "leap":
            assert report.handcrafted is None
            return
        per_rollout = report.handcrafted["per_rollout"]
        assert [v.hex() for v in per_rollout] == self.RECORDED_TALLIES[task]
        assert report.handcrafted["mean"] == float(np.mean(per_rollout))

    def test_build_identifier_nonempty(self):
        assert build_identifier()


def oracle_rollout(cfg, policy, frames, seed):
    """The slow reference: one E=1 environment per rollout, stepped until its
    first terminal, with the policy-history bookkeeping written out by hand
    and the flight read after every step. Returns the sequence, both tallies
    and the terminal step (None if none)."""
    env = PlanarEnv(cfg.sim, num_envs=1, seed=seed)
    airborne, flight_angle = np.zeros(1, dtype=bool), np.zeros(1)

    def policy_frame(prev_action):
        return np.concatenate([env.observation_features(), env.q, env.qd,
                               prev_action], axis=1)

    cur_frame = policy_frame(np.zeros((1, ACTION_DIM)))
    prev_frame = cur_frame
    seq = np.zeros((frames, 6))
    seq[0] = env.observation_features()[0]
    standup_terms = []
    backflip_total = 0.0
    end = None
    for t in range(1, frames):
        obs = np.concatenate([prev_frame, cur_frame], axis=1)
        action, _ = policy.net.forward(obs)
        result = env.step(action)
        seq[t] = env.observation_features()[0]
        standup_terms.append(handcrafted_standup_reward(
            float(env.pitch[0]), float(env.z[0]), bool(env.foot_contacts()[0, 0])))
        landing, angle = env.flight(airborne, flight_angle)
        if landing[0]:
            backflip_total += handcrafted_backflip_reward(-float(angle[0]), True)
        if result.terminal[0]:
            seq[t + 1:] = seq[t]
            end = t
            break
        prev_frame, cur_frame = cur_frame, policy_frame(action)
    extras = {"standup_mean": float(np.mean(standup_terms)) if standup_terms else 0.0,
              "backflip_total": backflip_total}
    return seq, extras, end


def flailing_trainer(task):
    # output layer scaled up, so rollouts fall over at seed-dependent steps
    cfg = tiny_config(task=task)
    trainer = Trainer(cfg, tiny_dataset(cfg, task=task))
    trainer.policy.net.weights[-1] *= 30.0
    return cfg, trainer


class TestBatchedRollouts:
    @pytest.mark.parametrize("task", ["leap", "standup", "backflip"])
    def test_batch_matches_one_env_oracle(self, task):
        cfg, trainer = flailing_trainer(task)
        frames, seeds = 110, [0, 2, 4, 7]
        seqs, tallies = rollout_batch(cfg, trainer.policy, frames, seeds)
        assert seqs.shape == (len(seeds), frames, 6)
        key = {"standup": "standup_mean", "backflip": "backflip_total"}.get(task)
        assert (tallies is None) == (key is None)
        ends = []
        for i, seed in enumerate(seeds):
            seq, oracle_tallies, end = oracle_rollout(cfg, trainer.policy, frames, seed)
            ends.append(end)
            assert np.array_equal(seqs[i], seq)
            if key:
                assert tallies[i] == oracle_tallies[key]
        # rows end at different steps, and one runs to the last frame
        assert None in ends
        assert len(set(ends)) == len(ends)
        if task == "backflip":
            assert any(total != 0.0 for total in tallies)

    def test_batch_of_one_is_bit_exact(self):
        cfg, trainer = flailing_trainer("standup")
        seq, tally = rollout_observations(cfg, trainer.policy, 80, seed=4)
        oracle_seq, oracle_tallies, end = oracle_rollout(cfg, trainer.policy, 80, 4)
        assert end is not None
        assert np.array_equal(seq, oracle_seq)
        assert tally == oracle_tallies["standup_mean"]

    def test_evaluate_policy_draws_seeds_in_order(self):
        cfg, trainer = flailing_trainer("leap")
        cfg.eval.rollouts = 3
        cfg.eval.episode_frames = 40
        report = evaluate_policy(cfg, trainer.policy, trainer.dataset, seed=2)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23, 2]))
        for a in range(3):
            seq, _, _ = oracle_rollout(cfg, trainer.policy, 40,
                                       int(rng.integers(0, 2 ** 31)))
            assert np.array_equal(report.rollouts[a], seq)
            for b, ref in enumerate(trainer.dataset.trajectories):
                assert report.dtw.distances[a, b] == dtw_distance(seq, ref, cfg.dtw)[0]
