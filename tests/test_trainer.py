import json
import tempfile
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarmimic.config import default_config
from planarmimic.core import ReferenceDataset, save_reference_csv
from planarmimic.dtw import dtw_distance
from planarmimic.ppo import PolicyHistory
from planarmimic.rewards import (handcrafted_backflip_reward,
                                 handcrafted_standup_reward)
from planarmimic.sim import PlanarEnv, generate_demo_set
from planarmimic.trainer import (CHECKPOINT_FORMAT_VERSION, Trainer,
                                 build_identifier, evaluate_policy,
                                 json_chunks, load_checkpoint, rollout_batch,
                                 rollout_observations)

from test_nets import assert_views_of

DATA = Path(__file__).parent / "data"


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
        assert (out / "checkpoint_000002.json").exists()
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
    ckpt = part.save_checkpoint(tmp_path / "ckpt.json")
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
        path = trainer.save_checkpoint(tmp_path / "c.json")
        restored = Trainer.from_checkpoint(path)
        assert np.array_equal(restored.policy.flat, trainer.policy.flat)
        assert np.array_equal(restored.value_net.flat, trainer.value_net.flat)
        assert np.array_equal(restored.disc.flat, trainer.disc.flat)
        assert restored.imitation.stats == trainer.imitation.stats
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
        path = trainer.save_checkpoint(tmp_path / "c.json")
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
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "refs"]
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
        resumed = Trainer.from_checkpoint(run_dir / "checkpoint_000002.json")
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
        path = trainer.save_checkpoint(tmp_path / "c.json")
        blob = json.loads(path.read_text())
        assert blob["format_version"] == CHECKPOINT_FORMAT_VERSION == 2
        blob["format_version"] = 999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="format"):
            Trainer.from_checkpoint(bad)


    def test_format_1_checkpoint_resumes_to_the_same_record(self):
        # checkpoint_format1.json was written at iteration 2 by the last
        # release of format 1 (tiny_config(seed=7) with one hidden layer of 8
        # units per net), and the record next to it is what that release's
        # iteration 3 produced from it
        cfg = tiny_config(seed=7)
        ckpt = DATA / "checkpoint_format1.json"
        assert json.loads(ckpt.read_text())["format_version"] == 1
        trainer = Trainer.from_checkpoint(ckpt, dataset=tiny_dataset(cfg))
        assert trainer.iteration == 2
        assert_flat_layout(trainer)
        expected = json.loads((DATA / "checkpoint_format1_next_record.json").read_text())
        assert trainer.train_iteration() == expected


def listed(obj):
    """``obj`` with every array as the nested lists the checkpoint held
    before it was written a slice at a time."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [listed(v) for v in obj]
    return obj


def mismatch(text, expected):
    """None if the strings are equal, else where they first differ: cheap to
    report for megabyte checkpoints, unlike pytest's diff of two strings."""
    if text == expected:
        return None
    i = next((k for k, (a, b) in enumerate(zip(text, expected)) if a != b),
             min(len(text), len(expected)))
    return i, text[max(0, i - 40):i + 40], expected[max(0, i - 40):i + 40]


def desk_trainer(loss="wgan"):
    """A trainer at the shipped desk shapes, one iteration in."""
    cfg = default_config("leap", loss)
    trainer = Trainer(cfg, tiny_dataset(cfg))
    trainer.train_iteration()
    return trainer


class TestStreamedCheckpoint:
    @pytest.mark.parametrize("slice_len", [4096, 5])
    @pytest.mark.parametrize("loss,full_state", [("wgan", False), ("lsgan", True)])
    def test_file_is_json_dumps_of_the_list_form(self, tmp_path, monkeypatch,
                                                 loss, full_state, slice_len):
        cfg = tiny_config(loss=loss, tmp_path=tmp_path)
        cfg.disc.full_state = full_state
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.train_iteration()
        # non-finite and signed-zero values encode as json.dumps writes them
        trainer.disc_opt.slots[next(iter(trainer.disc_opt.slots))][:5] = [
            np.nan, np.inf, -np.inf, -0.0, 1e-310]
        monkeypatch.setattr("planarmimic.trainer.JSON_SLICE", slice_len)
        path = trainer.save_checkpoint(tmp_path / "c.json")
        expected = json.dumps(listed(trainer.checkpoint_dict())) + "\n"
        assert mismatch(path.read_text(), expected) is None
        assert "NaN, Infinity, -Infinity, -0.0, 1e-310" in expected

    def test_desk_file_is_json_dumps_of_the_list_form(self, tmp_path):
        # the desk discriminator's slots span several slices
        trainer = desk_trainer()
        assert trainer.disc_opt.slots["buf"].size > 4096
        path = trainer.save_checkpoint(tmp_path / "c.json")
        expected = json.dumps(listed(trainer.checkpoint_dict())) + "\n"
        assert mismatch(path.read_text(), expected) is None

    @pytest.mark.parametrize("a", [
        np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0)),
        np.arange(12.0), np.arange(24.0).reshape(2, 3, 4),
        np.arange(10.0)[::3], np.arange(12.0).reshape(3, 4).T])
    @pytest.mark.parametrize("slice_len", [1, 3, 4096])
    def test_arrays_encode_as_their_lists(self, monkeypatch, a, slice_len):
        monkeypatch.setattr("planarmimic.trainer.JSON_SLICE", slice_len)
        obj = {"a": a, "b": [a, {"c": (1, None, True)}], "d": "x"}
        assert "".join(json_chunks(obj)) == json.dumps(listed(obj))

    def test_save_peak_is_one_slice_not_the_checkpoint(self, tmp_path):
        # the list form and its text took 11.8 MiB at these shapes
        trainer = desk_trainer()
        trainer.save_checkpoint(tmp_path / "warm.json")
        tracemalloc.start()
        try:
            path = trainer.save_checkpoint(tmp_path / "c.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 3 * 2 ** 20
        assert peak < 2 * 2 ** 20

    def test_encoder_failing_midway_keeps_previous_checkpoint(self, tmp_path,
                                                             monkeypatch):
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        path = trainer.save_checkpoint(tmp_path / "c.json")
        before = path.read_bytes()
        trainer.train_iteration()
        n_chunks = len(list(json_chunks(trainer.checkpoint_dict())))
        tmp = tmp_path / "c.json.tmp"
        seen = []

        def failing(obj):
            for i, chunk in enumerate(json_chunks(obj)):
                if i == n_chunks // 2:
                    seen.append(tmp.exists())
                    raise RuntimeError("encoder failed")
                yield chunk

        monkeypatch.setattr("planarmimic.trainer.json_chunks", failing)
        with pytest.raises(RuntimeError, match="encoder failed"):
            trainer.save_checkpoint(path)
        monkeypatch.undo()
        assert seen == [True]
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "refs"]
        assert Trainer.from_checkpoint(path).iteration == 0

    def test_load_decodes_parameters_and_slots_to_arrays(self, tmp_path):
        cfg = tiny_config(tmp_path=tmp_path)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.train_iteration()
        ckpt = load_checkpoint(trainer.save_checkpoint(tmp_path / "c.json"))
        for key, net in (("policy_net", trainer.policy.net),
                         ("value_net", trainer.value_net),
                         ("discriminator", trainer.disc)):
            params = ckpt[key]["params"]
            assert [p.shape for p in params] == net.shapes
            assert all(p.dtype == np.float64 for p in params)
        for key in ("policy_opt", "value_opt", "disc_opt"):
            for name, slot in ckpt[key]["slots"].items():
                assert slot.dtype == np.float64
                assert slot.tobytes() == getattr(trainer, key).slots[name].tobytes()
        restored = Trainer.from_checkpoint(ckpt)
        assert restored.disc.flat.tobytes() == trainer.disc.flat.tobytes()
        # the restored optimizer owns its slots
        for name, slot in restored.disc_opt.slots.items():
            assert not np.shares_memory(slot, ckpt["disc_opt"]["slots"][name])


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
        path = trainer.save_checkpoint(Path(tmp) / "c.json")
        resumed = Trainer.from_checkpoint(path, dataset=dataset)
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
        assert report.handcrafted.kind == "backflip"
        assert len(report.handcrafted.per_rollout) == 2

    def test_no_handcrafted_for_leap(self):
        cfg = tiny_config(task="leap")
        trainer = Trainer(cfg, tiny_dataset(cfg))
        report = evaluate_policy(cfg, trainer.policy, trainer.dataset)
        assert report.handcrafted is None

    def test_rollout_observations_shape_and_determinism(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        a, _ = rollout_observations(cfg, trainer.policy, 50, seed=4)
        b, _ = rollout_observations(cfg, trainer.policy, 50, seed=4)
        assert a.shape == (50, 6)
        assert np.array_equal(a, b)

    def test_build_identifier_nonempty(self):
        assert build_identifier()


def oracle_rollout(cfg, policy, frames, seed):
    """The slow reference: one E=1 environment per rollout, stepped until its
    first terminal, with the policy-history bookkeeping written out by hand.
    Returns the sequence, the tallies and the terminal step (None if none)."""
    env = PlanarEnv(cfg.sim, num_envs=1, seed=seed)
    history = PolicyHistory(env)
    seq = np.zeros((frames, 6))
    seq[0] = env.observation_features()[0]
    standup_terms = []
    backflip_total = 0.0
    end = None
    for t in range(1, frames):
        obs = np.concatenate([history.prev_frame, history.cur_frame], axis=1)
        action, _ = policy.net.forward(obs)
        result = env.step(action)
        seq[t] = env.observation_features()[0]
        standup_terms.append(handcrafted_standup_reward(
            float(env.pitch[0]), float(env.z[0]), bool(result.foot_contacts[0, 0])))
        if result.landing_event[0]:
            backflip_total += handcrafted_backflip_reward(
                -float(result.flight_traversed_angle[0]), True)
        if result.terminal[0]:
            seq[t + 1:] = seq[t]
            end = t
            break
        history.prev_action[0] = action[0]
        history.prev_joint_vel[0] = env.qd[0]
        history.prev_frame[0] = history.cur_frame[0]
        history.cur_frame[0] = np.concatenate(
            [env.observation_features(), env.q, env.qd, history.prev_action], axis=1)[0]
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
        seqs, extras = rollout_batch(cfg, trainer.policy, frames, seeds,
                                     collect_handcrafted=True)
        assert seqs.shape == (len(seeds), frames, 6)
        ends = []
        for i, seed in enumerate(seeds):
            seq, tallies, end = oracle_rollout(cfg, trainer.policy, frames, seed)
            ends.append(end)
            assert np.array_equal(seqs[i], seq)
            assert extras[i] == tallies
        # rows end at different steps, and one runs to the last frame
        assert None in ends
        assert len(set(ends)) == len(ends)
        if task == "backflip":
            assert any(e["backflip_total"] != 0.0 for e in extras)

    def test_batch_of_one_is_bit_exact(self):
        cfg, trainer = flailing_trainer("standup")
        seq, extras = rollout_observations(cfg, trainer.policy, 80, seed=4,
                                           collect_handcrafted=True)
        oracle_seq, oracle_extras, end = oracle_rollout(cfg, trainer.policy, 80, 4)
        assert end is not None
        assert np.array_equal(seq, oracle_seq)
        assert extras == oracle_extras

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
