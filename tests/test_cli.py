import builtins
import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from planarmimic import cli
from planarmimic import trainer as trainer_module
from planarmimic.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from planarmimic.config import save_config
from planarmimic.core import save_reference_csv
from planarmimic.dtw import local_cost
from planarmimic.trainer import (Trainer, evaluate_policy, load_checkpoint,
                                 write_checkpoint)

from test_config import NON_FINITE
from test_trainer import apply_fault, tiny_config, tiny_dataset


@pytest.fixture
def checkpoint(tmp_path):
    cfg = tiny_config(tmp_path=tmp_path)
    cfg.eval.seeds = 2
    cfg.eval.episode_frames = 30
    return Trainer(cfg, tiny_dataset(cfg)).save_checkpoint(tmp_path / "ckpt.npz")


def run_eval(checkpoint, out, *extra):
    code = main(["eval", "--checkpoint", str(checkpoint), "--out", str(out), *extra])
    assert code == EXIT_OK
    return json.loads(out.read_text())


class TestEvalSeeds:
    def test_default_comes_from_config(self, checkpoint, tmp_path):
        payload = run_eval(checkpoint, tmp_path / "eval.json")
        assert payload["seeds"] == 2
        assert len(payload["per_seed"]) == 2

    def test_flag_overrides_config(self, checkpoint, tmp_path):
        payload = run_eval(checkpoint, tmp_path / "eval.json", "--seeds", "1")
        assert payload["seeds"] == 1
        assert len(payload["per_seed"]) == 1

    def test_checkpoint_without_the_field_uses_one_seed(self, checkpoint, tmp_path):
        ckpt = load_checkpoint(checkpoint)
        del ckpt["config"]["eval.seeds"]
        old = write_checkpoint(tmp_path / "old.npz", ckpt)
        assert run_eval(old, tmp_path / "eval.json")["seeds"] == 1

    @pytest.mark.parametrize("flag", ["--seeds", "--rollouts"])
    def test_zero_is_a_config_error(self, checkpoint, tmp_path, flag):
        # zero seeds used to write a NaN mean and exit 0
        out = tmp_path / "eval.json"
        code = main(["eval", "--checkpoint", str(checkpoint), "--out", str(out),
                     flag, "0"])
        assert code == EXIT_CONFIG
        assert not out.exists()


class TestTrainConfigFromFlags:
    @staticmethod
    def config(monkeypatch, *argv):
        """The config ``train`` builds from ``argv``, caught before it trains."""
        built = []

        def capture(cfg):
            built.append(cfg)
            raise RuntimeError("stop before training")

        monkeypatch.setattr(cli, "_new_trainer", capture)
        assert main(["train", *argv]) == EXIT_RUNTIME
        return built[0]

    def test_set_task_gives_the_task_defaults(self, monkeypatch):
        assert self.config(monkeypatch, "--set", "task=backflip").disc.horizon == 8
        assert self.config(monkeypatch, "--task", "backflip").disc.horizon == 8

    def test_explicit_key_beats_the_task_default_in_any_order(self, monkeypatch):
        cfg = self.config(monkeypatch, "--set", "disc.horizon=4", "--set", "task=backflip")
        assert (cfg.task, cfg.disc.horizon) == ("backflip", 4)
        assert self.config(monkeypatch, "--task", "backflip", "--set",
                           "disc.horizon=4").disc.horizon == 4

    @pytest.mark.parametrize("task_argv", [["--task", "backflip"], ["--set", "task=backflip"]])
    def test_the_task_keeps_the_file_keys(self, monkeypatch, tmp_path, task_argv):
        path = tmp_path / "config.txt"
        path.write_text("task = wave\ndisc.horizon = 3\n")
        cfg = self.config(monkeypatch, "--config", str(path), *task_argv)
        assert (cfg.task, cfg.disc.horizon, cfg.reward.w_imitation) == ("backflip", 3, 2.0)

    def test_flags_map_to_their_keys(self, monkeypatch):
        cfg = self.config(monkeypatch, "--loss", "lsgan", "--seed", "9",
                          "--iterations", "5", "--refs", "r", "--out", "o",
                          "--set", "seed=10")
        assert (cfg.disc.loss_kind, cfg.seed, cfg.iterations, cfg.refs,
                cfg.out_dir) == ("lsgan", 10, 5, "r", "o")


class TestTrainEvalReport:
    def test_train_writes_the_eval_schema_that_eval_rewrites(self, tmp_path):
        save_config(tiny_config(tmp_path=tmp_path), tmp_path / "base.txt")
        run = tmp_path / "run"
        code = main(["train", "--config", str(tmp_path / "base.txt"), "--out", str(run),
                     "--iterations", "1", "--set", "eval.seeds=2", "--quiet"])
        assert code == EXIT_OK
        written = (run / "eval.json").read_bytes()
        report = json.loads(written)
        assert report["seeds"] == 2
        trainer = Trainer.from_checkpoint(run / "checkpoint_final.npz")
        assert report["per_seed"] == [
            json.loads(json.dumps(evaluate_policy(trainer.cfg, trainer.policy,
                                                  trainer.dataset, seed=k).to_dict()))
            for k in range(2)]
        (run / "eval.json").unlink()
        assert main(["eval", "--checkpoint", str(run / "checkpoint_final.npz")]) == EXIT_OK
        assert (run / "eval.json").read_bytes() == written


class TestRefsPath:
    def test_eval_from_another_directory_rewrites_the_report(self, tmp_path,
                                                               monkeypatch):
        # train with refs relative to the working directory, then eval the
        # checkpoint from elsewhere: the run recorded where its refs are
        monkeypatch.chdir(tmp_path)
        cfg = tiny_config(tmp_path=tmp_path)
        cfg.refs = "refs"
        save_config(cfg, tmp_path / "base.txt")
        assert main(["train", "--config", "base.txt", "--out", "run",
                     "--iterations", "1", "--quiet"]) == EXIT_OK
        written = (tmp_path / "run" / "eval.json").read_bytes()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        (tmp_path / "run" / "eval.json").unlink()
        assert main(["eval", "--checkpoint",
                     str(tmp_path / "run" / "checkpoint_final.npz")]) == EXIT_OK
        assert (tmp_path / "run" / "eval.json").read_bytes() == written


@pytest.fixture(scope="class")
def trained(tmp_path_factory):
    """A two-iteration ``train`` run: its base config and run directory."""
    root = tmp_path_factory.mktemp("trained")
    save_config(tiny_config(tmp_path=root), root / "base.txt")
    run = root / "run"
    assert main(["train", "--config", str(root / "base.txt"), "--out", str(run),
                 "--iterations", "2", "--set", "eval.seeds=2", "--quiet"]) == EXIT_OK
    return root / "base.txt", run


class TestEvalReadsThePolicy:
    def test_eval_builds_no_trainer(self, trained, tmp_path, monkeypatch):
        _, run = trained

        def refuse(*args, **kwargs):
            raise AssertionError("eval built a trainer")

        monkeypatch.setattr(Trainer, "__init__", refuse)
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(run / "checkpoint_final.npz"),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (run / "eval.json").read_bytes()

    def test_refs_flag_naming_the_checkpoint_refs_changes_nothing(self, trained,
                                                                  tmp_path):
        _, run = trained
        checkpoint = run / "checkpoint_final.npz"
        refs = load_checkpoint(checkpoint)["config"]["refs"]
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(checkpoint), "--refs", refs,
                     "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (run / "eval.json").read_bytes()

    @pytest.mark.parametrize("edit", ["short", "missing"])
    def test_bad_policy_is_a_runtime_failure(self, trained, tmp_path, capsys, edit):
        _, run = trained
        ckpt = load_checkpoint(run / "checkpoint_final.npz")
        if edit == "short":
            ckpt["policy"] = ckpt["policy"][:-1].copy()
        else:
            del ckpt["policy"]
        bad = write_checkpoint(tmp_path / "bad.npz", ckpt)
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(bad), "--out", str(out)]) == EXIT_RUNTIME
        assert ("entries" if edit == "short" else "no 'policy'") in capsys.readouterr().err
        assert not out.exists()


def iterations_logged(run: Path) -> list:
    return [json.loads(line)["iteration"]
            for line in (run / "metrics.jsonl").read_text().splitlines()]


class TestRunAgainIntoTheSameOut:
    def test_second_train_logs_each_iteration_once(self, trained):
        base, run = trained
        before = (run / "metrics.jsonl").read_bytes()
        assert main(["train", "--config", str(base), "--out", str(run),
                     "--iterations", "2", "--set", "eval.seeds=2", "--quiet"]) == EXIT_OK
        assert iterations_logged(run) == [1, 2]
        assert (run / "metrics.jsonl").read_bytes() == before

    def test_second_sweep_logs_each_iteration_once(self, tmp_path):
        save_config(tiny_config(tmp_path=tmp_path), tmp_path / "base.txt")
        argv = ["sweep", "--config", str(tmp_path / "base.txt"),
                "--out", str(tmp_path / "out"), "--grid", "iterations=2",
                "--grid", "seed=3", "--grid", "seed=4", "--quiet"]
        assert main(argv) == EXIT_OK
        first = {run.name: run.joinpath("metrics.jsonl").read_bytes()
                 for run in (tmp_path / "out").glob("run_*")}
        assert main(argv) == EXIT_OK
        for name, records in first.items():
            assert iterations_logged(tmp_path / "out" / name) == [1, 2]
            assert (tmp_path / "out" / name / "metrics.jsonl").read_bytes() == records


class TestUsageErrors:
    @pytest.mark.parametrize("flags", [
        ["--config", "c.txt"], ["--task", "leap"], ["--loss", "wgan"],
        ["--refs", "refs"], ["--seed", "9"], ["--set", "ppo.learning_rate=0.5"]])
    def test_resume_rejects_what_it_cannot_apply(self, tmp_path, flags):
        # they used to be dropped: the run went on with the checkpoint's values
        cfg = tiny_config(tmp_path=tmp_path)
        ckpt = Trainer(cfg, tiny_dataset(cfg)).save_checkpoint(tmp_path / "ckpt.npz")
        before = sorted(tmp_path.rglob("*"))
        code = main(["train", "--resume", str(ckpt), "--out", str(tmp_path / "run"),
                     *flags, "--quiet"])
        assert code == EXIT_USAGE
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flags", [
        ["--pitch-rate-range=-12,x"], ["--height-range", "0"],
        ["--height-range", "0,0.4,0.8"], ["--grid", "0"], ["--grid", "-1"]])
    def test_analyze_ranges_and_grid(self, checkpoint, tmp_path, flags):
        # they used to fail at run time with exit 3
        out = tmp_path / "analyze"
        assert main(["analyze", "--checkpoint", str(checkpoint), "--out", str(out),
                     *flags]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("spelling", [
        ["--pitch-rate-range", "-12,12", "--height-range", "-0.1,0.8"],
        ["--pitch-rate-range=-12,12", "--height-range=-0.1,0.8"]])
    def test_analyze_range_with_a_negative_low(self, spelling):
        # with a space, "-12,12" was taken for an option: "expected one argument"
        args = cli.build_parser().parse_args(
            ["analyze", "--checkpoint", "c.json", "--out", "out", *spelling])
        assert args.pitch_rate_range == (-12.0, 12.0)
        assert args.height_range == (-0.1, 0.8)

    def test_analyze_runs_with_a_spaced_negative_range(self, checkpoint, tmp_path):
        out = tmp_path / "analyze"
        assert main(["analyze", "--checkpoint", str(checkpoint), "--out", str(out),
                     "--grid", "3", "--pitch-rate-range", "-12,12",
                     "--height-range", "0,0.8"]) == EXIT_OK
        assert out.is_dir()

    @pytest.mark.parametrize("flags", [
        ["--pitch-rate-range", "nan,1"], ["--pitch-rate-range=-inf,1"],
        ["--height-range", "0,inf"]])
    def test_analyze_range_must_be_finite(self, checkpoint, tmp_path, flags):
        # nan,1 wrote NaN surface rows and exited 0
        out = tmp_path / "analyze"
        assert main(["analyze", "--checkpoint", str(checkpoint), "--out", str(out),
                     *flags]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--height-offset", "nan"], ["--height-offset", "inf"],
        ["--noise-scale", "-1"], ["--noise-scale", "nan"], ["--noise-scale", "inf"]])
    def test_demo_gen_numbers_must_name_a_demo(self, tmp_path, flags):
        # a NaN offset wrote refs every command refuses, and a negative
        # noise scale wrote noise-free demos, each with exit 0
        out = tmp_path / "refs"
        assert main(["demo-gen", "--motion", "leap", "--out", str(out),
                     *flags]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_demo_gen_needs_a_trajectory(self, tmp_path, count):
        # zero wrote an empty reference set and exited 0
        out = tmp_path / "refs"
        assert main(["demo-gen", "--motion", "leap", "--out", str(out),
                     "--trajectories", count]) == EXIT_USAGE
        assert not out.exists()

    def test_demo_gen_seed_must_be_non_negative(self, tmp_path):
        # numpy refused it after the parse, with exit 3
        out = tmp_path / "refs"
        assert main(["demo-gen", "--motion", "leap", "--out", str(out),
                     "--seed", "-1"]) == EXIT_USAGE
        assert not out.exists()


class TestCheckpointReadOnce:
    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_refs_flag_opens_the_checkpoint_once(self, checkpoint, tmp_path,
                                                 monkeypatch, command):
        refs = load_checkpoint(checkpoint)["config"]["refs"]
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, Path)) and Path(file) == checkpoint:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        extra = ["--rollouts", "1", "--seeds", "1"] if command == "eval" else ["--grid", "3"]
        code = main([command, "--checkpoint", str(checkpoint), "--refs", refs,
                     "--out", str(tmp_path / "out"), *extra])
        assert code == EXIT_OK
        assert len(opened) == 1


class TestTornCheckpoint:
    @pytest.mark.parametrize("command", [
        ["eval", "--checkpoint", "{torn}", "--out", "{out}"],
        ["analyze", "--checkpoint", "{torn}", "--out", "{out}"],
        ["train", "--resume", "{torn}", "--out", "{out}", "--quiet"]])
    def test_is_a_runtime_failure(self, checkpoint, tmp_path, command):
        # as a crash mid-copy leaves it: the file stops inside an array
        torn, out = tmp_path / "torn.npz", tmp_path / "out"
        text = checkpoint.read_bytes()
        torn.write_bytes(text[:len(text) // 2])
        argv = [word.format(torn=torn, out=out) for word in command]
        assert main(argv) == EXIT_RUNTIME
        assert not out.exists()


class TestRetiredConfigKeys:
    def _old_checkpoint(self, tmp_path, **extra):
        cfg = tiny_config(tmp_path=tmp_path)
        cfg.out_dir = str(tmp_path / "run")
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.train_iteration()
        ckpt = load_checkpoint(trainer.save_checkpoint(tmp_path / "ckpt.npz"))
        ckpt["config"].update(extra)
        return write_checkpoint(tmp_path / "old.npz", ckpt)

    def test_retired_keys_fail_as_any_unknown_key(self, tmp_path):
        # demo_noise and demo_height_offset left TrainConfig before format 3,
        # so no checkpoint that this version reads carries them
        old = self._old_checkpoint(tmp_path, demo_noise="1.0", demo_height_offset="0.0")
        code = main(["eval", "--checkpoint", str(old), "--out",
                     str(tmp_path / "eval.json")])
        assert code == EXIT_CONFIG

    def test_other_unknown_keys_still_fail(self, tmp_path):
        old = self._old_checkpoint(tmp_path, demo_speed="1.0")
        code = main(["eval", "--checkpoint", str(old), "--out",
                     str(tmp_path / "eval.json")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["reward.gamma = 0.99",
                                      "disc.epochs_per_iter = 1"])
    def test_folded_keys_fail_as_any_unknown_key(self, tmp_path, line):
        # reward.gamma had one legal value, ppo.gamma's, and
        # disc.epochs_per_iter only multiplied disc.minibatches
        base, out = tmp_path / "base.txt", tmp_path / "run"
        save_config(tiny_config(tmp_path=tmp_path), base)
        with base.open("a") as f:
            f.write(line + "\n")
        code = main(["train", "--config", str(base), "--out", str(out), "--quiet"])
        assert code == EXIT_CONFIG
        assert not (out / "metrics.jsonl").exists()


class TestCheckpointFormat:
    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_checkpoint_without_a_config_names_the_key(self, checkpoint, tmp_path,
                                                       capsys, command):
        # it failed with the bare message "error: 'config'"
        ckpt = load_checkpoint(checkpoint)
        del ckpt["config"]
        bad, out = write_checkpoint(tmp_path / "bad.npz", ckpt), tmp_path / "out"
        assert main([command, "--checkpoint", str(bad), "--out", str(out)]) == EXIT_RUNTIME
        assert "checkpoint has no 'config'" in capsys.readouterr().err
        assert not out.exists()

    def test_json_checkpoint_is_a_runtime_failure(self, tmp_path, capsys):
        old, out = tmp_path / "old.json", tmp_path / "eval.json"
        old.write_text('{"format_version": 2}\n')
        assert main(["eval", "--checkpoint", str(old), "--out", str(out)]) == EXIT_RUNTIME
        assert "format 2" in capsys.readouterr().err
        assert not out.exists()

    def test_format_3_checkpoint_is_a_runtime_failure(self, tmp_path, capsys):
        # and format 6, whose config held the retired disc.full_state
        cfg = tiny_config(tmp_path=tmp_path)
        live = Trainer(cfg, tiny_dataset(cfg)).checkpoint_dict()
        out = tmp_path / "eval.json"
        for version, config in [(3, live["config"]),
                                (6, dict(live["config"], **{"disc.full_state": "false"}))]:
            ckpt = dict(live, format_version=version, config=config)
            old = write_checkpoint(tmp_path / f"old{version}.npz", ckpt)
            assert main(["eval", "--checkpoint", str(old), "--out", str(out)]) == EXIT_RUNTIME
            assert f"format {version}" in capsys.readouterr().err
            assert not out.exists()

    def test_resume_with_a_slot_of_another_length_writes_nothing(self, tmp_path):
        # a short optimizer slot used to fail only at the first step, after
        # the resume was logged in run.json
        cfg = tiny_config(tmp_path=tmp_path)
        run = tmp_path / "run"
        cfg.out_dir = str(run)
        ckpt = load_checkpoint(Trainer(cfg, tiny_dataset(cfg)).run(run, iterations=1))
        ckpt["disc_opt"]["slots"]["buf"] = ckpt["disc_opt"]["slots"]["buf"][:-1].copy()
        bad = write_checkpoint(tmp_path / "bad.npz", ckpt)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        code = main(["train", "--resume", str(bad), "--iterations", "2", "--quiet"])
        assert code == EXIT_RUNTIME
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("fault", ["count not a number", "no mean",
                                       "learning rate not a number",
                                       "negative iteration", "fractional step count"])
    def test_resume_with_a_bad_scalar_writes_nothing(self, tmp_path, capsys, fault):
        # each of these used to restore, then fail at the first collect or
        # train on with a count no run reaches
        cfg = tiny_config(tmp_path=tmp_path)
        run = tmp_path / "run"
        cfg.out_dir = str(run)
        ckpt = load_checkpoint(Trainer(cfg, tiny_dataset(cfg)).run(run, iterations=1))
        match = apply_fault(ckpt, fault)
        bad = write_checkpoint(tmp_path / "bad.npz", ckpt)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        code = main(["train", "--resume", str(bad), "--iterations", "2", "--quiet"])
        assert code == EXIT_RUNTIME
        assert re.search(match, capsys.readouterr().err)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before


class TestTrainConfigErrors:
    def test_negative_episode_frames_fails_before_training(self, tmp_path):
        # it used to train the whole run, then fail in eval and exit 3
        save_config(tiny_config(tmp_path=tmp_path), tmp_path / "base.txt")
        out = tmp_path / "run"
        code = main(["train", "--config", str(tmp_path / "base.txt"),
                     "--out", str(out), "--set", "eval.episode_frames=-1",
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert not (out / "metrics.jsonl").exists()

    def test_missing_refs_path_fails_before_training(self, tmp_path):
        # it used to fail as the references were read, with exit 3
        out = tmp_path / "run"
        code = main(["train", "--refs", str(tmp_path / "missing"), "--out", str(out),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "sim.link_lengths=0.16", "sim.joint_limits_low=-1.3,-2.2",
        "sim.joint_limits_high=1.3,2.2,1.3,2.2,1.0", "ppo.hidden_sizes=-5",
        "disc.hidden_sizes=0",
        # longer than the references' 130 frames
        "disc.horizon=200",
        "disc.optimizer=foo", "sim.link_lengths=-0.16,0.16"])
    def test_setting_a_run_cannot_build_fails_before_training(self, tmp_path, setting):
        # each used to fail at run time, with exit 3, or train a critic
        # without hidden units, or (the last) a robot without legs
        assert_fails_before_training(tmp_path, setting)

    @pytest.mark.parametrize("setting", ["disc.minibatch_size=0",
                                         "ppo.minibatches=1000"])
    def test_bad_minibatch_setting_fails_before_training(self, tmp_path, setting):
        assert_fails_before_training(tmp_path, setting)

    @pytest.mark.parametrize("section, name, value", NON_FINITE)
    def test_non_finite_setting_fails_before_training(self, tmp_path, section, name,
                                                      value):
        assert_fails_before_training(tmp_path, f"{section}.{name}={value}")


class TestRefsExitCodes:
    """Refs that name nothing are a config error in every command that reads
    them; refs shorter than the horizon are one in each command that reads
    critic windows, and ``eval``, whose DTW reads none, takes them."""

    @pytest.mark.parametrize("refs, command, code", [
        ("missing", "eval", EXIT_CONFIG), ("missing", "analyze", EXIT_CONFIG),
        ("missing", "resume", EXIT_CONFIG), ("short", "analyze", EXIT_CONFIG),
        ("short", "resume", EXIT_CONFIG), ("short", "eval", EXIT_OK),
        # refs sampled every other control period used to be compared frame
        # by frame with the policy's, without an error
        ("slow", "eval", EXIT_CONFIG), ("slow", "analyze", EXIT_CONFIG),
        ("slow", "resume", EXIT_CONFIG)])
    def test_exit_code(self, tmp_path, refs, command, code):
        # each but the slow refs used to exit 3
        cfg = tiny_config(tmp_path=tmp_path)
        cfg.disc.horizon = 8
        dataset = tiny_dataset(cfg)
        save_reference_csv(tmp_path / "short", [t[:5] for t in dataset.trajectories],
                           cfg.sim.control_dt)
        save_slow_refs(tmp_path / "slow", cfg)
        checkpoint = Trainer(cfg, dataset).save_checkpoint(tmp_path / "ckpt.npz")
        out = tmp_path / "out"
        if command == "resume":
            # a resume takes its refs from the checkpoint only
            ckpt = load_checkpoint(checkpoint)
            ckpt["config"]["refs"] = str(tmp_path / refs)
            argv = ["train", "--resume", str(write_checkpoint(checkpoint, ckpt)),
                    "--out", str(out), "--quiet"]
        else:
            argv = [command, "--checkpoint", str(checkpoint), "--refs",
                    str(tmp_path / refs), "--out", str(out)]
        assert main(argv) == code
        assert out.exists() == (code == EXIT_OK)
        if code == EXIT_OK:
            assert json.loads(out.read_text())["per_seed"][0]["n_references"] == 4


    def test_slow_refs_fail_train_and_sweep_before_training(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path=tmp_path)
        slow = save_slow_refs(tmp_path / "slow", cfg)
        assert_fails_before_training(tmp_path, f"refs={slow}")
        assert "refs are sampled every 0.04 s" in capsys.readouterr().err
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(tmp_path / "base.txt"), "--out", str(out),
                     "--grid", f"refs={slow}", "--quiet"]) == EXIT_CONFIG
        assert not out.exists()


def save_slow_refs(path, cfg):
    """``tiny_dataset(cfg)``'s trajectories written at twice the control
    period."""
    save_reference_csv(path, tiny_dataset(cfg).trajectories, 2 * cfg.sim.control_dt)
    return path


def assert_fails_before_training(tmp_path, setting):
    """``train`` of a tiny config with ``--set setting`` exits 2 and writes
    no metrics."""
    save_config(tiny_config(tmp_path=tmp_path), tmp_path / "base.txt")
    out = tmp_path / "run"
    code = main(["train", "--config", str(tmp_path / "base.txt"),
                 "--out", str(out), "--set", setting, "--quiet"])
    assert code == EXIT_CONFIG
    assert not (out / "metrics.jsonl").exists()


# the keys interleaved: the axes go in the order the keys first appear, and
# a key given once, such as the tuple ppo.hidden_sizes, is a constant
GRID = ["disc.loss_kind=wgan", "seed=3", "ppo.hidden_sizes=16,16",
        "disc.loss_kind=lsgan", "seed=4", "iterations=2"]
POINTS = [("wgan", "3"), ("wgan", "4"), ("lsgan", "3"), ("lsgan", "4")]


@pytest.fixture(scope="class")
def sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    save_config(tiny_config(tmp_path=root), root / "base.txt")
    argv = ["sweep", "--config", str(root / "base.txt"), "--out", str(root / "out"),
            "--quiet"]
    for entry in GRID:
        argv += ["--grid", entry]
    assert main(argv) == EXIT_OK
    return root


class TestSweep:
    def test_rows_follow_the_product_and_carry_each_run_eval(self, sweep):
        summary = json.loads((sweep / "out" / "summary.json").read_text())
        assert [r["run"] for r in summary] == [f"run_{i:03d}" for i in range(len(POINTS))]
        assert [r["point"] for r in summary] == [
            {"disc.loss_kind": loss, "seed": seed, "ppo.hidden_sizes": "16,16",
             "iterations": "2"} for loss, seed in POINTS]
        for row in summary:
            run_eval = json.loads((sweep / "out" / row["run"] / "eval.json").read_text())
            assert run_eval["config"]["loss"] == row["point"]["disc.loss_kind"]
            assert run_eval["config"]["seed"] == int(row["point"]["seed"])
            assert row["dtw_mean"] == run_eval["dtw_mean"]
            assert row["dtw_std"] == run_eval["per_seed"][0]["dtw"]["std"]
            assert row["stand_still"] == run_eval["per_seed"][0]["stand_still"]["mean"]

    @pytest.mark.parametrize("run", range(len(POINTS)))
    def test_each_run_is_its_solo_train(self, sweep, tmp_path, run):
        loss, seed = POINTS[run]
        solo = tmp_path / "solo"
        assert main(["train", "--config", str(sweep / "base.txt"), "--out", str(solo),
                     "--set", f"disc.loss_kind={loss}", "--set", f"seed={seed}",
                     "--set", "ppo.hidden_sizes=16,16", "--set", "iterations=2",
                     "--quiet"]) == EXIT_OK
        for name in ("metrics.jsonl", "eval.json"):
            got = (sweep / "out" / f"run_{run:03d}" / name).read_bytes()
            assert got == (solo / name).read_bytes()

    def test_one_refs_path_is_read_once(self, tmp_path, monkeypatch):
        reads = []
        load = trainer_module.load_reference_dataset
        monkeypatch.setattr(trainer_module, "load_reference_dataset",
                            lambda path, horizon: reads.append(path) or load(path, horizon))
        save_config(tiny_config(tmp_path=tmp_path), tmp_path / "base.txt")
        argv = ["sweep", "--config", str(tmp_path / "base.txt"),
                "--out", str(tmp_path / "out"), "--quiet"]
        for entry in ("seed=3", "seed=4", "disc.loss_kind=wgan", "disc.loss_kind=lsgan",
                      "iterations=1"):
            argv += ["--grid", entry]
        assert main(argv) == EXIT_OK
        assert len(json.loads((tmp_path / "out" / "summary.json").read_text())) == 4
        assert len(reads) == 1

    def test_bad_last_point_fails_before_any_run(self, tmp_path):
        save_config(tiny_config(tmp_path=tmp_path), tmp_path / "base.txt")
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(tmp_path / "base.txt"), "--out", str(out),
                     "--grid", "dtw.step_pattern=mori_asymmetric",
                     "--grid", "dtw.step_pattern=symmetric1", "--quiet"])
        assert code == EXIT_CONFIG
        assert not list(out.glob("run_*/metrics.jsonl"))

    def test_missing_refs_path_fails_before_any_run(self, tmp_path):
        # run_000 used to train, then run_001 failed reading its refs (exit 3)
        base = tmp_path / "base.txt"
        cfg = tiny_config(tmp_path=tmp_path)
        save_config(cfg, base)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(base), "--out", str(out),
                     "--grid", f"refs={cfg.refs}", "--grid", f"refs={tmp_path / 'missing'}",
                     "--grid", "iterations=1", "--quiet"])
        assert code == EXIT_CONFIG
        assert not list(out.glob("run_*/metrics.jsonl"))

    def test_horizon_longer_than_the_refs_fails_before_any_run(self, tmp_path):
        # run_000 used to train and evaluate, then run_001 failed reading
        # its refs at a horizon of 200 frames, longer than any (exit 3)
        base = tmp_path / "base.txt"
        save_config(tiny_config(tmp_path=tmp_path), base)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(base), "--out", str(out),
                     "--grid", "iterations=1", "--grid", "disc.horizon=2",
                     "--grid", "disc.horizon=200", "--quiet"])
        assert code == EXIT_CONFIG
        assert not list(out.glob("run_*/metrics.jsonl"))

    @pytest.mark.parametrize("entry", ["disc.loss_kind", "out_dir=elsewhere"])
    def test_bad_grid_entry_is_a_usage_error(self, tmp_path, entry):
        out = tmp_path / "out"
        assert main(["sweep", "--out", str(out), "--grid", entry]) == EXIT_USAGE
        assert not out.exists()

    def test_a_grid_entry_without_equals_is_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--out", str(out), "--grid", "noequals"]) == EXIT_USAGE
        assert "grid entry 'noequals' must look like key=value" in capsys.readouterr().err
        assert not out.exists()


class TestEvalAlignments:
    def test_off_by_default(self, checkpoint, tmp_path):
        run_eval(checkpoint, tmp_path / "eval.json")
        assert not list(tmp_path.glob("**/seed*_rollout*.csv"))

    def test_one_csv_per_rollout_against_its_nearest_reference(self, checkpoint,
                                                               tmp_path):
        out_dir = tmp_path / "align"
        payload = run_eval(checkpoint, tmp_path / "eval.json", "--alignments",
                           str(out_dir))
        trainer = Trainer.from_checkpoint(checkpoint)
        cfg, refs = trainer.cfg, trainer.dataset.trajectories
        files = sorted(out_dir.iterdir())
        assert len(files) == 2 * cfg.eval.rollouts
        for k in range(2):
            distances = np.array(payload["per_seed"][k]["dtw"]["distances"])
            rollouts = evaluate_policy(cfg, trainer.policy, trainer.dataset,
                                       seed=k).rollouts
            for a, seq in enumerate(rollouts):
                b = int(np.argmin(distances[a]))
                path = out_dir / f"seed{k}_rollout{a:03d}_ref{b:03d}.csv"
                with path.open() as f:
                    rows = list(csv.DictReader(f))
                # the asymmetric pattern matches every query frame exactly once
                assert [int(r["query_index"]) for r in rows] == list(range(30))
                costs = local_cost(seq, refs[b])
                total = 0.0
                for r in rows:
                    qi, ri = int(r["query_index"]), int(r["reference_index"])
                    assert float(r["local_cost"]) == costs[qi, ri]
                    assert float(r["local_cost"]) == pytest.approx(
                        np.linalg.norm(seq[qi] - refs[b][ri]), rel=1e-12)
                    total += float(r["local_cost"])
                assert total == pytest.approx(distances[a, b], rel=1e-12)


class TestResumeTarget:
    @pytest.mark.parametrize("iterations", ["1", "2"])
    def test_a_target_already_reached_writes_nothing(self, tmp_path, capsys,
                                                     iterations):
        # it used to train nothing, log a resume in run.json and rewrite the
        # final checkpoint and eval.json
        cfg = tiny_config(tmp_path=tmp_path)
        run = tmp_path / "run"
        cfg.out_dir = str(run)
        final = Trainer(cfg, tiny_dataset(cfg)).run(run, iterations=2)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        code = main(["train", "--resume", str(final), "--iterations", iterations,
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert (f"iterations ({iterations}) must exceed the checkpoint's "
                "iteration (2)") in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before


class TestResumeOut:
    def test_resume_writes_under_out(self, tmp_path):
        cfg = tiny_config(tmp_path=tmp_path)
        first = tmp_path / "first"
        cfg.out_dir = str(first)
        ckpt = Trainer(cfg, tiny_dataset(cfg)).run(first, iterations=1)
        before = {p.name: p.read_bytes() for p in first.iterdir()}
        second = tmp_path / "second"
        code = main(["train", "--resume", str(ckpt), "--iterations", "2",
                     "--out", str(second), "--quiet"])
        assert code == EXIT_OK
        assert {p.name: p.read_bytes() for p in first.iterdir()} == before
        assert (second / "checkpoint_final.npz").exists()
        assert (second / "eval.json").exists()
        records = (second / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(r)["iteration"] for r in records] == [2]
        meta = json.loads((second / "run.json").read_text())
        assert [r["resumed_from"] for r in meta["resumes"]] == [1]
        # the new directory carries the run's identity, as a fresh run's does
        assert meta["seed"] == cfg.seed
        assert meta["build"]
        assert (meta["task"], meta["loss"]) == (cfg.task, cfg.disc.loss_kind)
        final = load_checkpoint(second / "checkpoint_final.npz")
        assert final["iteration"] == 2
        assert final["config"]["out_dir"] == str(second)
        assert (second / "config.txt").read_text() == "".join(
            f"{k} = {v}\n" for k, v in final["config"].items())
