import builtins
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from planarmimic.cli import EXIT_CONFIG, EXIT_OK, main
from planarmimic.config import save_config
from planarmimic.dtw import local_cost
from planarmimic.trainer import Trainer, evaluate_policy

from test_trainer import tiny_config, tiny_dataset


@pytest.fixture
def checkpoint(tmp_path):
    cfg = tiny_config(tmp_path=tmp_path)
    cfg.eval.seeds = 2
    cfg.eval.episode_frames = 30
    return Trainer(cfg, tiny_dataset(cfg)).save_checkpoint(tmp_path / "ckpt.json")


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
        blob = json.loads(checkpoint.read_text())
        del blob["config"]["eval.seeds"]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(blob))
        assert run_eval(old, tmp_path / "eval.json")["seeds"] == 1

    @pytest.mark.parametrize("flag", ["--seeds", "--rollouts"])
    def test_zero_is_a_config_error(self, checkpoint, tmp_path, flag):
        # zero seeds used to write a NaN mean and exit 0
        out = tmp_path / "eval.json"
        code = main(["eval", "--checkpoint", str(checkpoint), "--out", str(out),
                     flag, "0"])
        assert code == EXIT_CONFIG
        assert not out.exists()


class TestCheckpointReadOnce:
    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_refs_flag_opens_the_checkpoint_once(self, checkpoint, tmp_path,
                                                 monkeypatch, command):
        refs = json.loads(checkpoint.read_text())["config"]["refs"]
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


class TestRetiredConfigKeys:
    def _old_checkpoint(self, tmp_path, **extra):
        cfg = tiny_config(tmp_path=tmp_path)
        cfg.out_dir = str(tmp_path / "run")
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.train_iteration()
        blob = json.loads(trainer.save_checkpoint(tmp_path / "ckpt.json").read_text())
        # written before demo_noise and demo_height_offset left TrainConfig
        blob["config"].update({"demo_noise": "1.0", "demo_height_offset": "0.0"},
                              **extra)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(blob))
        return old

    def test_checkpoint_with_the_retired_keys_loads(self, tmp_path):
        old = self._old_checkpoint(tmp_path)
        assert run_eval(old, tmp_path / "eval.json")["seeds"] == 1
        code = main(["train", "--resume", str(old), "--iterations", "2", "--quiet"])
        assert code == EXIT_OK
        records = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(r)["iteration"] for r in records] == [2]

    def test_other_unknown_keys_still_fail(self, tmp_path):
        old = self._old_checkpoint(tmp_path, demo_speed="1.0")
        code = main(["eval", "--checkpoint", str(old), "--out",
                     str(tmp_path / "eval.json")])
        assert code == EXIT_CONFIG


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


class TestAblate:
    def test_summary_carries_each_run_eval(self, tmp_path):
        save_config(tiny_config(tmp_path=tmp_path), tmp_path / "base.txt")
        out = tmp_path / "sweep"
        code = main(["ablate", "--config", str(tmp_path / "base.txt"),
                     "--horizons", "2", "--losses", "wgan", "--iterations", "1",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        run_eval = json.loads((out / "h2_wgan" / "eval.json").read_text())
        assert [(r["loss"], r["horizon"]) for r in summary] == [("wgan", 2)]
        assert summary[0]["dtw_mean"] == run_eval["dtw"]["mean"]
        assert summary[0]["stand_still"] == run_eval["stand_still"]["mean"]


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
        assert (second / "checkpoint_final.json").exists()
        assert (second / "eval.json").exists()
        records = (second / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(r)["iteration"] for r in records] == [2]
        meta = json.loads((second / "run.json").read_text())
        assert [r["resumed_from"] for r in meta["resumes"]] == [1]
        # the new directory carries the run's identity, as a fresh run's does
        assert meta["seed"] == cfg.seed
        assert meta["build"]
        assert (meta["task"], meta["loss"]) == (cfg.task, cfg.disc.loss_kind)
        final = json.loads((second / "checkpoint_final.json").read_text())
        assert final["iteration"] == 2
        assert final["config"]["out_dir"] == str(second)
        assert (second / "config.txt").read_text() == "".join(
            f"{k} = {v}\n" for k, v in final["config"].items())
