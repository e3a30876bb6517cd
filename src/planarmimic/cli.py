"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 config validation error, 3 runtime
failure. The output root defaults to ``./runs`` and can be moved with the
``PLANARMIMIC_OUT_ROOT`` environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .analyze import (reference_window_rewards, reward_surface,
                      rollout_reward_histogram, write_alignment_csv,
                      write_histogram_csv, write_surface_csv)
from .config import (ConfigError, TrainConfig, apply_overrides, default_config,
                     load_config, save_config)
from .core import load_reference_dataset, save_reference_csv
from .dtw import dtw_distance, local_cost
from .sim import DEMO_TRAJECTORIES, MOTIONS, SimParams, generate_demo_set
from .trainer import Trainer, _write_atomic, evaluate_policy, load_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def out_root() -> Path:
    return Path(os.environ.get("PLANARMIMIC_OUT_ROOT", "runs"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="planarmimic",
                     description="Adversarial imitation of rough base-only "
                                 "demonstrations on a planar legged robot.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo-gen", help="generate rough reference trajectories")
    p.add_argument("--motion", required=True, choices=MOTIONS)
    p.add_argument("--out", required=True, help="output directory (or file with --single-file)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trajectories", type=int, default=DEMO_TRAJECTORIES)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--height-offset", type=float, default=0.0)
    p.add_argument("--single-file", action="store_true",
                   help="write one multi-trajectory CSV instead of one file per trajectory")

    p = sub.add_parser("train", help="train a policy against reference data")
    p.add_argument("--config", help="config file (dotted-key format)")
    p.add_argument("--task", choices=MOTIONS)
    p.add_argument("--loss", choices=("wgan", "lsgan"))
    p.add_argument("--refs", help="reference CSV file or directory")
    p.add_argument("--out", help="run directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config field by dotted key")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint with the warping metric")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--refs", help="reference data (defaults to the checkpoint's)")
    p.add_argument("--rollouts", type=int)
    p.add_argument("--seeds", type=int,
                   help="number of independent evaluation seeds "
                        "(defaults to the checkpoint's eval.seeds)")
    p.add_argument("--out", help="report path (defaults next to the checkpoint)")
    p.add_argument("--alignments", metavar="DIR",
                   help="write each rollout's alignment to its nearest "
                        "reference as CSV into DIR")

    p = sub.add_parser("analyze", help="export reward surfaces and histograms")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--refs", help="reference data (defaults to the checkpoint's)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--pitch-rate-range", default="-12,12")
    p.add_argument("--height-range", default="0,0.8")

    p = sub.add_parser("ablate", help="sweep discriminator horizons and losses")
    p.add_argument("--config", help="base config file")
    p.add_argument("--horizons", required=True, help="comma-separated list, e.g. 2,4,8")
    p.add_argument("--losses", default="wgan,lsgan")
    p.add_argument("--refs")
    p.add_argument("--out", help="sweep directory")
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--quiet", action="store_true")

    return parser


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def show(record):
        kl = record["kl"]
        print(f"iter {record['iteration']:6d}  reward {record['reward_mean']:+9.3f}  "
              f"imit {record['imitation_mean']:+7.3f}  disc {record['disc_loss']:+8.4f}  "
              f"kl {kl if kl is None else f'{kl:.4f}'}  lr {record['lr']:.2e}")
    return show


def _build_train_config(args) -> TrainConfig:
    if args.config:
        cfg = load_config(args.config, base=default_config())
    else:
        cfg = default_config(args.task or "leap", args.loss or "wgan")
    if args.task:
        apply_overrides(cfg, [f"task={args.task}"])
    if args.loss:
        cfg.disc.loss_kind = args.loss
    if args.seed is not None:
        cfg.seed = args.seed
    if args.iterations is not None:
        cfg.iterations = args.iterations
    if args.refs:
        cfg.refs = args.refs
    if args.out:
        cfg.out_dir = args.out
    apply_overrides(cfg, args.set)
    return cfg


def cmd_demo_gen(args) -> int:
    params = SimParams()
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 99]))
    trajectories = generate_demo_set(args.motion, params, rng,
                                     n_trajectories=args.trajectories,
                                     noise_scale=args.noise_scale,
                                     height_offset=args.height_offset)
    written = save_reference_csv(args.out, trajectories, params.control_dt,
                                 multi=args.single_file)
    print(f"wrote {len(trajectories)} {args.motion} trajectories to "
          f"{written[0] if args.single_file else args.out}")
    return EXIT_OK


def _train_and_evaluate(trainer: Trainer, out: Path, quiet: bool):
    """Train in ``out`` up to the configured iteration count, then evaluate
    the final policy into ``out/eval.json``. Returns (final checkpoint,
    evaluation report)."""
    trainer.cfg.out_dir = str(out)
    final = trainer.run(out, progress=_progress_printer(quiet))
    report = evaluate_policy(trainer.cfg, trainer.policy, trainer.dataset)
    _write_atomic(out / "eval.json", [json.dumps(report.to_dict(), indent=2), "\n"])
    return final, report


def cmd_train(args) -> int:
    if args.resume:
        trainer = Trainer.from_checkpoint(args.resume)
        cfg = trainer.cfg
        if args.iterations is not None:
            cfg.iterations = args.iterations
        if args.out:
            cfg.out_dir = args.out
    else:
        cfg = _build_train_config(args)
        if not cfg.refs:
            raise ConfigError(["refs must point at reference data "
                               "(--refs or the refs config key)"])
        cfg.require_valid()
        dataset = load_reference_dataset(cfg.refs, cfg.disc.horizon)
        trainer = Trainer(cfg, dataset)

    out = Path(cfg.out_dir) if cfg.out_dir else (
        out_root() / f"{cfg.task}_{cfg.disc.loss_kind}_s{cfg.seed}")
    final, report = _train_and_evaluate(trainer, out, args.quiet)
    if not args.quiet:
        print(f"final checkpoint: {final}")
        print(f"dtw mean {report.dtw.mean:.3f} (stand-still {report.stand_still.mean:.3f})")
    return EXIT_OK


def _load_trainer(args) -> Trainer:
    """The trainer of ``--checkpoint``, with the ``--refs`` dataset if given,
    windowed at the checkpoint's horizon. The file is read once."""
    ckpt = load_checkpoint(args.checkpoint)
    dataset = None
    if args.refs:
        dataset = load_reference_dataset(args.refs,
                                         int(ckpt["config"]["disc.horizon"]))
    return Trainer.from_checkpoint(ckpt, dataset=dataset)


def cmd_eval(args) -> int:
    trainer = _load_trainer(args)
    cfg = trainer.cfg
    if args.rollouts is not None:
        cfg.eval.rollouts = args.rollouts
    if args.seeds is not None:
        cfg.eval.seeds = args.seeds
    cfg.require_valid()
    seeds = cfg.eval.seeds

    reports = []
    for k in range(seeds):
        reports.append(evaluate_policy(cfg, trainer.policy, trainer.dataset, seed=k))
        if args.alignments:
            _write_alignments(Path(args.alignments), k, reports[-1],
                              trainer.dataset, cfg)
    means = [r.dtw.mean for r in reports]
    payload = {
        "config": {"task": cfg.task, "loss": cfg.disc.loss_kind,
                   "horizon": cfg.disc.horizon, "seed": cfg.seed,
                   "step_pattern": cfg.dtw.step_pattern,
                   "open_end": cfg.dtw.open_end,
                   "rollouts": cfg.eval.rollouts},
        "seeds": seeds,
        "dtw_mean": float(np.mean(means)),
        "dtw_std_across_seeds": float(np.std(means)),
        "per_seed": [r.to_dict() for r in reports],
    }
    out = Path(args.out) if args.out else Path(args.checkpoint).with_name("eval.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(out, [json.dumps(payload, indent=2), "\n"])
    print(f"dtw mean {payload['dtw_mean']:.3f} over {seeds} seed(s); report: {out}")
    return EXIT_OK


def _write_alignments(out: Path, seed: int, report, dataset, cfg) -> None:
    """One CSV per rollout: its optimal alignment to the reference it is
    nearest to, with the local cost of every matched frame pair."""
    for a, seq in enumerate(report.rollouts):
        b = int(np.argmin(report.dtw.distances[a]))
        ref = dataset.trajectories[b]
        _, path = dtw_distance(seq, ref, cfg.dtw)
        write_alignment_csv(out / f"seed{seed}_rollout{a:03d}_ref{b:03d}.csv",
                            seq, ref, path, local_cost(seq, ref))


def _parse_range(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"range {text!r} must be 'low,high'")
    return float(parts[0]), float(parts[1])


def cmd_analyze(args) -> int:
    trainer = _load_trainer(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = reward_surface(trainer, grid_n=args.grid,
                          pitch_rate_range=_parse_range(args.pitch_rate_range),
                          height_range=_parse_range(args.height_range))
    write_surface_csv(out / "reward_surface.csv", rows)

    policy_rewards = rollout_reward_histogram(trainer)
    ref_rewards = reference_window_rewards(trainer)
    write_histogram_csv(out / "reward_hist_policy.csv", policy_rewards, "policy")
    write_histogram_csv(out / "reward_hist_reference.csv", ref_rewards, "reference")
    print(f"wrote {len(rows)} surface rows and "
          f"{policy_rewards.size + ref_rewards.size} histogram rows to {out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    try:
        horizons = [int(h) for h in args.horizons.split(",") if h.strip()]
    except ValueError:
        raise UsageError(f"bad horizon list {args.horizons!r}")
    if not horizons:
        raise UsageError("horizon list is empty")
    losses = [l.strip() for l in args.losses.split(",") if l.strip()]
    if not losses or any(l not in ("wgan", "lsgan") for l in losses):
        raise UsageError(f"bad loss list {args.losses!r}")

    out = Path(args.out) if args.out else out_root() / "ablate"
    out.mkdir(parents=True, exist_ok=True)
    curve_rows = []
    summary = []
    for loss in losses:
        for horizon in horizons:
            if args.config:
                cfg = load_config(args.config, base=default_config())
            else:
                cfg = default_config("standup", loss)
            cfg.disc.loss_kind = loss
            cfg.disc.horizon = horizon
            if args.refs:
                cfg.refs = args.refs
            if args.iterations is not None:
                cfg.iterations = args.iterations
            if args.seed is not None:
                cfg.seed = args.seed
            if not cfg.refs:
                raise ConfigError(["refs must point at reference data"])
            cfg.require_valid()
            run_dir = out / f"h{horizon}_{loss}"
            trainer = Trainer(cfg, load_reference_dataset(cfg.refs, horizon))
            _, report = _train_and_evaluate(trainer, run_dir, args.quiet)
            summary.append({"loss": loss, "horizon": horizon,
                            "dtw_mean": report.dtw.mean,
                            "dtw_std": report.dtw.std,
                            "stand_still": report.stand_still.mean})
            with (run_dir / "metrics.jsonl").open() as f:
                for line in f:
                    rec = json.loads(line)
                    curve_rows.append([loss, horizon, rec["iteration"],
                                       rec["reward_mean"], rec["imitation_mean"],
                                       rec["disc_loss"], rec["kl"]])
            if not args.quiet:
                print(f"[ablate] loss={loss} H={horizon} "
                      f"dtw={report.dtw.mean:.3f}")

    with (out / "learning_curves.csv").open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["loss", "horizon", "iteration", "reward_mean",
                         "imitation_mean", "disc_loss", "kl"])
        writer.writerows(curve_rows)
    _write_atomic(out / "summary.json", [json.dumps(summary, indent=2), "\n"])
    print(f"ablation sweep complete: {len(summary)} runs, results in {out}")
    return EXIT_OK


COMMANDS = {
    "demo-gen": cmd_demo_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
