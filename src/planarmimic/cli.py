"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 config validation error, 3 runtime
failure. The output root defaults to ``./runs`` and can be moved with the
``PLANARMIMIC_OUT_ROOT`` environment variable.

Every command builds its config in one pass of ``config.build_config``, the
only place that decides precedence. Each step beats the ones before it:

1. the task (the last ``task`` any step gives, else leap) and its defaults;
2. the ``--config`` file, or the checkpoint's config for ``train --resume``,
   ``eval`` and ``analyze``;
3. the flags ``--task``, ``--loss`` (``disc.loss_kind``), ``--seed``,
   ``--iterations``, ``--refs`` (the ``refs`` key, in ``eval`` and
   ``analyze`` too), train's ``--out`` (``out_dir``), eval's ``--rollouts``
   and ``--seeds`` (``eval.*``), and a ``sweep`` grid point's
   ``--grid KEY=VALUE`` entries;
4. ``--set KEY=VALUE``.

A resume takes only ``--iterations`` and ``--out``. ``eval`` reads only its
checkpoint's config and policy, and builds no trainer.

``train`` writes a checkpoint (format 4, see ``trainer``) every
``checkpoint_interval`` iterations as ``checkpoint_<n>.npz``, the iteration
in six digits (``checkpoint_000500.npz``), and at the end as
``checkpoint_final.npz``. ``eval``, ``analyze`` and ``train --resume`` tell
a checkpoint by its content, not its name, and exit 3 on one that is torn
or damaged, or a JSON checkpoint of format 1 or 2.

``train``, ``eval`` and each ``sweep`` run write one ``eval.json`` schema,
over the eval seeds ``k < eval.seeds``: ``config`` (``task``, ``loss``,
``horizon``, ``seed``, ``step_pattern``, ``open_end``, ``rollouts``),
``seeds``, ``dtw_mean`` and ``dtw_std_across_seeds`` (over the seeds'
``dtw.mean``), and ``per_seed``, seed k's ``EvalReport.to_dict()``
(``dtw``, ``stand_still``, ``handcrafted``, ``n_rollouts``,
``n_references``). ``eval`` on a run's ``checkpoint_final.npz``, without
flags, rewrites its ``eval.json`` byte for byte.

``sweep`` trains one run per point of its grid, in ``<out>/run_<i>`` (three
digits), after it has checked every point's config. A key given once is a
constant; the values given for one key are its axis, in the order given, and
the points are the product of the axes in the order the keys first appear.
A value is not split on commas. The run of a point writes the records and
``eval.json`` of ``train --config BASE`` with that point's entries as
``--set`` keys, byte for byte. ``summary.json`` lists the runs in that order,
each with ``run`` (its directory name), ``point`` (its ``{key: value}`` grid
entries), ``dtw_mean``, ``dtw_std`` (the seeds' mean ``dtw.std``) and
``stand_still`` (``per_seed[0]``'s; no seed changes it).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .analyze import (reference_window_rewards, reward_surface,
                      rollout_reward_histogram, write_alignment_csv,
                      write_histogram_csv, write_surface_csv)
from .config import ConfigError, TrainConfig, build_config
from .core import load_reference_dataset, save_reference_csv
from .dtw import dtw_distance, local_cost
from .sim import DEMO_TRAJECTORIES, MOTIONS, SimParams, generate_demo_set
from .trainer import (Trainer, _write_atomic, checkpoint_policy, evaluate_policy,
                      open_checkpoint)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a word that starts with "-" for an option unless it
        # is a plain negative number; a range such as "-12,12" is a value
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _range(text: str):
    try:
        low, high = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not 'low,high'") from None
    return low, high


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
    p.add_argument("--trajectories", type=_count, default=DEMO_TRAJECTORIES)
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
    p.add_argument("--grid", type=_count, default=101)
    p.add_argument("--pitch-rate-range", type=_range, default="-12,12")
    p.add_argument("--height-range", type=_range, default="0,0.8")

    p = sub.add_parser("sweep", help="train and evaluate one run per point "
                                     "of a grid of config values")
    p.add_argument("--config", help="base config file")
    p.add_argument("--grid", action="append", default=[], metavar="KEY=VALUE",
                   help="one value of a config key; a key's values, in the "
                        "order given, are its axis, and the runs are every "
                        "combination of the axes")
    p.add_argument("--out", help="sweep directory")
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


# the config key each flag sets in the commands that pass it to the config
FLAG_KEYS = {"task": "task", "loss": "disc.loss_kind", "seed": "seed",
             "iterations": "iterations", "refs": "refs", "out": "out_dir",
             "rollouts": "eval.rollouts", "seeds": "eval.seeds"}


def _flag_keys(args, names) -> list:
    """``(config key, value)`` for each flag of ``names`` on the command line."""
    return [(FLAG_KEYS[name], getattr(args, name)) for name in names
            if getattr(args, name) is not None]


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


def _require_runnable(cfg: TrainConfig) -> TrainConfig:
    """``cfg`` once it names reference data that exists and validates, so
    that a config error (exit 2) comes before any run reads or trains."""
    if not cfg.refs or not Path(cfg.refs).exists():
        raise ConfigError([f"refs must point at reference data that exists "
                           f"(--refs or the refs config key), not {cfg.refs!r}"])
    return cfg.require_valid()


def _new_trainer(cfg: TrainConfig) -> Trainer:
    return Trainer(_require_runnable(cfg),
                   load_reference_dataset(cfg.refs, cfg.disc.horizon))


def _train_and_evaluate(trainer: Trainer, quiet: bool):
    """Train in the config's ``out_dir`` (by default a directory named after
    the run under the output root) up to the configured iteration count,
    then write the final policy's report to ``eval.json`` there. Returns
    (final checkpoint, report)."""
    cfg = trainer.cfg
    out = Path(cfg.out_dir) if cfg.out_dir else (
        out_root() / f"{cfg.task}_{cfg.disc.loss_kind}_s{cfg.seed}")
    cfg.out_dir = str(out)
    final = trainer.run(out, progress=_progress_printer(quiet))
    return final, _write_eval(cfg, trainer.policy, trainer.dataset,
                              out / "eval.json")


def cmd_train(args) -> int:
    if args.resume:
        given = [f"--{name}" for name in ("config", "task", "loss", "refs", "seed", "set")
                 if getattr(args, name) not in (None, [])]
        if given:
            raise UsageError(f"{', '.join(given)} cannot change a resumed run; "
                             f"only --iterations and --out apply to --resume")
        trainer = Trainer.from_checkpoint(args.resume,
                                          keys=_flag_keys(args, ("iterations", "out")))
    else:
        keys = _flag_keys(args, ("task", "loss", "seed", "iterations", "refs", "out"))
        trainer = _new_trainer(build_config(args.config, keys, args.set))
    final, report = _train_and_evaluate(trainer, args.quiet)
    if not args.quiet:
        print(f"final checkpoint: {final}")
        print(f"dtw mean {report['dtw_mean']:.3f} over {report['seeds']} seed(s) "
              f"(stand-still {report['per_seed'][0]['stand_still']['mean']:.3f})")
    return EXIT_OK


def _write_eval(cfg: TrainConfig, policy, dataset, path: Path,
                alignments=None) -> dict:
    """Evaluate ``policy`` against ``dataset`` at each eval seed of ``cfg``
    and write the report (schema in the module docstring) to ``path``; with
    ``alignments``, also write each rollout's alignment CSVs into that
    directory. Returns the report."""
    reports = []
    for k in range(cfg.eval.seeds):
        reports.append(evaluate_policy(cfg, policy, dataset, seed=k))
        if alignments:
            _write_alignments(Path(alignments), k, reports[-1], dataset, cfg)
    means = [r.dtw.mean for r in reports]
    payload = {
        "config": {"task": cfg.task, "loss": cfg.disc.loss_kind,
                   "horizon": cfg.disc.horizon, "seed": cfg.seed,
                   "step_pattern": cfg.dtw.step_pattern,
                   "open_end": cfg.dtw.open_end,
                   "rollouts": cfg.eval.rollouts},
        "seeds": cfg.eval.seeds,
        "dtw_mean": float(np.mean(means)),
        "dtw_std_across_seeds": float(np.std(means)),
        "per_seed": [r.to_dict() for r in reports],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode())
    return payload


def cmd_eval(args) -> int:
    ckpt, cfg, dataset = open_checkpoint(
        args.checkpoint, _flag_keys(args, ("refs", "rollouts", "seeds")))
    out = Path(args.out) if args.out else Path(args.checkpoint).with_name("eval.json")
    report = _write_eval(cfg, checkpoint_policy(cfg, ckpt), dataset, out,
                         args.alignments)
    print(f"dtw mean {report['dtw_mean']:.3f} over {report['seeds']} seed(s); "
          f"report: {out}")
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


def cmd_analyze(args) -> int:
    trainer = Trainer.from_checkpoint(args.checkpoint, _flag_keys(args, ("refs",)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = reward_surface(trainer, grid_n=args.grid,
                          pitch_rate_range=args.pitch_rate_range,
                          height_range=args.height_range)
    write_surface_csv(out / "reward_surface.csv", rows)

    policy_rewards = rollout_reward_histogram(trainer)
    ref_rewards = reference_window_rewards(trainer)
    write_histogram_csv(out / "reward_hist_policy.csv", policy_rewards, "policy")
    write_histogram_csv(out / "reward_hist_reference.csv", ref_rewards, "reference")
    print(f"wrote {len(rows)} surface rows and "
          f"{policy_rewards.size + ref_rewards.size} histogram rows to {out}")
    return EXIT_OK


def _grid_points(entries) -> list:
    """The runs of ``sweep --grid`` ``entries``, each a list of ``(key,
    value)`` pairs: the product of the keys' axes, in the order the keys
    first appear, each axis its key's values in the order given."""
    axes = {}
    for entry in entries:
        if "=" not in entry:
            raise UsageError(f"grid entry {entry!r} must look like key=value")
        key, _, value = entry.partition("=")
        key = key.strip()
        if key == "out_dir":
            raise UsageError("out_dir cannot be a grid key: "
                             "each run trains in <out>/run_<i>")
        axes.setdefault(key, []).append(value.strip())
    return [list(zip(axes, values)) for values in itertools.product(*axes.values())]


def cmd_sweep(args) -> int:
    out = Path(args.out) if args.out else out_root() / "sweep"
    points = _grid_points(args.grid)
    runs = [f"run_{i:03d}" for i in range(len(points))]
    # every point's config is checked before the first run trains
    cfgs = [_require_runnable(build_config(args.config,
                                           [*point, ("out_dir", str(out / run))]))
            for run, point in zip(runs, points)]
    summary = []
    for run, point, cfg in zip(runs, points, cfgs):
        _, report = _train_and_evaluate(_new_trainer(cfg), args.quiet)
        summary.append({"run": run, "point": dict(point),
                        "dtw_mean": report["dtw_mean"],
                        "dtw_std": float(np.mean([s["dtw"]["std"]
                                                  for s in report["per_seed"]])),
                        "stand_still": report["per_seed"][0]["stand_still"]["mean"]})
        if not args.quiet:
            print(f"[sweep] {run} {' '.join(f'{k}={v}' for k, v in point)} "
                  f"dtw={report['dtw_mean']:.3f}")
    _write_atomic(out / "summary.json",
                  (json.dumps(summary, indent=2) + "\n").encode())
    print(f"sweep complete: {len(summary)} runs, results in {out}")
    return EXIT_OK


COMMANDS = {
    "demo-gen": cmd_demo_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
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
