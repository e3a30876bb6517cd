"""Benchmark of planarmimic training and evaluation, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 40 --trace 0

The benchmark builds every input from ``--seed`` (reference CSVs, and for
the eval workload a checkpoint of the policy ``Trainer`` initialises at that
seed), then drives the public API: ``Trainer.run``, ``Trainer.from_checkpoint``
and ``evaluate_policy``. ``--seconds`` fixes the work of a run: the number
of iterations (or evaluations) the seed commit completes in that time on a
2-core machine, so a faster program does the same work in less time.

``--trace 0`` times the calls with nothing wrapped and reports the gated
end-to-end metrics, with the ungated figures on a ``reported`` line.
``--trace 1`` splits the same work into two halves, the first plain and the
second with every layer wrapped (see ``tracing.py``), followed by a
fixed-seed sweep of ``PlanarEnv.step`` over batch sizes and one call of each
layer, and reports the per-layer metrics. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

from checks import (digest_arrays, digest_records, eval_failures,
                    mori_open_end_distance, record_failed)
from tracing import (END, NAME, PARENT, START, Tracer, layer_table,
                     layer_targets, median_ms, self_times, subtree)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

SETUP_REPS = 9
# Imports happen once per process, so their time is measured in fresh
# interpreters, one before each of the SETUP_REPS set-ups, and the median is
# added to the median set-up.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, sys.argv[1]); "
                "import planarmimic.config, planarmimic.trainer; "
                "print(time.perf_counter() - t)")
SWEEP_ENVS = (1, 16, 256, 1024)
SWEEP_STEPS = 30


@dataclass(frozen=True)
class Workload:
    kind: str                 # "train" or "eval"
    task: str
    loss: str
    num_envs: int
    checkpoint_interval: int
    rate: float               # work units per second of the seed commit, 2 cores
    steps_per_iter: int = 24
    rollouts: int = 20

    def units(self, seconds: float) -> int:
        return max(1, round(seconds * self.rate))


WORKLOADS = {
    # The shipped defaults. At E=16 PlanarEnv.step is dispatch-bound and the
    # discriminator's gradient penalty carries real weight.
    "train_desk": Workload("train", "leap", "wgan", num_envs=16,
                           checkpoint_interval=500, rate=4.5),
    # E=256 makes ppo_update and the per-env Python loops of the collector
    # and reset_rows dominate; checkpoints every 3 iterations land in the tail.
    # Run by hand only: a third workload does not fit the time of a full
    # benchmark pass (see README.md).
    "train_wide": Workload("train", "backflip", "lsgan", num_envs=256,
                           checkpoint_interval=3, rate=1.25),
    # The default eval of a fixed-seed policy: E=1 rollouts and pure-Python
    # DTW, no learning. It bypasses every training-side change. Calls of 2
    # rollouts (against all 20 references, plus the stand-still baseline)
    # instead of the default 20 make units of about 2 seconds, short enough
    # for some to fall between the machine's slow stretches.
    "eval_leap": Workload("eval", "leap", "wgan", num_envs=16,
                          checkpoint_interval=500, rate=0.4, rollouts=2),
}


@dataclass
class Phase:
    """Timings and outcome of one measured stretch of work."""

    wall_s: float
    cpu_s: float
    unit_s: list              # wall time of each iteration or evaluation
    env_steps: int
    attempted: int
    failed: int
    digest: str
    errors: list = field(default_factory=list)


def import_program():
    """Import planarmimic from this checkout's sources, never from elsewhere."""
    if not (SRC / "planarmimic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no planarmimic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import planarmimic
    from planarmimic import config, core, dtw, nets, ppo, sim, trainer
    if Path(planarmimic.__file__).resolve().parent != SRC / "planarmimic":
        raise SystemExit(f"perfbench: planarmimic imported from "
                         f"{planarmimic.__file__}, not from {SRC}")
    return SimpleNamespace(np=np, config=config, core=core, dtw=dtw,
                           nets=nets, ppo=ppo, sim=sim, trainer=trainer)


# ---------------------------------------------------------------------------
# inputs and set-up
# ---------------------------------------------------------------------------

def make_inputs(pm, wl: Workload, seed: int, work: Path) -> SimpleNamespace:
    """Reference CSV (and, for eval, a checkpoint) generated from the seed."""
    params = pm.sim.SimParams()
    rng = pm.np.random.default_rng(pm.np.random.SeedSequence([seed, 99]))
    refs = work / f"{wl.task}.csv"
    pm.core.save_reference_csv(
        refs, pm.sim.generate_demo_set(wl.task, params, rng),
        params.control_dt, multi=True)
    cfg = pm.config.default_config(wl.task, wl.loss)
    cfg.seed = seed
    cfg.refs = str(refs)
    cfg.ppo.num_envs = wl.num_envs
    cfg.ppo.steps_per_iter = wl.steps_per_iter
    cfg.checkpoint_interval = wl.checkpoint_interval
    cfg.log_interval = 1
    cfg.eval.rollouts = wl.rollouts
    cfg.require_valid()
    inputs = SimpleNamespace(cfg=cfg, refs=refs, checkpoint=None)
    if wl.kind == "eval":
        dataset = pm.core.load_reference_dataset(refs, cfg.disc.horizon)
        inputs.checkpoint = pm.trainer.Trainer(cfg, dataset).save_checkpoint(
            work / "policy.json")
    return inputs


def import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def set_up(pm, wl: Workload, inputs, reps: int, imports: bool = False):
    """Build the trainer a user would start from, ``reps`` times; returns the
    last one and the set-up time: the median build, plus the median import
    time when ``imports`` is set. Import probes and builds alternate, so a
    slow stretch of the machine does not land on one kind only."""
    builds, probes = [], []
    for _ in range(reps):
        if imports:
            probes.append(import_seconds())
        t = perf_counter()
        if wl.kind == "eval":
            trainer = pm.trainer.Trainer.from_checkpoint(inputs.checkpoint)
        else:
            cfg = inputs.cfg
            dataset = pm.core.load_reference_dataset(cfg.refs, cfg.disc.horizon)
            trainer = pm.trainer.Trainer(cfg, dataset)
        builds.append(perf_counter() - t)
    setup_s = statistics.median(builds)
    if imports:
        setup_s += statistics.median(probes)
    return trainer, setup_s


# ---------------------------------------------------------------------------
# measured work
# ---------------------------------------------------------------------------

def measure_train(trainer, iterations: int, out_dir: Path) -> Phase:
    stamps, records, errors = [], [], []

    def progress(record):
        stamps.append(perf_counter())
        records.append(record)

    cpu0 = process_time()
    t0 = perf_counter()
    try:
        trainer.run(out_dir, iterations=iterations, progress=progress)
    except Exception as e:  # noqa: BLE001 - a raising iteration is a counted failure
        errors.append(f"iteration {len(records) + 1}: {e!r}")
    wall = perf_counter() - t0
    cpu = process_time() - cpu0
    bounds = [t0] + stamps
    cfg = trainer.cfg
    return Phase(
        wall_s=wall, cpu_s=cpu,
        unit_s=[b - a for a, b in zip(bounds, bounds[1:])],
        env_steps=cfg.ppo.num_envs * cfg.ppo.steps_per_iter * len(records),
        attempted=iterations,
        failed=sum(map(record_failed, records)) + iterations - len(records),
        digest=digest_records(records), errors=errors)


def stand_still_oracle(trainer) -> list:
    """Stand-still distances from the benchmark's own DTW loop."""
    cfg = trainer.cfg
    frames = cfg.eval.episode_frames or max(
        t.shape[0] for t in trainer.dataset.trajectories)
    still = [[0.0, 0.0, 0.0, 0.0, -1.0, cfg.sim.nominal_height()]] * frames
    return [mori_open_end_distance(still, ref)
            for ref in trainer.dataset.trajectories]


def measure_eval(pm, trainer, evaluations: int, oracle: list) -> Phase:
    cfg = trainer.cfg
    n_refs = trainer.dataset.num_trajectories
    frames = cfg.eval.episode_frames or max(
        t.shape[0] for t in trainer.dataset.trajectories)
    per_eval = cfg.eval.rollouts * n_refs + n_refs
    times, arrays, errors, failed = [], [], [], 0
    cpu0 = process_time()
    t0 = perf_counter()
    for k in range(evaluations):
        t = perf_counter()
        try:
            report = pm.trainer.evaluate_policy(cfg, trainer.policy,
                                                trainer.dataset, seed=k)
        except Exception as e:  # noqa: BLE001 - a raising eval fails all its distances
            errors.append(f"evaluation {k}: {e!r}")
            failed += per_eval
            continue
        times.append(perf_counter() - t)
        failed += eval_failures(report.dtw.distances,
                                (cfg.eval.rollouts, n_refs),
                                report.stand_still.distances, oracle)
        arrays += [report.dtw.distances, report.stand_still.distances]
    wall = perf_counter() - t0
    return Phase(wall_s=wall, cpu_s=process_time() - cpu0, unit_s=times,
                 env_steps=len(times) * cfg.eval.rollouts * (frames - 1),
                 attempted=evaluations * per_eval, failed=failed,
                 digest=digest_arrays(arrays), errors=errors)


def measure(pm, wl: Workload, trainer, units: int, out_dir: Path,
            oracle) -> Phase:
    if wl.kind == "eval":
        return measure_eval(pm, trainer, units, oracle)
    return measure_train(trainer, units, out_dir)


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def tail(values) -> tuple:
    """(value, percentile): the highest whole percentile that still has at
    least 10 samples above it; the maximum when that percentile would be
    below the median (fewer than 21 samples)."""
    n = len(values)
    if n < 21:
        return max(values), 100
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    pos = (n - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), pct


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """The gated end-to-end metrics, defined on each workload.

    The unit of work is one ``Trainer.run`` iteration on a training workload
    and one ``evaluate_policy`` call on the eval workload. ``iter_ms_min`` is
    the fastest unit: on a machine shared with other tenants, whose speed
    changes by up to 2x for seconds to minutes at a time, it is the one
    timing of a unit that repeats from run to run.
    """
    if not phase.unit_s:
        raise RuntimeError("no unit of work completed: " + "; ".join(phase.errors))
    return {
        "setup_s": (setup_s, "s"),
        "iter_ms_min": (1e3 * min(phase.unit_s), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def reported(wl: Workload, phase: Phase) -> dict:
    """Figures printed but not gated, because they follow the machine's
    speed: throughput, median and tail unit time, and ``eval_s``, the wall
    time of the measured public call (the median ``evaluate_policy``, or
    the whole ``Trainer.run`` with its final checkpoint)."""
    units_ms = [1e3 * s for s in phase.unit_s]
    tail_ms, pct = tail(units_ms)
    return {
        "env_steps_per_s": (phase.env_steps / sum(phase.unit_s), "1/s"),
        "iter_ms_p50": (statistics.median(units_ms), "ms"),
        "iter_ms_tail": (tail_ms, "ms"),
        "iter_ms_tail_pct": (pct, "%"),
        "iter_samples": (len(units_ms), "count"),
        "eval_s": (statistics.median(phase.unit_s) if wl.kind == "eval"
                   else phase.wall_s, "s"),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def sweep(pm, tracer: Tracer, trainer, seed: int, out_dir: Path) -> None:
    """Fixed-seed calls of every layer: ``PlanarEnv.step`` at each batch size
    in ``SWEEP_ENVS``, then one call of each other layer at the workload's
    config, so every layer has a per-call time on every workload."""
    np = pm.np
    cfg = trainer.cfg
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    for envs in SWEEP_ENVS:
        env = pm.sim.PlanarEnv(cfg.sim, envs, seed=seed)
        actions = 0.1 * rng.standard_normal((SWEEP_STEPS, envs, 4))
        with tracer.span(f"sweep.E{envs}"):
            for a in actions:
                env.step(a)
    with tracer.span("sweep.layers"):
        trainer.train_iteration()
        path = trainer.save_checkpoint(out_dir / "sweep_checkpoint.json")
        pm.trainer.Trainer.from_checkpoint(path)
        frames = max(t.shape[0] for t in trainer.dataset.trajectories)
        seq, _ = pm.trainer.rollout_observations(cfg, trainer.policy, frames, seed)
        pm.dtw.dtw_distance(seq, trainer.dataset.trajectories[0], cfg.dtw)


# Inclusive shares of the measured work reported per layer.
SHARE_LAYERS = ("sim.step", "ppo.collect", "ppo.update", "disc.loss", "nets.gp",
                "core.sample_ref", "dtw.pair", "trainer.rollout",
                "trainer.checkpoint_save")


def layer_metrics(spans, roots: dict, plain: Phase, traced: Phase,
                  span_cost_s: float) -> tuple:
    """Per-layer metrics and a summary of the measured subtree.

    A per-call time is the median over the spans of the set-up and measured
    work; a layer those never call falls back to its calls in the sweep.
    Counts and shares cover the measured work only. ``trace.overhead_s`` is
    the span count of the measured work times the calibrated cost of one
    span; ``trace.wall_diff_s`` is traced minus plain wall time, one ordered
    pair, so machine drift can make it negative.
    """
    own = self_times(spans)
    measured = subtree(spans, roots["measure"])
    phase = list(subtree(spans, roots["setup"])) + list(measured)
    swept = subtree(spans, roots["sweep"])

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else ""

    def matches(group, name, parent=None):
        return [i for i in group if spans[i][NAME] == name
                and (parent is None or parent_name(i) == parent)]

    def pick(name, parent=None):
        return matches(phase, name, parent) or matches(swept, name, parent)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def child_time(i, name):
        return sum(dur(c) for c in subtree(spans, i)
                   if spans[c][PARENT] == i and spans[c][NAME] == name)

    m = {}

    def ms(key, name, parent=None, value=dur):
        m[key] = (median_ms([value(i) for i in pick(name, parent)]), "ms")

    def secs(key, name):
        m[key] = (median_ms([dur(i) for i in pick(name)]) / 1e3, "s")

    def count(key, name, parent=None, per=1):
        m[key] = (len(matches(measured, name, parent)) // per, "count")

    ms("sim.step_ms", "sim.step")
    count("sim.steps", "sim.step")
    ms("sim.reset_rows_ms", "sim.reset_rows")
    for envs in SWEEP_ENVS:
        root = next(i for i in swept if spans[i][NAME] == f"sweep.E{envs}")
        m[f"sim.step_ms.E{envs}"] = (median_ms(
            [dur(i) for i in subtree(spans, root) if spans[i][NAME] == "sim.step"]),
            "ms")
    ms("ppo.collect_ms", "ppo.collect")
    ms("ppo.collect_self_ms", "ppo.collect", value=lambda i: own[i])
    ms("ppo.update_ms", "ppo.update")
    count("ppo.minibatches", "nets.backward", "ppo.update", per=2)
    ms("disc.loss_ms", "disc.loss")
    ms("disc.score_ms", "disc.score")
    count("disc.steps", "disc.loss")
    ms("nets.gp_ms", "nets.gp")
    for parent in ("ppo.update", "trainer.iter"):
        ms(f"nets.opt_step_ms.{parent}", "nets.opt_step", parent)
    for parent in ("ppo.collect", "disc.score", "disc.loss", "ppo.update",
                   "trainer.rollout"):
        ms(f"nets.forward_ms.{parent}", "nets.forward", parent)
    for parent in ("ppo.update", "disc.loss"):
        ms(f"nets.backward_ms.{parent}", "nets.backward", parent)
    ms("core.sample_ref_ms", "core.sample_ref")
    ms("core.window_push_ms", "core.window_push")
    secs("core.load_refs_s", "core.load_refs")
    ms("dtw.pair_ms", "dtw.pair")
    count("dtw.pairs", "dtw.pair")
    ms("trainer.iter_ms", "trainer.iter")
    ms("trainer.disc_phase_ms", "trainer.iter",
       value=lambda i: dur(i) - child_time(i, "ppo.collect") - child_time(i, "ppo.update"))
    ms("trainer.rollout_ms", "trainer.rollout")
    ms("trainer.checkpoint_save_ms", "trainer.checkpoint_save")
    secs("trainer.checkpoint_load_s", "trainer.checkpoint_load")
    m["proc.cpu_per_wall"] = (plain.cpu_s / plain.wall_s, "ratio")
    m["trace.overhead_s"] = (len(measured) * span_cost_s, "s")
    m["trace.wall_diff_s"] = (traced.wall_s - plain.wall_s, "s")

    table = layer_table(spans, measured, own)
    total = dur(roots["measure"])
    for name in SHARE_LAYERS:
        m[f"share.{name}"] = (100 * table.get(name, {}).get("incl_s", 0.0) / total, "%")

    children = {}
    for i in measured:
        p = parent_name(i)
        row = children.setdefault(p, {})
        row[spans[i][NAME]] = row.get(spans[i][NAME], 0.0) + dur(i)
    summary = {"measured_s": total, "layers": table, "children": children}
    return m, summary


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run(wl_name: str, wl: Workload, seed: int, seconds: float,
        trace: bool) -> str:
    pm = import_program()
    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl_name}-s{seed}-", dir=RUNS_DIR))
    try:
        inputs = make_inputs(pm, wl, seed, work)
        trainer, setup_s = set_up(pm, wl, inputs, SETUP_REPS, imports=True)
        oracle = stand_still_oracle(trainer) if wl.kind == "eval" else None
        # A traced run spends half its work plain and half traced.
        units = wl.units(seconds)
        if trace:
            units = max(1, units // 2)
        plain = measure(pm, wl, trainer, units, work / "plain", oracle)
        print(f"{wl_name} seed={seed} units={units} digest={plain.digest}")
        for err in plain.errors:
            print(f"  error: {err}")
        correct, attempted, failed = plain.failed == 0, plain.attempted, plain.failed
        if not trace:
            metrics = end_to_end(plain, setup_s)
            extra = reported(wl, plain)
            print("reported, not gated:")
            print_metrics(extra)
            print("reported " + json.dumps({k: v for k, (v, _) in extra.items()}))
            print("gated:")
            print_metrics(metrics)
            return result_line(correct, attempted, failed, metrics)

        tracer = Tracer()
        tracer.install(layer_targets(pm))
        try:
            with tracer.span("bench.setup") as setup_root:
                traced_trainer, _ = set_up(pm, wl, inputs, 1)
            with tracer.span("bench.measure") as measure_root:
                traced = measure(pm, wl, traced_trainer, units, work / "traced",
                                 oracle)
            with tracer.span("bench.sweep") as sweep_root:
                sweep(pm, tracer, traced_trainer, seed, work)
        finally:
            tracer.uninstall()
        roots = {"setup": setup_root, "measure": measure_root, "sweep": sweep_root}
        metrics, summary = layer_metrics(tracer.spans, roots, plain, traced,
                                         tracer.span_cost_s())
        print(f"{wl_name} seed={seed} traced digest={traced.digest}")
        correct = correct and traced.failed == 0 and traced.digest == plain.digest
        attempted += traced.attempted
        failed += traced.failed
        for name, row in sorted(summary["layers"].items(),
                                key=lambda kv: -kv[1]["incl_s"]):
            print(f"  {name:26s} calls {row['calls']:7d}  incl "
                  f"{100 * row['incl_s'] / summary['measured_s']:6.2f}%  self "
                  f"{100 * row['self_s'] / summary['measured_s']:6.2f}%")
        print_metrics(metrics)
        trace_path = RUNS_DIR / f"trace-{wl_name}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "workload": wl_name, "seed": seed, "units": units,
            "plain_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
            "digest": plain.digest, "summary": summary,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "roots": roots, "spans": tracer.spans,
        }) + "\n")
        print(f"  spans written to {trace_path}")
        return result_line(correct, attempted, failed, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    line = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
               bool(args.trace))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
