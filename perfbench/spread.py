"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (interquartile distance over the median). The set is
steady when every metric's spread, ``setup_s`` included, is at most a third
of its bound; the exit code is 1 otherwise.

    python3 perfbench/spread.py --workloads train_desk,eval_leap --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --trace-seed 1 --baseline perfbench/BASELINE.json

With ``--baseline`` it also runs one traced run per workload at
``--trace-seed`` and writes the figures with their provenance to that file,
replacing the entries of the workloads it ran and keeping the others.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = lines[0].rsplit("digest=", 1)[-1]
    extra = next((json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("reported ")), {})
    return json.loads(lines[-1]), digest, extra


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def blas_info() -> dict:
    """OpenBLAS version and thread count of the numpy in use, when the
    library exposes them."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads and config:
                    config.restype = ctypes.c_char_p
                    return {"blas": config().decode(), "blas_threads": threads()}
    return {"blas": "unknown", "blas_threads": None}


def provenance() -> dict:
    import numpy as np
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = "unknown"
    return {"commit": commit or "unknown", "python": platform.python_version(),
            "numpy": np.__version__, **blas_info(), "nproc": os.cpu_count(),
            "blas_threading": "library default (no thread variables set)"}


def claims(summary: dict) -> dict:
    """The layer shares each workload was chosen to show, from a trace."""
    layers, children = summary["layers"], summary["children"]

    def incl(name):
        return layers.get(name, {}).get("incl_s", 0.0)

    out = {"dtw.pair_share_of_eval": incl("dtw.pair") / summary["measured_s"],
           "trainer.rollout_share_of_eval":
               incl("trainer.rollout") / summary["measured_s"]}
    collect = children.get("ppo.collect")
    if collect:
        out["largest_child_of_ppo.collect"] = max(collect, key=collect.get)
    if incl("trainer.iter"):
        per_iter = children["trainer.iter"]
        phases = {"ppo.collect": per_iter.get("ppo.collect", 0.0),
                  "ppo.update": per_iter.get("ppo.update", 0.0)}
        phases["disc_phase"] = incl("trainer.iter") - sum(phases.values())
        out["iteration_phase_shares"] = {
            k: v / incl("trainer.iter") for k, v in phases.items()}
        out["largest_phase_of_iteration"] = max(phases, key=phases.get)
        out["disc.loss_share_of_iteration"] = incl("disc.loss") / incl("trainer.iter")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--baseline", help="write figures and provenance here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}

    out = {"workloads": {}}
    if args.baseline and Path(args.baseline).exists():
        out = json.loads(Path(args.baseline).read_text())
    out["provenance"] = provenance()
    steady = True
    for workload in args.workloads.split(","):
        values, extras, digests, failed = {}, {}, {}, 0
        for seed in seeds:
            result, digest, extra = run_once(workload, seed, args.seconds, 0)
            failed += result["failed"]
            digests[seed] = digest
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in extra.items():
                extras.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        stats = {name: spread(v) for name, v in values.items()}
        ungated = {name: spread(v) for name, v in extras.items()}
        for name, s in stats.items():
            note = ("  <-- above the bound" if s["spread"] > bounds[name] else
                    "  <-- above a third of the bound"
                    if s["spread"] > bounds[name] / 3 else "")
            steady &= not note
            print(f"  {name:16s} median {s['median']:12.5g}  spread "
                  f"{100 * s['spread']:6.2f}%  bound {100 * bounds[name]:5.1f}%"
                  f"{note}")
        for name, s in ungated.items():
            print(f"  {name:16s} median {s['median']:12.5g}  spread "
                  f"{100 * s['spread']:6.2f}%  (reported, not gated)")
        entry = {"why": whys.get(workload, "run by hand; not in BENCHMARK.json"),
                 "seeds": seeds, "seconds": args.seconds, "failed": failed,
                 "end_to_end": stats, "reported": ungated,
                 "digests": digests}
        if args.baseline:
            layers, _, _ = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["traced_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in layers["metrics"].items()}
            trace = json.loads((ROOT / ".perfbench_runs" /
                                f"trace-{workload}-seed{args.trace_seed}.json").read_text())
            entry["layer_claims"] = claims(trace["summary"])
        out["workloads"][workload] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(out, indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
