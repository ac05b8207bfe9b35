"""Run every workload over seeds 1-10 and record medians and quartiles.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run measures ``run_seconds`` of BENCHMARK.json.  The record names the
git commit of the measured code, and whether ``src/`` had uncommitted changes.

Workloads alternate within each seed, so slow drift of the machine reaches
all of them alike.  For each workload and end-to-end metric the file holds
the values, their median, quartiles (``statistics.quantiles(n=4)``) and
spread (quartile distance over median), next to machine and Python details,
and the per-layer metrics of one traced run at the default seed.
A change that claims a gain compares two such files, measured with the same
benchmark code on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=run.ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = run.BENCH
    seconds = bench["run_seconds"]
    sha, src_dirty = _git("rev-parse", "HEAD"), bool(_git("status", "--porcelain", "src"))
    raw: dict = {w: [] for w in workloads.WORKLOADS}
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.perf_counter() - t0
            raw[name].append(result)
            print(f"{name} seed {seed}: {result['wall_s']:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    traced = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(run.DEFAULT_SEED),
               "--seconds", str(seconds), "--trace", "1"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        traced[name] = {k: v["value"] for k, v in metrics.items()}
    summary = {}
    for name, results in raw.items():
        rows = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / median if median else 0.0, "values": values}
            print(f"  {name:10s} {metric['name']:14s} median {median:12.6g}  spread {rows[metric['name']]['spread']:.4f}")
        summary[name] = {
            "all_correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": rows,
            "traced_default_seed": traced[name],
        }
    record = {
        "sha": sha,
        "src_dirty": src_dirty,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"platform": platform.platform(), "cpu": _cpu_model(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "default_seed": run.DEFAULT_SEED,
        "heldout_seed": run.HELDOUT_SEED,
        "workloads": summary,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
