"""Benchmark of the magnitudes library: one workload per process.

    python3 perfbench/run.py --workload real-ratio --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all      # every workload, each in its own process

The library is imported from ``src/`` next to this directory; nothing is
installed.  One closed-loop caller, no threads: each op runs only after the
previous one and its check are done.  Inputs come from ``--seed`` only; the
op list is fixed by the seed and ``--seconds`` (see workloads.ROUND_SECONDS).

``--trace 0`` reports the end-to-end metrics:

* ops_per_s: ops over the summed op latencies (checks are not timed).
* op_p50_ms: median op latency (smoothed, see ``smoothed_quantile``).
* op_tail_ms: latency at the highest percentile with 10 ops beyond it
  (smoothed the same way); the percentile and op count are printed beside it.
* ok_frac, decided_frac: 1 - fail_frac and 1 - undecided_frac, which are
  printed too.  An op fails if it raises anything but a documented decline
  or fails its check; it is undecided if it declines on a decidable input.
* setup_s: median time to import magnitudes and magnitudes.cli in a fresh
  interpreter, over SETUP_RUNS interpreters.
* peak_rss_mb: peak resident memory of this process after the timed ops.

``--trace 1`` runs the same ops, half the budget's worth, once untraced and
once traced on fresh inputs, reports the per-layer metrics and the tracing
overhead, lists every op whose outcome differs under tracing, and writes the
spans under ``perfbench/out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false if a checker fails its self-test or an op fails other than a pinned
input raising the error it is expected to raise.  The exit code is non-zero,
with no JSON line, when the library cannot be found or imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# Seed kept out of tuning; a later change confirms its claim on it as well.
HELDOUT_SEED = 7919

SETUP_RUNS = 21
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import magnitudes, magnitudes.cli\n"
    "t1 = time.perf_counter()\n"
    "assert magnitudes.__file__.startswith(sys.argv[1])\n"
    "print(repr(t1 - t0))\n"
)

# Metric names and units, as BENCHMARK.json declares them.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


class LibraryMissing(Exception):
    pass


def load_library() -> SimpleNamespace:
    """The magnitudes modules from ./src, never from an installed copy."""
    if not (SRC / "magnitudes" / "__init__.py").is_file():
        raise LibraryMissing(f"no magnitudes package under {SRC}")
    sys.path.insert(0, str(SRC))
    import magnitudes
    from magnitudes import cli, core, embed, hom, laws, mediants, models, power, ratio

    if not Path(magnitudes.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"magnitudes imported from {magnitudes.__file__}, not {SRC}")
    return SimpleNamespace(
        models=models,
        core=core,
        mediants=mediants,
        ratio=ratio,
        embed=embed,
        hom=hom,
        power=power,
        laws=laws,
        cli=cli,
        PosRat=models.PosRat,
        Interval=models.Interval,
        PosRealValue=models.PosRealValue,
        real_from_rat=models.real_from_rat,
    )


def measure_setup() -> float:
    """Median time to import magnitudes and magnitudes.cli in a fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)  # bytecode warm-up
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def run_phase(ops, tracer=None) -> list:
    """Run every op once; returns (latency_s, status, reason, fingerprint) per op."""
    records = []
    for index, op in enumerate(ops):
        call = op.prepare()
        if tracer is not None:
            tracer.begin_op(index)
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # classified below; only declines are not failures
            error = exc
        elapsed = time.perf_counter() - t0
        status, reason = workloads.classify(op, result, error)
        fingerprint = f"raised {type(error).__name__}" if error is not None else op.fingerprint(result)
        records.append((elapsed, status, reason, fingerprint))
        del call, result, error
    return records


def smoothed_quantile(values: list, q: float) -> float:
    """The q-quantile estimated as a Binomial(n-1, q)-weighted mean of the
    order statistics (a Bernstein-polynomial quantile estimator).

    Op latencies are sparse away from their mode, so a single order
    statistic jumps between neighbouring values from run to run, while this
    estimate moves smoothly with them.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    log_q, log_1q = math.log(q), math.log1p(-q)
    return sum(
        math.exp(math.lgamma(n) - math.lgamma(i + 1) - math.lgamma(n - i) + i * log_q + (n - 1 - i) * log_1q) * x
        for i, x in enumerate(ordered)
    )


def tail(latencies: list) -> tuple:
    """(value, percentile): latency at the highest percentile with >= 10
    samples above it, smoothed as in ``smoothed_quantile``."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0
    q = (n - 10) / n
    return smoothed_quantile(latencies, q), 100.0 * q


def summarize(ops, records) -> dict:
    latencies = [r[0] for r in records]
    n = len(records)
    failed = sum(r[1] == "fail" for r in records)
    undecided = sum(r[1] == "undecided" for r in records)
    tail_value, tail_pct = tail(latencies)
    return {
        "attempted": n,
        "failed": failed,
        "undecided": undecided,
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": smoothed_quantile(latencies, 0.5) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "tail_percentile": tail_pct,
        "fail_frac": failed / n,
        "undecided_frac": undecided / n,
    }


def unexpected_failures(ops, records) -> list:
    """Failed ops other than pinned inputs raising their expected error."""
    out = []
    for op, (_, status, reason, _) in zip(ops, records):
        if status != "fail":
            continue
        if op.expect_error is not None and reason == f"raised {op.expect_error}":
            continue
        out.append((op.category, reason))
    return out


def print_categories(ops, records) -> None:
    by_cat: dict = {}
    for op, rec in zip(ops, records):
        by_cat.setdefault(op.category, []).append(rec)
    print("  per category: count  median_ms  max_ms  fail  undecided")
    for cat in sorted(by_cat):
        recs = by_cat[cat]
        lat = [r[0] * 1e3 for r in recs]
        print(
            f"    {cat:40s} {len(recs):4d} {statistics.median(lat):10.2f} {max(lat):9.2f}"
            f" {sum(r[1] == 'fail' for r in recs):4d} {sum(r[1] == 'undecided' for r in recs):4d}"
        )


def run_workload(args) -> int:
    os.environ.pop("MAGNITUDES_PRECISION", None)  # the CLI reads it; keep defaults
    try:
        lib = load_library()
        setup_s = measure_setup() if not args.trace else None
    except (LibraryMissing, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    from selftest import run_selftest

    problems = run_selftest(lib, args.workload)
    for line in problems:
        print(f"  selftest: {line}")

    # a traced run splits the budget: untraced reference, then traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops = workloads.build_ops(lib, args.workload, args.seed, seconds)
    gc.collect()
    records = run_phase(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats = summarize(ops, records)
    bad = unexpected_failures(ops, records)
    correct = not problems and not bad

    print(f"workload {args.workload}  seed {args.seed}  ops {stats['attempted']}  trace {args.trace}")
    print_categories(ops, records)
    for category, reason in bad[:20]:
        print(f"  UNEXPECTED FAILURE {category}: {reason}")
    expected = stats["failed"] - len(bad)
    print(f"  expected failures (pinned inputs raising a known error): {expected}")

    if not args.trace:
        metrics = {
            "ops_per_s": stats["ops_per_s"],
            "op_p50_ms": stats["op_p50_ms"],
            "op_tail_ms": stats["op_tail_ms"],
            "ok_frac": 1 - stats["fail_frac"],
            "decided_frac": 1 - stats["undecided_frac"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        shown = dict(metrics, fail_frac=stats["fail_frac"], undecided_frac=stats["undecided_frac"])
        units = dict(END_TO_END_UNITS, fail_frac="frac", undecided_frac="frac")
        for name, value in shown.items():
            note = ""
            if name == "op_tail_ms":
                note = f"  (p{stats['tail_percentile']:.2f} of {stats['attempted']} ops, 10 beyond)"
            print(f"  {name:16s} {value:14.6f} {units[name]}{note}")
        out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            traced_ops = workloads.build_ops(lib, args.workload, args.seed, seconds)
            gc.collect()
            traced = run_phase(traced_ops, tracer)
        finally:
            tracer.remove()
        traced_stats = summarize(traced_ops, traced)
        diffs = [
            (i, op.category, a[3], b[3])
            for i, (op, a, b) in enumerate(zip(ops, records, traced))
            if a[3] != b[3]
        ]
        for i, category, plain, under_trace in diffs:
            print(f"  DIFFERS UNDER TRACING op {i} {category}: {plain} -> {under_trace}")
        metrics = tracer.metrics()
        metrics["trace.ops_per_s_untraced"] = stats["ops_per_s"]
        metrics["trace.ops_per_s_traced"] = traced_stats["ops_per_s"]
        metrics["trace.overhead_frac"] = 1 - traced_stats["ops_per_s"] / stats["ops_per_s"]
        metrics["trace.outcome_diffs"] = len(diffs)
        for name, value in metrics.items():
            print(f"  {name:48s} {value:16.6f} {PER_LAYER_UNITS[name]}")
        stem = HERE / "out" / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem, [{"op": i, "category": c, "untraced": a, "traced": b} for i, c, a, b in diffs])
        print(f"  spans: {len(tracer.span_fn)} kept, {tracer.dropped} over the cap, in {stem}.bin")
        out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}

    print(json.dumps({"correct": correct, "attempted": stats["attempted"], "failed": stats["failed"],
                      "metrics": out_metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so imports, caches and peak RSS stay apart."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
