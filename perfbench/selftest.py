"""Proof that no checker is vacuous.

For one cheap op of each checked kind, run the library call, confirm the
checker accepts the real result, then corrupt the result in several ways
and confirm the checker rejects every corruption.  ``run.py`` runs the samples of its own
workload before measuring; a checker that accepts a corrupted result makes
the run incorrect.  Standalone, for every workload:
``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import workloads

# (workload, category) of the ops whose checkers are exercised; one per checker.
SAMPLES = (
    ("laws-cli", "laws/core_axioms/nat"),
    ("laws-cli", "readme/0-ratio"),
    ("real-ratio", "real-vs-real"),
    ("real-ratio", "convergent/1-12bits"),
    ("real-ops", "product@30"),
    ("real-ops", "pow-den<=64@30"),
    ("real-ops", "fourth@30"),
    ("real-ops", "chain@30"),
)


def _corruptions(result):
    """Wrong variants of a correct result, each of which must be rejected."""
    if isinstance(result, tuple):  # (exit code, stdout) from the CLI
        code, stdout = result
        return [(code + 1, stdout), (code, stdout + "\n"), (code, "#" + stdout[1:])]
    if hasattr(result, "kind"):  # ratio verdict
        flipped = {"greater": "less", "less": "greater"}.get(result.kind, "greater")
        w = result.witness
        out = [SimpleNamespace(kind=flipped, witness=w), SimpleNamespace(kind="equal", witness=None)]
        if w is not None:
            # same verdict, but a multiplier pair that certifies nothing
            out.append(SimpleNamespace(kind=result.kind, witness=SimpleNamespace(m=w.n * 1000 + 1, n=w.m)))
            out.append(SimpleNamespace(kind=result.kind, witness=None))
        return out
    # interval: shifted off the value, and widened past 2^-p
    lo, hi = Fraction(result.lo.num, result.lo.den), Fraction(result.hi.num, result.hi.den)
    width = hi - lo
    shift = width + Fraction(1, 1 << 40)
    return [
        SimpleNamespace(lo=lo + shift, hi=hi + shift),
        SimpleNamespace(lo=lo / 2, hi=lo / 2 + width),
        SimpleNamespace(lo=lo, hi=hi + 1),
    ]


def run_selftest(lib, workload: str) -> list:
    """Problems found in the checkers of ``workload``; empty when every
    checker accepts the true result and rejects every corruption."""
    problems = []
    ops = workloads.build_ops(lib, workload, 0, 1)
    for sample_workload, category in SAMPLES:
        if sample_workload != workload:
            continue
        op = next((o for o in ops if o.category == category), None)
        if op is None:
            problems.append(f"{workload}: no op of category {category}")
            continue
        try:
            result = op.prepare()()
        except Exception as exc:  # a library fault; the checkers cannot be shown here
            problems.append(f"{category}: raised {type(exc).__name__}: {exc}")
            continue
        reason, _ = op.check(result)
        if reason is not None:
            problems.append(f"{category}: true result rejected ({reason})")
        for bad in _corruptions(result):
            reason, _ = op.check(bad)
            if reason is None:
                problems.append(f"{category}: corrupted result accepted: {bad!r}")
    if workload != "real-ratio":
        return problems
    # an equal pair must not accept any strict verdict
    eq = next(o for o in ops if o.category == "equal")
    for kind in ("greater", "less"):
        if eq.check(SimpleNamespace(kind=kind, witness=SimpleNamespace(m=1, n=1)))[0] is None:
            problems.append(f"equal: strict verdict {kind} accepted")
    return problems


if __name__ == "__main__":
    import sys

    import run

    lib = run.load_library()
    found = [line for name in workloads.WORKLOADS for line in run_selftest(lib, name)]
    for line in found:
        print("FAIL", line)
    print("selftest:", "ok" if not found else f"{len(found)} problems")
    sys.exit(1 if found else 0)
