"""Per-layer tracing from outside the library.

Each traced function is replaced, in every ``magnitudes`` module namespace
that binds it, by a wrapper that records a span (function, parent span, op
index, start, end) and accumulates calls and self time (span time minus the
time of child spans).  Spans are kept in memory, up to a cap, and written
out when the run ends; the aggregate counters always cover every call.

Wrappers add one interpreter frame per traced call, so recursion-heavy ops
hit the recursion ceiling earlier under tracing.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# <module>: functions whose calls and self time are reported.
TRACED = {
    "models": ("PosRealValue.approx", "real_compare", "real_add", "real_scale", "real_mul", "real_subtract"),
    "core": ("multiple", "find_multiple_exceeding"),
    "mediants": ("simplest_in", "ratio_as_fraction"),
    "ratio": ("ratio_compare", "verify_witness"),
    "embed": ("fourth_proportional", "evaluate", "check_homomorphism"),
    "hom": ("product", "quotient", "hom_compare"),
    "power": ("into_mul", "nth_root", "pow", "int_nth_root", "mul_multiple", "mul_combine"),
    "laws": ("run_suite", "reports_to_json"),
    "cli": ("main",),
}

SPAN_CAP = 500_000

# Which end-to-end metric, on which workload, each layer metric should move:
#   ratio.*, core.multiple, models.real_compare.*  -> ops_per_s, op_tail_ms and decided_frac on real-ratio
#   hom.quotient, power.nth_root, power.pow, power.int_nth_root  -> ops_per_s and op_tail_ms on real-ops
#   models.approx.*, models.PosRat.new  -> ops_per_s on real-ratio and real-ops
#   laws.*, cli.main, mediants.*, models.PosRat.new  -> ops_per_s on laws-cli
#   work done at import time  -> setup_s on every workload


def function_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names = function_names()
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0
        self.stack: list = []  # [child_ns, span index] per open span
        self.op_index = -1
        self.seen: dict = {}  # id(value) -> (value, precisions asked) in this op
        self.approx_hits = 0
        self.max_p = 0
        self.certified = 0
        self.posrat_new = 0
        self.fuel_spent = 0
        self._restore: list = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fid: int, fn, after=None):
        calls, self_ns, stack = self.calls, self.self_ns, self.stack
        sf, sp, so, ss, se = self.span_fn, self.span_parent, self.span_op, self.span_start, self.span_end
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            parent = stack[-1][1] if stack else -1
            idx = len(sf)
            if idx < SPAN_CAP:
                sf.append(fid)
                sp.append(parent)
                so.append(tracer.op_index)
                ss.append(0)
                se.append(0)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[fid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    ss[idx] = t0
                    se[idx] = t1
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _after_approx(self, args, out):
        value, p = args
        if p > self.max_p:
            self.max_p = p
        entry = self.seen.get(id(value))
        if entry is None:
            self.seen[id(value)] = (value, {p})
        elif p in entry[1]:
            self.approx_hits += 1
        else:
            entry[1].add(p)

    def _after_compare(self, args, out):
        if not isinstance(out, self.lib.models.Overlap):
            self.certified += 1

    def _after_ratio(self, args, out):
        self.fuel_spent += out.fuel_spent

    # -- install / remove -------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "magnitudes" and not mod_name.startswith("magnitudes."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        lib = self.lib
        after = {
            "models.PosRealValue.approx": self._after_approx,
            "models.real_compare": self._after_compare,
            "ratio.ratio_compare": self._after_ratio,
        }
        for fid, name in enumerate(self.names):
            mod_name, _, fn_name = name.partition(".")
            module = getattr(lib, mod_name)
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(fid, original, after.get(name)))
                self._restore.append((cls, meth, original))
            else:
                original = getattr(module, fn_name)
                self._rebind_everywhere(original, self._wrap(fid, original, after.get(name)))
        self._count_posrat()

    def _count_posrat(self):
        PosRat = self.lib.models.PosRat
        init = PosRat.__dict__["__init__"]
        reduced = PosRat.__dict__["_reduced"]
        tracer = self

        def counting_init(obj, num, den=1):
            tracer.posrat_new += 1
            init(obj, num, den)

        def counting_reduced(cls, num, den):
            tracer.posrat_new += 1
            return reduced.__func__(cls, num, den)

        PosRat.__init__ = counting_init
        PosRat._reduced = classmethod(counting_reduced)
        self._restore += [(PosRat, "__init__", init), (PosRat, "_reduced", reduced)]

    def remove(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def begin_op(self, index: int):
        self.op_index = index
        self.seen.clear()
        self.stack.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[fid]
            out[f"{name}.self_s"] = self.self_ns[fid] / 1e9
        approx_calls = self.calls[self.names.index("models.PosRealValue.approx")]
        compare_calls = self.calls[self.names.index("models.real_compare")]
        out["models.approx.hit_frac"] = self.approx_hits / approx_calls if approx_calls else 0.0
        out["models.approx.max_p"] = self.max_p
        out["models.real_compare.certified_frac"] = self.certified / compare_calls if compare_calls else 0.0
        out["models.PosRat.new"] = self.posrat_new
        out["ratio.fuel_spent"] = self.fuel_spent
        return out

    def write(self, stem: Path, outcome_diffs: list) -> None:
        """Spans as <stem>.bin (int32 fn, parent, op; int64 start, end ns)
        and a <stem>.json index naming the functions, with the metrics and
        the ops whose outcome differed under tracing."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_fn, self.span_parent, self.span_op, self.span_start, self.span_end):
                arr.tofile(fh)
        index = {
            "functions": self.names,
            "spans": len(self.span_fn),
            "spans_dropped": self.dropped,
            "layout": ["fn:int32", "parent:int32", "op:int32", "start_ns:int64", "end_ns:int64"],
            "metrics": self.metrics(),
            "outcome_diffs": outcome_diffs,
        }
        stem.with_suffix(".json").write_text(json.dumps(index, indent=1))
