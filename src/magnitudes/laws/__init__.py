"""Executable law suite.

Every algebraic fact the package relies on is registered as a named,
seeded, shrinking property: the ordered-structure axioms, the twenty-four
classical proportion laws, the ratio-engine contracts, embedding
uniqueness, the operator laws of the endomorphism space, product/quotient
laws, and the power laws.  A passing suite is evidence, not proof; a
reproducible, shrinking counterexample is a real refutation.

This module holds the registry and the runner; each law set is a module of
this package, named after the set, that registers its laws on import.

Reports are deterministic: identical (law, model, trials, seed) reruns
produce byte-identical JSON.  Real-model laws assert interval intersection
at the run's tolerance; exact models assert equality.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Optional

from ..core import Record, Rel
from ..embed import _element_to_text
from ..errors import MagnitudeError
from ..models import Model, PosRat, PosRealValue, model_by_id, real_from_rat

__all__ = ["LawFailure", "LawSpec", "LawReport", "list_laws", "law_sets", "run_suite"]


class LawFailure(AssertionError):
    def __init__(self, observed: str, expected: str):
        super().__init__(f"observed {observed}, expected {expected}")
        self.observed = observed
        self.expected = expected


class LawSpec(Record):
    __slots__ = ("law_id", "statement", "law_set", "models", "gen", "check")

    def __init__(
        self,
        law_id: str,
        statement: str,
        law_set: str,
        models: tuple,
        gen: Callable[[Model, random.Random], dict],
        check: Callable[[Model, dict, Optional[int]], None],
    ):
        object.__setattr__(self, "law_id", law_id)
        object.__setattr__(self, "statement", statement)
        object.__setattr__(self, "law_set", law_set)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "check", check)


class LawReport(Record):
    """One law's outcome on one model; the runner appends to ``failures``."""

    __slots__ = ("law_id", "model", "trials", "seed", "tolerance", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        law_id: str,
        model: str,
        trials: int,
        seed: int,
        tolerance: Optional[int],
        failures: Optional[list] = None,
    ):
        self.law_id = law_id
        self.model = model
        self.trials = trials
        self.seed = seed
        self.tolerance = tolerance
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_json(self) -> dict:
        return {
            "lawId": self.law_id,
            "model": self.model,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": "exact" if self.tolerance is None else self.tolerance,
            "failures": self.failures,
        }


_REGISTRY: list[LawSpec] = []


def _law(law_id, statement, models, gen):
    """Register the decorated check under the set named by its module."""

    def register(fn):
        law_set = fn.__module__.rpartition(".")[2]
        _REGISTRY.append(LawSpec(law_id, statement, law_set, models, gen, fn))
        return fn

    return register


def list_laws() -> list:
    """Registry index: one entry per law with its statement and scope."""
    return [
        {
            "lawId": spec.law_id,
            "statement": spec.statement,
            "set": spec.law_set,
            "models": list(spec.models),
        }
        for spec in _REGISTRY
    ]


def law_sets() -> list:
    return sorted({spec.law_set for spec in _REGISTRY})


# ---------------------------------------------------------------------------
# assertion helpers


def _fail(observed, expected):
    raise LawFailure(str(observed), str(expected))


def _same(model: Model, got, want, tol: Optional[int]):
    if model.descriptor.exact_order:
        if not model.order(got, want).is_equal:
            _fail(got, want)
    else:
        p = 30 if tol is None else tol
        if not got.approx(p).intersects(want.approx(p)):
            _fail(f"{got!r}@{p}", f"{want!r}@{p}")


def _same_tag(got: Rel, want: Rel):
    if got is not want:
        _fail(got.value, want.value)


def _expect(condition: bool, observed, expected):
    if not condition:
        _fail(observed, expected)


# generators -----------------------------------------------------------------


def _elems(*names):
    def gen(model, rng):
        return {name: model.random_element(rng) for name in names}

    return gen


def _elems_mults(elems, mults, bound=1 << 10):
    """Elements, and multipliers uniform on 1..bound, a power of two."""
    if bound < 1 or bound & (bound - 1):
        raise ValueError(f"multiplier bound {bound} is not a power of two")
    bits = bound.bit_length() - 1

    def gen(model, rng):
        out = {name: model.random_element(rng) for name in elems}
        out.update({name: rng.getrandbits(bits) + 1 for name in mults})
        return out

    return gen


# ---------------------------------------------------------------------------
# suite runner


def _law_rng(law_id: str, model_id: str, seed: int) -> random.Random:
    material = f"{law_id}:{model_id}:{seed}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))


def _shrink_candidates(value):
    if isinstance(value, bool):
        return []
    if isinstance(value, int):
        cands = {1, value // 2, value - 1}
        return sorted(c for c in cands if 1 <= c < value)
    if isinstance(value, PosRat):
        cands = {
            PosRat(1, 1),
            PosRat(max(1, value.num // 2), value.den),
            PosRat(value.num, max(1, value.den // 2)),
            PosRat(1, value.den),
            PosRat(value.num, 1),
        }
        return sorted((c for c in cands if c != value), key=lambda q: (q.den, q.num))
    if isinstance(value, PosRealValue) and value.exact is not None:  # its rational's, as points
        return [real_from_rat(q) for q in _shrink_candidates(value.exact)]
    return []


def _shrink(spec: LawSpec, model: Model, inputs: dict, tolerance, kind: type) -> dict:
    """Greedy per-field reduction while the law keeps failing the same way.

    A candidate counts as failing only when its check raises an exception
    of exactly ``kind``, so the shrunk counterexample cannot drift to a
    different fault.
    """

    def fails(candidate: dict) -> bool:
        try:
            spec.check(model, candidate, tolerance)
            return False
        except Exception as err:
            return type(err) is kind

    budget = 200
    improved = True
    while improved and budget > 0:
        improved = False
        for key in sorted(inputs):
            for candidate in _shrink_candidates(inputs[key]):
                budget -= 1
                trial = dict(inputs)
                trial[key] = candidate
                if fails(trial):
                    inputs = trial
                    improved = True
                    break
            if improved:
                break
    return inputs


def _render_inputs(inputs: dict, model: Model) -> dict:
    """The model's elements in their text form (laws draw exact reals only),
    anything else, such as a multiplier, by ``str``."""
    return {key: _element_to_text(v, model) if model.owns(v) else str(v) for key, v in sorted(inputs.items())}


def run_suite(
    model, law_set: str, trials: int = 100, seed: int = 0, tolerance: Optional[int] = None
) -> list:
    """Run every law of a set against one model; deterministic in the seed.

    Each law draws its own reproducible generator stream.  The first failing
    trial is shrunk to a locally minimal counterexample and recorded; the
    law then stops.  A domain error (any MagnitudeError) raised by a check
    is a failure too, recorded under its type name.  Returns one LawReport
    per applicable law.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(model, str):
        model = model_by_id(model)
    if law_set not in law_sets():
        raise ValueError(f"unknown law set {law_set!r}; known: {law_sets()}")
    model_id = model.descriptor.model_id
    reports = []
    for spec in _REGISTRY:
        if spec.law_set != law_set or model_id not in spec.models:
            continue
        report = LawReport(spec.law_id, model_id, trials, seed, tolerance)
        rng = _law_rng(spec.law_id, model_id, seed)
        for _ in range(trials):
            inputs = spec.gen(model, rng)
            try:
                spec.check(model, inputs, tolerance)
            except (LawFailure, MagnitudeError) as failure:
                shrunk = _shrink(spec, model, inputs, tolerance, type(failure))
                try:
                    spec.check(model, shrunk, tolerance)
                except type(failure) as at_minimum:
                    failure = at_minimum
                if isinstance(failure, LawFailure):
                    observed, expected = failure.observed, failure.expected
                else:
                    observed, expected = f"{type(failure).__name__}: {failure}", "no domain error"
                report.failures.append(
                    {
                        "inputs": _render_inputs(shrunk, model),
                        "observed": observed,
                        "expected": expected,
                    }
                )
                break
        reports.append(report)
    return reports


def reports_to_json(reports: list) -> str:
    return json.dumps([r.as_json() for r in reports], sort_keys=True, indent=2)


# each law-set module registers its laws on import, in this order
from . import (  # noqa: E402,F401
    core_axioms,
    structure,
    euclid_v,
    ratio_engine,
    embeddings,
    hom_operators,
    product_quotient,
    power_laws,
)
