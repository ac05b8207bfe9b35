"""Executable law suite.

Every algebraic fact the package relies on is registered here as a named,
seeded, shrinking property: the ordered-structure axioms, the twenty-four
classical proportion laws, the ratio-engine contracts, embedding
uniqueness, the operator laws of the endomorphism space, product/quotient
laws, and the power laws.  A passing suite is evidence, not proof; a
reproducible, shrinking counterexample is a real refutation.

Reports are deterministic: identical (law, model, trials, seed) reruns
produce byte-identical JSON.  Real-model laws assert interval intersection
at the run's tolerance; exact models assert equality.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import core, embed, hom, power, ratio
from .core import Rel
from .errors import MagnitudeError
from .models import (
    NAT,
    REAL,
    Model,
    PosRat,
    model_by_id,
    real_from_rat,
)

__all__ = ["LawFailure", "LawSpec", "LawReport", "list_laws", "law_sets", "run_suite"]


class LawFailure(AssertionError):
    def __init__(self, observed: str, expected: str):
        super().__init__(f"observed {observed}, expected {expected}")
        self.observed = observed
        self.expected = expected


@dataclass(frozen=True)
class LawSpec:
    law_id: str
    statement: str
    law_set: str
    models: tuple
    gen: Callable[[Model, random.Random], dict]
    check: Callable[[Model, dict, Optional[int]], None]


@dataclass
class LawReport:
    law_id: str
    model: str
    trials: int
    seed: int
    tolerance: Optional[int]
    failures: list = field(default_factory=list)

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


def _law(law_id, statement, law_set, models, gen):
    def register(fn):
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
    def gen(model, rng):
        out = {name: model.random_element(rng) for name in elems}
        out.update({name: rng.randint(1, bound) for name in mults})
        return out

    return gen


def _mul(model, n, a):
    return core.multiple(n, a, model)


# ---------------------------------------------------------------------------
# core axioms


@_law(
    "core-combine-associative",
    "a + (b + c) = (a + b) + c",
    "core_axioms",
    ("nat", "rat", "real"),
    _elems("a", "b", "c"),
)
def _combine_assoc(model, v, tol):
    lhs = model.combine(v["a"], model.combine(v["b"], v["c"]))
    rhs = model.combine(model.combine(v["a"], v["b"]), v["c"])
    _same(model, lhs, rhs, tol)


@_law(
    "core-combine-commutative",
    "a + b = b + a",
    "core_axioms",
    ("nat", "rat", "real"),
    _elems("a", "b"),
)
def _combine_comm(model, v, tol):
    _same(model, model.combine(v["a"], v["b"]), model.combine(v["b"], v["a"]), tol)


@_law(
    "core-trichotomy-witness",
    "exactly one of a < b, a = b, b < a holds, and the witness rebuilds the larger side",
    "core_axioms",
    ("nat", "rat"),
    _elems("a", "b"),
)
def _trichotomy(model, v, tol):
    a, b = v["a"], v["b"]
    outcome = core.compare(a, b, model)
    if outcome.is_equal:
        _expect(outcome.gap is None, outcome, "no witness on equality")
        _same(model, a, b, tol)
    elif outcome.is_less:
        _same(model, model.combine(a, outcome.gap), b, tol)
    else:
        _same(model, model.combine(b, outcome.gap), a, tol)
    swapped = core.compare(b, a, model)
    _same_tag(swapped.tag, outcome.tag.swapped())


@_law(
    "core-translation-invariance",
    "b < c implies a + b < a + c",
    "core_axioms",
    ("nat", "rat"),
    _elems("a", "b", "c"),
)
def _translation(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    want = core.compare(b, c, model).tag
    got = core.compare(model.combine(a, b), model.combine(a, c), model).tag
    _same_tag(got, want)


@_law(
    "core-cancellation",
    "a + b relates to a + c exactly as b relates to c",
    "core_axioms",
    ("nat", "rat"),
    _elems("a", "b", "c"),
)
def _cancellation(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    lhs = core.compare(model.combine(b, a), model.combine(c, a), model).tag
    _same_tag(lhs, core.compare(b, c, model).tag)
    if lhs is Rel.EQUAL:
        _same(model, b, c, tol)


@_law(
    "core-difference-decomposition",
    "for a < b < c: c - a = (c - b) + (b - a)",
    "core_axioms",
    ("nat", "rat"),
    _elems("a", "d1", "d2"),
)
def _difference_decomposition(model, v, tol):
    a = v["a"]
    b = model.combine(a, v["d1"])
    c = model.combine(b, v["d2"])
    lhs = core.subtract(c, a, model)
    rhs = model.combine(core.subtract(c, b, model), core.subtract(b, a, model))
    _same(model, lhs, rhs, tol)


# ---------------------------------------------------------------------------
# structural laws (models, multiples, searches)


@_law(
    "subtract-recombines",
    "a + (b - a) = b and b - a < b, for a < b",
    "structure",
    ("nat", "rat"),
    _elems("a", "d"),
)
def _subtract_recombines(model, v, tol):
    a = v["a"]
    b = model.combine(a, v["d"])
    d = core.subtract(b, a, model)
    _same(model, model.combine(a, d), b, tol)
    _expect(core.compare(d, b, model).is_less, f"{d} vs {b}", "difference below minuend")


@_law(
    "multiple-vs-naive",
    "doubling and repeated addition agree on n-fold sums",
    "structure",
    ("nat", "rat"),
    _elems_mults(("a",), ("n",)),
)
def _multiple_vs_naive(model, v, tol):
    fast = core.multiple(v["n"], v["a"], model)
    slow = core.multiple_naive(v["n"], v["a"], model)
    _same(model, fast, slow, tol)


@_law(
    "least-exceeding-multiple",
    "the multiple search returns the least n with n*a > b",
    "structure",
    ("nat", "rat"),
    _elems("a", "b"),
)
def _least_exceeding(model, v, tol):
    a, b = v["a"], v["b"]
    n = core.find_multiple_exceeding(a, b, model)
    _expect(core.compare(_mul(model, n, a), b, model).is_greater, n, "exceeding multiple")
    if n > 1:
        prev = core.compare(_mul(model, n - 1, a), b, model)
        _expect(not prev.is_greater, n - 1, "no smaller multiple exceeds")


@_law(
    "ratio-existence",
    "every pair has multiples exceeding each other (Archimedean closure)",
    "structure",
    ("nat", "rat", "real"),
    _elems("a", "b"),
)
def _ratio_existence(model, v, tol):
    m, n = ratio.have_ratio_witness(v["a"], v["b"])
    _expect(m >= 1 and n >= 1, (m, n), "positive witnesses")
    if model.descriptor.exact_order:
        _expect(
            core.compare(_mul(model, m, v["a"]), v["b"], model).is_greater,
            m,
            "m*a > b",
        )
        _expect(
            core.compare(_mul(model, n, v["b"]), v["a"], model).is_greater,
            n,
            "n*b > a",
        )


@_law(
    "discrete-gap",
    "nothing lies strictly between b and b + smallest",
    "structure",
    ("nat",),
    _elems("b", "c"),
)
def _discrete_gap(model, v, tol):
    b, c = v["b"], v["c"]
    top = model.combine(b, model.descriptor.smallest)
    above_b = core.compare(c, b, model).is_greater
    below_top = core.compare(c, top, model).is_less
    _expect(not (above_b and below_top), c, f"no element in ({b}, {top})")


@_law(
    "shrink-below",
    "nondiscrete models shrink below any element: n * shrink(a, n) < a",
    "structure",
    ("rat",),
    _elems_mults(("a",), ("n",), bound=64),
)
def _shrink_below(model, v, tol):
    small = core.shrink_below(v["a"], v["n"], model)
    _expect(
        core.compare(_mul(model, v["n"], small), v["a"], model).is_less,
        small,
        f"n copies below {v['a']}",
    )


@_law(
    "descriptor-flags",
    "model descriptors state the truth about discreteness, symmetry, exactness",
    "structure",
    ("nat", "rat", "real"),
    _elems("a"),
)
def _descriptor_flags(model, v, tol):
    d = model.descriptor
    _expect(d.discrete == (d.smallest is not None), d, "discrete iff smallest")
    if d.model_id == "nat":
        _expect(d.discrete and not d.symmetric and d.exact_order, d, "nat flags")
    if d.model_id == "rat":
        _expect(d.symmetric and not d.discrete and d.exact_order, d, "rat flags")
    if d.model_id == "real":
        _expect(d.continuous_at_oracle and not d.exact_order, d, "real flags")


@_law(
    "approx-idempotent",
    "repeated refinement queries return the identical interval",
    "structure",
    ("real",),
    _elems("a"),
)
def _approx_idempotent(model, v, tol):
    p = 20 if tol is None else tol
    first = v["a"].approx(p)
    again = v["a"].approx(p)
    _expect(first == again and first.width_at_most(p), first, "memoized interval")


@_law(
    "rational-embedding-additive",
    "promoting rationals to reals commutes with addition",
    "structure",
    ("rat",),
    _elems("a", "b"),
)
def _real_from_rat_additive(model, v, tol):
    lhs = real_from_rat(v["a"] + v["b"])
    rhs = REAL.combine(real_from_rat(v["a"]), real_from_rat(v["b"]))
    _same(REAL, lhs, rhs, tol)


@_law(
    "certificate-stability",
    "a certified real comparison is never contradicted at higher precision",
    "structure",
    ("rat",),
    _elems("a", "b"),
)
def _certificate_stability(model, v, tol):
    from .models import Overlap, real_compare

    x, y = real_from_rat(v["a"]), real_from_rat(v["b"])
    first = None
    for p in (4, 8, 16, 32):
        out = real_compare(x, y, p)
        if isinstance(out, Overlap):
            continue
        if first is None:
            first = out
        else:
            _same_tag(out, first)


# ---------------------------------------------------------------------------
# the classical proportion laws


def _scaled_pair(model, a, b, k):
    return _mul(model, k, a), _mul(model, k, b)


@_law(
    "V.1-multiple-of-sum",
    "n(a + b) = na + nb",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("n",)),
)
def _v1(model, v, tol):
    lhs = _mul(model, v["n"], model.combine(v["a"], v["b"]))
    rhs = model.combine(_mul(model, v["n"], v["a"]), _mul(model, v["n"], v["b"]))
    _same(model, lhs, rhs, tol)


@_law(
    "V.2-sum-of-multipliers",
    "(m + n)a = ma + na",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a",), ("m", "n")),
)
def _v2(model, v, tol):
    lhs = _mul(model, v["m"] + v["n"], v["a"])
    rhs = model.combine(_mul(model, v["m"], v["a"]), _mul(model, v["n"], v["a"]))
    _same(model, lhs, rhs, tol)


@_law(
    "V.3-multiple-of-multiple",
    "(mn)a = m(na)",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a",), ("m", "n")),
)
def _v3(model, v, tol):
    _same(
        model,
        _mul(model, v["m"] * v["n"], v["a"]),
        _mul(model, v["m"], _mul(model, v["n"], v["a"])),
        tol,
    )


@_law(
    "V.4-scaled-proportionals",
    "a:b = a':b' implies ja:kb = ja':kb'",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("f", "j", "k"), bound=256),
)
def _v4(model, v, tol):
    a, b = v["a"], v["b"]
    a2, b2 = _scaled_pair(model, a, b, v["f"])
    verdict = ratio.ratio_compare(
        _mul(model, v["j"], a),
        _mul(model, v["k"], b),
        _mul(model, v["j"], a2),
        _mul(model, v["k"], b2),
    )
    _expect(verdict.is_equal, verdict.kind, "equal")


@_law(
    "V.5-multiples-preserve-element-order",
    "na relates to nb as a relates to b; on strict order na - nb = n(a - b)",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("n",)),
)
def _v5(model, v, tol):
    a, b, n = v["a"], v["b"], v["n"]
    na, nb = _mul(model, n, a), _mul(model, n, b)
    _same_tag(core.compare(na, nb, model).tag, core.compare(a, b, model).tag)
    if core.compare(a, b, model).is_greater:
        diff = core.subtract(na, nb, model)
        _same(model, diff, _mul(model, n, core.subtract(a, b, model)), tol)


@_law(
    "V.6-multiples-preserve-multiplier-order",
    "ma relates to na as m relates to n; on strict order ma - na = (m - n)a",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a",), ("m", "n")),
)
def _v6(model, v, tol):
    a, m, n = v["a"], v["m"], v["n"]
    ma, na = _mul(model, m, a), _mul(model, n, a)
    want = Rel.EQUAL if m == n else (Rel.GREATER if m > n else Rel.LESS)
    _same_tag(core.compare(ma, na, model).tag, want)
    if m > n:
        _same(model, core.subtract(ma, na, model), _mul(model, m - n, a), tol)


@_law(
    "V.7-equals-have-equal-ratios",
    "a = b implies a:c = b:c and c:a = c:b",
    "euclid_v",
    ("nat", "rat"),
    _elems("a", "c"),
)
def _v7(model, v, tol):
    a, c = v["a"], v["c"]
    _expect(ratio.ratio_compare(a, c, a, c).is_equal, "strict", "equal")
    _expect(ratio.ratio_compare(c, a, c, a).is_equal, "strict", "equal")


@_law(
    "V.8-greater-has-greater-ratio",
    "a > b implies a:c > b:c and c:b > c:a",
    "euclid_v",
    ("nat", "rat"),
    _elems("b", "d", "c"),
)
def _v8(model, v, tol):
    b, c = v["b"], v["c"]
    a = model.combine(b, v["d"])
    first = ratio.ratio_compare(a, c, b, c)
    _expect(first.is_greater, first.kind, "greater")
    _expect(
        ratio.verify_witness(first.witness, a, c, b, c),
        first.witness,
        "verified witness",
    )
    second = ratio.ratio_compare(c, b, c, a)
    _expect(second.is_greater, second.kind, "greater")


@_law(
    "V.9-equal-ratios-cancel",
    "a:c = b:c exactly when a = b",
    "euclid_v",
    ("nat", "rat"),
    _elems("a", "b", "c"),
)
def _v9(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    verdict = ratio.ratio_compare(a, c, b, c)
    _expect(
        verdict.is_equal == core.compare(a, b, model).is_equal,
        verdict.kind,
        "equal ratios iff equal elements",
    )


@_law(
    "V.10-ratio-order-reflects-element-order",
    "a:c > b:c implies a > b; c:a > c:b implies b > a",
    "euclid_v",
    ("nat", "rat"),
    _elems("a", "b", "c"),
)
def _v10(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    _same_tag(ratio.ratio_compare(a, c, b, c).kind_tag(), core.compare(a, b, model).tag)
    _same_tag(ratio.ratio_compare(c, a, c, b).kind_tag(), core.compare(b, a, model).tag)


@_law(
    "V.11-same-ratio-transitive",
    "ratios equal to the same ratio are equal to each other",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("j", "k"), bound=256),
)
def _v11(model, v, tol):
    a, b = v["a"], v["b"]
    a2, b2 = _scaled_pair(model, a, b, v["j"])
    a3, b3 = _scaled_pair(model, a, b, v["k"])
    _expect(ratio.ratio_compare(a2, b2, a3, b3).is_equal, "strict", "equal")


@_law(
    "V.12-sum-of-proportionals",
    "a:b = c:d implies a:b = (a + c):(b + d)",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("f",), bound=256),
)
def _v12(model, v, tol):
    a, b = v["a"], v["b"]
    c, d = _scaled_pair(model, a, b, v["f"])
    verdict = ratio.ratio_compare(a, b, model.combine(a, c), model.combine(b, d))
    _expect(verdict.is_equal, verdict.kind, "equal")


@_law(
    "V.13-equality-respects-strict-order",
    "a:b = a':b' and a':b' > a'':b'' imply a:b > a'':b''",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c", "d"), ("f",), bound=256),
)
def _v13(model, v, tol):
    a, b = v["a"], v["b"]
    a2, b2 = _scaled_pair(model, a, b, v["f"])
    reference = ratio.ratio_compare(a2, b2, v["c"], v["d"])
    chained = ratio.ratio_compare(a, b, v["c"], v["d"])
    _expect(chained.kind == reference.kind, chained.kind, reference.kind)


@_law(
    "V.14-proportion-crosses-order",
    "a:b = c:d implies a relates to c as b relates to d",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("f",), bound=256),
)
def _v14(model, v, tol):
    a, b = v["a"], v["b"]
    c, d = _scaled_pair(model, a, b, v["f"])
    _same_tag(core.compare(a, c, model).tag, core.compare(b, d, model).tag)


@_law(
    "V.15-common-scaling",
    "a:b = ka:kb",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("k",)),
)
def _v15(model, v, tol):
    ka, kb = _scaled_pair(model, v["a"], v["b"], v["k"])
    _expect(ratio.ratio_compare(v["a"], v["b"], ka, kb).is_equal, "strict", "equal")


@_law(
    "V.16-alternation",
    "a:b = c:d implies a:c = b:d (all four in one space)",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("f",), bound=256),
)
def _v16(model, v, tol):
    a, b = v["a"], v["b"]
    c, d = _scaled_pair(model, a, b, v["f"])
    _expect(ratio.ratio_compare(a, c, b, d).is_equal, "strict", "equal")


@_law(
    "V.17-separation",
    "(a + b):b = (a' + b'):b' implies a:b = a':b'",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("k",), bound=256),
)
def _v17(model, v, tol):
    a, b = v["a"], v["b"]
    whole = model.combine(a, b)
    whole2, b2 = _scaled_pair(model, whole, b, v["k"])
    part = core.subtract(whole, b, model)
    part2 = core.subtract(whole2, b2, model)
    _expect(ratio.ratio_compare(part, b, a, b).is_equal, "strict", "separated part keeps ratio")
    _expect(ratio.ratio_compare(part, b, part2, b2).is_equal, "strict", "equal")


@_law(
    "V.18-composition",
    "a:b = a':b' implies (a + b):b = (a' + b'):b'",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("k",), bound=256),
)
def _v18(model, v, tol):
    a, b = v["a"], v["b"]
    a2, b2 = _scaled_pair(model, a, b, v["k"])
    verdict = ratio.ratio_compare(
        model.combine(a, b), b, model.combine(a2, b2), b2
    )
    _expect(verdict.is_equal, verdict.kind, "equal")


@_law(
    "V.19-remainder-proportion",
    "(a + b):(c + d) = a:c implies b:d = a:c",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "c"), ("f",), bound=256),
)
def _v19(model, v, tol):
    a, c = v["a"], v["c"]
    b, d = _scaled_pair(model, a, c, v["f"])
    whole_check = ratio.ratio_compare(
        model.combine(a, b), model.combine(c, d), a, c
    )
    _expect(whole_check.is_equal, whole_check.kind, "construction proportional")
    _expect(ratio.ratio_compare(b, d, a, c).is_equal, "strict", "equal")


@_law(
    "V.20-ex-aequali-order",
    "from a:b = a':b' and b:c = b':c', a relates to c as a' relates to c'",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c"), ("f",), bound=256),
)
def _v20(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    a2, b2 = _scaled_pair(model, a, b, v["f"])
    c2 = _mul(model, v["f"], c)
    _same_tag(core.compare(a, c, model).tag, core.compare(a2, c2, model).tag)


def _perturbed_chain(model, a, b, c, k):
    """Primed triple satisfying a:b = b':c' and b:c = a':b'.

    Take a' = k*ab, b' = k*ac, c' = k*bc; products keep the construction
    inside either exact model.
    """
    ab = hom.product(a, b)
    ac = hom.product(a, c)
    bc = hom.product(b, c)
    return _mul(model, k, ab), _mul(model, k, ac), _mul(model, k, bc)


@_law(
    "V.21-perturbed-order",
    "from a:b = b':c' and b:c = a':b', a relates to c as a' relates to c'",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c"), ("k",), bound=64),
)
def _v21(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    a2, b2, c2 = _perturbed_chain(model, a, b, c, v["k"])
    _expect(ratio.ratio_compare(a, b, b2, c2).is_equal, "strict", "hypothesis 1 holds")
    _expect(ratio.ratio_compare(b, c, a2, b2).is_equal, "strict", "hypothesis 2 holds")
    _same_tag(core.compare(a, c, model).tag, core.compare(a2, c2, model).tag)


@_law(
    "V.22-ex-aequali",
    "a:b = a':b' and b:c = b':c' imply a:c = a':c'",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c"), ("f",), bound=256),
)
def _v22(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    a2, b2, c2 = (_mul(model, v["f"], x) for x in (a, b, c))
    _expect(ratio.ratio_compare(a, c, a2, c2).is_equal, "strict", "equal")


@_law(
    "V.23-perturbed-ex-aequali",
    "a:b = b':c' and b:c = a':b' imply a:c = a':c'",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c"), ("k",), bound=64),
)
def _v23(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    a2, b2, c2 = _perturbed_chain(model, a, b, c, v["k"])
    _expect(ratio.ratio_compare(a, c, a2, c2).is_equal, "strict", "equal")


@_law(
    "V.24-sum-of-same-ratio",
    "a:b = c:d and e:b = f:d imply (a + e):b = (c + f):d",
    "euclid_v",
    ("nat", "rat"),
    _elems_mults(("a", "e", "b"), ("k",), bound=256),
)
def _v24(model, v, tol):
    a, e, b = v["a"], v["e"], v["b"]
    k = v["k"]
    c, d = _scaled_pair(model, a, b, k)
    f = _mul(model, k, e)
    verdict = ratio.ratio_compare(
        model.combine(a, e), b, model.combine(c, f), d
    )
    _expect(verdict.is_equal, verdict.kind, "equal")


# ---------------------------------------------------------------------------
# ratio engine contracts


@_law(
    "engine-matches-exact-oracle",
    "the comparison engine agrees with cross-multiplication on exact ratios",
    "ratio_engine",
    ("nat", "rat"),
    _elems("a", "b", "c", "d"),
)
def _engine_vs_oracle(model, v, tol):
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    got = ratio.ratio_compare(a, b, c, d)
    _expect(not got.is_unknown, got.kind, "decided on exact models")
    v1 = ratio.ratio_value_exact(ratio.make_ratio(a, b))
    v2 = ratio.ratio_value_exact(ratio.make_ratio(c, d))
    want = Rel.EQUAL if v1 == v2 else (Rel.GREATER if v1 > v2 else Rel.LESS)
    _same_tag(got.kind_tag(), want)


@_law(
    "engine-witness-soundness",
    "every strict verdict carries a witness that verifies",
    "ratio_engine",
    ("nat", "rat"),
    _elems("a", "b", "c", "d"),
)
def _witness_soundness(model, v, tol):
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    got = ratio.ratio_compare(a, b, c, d)
    if got.is_greater:
        _expect(ratio.verify_witness(got.witness, a, b, c, d), got.witness, "verifies")
    elif got.is_less:
        _expect(ratio.verify_witness(got.witness, c, d, a, b), got.witness, "verifies")


@_law(
    "engine-rejects-bogus-witness",
    "no multiplier pair separates a ratio from itself",
    "ratio_engine",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("m", "n"), bound=512),
)
def _rejects_bogus(model, v, tol):
    w = ratio.Witness(v["m"], v["n"])
    _expect(
        not ratio.verify_witness(w, v["a"], v["b"], v["a"], v["b"]),
        w,
        "self-separation refused",
    )


@_law(
    "engine-antisymmetry",
    "swapping the ratio pairs swaps greater and less, keeping the witness",
    "ratio_engine",
    ("nat", "rat"),
    _elems("a", "b", "c", "d"),
)
def _antisymmetry(model, v, tol):
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    fwd = ratio.ratio_compare(a, b, c, d)
    rev = ratio.ratio_compare(c, d, a, b)
    swap = {"greater": "less", "less": "greater", "equal": "equal"}
    _expect(rev.kind == swap[fwd.kind], rev.kind, swap[fwd.kind])
    if fwd.witness is not None:
        _expect(rev.witness == fwd.witness, rev.witness, fwd.witness)


@_law(
    "engine-strict-transitive",
    "greater-than composes: a:b > c:d and c:d > e:f imply a:b > e:f",
    "ratio_engine",
    ("nat", "rat"),
    _elems("a", "b", "c", "d", "e", "f"),
)
def _strict_transitive(model, v, tol):
    first = ratio.ratio_compare(v["a"], v["b"], v["c"], v["d"])
    second = ratio.ratio_compare(v["c"], v["d"], v["e"], v["f"])
    if first.is_greater and second.is_greater:
        third = ratio.ratio_compare(v["a"], v["b"], v["e"], v["f"])
        _expect(third.is_greater, third.kind, "greater")


@_law(
    "embedded-ratio-never-strict",
    "promoting a rational pair to reals never changes its ratio detectably",
    "ratio_engine",
    ("rat",),
    _elems("a", "b"),
)
def _embedded_never_strict(model, v, tol):
    out = ratio.ratio_compare(
        v["a"], v["b"], real_from_rat(v["a"]), real_from_rat(v["b"]), fuel=16
    )
    _expect(out.kind in ("equal", "unknown"), out.kind, "equal or unknown")


@_law(
    "proportionality-under-embedding",
    "an embedding sends a:b to (phi a):(phi b) with the same ratio",
    "ratio_engine",
    ("rat",),
    _elems_mults(("a", "b"), ("k",), bound=256),
)
def _proportionality(model, v, tol):
    phi = embed.nat_embedding(v["a"])  # naturals into rationals, 1 -> a
    img_m = embed.evaluate(phi, v["k"])
    img_n = embed.evaluate(phi, v["k"] + 1)
    verdict = ratio.ratio_compare(v["k"], v["k"] + 1, img_m, img_n)
    _expect(verdict.is_equal, verdict.kind, "equal")


# ---------------------------------------------------------------------------
# embedding laws


def _gen_unit_embedding(model, rng):
    return {"image": model.random_element(rng), "n": rng.randint(1, 1 << 10)}


@_law(
    "embedding-fast-matches-naive",
    "evaluating n -> n*image by doubling equals the literal recursion",
    "embeddings",
    ("nat", "rat"),
    _gen_unit_embedding,
)
def _embed_fast_naive(model, v, tol):
    phi = embed.nat_embedding(v["image"])
    _same(model, embed.evaluate(phi, v["n"]), embed.evaluate_naive(phi, v["n"]), tol)


@_law(
    "embedding-additive",
    "phi(b + c) = phi(b) + phi(c) for constructed embeddings",
    "embeddings",
    ("rat",),
    _elems("image", "b", "c"),
)
def _embed_additive(model, v, tol):
    phi = embed.anchor_embedding(PosRat(1, 1), v["image"])
    lhs = embed.evaluate(phi, model.combine(v["b"], v["c"]))
    rhs = model.combine(embed.evaluate(phi, v["b"]), embed.evaluate(phi, v["c"]))
    _same(model, lhs, rhs, tol)


@_law(
    "embedding-multiple-commutes",
    "phi(n*a) = n*phi(a)",
    "embeddings",
    ("nat", "rat"),
    _elems_mults(("image", "a"), ("n",), bound=256),
)
def _embed_multiple_commutes(model, v, tol):
    if model is NAT:
        phi = embed.nat_embedding(v["image"])
        lhs = embed.evaluate(phi, core.multiple(v["n"], v["a"], model))
        rhs = core.multiple(v["n"], embed.evaluate(phi, v["a"]), model)
    else:
        phi = embed.anchor_embedding(PosRat(1, 1), v["image"])
        lhs = embed.evaluate(phi, _mul(model, v["n"], v["a"]))
        rhs = _mul(model, v["n"], embed.evaluate(phi, v["a"]))
    _same(model, lhs, rhs, tol)


@_law(
    "embedding-unique-at-anchor",
    "the unit-multiple map and the anchored map with the same unit image agree",
    "embeddings",
    ("rat",),
    _elems_mults(("image",), ("p1", "p2", "p3"), bound=512),
)
def _embed_unique(model, v, tol):
    phi = embed.nat_embedding(v["image"])
    chi = embed.anchor_embedding(1, v["image"])
    for probe in (v["p1"], v["p2"], v["p3"]):
        got = embed.embeddings_compare(phi, chi, probe)
        _same_tag(got, Rel.EQUAL)


@_law(
    "embedding-probe-independent",
    "comparing two embeddings gives one answer at every probe",
    "embeddings",
    ("rat",),
    _elems_mults(("im1", "im2"), ("p1", "p2", "p3"), bound=512),
)
def _probe_independent(model, v, tol):
    phi = embed.nat_embedding(v["im1"])
    chi = embed.nat_embedding(v["im2"])
    tags = {
        embed.embeddings_compare(phi, chi, probe)
        for probe in (v["p1"], v["p2"], v["p3"])
    }
    _expect(len(tags) == 1, tags, "one tag across probes")


@_law(
    "fourth-proportional-unique",
    "independent constructions of the fourth proportional intersect",
    "embeddings",
    ("rat",),
    _elems("a", "b", "c"),
)
def _fourth_unique(model, v, tol):
    p = 30 if tol is None else tol
    first = embed.fourth_proportional(v["a"], v["b"], real_from_rat(v["c"]), p)
    second = embed.fourth_proportional(v["a"], v["b"], real_from_rat(v["c"]), p + 5)
    _expect(
        first.approx(p).intersects(second.approx(p + 5)),
        first.approx(p),
        second.approx(p + 5),
    )
    expected = v["c"] * (v["b"] / v["a"])
    _expect(first.approx(p).contains(expected), first.approx(p), expected)


# ---------------------------------------------------------------------------
# hom-space operator laws (probe-evaluated, exact on rationals)


@_law(
    "hom-add-associative",
    "(phi + chi) + psi = phi + (chi + psi) at probes",
    "hom_operators",
    ("rat",),
    _elems("x", "y", "z", "probe"),
)
def _hom_add_assoc(model, v, tol):
    a, b, c = hom.psi(model, v["x"]), hom.psi(model, v["y"]), hom.psi(model, v["z"])
    lhs = hom.hom_add(hom.hom_add(a, b), c)
    rhs = hom.hom_add(a, hom.hom_add(b, c))
    _same(model, lhs(v["probe"]), rhs(v["probe"]), tol)


@_law(
    "hom-add-commutative",
    "phi + chi = chi + phi at probes",
    "hom_operators",
    ("rat",),
    _elems("x", "y", "probe"),
)
def _hom_add_comm(model, v, tol):
    a, b = hom.psi(model, v["x"]), hom.psi(model, v["y"])
    _same(model, hom.hom_add(a, b)(v["probe"]), hom.hom_add(b, a)(v["probe"]), tol)


@_law(
    "hom-trichotomy-delta",
    "hom comparison is trichotomous and its delta rebuilds the larger map",
    "hom_operators",
    ("rat",),
    _elems("x", "y", "probe"),
)
def _hom_trichotomy(model, v, tol):
    a, b = hom.psi(model, v["x"]), hom.psi(model, v["y"])
    outcome = hom.hom_compare(a, b)
    if outcome.is_equal:
        _same(model, a(v["probe"]), b(v["probe"]), tol)
        return
    smaller, larger = (a, b) if outcome.is_less else (b, a)
    rebuilt = hom.hom_add(smaller, outcome.gap)
    _same(model, rebuilt(v["probe"]), larger(v["probe"]), tol)


@_law(
    "endo-compose-commutative",
    "composition of endomorphisms commutes",
    "hom_operators",
    ("rat",),
    _elems("x", "y", "probe"),
)
def _endo_commute(model, v, tol):
    a, b = hom.psi(model, v["x"]), hom.psi(model, v["y"])
    _same(
        model,
        hom.hom_compose(a, b)(v["probe"]),
        hom.hom_compose(b, a)(v["probe"]),
        tol,
    )


@_law(
    "endo-compose-associative",
    "composition of endomorphisms is associative",
    "hom_operators",
    ("rat",),
    _elems("x", "y", "z", "probe"),
)
def _endo_assoc(model, v, tol):
    a, b, c = hom.psi(model, v["x"]), hom.psi(model, v["y"]), hom.psi(model, v["z"])
    lhs = hom.hom_compose(hom.hom_compose(a, b), c)
    rhs = hom.hom_compose(a, hom.hom_compose(b, c))
    _same(model, lhs(v["probe"]), rhs(v["probe"]), tol)


@_law(
    "endo-distributes-left",
    "phi o (chi + psi) = phi o chi + phi o psi",
    "hom_operators",
    ("rat",),
    _elems("x", "y", "z", "probe"),
)
def _endo_dist_left(model, v, tol):
    a, b, c = hom.psi(model, v["x"]), hom.psi(model, v["y"]), hom.psi(model, v["z"])
    lhs = hom.hom_compose(a, hom.hom_add(b, c))
    rhs = hom.hom_add(hom.hom_compose(a, b), hom.hom_compose(a, c))
    _same(model, lhs(v["probe"]), rhs(v["probe"]), tol)


@_law(
    "endo-distributes-right",
    "(phi + chi) o psi = phi o psi + chi o psi",
    "hom_operators",
    ("rat",),
    _elems("x", "y", "z", "probe"),
)
def _endo_dist_right(model, v, tol):
    a, b, c = hom.psi(model, v["x"]), hom.psi(model, v["y"]), hom.psi(model, v["z"])
    lhs = hom.hom_compose(hom.hom_add(a, b), c)
    rhs = hom.hom_add(hom.hom_compose(a, c), hom.hom_compose(b, c))
    _same(model, lhs(v["probe"]), rhs(v["probe"]), tol)


@_law(
    "endo-identity",
    "the identity endomorphism is neutral for composition",
    "hom_operators",
    ("rat",),
    _elems("x", "probe"),
)
def _endo_identity(model, v, tol):
    a = hom.psi(model, v["x"])
    i = hom.identity_endo(model)
    _same(model, hom.hom_compose(a, i)(v["probe"]), a(v["probe"]), tol)
    _same(model, hom.hom_compose(i, a)(v["probe"]), a(v["probe"]), tol)


@_law(
    "endo-compose-preserves-order",
    "composing with a fixed endomorphism preserves order on either side",
    "hom_operators",
    ("rat",),
    _elems("x", "y", "z"),
)
def _endo_order(model, v, tol):
    a, b, c = hom.psi(model, v["x"]), hom.psi(model, v["y"]), hom.psi(model, v["z"])
    base = hom.hom_compare(b, c).tag
    _same_tag(hom.hom_compare(hom.hom_compose(a, b), hom.hom_compose(a, c)).tag, base)
    _same_tag(hom.hom_compare(hom.hom_compose(b, a), hom.hom_compose(c, a)).tag, base)


@_law(
    "psi-additive",
    "the unit-anchored correspondence turns sums into sums of maps",
    "hom_operators",
    ("rat",),
    _elems("x", "y"),
)
def _psi_additive(model, v, tol):
    lhs = hom.psi(model, model.combine(v["x"], v["y"]))
    rhs = hom.hom_add(hom.psi(model, v["x"]), hom.psi(model, v["y"]))
    _expect(hom.hom_compare(lhs, rhs).is_equal, "strict", "equal")


@_law(
    "psi-turns-product-into-composition",
    "the map for a*b is the composition of the maps for a and b",
    "hom_operators",
    ("rat",),
    _elems("x", "y"),
)
def _psi_compose(model, v, tol):
    lhs = hom.psi(model, hom.product(v["x"], v["y"]))
    rhs = hom.hom_compose(hom.psi(model, v["x"]), hom.psi(model, v["y"]))
    _expect(hom.hom_compare(lhs, rhs).is_equal, "strict", "equal")


@_law(
    "psi-unit-is-identity",
    "the map for the unit is the identity",
    "hom_operators",
    ("rat",),
    _elems("probe"),
)
def _psi_unit(model, v, tol):
    unit_map = hom.psi(model, model.descriptor.unit)
    _expect(hom.hom_compare(unit_map, hom.identity_endo(model)).is_equal, "strict", "equal")


@_law(
    "psi-onto",
    "every endomorphism is the map of its own value at the unit",
    "hom_operators",
    ("rat",),
    _elems("x"),
)
def _psi_onto(model, v, tol):
    chi = hom.psi(model, v["x"])
    rebuilt = hom.psi(model, chi(model.descriptor.unit))
    _expect(hom.hom_compare(chi, rebuilt).is_equal, "strict", "equal")


# ---------------------------------------------------------------------------
# product and quotient laws


@_law(
    "product-commutative",
    "a * b = b * a",
    "product_quotient",
    ("nat", "rat", "real"),
    _elems("a", "b"),
)
def _prod_comm(model, v, tol):
    _same(model, hom.product(v["a"], v["b"]), hom.product(v["b"], v["a"]), tol)


@_law(
    "product-associative",
    "(a * b) * c = a * (b * c)",
    "product_quotient",
    ("nat", "rat", "real"),
    _elems("a", "b", "c"),
)
def _prod_assoc(model, v, tol):
    lhs = hom.product(hom.product(v["a"], v["b"]), v["c"])
    rhs = hom.product(v["a"], hom.product(v["b"], v["c"]))
    _same(model, lhs, rhs, tol)


@_law(
    "product-distributes-left",
    "a * (b + c) = a*b + a*c",
    "product_quotient",
    ("nat", "rat", "real"),
    _elems("a", "b", "c"),
)
def _prod_dist_left(model, v, tol):
    lhs = hom.product(v["a"], model.combine(v["b"], v["c"]))
    rhs = model.combine(hom.product(v["a"], v["b"]), hom.product(v["a"], v["c"]))
    _same(model, lhs, rhs, tol)


@_law(
    "product-distributes-right",
    "(a + b) * c = a*c + b*c",
    "product_quotient",
    ("nat", "rat", "real"),
    _elems("a", "b", "c"),
)
def _prod_dist_right(model, v, tol):
    lhs = hom.product(model.combine(v["a"], v["b"]), v["c"])
    rhs = model.combine(hom.product(v["a"], v["c"]), hom.product(v["b"], v["c"]))
    _same(model, lhs, rhs, tol)


@_law(
    "product-unit",
    "1 * a = a",
    "product_quotient",
    ("nat", "rat"),
    _elems("a"),
)
def _prod_unit(model, v, tol):
    _same(model, hom.product(model.descriptor.unit, v["a"]), v["a"], tol)
    _same(model, hom.product(v["a"], model.descriptor.unit), v["a"], tol)


@_law(
    "product-preserves-order",
    "multiplying by a fixed element preserves order in each argument",
    "product_quotient",
    ("nat", "rat"),
    _elems("a", "b", "c"),
)
def _prod_order(model, v, tol):
    base = core.compare(v["b"], v["c"], model).tag
    _same_tag(
        core.compare(
            hom.product(v["a"], v["b"]), hom.product(v["a"], v["c"]), model
        ).tag,
        base,
    )
    _same_tag(
        core.compare(
            hom.product(v["b"], v["a"]), hom.product(v["c"], v["a"]), model
        ).tag,
        base,
    )


@_law(
    "product-matches-fraction-arithmetic",
    "the rational product coincides with ordinary fraction multiplication",
    "product_quotient",
    ("rat",),
    _elems("a", "b"),
)
def _prod_fractions(model, v, tol):
    _same(model, hom.product(v["a"], v["b"]), v["a"] * v["b"], tol)


@_law(
    "quotient-roundtrip",
    "(b / a) * a = b",
    "product_quotient",
    ("rat", "real"),
    _elems("a", "b"),
)
def _quot_roundtrip(model, v, tol):
    d = hom.quotient(v["b"], v["a"])
    _same(model, hom.product(d, v["a"]), v["b"], tol)


@_law(
    "quotient-matches-fraction-arithmetic",
    "the rational quotient coincides with ordinary fraction division",
    "product_quotient",
    ("rat",),
    _elems("a", "b"),
)
def _quot_fractions(model, v, tol):
    _same(model, hom.quotient(v["b"], v["a"]), v["b"] / v["a"], tol)


@_law(
    "quotient-order",
    "b relates to a as b/a relates to the unit",
    "product_quotient",
    ("rat",),
    _elems("a", "b"),
)
def _quot_order(model, v, tol):
    want = core.compare(v["b"], v["a"], model).tag
    got = core.compare(hom.quotient(v["b"], v["a"]), model.descriptor.unit, model).tag
    _same_tag(got, want)


# ---------------------------------------------------------------------------
# power laws (multiplicative magnitude space)


def _gen_mul(model, rng):
    # bases above one; exponents with modest denominators
    base = PosRat(rng.randint(2, 64), 1) + PosRat(rng.randint(1, 64), 64)
    other = PosRat(rng.randint(2, 64), 1) + PosRat(rng.randint(1, 64), 64)
    y = PosRat(rng.randint(1, 8), rng.randint(1, 8))
    y2 = PosRat(rng.randint(1, 8), rng.randint(1, 8))
    n = rng.randint(1, 10)
    return {"x1": base, "x2": other, "y": y, "y2": y2, "n": n}


def _as_mul(q: PosRat) -> power.MulReal:
    return power.into_mul(real_from_rat(q))


@_law(
    "mul-order-agrees-with-additive",
    "multiplicative comparison certifies the same order as the additive one",
    "power_laws",
    ("real",),
    _gen_mul,
)
def _mul_order(model, v, tol):
    x, y = _as_mul(v["x1"]), _as_mul(v["x2"])
    got = power.mul_compare(x, y)
    want = (
        Rel.EQUAL
        if v["x1"] == v["x2"]
        else (Rel.GREATER if v["x1"] > v["x2"] else Rel.LESS)
    )
    if want is Rel.EQUAL:
        _expect(not isinstance(got, Rel), got, "no strict certificate on equals")
    else:
        _same_tag(got, want)


@_law(
    "mul-trichotomy-by-quotient",
    "for x > y above one, x = y * d with d above one",
    "power_laws",
    ("real",),
    _gen_mul,
)
def _mul_trichotomy(model, v, tol):
    big, small = (v["x1"], v["x2"]) if v["x1"] > v["x2"] else (v["x2"], v["x1"])
    if big == small:
        return
    x, y = _as_mul(big), _as_mul(small)
    d = power.into_mul(hom.quotient(x.value, y.value))
    rebuilt = power.mul_combine(y, d)
    _same(REAL, rebuilt, x, tol)


@_law(
    "power-integer-consistency",
    "x^(n/1) equals the n-fold multiplicative multiple",
    "power_laws",
    ("real",),
    _gen_mul,
)
def _pow_integer(model, v, tol):
    p = 30 if tol is None else tol
    x = _as_mul(v["x1"])
    via_pow = power.pow(x, PosRat(v["n"], 1), p)
    via_mult = power.mul_multiple(v["n"], x)
    _same(REAL, via_pow, via_mult, tol)


@_law(
    "root-power-roundtrip",
    "raising the n-th root back to the n-th power recovers x",
    "power_laws",
    ("real",),
    _gen_mul,
)
def _root_roundtrip(model, v, tol):
    p = 30 if tol is None else tol
    x = _as_mul(v["x1"])
    root = power.nth_root(x, v["n"], p + 4)
    back = power.mul_multiple(v["n"], root)
    _same(REAL, back, x, tol)


@_law(
    "power-base-law",
    "(x1 * x2)^y = x1^y * x2^y as intersecting intervals",
    "power_laws",
    ("real",),
    _gen_mul,
)
def _pow_base_law(model, v, tol):
    p = 30 if tol is None else tol
    x1, x2 = _as_mul(v["x1"]), _as_mul(v["x2"])
    lhs = power.pow(power.mul_combine(x1, x2), v["y"], p)
    rhs = power.mul_combine(power.pow(x1, v["y"], p), power.pow(x2, v["y"], p))
    _same(REAL, lhs, rhs, tol)


@_law(
    "power-exponent-law",
    "x^(y1 + y2) = x^y1 * x^y2 as intersecting intervals",
    "power_laws",
    ("real",),
    _gen_mul,
)
def _pow_exponent_law(model, v, tol):
    p = 30 if tol is None else tol
    x = _as_mul(v["x1"])
    lhs = power.pow(x, v["y"] + v["y2"], p)
    rhs = power.mul_combine(power.pow(x, v["y"], p), power.pow(x, v["y2"], p))
    _same(REAL, lhs, rhs, tol)


@_law(
    "power-monotone-in-exponent",
    "for x > 1 and y1 < y2, x^y1 < x^y2 certifiably",
    "power_laws",
    ("real",),
    _gen_mul,
)
def _pow_monotone(model, v, tol):
    if v["y"] == v["y2"]:
        return
    p = 30 if tol is None else tol
    y_lo, y_hi = (v["y"], v["y2"]) if v["y"] < v["y2"] else (v["y2"], v["y"])
    x = _as_mul(v["x1"])
    low = power.pow(x, y_lo, p)
    high = power.pow(x, y_hi, p)
    got = power.mul_compare(low, high)
    _same_tag(got if isinstance(got, Rel) else Rel.EQUAL, Rel.LESS)


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


def _render_inputs(inputs: dict) -> dict:
    return {key: str(val) for key, val in sorted(inputs.items())}


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
                        "inputs": _render_inputs(shrunk),
                        "observed": observed,
                        "expected": expected,
                    }
                )
                break
        reports.append(report)
    return reports


def reports_to_json(reports: list) -> str:
    return json.dumps([r.as_json() for r in reports], sort_keys=True, indent=2)

