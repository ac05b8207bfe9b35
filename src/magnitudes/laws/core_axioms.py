"""The ``core_axioms`` law set: core axioms."""

from __future__ import annotations

from .. import core
from ..core import Rel
from . import _elems, _expect, _law, _same, _same_tag


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

