"""The ``structure`` law set: structural laws (models, multiples, searches)."""

from __future__ import annotations

from .. import core, ratio
from ..models import REAL, certify, real_from_rat
from . import _elems, _elems_mults, _expect, _law, _mul, _same, _same_tag


@_law(
    "subtract-recombines",
    "a + (b - a) = b and b - a < b, for a < b",
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
    ("nat", "rat", "real"),
    _elems("a"),
)
def _descriptor_flags(model, v, tol):
    d = model.descriptor
    if d.model_id == "nat":
        _expect(d.discrete and not d.symmetric and d.exact_order, d, "nat flags")
    if d.model_id == "rat":
        _expect(d.symmetric and not d.discrete and d.exact_order, d, "rat flags")
    if d.model_id == "real":
        _expect(d.symmetric and not d.discrete and not d.exact_order, d, "real flags")


@_law(
    "approx-idempotent",
    "repeated refinement queries return the identical interval",
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
    ("rat",),
    _elems("a", "b"),
)
def _certificate_stability(model, v, tol):
    x, y = real_from_rat(v["a"]), real_from_rat(v["b"])
    first = None
    for p in (4, 8, 16, 32):
        out, _ = certify(x, y, (p,))
        if out is None:
            continue
        if first is None:
            first = out
        else:
            _same_tag(out, first)

