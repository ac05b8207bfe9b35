"""The ``product_quotient`` law set: product and quotient laws."""

from __future__ import annotations

from .. import core, hom
from . import _elems, _law, _same, _same_tag


@_law(
    "product-commutative",
    "a * b = b * a",
    ("nat", "rat", "real"),
    _elems("a", "b"),
)
def _prod_comm(model, v, tol):
    _same(model, hom.product(v["a"], v["b"]), hom.product(v["b"], v["a"]), tol)


@_law(
    "product-associative",
    "(a * b) * c = a * (b * c)",
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
    ("nat", "rat"),
    _elems("a"),
)
def _prod_unit(model, v, tol):
    _same(model, hom.product(model.descriptor.unit, v["a"]), v["a"], tol)
    _same(model, hom.product(v["a"], model.descriptor.unit), v["a"], tol)


@_law(
    "product-preserves-order",
    "multiplying by a fixed element preserves order in each argument",
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
    ("rat",),
    _elems("a", "b"),
)
def _prod_fractions(model, v, tol):
    _same(model, hom.product(v["a"], v["b"]), v["a"] * v["b"], tol)


@_law(
    "quotient-roundtrip",
    "(b / a) * a = b",
    ("rat", "real"),
    _elems("a", "b"),
)
def _quot_roundtrip(model, v, tol):
    d = hom.quotient(v["b"], v["a"])
    _same(model, hom.product(d, v["a"]), v["b"], tol)


@_law(
    "quotient-matches-fraction-arithmetic",
    "the rational quotient coincides with ordinary fraction division",
    ("rat",),
    _elems("a", "b"),
)
def _quot_fractions(model, v, tol):
    _same(model, hom.quotient(v["b"], v["a"]), v["b"] / v["a"], tol)


@_law(
    "quotient-order",
    "b relates to a as b/a relates to the unit",
    ("rat",),
    _elems("a", "b"),
)
def _quot_order(model, v, tol):
    want = core.compare(v["b"], v["a"], model).tag
    got = core.compare(hom.quotient(v["b"], v["a"]), model.descriptor.unit, model).tag
    _same_tag(got, want)

