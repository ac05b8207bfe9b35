"""The ``hom_operators`` law set: hom-space operator laws (probe-evaluated, exact on rationals)."""

from __future__ import annotations

from .. import hom
from . import _elems, _expect, _law, _same, _same_tag


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

