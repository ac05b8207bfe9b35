"""The ``power_laws`` law set: power laws (multiplicative magnitude space)."""

from __future__ import annotations

from .. import hom, power
from ..core import Rel
from ..errors import UndecidedError
from ..models import PosRat, REAL, real_from_rat
from . import _law, _same, _same_tag


def _gen_mul(model, rng):
    # bases above one; exponents with modest denominators
    base = PosRat(rng.randint(2, 64), 1) + PosRat(rng.getrandbits(6) + 1, 64)
    other = PosRat(rng.randint(2, 64), 1) + PosRat(rng.getrandbits(6) + 1, 64)
    y = PosRat(rng.getrandbits(3) + 1, rng.getrandbits(3) + 1)
    y2 = PosRat(rng.getrandbits(3) + 1, rng.getrandbits(3) + 1)
    n = rng.randint(1, 10)
    return {"x1": base, "x2": other, "y": y, "y2": y2, "n": n}


def _as_mul(q: PosRat) -> power.MulReal:
    return power.into_mul(real_from_rat(q))


@_law(
    "mul-order-agrees-with-additive",
    "multiplicative comparison certifies the same order as the additive one",
    ("real",),
    _gen_mul,
)
def _mul_order(model, v, tol):
    x, y = _as_mul(v["x1"]), _as_mul(v["x2"])
    try:
        got = power.MUL.order(x, y).tag
    except UndecidedError:  # no strict certificate, which equal sides must give
        got = Rel.EQUAL
    want = (
        Rel.EQUAL
        if v["x1"] == v["x2"]
        else (Rel.GREATER if v["x1"] > v["x2"] else Rel.LESS)
    )
    _same_tag(got, want)


@_law(
    "mul-trichotomy-by-quotient",
    "for x > y above one, x = y * d with d above one",
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
    ("real",),
    _gen_mul,
)
def _pow_integer(model, v, tol):
    x = _as_mul(v["x1"])
    via_pow = power.pow(x, PosRat(v["n"], 1))
    via_mult = power.mul_multiple(v["n"], x)
    _same(REAL, via_pow, via_mult, tol)


@_law(
    "root-power-roundtrip",
    "raising the n-th root back to the n-th power recovers x",
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
    ("real",),
    _gen_mul,
)
def _pow_base_law(model, v, tol):
    x1, x2 = _as_mul(v["x1"]), _as_mul(v["x2"])
    lhs = power.pow(power.mul_combine(x1, x2), v["y"])
    rhs = power.mul_combine(power.pow(x1, v["y"]), power.pow(x2, v["y"]))
    _same(REAL, lhs, rhs, tol)


@_law(
    "power-exponent-law",
    "x^(y1 + y2) = x^y1 * x^y2 as intersecting intervals",
    ("real",),
    _gen_mul,
)
def _pow_exponent_law(model, v, tol):
    x = _as_mul(v["x1"])
    lhs = power.pow(x, v["y"] + v["y2"])
    rhs = power.mul_combine(power.pow(x, v["y"]), power.pow(x, v["y2"]))
    _same(REAL, lhs, rhs, tol)


@_law(
    "power-monotone-in-exponent",
    "for x > 1 and y1 < y2, x^y1 < x^y2 certifiably",
    ("real",),
    _gen_mul,
)
def _pow_monotone(model, v, tol):
    if v["y"] == v["y2"]:
        return
    y_lo, y_hi = (v["y"], v["y2"]) if v["y"] < v["y2"] else (v["y2"], v["y"])
    x = _as_mul(v["x1"])
    low = power.pow(x, y_lo)
    high = power.pow(x, y_hi)
    _same_tag(power.MUL.order(low, high).tag, Rel.LESS)

