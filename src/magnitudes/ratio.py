"""Ratio comparison with certifying witnesses.

Two pairs (a, b) and (a2, b2), possibly from different models, stand in the
same ratio when every multiplier pair (m, n) orders m*a against n*b the same
way it orders m*a2 against n*b2.  A strict verdict is certified by a witness
(m, n) exhibiting m*a > n*b while m*a2 <= n*b2; equivalently, the fraction
n/m separates the two ratio values.

Exactness is read from the terms, not their models.  When all four terms
are exact points (nat and rat elements, and reals with ``exact`` set), each
ratio is the integer pair a.num*b.den : a.den*b.num, two pairs compare by
cross-multiplication, and a strict verdict reads its separating witness
from their continued fractions.  Any other comparison encloses each ratio
value x/y at each rung of the precision ladder, as integer pairs read from
the terms' intervals, exact terms being points, and no oracle is built.
The first rung whose enclosures are disjoint certifies the verdict: with
x/y >= lo1 > hi2 >= x2/y2, every fraction n/m with hi2 <= n/m < lo1 has
m*x > n*y and m*x2 <= n*y2, so the simplest one is the witness, and the
intervals already read are its certificate.  The fuel budget caps the
ladder, which makes the search total, with Unknown as the honest
out-of-budget answer: equal, or closer than the cap resolves, never a
wrong verdict.
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import core
from .core import Record, Rel
from .mediants import _simplest
from .models import REAL, Interval, PosRat, _point, certify, int_to_text, ladder, model_by_id, model_of

__all__ = [
    "Ratio",
    "Witness",
    "RatioRel",
    "make_ratio",
    "have_ratio_witness",
    "ratio_value_exact",
    "ratio_compare",
    "verify_witness",
]


class Ratio(Record):
    """An ordered pair of elements from one model, read antecedent : consequent."""

    __slots__ = ("antecedent", "consequent", "model_id")

    def __init__(self, antecedent, consequent, model_id: str):
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)
        object.__setattr__(self, "model_id", model_id)


def make_ratio(antecedent, consequent) -> Ratio:
    model = model_of(antecedent)
    model.check(consequent)
    return Ratio(antecedent, consequent, model.descriptor.model_id)


class Witness(Record):
    """Multiplier pair certifying a strict ratio inequality.

    For a Greater verdict on ((a, b), (a2, b2)): m*a > n*b and m*a2 <= n*b2.
    A Less verdict carries the same witness read against the swapped pairs.
    """

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def __str__(self) -> str:
        return f"m={int_to_text(self.m)} n={int_to_text(self.n)}"

    def as_json(self) -> dict:
        return {"m": int_to_text(self.m), "n": int_to_text(self.n)}


class RatioRel(Record):
    """Engine verdict: Equal, Greater(w), Less(w), or Unknown(fuel_spent).

    ``fuel_spent`` is the least fuel whose ladder reaches the rung that
    decided, ceil(p/4) for rung p; it is 0 when every term is exact.  An
    Unknown reports the fuel it was given and its ladder cap as
    ``precision_cap``.
    """

    __slots__ = ("kind", "witness", "fuel_spent", "precision_cap")

    def __init__(
        self,
        kind: str,
        witness: Optional[Witness] = None,
        fuel_spent: int = 0,
        precision_cap: int = 0,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "fuel_spent", fuel_spent)
        object.__setattr__(self, "precision_cap", precision_cap)

    @staticmethod
    def equal(fuel_spent: int = 0) -> "RatioRel":
        return _RATIO_EQUAL if fuel_spent == 0 else RatioRel("equal", fuel_spent=fuel_spent)

    @staticmethod
    def greater(witness: Witness, fuel_spent: int = 0) -> "RatioRel":
        return RatioRel("greater", witness, fuel_spent)

    @staticmethod
    def less(witness: Witness, fuel_spent: int = 0) -> "RatioRel":
        return RatioRel("less", witness, fuel_spent)

    @staticmethod
    def unknown(fuel_spent: int, precision_cap: int) -> "RatioRel":
        return RatioRel("unknown", None, fuel_spent, precision_cap)

    @property
    def is_equal(self) -> bool:
        return self.kind == "equal"

    @property
    def is_greater(self) -> bool:
        return self.kind == "greater"

    @property
    def is_less(self) -> bool:
        return self.kind == "less"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def kind_tag(self) -> Rel:
        """Decided verdict as an order tag; Unknown has none."""
        if self.is_unknown:
            raise ValueError("unknown verdict carries no order tag")
        return {"equal": Rel.EQUAL, "greater": Rel.GREATER, "less": Rel.LESS}[self.kind]


# records are immutable, so every exact Equal verdict can be this one
_RATIO_EQUAL = RatioRel("equal")


def have_ratio_witness(a, b) -> Tuple[int, int]:
    """Least (m, n) with m*a > b and n*b > a.

    Exists for every pair of an Archimedean model; this is the executable
    form of "the pair has a ratio".
    """
    model = model_of(a)
    return (
        core.find_multiple_exceeding(a, b, model),
        core.find_multiple_exceeding(b, a, model),
    )


def ratio_value_exact(r: Ratio) -> PosRat:
    """Collapse an exact-model ratio to its reduced fraction a/b.

    Two exact-model ratios are same-ratio precisely when these values match;
    scaling both terms by a common multiplier leaves the value unchanged.
    """
    return PosRat(*model_by_id(r.model_id).ratio_pair(r.antecedent, r.consequent))


def _pair(a, b):
    """The pair a : b as ratio_compare reads it: (True, n, m) when both terms
    are exact points, with a : b = n : m = a.num*b.den : a.den*b.num as
    integers; else (False, x, y), each term as the ladder reads it, a real
    or the point [q, q] of an exact one.  ModelMismatchError unless b is of
    a's model.  Two ints >= 1 or two PosRat are read by class, a real pair
    by its ``exact`` slots, read once, and others by ``model.ratio_pair``,
    which refuses the multiplicative space (InexactModelError)."""
    c = a.__class__
    if c is b.__class__:
        if c is PosRat:
            return True, a.num * b.den, a.den * b.num
        if c is int and a >= 1 and b >= 1:
            return True, a, b
    model = model_of(a)
    model.check(b)
    if model is REAL:
        qa, qb = a.exact, b.exact
        if qa is None or qb is None:
            return False, (a if qa is None else _point(qa)), (b if qb is None else _point(qb))
        return True, qa.num * qb.den, qa.den * qb.num
    return (True, *model.ratio_pair(a, b))


def ratio_compare(a, b, a2, b2, fuel: int = 64) -> RatioRel:
    """Compare the ratio a:b with a2:b2 across (possibly different) models.

    Four exact points (nat, rat, or reals with ``exact`` set) are decided
    outright by cross-multiplication of the integer pairs n1 : m1 =
    a.num*b.den : a.den*b.num and n2 : m2.  A strict verdict's witness
    (m, n) is the simplest n/m with lower <= n/m < upper, read by the
    continued-fraction walk (``mediants._simplest``) straight off those
    pairs, which need not be in lowest terms: the walk reads them as
    values, and its answer always is in lowest terms.  Each pair is read
    once, by ``_pair``: two ints >= 1 or two PosRat by class; any other pair
    is checked by ``model_of(a).check(b)`` (ModelMismatchError), and a real
    pair's exactness is read from its ``exact`` slots once.

    Otherwise an exact pair is pinned once as the points n1 and m1, whose
    enclosure ends are those integers, and an exact term of a real pair as
    the point [q, q], both built unchecked; at each rung p of
    ``ladder(max(16, 4*fuel))`` only the real terms are read.  The terms'
    intervals u, v, u2, v2 enclose x/y in [u.lo/v.hi, u.hi/v.lo] and x2/y2
    likewise, each end kept as an unreduced integer pair and the ends
    compared by cross-multiplication.
    At the first rung where hi2 = u2.hi/v2.lo < lo1 = u.lo/v.hi, the
    simplest n/m with hi2 <= n/m < lo1 is the Greater witness: m*x > n*y
    and m*x2 <= n*y2 follow from the intervals already read, so nothing is
    read past rung p and the verdict spends ceil(p/4) fuel.  Less is the
    same with the pairs' roles swapped.  Enclosures that never part give
    Unknown.
    """
    if fuel.__class__ is not int or fuel < 1:
        if isinstance(fuel, bool) or not isinstance(fuel, int) or fuel < 1:
            raise ValueError("fuel must be an integer >= 1")
    e1, x, y = _pair(a, b)
    e2, x2, y2 = _pair(a2, b2)
    if e1 and e2:
        lhs, rhs = x * y2, x2 * y
        if lhs == rhs:
            return _RATIO_EQUAL
        if lhs > rhs:
            n, m = _simplest(x2, y2, x, y, True, False)
            return RatioRel.greater(Witness(m, n))
        n, m = _simplest(x, y, x2, y2, True, False)
        return RatioRel.less(Witness(m, n))
    # an exact pair n : m is read as the points n and m, whose enclosure
    # ends are its integers
    if e1:
        x, y = _point(PosRat._reduced(x, 1)), _point(PosRat._reduced(y, 1))
    if e2:
        x2, y2 = _point(PosRat._reduced(x2, 1)), _point(PosRat._reduced(y2, 1))
    cap = max(16, 4 * fuel)
    for p in ladder(cap):
        u = x if x.__class__ is Interval else x.approx(p)
        v = y if y.__class__ is Interval else y.approx(p)
        u2 = x2 if x2.__class__ is Interval else x2.approx(p)
        v2 = y2 if y2.__class__ is Interval else y2.approx(p)
        # enclosure ends as unreduced pairs: ln1/ld1 <= x/y <= hn1/hd1, and
        # likewise for x2/y2; the rung that parts them is the certificate
        ln1, ld1 = u.lo.num * v.hi.den, u.lo.den * v.hi.num
        hn2, hd2 = u2.hi.num * v2.lo.den, u2.hi.den * v2.lo.num
        if hn2 * ld1 < ln1 * hd2:
            n, m = _simplest(hn2, hd2, ln1, ld1, True, False)
            return RatioRel.greater(Witness(m, n), -(-p // 4))
        hn1, hd1 = u.hi.num * v.lo.den, u.hi.den * v.lo.num
        ln2, ld2 = u2.lo.num * v2.hi.den, u2.lo.den * v2.hi.num
        if hn1 * ld2 < ln2 * hd1:
            n, m = _simplest(hn1, hd1, ln2, ld2, True, False)
            return RatioRel.less(Witness(m, n), -(-p // 4))
    return RatioRel.unknown(fuel, cap)


def verify_witness(w: Witness, a, b, a2, b2, fuel: int = 64) -> bool:
    """Check both witness inequalities for a Greater verdict on ((a,b),(a2,b2)).

    m*a > n*b must be exactly or certificate-grade strict; m*a2 <= n*b2 is
    decided exactly on exact points, and otherwise accepted when no strict
    'greater' certificate is obtainable on the precision ladder.  Each pair
    is checked as ``ratio_compare`` reads it (``_pair``).
    """
    if w.m < 1 or w.n < 1:
        return False
    core.check_positive_int(w.m, "multiplier")
    core.check_positive_int(w.n, "multiplier")
    _pair(a, b)
    _pair(a2, b2)
    rungs = ladder(max(16, 4 * fuel))
    if certify(a, b, rungs, w.m, w.n)[0] is not Rel.GREATER:
        return False
    return certify(a2, b2, rungs, w.m, w.n)[0] is not Rel.GREATER
