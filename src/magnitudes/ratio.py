"""Ratio comparison with certifying witnesses.

Two pairs (a, b) and (a2, b2), possibly from different models, stand in the
same ratio when every multiplier pair (m, n) orders m*a against n*b the same
way it orders m*a2 against n*b2.  A strict verdict is certified by a witness
(m, n) exhibiting m*a > n*b while m*a2 <= n*b2; equivalently, the fraction
n/m separates the two ratio values.

The engine decides exact-model comparisons outright: each ratio is an
integer pair (a : b itself on nat, a.num*b.den : a.den*b.num on rat), two
pairs compare by cross-multiplication, and only a strict verdict reduces
them to fractions, for its separating witness.  Mixed or real comparisons
walk the Stern-Brocot tree of candidate separating fractions, one mediant
per unit of fuel.  A candidate n/m costs a few integer multiplications:
exact points compare by cross-multiplication, and real operands are
weighed as m*x against n*y on the precision ladder from their own cached
intervals (``models.certify``), with no multiple or other oracle built.
The fuel budget makes the search total, with Unknown as the honest
out-of-budget answer: equal, or closer than fuel resolves, never a wrong
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from . import core
from .core import Rel
from .errors import InexactModelError
from .mediants import simplest_in
from .models import NAT, PosRat, PosRealValue, certify, ladder, model_of

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


@dataclass(frozen=True)
class Ratio:
    """An ordered pair of elements from one model, read antecedent : consequent."""

    antecedent: object
    consequent: object
    model_id: str


def make_ratio(antecedent, consequent) -> Ratio:
    model = model_of(antecedent)
    model.check(consequent)
    return Ratio(antecedent, consequent, model.descriptor.model_id)


@dataclass(frozen=True)
class Witness:
    """Multiplier pair certifying a strict ratio inequality.

    For a Greater verdict on ((a, b), (a2, b2)): m*a > n*b and m*a2 <= n*b2.
    A Less verdict carries the same witness read against the swapped pairs.
    """

    m: int
    n: int

    def __str__(self) -> str:
        return f"m={self.m} n={self.n}"

    def as_json(self) -> dict:
        return {"m": str(self.m), "n": str(self.n)}


@dataclass(frozen=True)
class RatioRel:
    """Engine verdict: Equal, Greater(w), Less(w), or Unknown(fuel_spent)."""

    kind: str
    witness: Optional[Witness] = None
    fuel_spent: int = 0
    precision_cap: int = 0

    @staticmethod
    def equal(fuel_spent: int = 0) -> "RatioRel":
        return RatioRel("equal", fuel_spent=fuel_spent)

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


def have_ratio_witness(a, b) -> Tuple[int, int]:
    """Least (m, n) with m*a > b and n*b > a.

    Exists for every pair of an Archimedean model; this is the executable
    form of "the pair has a ratio".
    """
    model = model_of(a)
    model.check(b)
    return (
        core.find_multiple_exceeding(a, b, model),
        core.find_multiple_exceeding(b, a, model),
    )


def ratio_value_exact(r: Ratio) -> PosRat:
    """Collapse an exact-model ratio to its reduced fraction a/b.

    Two exact-model ratios are same-ratio precisely when these values match;
    scaling both terms by a common multiplier leaves the value unchanged.
    """
    from .models import model_by_id

    model = model_by_id(r.model_id)
    if not model.descriptor.exact_order:
        raise InexactModelError("ratio values collapse exactly only on nat/rat")
    if model.descriptor.model_id == "nat":
        return PosRat(r.antecedent, r.consequent)
    return r.antecedent / r.consequent


def _rel_vs_fraction(x, y, n: int, m: int, rungs) -> Tuple[Optional[Rel], Rel]:
    """Relation of the ratio x:y to the fraction n/m: m*x against n*y.

    Builds no oracle.  Exact points (nat, rat, real with ``exact`` set)
    compare by integer cross-multiplication; otherwise ``certify`` weighs
    m*x against n*y from the operands' own cached intervals.  Returns
    (certified, guess): certified is None when a real comparison stays
    overlapped at the ladder cap; guess, from the scaled midpoints of the
    cap's intervals, only steers the search, never decides a verdict.
    """
    if isinstance(x, PosRealValue) and x.exact is not None:
        x = x.exact
    if isinstance(y, PosRealValue) and y.exact is not None:
        y = y.exact
    if isinstance(x, int):
        lhs, rhs = m * x, n * y
    elif isinstance(x, PosRat) and isinstance(y, PosRat):
        lhs, rhs = m * x.num * y.den, n * y.num * x.den
    else:
        out, cap = certify(x, y, rungs, m, n)
        if out is not None:
            return out, out
        a = x if isinstance(x, PosRat) else x.approx(cap + (m - 1).bit_length())
        b = y if isinstance(y, PosRat) else y.approx(cap + (n - 1).bit_length())
        # m*(a.lo + a.hi) against n*(b.lo + b.hi), denominators cleared
        lhs = m * (a.lo.num * a.hi.den + a.hi.num * a.lo.den) * b.lo.den * b.hi.den
        rhs = n * (b.lo.num * b.hi.den + b.hi.num * b.lo.den) * a.lo.den * a.hi.den
        return None, (Rel.GREATER if lhs > rhs else Rel.LESS)
    tag = Rel.GREATER if lhs > rhs else Rel.LESS if lhs < rhs else Rel.EQUAL
    return tag, tag


def _exact_separator(lower: PosRat, upper: PosRat) -> Witness:
    """Witness from the simplest fraction s with lower <= s < upper."""
    s = simplest_in(lower, upper, include_lo=True, include_hi=False)
    return Witness(m=s.den, n=s.num)


def _boundary_upgrade(j: int, k: int, eq_pair, lt_pair, rungs) -> Optional[Witness]:
    """Sharpen a boundary separator into a strictly certified witness.

    Inputs: j*a = k*b exactly on eq_pair while lt_pair's ratio is certified
    below k/j.  Then for a large enough multiplier p, the fraction
    (pk - 1)/(pj) still exceeds lt_pair's ratio but falls strictly below
    k/j, giving a witness with both inequalities strict.
    """
    a, b = eq_pair
    a2, b2 = lt_pair
    p = 1
    for _ in range(64):
        m_star, n_star = p * j, p * k - 1
        if n_star >= 1:
            first, _ = _rel_vs_fraction(a, b, n_star, m_star, rungs)
            second, _ = _rel_vs_fraction(a2, b2, n_star, m_star, rungs)
            if first is Rel.GREATER and second is Rel.LESS:
                return Witness(m=m_star, n=n_star)
        p *= 2
    return None


def ratio_compare(a, b, a2, b2, fuel: int = 64) -> RatioRel:
    """Compare the ratio a:b with a2:b2 across (possibly different) models.

    Exact models are decided outright by cross-multiplication.  Otherwise
    the mediant walk searches for a separating fraction; each candidate costs
    one unit of fuel, and real sub-comparisons escalate precision up to a cap
    tied to the fuel budget.
    """
    if isinstance(fuel, bool) or not isinstance(fuel, int) or fuel < 1:
        raise ValueError("fuel must be an integer >= 1")
    model1 = model_of(a)
    model1.check(b)
    model2 = model_of(a2)
    model2.check(b2)

    if model1.descriptor.exact_order and model2.descriptor.exact_order:
        n1, m1 = (a, b) if model1 is NAT else (a.num * b.den, a.den * b.num)
        n2, m2 = (a2, b2) if model2 is NAT else (a2.num * b2.den, a2.den * b2.num)
        lhs, rhs = n1 * m2, n2 * m1
        if lhs == rhs:
            return RatioRel.equal()
        v1, v2 = PosRat(n1, m1), PosRat(n2, m2)
        if lhs > rhs:
            return RatioRel.greater(_exact_separator(v2, v1))
        return RatioRel.less(_exact_separator(v1, v2))

    cap = max(16, 4 * fuel)
    rungs = ladder(cap)
    lo = (0, 1)  # fractions as (numerator, denominator); 0/1 and 1/0 bracket
    hi = (1, 0)
    spent = 0
    while spent < fuel:
        spent += 1
        sn, sm = lo[0] + hi[0], lo[1] + hi[1]
        r1, g1 = _rel_vs_fraction(a, b, sn, sm, rungs)
        r2, g2 = _rel_vs_fraction(a2, b2, sn, sm, rungs)

        if r1 is Rel.GREATER and r2 in (Rel.LESS, Rel.EQUAL):
            return RatioRel.greater(Witness(m=sm, n=sn), spent)
        if r2 is Rel.GREATER and r1 in (Rel.LESS, Rel.EQUAL):
            return RatioRel.less(Witness(m=sm, n=sn), spent)
        if r1 is Rel.EQUAL and r2 is Rel.LESS:
            w = _boundary_upgrade(sm, sn, (a, b), (a2, b2), rungs)
            if w is not None:
                return RatioRel.greater(w, spent)
        if r2 is Rel.EQUAL and r1 is Rel.LESS:
            w = _boundary_upgrade(sm, sn, (a2, b2), (a, b), rungs)
            if w is not None:
                return RatioRel.less(w, spent)
        if r1 is Rel.EQUAL and r2 is Rel.EQUAL:
            return RatioRel.equal(spent)

        # no separator here: steer by the certified tags.  An uncertified
        # side follows a strictly certified one, which keeps the certified
        # ratio inside the bracket; midpoint guesses steer only otherwise
        d1 = r1 if r1 is not None else (r2 if r2 in (Rel.GREATER, Rel.LESS) else g1)
        d2 = r2 if r2 is not None else (r1 if r1 in (Rel.GREATER, Rel.LESS) else g2)
        if Rel.GREATER in (d1, d2):
            lo = (sn, sm)
        else:
            hi = (sn, sm)
    return RatioRel.unknown(spent, cap)


def verify_witness(w: Witness, a, b, a2, b2, fuel: int = 64) -> bool:
    """Check both witness inequalities for a Greater verdict on ((a,b),(a2,b2)).

    m*a > n*b must be exactly or certificate-grade strict; m*a2 <= n*b2 is
    accepted exactly on exact models, and on the real model when no strict
    'greater' certificate is obtainable on the precision ladder.
    """
    if w.m < 1 or w.n < 1:
        return False
    core.check_positive_int(w.m, "multiplier")
    core.check_positive_int(w.n, "multiplier")
    model_of(a).check(b)
    model2 = model_of(a2)
    model2.check(b2)
    rungs = ladder(max(16, 4 * fuel))
    first, _ = _rel_vs_fraction(a, b, w.n, w.m, rungs)
    if first is not Rel.GREATER:
        return False
    second, _ = _rel_vs_fraction(a2, b2, w.n, w.m, rungs)
    if second is Rel.GREATER:
        return False
    if second is None and model2.descriptor.exact_order:
        return False
    return True
