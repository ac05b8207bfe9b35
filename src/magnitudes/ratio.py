"""Ratio comparison with certifying witnesses.

Two pairs (a, b) and (a2, b2), possibly from different models, stand in the
same ratio when every multiplier pair (m, n) orders m*a against n*b the same
way it orders m*a2 against n*b2.  A strict verdict is certified by a witness
(m, n) exhibiting m*a > n*b while m*a2 <= n*b2; equivalently, the fraction
n/m separates the two ratio values.

Exactness is read from the terms, not their models.  When all four terms
are exact points (nat and rat elements, and reals with ``exact`` set), each
ratio is the integer pair a.num*b.den : a.den*b.num, two pairs compare by
cross-multiplication, and only a strict verdict reduces them to fractions,
for its separating witness.  Any other comparison encloses each ratio
value x/y by dividing the terms' intervals at each rung of the precision
ladder, exact terms being points, and no oracle is built.  Once the two
enclosures are disjoint, the simplest fraction between them
(``mediants.simplest_in``) is the witness, returned after its strict
inequality certifies on the same rungs (``models.certify``), as
``verify_witness`` checks it.  The fuel budget caps the ladder, which makes
the search total, with Unknown as the honest out-of-budget answer: equal,
or closer than the cap resolves, never a wrong verdict.
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import core
from .core import Record, Rel
from .mediants import simplest_in
from .models import PosRat, _num_den, _point, certify, ladder, model_by_id, model_of

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
        return f"m={self.m} n={self.n}"

    def as_json(self) -> dict:
        return {"m": str(self.m), "n": str(self.n)}


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
    return PosRat(*model_by_id(r.model_id).ratio_pair(r.antecedent, r.consequent))


def _rel_vs_fraction(x, y, n: int, m: int, rungs) -> Tuple[Optional[Rel], int]:
    """Certified relation of the ratio x:y to the fraction n/m, with its rung.

    Weighs m*x against n*y and builds no oracle.  Exact points (nat, rat,
    real with ``exact`` set) compare by integer cross-multiplication, at
    rung 0; otherwise ``certify`` reads the operands' own cached intervals
    and answers None when the sides stay overlapped at the ladder cap.
    """
    px, py = _num_den(x), _num_den(y)
    if px and py:
        lhs, rhs = m * px[0] * py[1], n * py[0] * px[1]
        return (Rel.GREATER if lhs > rhs else Rel.LESS if lhs < rhs else Rel.EQUAL), 0
    return certify(x, y, rungs, m, n)


def _enclose(x, y, p: int) -> Tuple[PosRat, PosRat]:
    """Ends of an interval holding the ratio value x/y, from the terms at rung p."""
    a = x if isinstance(x, PosRat) else x.approx(p)
    b = y if isinstance(y, PosRat) else y.approx(p)
    return a.lo / b.hi, a.hi / b.lo


def _exact_separator(lower: PosRat, upper: PosRat) -> Witness:
    """Witness from the simplest fraction s with lower <= s < upper."""
    s = simplest_in(lower, upper, include_lo=True, include_hi=False)
    return Witness(m=s.den, n=s.num)


def ratio_compare(a, b, a2, b2, fuel: int = 64) -> RatioRel:
    """Compare the ratio a:b with a2:b2 across (possibly different) models.

    Four exact points (nat, rat, or reals with ``exact`` set) are decided
    outright by cross-multiplication.  Otherwise each ratio is enclosed by
    dividing its terms' intervals at each rung of
    ``ladder(max(16, 4*fuel))``, exact terms being points; once the two
    enclosures are disjoint, the simplest fraction between them is the
    witness, returned after its strict inequality certifies on the same
    rungs.  Enclosures that never part give Unknown.
    """
    if isinstance(fuel, bool) or not isinstance(fuel, int) or fuel < 1:
        raise ValueError("fuel must be an integer >= 1")
    model_of(a).check(b)
    model_of(a2).check(b2)
    if (p := _num_den(a)) and (q := _num_den(b)) and (p2 := _num_den(a2)) and (q2 := _num_den(b2)):
        n1, m1 = p[0] * q[1], p[1] * q[0]
        n2, m2 = p2[0] * q2[1], p2[1] * q2[0]
        lhs, rhs = n1 * m2, n2 * m1
        if lhs == rhs:
            return RatioRel.equal()
        v1, v2 = PosRat(n1, m1), PosRat(n2, m2)
        if lhs > rhs:
            return RatioRel.greater(_exact_separator(v2, v1))
        return RatioRel.less(_exact_separator(v1, v2))

    x, y, x2, y2 = _point(a), _point(b), _point(a2), _point(b2)
    cap = max(16, 4 * fuel)
    rungs = ladder(cap)
    for p in rungs:
        lo1, hi1 = _enclose(x, y, p)
        lo2, hi2 = _enclose(x2, y2, p)
        if hi2 < lo1:
            verdict, upper, w = RatioRel.greater, (x, y), _exact_separator(hi2, lo1)
        elif hi1 < lo2:
            verdict, upper, w = RatioRel.less, (x2, y2), _exact_separator(hi1, lo2)
        else:
            continue
        # a witness whose strict side does not certify waits for a later rung
        rel, q = _rel_vs_fraction(*upper, w.n, w.m, rungs)
        if rel is Rel.GREATER:
            return verdict(w, -(-max(p, q) // 4))
    return RatioRel.unknown(fuel, cap)


def verify_witness(w: Witness, a, b, a2, b2, fuel: int = 64) -> bool:
    """Check both witness inequalities for a Greater verdict on ((a,b),(a2,b2)).

    m*a > n*b must be exactly or certificate-grade strict; m*a2 <= n*b2 is
    decided exactly on exact points, and otherwise accepted when no strict
    'greater' certificate is obtainable on the precision ladder.
    """
    if w.m < 1 or w.n < 1:
        return False
    core.check_positive_int(w.m, "multiplier")
    core.check_positive_int(w.n, "multiplier")
    model_of(a).check(b)
    model_of(a2).check(b2)
    rungs = ladder(max(16, 4 * fuel))
    first, _ = _rel_vs_fraction(a, b, w.n, w.m, rungs)
    if first is not Rel.GREATER:
        return False
    second, _ = _rel_vs_fraction(a2, b2, w.n, w.m, rungs)
    return second is not Rel.GREATER
