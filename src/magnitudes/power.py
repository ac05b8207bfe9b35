"""Powers and roots through the multiplicative magnitude space.

The reals greater than one form a magnitude space under multiplication:
its "integral multiple" is x^n, its trichotomy witness is a quotient, and
its order agrees with the additive one.  Because that space is continuous
at oracle level, every base x > 1 determines a unique embedding of the
additive positive reals into it sending 1 to x; evaluating that embedding
at y is x^y.

Membership is certified once, when a value enters through ``into_mul``.
The space is closed under products and positive powers, so a product or
multiple x^n (one monomial node each), a power and a root stay in it
without a second certification walk.

The computable route is integer arithmetic on x's interval endpoints
scaled by 2^w: a rational exponent m/n with n up to w costs one integer
n-th root per endpoint; a real exponent, or a larger denominator, is
bracketed between dyadic exponents k/2^w and read off Briggs' table of
successive square roots.  Each power is one oracle node.  Uniqueness of
the embedding is what the law suite leans on: any two correct evaluators
(``mul_multiple``, a monomial node raising x's endpoints to n on binary
floats, is the other one) must agree wherever their intervals are queried.
"""

from __future__ import annotations

from math import isqrt
from typing import Union

from . import core
from .core import ModelDescriptor, Ordering3, Record, Rel, check_precision
from .errors import (
    InexactModelError,
    NotAboveOneError,
)
from .models import (
    RAT_ONE,
    Interval,
    Model,
    Overlap,
    PosRat,
    PosRealValue,
    _grid_refine,
    _monomial,
    certify,
    ladder,
    real_from_rat,
    real_mul,
)

__all__ = [
    "MulReal",
    "MUL",
    "into_mul",
    "mul_combine",
    "mul_compare",
    "mul_multiple",
    "int_nth_root",
    "nth_root",
    "pow",
]


class MulReal(Record):
    """A real strictly greater than one.

    Only ``into_mul`` certifies membership, because only it takes values
    from outside the space.  Products and positive powers of members are
    members (x*y > y > 1, and x^y > 1 for x > 1, y > 0), so every other
    operation here wraps its result by closure, without refining it again.
    """

    __slots__ = ("value",)

    def __init__(self, value: PosRealValue):
        object.__setattr__(self, "value", value)

    def approx(self, p: int) -> Interval:
        return self.value.approx(p)


def into_mul(x: PosRealValue) -> MulReal:
    """Certify x > 1 or refuse.

    Walks precision 0 and then the default ladder: the first interval with
    lower endpoint above 1 certifies membership; an interval entirely at or
    below 1 refutes it; exhaustion of the ladder is an honest refusal (x may
    be 1, below 1, or undecidable at this policy).
    """
    verdict, p = certify(x, RAT_ONE, (0, *ladder()))
    if verdict is Rel.GREATER:
        return MulReal(x)
    if verdict is Rel.LESS or x.approx(p).hi <= RAT_ONE:
        raise NotAboveOneError("value certified not greater than one")
    raise NotAboveOneError(f"could not separate value from 1 at precision {p}")


class _MulRealModel(Model):
    """The multiplicative space as a model: combine is product."""

    def __init__(self):
        self.descriptor = ModelDescriptor(
            model_id="mul-real",
            discrete=False,
            symmetric=True,
            continuous_at_oracle=True,
            exact_order=False,
            unit=None,
            smallest=None,
        )

    def owns(self, x) -> bool:
        return isinstance(x, MulReal)

    def combine(self, a: MulReal, b: MulReal) -> MulReal:
        return mul_combine(a, b)

    def multiple(self, n: int, a: MulReal) -> MulReal:
        # one monomial node a^n; above one by closure (a^n >= a > 1)
        return MulReal(_monomial(((a.value, n, 1),)))

    def order(self, a, b) -> Ordering3:
        raise InexactModelError("multiplicative order is certified; use mul_compare")

    def least_multiple_exceeding(self, a: MulReal, b: MulReal) -> int:
        """Least n with a^n certainly above b: doubling, then bisection.

        A multiple here is a power, which no enclosure of the ratio b/a
        answers, so each probe certifies one monomial node a^n against b.
        """
        if mul_compare(a, b) is Rel.GREATER:
            return 1
        lo, hi = 1, 2  # known: a^lo is not certified above b
        while mul_compare(self.multiple(hi, a), b) is not Rel.GREATER:
            lo, hi = hi, hi << 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            above = mul_compare(self.multiple(mid, a), b) is Rel.GREATER
            lo, hi = (lo, mid) if above else (mid, hi)
        return hi


MUL = _MulRealModel()


def mul_combine(x: MulReal, y: MulReal) -> MulReal:
    """Product, one monomial node; above one by closure (x*y > y > 1)."""
    return MulReal(real_mul(x.value, y.value))


def mul_compare(x: MulReal, y: MulReal) -> Union[Rel, Overlap]:
    """Certified comparison; multiplicative order agrees with additive order."""
    rel, p = certify(x.value, y.value, ladder())
    return Overlap(p) if rel is None else rel


def mul_multiple(n: int, x: MulReal) -> MulReal:
    """x^n as the n-th multiplicative multiple: one monomial node, apart from ``pow``."""
    return core.multiple(n, x, MUL)


def int_nth_root(k: int, n: int) -> int:
    """Largest r with r**n <= k: ``math.isqrt`` for n = 2, else Newton's iteration from above.

    The root has at most m = ceil(bits/n) bits.  The root of k's top bits,
    found recursively for m // 2 bits and rounded up, starts the iteration
    above r and close enough that each step doubles the correct bits.
    """
    if k < 1 or n < 1:
        raise ValueError("positive arguments only")
    if n == 1 or k == 1:
        return k
    if n == 2:
        return isqrt(k)
    m = -(-k.bit_length() // n)  # r < 2^m
    if m == 1:
        return 1
    s = m // 2
    x = (int_nth_root(k >> (n * s), n) + 1) << s  # x^n > k
    while True:
        y = ((n - 1) * x + k // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def nth_root(x: MulReal, n: int, p: int) -> MulReal:
    """r > 1 with r^n = x, refined to precision p: the power x^(1/n)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("root index must be an int >= 1")
    check_precision(p)
    if n == 1:
        x.value.approx(p)
        return x
    return pow(x, PosRat(1, n), p)


def pow(x: MulReal, y, p: int = 30) -> MulReal:
    """x^y for y a positive int, rational or real; result refined to precision p.

    An exact base whose numerator and denominator are perfect n-th powers,
    raised to an exact y = m/n, gives the exact point.  Otherwise one oracle
    node raises the integer-scaled endpoints of x's interval to the
    endpoints of y's: the lower ones rounding down at every step, the upper
    ones rounding up.  x > 1 makes x^y increasing in both x and y, so the
    enclosure is rigorous; a query too wide for its precision is retried at
    a deeper working precision.
    """
    check_precision(p)
    if isinstance(y, int) and not isinstance(y, bool):
        y = PosRat(y, 1)
    if isinstance(y, PosRat):
        y = real_from_rat(y)
    if not isinstance(y, PosRealValue):
        raise TypeError(f"unsupported exponent type {type(y).__name__}")
    b, e = x.value.exact, y.exact
    if b is not None and e is not None:
        num, den = int_nth_root(b.num, e.den), int_nth_root(b.den, e.den)
        if num**e.den == b.num and den**e.den == b.den:
            return MulReal(real_from_rat(PosRat(num, den) ** e.num))

    def ends(w: int, reads):
        xi, yi = reads
        # x^y > 1 also keeps the floor chain's bound positive
        lo = max(_scaled_pow(_ticks(xi.lo, w, 0), yi.lo, w, 0), 1 << w)
        return lo, _scaled_pow(_ticks(xi.hi, w, 1), yi.hi, w, 1), 0

    value = PosRealValue(_grid_refine(lambda: (x.value, y), ends, "power"))
    value.approx(p)
    return MulReal(value)


# Scaled-integer arithmetic: an int a stands for a/2^w.  ``up`` is 0 to
# round down and 1 to round up; for positive k, (k - 1) // d + 1 is the
# ceiling of k/d, and the same shift turns floor roots into ceiling roots.


def _ticks(q: PosRat, w: int, up: int) -> int:
    return ((q.num << w) - up) // q.den + up


def _mul(a: int, b: int, w: int, up: int) -> int:
    return ((a * b - up) >> w) + up


def _int_pow(a: int, k: int, w: int, up: int) -> int:
    """(a/2^w)^k by square-and-multiply."""
    out = 1 << w
    while k:
        if k & 1:
            out = _mul(out, a, w, up)
        k >>= 1
        if k:
            a = _mul(a, a, w, up)
    return out


def _scaled_pow(a: int, e: PosRat, w: int, up: int) -> int:
    """(a/2^w)^e, for a > 0.

    A denominator n <= w costs one integer n-th root: the fraction r/n of
    e = q + r/n is the root of a^r * 2^(w(n - r)), about n*w bits.  Larger
    denominators bracket e by k/2^w and multiply in Briggs' table of
    successive square roots, s_i = (a/2^w)^(2^-i), over the set fraction
    bits of k: w square roots of 2w-bit integers.
    """
    if e.den <= w:
        q, r = divmod(e.num, e.den)
        out = _int_pow(a, q, w, up)
        if r:
            k = a**r << (w * (e.den - r))
            out = _mul(out, int_nth_root(k - up, e.den) + up, w, up)
        return out
    k = _ticks(e, w, up)
    out = _int_pow(a, k >> w, w, up)
    for i in range(w - 1, -1, -1):
        a = isqrt((a << w) - up) + up
        if k >> i & 1:
            out = _mul(out, a, w, up)
    return out
