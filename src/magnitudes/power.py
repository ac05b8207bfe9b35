"""Powers and roots through the multiplicative magnitude space.

The reals greater than one form a magnitude space under multiplication:
its "integral multiple" is x^n, and its order agrees with the additive one.
That order is certified as the additive one is (models._certified_order):
LESS or GREATER with the quotient, above one, as the trichotomy witness,
and UndecidedError while the sides overlap.  Because that space is continuous
at oracle level, every base x > 1 determines a unique embedding of the
additive positive reals into it sending 1 to x; evaluating that embedding
at y is x^y.

Membership is certified once, when a value enters through ``into_mul``.
The space is closed under products and positive powers, so a product or
multiple x^n (one monomial node each), a power and a root stay in it
without a second certification walk.

The computable route is integer arithmetic on x's interval endpoints
as ticks of 2^-w: a rational exponent m/n with n up to w costs one integer
n-th root per endpoint; a real exponent, or a larger denominator, is
bracketed between dyadic exponents k/2^w and read off Briggs' table of
successive square roots.  Each power is one node, a _Power, refined in
the one forward pass that every node shares (see models._Node).  Uniqueness
of the embedding is what the law suite leans on: any two correct evaluators
(``mul_multiple``, a monomial node raising x's endpoint fractions to n by
rounded square-and-multiply, is the other one) must agree wherever their
intervals are queried.
"""

from __future__ import annotations

from math import isqrt

from . import core
from .core import ModelDescriptor, Ordering3, Record, Rel, check_precision
from .errors import NotAboveOneError, OracleFailureError
from .models import (
    RAT_ONE,
    Interval,
    Model,
    PosRat,
    PosRealValue,
    _certified_order,
    _Node,
    _grid,
    _monomial,
    certify,
    ladder,
    real_div,
    real_from_rat,
    real_mul,
)

__all__ = [
    "MulReal",
    "MUL",
    "into_mul",
    "mul_combine",
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
    """The multiplicative space as a model: combine is product, scale is a
    power, and the order is certified, with the quotient of the larger by
    the smaller as its gap.  ``models.model_of`` infers it for a MulReal."""

    descriptor = ModelDescriptor(
        model_id="mul-real",
        symmetric=True,
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

    def scale(self, a: MulReal, q: PosRat) -> MulReal:
        return pow(a, q)

    def order(self, a: MulReal, b: MulReal) -> Ordering3:
        # the quotient of members is above one by closure (x > y > 1 gives x/y > 1)
        return _certified_order(a.value, b.value, lambda x, y: MulReal(real_div(x, y)))

    def least_multiple_exceeding(self, a: MulReal, b: MulReal) -> int:
        """Least n with a^n certainly above b: doubling, then bisection.

        A multiple here is a power, which no enclosure of the ratio b/a
        answers, so each probe certifies one monomial node a^n, or a itself
        for n = 1, against b on ``ladder()``.
        """

        def above(n: int) -> bool:
            x = a if n == 1 else self.multiple(n, a)
            return certify(x.value, b.value, ladder())[0] is Rel.GREATER

        if above(1):
            return 1
        lo, hi = 1, 2  # known: a^lo is not certified above b
        while not above(hi):
            lo, hi = hi, hi << 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        return hi


MUL = _MulRealModel()


def mul_combine(x: MulReal, y: MulReal) -> MulReal:
    """Product, one monomial node; above one by closure (x*y > y > 1)."""
    return MulReal(real_mul(x.value, y.value))


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
    """r > 1 with r^n = x: the power x^(1/n), refined when read; p is checked and unread."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("root index must be an int >= 1")
    check_precision(p)
    return x if n == 1 else pow(x, PosRat(1, n), p)


def pow(x: MulReal, y, p: int = 30) -> MulReal:
    """x^y for y a positive int, rational or real, refined when it is read.

    An exact base whose numerator and denominator are perfect n-th powers,
    raised to an exact y = m/n, gives the exact point when m times the bit
    length of the larger root, a bound on the point's size, is within
    RESULT_BITS_CAP.  A larger one is left to the node below, which
    encloses it to any 2^-p without building it.  Otherwise one _Power
    node raises the integer-scaled endpoints of x's interval to the
    endpoints of y's: the lower ones rounding down at every step, the upper
    ones rounding up.  x > 1 makes x^y increasing in both x and y, so the
    enclosure is rigorous; a query too wide for its precision is retried at
    a deeper working precision.  A result whose integer part may need more
    than RESULT_BITS_CAP bits raises OracleFailureError at its first read
    (see _Power).  p is checked and otherwise unread: the node refines to
    whatever precision its reader asks for.
    """
    check_precision(p)
    if isinstance(y, int) and not isinstance(y, bool):
        y = PosRat(y, 1)
    if isinstance(y, PosRat):
        e = y
    elif isinstance(y, PosRealValue):
        e = y.exact
    else:
        raise TypeError(f"unsupported exponent type {type(y).__name__}")
    b = x.value.exact
    if b is not None and e is not None:
        num, den = int_nth_root(b.num, e.den), int_nth_root(b.den, e.den)
        if num**e.den == b.num and den**e.den == b.den and e.num * max(num, den).bit_length() <= RESULT_BITS_CAP:
            return MulReal(real_from_rat(PosRat(num, den) ** e.num))

    return MulReal(_Power((x.value, y)))


# a power whose integer part may need more bits than this is refused
RESULT_BITS_CAP = 1 << 20


class _Power(_Node):
    """x^y as one node over its terms (x, y) (see pow).

    Before any arithmetic, the result is bounded: x^y < 2^b for b = ceil(y_hi)
    times a bound on log2 x_hi, the smaller of the bit length of ceil(x_hi)
    and 3(x_hi - 1)/2 (ln x <= x - 1), so a base near one is not charged a
    whole bit per unit of y.  A b above RESULT_BITS_CAP raises
    OracleFailureError rather than square integers of about b bits.  The
    base is read as ticks of 2^-w, rounded outward by models._grid, which
    shifts a read's power-of-two denominator out before it divides, and
    the exponent as rationals.
    """

    __slots__ = ()

    def _setup(self) -> None:
        values = [x if x.__class__ is PosRat or x.exact is None else x.exact for x in self._terms]
        self._nodes = [x for x in values if isinstance(x, _Node)] or ()
        self._leaves = values

    def _ends(self, w: int, ends: dict):
        x, y = self._leaves
        if x in ends:
            xl, xh = ends[x]
        else:
            xi = x if x.__class__ is PosRat else x.approx(w)
            lo, hi = xi.lo, xi.hi
            xl, xh = _grid(lo.num, lo.den, w, 0), _grid(hi.num, hi.den, w, 1)
        if y in ends:  # the exponent's rational ends pick _scaled_pow's route
            yl, yh = (PosRat(t, 1 << w) for t in ends[y])
        else:
            yi = y if y.__class__ is PosRat else y.approx(w)
            yl, yh = yi.lo, yi.hi
        n = -(-yh.num // yh.den)
        bits = min(n * (-(-xh >> w)).bit_length(), -(-3 * n * (xh - (1 << w)) >> w + 1))
        if bits > RESULT_BITS_CAP:
            raise OracleFailureError(f"power may need {bits} bits, over the cap of {RESULT_BITS_CAP}")
        # x^y > 1 also keeps the floor chain's bound positive
        lo = max(_scaled_pow(xl, yl, w, 0), 1 << w)
        return lo, _scaled_pow(xh, yh, w, 1), 0


# Scaled-integer arithmetic: an int a stands for a/2^w.  ``up`` is 0 to
# round down and 1 to round up; for positive k, (k - 1) // d + 1 is the
# ceiling of k/d, and the same shift turns floor roots into ceiling roots.


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
    k = _grid(e.num, e.den, w, up)
    out = _int_pow(a, k >> w, w, up)
    for i in range(w - 1, -1, -1):
        a = isqrt((a << w) - up) + up
        if k >> i & 1:
            out = _mul(out, a, w, up)
    return out
