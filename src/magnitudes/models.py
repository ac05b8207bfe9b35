"""Concrete magnitude models: naturals, positive rationals, positive reals.

* nat  -- arbitrary-precision integers >= 1 (plain ``int``); well ordered.
* rat  -- strictly positive rationals in lowest terms (:class:`PosRat`);
          symmetric, nondiscrete, exact order.
* real -- computable positive reals as precision-indexed rational interval
          oracles (:class:`PosRealValue`); order is certified three-valued,
          never decided by guessing.

All values are immutable and freely shareable between threads.  A real
value's refinement cache is guarded by a lock so concurrent queries at the
same precision observe the identical interval.
"""

from __future__ import annotations

import threading
from math import gcd
from typing import Callable, Iterable, Optional, Tuple, Union

from .core import ModelDescriptor, Ordering3, Record, Rel, check_positive_int
from .errors import (
    InexactModelError,
    ModelMismatchError,
    NotGreaterError,
    OracleFailureError,
    ParseError,
)

__all__ = [
    "PosRat",
    "Interval",
    "PosRealValue",
    "Overlap",
    "nat_make",
    "rat_make",
    "real_from_rat",
    "real_add",
    "real_subtract",
    "real_mul",
    "real_div",
    "real_scale",
    "real_compare",
    "ladder",
    "certify",
    "NAT",
    "RAT",
    "REAL",
    "model_of",
    "model_by_id",
    "parse_element",
    "format_element",
]

class PosRat:
    """Strictly positive rational, always in lowest terms.

    Subtraction is partial: ``a - b`` requires b < a, mirroring the ambient
    order structure (there is no zero to land on).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        check_positive_int(num, "numerator")
        check_positive_int(den, "denominator")
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    @classmethod
    def _reduced(cls, num: int, den: int) -> "PosRat":
        # Internal fast path: caller guarantees num, den >= 1 and gcd 1.
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_text(cls, text: str) -> "PosRat":
        parts = text.strip().split("/")
        if len(parts) == 1:
            num, den = parts[0], "1"
        elif len(parts) == 2:
            num, den = parts
        else:
            raise ParseError(f"malformed rational {text!r}")
        if not (num.strip().isdigit() and den.strip().isdigit()):
            raise ParseError(f"malformed rational {text!r}")
        n, d = int(num), int(den)
        if n < 1 or d < 1:
            raise ParseError(f"rational must be strictly positive: {text!r}")
        return cls(n, d)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "PosRat") -> "PosRat":
        num = self.num * other.den + other.num * self.den
        den = self.den * other.den
        g = gcd(num, den)
        return PosRat._reduced(num // g, den // g)

    def __sub__(self, other: "PosRat") -> "PosRat":
        num = self.num * other.den - other.num * self.den
        if num <= 0:
            raise NotGreaterError("difference of positive rationals needs the minuend larger")
        den = self.den * other.den
        g = gcd(num, den)
        return PosRat._reduced(num // g, den // g)

    def __mul__(self, other: "PosRat") -> "PosRat":
        g1 = gcd(self.num, other.den)
        g2 = gcd(other.num, self.den)
        return PosRat._reduced(
            (self.num // g1) * (other.num // g2),
            (self.den // g2) * (other.den // g1),
        )

    def __truediv__(self, other: "PosRat") -> "PosRat":
        g1 = gcd(self.num, other.num)
        g2 = gcd(other.den, self.den)
        return PosRat._reduced(
            (self.num // g1) * (other.den // g2),
            (self.den // g2) * (other.num // g1),
        )

    def reciprocal(self) -> "PosRat":
        return PosRat._reduced(self.den, self.num)

    def __pow__(self, n: int) -> "PosRat":
        check_positive_int(n, "exponent")
        return PosRat._reduced(self.num**n, self.den**n)

    # -- order --------------------------------------------------------

    def _cmp(self, other: "PosRat") -> int:
        lhs = self.num * other.den
        rhs = other.num * self.den
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PosRat) and self.num == other.num and self.den == other.den
        )

    def __lt__(self, other: "PosRat") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "PosRat") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "PosRat") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "PosRat") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.num, self.den))

    # A rational is its own degenerate interval [self, self], which lets
    # certified comparisons read a point and an interval alike.
    @property
    def lo(self) -> "PosRat":
        return self

    hi = lo

    # -- rendering / misc ----------------------------------------------

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"PosRat({self.num}, {self.den})"

    def is_integer(self) -> bool:
        return self.den == 1

    def ceil_log2(self) -> int:
        """Smallest integer e with self <= 2**e (may be negative)."""
        # bit lengths bracket the answer within two candidates; walk up
        e = self.num.bit_length() - self.den.bit_length() - 1
        while not self._le_pow2(e):
            e += 1
        return e

    def _le_pow2(self, e: int) -> bool:
        if e >= 0:
            return self.num <= self.den << e
        return self.num << (-e) <= self.den

    def decimal(self, digits: int) -> str:
        """Decimal rendering truncated toward zero at ``digits`` places."""
        whole, rem = divmod(self.num, self.den)
        if digits <= 0:
            return str(whole)
        frac = rem * 10**digits // self.den
        return f"{whole}.{frac:0{digits}d}"


RAT_ONE = PosRat._reduced(1, 1)


def nat_make(text: str) -> int:
    """Parse a strictly positive decimal integer."""
    s = text.strip()
    if not s.isdigit():
        raise ParseError(f"not a decimal natural: {text!r}")
    value = int(s)
    if value < 1:
        raise ParseError("naturals start at 1; there is no zero magnitude")
    return value


def rat_make(num: int, den: int) -> PosRat:
    """Positive rational from positive integer parts, reduced."""
    return PosRat(num, den)


class Interval:
    """Closed interval with exact positive rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: PosRat, hi: PosRat):
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def width_at_most(self, p: int) -> bool:
        """hi - lo <= 2**-p, in exact integer arithmetic (width may be 0)."""
        wnum = self.hi.num * self.lo.den - self.lo.num * self.hi.den
        wden = self.hi.den * self.lo.den
        if p >= 0:
            return wnum << p <= wden
        return wnum <= wden << (-p)

    def contains(self, q: PosRat) -> bool:
        return self.lo <= q <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo = self.lo if self.lo >= other.lo else other.lo
        hi = self.hi if self.hi <= other.hi else other.hi
        return Interval(lo, hi)

    def midpoint(self) -> PosRat:
        return PosRat(
            self.lo.num * self.hi.den + self.hi.num * self.lo.den,
            2 * self.lo.den * self.hi.den,
        )


class Overlap(Record):
    """Undecided real comparison: the p-intervals were not disjoint."""

    __slots__ = ("precision",)

    def __init__(self, precision: int):
        object.__setattr__(self, "precision", precision)


class PosRealValue:
    """Computable positive real: a refinement oracle plus its cache.

    ``approx(p)`` returns a rational interval of width at most 2**-p that
    contains the value.  Refinements are memoized and intersected with the
    best interval seen so far, so repeated queries are idempotent and any
    two cached intervals intersect.

    ``exact`` optionally records that the value is a known rational point,
    enabling exact fast paths downstream.

    A sum, difference or rational scaling also records its direct terms in
    ``_terms``, as (value, num, den) triples with the signed integer
    coefficient num/den; every other value is a leaf of the linear DAG those
    terms span.
    """

    __slots__ = ("_refine", "_cache", "_best", "_lock", "exact", "_terms")

    def __init__(self, refine: Callable[[int], Interval], exact: Optional[PosRat] = None):
        self._refine = refine
        self._cache: dict[int, Interval] = {}
        self._best: Optional[Interval] = None
        self._lock = threading.Lock()
        self.exact = exact
        self._terms: Optional[tuple] = None

    def approx(self, p: int) -> Interval:
        if isinstance(p, bool) or not isinstance(p, int):
            raise TypeError("precision must be an int")
        if p < 0:
            raise ValueError("precision must be >= 0")
        with self._lock:
            cached = self._cache.get(p)
            if cached is not None:
                return cached
            try:
                raw = self._refine(p)
            except RecursionError:
                # non-linear oracles (products, quotients, roots) still nest
                # one refine inside another; past the interpreter's depth
                # the caller gets the typed resource error
                raise OracleFailureError(f"oracle nesting too deep at precision {p}") from None
            if not raw.width_at_most(p):
                raise OracleFailureError(f"refinement wider than 2^-{p}")
            if self._best is None:
                iv = raw
            else:
                if not raw.intersects(self._best):
                    raise OracleFailureError("inconsistent refinement oracle")
                iv = raw.intersect(self._best)
            self._best = iv
            self._cache[p] = iv
            return iv

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"PosRealValue(exact={self.exact})"
        if self._best is not None:
            return f"PosRealValue(~[{self._best.lo}, {self._best.hi}])"
        return "PosRealValue(<unrefined>)"


def real_from_rat(q: PosRat) -> PosRealValue:
    """Exact rational point as a real value: every interval is [q, q]."""
    point = Interval(q, q)
    return PosRealValue(lambda p: point, exact=q)


def _flatten(terms: tuple) -> list:
    """Leaves of the linear DAG under a node's terms, with total coefficients.

    Coefficients are signed fractions num/den in lowest terms, den > 0.
    They are pushed down in topological order over distinct nodes, so a
    shared subnode is expanded once however many paths reach it (k doublings
    c = c + c make k nodes but 2^k paths).  Both walks keep their own stacks,
    so a chain's depth costs memory, not interpreter frames.  A leaf whose
    coefficients cancel to 0 is dropped.  Each leaf comes back as
    (source, num, den, extra): source is the leaf, or its exact point; num/den
    is its coefficient; extra = max(0, ceil(log2 |num|/den)).
    """
    # count each inner node's parents, so it is expanded after all of them
    parents: dict = {}
    stack = [term[0] for term in terms]
    while stack:
        node = stack.pop()
        if node._terms is None or node.exact is not None:
            continue
        if node in parents:
            parents[node] += 1
        else:
            parents[node] = 1
            stack.extend(term[0] for term in node._terms)
    weight: dict = {}
    ready = [(terms, 1, 1)]
    while ready:
        node_terms, c_num, c_den = ready.pop()
        for child, k_num, k_den in node_terms:
            num, den = c_num * k_num, c_den * k_den
            prev = weight.get(child)
            if prev is not None:
                num, den = num * prev[1] + prev[0] * den, den * prev[1]
            if den != 1:
                g = gcd(num, den)
                num, den = num // g, den // g
            weight[child] = (num, den)
            if child in parents:
                parents[child] -= 1
                if not parents[child]:
                    ready.append((child._terms, num, den))
    # ceil(log2 a/b) for a > b is the bit length of floor((a - 1)/b)
    return [
        (node if node.exact is None else node.exact, num, den, ((abs(num) - 1) // den).bit_length())
        for node, (num, den) in weight.items()
        if num and node not in parents
    ]


def _linear(terms: tuple, exact: Optional[PosRat]) -> PosRealValue:
    """One node for sum of c*x over terms, refined from its leaves directly.

    With n leaves, refine(p) works on the grid w = p + ceil(log2 3n).  Each
    leaf is read at w plus its coefficient's bits, so its scaled interval is
    no wider than 2^-w, and its endpoints are floored and ceiled onto the
    grid as integers: 3n ticks of 2^-w at most, so width <= 2^-p.  A single
    scaling (n = 1) reads its leaf at p + 2 + extra.  A negative coefficient
    takes the leaf's upper end into the lower sum and its lower end into the
    upper sum, so only a difference can have a lower sum that is not positive.
    """
    leaves = None

    def refine(p: int) -> Interval:
        nonlocal leaves
        if leaves is None:  # under the node's lock, on first refine
            leaves = _flatten(terms)
        base = p + (3 * len(leaves) - 1).bit_length()
        # sums and scalings end on the first grid; a difference whose lower sum
        # is not yet positive is read again on finer grids, up to 256 bits
        # finer, the top rung of ladder()
        for step in (0, 8, 16, 32, 64, 128, 256):
            w = base + step
            lo_ticks = hi_ticks = 0
            for src, u, v, extra in leaves:
                iv = src if src.__class__ is PosRat else src.approx(w + extra)
                if u > 0:
                    lo, hi = iv.lo, iv.hi
                else:
                    lo, hi = iv.hi, iv.lo
                lo_ticks += (lo.num * u << w) // (lo.den * v)
                hi_ticks -= (-(hi.num * u) << w) // (hi.den * v)
            if hi_ticks < 1:
                raise OracleFailureError("difference is not positive")
            hi = PosRat(hi_ticks, 1 << w)
            if lo_ticks >= 1:
                return Interval(PosRat(lo_ticks, 1 << w), hi)
            # the grid floor reached zero: try the exact lower sum (reads hit the cache)
            num, den = 0, 1
            for src, u, v, extra in leaves:
                iv = src if src.__class__ is PosRat else src.approx(w + extra)
                a = iv.lo if u > 0 else iv.hi
                num, den = num * a.den * v + a.num * u * den, den * a.den * v
                g = gcd(num, den)
                num, den = num // g, den // g
            if num > 0:
                return Interval(PosRat._reduced(num, den), hi)
        raise OracleFailureError("difference not certified positive in budget")

    value = PosRealValue(refine, exact=exact)
    value._terms = terms
    return value


def real_add(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Sum node x + y.

    Nested sums, scalings and differences refine as one linear node over
    their leaves (see _linear): integer endpoint sums on one dyadic grid,
    ceil(log2 3n) guard bits for n leaves, and no recursion through the chain.
    """
    exact = x.exact + y.exact if (x.exact is not None and y.exact is not None) else None
    return _linear(((x, 1, 1), (y, 1, 1)), exact)


def real_scale(x: PosRealValue, q: PosRat) -> PosRealValue:
    """x scaled by an exact rational factor q > 0, as a linear node.

    Scaling by 1 is x itself, so no node is built.  Alone over a leaf x a
    scaling reads x at p + 2 + max(0, ceil(log2 q)).
    """
    if q == RAT_ONE:
        return x
    exact = x.exact * q if x.exact is not None else None
    return _linear(((x, q.num, q.den),), exact)


def real_subtract(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Difference node x - y for y < x: the linear node x + (-1)*y (see _linear).

    Exact points raise NotGreaterError unless y < x; otherwise a refine
    raises OracleFailureError when its grids cannot show x - y > 0.
    """
    exact = x.exact - y.exact if (x.exact is not None and y.exact is not None) else None
    return _linear(((x, 1, 1), (y, -1, 1)), exact)


def _round_out(lo_num: int, lo_den: int, hi_num: int, hi_den: int, w: int) -> Interval:
    """[lo_num/lo_den, hi_num/hi_den] floored and ceiled onto the 2^-w grid.

    The rounding rule of products and quotients: it keeps representation
    size linear in precision under long chains and widens by at most
    2^(1-w).  A lower end whose floor would reach zero stays exact.
    """
    lo_ticks = (lo_num << w) // lo_den
    hi_ticks = -((-hi_num << w) // hi_den)
    lo = PosRat(lo_num, lo_den) if lo_ticks < 1 else PosRat(lo_ticks, 1 << w)
    return Interval(lo, PosRat(hi_ticks, 1 << w))


def real_mul(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Product oracle; input precision chosen from coarse magnitude bounds."""
    if x.exact is not None and y.exact is not None:
        return real_from_rat(x.exact * y.exact)

    def refine(p: int) -> Interval:
        bound = x.approx(0).hi + y.approx(0).hi
        q = p + 2 + max(0, bound.ceil_log2())
        a, b = x.approx(q), y.approx(q)
        # positivity makes endpoint products monotone
        lo_num, lo_den = a.lo.num * b.lo.num, a.lo.den * b.lo.den
        return _round_out(lo_num, lo_den, a.hi.num * b.hi.num, a.hi.den * b.hi.den, p + 2)

    return PosRealValue(refine)


def real_div(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Quotient oracle x / y by interval division of deeper input refinements.

    The input precision comes from magnitude bounds: the width of
    [x.lo/y.hi, x.hi/y.lo] is at most (X + Y)/Y^2 times the input width,
    with X an upper bound on x and Y a positive lower bound on y.
    """
    if x.exact is not None and y.exact is not None:
        return real_from_rat(x.exact / y.exact)

    def refine(p: int) -> Interval:
        y_floor = y.approx(0).lo
        gain = (x.approx(0).hi + y_floor) / (y_floor * y_floor)
        q = p + 2 + max(0, gain.ceil_log2())
        a, b = x.approx(q), y.approx(q)
        lo_num, lo_den = a.lo.num * b.hi.den, a.lo.den * b.hi.num
        return _round_out(lo_num, lo_den, a.hi.num * b.lo.den, a.hi.den * b.lo.num, p + 2)

    return PosRealValue(refine)


def ladder(cap: int = 256) -> Tuple[int, ...]:
    """The precision ladder: 4, 8, 16, ... doubling while below cap, then cap.

    Certified real comparisons escalate along it; 256 is the give-up point
    when no caller-specific cap applies.
    """
    rungs = []
    p = 4
    while p < cap:
        rungs.append(p)
        p *= 2
    rungs.append(cap)
    return tuple(rungs)


def certify(
    x: Union[PosRat, PosRealValue],
    y: Union[PosRat, PosRealValue],
    rungs: Iterable[int],
    m: int = 1,
    n: int = 1,
) -> Tuple[Optional[Rel], int]:
    """First strict verdict of m*x against n*y on the rungs, with its rung.

    A verdict needs disjoint scaled intervals at one rung.  When no rung
    separates the sides the answer is (None, last rung).  Either side may be
    an exact PosRat, compared as a point without building an oracle for it.
    At rung p a real side is read ceil(log2) of its multiplier bits deeper,
    so its scaled interval is no wider than 2^-p, as multiple(m, x).approx(p)
    would be; the multiple itself is never built.
    """
    ex, ey = (m - 1).bit_length(), (n - 1).bit_length()
    # sides are read inline, not through a helper: an extra frame per level
    # of a nested oracle chain (iterated roots) lowers its recursion ceiling
    p = 0
    for p in rungs:
        a = x if isinstance(x, PosRat) else x.approx(p + ex)
        b = y if isinstance(y, PosRat) else y.approx(p + ey)
        if m * a.hi.num * b.lo.den < n * b.lo.num * a.hi.den:
            return Rel.LESS, p
        if n * b.hi.num * a.lo.den < m * a.lo.num * b.hi.den:
            return Rel.GREATER, p
    return None, p


def real_compare(x: PosRealValue, y: PosRealValue, p: int) -> Union[Rel, Overlap]:
    """Certified comparison at one precision.

    Returns Rel.LESS / Rel.GREATER only when the p-intervals are disjoint
    (a true certificate); otherwise Overlap(p).  Equality of reals is not
    decidable and is never returned.
    """
    rel, _ = certify(x, y, (p,))
    return Overlap(p) if rel is None else rel


# ---------------------------------------------------------------------------
# Model objects


class Model:
    """Primitive operations of one concrete magnitude model."""

    descriptor: ModelDescriptor

    def owns(self, x) -> bool:
        raise NotImplementedError

    def check(self, x):
        if not self.owns(x):
            raise ModelMismatchError(
                f"{x!r} is not an element of model '{self.descriptor.model_id}'"
            )
        return x

    def combine(self, a, b):
        raise NotImplementedError

    def order(self, a, b) -> Ordering3:
        raise NotImplementedError

    def certainly_greater(self, a, b) -> bool:
        return self.order(a, b).is_greater

    def multiple(self, n: int, a):
        """n-fold sum of a by binary doubling, in O(log n) combines."""
        acc = None
        chunk = a
        while True:
            if n & 1:
                acc = chunk if acc is None else self.combine(acc, chunk)
            n >>= 1
            if not n:
                return acc
            chunk = self.combine(chunk, chunk)

    def least_multiple_exceeding(self, a, b) -> int:
        """Least n with n*a certainly above b: doubling, then bisection."""
        if self.certainly_greater(a, b):
            return 1
        lo = 1  # known: lo * a <= b
        hi = 2
        while not self.certainly_greater(self.multiple(hi, a), b):
            lo = hi
            hi <<= 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.certainly_greater(self.multiple(mid, a), b):
                hi = mid
            else:
                lo = mid
        return hi

    def ratio_pair(self, a, b) -> Tuple[int, int]:
        """Integers (n, m) with a : b = n : m; exact models only."""
        raise InexactModelError(f"model '{self.descriptor.model_id}' has no exact ratios")

    def scale(self, a, q: PosRat):
        raise NotImplementedError

    def random_element(self, rng):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<model {self.descriptor.model_id}>"


class NatModel(Model):
    def __init__(self):
        self.descriptor = ModelDescriptor(
            model_id="nat",
            discrete=True,
            symmetric=False,
            continuous_at_oracle=False,
            exact_order=True,
            unit=1,
            smallest=1,
        )

    def owns(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= 1

    def combine(self, a: int, b: int) -> int:
        return a + b

    def multiple(self, n: int, a: int) -> int:
        return n * a

    def least_multiple_exceeding(self, a: int, b: int) -> int:
        return b // a + 1

    def ratio_pair(self, a: int, b: int) -> Tuple[int, int]:
        return a, b

    def order(self, a: int, b: int) -> Ordering3:
        if a < b:
            return Ordering3.less_by(b - a)
        if a > b:
            return Ordering3.greater_by(a - b)
        return Ordering3.equal()

    def random_element(self, rng) -> int:
        return rng.randint(1, 1 << 32)


class RatModel(Model):
    def __init__(self):
        self.descriptor = ModelDescriptor(
            model_id="rat",
            discrete=False,
            symmetric=True,
            continuous_at_oracle=False,
            exact_order=True,
            unit=RAT_ONE,
            smallest=None,
        )

    def owns(self, x) -> bool:
        return isinstance(x, PosRat)

    def combine(self, a: PosRat, b: PosRat) -> PosRat:
        return a + b

    def multiple(self, n: int, a: PosRat) -> PosRat:
        # gcd(n/g, den/g) = 1 and gcd(num, den) = 1: already in lowest terms
        g = gcd(n, a.den)
        return PosRat._reduced(a.num * (n // g), a.den // g)

    def least_multiple_exceeding(self, a: PosRat, b: PosRat) -> int:
        return (b.num * a.den) // (b.den * a.num) + 1

    def ratio_pair(self, a: PosRat, b: PosRat) -> Tuple[int, int]:
        return a.num * b.den, a.den * b.num

    def order(self, a: PosRat, b: PosRat) -> Ordering3:
        c = a._cmp(b)
        if c < 0:
            return Ordering3.less_by(b - a)
        if c > 0:
            return Ordering3.greater_by(a - b)
        return Ordering3.equal()

    def scale(self, a: PosRat, q: PosRat) -> PosRat:
        return a * q

    def random_element(self, rng) -> PosRat:
        # spans magnitudes 2^-16 .. 2^16
        return PosRat(rng.randint(1, 1 << 16), rng.randint(1, 1 << 16))


class RealModel(Model):
    def __init__(self):
        self.descriptor = ModelDescriptor(
            model_id="real",
            discrete=False,
            symmetric=True,
            continuous_at_oracle=True,
            exact_order=False,
            unit=real_from_rat(RAT_ONE),
            smallest=None,
        )

    def owns(self, x) -> bool:
        return isinstance(x, PosRealValue)

    def combine(self, a: PosRealValue, b: PosRealValue) -> PosRealValue:
        return real_add(a, b)

    def multiple(self, n: int, a: PosRealValue) -> PosRealValue:
        # one scaling node, with the leaf reads of n-fold repeated real_add
        return real_scale(a, PosRat._reduced(n, 1))

    def order(self, a, b) -> Ordering3:
        raise InexactModelError(
            "real order is certified three-valued; use real_compare with a precision"
        )

    def certainly_greater(self, a, b) -> bool:
        # Overlap at the top of the default ladder counts as 'not greater':
        # honest for searches that only need a sound upper answer.
        return certify(a, b, ladder())[0] is Rel.GREATER

    def scale(self, a: PosRealValue, q: PosRat) -> PosRealValue:
        return real_scale(a, q)

    def random_element(self, rng) -> PosRealValue:
        return real_from_rat(PosRat(rng.randint(1, 1 << 16), rng.randint(1, 1 << 16)))


NAT = NatModel()
RAT = RatModel()
REAL = RealModel()

_BY_ID = {"nat": NAT, "rat": RAT, "real": REAL}


def model_by_id(model_id: str) -> Model:
    try:
        return _BY_ID[model_id]
    except KeyError:
        raise ModelMismatchError(f"unknown model id {model_id!r}") from None


def model_of(x) -> Model:
    """Infer the shipped model owning a value."""
    if isinstance(x, bool):
        raise ModelMismatchError("booleans are not magnitude elements")
    if isinstance(x, int):
        if x < 1:
            raise ModelMismatchError(f"{x} is not a positive magnitude")
        return NAT
    if isinstance(x, PosRat):
        return RAT
    if isinstance(x, PosRealValue):
        return REAL
    raise ModelMismatchError(f"no shipped model owns {type(x).__name__} values")


def parse_element(model: Model, text: str):
    """Read an element in the model's canonical text form.

    nat: "123"; rat: "num/den"; real: a rational literal promoted to an
    exact real point (arbitrary oracles have no text form).
    """
    if model is NAT:
        return nat_make(text)
    if model is RAT:
        return PosRat.from_text(text)
    if model is REAL:
        return real_from_rat(PosRat.from_text(text))
    raise ModelMismatchError(f"cannot parse elements of {model!r}")


def format_element(x, precision: int = 30) -> str:
    """Canonical text form; reals render as 'mid ± 2^-p'."""
    model = model_of(x)
    if model is NAT:
        return str(x)
    if model is RAT:
        return str(x)
    iv = x.approx(precision)
    digits = max(1, precision * 30103 // 100000)
    return f"{iv.midpoint().decimal(digits)} ± 2^-{precision}"
