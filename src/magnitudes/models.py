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
        # two exact ints >= 1 are the common case and skip the validators
        if num.__class__ is not int or den.__class__ is not int or num < 1 or den < 1:
            check_positive_int(num, "numerator")
            check_positive_int(den, "denominator")
        if den & (den - 1):
            g = gcd(num, den)
        else:  # a power of two, as on every grid: the gcd is num's lowest set bit, or den
            g = num & -num
            if g > den:
                g = den
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
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "PosRat") -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: "PosRat") -> bool:
        return self.num * other.den > other.num * self.den

    def __ge__(self, other: "PosRat") -> bool:
        return self.num * other.den >= other.num * self.den

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
        if lo.num * hi.den > hi.num * lo.den:
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

    A sum, difference or rational scaling is a _Linear node, this class with
    its refine as a method; it records its direct terms in ``_terms``, as
    (value, num, den) triples with the signed integer coefficient num/den,
    and every other value is a leaf of the linear DAG those terms span.  A
    product, quotient or multiplicative multiple x^n likewise records its
    direct factors in ``_factors``, as (value, k, 1) triples with a nonzero
    integer exponent k; every other value is a monomial leaf.
    """

    __slots__ = ("_refine", "_cache", "_best", "_lock", "exact", "_terms", "_factors")

    def __init__(self, refine: Callable[[int], Interval], exact: Optional[PosRat] = None):
        self._refine = refine
        self._cache: dict[int, Interval] = {}
        self._best: Optional[Interval] = None
        self._lock = threading.Lock()
        self.exact = exact
        self._terms: Optional[tuple] = None
        self._factors: Optional[tuple] = None

    def approx(self, p: int) -> Interval:
        # an exact int >= 0 is the common case and skips the type tests
        if p.__class__ is not int or p < 0:
            if isinstance(p, bool) or not isinstance(p, int):
                raise TypeError("precision must be an int")
            if p < 0:
                raise ValueError("precision must be >= 0")
        # acquire and release rather than a with block, whose protocol costs
        # about as much as the rest of a cache hit
        lock = self._lock
        lock.acquire()
        try:
            cached = self._cache.get(p)
            if cached is not None:
                return cached
            try:
                iv = self._refine(p)
            except RecursionError:
                # chains alternating linear and monomial nodes, and powers,
                # still nest one refine inside another; past the
                # interpreter's depth the caller gets the typed resource error
                raise OracleFailureError(f"oracle nesting too deep at precision {p}") from None
            lo, hi = iv.lo, iv.hi
            if (hi.num * lo.den - lo.num * hi.den) << p > hi.den * lo.den:
                raise OracleFailureError(f"refinement wider than 2^-{p}")
            if self._best is not None:
                if not iv.intersects(self._best):
                    raise OracleFailureError("inconsistent refinement oracle")
                iv = iv.intersect(self._best)
            self._best = iv
            self._cache[p] = iv
            return iv
        finally:
            lock.release()

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


def _num_den(t):
    """(num, den) of a known point (nat, rat, or real with ``exact`` set), else None."""
    if isinstance(t, int):
        return t, 1
    q = t if isinstance(t, PosRat) else t.exact
    return None if q is None else (q.num, q.den)


def _point(t):
    """A known point as a PosRat; any other real as given."""
    nd = _num_den(t)
    return t if nd is None else PosRat._reduced(*nd)


def _flatten(terms: tuple, attr: str) -> list:
    """Leaves of the DAG of linear or monomial nodes under a node, with total weights.

    attr names the inner nodes' slot: "_terms", whose weights are signed
    coefficients num/den in lowest terms, den > 0, or "_factors", whose
    weights are integer exponents num/1.  Weights multiply down the DAG and
    are pushed down in topological order over distinct nodes, so a shared
    subnode is expanded once however many paths reach it (k doublings
    c = c + c make k nodes but 2^k paths).  Both walks keep their own stacks,
    so a chain's depth costs memory, not interpreter frames.  A leaf whose
    weights cancel to 0 is dropped.  Each leaf comes back as
    (source, num, den, extra), in the order the second walk first reaches
    it: source is the leaf, or its exact point; num/den is its weight;
    extra = max(0, ceil(log2 |num|/den)).
    """
    # count each inner node's parents, so it is expanded after all of them
    parents: dict = {}
    stack = [terms]
    while stack:
        for node, _, _ in stack.pop():
            children = getattr(node, attr)
            if children is None or node.exact is not None:
                continue
            if node in parents:
                parents[node] += 1
            else:
                parents[node] = 1
                stack.append(children)
    # a leaf's weight gathers in weight; an inner node's in pending, until
    # its last parent has been expanded and it is expanded in turn
    weight: dict = {}
    pending: dict = {}
    ready = [(terms, 1, 1)]
    while ready:
        node_terms, c_num, c_den = ready.pop()
        for child, k_num, k_den in node_terms:
            num, den = c_num * k_num, c_den * k_den
            left = parents.get(child)
            prev = (weight if left is None else pending).get(child)
            if prev is not None:
                num, den = num * prev[1] + prev[0] * den, den * prev[1]
            if den != 1:
                g = gcd(num, den)
                num, den = num // g, den // g
            if left is None:
                weight[child] = (num, den)
            elif left == 1:
                ready.append((getattr(child, attr), num, den))
            else:
                parents[child] = left - 1
                pending[child] = (num, den)
    # ceil(log2 a/b) for a > b is the bit length of floor((a - 1)/b)
    return [
        (node if node.exact is None else node.exact, num, den, ((abs(num) - 1) // den).bit_length())
        for node, (num, den) in weight.items()
        if num
    ]


class _Linear(PosRealValue):
    """One node for sum of c*x over terms, refined from its leaves directly.

    A sum node allocates itself, its terms and their (value, num, den)
    triples, its cache and its lock; its refine is the method below, which
    takes the place of the per-value refine callable, so no function object
    or cell is built per node.  The DAG under the node is flattened (see
    _flatten) on its first refine, under its lock, and the leaves are kept.

    With n leaves, refine(p) works on the grid w = p + ceil(log2 3n).  Each
    leaf is read at w plus its coefficient's bits, so its scaled interval is
    no wider than 2^-w, and its endpoints are floored and ceiled onto the
    grid as integers: 3n ticks of 2^-w at most, so width <= 2^-p.  A single
    scaling (n = 1) reads its leaf at p + 2 + extra.  A negative coefficient
    takes the leaf's upper end into the lower sum and its lower end into the
    upper sum, so only a difference can have a lower sum that is not positive.
    """

    __slots__ = ("_leaves",)

    def __init__(self, terms: tuple, exact: Optional[PosRat]):
        self._cache = {}
        self._best = None
        self._lock = threading.Lock()
        self.exact = exact
        self._terms = terms
        self._factors = None
        self._leaves = None

    def _refine(self, p: int) -> Interval:
        leaves = self._leaves
        if leaves is None:  # under the node's lock, on the first refine
            leaves = self._leaves = _flatten(self._terms, "_terms")
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
                # a power-of-two divisor, as every grid read has, floors by a shift
                n, d = lo.num * u << w, lo.den * v
                lo_ticks += n // d if d & (d - 1) else n >> d.bit_length() - 1
                n, d = -(hi.num * u) << w, hi.den * v
                hi_ticks -= n // d if d & (d - 1) else n >> d.bit_length() - 1
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


def real_add(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Sum node x + y.

    Nested sums, scalings and differences refine as one linear node over
    their leaves (see _Linear): integer endpoint sums on one dyadic grid,
    ceil(log2 3n) guard bits for n leaves, and no recursion through the chain.
    """
    exact = x.exact + y.exact if (x.exact is not None and y.exact is not None) else None
    return _Linear(((x, 1, 1), (y, 1, 1)), exact)


def real_scale(x: PosRealValue, q: PosRat) -> PosRealValue:
    """x scaled by an exact rational factor q > 0, as a linear node.

    Scaling by 1 is x itself, so no node is built.  Alone over a leaf x a
    scaling reads x at p + 2 + max(0, ceil(log2 q)).
    """
    if q == RAT_ONE:
        return x
    exact = x.exact * q if x.exact is not None else None
    return _Linear(((x, q.num, q.den),), exact)


def real_subtract(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Difference node x - y for y < x: the linear node x + (-1)*y (see _Linear).

    Exact points raise NotGreaterError unless y < x; otherwise a refine
    raises OracleFailureError when its grids cannot show x - y > 0.
    """
    exact = x.exact - y.exact if (x.exact is not None and y.exact is not None) else None
    return _Linear(((x, 1, 1), (y, -1, 1)), exact)


PRECISION_GUARD = 8  # guard bits of a non-linear node's working precision


def _grid_refine(inputs: Callable[[], list], ends: Callable, what: str) -> Callable:
    """refine(p) of a product, quotient or power node: one widen-and-retry loop.

    Each try reads the values inputs() gives at one working precision w,
    p + bit_length(p) + PRECISION_GUARD or, when larger, p plus the last
    w - p that worked.  ends(w, reads) gives ticks lo <= hi of 2^-w around
    the value, and the bits the grid falls short of a lower end below it
    (0 if lo >= 1).  A short or too wide grid is refined by the excess plus
    PRECISION_GUARD bits, eight tries at most.  Reading here, not in ends,
    keeps a chain of such nodes at two interpreter frames per level.
    """
    guard = 0

    def refine(p: int) -> Interval:
        nonlocal guard
        w = p + max(p.bit_length() + PRECISION_GUARD, guard)
        values = inputs()
        for _ in range(8):
            reads = []
            for x in values:
                reads.append(x.approx(w))
            lo, hi, short = ends(w, reads)
            short = max(short, (hi - lo).bit_length() - (w - p))
            if short <= 0:
                guard = w - p
                return Interval(PosRat(lo, 1 << w), PosRat(hi, 1 << w))
            w += short + PRECISION_GUARD
        raise OracleFailureError(f"{what} did not reach width 2^-{p} in budget")

    return refine


def _shift(man: int, s: int, up: int) -> int:
    """man / 2^s rounded down (up = 0) or up (up = 1), for man >= 1."""
    return man << -s if s <= 0 else ((man - up) >> s) + up


def _trim(man: int, exp: int, m: int, up: int) -> Tuple[int, int]:
    """The binary float man * 2^exp rounded down or up to its leading m bits,
    or, when it is at least 1, to the bits down to 2^-m."""
    n = man.bit_length()
    s = n - m - max(0, n + exp)
    return (man, exp) if s <= 0 else (((man - up) >> s) + up, exp + s)


def _times_power(acc: tuple, num: int, den: int, k: int, m: int, up: int) -> Tuple[int, int]:
    """The binary float acc = (man, exp) times (num/den)^k, k >= 1, rounded
    down (up = 0) or up (up = 1).

    Square-and-multiply, trimming each step outward (see _trim), so the
    floats stay near m bits whatever k is; an exact power would hold k
    times the bits of num/den.
    """
    man, exp = acc
    if den & (den - 1):  # not a power of two: divide, rounding outward
        t = m + den.bit_length()
        num, den = ((num << t) - up) // den + up, 1 << t
    b, e = num, 1 - den.bit_length()
    while True:
        if k & 1:
            man, exp = _trim(man * b, exp + e, m, up)
        k >>= 1
        if not k:
            return man, exp
        b, e = _trim(b * b, 2 * e, m, up)


def _monomial(factors: tuple) -> PosRealValue:
    """One node for the product of x^k over factors (x, k, 1), k a nonzero int.

    The product DAG is flattened (see _flatten) on the first refine, or at
    once when every factor is exact; exact leaves fold into a coefficient.
    A refine reads the other leaves at one working precision w (see
    _grid_refine) and forms the lower product from each leaf's lower
    endpoint raised to its exponent (for k < 0 the upper one, inverted), and
    the upper product likewise; both are binary floats of w +
    PRECISION_GUARD bits, rounded outward at every step, then rounded
    outward onto the grid 2^-w.  Positive factors are monotone in their
    endpoints, so the value stays enclosed.
    """
    leaves, exponents, coef = None, [], RAT_ONE

    def flat() -> list:
        nonlocal leaves, coef
        if leaves is None:  # under the node's lock, on first refine
            leaves = []
            for src, k, _, _ in _flatten(factors, "_factors"):
                if src.__class__ is PosRat:
                    coef *= src**k if k > 0 else src.reciprocal() ** -k
                else:
                    leaves.append(src)
                    exponents.append(k)
        return leaves

    def product(reads: list, m: int, up: int) -> Tuple[int, int]:
        acc = (1, 0) if coef is RAT_ONE else _times_power((1, 0), coef.num, coef.den, 1, m, up)
        for iv, k in zip(reads, exponents):
            q = iv.lo if (k > 0) != up else iv.hi
            if k > 0:
                acc = _times_power(acc, q.num, q.den, k, m, up)
            else:
                acc = _times_power(acc, q.den, q.num, -k, m, up)
        return acc

    def ends(w: int, reads: list) -> Tuple[int, int, int]:
        lm, le = product(reads, w + PRECISION_GUARD, 0)
        hm, he = product(reads, w + PRECISION_GUARD, 1)
        lo, hi = _shift(lm, -le - w, 0), _shift(hm, -he - w, 1)
        # a lower end below the grid needs the grid 2^-(1 - le - bit_length(lm))
        return lo, hi, 0 if lo >= 1 else 1 - le - lm.bit_length() - w

    if all(x.exact is not None for x, _, _ in factors):
        flat()
        return real_from_rat(coef)
    value = PosRealValue(_grid_refine(flat, ends, "product"))
    value._factors = factors
    return value


def real_mul(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Product node x * y: the monomial x^1 y^1 (see _monomial)."""
    return _monomial(((x, 1, 1), (y, 1, 1)))


def real_div(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Quotient node x / y: the monomial x^1 y^-1, so real_div(x, x) is exactly 1."""
    return _monomial(((x, 1, 1), (y, -1, 1)))


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

    def least_multiple_exceeding(self, a, b) -> int:
        """Least n with n*a certainly above b: floor(b/a) + 1.

        Two points answer exactly.  Otherwise [b.lo/a.hi, b.hi/a.lo] encloses
        b/a on the rungs of ``ladder()``, b read at the rung and a deeper by
        the bits of the last floor(hi), as ``certify`` reads a multiplied
        side, until both ends share a floor.  n > hi gives n*a.lo > b.hi, so
        floor(hi) + 1 is certified and no multiple is built; only within the
        top rung's reach of an integer can it exceed the least n, by one.
        """
        pa, pb = _num_den(a), _num_den(b)
        if pa and pb:
            return (pb[0] * pa[1]) // (pb[1] * pa[0]) + 1
        hi = 0
        for p in ladder():
            x, y = a.approx(p + hi.bit_length()), b.approx(p)
            hi = (y.hi.num * x.lo.den) // (y.hi.den * x.lo.num)
            if (y.lo.num * x.hi.den) // (y.lo.den * x.hi.num) == hi:
                break
        return hi + 1

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
