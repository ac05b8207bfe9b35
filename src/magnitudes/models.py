"""Concrete magnitude models: naturals, positive rationals, positive reals.

* nat  -- arbitrary-precision integers >= 1 (plain ``int``); well ordered.
* rat  -- strictly positive rationals in lowest terms (:class:`PosRat`);
          symmetric, nondiscrete, exact order.
* real -- computable positive reals as precision-indexed rational interval
          oracles (:class:`PosRealValue`); order is certified three-valued,
          never decided by guessing.

All values are immutable and freely shareable between threads.  A real
value's refinement cache is guarded by a lock so concurrent queries at the
same precision observe the identical interval.  A leaf has its lock and
cache from construction; a node takes both on its first refine, so an inner
node that is only ever read through its parent never allocates either.
"""

from __future__ import annotations

import operator
import threading
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Optional, Tuple, Union

from .core import ModelDescriptor, Ordering3, Record, Rel, check_positive_int
from .errors import (
    InexactModelError,
    ModelMismatchError,
    NotGreaterError,
    OracleFailureError,
    ParseError,
    UndecidedError,
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
    "int_to_text",
    "text_to_int",
]


# CPython 3.11+ refuses int/str conversions of more digits than
# sys.get_int_max_str_digits() (4,300 by default, never below 640).  Numbers
# shorter than that floor take str and int; longer ones go through Decimal,
# whose conversions to and from int and text have no digit limit, and which
# is imported only then, as importing the package loads no decimal module.
def int_to_text(n: int) -> str:
    """str(n) for an int n >= 0 of any number of digits."""
    if n.bit_length() < 2000:
        return str(n)
    from decimal import Decimal

    return str(Decimal(n))


def text_to_int(text: str) -> int:
    """int(text) for a numeral of any number of digits."""
    if len(text) < 640 or not text.strip().isdecimal():
        return int(text)
    from decimal import Decimal

    return int(Decimal(text))


class PosRat:
    """Strictly positive rational, always in lowest terms.

    Subtraction is partial: ``a - b`` requires b < a, mirroring the ambient
    order structure (there is no zero to land on).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        """num/den in lowest terms.  Over a power-of-two den, as on every grid,
        an odd num is kept as it is and an even one shifts right, with den, by
        the lesser of its trailing zeros and log2(den); any other den divides
        out the gcd."""
        # two exact ints >= 1 are the common case and skip the validators
        if num.__class__ is not int or den.__class__ is not int or num < 1 or den < 1:
            check_positive_int(num, "numerator")
            check_positive_int(den, "denominator")
        if den & (den - 1):
            g = gcd(num, den)
            num, den = num // g, den // g
        elif den > 1 and not num & 1:
            s, t = (num & -num).bit_length(), den.bit_length()
            s = (s if s < t else t) - 1
            num, den = num >> s, den >> s
        self.num = num
        self.den = den

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
        if not (num.strip().isdecimal() and den.strip().isdecimal()):
            raise ParseError(f"malformed rational {text!r}")
        n, d = text_to_int(num), text_to_int(den)
        if n < 1 or d < 1:
            raise ParseError(f"rational must be strictly positive: {text!r}")
        return cls(n, d)

    # -- arithmetic ---------------------------------------------------

    # The four operations fill their result in place, as _reduced does,
    # without the classmethod's call.

    def __add__(self, other: "PosRat") -> "PosRat":
        num = self.num * other.den + other.num * self.den
        den = self.den * other.den
        g = gcd(num, den)
        out = object.__new__(PosRat)
        out.num = num // g
        out.den = den // g
        return out

    def __sub__(self, other: "PosRat") -> "PosRat":
        num = self.num * other.den - other.num * self.den
        if num <= 0:
            raise NotGreaterError("difference of positive rationals needs the minuend larger")
        den = self.den * other.den
        g = gcd(num, den)
        out = object.__new__(PosRat)
        out.num = num // g
        out.den = den // g
        return out

    def __mul__(self, other: "PosRat") -> "PosRat":
        g1 = gcd(self.num, other.den)
        g2 = gcd(other.num, self.den)
        out = object.__new__(PosRat)
        out.num = (self.num // g1) * (other.num // g2)
        out.den = (self.den // g2) * (other.den // g1)
        return out

    def __truediv__(self, other: "PosRat") -> "PosRat":
        g1 = gcd(self.num, other.num)
        g2 = gcd(other.den, self.den)
        out = object.__new__(PosRat)
        out.num = (self.num // g1) * (other.den // g2)
        out.den = (self.den // g2) * (other.num // g1)
        return out

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

    # A rational is its own degenerate interval [self, self].  Kept public;
    # the ladders pin a point once as Interval(q, q) and never read these.
    @property
    def lo(self) -> "PosRat":
        return self

    hi = lo

    # -- rendering / misc ----------------------------------------------

    def __str__(self) -> str:
        return f"{int_to_text(self.num)}/{int_to_text(self.den)}"

    def __repr__(self) -> str:
        return f"PosRat({self.num}, {self.den})"

    def decimal(self, digits: int) -> str:
        """Decimal rendering truncated toward zero at ``digits`` places."""
        whole, rem = divmod(self.num, self.den)
        if digits <= 0:
            return int_to_text(whole)
        frac = rem * 10**digits // self.den
        return f"{int_to_text(whole)}.{int_to_text(frac).zfill(digits)}"


RAT_ONE = PosRat._reduced(1, 1)


def nat_make(text: str) -> int:
    """Parse a strictly positive decimal integer."""
    s = text.strip()
    if not s.isdecimal():
        raise ParseError(f"not a decimal natural: {text!r}")
    value = text_to_int(s)
    if value < 1:
        raise ParseError("naturals start at 1; there is no zero magnitude")
    return value


def rat_make(num: int, den: int) -> PosRat:
    """Positive rational from positive integer parts, reduced."""
    return PosRat(num, den)


# From this many bits up, of hi's denominator in Interval and of the
# precision in approx, whose reads have denominators about that long, dyadic
# ends are ordered and tested by aligning them with shifts (see _less and
# _wider): two products of such numbers cost more than the shifts above
# about 128-200 bits, and less below.
SHIFT_CHECK_BITS = 192
_SHIFT_CHECK_DEN = 1 << SHIFT_CHECK_BITS


def _less(a: PosRat, b: PosRat) -> bool:
    """a < b, dyadic ends aligned by a shift rather than multiplied."""
    ad, bd = a.den, b.den
    if ad & (ad - 1) or bd & (bd - 1):
        return a.num * bd < b.num * ad
    s, t = ad.bit_length(), bd.bit_length()
    return (a.num << t - s) < b.num if s <= t else a.num < (b.num << s - t)


class Interval:
    """Closed interval with exact positive rational endpoints.

    The constructor raises ValueError when lo > hi.  It orders the ends by
    cross-multiplication below 2^SHIFT_CHECK_BITS of hi's denominator, and
    from there up by _less, which aligns dyadic ends, as every read on a
    binary grid has, by a shift: so an oracle's read of any precision costs
    its order check in linear time.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: PosRat, hi: PosRat):
        hd = hi.den
        if (lo.num * hd > hi.num * lo.den) if hd < _SHIFT_CHECK_DEN else _less(hi, lo):
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


# the allocation of the unchecked constructors, one lookup cheaper
_new = object.__new__

# held only while a node's first read publishes its lock and cache
_FIRST_REFINE = threading.Lock()


class PosRealValue:
    """Computable positive real: a refinement oracle plus its cache.

    ``approx(p)`` returns a rational interval of width at most 2**-p that
    contains the value.  Refinements are memoized and intersected with the
    best interval seen so far, so repeated queries are idempotent and any
    two cached intervals intersect.

    ``exact`` optionally records that the value is a known rational point,
    enabling exact fast paths downstream.

    A value built from a refine callable is a leaf, as is an exact point;
    it has its lock and cache from construction.  Every other value the
    operators compute is a _Node, a subclass whose refine is a method, and
    which makes its lock and cache on its first ``approx``.  A refine that
    lies inside the best interval so far is cached as it is; one that
    sticks out of it is intersected with it.
    """

    __slots__ = ("_refine", "_cache", "_best", "_lock", "exact")

    def __init__(self, refine: Callable[[int], Interval], exact: Optional[PosRat] = None):
        self._refine = refine
        self._cache: dict[int, Interval] = {}
        self._best: Optional[Interval] = None
        self._lock = threading.Lock()
        self.exact = exact

    def approx(self, p: int) -> Interval:
        """An interval of width at most 2^-p holding the value: cached, or
        refined and checked.  A refinement is checked for its width and
        tested against the best interval so far, which it is intersected
        with only if it sticks out, raising OracleFailureError when it is too
        wide or disjoint from the best.  Below SHIFT_CHECK_BITS of precision
        both tests cross-multiply the ends; from there up they align dyadic
        ends by shifts (see _wider and _less).  A node's first read takes
        _Node._first_read, which needs neither test."""
        # an exact int >= 0 is the common case and skips the type tests
        if p.__class__ is not int or p < 0:
            if isinstance(p, bool) or not isinstance(p, int):
                raise TypeError("precision must be an int")
            if p < 0:
                raise ValueError("precision must be >= 0")
        # acquire and release rather than a with block, whose protocol costs
        # about as much as the rest of a cache hit
        lock = self._lock
        if lock is None:  # only a node that was never read has no lock
            return self._first_read(p)
        lock.acquire()
        try:
            cached = self._cache.get(p)
            if cached is not None:
                return cached
            try:
                iv = self._refine(p)
            except RecursionError:
                # a node's refine nests no other refine, but a leaf's refine
                # callable may itself call approx; past the interpreter's
                # depth the caller gets the typed resource error
                raise OracleFailureError(f"oracle nesting too deep at precision {p}") from None
            lo, hi = iv.lo, iv.hi
            if (
                (hi.num * lo.den - lo.num * hi.den) << p > hi.den * lo.den
                if p < SHIFT_CHECK_BITS
                else _wider(lo, hi, p)
            ):
                raise OracleFailureError(f"refinement wider than 2^-{p}")
            best = self._best
            if best is not None:  # lo < best.lo or best.hi < hi
                blo, bhi = best.lo, best.hi
                if (
                    lo.num * blo.den < blo.num * lo.den or bhi.num * hi.den < hi.num * bhi.den
                    if p < SHIFT_CHECK_BITS
                    else _less(lo, blo) or _less(bhi, hi)
                ):
                    if not iv.intersects(best):
                        raise OracleFailureError("inconsistent refinement oracle")
                    iv = iv.intersect(best)
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


def _wider(lo: PosRat, hi: PosRat, p: int) -> bool:
    """hi - lo > 2^-p, dyadic ends aligned by a shift rather than multiplied."""
    ld, hd = lo.den, hi.den
    if ld & (ld - 1) or hd & (hd - 1):
        return (hi.num * ld - lo.num * hd) << p > hd * ld
    # both ends as numerators over 2^e; the width is ticks / 2^e
    s, t = ld.bit_length(), hd.bit_length()
    if s < t:
        ticks, e = hi.num - (lo.num << (t - s)), t - 1
    else:
        ticks, e = (hi.num << (s - t)) - lo.num, s - 1
    return ticks > 1 << (e - p) if e >= p else ticks > 0


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


def _point(q: PosRat) -> Interval:
    """q as the interval [q, q], for a ladder to read on every rung; unchecked,
    as it is ordered by construction."""
    iv = _new(Interval)
    iv.lo = iv.hi = q
    return iv


PRECISION_GUARD = 8  # guard bits of a pass's working precision


class _Node(PosRealValue):
    """A value an operator computed: a slotted subclass per node kind.

    ``_terms`` holds the node's inputs, each a bare value when its weight is
    1 and (value, num, den) otherwise, the kind giving num/den its meaning:
    a sum, a product or a power holds its two values, and costs itself and
    one tuple.  ``_setup`` finds ``_leaves``, what the node reads, in the
    same form (see _flatten), and ``_nodes``, the nodes of other kinds among
    them, setting ``_leaves`` last, as an inner node is set up outside its
    lock.  A node
    never calls PosRealValue.__init__ (``_refine`` is a method); it makes
    its lock and cache on its first ``approx``, which an inner node never has.
    An operator whose inputs are all exact points returns that point, so no
    node is ever exact: ``exact`` is None on the class.

    refine(p) is one forward pass over the nodes under the root, each after
    those it reads, at one working precision w: a kind's ``_ends(w, ends)``
    gives ticks lo <= hi of 2^-w from its leaves' reads and its node inputs'
    (lo, hi) ticks in ``ends``, and the bits its lower end falls short of a
    tick; the root's ticks become the Interval a read returns.  The first w
    is p plus ceil(log2 3n) for a sum of n leaves, else plus bit_length(p)
    + PRECISION_GUARD: it depends on p and the node's kind alone, never on
    earlier reads.  Over nodes of other kinds, whose widths add up, every
    pass rounds w up to a whole 32-bit word.  A short lower end or a root
    wider than 2^-p reruns the pass at w + the excess + PRECISION_GUARD,
    eight passes at most.  No refine nests another, so depth costs no
    interpreter frames.
    """

    __slots__ = ("_terms", "_leaves", "_nodes")
    exact = None

    def __init__(self, terms: tuple):
        self._best = None
        self._lock = None
        self._terms = terms
        self._leaves = None

    def _first_read(self, p: int) -> Interval:
        """approx(p) on the node's first read: make its lock, taken, and its
        cache, and publish both, the cache first, so that a thread that finds
        the lock finds the cache and waits for this read.  A pass meets its
        width by construction, and no read came before to disagree with, so
        the interval is cached as it is.  A node another thread published
        first is read by approx."""
        _FIRST_REFINE.acquire()
        try:
            lock = None
            if self._lock is None:
                lock = threading.Lock()
                lock.acquire()  # a fresh lock: this never waits
                self._cache = {}
                self._lock = lock
        finally:
            _FIRST_REFINE.release()
        if lock is None:
            return self.approx(p)
        try:
            self._best = self._cache[p] = iv = self._refine(p)
            return iv
        except RecursionError:
            raise OracleFailureError(f"oracle nesting too deep at precision {p}") from None
        finally:
            lock.release()

    def _refine(self, p: int) -> Interval:
        if self._leaves is None:  # under the node's lock, on its first refine
            self._setup()
        below = self._below() if self._nodes else ()
        # each pass writes a node's ticks before any node that reads them
        ends = {} if below else ()
        if self.__class__ is _Linear:
            w = p + (3 * len(self._leaves) - 1).bit_length()
        else:
            w = p + p.bit_length() + PRECISION_GUARD
        for _ in range(8):
            if below:  # a root over nodes of other kinds passes on whole words
                w += -w & 31
            for node in below:
                lo, hi, short = node._ends(w, ends)
                if short > 0:
                    break
                ends[node] = lo, hi
            else:
                lo, hi, short = self._ends(w, ends)
                wide = (hi - lo).bit_length() - (w - p)
                if wide > short:
                    short = wide
                if short <= 0:
                    return _interval(lo, hi, w)
            w += short + PRECISION_GUARD
        raise OracleFailureError(f"eight passes did not reach width 2^-{p} with positive lower ends")

    def _below(self) -> list:
        """Every node under this one, each after the nodes it reads."""
        order, seen, stack = [], {self}, [(x, False) for x in self._nodes]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
            elif node not in seen:
                seen.add(node)
                if node._leaves is None:
                    node._setup()
                stack.append((node, True))
                stack += [(x, False) for x in node._nodes]
        return order


def _interval(lo: int, hi: int, w: int) -> Interval:
    """Ticks 1 <= lo <= hi of 2^-w as an interval, unchecked, each end t
    reduced by shifts as PosRat(t, 2^w) reduces it: an odd t is in lowest
    terms, and an even one shifts right by the lesser of its trailing zeros
    and w."""
    iv = _new(Interval)
    iv.lo, iv.hi = a, b = _new(PosRat), _new(PosRat)
    if lo & 1:
        a.num, a.den = lo, 1 << w
    else:
        s = (lo & -lo).bit_length() - 1
        s = s if s < w else w
        a.num, a.den = lo >> s, 1 << (w - s)
    if hi & 1:
        b.num, b.den = hi, 1 << w
    else:
        t = (hi & -hi).bit_length() - 1
        t = t if t < w else w
        b.num, b.den = hi >> t, 1 << (w - t)
    return iv


def _flatten(terms: tuple, kind: type, points: Optional[list] = None) -> Tuple[list, tuple]:
    """Leaves of the DAG of one node kind under a node, with total weights,
    and the nodes of other kinds among them.

    terms are a node's (see _Node).  kind is _Linear, whose weights are
    signed coefficients num/den in lowest terms, den > 0, or _Monomial,
    whose weights are integer exponents num/1.  A value of class kind is an
    inner node, whose terms are expanded (no node is an exact point); any
    other value is a leaf, an exact point, a node of another kind or a
    user's PosRealValue subclass included.  Plain terms, with no inner node
    among them and no value twice, as a product or a scaling of leaves has,
    are the leaves themselves, in lowest terms already, and take no walk.
    Otherwise weights multiply down the DAG (see _push_down).  A tree of
    inner nodes, as a chain is, takes one walk; only when that walk reaches
    an inner node twice are the parents counted and the weights pushed down
    again, in topological order over distinct nodes, so a shared subnode is
    expanded once however many paths reach it (k doublings c = c + c make k
    nodes but 2^k paths).  The walks keep their own stacks, so a chain's
    depth costs memory, not interpreter frames.  A leaf whose weights cancel
    to 0 is dropped.  The leaves come back in the order the last walk first
    reaches them, each as its source, the leaf or its exact point, when its
    weight is 1, else as (source, num, den, extra): num/den is its weight
    and extra = max(0, ceil(log2 |num|/den)).  Given a list points, an
    exact point goes there instead, as (point, num), and not among the leaves.
    """
    # plain terms are their own weights, read in one pass, with weight as
    # the set of values seen; anything else takes the walks
    weight: Optional[dict] = {}
    leaves, nodes = [], []
    for node in terms:
        num = den = 1
        if node.__class__ is tuple:
            node, num, den = node
        if node.__class__ is kind or node in weight:
            weight = _push_down(terms, kind, None)
            break
        weight[node] = None
        if num:
            q = node.exact
            if q is None:
                if isinstance(node, _Node):
                    nodes.append(node)
                q = node
            elif points is not None:
                points.append((q, num))
                continue
            # ceil(log2 a/b) for a > b is the bit length of floor((a - 1)/b)
            leaves.append(q if num == 1 == den else (q, num, den, ((abs(num) - 1) // den).bit_length()))
    else:
        return leaves, nodes or ()
    if weight is None:
        # count each inner node's parents, so it is expanded after all of them
        parents: dict = {}
        stack = [terms]
        while stack:
            for node in stack.pop():
                if node.__class__ is tuple:
                    node = node[0]
                if node.__class__ is not kind:
                    continue
                if node in parents:
                    parents[node] += 1
                else:
                    parents[node] = 1
                    stack.append(node._terms)
        weight = _push_down(terms, kind, parents)
    leaves, nodes = [], []
    if points:  # what the pass over the terms found
        points.clear()
    for node, (num, den) in weight.items():
        if num:
            q = node.exact
            if q is None:
                if isinstance(node, _Node):
                    nodes.append(node)
                q = node
            elif points is not None:
                points.append((q, num))
                continue
            leaves.append(q if num == 1 == den else (q, num, den, ((abs(num) - 1) // den).bit_length()))
    return leaves, nodes or ()


def _push_down(terms: tuple, kind: type, parents: Optional[dict]) -> Optional[dict]:
    """The weights (num, den) of the leaves under terms (see _flatten), in
    the order reached.

    With parents, the count of each inner node's parents, an inner node's
    weight gathers in pending until its last parent has been expanded, and
    it is expanded in turn.  Without, each inner node is expanded where it is
    reached, and None comes back if one is reached a second time.
    """
    weight: dict = {}
    pending: dict = {}
    expanded = set()
    ready = [(terms, 1, 1)]
    while ready:
        node_terms, c_num, c_den = ready.pop()
        for child in node_terms:
            if child.__class__ is tuple:
                child, num, den = child
                num, den = c_num * num, c_den * den
            else:
                num, den = c_num, c_den
            if parents is not None:
                left = parents.get(child)
            elif child.__class__ is not kind:
                left = None
            elif child in expanded:
                return None
            else:
                expanded.add(child)
                left = 1
            prev = (weight if left is None else pending).get(child)
            if prev is not None:
                num, den = num * prev[1] + prev[0] * den, den * prev[1]
            if den != 1:
                g = gcd(num, den)
                num, den = num // g, den // g
            if left is None:
                weight[child] = (num, den)
            elif left == 1:
                ready.append((child._terms, num, den))
            else:
                parents[child] = left - 1
                pending[child] = (num, den)
    return weight


class _Linear(_Node):
    """One node for the sum of c*x over its terms, x for c = 1 or (x, num,
    den) for c = num/den signed.

    The DAG under the node is flattened (see _flatten).  With n leaves, a
    root's first pass is on the grid w = p + ceil(log2 3n).  Each leaf is
    read at w plus its coefficient's bits, so its scaled interval is no
    wider than 2^-w, and its endpoints are floored and ceiled onto the grid
    as integers: 3n ticks of 2^-w at most, so width <= 2^-p.  A single
    scaling (n = 1) reads its leaf at p + 2 + extra; a node input's ticks
    are on the grid already.  A negative coefficient takes an input's
    upper end into the lower sum and its lower end into the upper sum, so
    only a difference can have a lower sum that is not positive.
    """

    __slots__ = ()

    def _setup(self) -> None:
        leaves, self._nodes = _flatten(self._terms, _Linear)
        self._leaves = leaves

    def _ends(self, w: int, ends: dict) -> Tuple[int, int, int]:
        """Ticks lo <= hi of 2^-w around the sum, and the bits the lower end
        falls short of a tick (see _Node).  Each leaf's ends, times its
        coefficient num/den, are floored into lo and ceiled into hi.  A
        power-of-two denominator 2^s, as every read on a grid has, is
        shifted out of end*num*2^w first, as _grid does, and den alone
        divides, so a scaled read costs about its leaf read at any
        precision; any other denominator divides once, times den."""
        lo_ticks = hi_ticks = 0
        for src in self._leaves:
            if src.__class__ is not tuple:  # weight 1: the ends themselves
                if src.__class__ is not PosRat:
                    if src in ends:
                        lo, hi = ends[src]
                        lo_ticks += lo
                        hi_ticks += hi
                        continue
                    src = src.approx(w)
                lo, hi = src.lo, src.hi
                d = lo.den
                lo_ticks += (lo.num << w) // d if d & (d - 1) else lo.num << w >> d.bit_length() - 1
                d = hi.den
                hi_ticks -= (-hi.num << w) // d if d & (d - 1) else -hi.num << w >> d.bit_length() - 1
                continue
            src, u, v, extra = src
            if src.__class__ is not PosRat:
                if src in ends:  # a node input's ticks, scaled and rounded outward
                    lo, hi = ends[src] if u > 0 else ends[src][::-1]
                    lo_ticks += lo * u // v
                    hi_ticks -= -(hi * u) // v
                    continue
                src = src.approx(w + extra)
            if u > 0:
                lo, hi = src.lo, src.hi
            else:
                lo, hi = src.hi, src.lo
            # a read's power of two 2^s, as on every grid, is shifted out of
            # the end times 2^w before the one division, by v, as _grid does;
            # inline, as two calls per leaf cost more than that at 30 bits
            n, d = lo.num * u, lo.den
            if d & (d - 1):
                lo_ticks += (n << w) // (d * v)
            else:
                s = d.bit_length() - 1
                lo_ticks += (n << w - s if s <= w else n >> s - w) // v
            n, d = -(hi.num * u), hi.den
            if d & (d - 1):
                hi_ticks -= (n << w) // (d * v)
            else:
                s = d.bit_length() - 1
                hi_ticks -= (n << w - s if s <= w else n >> s - w) // v
        if hi_ticks < 1:
            raise OracleFailureError("difference is not positive")
        if lo_ticks >= 1:
            return lo_ticks, hi_ticks, 0
        # the grid floor reached zero: the exact lower sum, if positive, sizes
        # the next grid, and a difference not yet positive doubles it
        num, den = 0, 1
        for src in self._leaves:
            u, v, extra = 1, 1, 0
            if src.__class__ is tuple:
                src, u, v, extra = src
            if src.__class__ is not PosRat:  # a read hits the cache; a node input's end is a tick
                src = PosRat(ends[src][u < 0], 1 << w) if src in ends else src.approx(w + extra)
            a = src.lo if u > 0 else src.hi
            num, den = num * a.den * v + a.num * u * den, den * a.den * v
            g = gcd(num, den)
            num, den = num // g, den // g
        return lo_ticks, hi_ticks, max(1, den.bit_length() - num.bit_length() + 1 - w) if num > 0 else w


def real_add(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """x + y: the exact point when both are exact points, else a sum node.

    The node's terms are (x, y), with no weights stored, so a link of a
    chain of sums costs the node and one tuple.  Nested sums, scalings and
    differences refine as one linear node over their leaves (see _Linear):
    integer endpoint sums on one dyadic grid, ceil(log2 3n) guard bits for n
    leaves, and no recursion through the chain.
    """
    if x.exact is not None and y.exact is not None:
        return real_from_rat(x.exact + y.exact)
    return _Linear((x, y))


def real_scale(x: PosRealValue, q: PosRat) -> PosRealValue:
    """x scaled by an exact rational factor q > 0: the exact point when x is
    one, else a linear node.

    Scaling by 1 is x itself, so no node is built.  Alone over a leaf x a
    scaling reads x at p + 2 + max(0, ceil(log2 q)).
    """
    if q == RAT_ONE:
        return x
    if x.exact is not None:
        return real_from_rat(x.exact * q)
    return _Linear(((x, q.num, q.den),))


def real_subtract(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """x - y for y < x: the exact point when both are exact points, else the
    linear node x + (-1)*y (see _Linear).

    Exact points raise NotGreaterError unless y < x; otherwise a refine
    raises OracleFailureError when its grids cannot show x - y > 0.
    """
    if x.exact is not None and y.exact is not None:
        return real_from_rat(x.exact - y.exact)
    return _Linear((x, (y, -1, 1)))


def _round(n: int, d: int, m: int, up: int) -> Tuple[int, int]:
    """n/d > 0 rounded down (up = 0) or up (up = 1) to a binary fraction
    num/2^s of its leading m bits, or, when it is at least 1, of its bits
    down to 2^-m; a dyadic n/d already that fine comes back as it is."""
    s = d.bit_length() - n.bit_length()
    s = m + s if s > 0 else m
    if d & (d - 1):
        return ((n << s) - up) // d + up, 1 << s
    t = d.bit_length() - 1
    return (n, d) if t <= s else (((n - up) >> t - s) + up, 1 << s)


def _fold(factors: tuple) -> Tuple[list, list, PosRat]:
    """The leaves of a product DAG and the nodes among them (see _flatten),
    less its exact leaves, and the coefficient those multiply out to."""
    points: list = []
    leaves, nodes = _flatten(factors, _Monomial, points)
    coef = RAT_ONE
    for q, k in points:
        coef *= q**k if k > 0 else q.reciprocal() ** -k
    return leaves, nodes, coef


class _Monomial(_Node):
    """One node for the product of x^k over its terms, x for k = 1 or (x,
    k, 1) for another nonzero int k.

    The product DAG is flattened (see _fold); exact leaves fold into _coef,
    and the others are kept with their exponents.  A pass at w reads them at
    w, or as ticks of 2^-w, and forms in one walk the lower product of each
    lower end raised to its exponent (for k < 0 the upper one, inverted)
    and the upper product likewise, as integer fractions: numerators,
    denominators and _coef multiply exactly, a power-of-two denominator by
    a shift, once for k = +-1 and for |k| > 1 by square-and-multiply whose
    squares are rounded outward (see _round) to m = w + PRECISION_GUARD
    bits.  Before it takes a factor, an accumulator of more than m + 64 bits
    is rounded outward to m, so a product of two leaves stays exact.  Each
    end is then rounded once onto the grid (see _grid), floored for lo,
    ceiled for hi.  Positive factors are monotone in their endpoints, so
    the value stays enclosed.
    """

    __slots__ = ("_coef",)

    def _setup(self) -> None:
        leaves, self._nodes, self._coef = _fold(self._terms)
        self._leaves = leaves

    def _ends(self, w: int, ends: dict) -> Tuple[int, int, int]:
        m = w + PRECISION_GUARD
        cap = m + 64
        ln = hn = self._coef.num
        ld = hd = self._coef.den
        for x in self._leaves:
            k = 1
            if x.__class__ is tuple:
                x, k, _, _ = x
            if (ln | ld | hn | hd).bit_length() > cap:
                ln, ld = _round(ln, ld, m, 0)
                hn, hd = _round(hn, hd, m, 1)
            if x in ends:
                a, c = ends[x]
                b = d = 1 << w
            else:
                iv = x.approx(w)
                lo, hi = iv.lo, iv.hi
                a, b, c, d = lo.num, lo.den, hi.num, hi.den
            if k < 0:  # 1/x runs from 1/hi to 1/lo
                a, b, c, d, k = d, c, b, a, -k
            # an exact power would hold k times the bits of the read; the
            # loop takes the bits of k below its top one, and k = 1 none
            while k > 1:
                if k & 1:
                    ln, hn = ln * a, hn * c
                    ld = ld * b if b & (b - 1) else ld << b.bit_length() - 1
                    hd = hd * d if d & (d - 1) else hd << d.bit_length() - 1
                k >>= 1
                # a power-of-two denominator, as grid reads give, squares by a shift
                a, b = _round(a * a, b * b if b & (b - 1) else b << b.bit_length() - 1, m, 0)
                c, d = _round(c * c, d * d if d & (d - 1) else d << d.bit_length() - 1, m, 1)
            # and multiplies by a shift
            ln, hn = ln * a, hn * c
            ld = ld * b if b & (b - 1) else ld << b.bit_length() - 1
            hd = hd * d if d & (d - 1) else hd << d.bit_length() - 1
        lo, hi = _grid(ln, ld, w, 0), _grid(hn, hd, w, 1)
        # a lower end below the grid, at least 2^(bits of ln - bits of ld - 1),
        # needs the grid that many bits finer
        return lo, hi, 0 if lo else ld.bit_length() - ln.bit_length() + 1 - w


def _grid(n: int, d: int, w: int, up: int) -> int:
    """n/d > 0 as ticks of 2^-w, floored (up = 0) or ceiled (up = 1).  The
    power of two 2^s in d is shifted out of n*2^w with the same rounding
    before the one division by the odd rest o of d: floor(a/(o*2^s)) =
    floor(floor(a/2^s)/o), and likewise for ceilings.  So a dyadic d, as a
    read on a binary grid has, costs shifts and no division, and a read of
    any precision rounds in linear time.  Monomial ends and a power's base
    round onto the grid through it; _Linear._ends inlines the same steps."""
    s = (d & -d).bit_length() - 1
    if s <= w:
        n <<= w - s
    else:  # a ceiling is minus the floor of minus
        n = -(-n >> s - w) if up else n >> s - w
    o = d >> s
    if o == 1:
        return n
    return -(-n // o) if up else n // o


def _monomial(factors: tuple) -> PosRealValue:
    """The node of real_mul, real_div and MUL.multiple; exact factors give a point."""
    for x in factors:
        if (x[0] if x.__class__ is tuple else x).exact is None:
            return _Monomial(factors)
    return real_from_rat(_fold(factors)[2])


def real_mul(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Product node x * y: the monomial over terms (x, y) (see _Monomial)."""
    return _monomial((x, y))


def real_div(x: PosRealValue, y: PosRealValue) -> PosRealValue:
    """Quotient node x / y: the monomial x^1 y^-1, so real_div(x, x) is exactly 1."""
    return _monomial((x, (y, -1, 1)))


@lru_cache(maxsize=64)
def ladder(cap: int = 256) -> Tuple[int, ...]:
    """The precision ladder: 4, 8, 16, ... doubling while below cap, then cap.

    Certified real comparisons escalate along it; 256 is the give-up point
    when no caller-specific cap applies.  A ratio comparison asks for one
    per call, so the 64 used last are kept.
    """
    rungs = []
    p = 4
    while p < cap:
        rungs.append(p)
        p *= 2
    rungs.append(cap)
    return tuple(rungs)


def certify(
    x: Union[int, PosRat, PosRealValue],
    y: Union[int, PosRat, PosRealValue],
    rungs: Iterable[int],
    m: int = 1,
    n: int = 1,
) -> Tuple[Optional[Rel], int]:
    """First strict verdict of m*x against n*y on the rungs, with its rung.

    A verdict needs disjoint scaled intervals at one rung.  When no rung
    separates the sides the answer is (None, last rung).  Either side may be
    a nat or rat term, pinned once as the point Interval(q, q), so a rung
    reads only the real sides and builds no oracle; an exact real is read
    through its cached point like any other real.
    At rung p a real side is read ceil(log2) of its multiplier bits deeper,
    so its scaled interval is no wider than 2^-p, as multiple(m, x).approx(p)
    would be; the multiple itself is never built.
    """
    ex, ey = (m - 1).bit_length(), (n - 1).bit_length()
    if not isinstance(x, PosRealValue):
        x = _point(x if x.__class__ is PosRat else PosRat._reduced(*_num_den(x)))
    if not isinstance(y, PosRealValue):
        y = _point(y if y.__class__ is PosRat else PosRat._reduced(*_num_den(y)))
    p = 0
    for p in rungs:
        a = x if x.__class__ is Interval else x.approx(p + ex)
        b = y if y.__class__ is Interval else y.approx(p + ey)
        if m * a.hi.num * b.lo.den < n * b.lo.num * a.hi.den:
            return Rel.LESS, p
        if n * b.hi.num * a.lo.den < m * a.lo.num * b.hi.den:
            return Rel.GREATER, p
    return None, p


def _certified_order(a: PosRealValue, b: PosRealValue, gap: Callable) -> Ordering3:
    """The order of a real-valued model: certified on ``ladder()``, the
    witness built by gap(larger, smaller).  Equality of reals is
    undecidable, so EQUAL is never returned: sides still overlapping at the
    top rung, equal ones included, raise UndecidedError."""
    out, p = certify(a, b, ladder())
    if out is Rel.LESS:
        return Ordering3.less_by(gap(b, a))
    if out is Rel.GREATER:
        return Ordering3.greater_by(gap(a, b))
    raise UndecidedError(f"real comparison overlapped through precision {p}")


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
    descriptor = ModelDescriptor(
        model_id="nat",
        symmetric=False,
        exact_order=True,
        unit=1,
        smallest=1,
    )

    def owns(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= 1

    def check(self, x):
        # an exact int >= 1 is the common case; anything else takes owns()
        return x if x.__class__ is int and x >= 1 else Model.check(self, x)

    combine = operator.add

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
        """Uniform on 1..2^32, from one 32-bit word."""
        return rng.getrandbits(32) + 1


class RatModel(Model):
    descriptor = ModelDescriptor(
        model_id="rat",
        symmetric=True,
        exact_order=True,
        unit=RAT_ONE,
        smallest=None,
    )

    def owns(self, x) -> bool:
        return isinstance(x, PosRat)

    def check(self, x):
        return x if x.__class__ is PosRat else Model.check(self, x)

    combine = staticmethod(PosRat.__add__)

    def multiple(self, n: int, a: PosRat) -> PosRat:
        # gcd(n/g, den/g) = 1 and gcd(num, den) = 1: already in lowest terms
        g = gcd(n, a.den)
        out = object.__new__(PosRat)
        out.num = a.num * (n // g)
        out.den = a.den // g
        return out

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
        """num/den, each uniform on 1..2^16, from the high and low halves of
        one 32-bit word; spans magnitudes 2^-16 .. 2^16.  Filled in place
        over one gcd, as both halves are ints >= 1."""
        w = rng.getrandbits(32)
        num, den = (w >> 16) + 1, (w & 0xFFFF) + 1
        g = gcd(num, den)
        out = object.__new__(PosRat)
        out.num = num // g
        out.den = den // g
        return out


class RealModel(Model):
    descriptor = ModelDescriptor(
        model_id="real",
        symmetric=True,
        exact_order=False,
        unit=real_from_rat(RAT_ONE),
        smallest=None,
    )

    def owns(self, x) -> bool:
        return isinstance(x, PosRealValue)

    def check(self, x):
        return x if isinstance(x, PosRealValue) else Model.check(self, x)

    combine = staticmethod(real_add)

    def multiple(self, n: int, a: PosRealValue) -> PosRealValue:
        # one scaling node, with the leaf reads of n-fold repeated real_add
        return real_scale(a, PosRat._reduced(n, 1))

    def order(self, a: PosRealValue, b: PosRealValue) -> Ordering3:
        """Certified, with the difference node as the gap (see _certified_order)."""
        return _certified_order(a, b, real_subtract)

    def scale(self, a: PosRealValue, q: PosRat) -> PosRealValue:
        return real_scale(a, q)

    def random_element(self, rng) -> PosRealValue:
        """The exact point of ``RAT.random_element``: one 32-bit word."""
        return real_from_rat(RAT.random_element(rng))


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
    if x.__class__ is PosRat:  # the common case skips the tests below
        return RAT
    if isinstance(x, PosRealValue):  # no class is also an int or PosRat: the layouts conflict
        return REAL
    if isinstance(x, bool):
        raise ModelMismatchError("booleans are not magnitude elements")
    if isinstance(x, int):
        if x < 1:
            raise ModelMismatchError(f"{x} is not a positive magnitude")
        return NAT
    if isinstance(x, PosRat):
        return RAT
    from .power import MUL, MulReal  # power imports this module

    if isinstance(x, MulReal):
        return MUL
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
        return int_to_text(x)
    if model is RAT:
        return str(x)
    iv = x.approx(precision)
    digits = max(1, precision * 30103 // 100000)
    return f"{iv.midpoint().decimal(digits)} ± 2^-{precision}"
