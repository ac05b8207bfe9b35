import gc
import math
import random
import sys
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from magnitudes import core, models
from magnitudes.core import Rel
from magnitudes.embed import fourth_proportional
from magnitudes.errors import (
    ModelMismatchError,
    OracleFailureError,
    ParseError,
    UndecidedError,
)
from magnitudes.hom import product, quotient
from magnitudes.models import (
    NAT,
    RAT,
    RAT_ONE,
    REAL,
    Interval,
    Overlap,
    PosRat,
    PosRealValue,
    _flatten,
    _fold,
    _interval,
    _Linear,
    _Monomial,
    _Node,
    _push_down,
    certify,
    format_element,
    int_to_text,
    ladder,
    model_of,
    nat_make,
    parse_element,
    rat_make,
    real_add,
    real_compare,
    real_div,
    real_from_rat,
    real_mul,
    real_scale,
    real_subtract,
    text_to_int,
)
from magnitudes.power import MUL, MulReal, _Power, mul_multiple, nth_root, pow
from magnitudes.ratio import ratio_compare

from conftest import isqrt_real, opaque, recorded

rationals = st.builds(PosRat, st.integers(1, 1 << 16), st.integers(1, 1 << 16))


class TestNatMake:
    def test_parse(self):
        assert nat_make("17") == 17
        assert nat_make("340282366920938463463374607431768211456") == 1 << 128

    # "²" passes str.isdigit but not int(): a parse error, not int's ValueError
    @pytest.mark.parametrize("bad", ["0", "-3", "+2", "2.5", "x", "", "²", "1²"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            nat_make(bad)


class TestDigitLimit:
    # Python 3.11+ refuses int/str conversions past 4,300 digits by default,
    # and a process may lower that limit to 640
    @pytest.mark.parametrize("limit", [None, 640])
    def test_numerals_of_any_length(self, limit):
        text = "1" + "0" * 4998 + "7"
        n = 10**4999 + 7
        old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None and old is not None:
            sys.set_int_max_str_digits(limit)
        try:
            assert nat_make(text) == n and int_to_text(n) == text
            assert format_element(n) == text
            assert PosRat.from_text(f"{text}/3") == PosRat(n, 3)
            assert str(PosRat(n, 3)) == f"{text}/3"
            assert PosRat(n, 1).decimal(700) == f"{text}.{'0' * 700}"
            assert PosRat(1, 3).decimal(700) == "0." + "3" * 700
            assert text_to_int(f" {text} ") == n
        finally:
            if old is not None:
                sys.set_int_max_str_digits(old)


class TestPosRat:
    def test_reduction(self):
        assert rat_make(4, 6) == PosRat(2, 3)
        assert str(rat_make(7, 1)) == "7/1"
        assert rat_make(100, 100) == PosRat(1, 1)

    def test_no_zero(self):
        with pytest.raises(ValueError):
            PosRat(0, 3)
        with pytest.raises(ValueError):
            PosRat(3, 0)

    def test_partial_subtraction(self):
        from magnitudes.errors import NotGreaterError

        with pytest.raises(NotGreaterError):
            PosRat(1, 2) - PosRat(1, 2)

    def test_from_text(self):
        assert PosRat.from_text("7/3") == PosRat(7, 3)
        assert PosRat.from_text("7") == PosRat(7, 1)
        with pytest.raises(ParseError):
            PosRat.from_text("7/3/2")
        with pytest.raises(ParseError):
            PosRat.from_text("0/3")
        for bad in ("²", "3/²", "²/3"):
            with pytest.raises(ParseError, match="malformed rational"):
                PosRat.from_text(bad)

    @given(rationals, rationals)
    def test_field_ops_roundtrip(self, a, b):
        assert (a * b) / b == a
        assert (a + b) - b == a

    @given(
        st.one_of(st.integers(1, 1 << 64), st.integers(1 << 999, 1 << 1000)),
        st.integers(0, 1100),
        st.integers(0, 1100),
    )
    @example(1, 0, 0)  # k = 0
    @example(6, 0, 0)  # even over 1
    @example(3, 0, 5)  # odd, num < den
    @example(3, 6, 5)  # even, num >= den, more trailing zeros than log2(den)
    @example((1 << 1000) - 1, 0, 1000)  # 1,000-bit odd
    @example(5, 1000, 1000)  # 1,000-bit even, every bit of den shifted out
    def test_power_of_two_denominator_in_lowest_terms(self, odd, zeros, k):
        # odd and even num (odd << zeros), on either side of den = 2^k
        num = odd << zeros
        g = math.gcd(num, 1 << k)
        q = PosRat(num, 1 << k)
        assert (q.num, q.den) == (num // g, (1 << k) // g)

    def test_decimal_truncates(self):
        assert PosRat(1, 3).decimal(4) == "0.3333"
        assert PosRat(3, 2).decimal(2) == "1.50"
        assert PosRat(7, 1).decimal(0) == "7"


@st.composite
def close_ends(draw):
    """Two ends of 1 to 5,000 bits of denominator, at most two ticks apart
    either way, as a read's ends are: dyadic over one denominator or two, or
    over 3 * 2^e, so Interval's shift path and both of its fallbacks run."""
    e, f = draw(st.integers(0, 5000)), draw(st.integers(0, 5000))
    m1, m2 = draw(st.sampled_from((1, 3))), draw(st.sampled_from((1, 3)))
    a = Fraction(draw(st.integers(1, 1 << min(e + 8, 5000))), m1 << e)
    b = a + Fraction(draw(st.integers(-2, 2)), m2 << f)
    assume(b > 0)
    return PosRat(a.numerator, a.denominator), PosRat(b.numerator, b.denominator)


class TestInterval:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(PosRat(2, 1), PosRat(1, 1))

    @given(close_ends())
    @example((PosRat(3, 1 << 4000), PosRat(5, 1 << 4000)))  # one dyadic denominator
    @example((PosRat(3, 1 << 4000), PosRat(1, 1 << 3999)))  # two, out of order by a tick
    @example((PosRat(3, 1 << 4000), PosRat(1, 1 << 3998)))  # two, ordered
    @example((PosRat(5, 1 << 300), PosRat(5, 1 << 300)))  # equal ends
    @example((PosRat(7, 3 << 300), PosRat(9, 1 << 300)))  # a denominator that is not dyadic
    @example((PosRat(1, 1 << 5000), PosRat(1, 1)))  # the largest and the smallest
    def test_raises_exactly_when_out_of_order(self, ends):
        lo, hi = ends
        if Fraction(lo.num, lo.den) > Fraction(hi.num, hi.den):
            with pytest.raises(ValueError, match="interval endpoints out of order"):
                Interval(lo, hi)
        else:
            iv = Interval(lo, hi)
            assert iv.lo is lo and iv.hi is hi

    def test_width_zero_allowed(self):
        point = Interval(PosRat(1, 3), PosRat(1, 3))
        assert point.width_at_most(100)

    @given(
        st.integers(1, 1 << 1000), st.integers(0, 1100), st.integers(1, 1 << 1000), st.integers(0, 1100),
        st.integers(0, 1100),
    )
    @example(8, 0, 24, 0, 3)  # both ends multiples of 2^w
    @example(3, 0, 1, 50, 40)  # an odd end and one that is a multiple of 2^w
    @example(1, 0, 1, 0, 0)  # w = 0
    def test_grid_interval_matches_reduced_ends(self, a, s, b, t, w):
        lo, hi = sorted((a << s, b << t))
        assert _interval(lo, hi, w) == Interval(PosRat(lo, 1 << w), PosRat(hi, 1 << w))

    @given(rationals, rationals)
    def test_intersect(self, a, b):
        lo, hi = (a, b) if a <= b else (b, a)
        iv = Interval(lo, hi)
        assert iv.intersects(iv)
        assert iv.contains(iv.midpoint())


class TestPosRealValue:
    def test_exact_point(self):
        x = real_from_rat(PosRat(1, 3))
        iv = x.approx(10)
        assert iv.lo == iv.hi == PosRat(1, 3)
        assert x.exact == PosRat(1, 3)

    def test_memoization_identity(self):
        x = isqrt_real(2)
        assert x.approx(12) == x.approx(12)

    def test_width_contract_enforced(self):
        wide = PosRealValue(lambda p: Interval(PosRat(1, 1), PosRat(3, 1)))
        with pytest.raises(OracleFailureError):
            wide.approx(2)

    def test_inconsistent_oracle_rejected(self):
        calls = []

        def refine(p):
            calls.append(p)
            if len(calls) == 1:
                return Interval(PosRat(1, 1), PosRat(1, 1))
            return Interval(PosRat(2, 1), PosRat(2, 1))

        x = PosRealValue(refine)
        x.approx(4)
        with pytest.raises(OracleFailureError):
            x.approx(8)

    def test_nested_refinements_intersect(self):
        x = isqrt_real(3)
        ivs = [x.approx(p) for p in (0, 3, 9, 20, 5)]
        for a in ivs:
            for b in ivs:
                assert a.intersects(b)

    def test_precision_validation(self):
        x = real_from_rat(PosRat(1, 1))
        with pytest.raises(ValueError):
            x.approx(-1)

    def test_deep_oracle_nesting_is_a_typed_error(self):
        # each leaf's refine reads the next leaf, past the interpreter's depth
        x = real_from_rat(PosRat(1, 1))
        for _ in range(5000):
            x = PosRealValue(x.approx)
        with pytest.raises(OracleFailureError, match="oracle nesting too deep at precision 10"):
            x.approx(10)

    def test_concurrent_queries_identical(self):
        x = isqrt_real(5)
        seen = []

        def worker():
            seen.append(x.approx(40))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(iv == seen[0] for iv in seen)


def width_cases(p):
    """(lo, hi) within a few ticks of 2^-p wide, dyadic ends and not.

    On a grid 2^-q, q = p or p + 8, the width is 0, 2^-p less a tick,
    exactly 2^-p, one tick more, or 2^(1-p).  The lower end is a whole
    number, odd, even, or 3/2 times 2^q ticks, so the ends reduce to unequal
    denominators as read intervals' ends do; the same widths recur over
    denominators 3 * 2^q.  Last, a coarse dyadic interval.
    """
    for extra in (0, 8):
        q = p + extra
        for t in (1 << q, (1 << q) + 1, (1 << q) + 2, 3 << (q - 1)):
            for ticks in (0, (1 << extra) - 1, 1 << extra, (1 << extra) + 1, 2 << extra):
                yield PosRat(t, 1 << q), PosRat(t + ticks, 1 << q)
                yield PosRat(3 * t + 1, 3 << q), PosRat(3 * (t + ticks) + 1, 3 << q)
    yield PosRat(1, 2), PosRat(1)


class TestWidthCheck:
    """approx refuses a refinement wider than 2^-p on either path of its check."""

    @pytest.mark.parametrize("p", [30, models.SHIFT_CHECK_BITS - 1, models.SHIFT_CHECK_BITS, 1000])
    def test_width_check_matches_exact_width(self, p):
        kinds = set()
        for lo, hi in width_cases(p):
            iv = Interval(lo, hi)
            value = PosRealValue(lambda _, iv=iv: iv)
            narrow = Fraction(hi.num, hi.den) - Fraction(lo.num, lo.den) <= Fraction(1, 1 << p)
            dyadic = not (lo.den & (lo.den - 1) or hi.den & (hi.den - 1))
            kinds.add((narrow, dyadic, lo.den == hi.den))
            if narrow:
                assert value.approx(p) is iv
            else:
                with pytest.raises(OracleFailureError, match=rf"refinement wider than 2\^-{p}"):
                    value.approx(p)
        # passes and failures, dyadic and not, with equal and unequal denominators
        assert len(kinds) == 8


class TestRepeatReads:
    """approx intersects a refinement that sticks out of the best interval so
    far and refuses a disjoint one, on either path of its containment test."""

    @pytest.mark.parametrize("p", [30, models.SHIFT_CHECK_BITS - 1, models.SHIFT_CHECK_BITS, 1000])
    @pytest.mark.parametrize("o", [1, 3])  # ticks of 2^-q, or of 1/(3 * 2^q)
    def test_sticking_out_intersects_and_disjoint_fails(self, p, o):
        q, t = p + 4, 5 << (p + 4)

        def end(k):
            return PosRat(t + k, o << q)

        # by precision: a refinement as wide as its precision allows, each
        # after the first sticking out of the best so far, below then above,
        # then one inside it, and last one past it
        reads = {
            p: Interval(end(0), end(16)),
            p + 1: Interval(end(-4), end(4)),
            p + 2: Interval(end(3), end(7)),
            p + 3: Interval(end(3), end(4)),
            p + 4: Interval(end(5), end(6)),
        }
        x = PosRealValue(reads.__getitem__)
        assert x.approx(p) is reads[p]
        assert x.approx(p + 1) == Interval(end(0), end(4))
        assert x.approx(p + 2) == Interval(end(3), end(4))
        assert x.approx(p + 3) is reads[p + 3]
        with pytest.raises(OracleFailureError, match="inconsistent refinement oracle"):
            x.approx(p + 4)
        # what was cached stays as it was
        assert x.approx(p + 1) == Interval(end(0), end(4)) and x._best is reads[p + 3]


class Int(int):
    """An int subclass: validated like any int, and reduced like one."""


def parts(q):
    return q.num, q.den


def too_wide(p):
    """An oracle whose interval is one tick of 2^-(p + 8) wider than 2^-p."""
    t = 1 << (p + 8)
    return Interval(PosRat(t, t), PosRat(t + (1 << 8) + 1, t))


def exactly_wide(p):
    """An oracle whose interval is exactly 2^-p wide."""
    return Interval(PosRat(1), PosRat((1 << p) + 1, 1 << p))


# The contract the fast paths of PosRat, Interval and approx keep: the common
# case (exact ints >= 1, ordered endpoints, a narrow enough refinement) skips
# the validators, and everything else raises as the validators always have.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PosRat(True, 1), TypeError, "numerator must be an int, got bool"),
        (lambda: PosRat(1, 2.0), TypeError, "denominator must be an int, got float"),
        (lambda: PosRat(0, 1), ValueError, "numerator must be >= 1, got 0"),
        (lambda: PosRat(1, -2), ValueError, "denominator must be >= 1, got -2"),
        (lambda: parts(PosRat(Int(4), Int(6))) == (2, 3), None, None),
        (lambda: parts(PosRat(Int(48), Int(8))) == (6, 1), None, None),
        (lambda: isqrt_real(2).approx(True), TypeError, "precision must be an int"),
        (lambda: isqrt_real(2).approx(1.0), TypeError, "precision must be an int"),
        (lambda: isqrt_real(2).approx(-1), ValueError, "precision must be >= 0"),
        (lambda: isqrt_real(2).approx(Int(10)).width_at_most(10), None, None),
        (lambda: Interval(PosRat(2), PosRat(1)), ValueError, "interval endpoints out of order"),
        (lambda: PosRealValue(too_wide).approx(10), OracleFailureError, r"refinement wider than 2\^-10"),
        (lambda: PosRealValue(exactly_wide).approx(10).width_at_most(10), None, None),
    ],
    ids=[
        "PosRat(True, 1)",
        "PosRat(1, 2.0)",
        "PosRat(0, 1)",
        "PosRat(1, -2)",
        "PosRat(int subclass)",
        "PosRat(int subclass, power of two)",
        "approx(True)",
        "approx(1.0)",
        "approx(-1)",
        "approx(int subclass)",
        "Interval(2, 1)",
        "one tick too wide",
        "exactly 2^-p wide",
    ],
)
def test_validation_contract(call, error, message):
    if error is None:
        assert call()
    else:
        with pytest.raises(error, match=message):
            call()


class TestRealArithmetic:
    def test_add_exact_points(self):
        s = real_add(real_from_rat(PosRat(1, 4)), real_from_rat(PosRat(3, 4)))
        for p in (0, 5, 20):
            assert s.approx(p).contains(PosRat(1, 1))

    def test_add_width_contract(self, sqrt2):
        s = real_add(sqrt2, sqrt2)
        for p in (4, 10, 30):
            assert s.approx(p).width_at_most(p)

    def test_add_contains_double_sqrt2(self, sqrt2):
        s = real_add(sqrt2, sqrt2)
        eight = isqrt_real(8)
        assert s.approx(25).intersects(eight.approx(25))

    def test_scale_by_one_is_identity(self, sqrt2):
        assert real_scale(sqrt2, PosRat(1, 1)) is sqrt2

    def test_mul_contains(self, sqrt2):
        prod = real_mul(sqrt2, sqrt2)
        assert prod.approx(30).contains(PosRat(2, 1))

    def test_subtract_needs_gap(self, sqrt2):
        three = real_from_rat(PosRat(3, 1))
        d = real_subtract(three, sqrt2)
        iv = d.approx(20)
        assert iv.width_at_most(20)
        # 3 - sqrt2 = 1.5857864...
        assert iv.lo < PosRat(158579, 100000)
        assert iv.hi > PosRat(158578, 100000)


NON_SQUARES = [k for k in range(2, 80) if math.isqrt(k) ** 2 != k]


def brackets(iv, const, roots):
    """iv contains const + sum(c * sqrt(k) for k, c in roots), checked against
    integer square roots on a grid far finer than iv's endpoints.  A negative
    coefficient takes the root's upper grid point into the lower bound."""
    total = Fraction(sum(abs(c) for c in roots.values()))
    bits = max(iv.lo.den, iv.hi.den).bit_length() + 80 + math.ceil(total).bit_length()
    lo = const + sum(
        c * Fraction(math.isqrt(k << 2 * bits) + (c < 0), 1 << bits) for k, c in roots.items()
    )
    hi = lo + total / (1 << bits)
    return Fraction(iv.lo.num, iv.lo.den) <= lo and hi <= Fraction(iv.hi.num, iv.hi.den)


def doubling_dag(n, x):
    """n*x as the shared DAG of binary doubling: k steps chunk = chunk + chunk
    make k nodes but 2^k paths to x."""
    acc = None
    chunk = x
    while True:
        if n & 1:
            acc = chunk if acc is None else real_add(acc, chunk)
        n >>= 1
        if not n:
            return acc
        chunk = real_add(chunk, chunk)


@st.composite
def linear_dags(draw):
    """Random DAG of real_add/real_scale/real_subtract over exact and sqrt leaves.

    Returns (nodes, refs): refs[i] = (const, {k: coefficient}) is node i's
    value, const + sum of coefficient * sqrt(k).  Operands are drawn from
    all earlier nodes, so subnodes are shared; doubling_dag adds DAGs up to
    700 nodes deep.  A difference is taken larger minus smaller, of a pair
    that certify separates on the ladder; shared leaves cancel in it.
    """
    nodes, refs = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            q = draw(st.fractions(min_value=Fraction(1, 1 << 20), max_value=1 << 20))
            nodes.append(real_from_rat(PosRat(q.numerator, q.denominator)))
            refs.append((q, {}))
        else:
            k = draw(st.sampled_from(NON_SQUARES))
            nodes.append(isqrt_real(k))
            refs.append((Fraction(0), {k: Fraction(1)}))
    for _ in range(draw(st.integers(1, 25))):
        i = draw(st.integers(0, len(nodes) - 1))
        ci, ri = refs[i]
        op = draw(st.sampled_from(("add", "subtract", "scale", "doubling")))
        if op in ("add", "subtract"):
            j = draw(st.integers(0, len(nodes) - 1))
            cj, rj = refs[j]
            if op == "add":
                nodes.append(real_add(nodes[i], nodes[j]))
                refs.append((ci + cj, {k: ri.get(k, 0) + rj.get(k, 0) for k in ri.keys() | rj.keys()}))
                continue
            rel = certify(nodes[i], nodes[j], ladder())[0]
            if rel is None:
                continue
            if rel is Rel.LESS:
                i, j, ci, ri, cj, rj = j, i, cj, rj, ci, ri
            nodes.append(real_subtract(nodes[i], nodes[j]))
            refs.append((ci - cj, {k: ri.get(k, 0) - rj.get(k, 0) for k in ri.keys() | rj.keys()}))
            continue
        if op == "scale":
            q = draw(st.builds(Fraction, st.integers(1, 1 << 70), st.integers(1, 1 << 70)))
            nodes.append(real_scale(nodes[i], PosRat(q.numerator, q.denominator)))
        else:
            q = Fraction(draw(st.integers(1, 1 << 700)))
            nodes.append(doubling_dag(q.numerator, nodes[i]))
        refs.append((ci * q, {k: c * q for k, c in ri.items()}))
    return nodes, refs


def tick_oracle(v: Fraction, o: int) -> PosRealValue:
    """v >= 1 read at p as the ticks k and k + 1 of 1/(o * 2^(p + 2)) around
    it: dyadic ends for o = 1, and ends over 3 * 2^(p + 2) for o = 3."""

    def refine(p: int) -> Interval:
        m = o << (p + 2)
        k = v.numerator * m // v.denominator
        return Interval(PosRat(k, m), PosRat(k + 1, m))

    return PosRealValue(refine)


@st.composite
def weighted_linear(draw):
    """A linear node over one to three leaves with signed rational weights,
    built as real_scale, real_subtract and fourth_proportional build them,
    each leaf a tick_oracle."""

    def leaf():
        v = 1 + Fraction(draw(st.integers(0, 1 << 72)), draw(st.integers(1, 1 << 64)))
        return tick_oracle(v, draw(st.sampled_from((1, 3))))

    def q():
        return PosRat(draw(st.integers(1, 1 << 32)), draw(st.integers(1, 1 << 32)))

    shape = draw(st.integers(0, 4))
    if shape == 0:
        node = real_scale(leaf(), q())
    elif shape == 1:
        node = real_subtract(leaf(), leaf())
    elif shape == 2:
        node = fourth_proportional(q(), q(), leaf(), 4)
    elif shape == 3:
        node = real_subtract(real_scale(leaf(), q()), real_scale(leaf(), q()))
    else:
        node = real_add(real_scale(leaf(), q()), real_subtract(leaf(), real_scale(leaf(), q())))
    assume(node.__class__ is _Linear)
    return node


class TestLinearNodes:
    @given(weighted_linear(), st.integers(0, 4000))
    def test_weighted_ticks_are_fraction_floors_and_ceilings(self, node, w):
        # each leaf's ends times its weight c, floored into lo and ceiled
        # into hi, its upper end into lo when c < 0, summed in ticks of 2^-w
        node._setup()
        try:
            got = node._ends(w, ())[:2]
        except OracleFailureError:
            got = None
        lo = hi = 0
        for leaf in node._leaves:
            src, num, den, extra = leaf if leaf.__class__ is tuple else (leaf, 1, 1, 0)
            iv = src.approx(w + extra)  # the read _ends made
            c = Fraction(num << w, den)
            a, b = Fraction(iv.lo.num, iv.lo.den) * c, Fraction(iv.hi.num, iv.hi.den) * c
            lo += math.floor(min(a, b))
            hi += math.ceil(max(a, b))
        assert got == ((lo, hi) if hi >= 1 else None)

    @pytest.mark.parametrize("depth", [1000, 10000])
    @pytest.mark.parametrize("p", [4, 30, 300])
    def test_deep_add_chain(self, depth, p):
        ks = [NON_SQUARES[i % len(NON_SQUARES)] for i in range(depth)]
        acc = isqrt_real(ks[0])
        for k in ks[1:]:
            acc = real_add(acc, isqrt_real(k))
        iv = acc.approx(p)
        assert iv.width_at_most(p)
        roots = {}
        for k in ks:
            roots[k] = roots.get(k, 0) + 1
        assert brackets(iv, 0, roots)

    def test_inner_nodes_of_a_chain_take_no_lock(self):
        # the root reads the chain's leaves directly, so its 998 inner sums
        # are never refined and never make a lock or a cache
        acc = isqrt_real(2)
        inner = []
        for i in range(999):
            acc = real_add(acc, isqrt_real(NON_SQUARES[i % len(NON_SQUARES)]))
            inner.append(acc)
        root = inner.pop()
        assert root.approx(30).width_at_most(30)
        assert root._lock is not None and len(root._cache) == 1
        assert all(node._lock is None and not hasattr(node, "_cache") for node in inner)

    def test_chain_allocates_one_tuple_per_link_and_none_per_unit_leaf(self):
        # a link is its node and the tuple of its two input values; the
        # root's leaves, each of weight 1, are those values themselves
        leaves = [isqrt_real(NON_SQUARES[i % len(NON_SQUARES)]) for i in range(1000)]
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            acc = leaves[0]
            for leaf in leaves[1:]:
                acc = real_add(acc, leaf)
            built = len(gc.get_objects())
            acc._setup()
            set_up = len(gc.get_objects())
        finally:
            gc.enable()
        assert built - before <= 2 * 999
        assert set_up - built <= 10
        assert sorted(map(id, acc._leaves)) == sorted(map(id, leaves)) and acc._nodes == ()

    def test_deep_scale_chain(self):
        acc = isqrt_real(2)
        for i in range(3000):
            acc = real_scale(acc, PosRat(3, 2) if i % 2 else PosRat(2, 3))
        for p in (4, 30, 300):
            iv = acc.approx(p)
            assert iv.width_at_most(p)
            assert brackets(iv, 0, {2: Fraction(1)})

    @given(linear_dags(), st.integers(0, 200))
    def test_random_dags_contain_and_meet_width(self, dag, p):
        nodes, refs = dag
        for node, (const, roots) in reversed(list(zip(nodes, refs))):
            iv = node.approx(p)
            assert iv.width_at_most(p)
            assert brackets(iv, const, roots)

    def test_leaf_read_precisions(self):
        # one scaling reads its leaf at p + 2 + ceil(log2 q), as a lone
        # scaling always has; the 200-node doubling DAG of 2^200 * x is one
        # leaf with coefficient 2^200, read once at 60 + 2 + 200
        seen = []
        real_scale(recorded(2, seen), PosRat(5, 1)).approx(30)
        real_scale(recorded(2, seen), PosRat(1, 3)).approx(30)
        assert seen == [35, 32]
        seen = []
        assert doubling_dag(2**200, recorded(2, seen)).approx(60).width_at_most(60)
        assert seen == [262]

    @pytest.mark.parametrize("n", [1, 2, 3, 2**200 + 1])
    def test_multiple_is_one_node_matching_doubling(self, n):
        # core.multiple builds a single scaling node (x itself for n = 1);
        # it refines to the very intervals of the flattened doubling DAG
        x = real_add(isqrt_real(2), real_scale(isqrt_real(3), PosRat(2, 7)))
        node = core.multiple(n, x, REAL)
        if n == 1:
            assert node is x
        else:
            assert node._terms == ((x, n, 1),)
        dag = doubling_dag(n, x)
        for p in (0, 4, 60, 300):
            assert node.approx(p) == dag.approx(p)

    def test_deep_difference_chain(self):
        # head - sqrt(k1) - sqrt(k2) - ... is one node over 1001 leaves
        ks = [NON_SQUARES[i % len(NON_SQUARES)] for i in range(1000)]
        acc = real_from_rat(PosRat(10**4))
        for k in ks:
            acc = real_subtract(acc, isqrt_real(k))
        iv = acc.approx(30)
        assert iv.width_at_most(30)
        roots = {}
        for k in ks:
            roots[k] = roots.get(k, 0) - 1
        assert brackets(iv, 10**4, roots)

    def test_difference_chain_reads_leaves_on_one_grid(self):
        # 301 leaves at p = 30: the grid 30 + ceil(log2 903) = 40, one read each
        seen = []
        acc = recorded(300000, seen)
        for _ in range(300):
            acc = real_subtract(acc, recorded(3, seen))
        assert acc.approx(30).width_at_most(30)
        assert seen == [30 + math.ceil(math.log2(3 * 301))] * 301

    def test_leaf_on_both_sides_cancels(self):
        seen = []
        x, z = recorded(2, seen), isqrt_real(3)
        d = real_subtract(real_add(x, z), x)
        # z alone: one leaf read at p + 2, already on the grid
        assert d.approx(20) == z.approx(22)
        assert seen == []

    def test_negative_difference_is_a_typed_error(self):
        with pytest.raises(OracleFailureError):
            real_subtract(isqrt_real(2), isqrt_real(3)).approx(10)

    @pytest.mark.parametrize("p", [30, 300])
    def test_zero_difference_of_two_oracles_stops_after_eight_passes(self, p):
        # sqrt2 - sqrt8/2 is 0, which no lower end on any grid shows positive
        d = real_subtract(isqrt_real(2), real_scale(isqrt_real(8), PosRat(1, 2)))
        with pytest.raises(OracleFailureError, match=rf"eight passes did not reach width 2\^-{p}"):
            d.approx(p)

    def test_value_below_the_grid_reruns_on_a_finer_grid(self):
        # two leaves at p = 10 use the 2^-13 grid, whose floor here is 0; the
        # exact lower sum, about 1.75 * 2^-100, sizes the next grid, 2^-108,
        # on which the lower end is a grid point 447 ticks up
        tiny = PosRat(1, 1 << 100)
        x = real_scale(real_add(isqrt_real(2), real_from_rat(PosRat(1, 3))), tiny)
        iv = x.approx(10)
        assert iv.width_at_most(10)
        assert iv.lo == PosRat(447, 1 << 108)
        lo, hi = (Fraction(e.num << 100, e.den) - Fraction(1, 3) for e in (iv.lo, iv.hi))
        assert lo * lo <= 2 <= hi * hi

    def test_concurrent_refines_of_shared_leaves(self):
        # sums sharing leaves, refined from many threads: every thread sees
        # the one cached interval per (node, precision)
        leaves = [isqrt_real(k) for k in NON_SQUARES[:6]]
        sums = [core.multiple(3, real_add(leaves[i], leaves[i + 1]), REAL) for i in range(5)]
        seen = {}

        def worker(offset):
            for step in range(40):
                node = (offset + step) % len(sums)
                p = 8 + (step * 7) % 50
                seen.setdefault((node, p), []).append(sums[node].approx(p))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (node, p), ivs in seen.items():
            assert all(iv is ivs[0] for iv in ivs) and ivs[0].width_at_most(p)


def squared(ref):
    """The square c^2 * prod k^e of the value c * prod sqrt(k)^e that ref = (c, {k: e}) names."""
    c, roots = ref
    out = c * c
    for k, e in roots.items():
        out *= Fraction(k) ** e
    return out


def encloses_square(iv, v2):
    """lo^2 <= v2 <= hi^2 in exact arithmetic: iv contains sqrt(v2)."""
    lo, hi = Fraction(iv.lo.num, iv.lo.den), Fraction(iv.hi.num, iv.hi.den)
    return lo * lo <= v2 <= hi * hi


@st.composite
def monomial_dags(draw):
    """Random DAG of real_mul/real_div/mul_multiple over exact and sqrt leaves.

    Returns (nodes, refs): refs[i] = (c, {k: e}) is node i's value
    c * prod sqrt(k)^e, so its square is c^2 * prod k^e.  Operands are drawn
    from all earlier nodes, so subnodes are shared.  A multiplicative
    multiple is taken of a node above one, with total exponent at most 64.
    """
    nodes, refs = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            q = draw(st.fractions(min_value=Fraction(1, 1 << 20), max_value=1 << 20))
            nodes.append(real_from_rat(PosRat(q.numerator, q.denominator)))
            refs.append((q, {}))
        else:
            k = draw(st.sampled_from(NON_SQUARES))
            nodes.append(isqrt_real(k))
            refs.append((Fraction(1), {k: 1}))
    for _ in range(draw(st.integers(1, 25))):
        i = draw(st.integers(0, len(nodes) - 1))
        ci, ri = refs[i]
        op = draw(st.sampled_from(("mul", "div", "multiple")))
        if op == "multiple":
            n = draw(st.integers(1, 6))
            if squared(refs[i]) <= 1 or n * sum(map(abs, ri.values())) > 64:
                continue
            nodes.append(mul_multiple(n, MulReal(nodes[i])).value)
            refs.append((ci**n, {k: e * n for k, e in ri.items()}))
            continue
        j = draw(st.integers(0, len(nodes) - 1))
        cj, rj = refs[j]
        sign = 1 if op == "mul" else -1
        roots = {k: ri.get(k, 0) + sign * rj.get(k, 0) for k in ri.keys() | rj.keys()}
        if sum(map(abs, roots.values())) > 64:
            continue
        nodes.append(real_mul(nodes[i], nodes[j]) if op == "mul" else real_div(nodes[i], nodes[j]))
        refs.append((ci * cj**sign, {k: e for k, e in roots.items() if e}))
    return nodes, refs


@st.composite
def mixed_dags(draw):
    """Random DAG of sums, differences, scalings, fourth proportionals,
    products, quotients, powers and roots over exact and sqrt leaves,
    operands drawn from all earlier nodes, so every kind sits under every
    other.

    Returns (nodes, refs): refs[i] names node i's value as ("sqrt", k),
    ("point", q), or (op, i, j) over earlier nodes, where j is a node index,
    a rational (a scaling's factor, an exponent, a root's index) or, for a
    fourth proportional, the pair (a, b) of its 16-bit rationals; see
    mixed_value.  A float log2 of each value, kept alongside, keeps every
    value within 2^-64..2^64, takes a difference x - y only when y's is at
    least 1 below x's (so x - y > x/2), and takes powers only of bases above
    1.001.
    """
    nodes, refs, logs = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from(NON_SQUARES))
        nodes.append(isqrt_real(k))
        refs.append(("sqrt", k))
        logs.append(math.log2(k) / 2)
    if draw(st.booleans()):
        q = draw(rationals)
        nodes.append(real_from_rat(q))
        refs.append(("point", Fraction(q.num, q.den)))
        logs.append(math.log2(q.num) - math.log2(q.den))
    for _ in range(draw(st.integers(1, 25))):
        i, j = draw(st.integers(0, len(nodes) - 1)), draw(st.integers(0, len(nodes) - 1))
        x, y, lx, ly = nodes[i], nodes[j], logs[i], logs[j]
        op = draw(st.sampled_from(("add", "sub", "scale", "fourth", "mul", "div", "pow", "root")))
        if op == "add":
            log, node = max(lx, ly) + math.log2(1 + 2 ** -abs(lx - ly)), real_add(x, y)
        elif op == "sub":
            if ly > lx - 1:  # the larger operand first, if either is 2x the other
                i, j, x, y, lx, ly = j, i, y, x, ly, lx
            if ly > lx - 1:
                continue
            log, node = lx + math.log2(1 - 2 ** (ly - lx)), real_subtract(x, y)
        elif op == "fourth":
            a, b = draw(rationals), draw(rationals)
            j = (Fraction(a.num, a.den), Fraction(b.num, b.den))
            log, node = lx + math.log2(j[1] / j[0]), fourth_proportional(a, b, x, 0)
        elif op == "scale":
            q = draw(rationals)
            j, log, node = Fraction(q.num, q.den), lx + math.log2(q.num / q.den), real_scale(x, q)
        elif op in ("mul", "div"):
            log = lx + ly if op == "mul" else lx - ly
            node = real_mul(x, y) if op == "mul" else real_div(x, y)
        elif lx < 0.0015:
            continue
        elif op == "root":
            n = draw(st.integers(2, 5))
            j, log, node = Fraction(n), lx / n, nth_root(MulReal(x), n, 0).value
        elif draw(st.booleans()):
            e = draw(st.sampled_from((PosRat(2, 3), PosRat(5, 3), PosRat(7, 4), PosRat(3))))
            if abs(lx * e.num / e.den) > 64:
                continue
            j, log, node = Fraction(e.num, e.den), lx * e.num / e.den, pow(MulReal(x), e, 0).value
        elif ly > 2:
            continue
        else:
            log, node = lx * 2**ly, pow(MulReal(x), y, 0).value
        if abs(log) <= 64:
            nodes.append(node)
            refs.append((op, i, j))
            logs.append(log)
    return nodes, refs


def mixed_value(refs: list, mp) -> list:
    """The values refs name (see mixed_dags): a Fraction where every input
    is exact and the op rational, an mpf of mp's precision otherwise."""

    def real(t):
        return mp.mpf(t.numerator) / t.denominator if isinstance(t, Fraction) else t

    values = []
    for op, a, *rest in refs:
        if op == "sqrt":
            values.append(mp.sqrt(a))
        elif op == "point":
            values.append(a)
        else:
            x, b = values[a], rest[0]
            y = b if isinstance(b, (Fraction, tuple)) else values[b]
            if op == "fourth":  # qa : qb = x : x*qb/qa
                qa, qb = y
                values.append(x * qb / qa if isinstance(x, Fraction) else x * real(qb) / real(qa))
            elif op == "root":
                values.append(mp.root(real(x), int(y)))
            elif op == "pow":
                values.append(mp.power(real(x), real(y)))
            else:
                if not (isinstance(x, Fraction) and isinstance(y, Fraction)):
                    x, y = real(x), real(y)
                values.append(
                    x + y if op == "add" else x - y if op == "sub" else x / y if op == "div" else x * y
                )
    return values


def holds(iv, v, mp) -> bool:
    """iv contains v: exactly for a Fraction, and for an mpf up to its own
    error, 2^-(mp.prec - 16) relative."""
    lo, hi = Fraction(iv.lo.num, iv.lo.den), Fraction(iv.hi.num, iv.hi.den)
    if isinstance(v, Fraction):
        return lo <= v <= hi
    man, exp = mp.mpf(v).man_exp
    v = man * Fraction(2) ** exp
    slack = v / (1 << (mp.prec - 16))
    return lo - slack <= v <= hi + slack


def refine_from_threads(nodes, together=False):
    """Refine nodes from 8 threads at once; {(node index, p): every interval seen}.

    The threads start together; each walks the nodes from its own offset,
    or with together, all from the first node, so that they meet on each
    node's first refine.
    """
    seen = {}
    start = threading.Barrier(8)

    def worker(offset):
        start.wait()
        for step in range(40):
            node = (offset + step) % len(nodes)
            p = 8 + (step * 7) % 50
            seen.setdefault((node, p), []).append(nodes[node].approx(p))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(0 if together else i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return seen


def scaled_root(k: int, e: int) -> PosRealValue:
    """sqrt(k) * 2^e as a leaf, read on the grid 2^-(p + max(0, -e) + 2), so
    that a tiny value's lower end stays positive."""

    def refine(p: int) -> Interval:
        q = p + max(0, -e) + 2
        s = math.isqrt(k << 2 * (q + e))
        return Interval(PosRat(s, 1 << q), PosRat(s + 1, 1 << q))

    return PosRealValue(refine)


exponents = st.one_of(st.integers(1, 8), st.sampled_from((16, 63, 64, 255, 256, 1023, 1024))).flatmap(
    lambda n: st.sampled_from((n, -n))
)


@st.composite
def monomial_factors(draw):
    """1-6 factors (k, e, n, node): (sqrt(k) * 2^e)^n, the scaling 2^e a
    real_scale node over the leaf sqrt(k) when node is set and in the
    leaf's own reads otherwise, with n in +-1..+-1024 and e in -200..200,
    held to |n e| <= 256 so the product stays below 2^25000; and 0-2 exact
    points (q, n, hide), 16-bit rationals to such powers, which fold into
    the monomial's coefficient, or, with hide, are leaves whose reads are
    the point, so that an end rounded the wrong way shows."""
    factors = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(exponents)
        e = draw(st.integers(-200, 200))
        e = max(-256 // abs(n), min(256 // abs(n), e))
        factors.append((draw(st.sampled_from(NON_SQUARES)), e, n, draw(st.booleans())))
    points = draw(st.lists(st.tuples(rationals, exponents, st.booleans()), max_size=2))
    return factors, points


def monomial_value(factors, points, mp):
    """The value monomial_factors names, in mp."""
    v = mp.mpf(1)
    for k, e, n, _ in factors:
        v *= (mp.sqrt(k) * mp.ldexp(1, e)) ** n
    for q, n, _ in points:
        v *= (mp.mpf(q.num) / q.den) ** n
    return v


class TestRound:
    @given(st.integers(1, 1 << 3000), st.integers(1, 1 << 3000), st.integers(2, 2000), st.booleans())
    @example(5, 1 << 700, 100, True)  # a dyadic of few bits comes back as it is
    @example(1, 3 << 2000, 64, False)
    def test_rounds_outward_to_m_leading_bits(self, n, d, m, dyadic):
        # down and up enclose n/d, on one grid 2^-s holding m bits of a value
        # below 1 and every bit above 2^-m of one at least 1
        if dyadic:
            d = 1 << d.bit_length()
        v = Fraction(n, d)
        (a, s), (b, t) = models._round(n, d, m, 0), models._round(n, d, m, 1)
        assert s == t and not s & (s - 1)
        assert 1 <= a <= b and Fraction(a, s) <= v <= Fraction(b, t)
        assert Fraction(b - a, s) * (1 << (m - 2)) <= max(v, 1)
        if dyadic and d.bit_length() - 1 <= m + max(0, d.bit_length() - n.bit_length()):
            assert (a, s) == (b, t) == (n, d)


class TestGrid:
    @given(st.integers(1, 1 << 3000), st.integers(1, 1 << 2000), st.integers(0, 2000), st.integers(0, 2000))
    @example(3 << 1000, 1, 1000, 30)  # a power of two, shifted right
    @example(5, 1, 1000, 30)  # a grid tick is wider than the value
    @example(7, 3, 30, 30)  # s = w
    @example(7, 3, 0, 30)  # an odd denominator
    def test_floor_and_ceiling_against_fractions(self, n, o, s, w):
        # n/d for d = o*2^s: the shift of 2^s before the one division by o
        # lands on the floor and the ceiling of n/d in ticks of 2^-w
        d = o << s
        v = Fraction(n << w, d)
        assert models._grid(n, d, w, 0) == math.floor(v)
        assert models._grid(n, d, w, 1) == math.ceil(v)


class TestMonomialNodes:
    def test_products_quotients_and_multiples_are_one_node(self):
        x, y = isqrt_real(2), isqrt_real(3)
        for node, terms in (
            (real_mul(x, y), (x, y)),
            (real_div(x, y), (x, (y, -1, 1))),
            (mul_multiple(5, MulReal(x)).value, ((x, 5, 1),)),
        ):
            assert node.__class__ is _Monomial and node._terms == terms
        # exact points multiply out
        two_thirds, nine_fourths = real_from_rat(PosRat(2, 3)), real_from_rat(PosRat(9, 4))
        assert real_mul(two_thirds, nine_fourths).exact == PosRat(3, 2)
        assert real_div(two_thirds, nine_fourths).exact == PosRat(8, 27)

    def test_deep_product_chain(self):
        # 3,000 products are one node over 3,001 leaves: no refine nests
        acc = isqrt_real(2)
        for _ in range(3000):
            acc = real_mul(acc, isqrt_real(3))
        iv = acc.approx(4)
        assert iv.width_at_most(4)
        assert encloses_square(iv, 2 * Fraction(3) ** 3000)

    def test_product_chain_reads_its_leaf_shallow(self):
        # x * c^200 for c = 0.7 x: one node over x and c, and c is one node
        # of the same pass, which reads x on the product's grid, so the leaf
        # is read once, near the working precision
        seen = []
        x = recorded(2, seen)
        c = real_scale(x, PosRat(7, 10))
        acc = x
        for _ in range(200):
            acc = real_mul(acc, c)
        iv = acc.approx(4)
        assert iv.width_at_most(4)
        assert encloses_square(iv, 2 * Fraction(98, 100) ** 200)
        assert len(seen) == 1 and max(seen) <= 32

    def test_read_precision_is_independent_of_earlier_reads(self):
        # a read's working precision comes from p and the node's kind alone:
        # a deep read first does not deepen a later shallow one
        def product():
            seen = []
            return real_mul(recorded(2, seen), recorded(3, seen)), seen

        first, first_seen = product()
        first.approx(30)
        second, second_seen = product()
        second.approx(1000)
        second_seen.clear()
        second.approx(30)
        assert second_seen == first_seen

    def test_large_exponent(self):
        # x^10000 by square-and-multiply, its squares rounded to about w
        # bits; an exact endpoint power would hold 10,000 times the bits of a read
        iv = mul_multiple(10000, MulReal(isqrt_real(3))).value.approx(30)
        assert iv.width_at_most(30)
        assert encloses_square(iv, Fraction(3) ** 10000)

    def test_quotient_by_itself_is_one(self):
        seen = []
        x, y = recorded(2, seen), recorded(3, seen)
        one = Interval(RAT_ONE, RAT_ONE)
        assert real_div(x, x).approx(30) == one
        assert real_div(real_mul(x, y), real_mul(y, x)).approx(300) == one
        assert seen == []

    @pytest.mark.parametrize("e", [400, 5000])
    def test_tiny_and_huge_values(self, e):
        # sqrt(2) 2^-e * sqrt(3), sqrt(3) / (sqrt(2) 2^e) and their reciprocal
        # sizes: a floor of the lower product to 0 moves the grid below it
        small, big = PosRat(1, 1 << e), PosRat(1 << e)
        cases = [
            (real_mul(real_scale(isqrt_real(2), small), isqrt_real(3)), Fraction(6, 1 << 2 * e)),
            (real_div(isqrt_real(3), real_scale(isqrt_real(2), big)), Fraction(3, 2 << 2 * e)),
            (real_mul(real_scale(isqrt_real(2), big), isqrt_real(3)), Fraction(6 << 2 * e)),
            (real_div(isqrt_real(3), real_scale(isqrt_real(2), small)), Fraction(3 << 2 * e, 2)),
        ]
        for node, v2 in cases:
            iv = node.approx(30)
            assert iv.width_at_most(30)
            assert encloses_square(iv, v2)

    @settings(max_examples=80, deadline=None)
    @given(monomial_factors(), st.integers(0, 300))
    @example(([(3, 0, 1, False), (2, -200, -1, False)], []), 30)  # a quotient by a tiny divisor
    @example(([(3, 0, 1, False), (2, -200, -1, True)], []), 300)
    @example(([(5, 200, 1, False), (7, -200, 1, True), (2, 0, 1024, False)], [(PosRat(3, 7), -1024, False)]), 100)
    @example(([(2, 0, 1, False)], [(PosRat(1, 3), 1, True), (PosRat(7, 5), -3, True)]), 30)
    # points 2^-120 above and below 1, whose products lie just off the grid
    # point that an accumulator rounded the wrong way would fall on
    @example(([], [(PosRat((1 << 120) + 1, 1 << 120), 3, True)]), 30)
    @example(([], [(PosRat((1 << 120) - 1, 1 << 120), 3, True)]), 30)
    @example(([], [(PosRat((1 << 120) + 1, 1 << 120), 1, True)] * 2 + [(PosRat(3), 1, True)]), 30)
    @example(([], [(PosRat((1 << 120) - 1, 1 << 120), 1, True)] * 2 + [(PosRat(3), 1, True)]), 30)
    # at p = 30 a pass keeps 51 bits: squares 2^-60 above and 2^-75 below
    # the grid point 1 + 2^-29 or 1 + 2^-24
    @example(([], [(PosRat((1 << 30) + 1, 1 << 30), 2, True)]), 30)
    @example(([], [(PosRat((1 << 51) + (1 << 26) - 1, 1 << 51), 2, True)]), 30)
    def test_random_monomials_contain_and_meet_width(self, drawn, p):
        # one node over 1-6 factors, each leaf raised to its exponent on its
        # own, against mpmath at a precision that covers the value's size
        mpmath = pytest.importorskip("mpmath")
        factors, points = drawn
        terms = []
        for k, e, n, node in factors:
            scale = PosRat(1 << e) if e >= 0 else PosRat(1, 1 << -e)
            x = real_scale(isqrt_real(k), scale) if node else scaled_root(k, e)
            terms.append((x, n, 1))
        terms += [(opaque(real_from_rat(q)) if hide else real_from_rat(q), n, 1) for q, n, hide in points]
        iv = models._monomial(tuple(terms)).approx(p)
        assert iv.lo.num >= 1 and iv.width_at_most(p)
        size = sum(abs(n) * (abs(e) + 4) for _, e, n, _ in factors) + sum(abs(n) * 17 for _, n, _ in points)
        with mpmath.workprec(p + size + 64):
            assert holds(iv, monomial_value(factors, points, mpmath.mp), mpmath.mp)

    def test_product_chain_read_time(self):
        # 1,000 leaves read at 1000 bits: two passes, the second near 1,800
        # bits as the product is near 2^793, each rounding its accumulators
        # once per leaf; a 2-CPU x86-64 host reads it in about 37 ms, and the
        # bound leaves room for hosts up to three times slower
        best = float("inf")
        for _ in range(3):
            acc = isqrt_real(2)
            for _ in range(1000):
                acc = real_mul(acc, isqrt_real(3))
            start = time.perf_counter()
            iv = acc.approx(1000)
            best = min(best, time.perf_counter() - start)
        assert iv.width_at_most(1000) and encloses_square(iv, 2 * Fraction(3) ** 1000)
        assert best < 2 * 0.064

    @given(monomial_dags(), st.integers(0, 200))
    def test_random_dags_contain_and_meet_width(self, dag, p):
        nodes, refs = dag
        for node, ref in reversed(list(zip(nodes, refs))):
            iv = node.approx(p)
            assert iv.width_at_most(p)
            assert encloses_square(iv, squared(ref))

    def test_concurrent_refines_of_shared_products(self):
        # products and quotients sharing leaves, refined from many threads:
        # every thread sees the one cached interval per (node, precision)
        leaves = [isqrt_real(k) for k in NON_SQUARES[:6]]
        nodes = [real_div(real_mul(x, y), z) for x, y, z in zip(leaves, leaves[1:], leaves[3:] + leaves)]
        nodes.append(mul_multiple(3, MulReal(real_mul(nodes[0], nodes[1]))).value)
        for (node, p), ivs in refine_from_threads(nodes).items():
            assert all(iv is ivs[0] for iv in ivs) and ivs[0].width_at_most(p)

    def test_concurrent_refines_of_powers_and_mixed_dags(self):
        # powers over shared products, sums of products of sums and powers
        # of those, refined from many threads: every thread sees the one
        # cached interval per (node, precision)
        leaves = [isqrt_real(k) for k in NON_SQUARES[:6]]
        products = [real_mul(x, y) for x, y in zip(leaves, leaves[1:])]
        sums = [real_add(x, y) for x, y in zip(leaves, leaves[2:])]
        mixed = [real_add(real_mul(s, t), x) for s, t, x in zip(sums, sums[1:], leaves)]
        nodes = [pow(MulReal(m), PosRat(2, 3), 0).value for m in products]
        nodes += [pow(MulReal(m), s, 0).value for m, s in zip(products, sums)]
        nodes += mixed + [real_mul(m, s) for m, s in zip(mixed, sums)]
        nodes += [pow(MulReal(m), x, 0).value for m, x in zip(mixed, leaves)]
        for (node, p), ivs in refine_from_threads(nodes).items():
            assert all(iv is ivs[0] for iv in ivs) and ivs[0].width_at_most(p)

    def test_concurrent_first_refines_make_one_lock_per_node(self, monkeypatch):
        # fresh products, sums and powers over those sums, all first refined
        # by eight threads at once: a node makes its lock on its first refine,
        # and a race for it must still leave one lock and one cached interval
        leaves = [isqrt_real(k) for k in NON_SQUARES[:13]]
        sums = [real_add(x, y) for x, y in zip(leaves, leaves[1:])]
        nodes = [real_mul(x, y) for x, y in zip(leaves, leaves[2:])] + sums
        nodes += [_Power((s, x)) for s, x in zip(sums, leaves)]
        assert all(node._lock is None for node in nodes)
        made = []

        def lock():
            made.append(threading.Lock())
            return made[-1]

        monkeypatch.setattr(models, "threading", SimpleNamespace(Lock=lock))
        for (node, p), ivs in refine_from_threads(nodes, together=True).items():
            assert all(iv is ivs[0] for iv in ivs) and ivs[0].width_at_most(p)
        assert sorted(map(id, made)) == sorted(id(node._lock) for node in nodes)

    def test_every_inexact_result_is_a_node(self):
        x, y = isqrt_real(2), isqrt_real(3)
        kinds = [
            (real_add(x, y), _Linear),
            (real_scale(x, PosRat(2, 3)), _Linear),
            (real_subtract(y, x), _Linear),
            (core.multiple(3, x, REAL), _Linear),
            (real_mul(x, y), _Monomial),
            (real_div(x, y), _Monomial),
            (mul_multiple(3, MulReal(x)).value, _Monomial),
            (pow(MulReal(x), y, 4).value, _Power),
            (pow(MulReal(x), PosRat(2, 3), 4).value, _Power),
            (nth_root(MulReal(x), 3, 4).value, _Power),
        ]
        for node, kind in kinds:
            assert node.__class__ is kind and isinstance(node, _Node)
        # a leaf carries only the refine protocol's five slots
        assert PosRealValue.__slots__ == ("_refine", "_cache", "_best", "_lock", "exact")
        assert not isinstance(x, _Node)

    @pytest.mark.parametrize(
        "build,q",
        [
            (real_add, PosRat(23, 10)),
            (lambda x, y: real_scale(x, PosRat(7, 3)), PosRat(7, 2)),
            (real_subtract, PosRat(7, 10)),
            (real_mul, PosRat(6, 5)),
            (real_div, PosRat(15, 8)),
            (lambda x, y: MUL.multiple(3, MulReal(x)).value, PosRat(27, 8)),
            (lambda x, y: core.multiple(3, x, REAL), PosRat(9, 2)),
            (lambda x, y: fourth_proportional(PosRat(2), PosRat(3), y, 30), PosRat(6, 5)),
            (product, PosRat(6, 5)),
            (quotient, PosRat(15, 8)),
        ],
        ids=[
            "real_add", "real_scale", "real_subtract", "real_mul", "real_div", "MUL.multiple",
            "core.multiple", "fourth_proportional", "hom.product", "hom.quotient",
        ],
    )
    def test_every_result_on_exact_inputs_is_its_point(self, build, q):
        # the rationals embed in the reals: an operator on exact points
        # returns the exact point, never a node that reads as a grid interval
        x, y = real_from_rat(PosRat(3, 2)), real_from_rat(PosRat(4, 5))
        z = build(x, y)
        assert not isinstance(z, _Node) and z.exact == q
        for p in (0, 30, 300):
            assert z.approx(p) == Interval(q, q)


def alternating_chain(depth: int, sqrt3=isqrt_real):
    """x <- x * (sqrt(5)/3) + sqrt(3) from x = sqrt(2), depth times: monomial
    and linear nodes alternate, each level over a fresh sqrt(3) leaf."""
    c = real_scale(sqrt3(5), PosRat(1, 3))
    acc = sqrt3(2)
    for _ in range(depth):
        acc = real_add(real_mul(acc, c), sqrt3(3))
    return acc


class TestMixedNodes:
    # one forward pass over every node under the root, whatever the kinds:
    # depth costs no interpreter frames and no working precision

    def test_deep_alternating_chain_meets_width(self):
        iv = alternating_chain(3000).approx(4)
        assert iv.width_at_most(4)

    def test_alternating_chain_is_contained_and_reads_leaves_shallow(self):
        mpmath = pytest.importorskip("mpmath")
        seen = []
        iv = alternating_chain(1000, lambda k: recorded(k, seen)).approx(30)
        assert iv.width_at_most(30)
        # one pass, on a whole 32-bit word, reading every leaf once
        assert len(seen) == 1002 and max(seen) <= 64
        with mpmath.workprec(200):
            x, c, r3 = mpmath.sqrt(2), mpmath.sqrt(5) / 3, mpmath.sqrt(3)
            for _ in range(1000):
                x = x * c + r3
            assert holds(iv, x, mpmath.mp)

    def test_difference_below_the_grid_over_a_node_input(self):
        # sqrt(2)*sqrt(3) less a point 2^-83 below it: the first pass's lower
        # sum floors to 0, and the exact sum over the product node's ticks
        # sizes the finer grid
        mpmath = pytest.importorskip("mpmath")
        q = PosRat(2449489742783178098197284, 10**24)
        iv = real_subtract(real_mul(isqrt_real(2), isqrt_real(3)), real_from_rat(q)).approx(30)
        assert iv.width_at_most(30)
        with mpmath.workprec(400):
            assert holds(iv, mpmath.sqrt(6) - mpmath.mpf(q.num) / q.den, mpmath.mp)

    def test_nested_square_roots(self):
        # each level built by pow(x, 1/2, 4), which refines it once: 2^(2^-201)
        mpmath = pytest.importorskip("mpmath")
        x = MulReal(isqrt_real(2))
        for _ in range(200):
            x = pow(x, PosRat(1, 2), 4)
        iv = x.value.approx(30)
        assert iv.width_at_most(30)
        with mpmath.workprec(400):
            assert holds(iv, mpmath.power(2, mpmath.mpf(2) ** -201), mpmath.mp)

    @settings(max_examples=60, deadline=None)
    @given(mixed_dags(), st.integers(0, 200))
    def test_random_dags_contain_and_meet_width(self, dag, p):
        mpmath = pytest.importorskip("mpmath")
        nodes, refs = dag
        with mpmath.workprec(p + 200):
            values = mixed_value(refs, mpmath.mp)
            for node, v in reversed(list(zip(nodes, values))):
                iv = node.approx(p)
                assert iv.width_at_most(p)
                assert holds(iv, v, mpmath.mp)
                # no node is an exact point: exact inputs give a point leaf
                assert not (isinstance(node, _Node) and node.exact is not None)
                if node.exact is not None and isinstance(v, Fraction):
                    assert Fraction(node.exact.num, node.exact.den) == v


def weighted(term) -> tuple:
    """A node's term as (value, num, den), a bare value having weight 1."""
    return term[:3] if term.__class__ is tuple else (term, 1, 1)


def reference_flatten(terms: tuple, kind: type) -> list:
    """_flatten as it was when every sum node was a closure, with a generator
    per node: the reference for the leaves, weights, extra bits and leaf
    order that _flatten must keep.  A node of class kind is inner; any other
    value, a node of another kind included, is a leaf.  A leaf of weight 1
    comes back as its bare source, any other as (source, num, den, extra)."""
    parents: dict = {}
    stack = [weighted(term)[0] for term in terms]
    while stack:
        node = stack.pop()
        if not isinstance(node, kind) or node.exact is not None:
            continue
        children = node._terms
        if node in parents:
            parents[node] += 1
        else:
            parents[node] = 1
            stack.extend(weighted(term)[0] for term in children)
    weight: dict = {}
    ready = [(terms, 1, 1)]
    while ready:
        node_terms, c_num, c_den = ready.pop()
        for child, k_num, k_den in map(weighted, node_terms):
            num, den = c_num * k_num, c_den * k_den
            prev = weight.get(child)
            if prev is not None:
                num, den = num * prev[1] + prev[0] * den, den * prev[1]
            if den != 1:
                g = math.gcd(num, den)
                num, den = num // g, den // g
            weight[child] = (num, den)
            if child in parents:
                parents[child] -= 1
                if not parents[child]:
                    ready.append((child._terms, num, den))
    leaves = []
    for node, (num, den) in weight.items():
        if num and node not in parents:
            src = node if node.exact is None else node.exact
            leaves.append(src if (num, den) == (1, 1) else (src, num, den, ((abs(num) - 1) // den).bit_length()))
    return leaves


def flat(terms: tuple, kind: type) -> list:
    """_flatten's leaves, after checking the nodes it returns beside them:
    the leaves' sources that are nodes, in leaf order."""
    leaves, nodes = _flatten(terms, kind)
    assert list(nodes) == [x for x, _, _ in map(weighted, leaves) if isinstance(x, _Node)]
    return leaves


class TestFlatten:
    # the same leaves in the same order: _monomial rounds its product leaf by
    # leaf, so another order would change the intervals a node returns

    @given(linear_dags())
    def test_linear_dags_match_reference(self, dag):
        for node in dag[0]:
            if node.__class__ is _Linear:
                assert flat(node._terms, _Linear) == reference_flatten(node._terms, _Linear)

    @given(monomial_dags())
    def test_monomial_dags_match_reference(self, dag):
        for node in dag[0]:
            if node.__class__ is _Monomial:
                assert flat(node._terms, _Monomial) == reference_flatten(node._terms, _Monomial)

    @given(monomial_dags())
    def test_fold_keeps_what_flatten_gives_less_its_points(self, dag):
        # _fold takes the exact points out in _flatten's one pass; the
        # reference folds them out of _flatten's leaves afterwards
        for node in dag[0]:
            if node.__class__ is _Monomial:
                leaves, nodes = _flatten(node._terms, _Monomial)
                kept, coef = [], RAT_ONE
                for leaf in leaves:
                    src, k = (leaf[0], leaf[1]) if leaf.__class__ is tuple else (leaf, 1)
                    if src.__class__ is PosRat:
                        coef *= src**k if k > 0 else src.reciprocal() ** -k
                    else:
                        kept.append(leaf)
                assert _fold(node._terms) == (kept, nodes, coef)

    @given(mixed_dags())
    def test_mixed_dags_match_reference(self, dag):
        # sums under products and products under sums: a node of the other
        # kind is a leaf of the walk, not a node to expand
        for node in dag[0]:
            if node.__class__ in (_Linear, _Monomial):
                kind = node.__class__
                assert flat(node._terms, kind) == reference_flatten(node._terms, kind)

    def test_other_kind_is_a_leaf(self):
        x, y, z = isqrt_real(2), isqrt_real(3), isqrt_real(5)
        s = real_add(x, y)
        m = real_mul(s, z)
        t = real_add(real_scale(m, PosRat(1, 3)), s)
        # the product is one leaf of the sums, and the sums are leaves of the
        # products, which expand the product m under them
        assert flat(t._terms, _Linear) == [x, y, (m, 1, 3, 0)]
        assert flat(real_div(t, m)._terms, _Monomial) == [t, (s, -1, 1, 0), (z, -1, 1, 0)]
        assert flat(real_mul(m, t)._terms, _Monomial) == [t, s, z]

    def test_plain_terms_are_the_leaves(self):
        # no inner node of the kind among the terms and no value twice: the
        # terms come back as the leaves, an exact point as its value
        x, y = isqrt_real(2), isqrt_real(3)
        s, third = real_add(x, y), real_from_rat(PosRat(1, 3))
        cases = [
            (real_mul(x, y), [x, y]),
            (real_div(s, third), [s, (PosRat(1, 3), -1, 1, 0)]),
            (real_scale(x, PosRat(22, 7)), [(x, 22, 7, 2)]),
            # a repeated value takes the walk, which sums its weights
            (real_mul(x, x), [(x, 2, 1, 1)]),
        ]
        for node, want in cases:
            kind = node.__class__
            assert flat(node._terms, kind) == want == reference_flatten(node._terms, kind)

    def test_deep_add_chain_matches_reference(self):
        # 1000 sums over fresh leaves and ten leaves that recur
        shared = [isqrt_real(k) for k in NON_SQUARES[:10]]
        acc = isqrt_real(2)
        for i in range(1000):
            acc = real_add(acc, shared[i % 10] if i % 3 else isqrt_real(NON_SQUARES[i % len(NON_SQUARES)]))
        leaves = flat(acc._terms, _Linear)
        assert leaves == reference_flatten(acc._terms, _Linear)
        assert len(leaves) == 1 + 10 + 334

    def test_shared_bottom_node_falls_back_after_the_tree_walk(self):
        # the root's terms are a chain's bottom sum and the chain's top, so the
        # tree walk gathers the chain's 500 leaves before it meets the bottom
        # sum a second time, at the chain's foot; the parent-count walk then
        # starts over, and must give the reference's leaves in its order
        shared = [isqrt_real(k) for k in NON_SQUARES[:10]]
        bottom = real_add(shared[0], real_scale(shared[1], PosRat(2, 3)))
        acc = bottom
        for i in range(500):
            acc = real_add(acc, shared[i % 10] if i % 3 else isqrt_real(NON_SQUARES[i % len(NON_SQUARES)]))
        root = real_add(bottom, real_scale(acc, PosRat(5, 7)))
        assert _push_down(acc._terms, _Linear, None) is not None
        assert _push_down(root._terms, _Linear, None) is None
        leaves = flat(root._terms, _Linear)
        assert leaves == reference_flatten(root._terms, _Linear)
        assert len(leaves) == 10 + 167


class TestRealCompare:
    def test_exact_points_certify(self):
        a = real_from_rat(PosRat(1, 3))
        b = real_from_rat(PosRat(1, 2))
        assert real_compare(a, b, 4) is Rel.LESS

    def test_sqrt2_below_3_2(self, sqrt2):
        assert real_compare(sqrt2, real_from_rat(PosRat(3, 2)), 8) is Rel.LESS

    def test_self_overlaps(self, sqrt2):
        out = real_compare(sqrt2, sqrt2, 16)
        assert isinstance(out, Overlap) and out.precision == 16

    def test_certificates_stable(self, sqrt2):
        alt = real_from_rat(PosRat(141, 100))
        first = None
        for p in (4, 8, 16, 32, 64):
            out = real_compare(sqrt2, alt, p)
            if isinstance(out, Overlap):
                continue
            if first is None:
                first = out
            assert out is first

    def test_exact_order_refused(self, sqrt2):
        # equal reals are never ordered: they overlap through the top rung
        with pytest.raises(UndecidedError, match="real comparison overlapped through precision 256"):
            REAL.order(sqrt2, sqrt2)

    def test_order_certifies_with_difference_gap(self, sqrt2):
        three_halves = real_from_rat(PosRat(3, 2))
        less, greater = REAL.order(sqrt2, three_halves), REAL.order(three_halves, sqrt2)
        assert less.tag is Rel.LESS and greater.tag is Rel.GREATER
        for out in (less, greater):
            iv = out.gap.approx(40)
            assert iv.width_at_most(40)
            # lo <= 3/2 - sqrt2 <= hi, that is (3/2 - hi)^2 <= 2 <= (3/2 - lo)^2
            below = Fraction(3, 2) - Fraction(iv.hi.num, iv.hi.den)
            above = Fraction(3, 2) - Fraction(iv.lo.num, iv.lo.den)
            assert below * below <= 2 <= above * above


class TestCertify:
    # verdicts and rungs below were recorded by walking the former
    # (4, 8, ..., 256) schedule with real_compare, one rung at a time

    def test_ladder(self):
        assert ladder(256) == ladder() == (4, 8, 16, 32, 64, 128, 256)
        assert ladder(48) == (4, 8, 16, 32, 48)
        assert ladder(16) == (4, 8, 16)
        assert ladder(3) == (3,)

    def test_ladder_memo_is_bounded(self):
        # a ratio comparison asks for ladder(max(16, 4 * fuel)) on every call:
        # the same cap gives the same tuple, and no fuels grow the memo
        assert ladder(48) is ladder(48)
        for cap in range(1000, 1300):
            assert ladder(cap)[-1] == cap
        assert ladder.cache_info().currsize <= 64
        assert ladder(256) == (4, 8, 16, 32, 64, 128, 256)

    @pytest.mark.parametrize(
        "q, rel, rung",
        [
            (PosRat(3, 2), Rel.LESS, 4),
            (PosRat(7, 5), Rel.GREATER, 8),
            (PosRat(141421, 100000), Rel.GREATER, 32),
            (PosRat(707106781, 500000000), Rel.GREATER, 32),
        ],
    )
    def test_first_separating_rung(self, q, rel, rung):
        assert certify(isqrt_real(2), real_from_rat(q), ladder()) == (rel, rung)
        # an exact side is compared as a point, with the same outcome
        assert certify(isqrt_real(2), q, ladder()) == (rel, rung)
        assert certify(q, isqrt_real(2), ladder()) == (rel.swapped(), rung)

    def test_two_sqrt2_oracles_never_strict(self):
        alt = real_scale(isqrt_real(8), PosRat(1, 2))
        assert certify(isqrt_real(2), alt, ladder()) == (None, 256)
        assert certify(isqrt_real(2), alt, ladder(48)) == (None, 48)

    def test_rungs_walked_in_order(self):
        seen = []

        def refine(p):
            seen.append(p)
            return isqrt_real(2).approx(p)

        assert certify(PosRealValue(refine), PosRat(141421, 100000), ladder()) == (
            Rel.GREATER,
            32,
        )
        assert seen == [4, 8, 16, 32]

    @given(rationals, rationals, st.integers(1, 10**6), st.integers(1, 10**6))
    def test_multipliers_on_points_match_fractions(self, x, y, m, n):
        want = (m * Fraction(x.num, x.den) > n * Fraction(y.num, y.den)) - (
            m * Fraction(x.num, x.den) < n * Fraction(y.num, y.den)
        )
        rel, rung = certify(x, y, ladder(), m, n)
        assert rel is {1: Rel.GREATER, -1: Rel.LESS, 0: None}[want]
        assert rung == 4 or rel is None

    @given(
        st.integers(2, 1000),
        st.integers(2, 1000),
        st.integers(1, 1000),
        st.integers(1, 1000),
    )
    def test_multipliers_on_roots_match_isqrt(self, k, l, m, n):
        # m*sqrt(k) against n*sqrt(l) is the sign of m^2 k - n^2 l; distinct
        # values here differ by more than 2^-20, so the ladder certifies them
        lhs, rhs = m * m * k, n * n * l
        rel, _ = certify(isqrt_real(k), isqrt_real(l), ladder(), m, n)
        assert rel is (Rel.GREATER if lhs > rhs else Rel.LESS if lhs < rhs else None)
        # a rational side q = c/d: compare m^2 k d^2 against n^2 c^2
        c, d = math.isqrt(l * 10**6) + 1, 1000
        q = PosRat(c, d)
        rel, _ = certify(isqrt_real(k), q, ladder(), m, n)
        lhs, rhs = m * m * k * d * d, n * n * c * c
        assert rel is (Rel.GREATER if lhs > rhs else Rel.LESS if lhs < rhs else None)

    def test_unit_multipliers_read_the_rungs(self):
        # m = n = 1 reads each side at exactly the rungs; m, n > 1 read
        # ceil(log2 multiplier) bits deeper
        sx = []
        alt = real_scale(isqrt_real(8), PosRat(1, 2))
        assert certify(recorded(2, sx), alt, ladder()) == (None, 256)
        assert sx == [4, 8, 16, 32, 64, 128, 256]
        sx, sy = [], []
        assert certify(recorded(2, sx), recorded(3, sy), ladder(48)) == (Rel.LESS, 4)
        assert (sx, sy) == ([4], [4])
        sx, sy = [], []
        assert certify(recorded(2, sx), recorded(8, sy), ladder(48), 4, 2) == (None, 48)
        assert (sx, sy) == ([6, 10, 18, 34, 50], [5, 9, 17, 33, 49])
        sx, sy = [], []
        assert certify(recorded(2, sx), recorded(3, sy), ladder(), 5, 3) == (Rel.GREATER, 4)
        assert (sx, sy) == ([7], [6])

    def test_overlapped_multiples_give_last_rung(self):
        # 2*sqrt(2) = sqrt(8) and 3*sqrt(2) = 3*(sqrt(8)/2): never strict
        assert certify(isqrt_real(2), isqrt_real(8), ladder(40), 2, 1) == (None, 40)
        alt = real_scale(isqrt_real(8), PosRat(1, 2))
        assert certify(isqrt_real(2), alt, ladder(), 3, 3) == (None, 256)
        assert certify(PosRat(3, 7), PosRat(1, 7), (4, 9), 1, 3) == (None, 9)


class TestModelDispatch:
    def test_model_of(self):
        assert model_of(3) is NAT
        assert model_of(PosRat(1, 2)) is RAT
        assert model_of(real_from_rat(PosRat(1, 2))) is REAL

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "x"])
    def test_rejects(self, bad):
        with pytest.raises(ModelMismatchError):
            model_of(bad)

    def test_parse_and_format(self):
        assert parse_element(NAT, "12") == 12
        assert parse_element(RAT, "4/6") == PosRat(2, 3)
        real = parse_element(REAL, "3/2")
        assert real.exact == PosRat(3, 2)
        assert format_element(PosRat(2, 3)) == "2/3"
        assert format_element(12) == "12"
        assert format_element(real, precision=10) == "1.500 ± 2^-10"

    def test_descriptors(self):
        assert NAT.descriptor.discrete and NAT.descriptor.smallest == 1
        assert RAT.descriptor.symmetric and not RAT.descriptor.discrete
        assert not REAL.descriptor.discrete and not REAL.descriptor.exact_order


# Ownership for each shipped model, and values it must refuse: nat needs an
# int >= 1, so a class test alone would admit 0, -1 and True.
NOT_OWNED = [
    (NAT, 0),
    (NAT, -1),
    (NAT, True),
    (NAT, PosRat(2)),
    (RAT, 2),
    (RAT, real_from_rat(PosRat(2))),
    (REAL, PosRat(2)),
]
OWNED = {NAT: 3, RAT: PosRat(2, 3), REAL: real_from_rat(PosRat(2, 3))}


class TestMembership:
    @pytest.mark.parametrize("model, bad", NOT_OWNED)
    def test_check_refuses(self, model, bad):
        assert not model.owns(bad)
        with pytest.raises(ModelMismatchError, match="is not an element of model"):
            model.check(bad)

    @pytest.mark.parametrize("model, bad", NOT_OWNED)
    def test_operations_refuse(self, model, bad):
        good = OWNED[model]
        calls = [
            lambda: core.multiple(2, bad, model),
            lambda: core.combine(good, bad, model),
            lambda: core.combine(bad, good, model),
            lambda: core.compare(good, bad, model),
            lambda: core.subtract(good, bad, model),
            lambda: core.subtract(bad, good, model),
            lambda: ratio_compare(good, bad, good, good),
            lambda: ratio_compare(good, good, good, bad),
        ]
        for call in calls:
            with pytest.raises(ModelMismatchError):
                call()

    def test_owned_values_pass(self):
        for model, good in OWNED.items():
            assert model.check(good) is good
        assert NAT.check(Int(5)) == 5  # an int subclass is an int
        assert REAL.check(real_add(OWNED[REAL], OWNED[REAL])).exact == PosRat(4, 3)


class _Words:
    """A stand-in rng whose getrandbits(32) returns the given words in turn."""

    def __init__(self, *words):
        self.words = list(words)

    def getrandbits(self, k):
        assert k == 32
        return self.words.pop(0)


def _element_key(x):
    return x.exact if isinstance(x, PosRealValue) else x


class TestRandomElement:
    MODELS = [NAT, RAT, REAL]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.descriptor.model_id)
    def test_in_documented_range(self, model):
        rng = random.Random(11)
        for _ in range(500):
            x = model.random_element(rng)
            assert model.owns(x)
            if model is NAT:
                assert 1 <= x <= 1 << 32
            else:
                q = _element_key(x)
                assert 1 <= q.num <= 1 << 16 and 1 <= q.den <= 1 << 16

    def test_words_map_to_range_ends(self):
        top, low = 0xFFFF << 16, 0xFFFF
        assert [NAT.random_element(_Words(w)) for w in (0, (1 << 32) - 1)] == [1, 1 << 32]
        rats = [RAT.random_element(_Words(w)) for w in (0, top, low, top | low)]
        assert rats == [PosRat(1, 1), PosRat(1 << 16, 1), PosRat(1, 1 << 16), PosRat(1, 1)]
        assert REAL.random_element(_Words(0x1234_0041)).exact == PosRat(0x1235, 0x42)

    @given(st.integers(0, (1 << 32) - 1), st.integers(0, 16))
    def test_rat_matches_the_validating_constructor(self, w, s):
        # low half 2^s - 1 draws the power-of-two denominators PosRat reduces by shifts
        for word in (w, (w & ~0xFFFF) | ((1 << s) - 1)):
            got, want = RAT.random_element(_Words(word)), PosRat((word >> 16) + 1, (word & 0xFFFF) + 1)
            assert (got.__class__, got.num, got.den) == (PosRat, want.num, want.den)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.descriptor.model_id)
    def test_one_element_consumes_one_word(self, model):
        for seed in range(20):
            ours, twin = random.Random(seed), random.Random(seed)
            model.random_element(ours)
            twin.getrandbits(32)
            assert ours.getstate() == twin.getstate()

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.descriptor.model_id)
    def test_same_seed_same_elements(self, model):
        def draw(seed):
            rng = random.Random(seed)
            return [_element_key(model.random_element(rng)) for _ in range(50)]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)

    @pytest.mark.parametrize("bound", [0, 3, 100, 1000, (1 << 10) + 1])
    def test_multiplier_bound_not_a_power_of_two_refused(self, bound):
        from magnitudes import laws

        with pytest.raises(ValueError, match="not a power of two"):
            laws._elems_mults(("a",), ("n",), bound=bound)

    @pytest.mark.parametrize("bound", [1, 2, 8, 1 << 10])
    def test_multipliers_uniform_on_one_to_bound(self, bound):
        from magnitudes import laws

        gen, rng = laws._elems_mults(("a",), ("m", "n"), bound=bound), random.Random(5)
        seen = {v[k] for v in (gen(NAT, rng) for _ in range(40 * bound)) for k in "mn"}
        assert seen == set(range(1, bound + 1))
