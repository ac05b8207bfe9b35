"""The multiple search and the ratio engine against their earlier designs.

``reference_least_multiple_exceeding`` is the generic search the library
used before the floor(b/a) + 1 formula: doubling, then bisection, building
one ``real_scale`` node per probe on reals and certifying it on the default
ladder.  ``reference_ratio_compare`` is the ratio engine before exactness
was read from the terms: an exact branch chosen by the models'
``exact_order`` flags, and a ladder loop that tracked whether every term was
a point, divided the terms' intervals into reduced ``PosRat`` enclosures
(``_enclose``) and certified each witness a second time on a fresh ladder
(``_rel_vs_fraction``, which reads two points at rung 0).
``reference_enclosure_ratio_compare`` is the engine before exact terms were
pinned once as point intervals: it read each exact term as a ``PosRat``,
through its ``lo``/``hi`` properties, on every rung.
All are kept as they were, apart from being free functions, so that the
single-path versions can be checked against them.
"""

from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from magnitudes import core, models
from magnitudes.core import Rel
from magnitudes.models import (
    REAL,
    PosRat,
    PosRealValue,
    _num_den,
    certify,
    ladder,
    model_of,
    real_from_rat,
    real_scale,
)
from magnitudes.mediants import _simplest, simplest_in
from magnitudes.ratio import (
    RatioRel,
    Witness,
    have_ratio_witness,
    ratio_compare,
)

from conftest import isqrt_real

# ---------------------------------------------------------------------------
# reference copies


def _reference_certainly_greater(model, a, b) -> bool:
    if model is REAL:
        # Overlap at the top of the default ladder counts as 'not greater':
        # honest for searches that only need a sound upper answer.
        return certify(a, b, ladder())[0] is Rel.GREATER
    return model.order(a, b).is_greater


def reference_least_multiple_exceeding(model, a, b) -> int:
    """Least n with n*a certainly above b: doubling, then bisection."""
    if _reference_certainly_greater(model, a, b):
        return 1
    lo = 1  # known: lo * a <= b
    hi = 2
    while not _reference_certainly_greater(model, model.multiple(hi, a), b):
        lo = hi
        hi <<= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _reference_certainly_greater(model, model.multiple(mid, a), b):
            hi = mid
        else:
            lo = mid
    return hi


def _reference_point(t):
    """A term as an exact PosRat when it is a known point; other reals as given."""
    if isinstance(t, int):
        return PosRat(t)
    if isinstance(t, PosRealValue) and t.exact is not None:
        return t.exact
    return t


def _enclose(x, y, p: int):
    """Ends of an interval holding the ratio value x/y, from the terms at rung p."""
    a = x if isinstance(x, PosRat) else x.approx(p)
    b = y if isinstance(y, PosRat) else y.approx(p)
    return a.lo / b.hi, a.hi / b.lo


def _rel_vs_fraction(x, y, n: int, m: int, rungs):
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


def _exact_separator(lower: PosRat, upper: PosRat) -> Witness:
    """Witness from the simplest fraction s with lower <= s < upper."""
    s = simplest_in(lower, upper, include_lo=True, include_hi=False)
    return Witness(m=s.den, n=s.num)


def reference_ratio_compare(a, b, a2, b2, fuel: int = 64) -> RatioRel:
    model1 = model_of(a)
    model1.check(b)
    model2 = model_of(a2)
    model2.check(b2)

    if model1.descriptor.exact_order and model2.descriptor.exact_order:
        n1, m1 = model1.ratio_pair(a, b)
        n2, m2 = model2.ratio_pair(a2, b2)
        lhs, rhs = n1 * m2, n2 * m1
        if lhs == rhs:
            return RatioRel.equal()
        v1, v2 = PosRat(n1, m1), PosRat(n2, m2)
        if lhs > rhs:
            return RatioRel.greater(_exact_separator(v2, v1))
        return RatioRel.less(_exact_separator(v1, v2))

    x, y = _reference_point(a), _reference_point(b)
    x2, y2 = _reference_point(a2), _reference_point(b2)
    points = all(isinstance(t, PosRat) for t in (x, y, x2, y2))
    cap = max(16, 4 * fuel)
    rungs = ladder(cap)
    for p in rungs:
        lo1, hi1 = _enclose(x, y, p)
        lo2, hi2 = _enclose(x2, y2, p)
        if hi2 < lo1:
            verdict, upper, w = RatioRel.greater, (x, y), _exact_separator(hi2, lo1)
        elif hi1 < lo2:
            verdict, upper, w = RatioRel.less, (x2, y2), _exact_separator(hi1, lo2)
        elif points:
            return RatioRel.equal()
        else:
            continue
        # a witness whose strict side does not certify waits for a later rung
        rel, q = _rel_vs_fraction(*upper, w.n, w.m, rungs)
        if rel is Rel.GREATER:
            return verdict(w, 0 if points else -(-max(p, q) // 4))
    return RatioRel.unknown(fuel, cap)


def _enclosure_point(t):
    """A known point as a PosRat; any other real as given."""
    nd = _num_den(t)
    return t if nd is None else PosRat._reduced(*nd)


def reference_enclosure_ratio_compare(a, b, a2, b2, fuel: int = 64) -> RatioRel:
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
        if lhs > rhs:
            n, m = _simplest(n2, m2, n1, m1, True, False)
            return RatioRel.greater(Witness(m, n))
        n, m = _simplest(n1, m1, n2, m2, True, False)
        return RatioRel.less(Witness(m, n))

    x, y = _enclosure_point(a), _enclosure_point(b)
    x2, y2 = _enclosure_point(a2), _enclosure_point(b2)
    cap = max(16, 4 * fuel)
    for p in ladder(cap):
        u = x if isinstance(x, PosRat) else x.approx(p)
        v = y if isinstance(y, PosRat) else y.approx(p)
        u2 = x2 if isinstance(x2, PosRat) else x2.approx(p)
        v2 = y2 if isinstance(y2, PosRat) else y2.approx(p)
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


# ---------------------------------------------------------------------------
# exact points: nat, rat and exact reals, mixed

rationals = st.builds(PosRat, st.integers(1, 1 << 16), st.integers(1, 1 << 16))
models_ = st.sampled_from(("nat", "rat", "real"))


def express(x: PosRat, y: PosRat, model: str, k: int):
    """The ratio x : y, its terms scaled by k, as a pair of the model."""
    if model == "nat":
        return x.num * y.den * k, x.den * y.num * k
    a, b = x * PosRat(k), y * PosRat(k)
    return (a, b) if model == "rat" else (real_from_rat(a), real_from_rat(b))


@st.composite
def exact_quadruples(draw):
    """Two pairs of exact points, the second often the first's ratio rescaled."""
    x, y = draw(rationals), draw(rationals)
    a, b = express(x, y, draw(models_), 1)
    if draw(st.booleans()):
        x2, y2, k = x, y, draw(st.integers(1, 1 << 20))
        if draw(st.booleans()):
            x2 = x2 + PosRat(1, 1 << 40)
    else:
        x2, y2, k = draw(rationals), draw(rationals), 1
    a2, b2 = express(x2, y2, draw(models_), k)
    return a, b, a2, b2


class TestExactPoints:
    @settings(max_examples=150, deadline=None)
    @given(exact_quadruples())
    def test_ratio_compare_matches_reference(self, terms):
        got = ratio_compare(*terms)
        want = reference_ratio_compare(*terms)
        assert (got.kind, got.witness, got.fuel_spent) == (want.kind, want.witness, want.fuel_spent)

    @settings(max_examples=150, deadline=None)
    @given(exact_quadruples())
    def test_search_matches_reference(self, terms):
        for a, b in (terms[:2], terms[2:]):
            for x, y in ((a, b), (b, a)):
                want = reference_least_multiple_exceeding(model_of(x), x, y)
                assert core.find_multiple_exceeding(x, y) == want


# ---------------------------------------------------------------------------
# real inputs: q * sqrt(k)

non_squares = st.integers(2, 1024).filter(lambda k: int(k**0.5 + 0.5) ** 2 != k)
surds = st.tuples(non_squares, rationals)
real_specs = st.one_of(surds, rationals)


def build(spec) -> PosRealValue:
    """A fresh value: q*sqrt(k) over an isqrt leaf, or the point q."""
    if isinstance(spec, PosRat):
        return real_from_rat(spec)
    k, q = spec
    return real_scale(isqrt_real(k), q)


class TestRealInputs:
    @settings(max_examples=100, deadline=None)
    @given(surds, real_specs)
    def test_search_matches_reference(self, s, t):
        for x, y in ((s, t), (t, s)):
            want = reference_least_multiple_exceeding(REAL, build(x), build(y))
            assert core.find_multiple_exceeding(build(x), build(y), REAL) == want

    @settings(max_examples=40, deadline=None)
    @given(surds, st.integers(0, 200), real_specs)
    def test_search_matches_reference_far_apart(self, s, shift, t):
        # b/a up to 2^216: the multiplier side is read deeper, as certify reads it
        k, q = s
        s = (k, q * PosRat(1, 1 << shift))
        for x, y in ((s, t), (t, s)):
            want = reference_least_multiple_exceeding(REAL, build(x), build(y))
            assert core.find_multiple_exceeding(build(x), build(y), REAL) == want

    def test_search_two_hundred_bits_apart(self):
        a, b = (2, PosRat(1, 2**200)), PosRat(1)
        want = reference_least_multiple_exceeding(REAL, build(a), build(b))
        assert want == isqrt(2**399) + 1  # 2^200 / sqrt(2) = sqrt(2^399)
        assert core.find_multiple_exceeding(build(a), build(b), REAL) == want

    @settings(max_examples=60, deadline=None)
    @given(surds, real_specs, real_specs, real_specs)
    def test_ratio_compare_matches_reference(self, s, t, u, v):
        got = ratio_compare(build(s), build(t), build(u), build(v))
        assert got == reference_ratio_compare(build(s), build(t), build(u), build(v))


# ---------------------------------------------------------------------------
# pinned exact terms: nat, rat, exact-real and sqrt terms, mixed


def nudged(spec, g: int, up: bool):
    """The spec's value times (1 + 2^-g), or divided by it."""
    f = PosRat((1 << g) + 1, 1 << g)
    f = f if up else f.reciprocal()
    return spec * f if isinstance(spec, PosRat) else (spec[0], spec[1] * f)


@st.composite
def mixed_pairs(draw):
    """Two (model, antecedent, consequent) specs: nat ints, rats, or reals
    that are exact points or q*sqrt(k); the second pair is often the first
    with its antecedent nudged by a factor 1 + 2^-g, so that the ladder
    climbs before it parts the enclosures."""
    pairs = []
    for _ in range(2):
        model = draw(st.sampled_from(("nat", "rat", "real", "real")))
        spec = st.integers(1, 1 << 20) if model == "nat" else rationals if model == "rat" else real_specs
        pairs.append((model, draw(spec), draw(spec)))
    first = pairs[0]
    if first[0] != "nat" and draw(st.booleans()):
        g, up = draw(st.integers(1, 120)), draw(st.booleans())
        pairs[1] = (first[0], nudged(first[1], g, up), first[2])
    return pairs


def terms(pairs) -> list:
    """Fresh terms for the specs: ints, PosRats, or built reals."""
    return [
        spec if model != "real" else build(spec)
        for model, *specs in pairs
        for spec in specs
    ]


class TestPinnedTerms:
    @settings(max_examples=200, deadline=None)
    @given(mixed_pairs(), st.integers(1, 40))
    def test_ratio_compare_matches_enclosure_reference(self, pairs, fuel):
        got = ratio_compare(*terms(pairs), fuel=fuel)
        want = reference_enclosure_ratio_compare(*terms(pairs), fuel=fuel)
        assert (got.kind, got.witness, got.fuel_spent) == (want.kind, want.witness, want.fuel_spent)


# ---------------------------------------------------------------------------
# the real search builds no node and reads each side once per rung


class Recording(PosRealValue):
    """A real read through another, recording the precision of every read."""

    __slots__ = ("reads",)

    def __init__(self, x: PosRealValue):
        super().__init__(x.approx)
        self.reads = []

    def approx(self, p: int):
        self.reads.append(p)
        return super().approx(p)


def tiny() -> PosRealValue:
    return real_scale(isqrt_real(2), PosRat(1, 10**12))


class TestNoNodeBoundedReads:
    def test_builds_no_node(self, monkeypatch):
        a, b = tiny(), real_from_rat(PosRat(1))
        built = []

        def counting(init):
            def wrapped(self, *args):
                built.append(type(self).__name__)
                init(self, *args)

            return wrapped

        # every sum, product and power node is built by _Node.__init__
        monkeypatch.setattr(models._Node, "__init__", counting(models._Node.__init__))
        monkeypatch.setattr(PosRealValue, "__init__", counting(PosRealValue.__init__))
        assert have_ratio_witness(a, b) == (707106781187, 1)
        assert built == []

    def test_ratio_compare_reads_each_real_term_once_per_rung(self):
        rungs = list(ladder(256))  # the default fuel's ladder
        for g in (1, 6, 30, 60, 200, None):
            t = PosRat(7, 3) if g is None else nudged(PosRat(7, 3), g, True)
            one = Recording(real_from_rat(PosRat(1)))
            one.exact = PosRat(1)  # an exact point: pinned, never read
            x, y = Recording(real_scale(isqrt_real(2), PosRat(7, 3))), Recording(isqrt_real(5))
            x2, y2 = Recording(real_scale(isqrt_real(2), t)), Recording(isqrt_real(5))
            for quad in ((x, y, x2, y2), (x2, one, x, one), (x, one, PosRat(10), PosRat(3))):
                for r in (x, y, x2, y2, one):
                    r.reads = []
                got = ratio_compare(*quad)
                read = [r.reads for r in quad if isinstance(r, Recording) and r.exact is None]
                # every real term read at each rung up to the deciding one, once
                assert read[0] and read[0] == rungs[: len(read[0])]
                assert all(reads == read[0] for reads in read)
                assert one.reads == []
                if got.is_unknown:  # equal ratios: every rung read
                    assert read[0] == rungs

    def test_reads_once_per_rung(self):
        rungs = list(ladder())
        pairs = (
            (tiny, lambda: isqrt_real(2)),
            (lambda: isqrt_real(3), lambda: real_scale(isqrt_real(2), PosRat(1000))),
        )
        for make_a, make_b in pairs:
            for make_x, make_y in ((make_a, make_b), (make_b, make_a)):
                x, y = Recording(make_x()), Recording(make_y())
                core.find_multiple_exceeding(x, y, REAL)
                # one read of each side per rung, stopping early or at the cap:
                # b at the rung, a at least as deep
                assert y.reads and y.reads == rungs[: len(y.reads)]
                assert len(x.reads) == len(y.reads)
                assert all(q >= p for q, p in zip(x.reads, y.reads))
