"""The multiple search and the ratio engine against their earlier designs.

``reference_least_multiple_exceeding`` is the generic search the library
used before the floor(b/a) + 1 formula: doubling, then bisection, building
one ``real_scale`` node per probe on reals and certifying it on the default
ladder.  ``reference_ratio_compare`` is the ratio engine before exactness
was read from the terms: an exact branch chosen by the models'
``exact_order`` flags, and a ladder loop that tracked whether every term was
a point.  Both are kept as they were, apart from being free functions, so
that the single-path versions can be checked against them.
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
    certify,
    ladder,
    model_of,
    real_from_rat,
    real_scale,
)
from magnitudes.ratio import (
    RatioRel,
    _enclose,
    _exact_separator,
    _rel_vs_fraction,
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

        monkeypatch.setattr(models._Linear, "__init__", counting(models._Linear.__init__))
        monkeypatch.setattr(PosRealValue, "__init__", counting(PosRealValue.__init__))
        assert have_ratio_witness(a, b) == (707106781187, 1)
        assert built == []

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
