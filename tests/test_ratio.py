import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitudes.core import Rel
from magnitudes.errors import InexactModelError, ModelMismatchError
from magnitudes.mediants import simplest_in
from magnitudes.models import NAT, RAT, REAL, PosRat, PosRealValue, certify, ladder, real_add, real_from_rat, real_scale
from magnitudes.ratio import (
    RatioRel,
    Witness,
    have_ratio_witness,
    ratio_compare,
    verify_witness,
)

from conftest import isqrt_real, recorded, sqrt_convergents

rationals = st.builds(PosRat, st.integers(1, 1000), st.integers(1, 1000))


def exact_value(x: PosRat, y: PosRat) -> Fraction:
    return Fraction(x.num, x.den) / Fraction(y.num, y.den)


def as_fraction(x) -> Fraction:
    return Fraction(x) if isinstance(x, int) else Fraction(x.num, x.den)


nat_pairs = st.tuples(st.integers(1, 1 << 64), st.integers(1, 1 << 64))
rat_pairs = st.tuples(
    st.builds(PosRat, st.integers(1, 1 << 64), st.integers(1, 1 << 64)),
    st.builds(PosRat, st.integers(1, 1 << 64), st.integers(1, 1 << 64)),
)


@st.composite
def exact_quadruples(draw):
    """Two nat or rat pairs, the second often a rescaling of the first."""
    a, b = draw(st.one_of(nat_pairs, rat_pairs))
    if draw(st.booleans()):
        k = draw(st.integers(1, 1 << 40))
        if draw(st.booleans()):
            # the same ratio written in the other exact model
            a, b = (PosRat(a), PosRat(b)) if isinstance(a, int) else (a.num * b.den, a.den * b.num)
        a2, b2 = (k * a, k * b) if isinstance(a, int) else (PosRat(k) * a, PosRat(k) * b)
        if draw(st.booleans()):
            a2 = a2 + 1 if isinstance(a2, int) else a2 + PosRat(1, 1 << 70)
    else:
        a2, b2 = draw(st.one_of(nat_pairs, rat_pairs))
    return a, b, a2, b2


class TestHaveRatioWitness:
    def test_examples(self):
        assert have_ratio_witness(PosRat(1, 2), PosRat(5, 1)) == (11, 1)
        assert have_ratio_witness(PosRat(3, 1), PosRat(3, 1)) == (2, 2)
        assert have_ratio_witness(1, 4) == (5, 1)

    def test_terms_of_two_models_refused(self):
        for a, b in ((2, PosRat(1, 2)), (PosRat(1, 2), 2), (0, 2), (2, True)):
            with pytest.raises(ModelMismatchError):
                have_ratio_witness(a, b)

    @given(rationals, rationals)
    def test_witnesses_certify(self, a, b):
        m, n = have_ratio_witness(a, b)
        assert PosRat(m, 1) * a > b
        assert PosRat(n, 1) * b > a


class TestRatioValueExact:
    """An exact ratio a : b is the integer pair Model.ratio_pair(a, b)."""

    def test_examples(self):
        assert NAT.ratio_pair(2, 3) == (2, 3)
        assert RAT.ratio_pair(PosRat(3, 2), PosRat(4, 3)) == (9, 8)
        # 4 : 6 and 2 : 3 are one ratio: their pairs cross-multiply equal
        n, m = NAT.ratio_pair(4, 6)
        n2, m2 = NAT.ratio_pair(2, 3)
        assert n * m2 == n2 * m

    def test_real_refused(self):
        with pytest.raises(InexactModelError):
            REAL.ratio_pair(real_from_rat(PosRat(1, 2)), real_from_rat(PosRat(1, 3)))


class TestRatioCompareExact:
    def test_spec_witness(self):
        got = ratio_compare(PosRat(3, 1), PosRat(2, 1), PosRat(4, 1), PosRat(3, 1))
        assert got.is_greater and got.witness == Witness(3, 4)

    def test_cross_multiplication_equality(self):
        assert ratio_compare(2, 3, 4, 6).is_equal

    def test_fuel_validation(self):
        with pytest.raises(ValueError):
            ratio_compare(1, 2, 1, 2, fuel=0)

    @settings(max_examples=300)
    @given(rationals, rationals, rationals, rationals)
    def test_agrees_with_oracle_and_verifies(self, a, b, c, d):
        got = ratio_compare(a, b, c, d)
        assert not got.is_unknown
        v1, v2 = exact_value(a, b), exact_value(c, d)
        if v1 == v2:
            assert got.is_equal
        elif v1 > v2:
            assert got.is_greater
            assert verify_witness(got.witness, a, b, c, d)
        else:
            assert got.is_less
            assert verify_witness(got.witness, c, d, a, b)

    @settings(max_examples=150)
    @given(rationals, rationals, rationals, rationals)
    def test_antisymmetry(self, a, b, c, d):
        fwd = ratio_compare(a, b, c, d)
        rev = ratio_compare(c, d, a, b)
        assert rev.kind == {"greater": "less", "less": "greater", "equal": "equal"}[fwd.kind]
        assert rev.witness == fwd.witness

    @given(rationals, rationals, st.integers(1, 1 << 10))
    def test_scaling_preserves_ratio(self, a, b, k):
        ka = PosRat(k, 1) * a
        kb = PosRat(k, 1) * b
        assert ratio_compare(a, b, ka, kb).is_equal

    @settings(max_examples=400)
    @given(exact_quadruples())
    def test_cross_multiplication_matches_fractions(self, quad):
        a, b, a2, b2 = quad
        v1, v2 = as_fraction(a) / as_fraction(b), as_fraction(a2) / as_fraction(b2)
        got = ratio_compare(a, b, a2, b2)
        assert got.fuel_spent == 0
        if v1 == v2:
            assert got.is_equal and got.witness is None
            return
        lower, upper = sorted((v1, v2))
        s = simplest_in(PosRat(lower.numerator, lower.denominator), PosRat(upper.numerator, upper.denominator))
        assert got.witness == Witness(m=s.den, n=s.num)
        if v1 > v2:
            assert got.is_greater and verify_witness(got.witness, a, b, a2, b2)
        else:
            assert got.is_less and verify_witness(got.witness, a2, b2, a, b)

    @settings(max_examples=300)
    @given(st.data())
    def test_witness_from_unreduced_cross_products(self, data):
        # each pair is (k*x, k*y) as nat, rat or exact real terms, so its
        # cross products a.num*b.den : a.den*b.num share the factor k >= 2
        xy = st.tuples(st.integers(1, 1 << 30), st.integers(1, 1 << 30))
        (x, y), (x2, y2) = data.draw(xy), data.draw(xy)
        if data.draw(st.booleans()):
            x2, y2 = x, y  # the same ratio at another scale
        quad = []
        for u, v in ((x, y), (x2, y2)):
            k = data.draw(st.integers(2, 1 << 20))
            wrap = data.draw(st.sampled_from([int, PosRat, lambda t: real_from_rat(PosRat(t))]))
            quad += [wrap(k * u), wrap(k * v)]
        got = ratio_compare(*quad)
        assert got.fuel_spent == 0
        v1, v2 = Fraction(x, y), Fraction(x2, y2)
        if v1 == v2:
            assert got == RatioRel.equal()
            return
        lower, upper = sorted((v1, v2))
        s = simplest_in(PosRat(lower.numerator, lower.denominator), PosRat(upper.numerator, upper.denominator))
        assert got.witness == Witness(m=s.den, n=s.num)
        assert got.is_greater == (v1 > v2)

    def test_equal_at_different_scales(self):
        for a2, b2 in [(2, 3), (4, 6), (PosRat(2), PosRat(3)), (PosRat(4, 5), PosRat(6, 5))]:
            got = ratio_compare(2, 3, a2, b2)
            assert got.is_equal and got.fuel_spent == 0
            got = ratio_compare(PosRat(2), PosRat(3), a2, b2)
            assert got.is_equal and got.fuel_spent == 0

    def test_mixed_exact_models(self):
        # nat pair against the same value as a rat pair
        got = ratio_compare(2, 3, PosRat(4, 1), PosRat(6, 1))
        assert got.is_equal


Q = PosRat(1, 2)
REAL_POINT = real_from_rat(PosRat(3, 2))

# Each refused ratio_compare and the exception type it raises: fuel is read
# before the terms, and each pair's consequent against its antecedent's model.
RATIO_REFUSALS = [
    ("(0, 2, 1, 2)", (0, 2, 1, 2), {}, ModelMismatchError),
    ("(2, 0, 1, 2)", (2, 0, 1, 2), {}, ModelMismatchError),
    ("(True, 2, 1, 2)", (True, 2, 1, 2), {}, ModelMismatchError),
    ("(2, True, 1, 2)", (2, True, 1, 2), {}, ModelMismatchError),
    ("(2, q, 1, 2)", (2, Q, 1, 2), {}, ModelMismatchError),
    ("(q, 2, 1, 2)", (Q, 2, 1, 2), {}, ModelMismatchError),
    ("(1, 2, q, 2)", (1, 2, Q, 2), {}, ModelMismatchError),
    ("(q, q, real, 2)", (Q, Q, REAL_POINT, 2), {}, ModelMismatchError),
    ("(q, q, 2, real)", (Q, Q, 2, REAL_POINT), {}, ModelMismatchError),
    ("(real, q, 1, 2)", (REAL_POINT, Q, 1, 2), {}, ModelMismatchError),
    ("(1.5, 2, 1, 2)", (1.5, 2, 1, 2), {}, ModelMismatchError),
    ("(1, 2, 1, 2.0)", (1, 2, 1, 2.0), {}, ModelMismatchError),
    ("fuel=0", (1, 2, 1, 2), {"fuel": 0}, ValueError),
    ("fuel=True", (1, 2, 1, 2), {"fuel": True}, ValueError),
    ("fuel=2.0", (1, 2, 1, 2), {"fuel": 2.0}, ValueError),
    ("fuel=0 before the terms", (0, 2, 1, 2), {"fuel": 0}, ValueError),
]


@pytest.mark.parametrize(
    "args, kwargs, kind", [r[1:] for r in RATIO_REFUSALS], ids=[r[0] for r in RATIO_REFUSALS]
)
def test_ratio_compare_refusals_keep_their_exception_types(args, kwargs, kind):
    with pytest.raises(Exception) as caught:
        ratio_compare(*args, **kwargs)
    assert type(caught.value) is kind


class TestSubclassTerms:
    # terms of a subclass of int or PosRat are elements of nat and rat

    class Nat(int):
        pass

    class Rat(PosRat):
        __slots__ = ()

    def test_same_verdicts_as_the_base_classes(self):
        Nat, Rat, one = self.Nat, self.Rat, PosRat(1, 1)
        cases = [
            ((Nat(3), 2, 4, 3), (3, 2, 4, 3)),
            ((2, Nat(3), 4, 6), (2, 3, 4, 6)),
            ((Rat(3, 2), one, PosRat(4, 3), one), (PosRat(3, 2), one, PosRat(4, 3), one)),
            ((PosRat(1, 3), Q, Rat(2, 3), Rat(1, 1)), (PosRat(1, 3), Q, PosRat(2, 3), one)),
        ]
        for sub, base in cases:
            assert ratio_compare(*sub) == ratio_compare(*base)


class TestVerifyWitness:
    def test_spec_examples(self):
        a, b = PosRat(3, 1), PosRat(2, 1)
        c, d = PosRat(4, 1), PosRat(3, 1)
        assert verify_witness(Witness(3, 4), a, b, c, d)
        assert not verify_witness(Witness(1, 1), a, b, c, d)

    def test_no_self_separation(self):
        a, b = PosRat(3, 2), PosRat(5, 7)
        for m in range(1, 8):
            for n in range(1, 8):
                assert not verify_witness(Witness(m, n), a, b, a, b)

    def test_rejects_nonpositive(self):
        assert not verify_witness(Witness(0, 1), 1, 2, 1, 2)

    def test_rejects_malformed_witness_and_pairs(self):
        # multipliers must be ints and each pair must come from one model
        with pytest.raises(TypeError):
            verify_witness(Witness(1.5, 2), PosRat(1, 1), PosRat(1, 1), PosRat(1, 1), PosRat(1, 1))
        with pytest.raises(ModelMismatchError):
            verify_witness(Witness(1, 2), 3, PosRat(1, 1), 1, 1)
        with pytest.raises(ModelMismatchError):
            verify_witness(Witness(1, 2), 3, 1, real_from_rat(PosRat(1, 1)), 1)


# (x, y, m, n, verdict, rung): certify's answer on m*x against n*y over ladder()
PINNED_CERTIFY = [
    (PosRat(3), PosRat(2), 1, 1, Rel.GREATER, 4),
    (PosRat(1, 3), PosRat(1, 2), 1, 1, Rel.LESS, 4),
    (PosRat(2, 3), PosRat(1), 3, 2, None, 256),
    (PosRat(5), PosRat(7, 2), 7, 10, None, 256),
    (PosRat(10**30 + 1, 10**30), PosRat(1), 1, 1, Rel.GREATER, 4),
    (PosRat(7), PosRat(50, 7), 1, 1, Rel.LESS, 4),
]

# (witness, a, b, a2, b2, verify_witness's answer)
PINNED_WITNESSES = [
    (Witness(3, 4), 3, 2, 4, 3, True),
    (Witness(1, 1), 3, 2, 4, 3, False),
    (Witness(3, 4), PosRat(3), PosRat(2), PosRat(4), PosRat(3), True),
    (Witness(5, 7), PosRat(3, 2), PosRat(1), PosRat(4, 3), PosRat(1), True),
    (Witness(5, 7), PosRat(3, 2), PosRat(1), PosRat(3, 2), PosRat(1), False),
    (Witness(5, 7), 3, 2, PosRat(4, 3), PosRat(1), True),
    (Witness(5, 7), 7, 5, 7, 5, False),
]


def exact_real(t):
    return real_from_rat(PosRat(t) if isinstance(t, int) else t)


class TestPinnedTerms:
    # certify pins a nat or rat term as the point Interval(q, q) itself, and
    # verify_witness hands it its terms as they are: no oracle is built or
    # read for them, and an exact real, read through its cached point, gets
    # the same verdicts

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an oracle was built or read")

        monkeypatch.setattr(PosRealValue, "__init__", refuse)
        monkeypatch.setattr(PosRealValue, "approx", refuse)

    def test_certify_reads_no_oracle_on_nat_and_rat(self, no_oracle):
        for x, y, m, n, verdict, rung in PINNED_CERTIFY:
            assert certify(x, y, ladder(), m, n) == (verdict, rung)

    def test_verify_witness_reads_no_oracle_on_nat_and_rat(self, no_oracle):
        for w, a, b, a2, b2, ok in PINNED_WITNESSES:
            assert verify_witness(w, a, b, a2, b2) is ok

    def test_exact_reals_give_the_same_verdicts(self):
        for x, y, m, n, verdict, rung in PINNED_CERTIFY:
            assert certify(exact_real(x), exact_real(y), ladder(), m, n) == (verdict, rung)
            assert certify(exact_real(x), y, ladder(), m, n) == (verdict, rung)
        for w, a, b, a2, b2, ok in PINNED_WITNESSES:
            assert verify_witness(w, *map(exact_real, (a, b, a2, b2))) is ok
            assert verify_witness(w, a, b, *map(exact_real, (a2, b2))) is ok


class TestRatioCompareReal:
    def test_sqrt2_vs_3_2(self, sqrt2):
        one = real_from_rat(PosRat(1, 1))
        got = ratio_compare(sqrt2, one, PosRat(3, 1), PosRat(2, 1), fuel=64)
        assert got.is_less
        assert verify_witness(got.witness, PosRat(3, 1), PosRat(2, 1), sqrt2, one)

    def test_real_vs_real_strict(self, sqrt2):
        one = real_from_rat(PosRat(1, 1))
        got = ratio_compare(sqrt2, one, real_from_rat(PosRat(3, 1)), real_from_rat(PosRat(2, 1)))
        assert got.is_less

    def test_embedded_pair_equal_or_unknown(self, sqrt2):
        got = ratio_compare(sqrt2, sqrt2, real_from_rat(PosRat(1, 1)), real_from_rat(PosRat(1, 1)), fuel=12)
        assert got.kind in ("equal", "unknown")
        if got.is_unknown:
            assert got.fuel_spent == 12
            assert got.precision_cap >= 16

    @pytest.mark.parametrize("fuel, cap", [(3, 16), (64, 256), (100, 400)])
    def test_unknown_reports_fuel_and_cap(self, fuel, cap):
        # two copies of one value overlap at every rung, so every budget runs out
        one = real_from_rat(PosRat(1, 1))
        got = ratio_compare(isqrt_real(10**8 + 1), one, isqrt_real(10**8 + 1), one, fuel=fuel)
        assert got == RatioRel.unknown(fuel, cap)

    def test_pinned_real_witnesses(self, sqrt2):
        one = real_from_rat(PosRat(1, 1))
        assert ratio_compare(sqrt2, one, isqrt_real(3), one) == RatioRel.less(Witness(2, 3), 1)
        # an exact real pair is the point 3/2, as its rat-model twin is, and
        # both take the simplest fraction between 3/2 and sqrt2's enclosure
        three, two = real_from_rat(PosRat(3, 1)), real_from_rat(PosRat(2, 1))
        want = RatioRel.greater(Witness(9, 13), 1)
        assert ratio_compare(three, two, isqrt_real(2), one, fuel=20) == want
        assert ratio_compare(PosRat(3, 1), PosRat(2, 1), isqrt_real(2), one, fuel=20) == want

    @settings(max_examples=40, deadline=None)
    @given(rationals, rationals)
    def test_promoted_pairs_never_strict(self, a, b):
        got = ratio_compare(a, b, real_from_rat(a), real_from_rat(b), fuel=12)
        assert got.kind in ("equal", "unknown")

    def test_exact_points_decide_equal(self):
        # 3/2 : 5/7 = 21/10 on both sides; exact points compare exactly
        a, b = PosRat(3, 2), PosRat(5, 7)
        ra, rb = real_from_rat(a), real_from_rat(b)
        assert ratio_compare(a, b, ra, rb, fuel=12).is_equal
        assert ratio_compare(ra, rb, ra, rb, fuel=12).is_equal

    def test_sqrt_ratios_detected(self):
        # sqrt8 : sqrt2 = 2 exactly; compare against 3:1
        got = ratio_compare(isqrt_real(8), isqrt_real(2), PosRat(3, 1), PosRat(1, 1), fuel=64)
        assert got.is_less


class TestNearEqualRatios:
    def test_consecutive_fibonacci_ratios(self):
        # consecutive convergents of the golden ratio differ by 1/(F_n*F_n+1):
        # the witness search must go as deep as the values' own complexity
        fib = [1, 1]
        while len(fib) < 42:
            fib.append(fib[-1] + fib[-2])
        a, b = fib[40], fib[41]
        c, d = fib[39], fib[40]
        got = ratio_compare(a, b, c, d)
        assert not got.is_unknown and not got.is_equal
        if got.is_greater:
            assert verify_witness(got.witness, a, b, c, d)
        else:
            assert verify_witness(got.witness, c, d, a, b)
        assert max(got.witness.m, got.witness.n) >= fib[39]

    def test_sqrt2_against_its_own_convergent(self, sqrt2):
        # 665857/470832 is within 1.6e-12 of sqrt2; separating them needs the
        # precision escalation to actually climb
        close = PosRat(665857, 470832)
        one = real_from_rat(PosRat(1, 1))
        got = ratio_compare(sqrt2, one, close, PosRat(1, 1), fuel=256)
        assert got.is_less, got
        assert verify_witness(got.witness, close, PosRat(1, 1), sqrt2, one, fuel=256)


class TestConstantCostCandidates:
    def test_no_oracle_built_per_candidate(self, monkeypatch):
        # each candidate m*x against n*y reads the operands' cached
        # intervals; no multiple (a real_add chain) is built for it
        one = real_from_rat(PosRat(1, 1))
        a, b, c = isqrt_real(2), isqrt_real(2), isqrt_real(3)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a real oracle was built during the ratio search")

        monkeypatch.setattr(PosRealValue, "__init__", refuse)
        assert ratio_compare(a, one, b, one, fuel=256) == RatioRel.unknown(256, 1024)
        got = ratio_compare(a, one, c, one, fuel=256)
        assert got.is_less
        assert verify_witness(got.witness, c, one, a, one, fuel=256)
        assert not verify_witness(got.witness, a, one, c, one, fuel=256)


def scaled_root(k: int, s: Fraction) -> PosRealValue:
    return real_scale(isqrt_real(k), PosRat(s.numerator, s.denominator))


class TestSteering:
    def test_uncertified_side_follows_certified_one(self):
        # 2/9 and 57/256 differ by 1/2304, and sqrt42 scales both: the pair
        # decides at the default fuel, in either order, with one witness
        s, t = Fraction(2, 9), Fraction(57, 256)
        got = ratio_compare(scaled_root(42, s), isqrt_real(42), scaled_root(42, t), isqrt_real(42))
        assert got.is_less
        swapped = ratio_compare(scaled_root(42, t), isqrt_real(42), scaled_root(42, s), isqrt_real(42))
        assert swapped == RatioRel.greater(got.witness, got.fuel_spent)
        # n/m separates the two ratios: m*s <= n < m*t
        w = got.witness
        assert w.m * s <= w.n < w.m * t

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 6, 7, 10, 42, 59]),
        st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=300),
        st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=300),
    )
    def test_scaled_roots_follow_the_sign_of_s_minus_t(self, k, s, t):
        # s*sqrt(k) : sqrt(k) against t*sqrt(k) : sqrt(k) is s against t;
        # sqrt(k) cancels from m*s*sqrt(k) > n*sqrt(k), so witnesses are
        # checked on s and t alone, in exact arithmetic
        got = ratio_compare(scaled_root(k, s), isqrt_real(k), scaled_root(k, t), isqrt_real(k))
        if got.is_greater:
            assert s > t and got.witness.m * s > got.witness.n >= got.witness.m * t
        elif got.is_less:
            assert s < t and got.witness.m * t > got.witness.n >= got.witness.m * s
        else:
            assert got.is_unknown


def exceeds(m: int, n: int, c: Fraction, k: int) -> bool:
    """m * c*sqrt(k) > n, in exact arithmetic."""
    return m * m * c * c * k > n * n


class TestSeparatedEnclosures:
    """Both ratios enclosed on the ladder; the simplest fraction between them."""

    @pytest.mark.parametrize("want_bits", [20, 45, 110])
    def test_sqrt_against_its_convergents(self, want_bits):
        # |sqrt(k) - P/Q| is about 2^-want_bits, far above the 2^-256 that
        # fuel 64 reads to
        one = real_from_rat(PosRat(1))
        for k in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15):
            P, Q = next((P, Q) for P, Q in sqrt_convergents(k) if 2 * Q.bit_length() - 2 >= want_bits)
            got = ratio_compare(isqrt_real(k), one, PosRat(P), PosRat(Q), fuel=64)
            m, n = got.witness.m, got.witness.n
            if P * P < k * Q * Q:
                assert got.is_greater and m * m * k > n * n and m * P <= n * Q
            else:
                assert got.is_less and m * P > n * Q and m * m * k <= n * n

    def test_benchmark_pins(self):
        one = real_from_rat(PosRat(1))
        got = ratio_compare(isqrt_real(20000), one, PosRat(141), PosRat(1), fuel=64)
        m, n = got.witness.m, got.witness.n
        # m * 100*sqrt2 > n >= 141 * m
        assert got.is_greater and 20000 * m * m > n * n and 141 * m <= n
        big = real_add(real_from_rat(PosRat(10**6)), isqrt_real(2))
        got = ratio_compare(big, one, PosRat(1000001), PosRat(1), fuel=64)
        m, n = got.witness.m, got.witness.n
        # m * (10^6 + sqrt2) > n >= 1000001 * m
        assert got.is_greater and 2 * m * m > (n - 10**6 * m) ** 2 and 1000001 * m <= n

    def test_witness_with_thousands_of_terms(self):
        # the first convergent of sqrt2 with a 1901-bit Q is about 2^-3800
        # from it, inside fuel 1024's cap of 4096 bits; its witness has about
        # 1,500 continued-fraction terms, past the interpreter's frame limit
        P, Q = next((P, Q) for P, Q in sqrt_convergents(2) if Q.bit_length() >= 1901)
        assert P * P - 2 * Q * Q == 1  # P/Q > sqrt2
        got = ratio_compare(isqrt_real(2), real_from_rat(PosRat(1)), PosRat(P), PosRat(Q), fuel=1024)
        m, n = got.witness.m, got.witness.n
        # sqrt2 : 1 < P : Q, witnessed by m*P > n*Q and m*sqrt2 <= n
        assert got.is_less and got.fuel_spent == 1024
        assert m * P > n * Q and 2 * m * m <= n * n

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 10, 42, 59]),
        st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=1000),
        st.integers(0, 200),
        st.integers(-3, 3),
        st.booleans(),
        st.integers(1, 256),
    )
    def test_strict_verdicts_verify_and_replay(self, k, s, e, j, mixed, fuel):
        # scaled roots s*sqrt(k) : sqrt(k) against t*sqrt(k) : sqrt(k), or
        # sqrt(k) : 1 against a rational t near sqrt(k); the gap is down to
        # 2^-200.  Each ratio value is c*sqrt(r), kept exactly as (c, r)
        base = Fraction(math.isqrt(k << (2 * e)), 1 << e) if mixed else s
        t = base + Fraction(j, 1 << e)
        if t <= 0:
            t = base
        if mixed:

            def build():
                return isqrt_real(k), real_from_rat(PosRat(1)), PosRat(t.numerator), PosRat(t.denominator)

            v1, v2 = (Fraction(1), k), (t, 1)
        else:

            def build():
                return scaled_root(k, s), isqrt_real(k), scaled_root(k, t), isqrt_real(k)

            v1, v2 = (s, 1), (t, 1)
        got = ratio_compare(*build(), fuel=fuel)
        if got.is_unknown:
            assert got == RatioRel.unknown(fuel, max(16, 4 * fuel))
            return
        assert not got.is_equal
        m, n = got.witness.m, got.witness.n
        upper, lower = (v1, v2) if got.is_greater else (v2, v1)
        assert exceeds(m, n, *upper) and not exceeds(m, n, *lower)
        a, b, a2, b2 = build()
        if got.is_greater:
            assert verify_witness(got.witness, a, b, a2, b2, fuel=fuel)
        else:
            assert verify_witness(got.witness, a2, b2, a, b, fuel=fuel)
        assert ratio_compare(*build(), fuel=got.fuel_spent) == got

    def test_reads_stop_at_the_deciding_rung(self):
        # sqrt2 - 141/100 is about 2^-7.9, so the enclosures part at rung 8;
        # the intervals read there certify the witness 24/17, and sqrt2 is
        # not read again at 4 + bits(17 - 1) = 9 to certify it a second time
        one = real_from_rat(PosRat(1))
        for greater in (True, False):
            seen = []
            pairs = ((recorded(2, seen), one), (PosRat(141), PosRat(100)))
            got = ratio_compare(*pairs[0 if greater else 1], *pairs[1 if greater else 0])
            want = RatioRel.greater if greater else RatioRel.less
            assert got == want(Witness(m=17, n=24), fuel_spent=2)
            assert seen == [4, 8]
        assert verify_witness(got.witness, isqrt_real(2), one, PosRat(141), PosRat(100))

    def test_cache_stays_on_the_ladder(self, sqrt2):
        # enclosures read each operand once per rung: 4, 8, ..., 2048, 4096
        one = real_from_rat(PosRat(1))
        assert ratio_compare(sqrt2, one, sqrt2, one, fuel=1024).is_unknown
        assert len(sqrt2._cache) <= 16
