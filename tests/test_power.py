import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitudes import core, hom
from magnitudes.embed import (
    anchor_embedding,
    check_homomorphism,
    embedding_to_json,
    embeddings_compare,
    evaluate_naive,
    fourth_proportional,
    nat_embedding,
)
from magnitudes.core import Rel
from magnitudes.errors import (
    MagnitudeError,
    NotAboveOneError,
    NotGreaterError,
    OracleFailureError,
    UndecidedError,
)
from magnitudes.models import (
    RAT_ONE,
    Interval,
    PosRat,
    certify,
    format_element,
    ladder,
    model_of,
    real_from_rat,
    real_mul,
    real_scale,
)
from magnitudes.power import (
    MUL,
    MulReal,
    int_nth_root,
    into_mul,
    mul_combine,
    mul_multiple,
    nth_root,
    pow as mul_pow,
)
from magnitudes.ratio import (
    Witness,
    have_ratio_witness,
    make_ratio,
    ratio_compare,
    ratio_value_exact,
    verify_witness,
)

from conftest import isqrt_real, opaque, recorded


def as_mul(num, den=1) -> MulReal:
    return into_mul(real_from_rat(PosRat(num, den)))


class TestIntoMul:
    def test_rational_above_one(self):
        x = as_mul(3, 2)
        assert x.value.exact == PosRat(3, 2)
        assert certify(x.value, RAT_ONE, (0, *ladder()))[0] is Rel.GREATER

    def test_one_rejected(self):
        with pytest.raises(NotAboveOneError):
            as_mul(1, 1)

    def test_below_one_rejected(self):
        with pytest.raises(NotAboveOneError):
            as_mul(2, 3)

    def test_sqrt2_certifies(self, sqrt2):
        assert into_mul(sqrt2).value is sqrt2
        assert certify(sqrt2, RAT_ONE, (0, *ladder())) == (Rel.GREATER, 4)

    def test_certified_precision(self):
        # the rungs into_mul walks, and the one that certifies membership
        x, y = as_mul(17, 16).value, into_mul(isqrt_real(3)).value
        assert certify(x, RAT_ONE, (0, *ladder())) == (Rel.GREATER, 0)
        assert certify(y, RAT_ONE, (0, *ladder())) == (Rel.GREATER, 4)

    def test_one_refuted_not_merely_unseparated(self):
        # [1, 1] never separates from 1, so the refusal comes from hi <= 1
        with pytest.raises(NotAboveOneError, match="^value certified not greater than one$"):
            into_mul(real_from_rat(PosRat(1, 1)))


class TestMulCombine:
    def test_exact(self):
        got = mul_combine(as_mul(3, 2), as_mul(4, 3))
        assert got.value.exact == PosRat(2, 1)

    def test_sqrt2_squared(self, sqrt2):
        got = mul_combine(into_mul(sqrt2), into_mul(sqrt2))
        assert got.approx(25).contains(PosRat(2, 1))

    def test_product_exceeds_factor(self, sqrt2):
        x, y = into_mul(sqrt2), as_mul(3, 2)
        assert MUL.order(mul_combine(x, y), y).tag is Rel.GREATER


class TestClosure:
    """Products, powers and roots stay above one without re-certification."""

    NEAR_ONE = PosRat((1 << 300) + 1, 1 << 300)

    def test_results_near_one(self):
        x = as_mul(self.NEAR_ONE.num, self.NEAR_ONE.den)
        cases = [
            (mul_combine(x, x), 1, 2),
            (mul_pow(x, PosRat(1, 3), 10), 3, 1),
            (nth_root(x, 5, 20), 5, 1),
        ]
        for r, n, k in cases:
            iv = r.approx(400)
            assert iv.lo > RAT_ONE
            # r^n = x^k, checked in exact arithmetic
            assert iv.lo**n <= self.NEAR_ONE**k <= iv.hi**n

    def test_pow_reads_base_at_working_precision_only(self):
        seen = []
        x = into_mul(recorded(2, seen))
        seen.clear()
        r = mul_pow(x, PosRat(2, 7), 30)
        assert seen == []  # building reads nothing
        r.approx(30)
        # w = 30 + bit_length(30) + 8, in one pass
        assert seen == [43]

    def test_nested_builds_read_no_leaf(self):
        mpmath = pytest.importorskip("mpmath")
        seen = []
        x = into_mul(recorded(2, seen))
        seen.clear()
        y = recorded(3, seen)
        # ((sqrt2^sqrt3)^(2/3))^(1/5) = 2^(sqrt3/15)
        r = nth_root(mul_pow(nth_root(mul_pow(x, y, 30), 1, 30), PosRat(2, 3), 300), 5, 1000)
        assert seen == []
        iv = r.approx(60)
        assert seen  # the first read does all the reads
        assert iv.width_at_most(60)
        with mpmath.workprec(200):
            want = mpmath.power(2, mpmath.sqrt(3) / 15)
            assert mpmath.mpf(iv.lo.num) / iv.lo.den < want < mpmath.mpf(iv.hi.num) / iv.hi.den

    def test_nested_roots_cost_linear_time(self):
        # building 3,000 square roots reads no leaf; one read refines them all
        seen = []
        x = into_mul(recorded(2, seen))
        seen.clear()
        start = time.perf_counter()
        for _ in range(3000):
            x = mul_pow(x, PosRat(1, 2), 4)
        assert seen == []
        iv = x.approx(30)
        assert time.perf_counter() - start < 2
        # sqrt2^(2^-3000) is within 2^-3000 of one, so the 30-bit lower end is one
        assert iv.width_at_most(30) and iv.lo == RAT_ONE < iv.hi


class TestMulMultiple:
    def test_examples(self):
        assert mul_multiple(3, as_mul(2)).value.exact == PosRat(8, 1)
        assert mul_multiple(1, as_mul(5)).value.exact == PosRat(5, 1)
        assert mul_multiple(10, as_mul(3, 2)).value.exact == PosRat(59049, 1024)

    def test_agrees_with_repeated_combine(self, sqrt2):
        x = into_mul(sqrt2)
        by_multiple = mul_multiple(4, x)
        by_combine = mul_combine(mul_combine(x, x), mul_combine(x, x))
        assert by_multiple.approx(25).intersects(by_combine.approx(25))

    @given(st.integers(2, 40), st.integers(1, 12))
    def test_exact_powers(self, base, n):
        got = mul_multiple(n, as_mul(base))
        assert got.value.exact == PosRat(base**n, 1)


class TestMulSearch:
    """The multiplicative "least multiple exceeding" is the least power above."""

    def test_least_power_above(self, sqrt2):
        a, b = into_mul(sqrt2), as_mul(10)
        assert core.find_multiple_exceeding(a, b, MUL) == 7
        assert core.find_multiple_exceeding(b, a, MUL) == 1
        # sqrt(2)^6 = 8 is certified below 10, so 7 is the least
        assert MUL.order(mul_multiple(6, a), b).tag is Rel.LESS


def _mul_elements():
    """A base above one with its square, which orders bases as they order:
    an exact point (d + n)/d, or sqrt(k), k not a square, on a fresh oracle."""
    exact = st.builds(lambda d, n: PosRat(d + n, d), st.integers(1, 16), st.integers(1, 1000))
    roots = st.integers(2, 300).filter(lambda k: math.isqrt(k) ** 2 != k)
    return st.one_of(
        exact.map(lambda q: (as_mul(q.num, q.den), q * q)),
        roots.map(lambda k: (into_mul(isqrt_real(k)), PosRat(k))),
    )


class TestMulOrder:
    """MUL.order certifies as REAL.order does, with the quotient as its gap."""

    @settings(max_examples=80, deadline=None)
    @given(_mul_elements(), _mul_elements())
    def test_agrees_with_rational_order(self, x, y):
        (a, a2), (b, b2) = x, y
        if a2 == b2:
            with pytest.raises(UndecidedError):
                MUL.order(a, b)
            return
        out = MUL.order(a, b)
        assert out.tag is (Rel.LESS if a2 < b2 else Rel.GREATER)
        assert core.compare(a, b, MUL).tag is out.tag
        small, large = (a, b) if out.is_less else (b, a)
        into_mul(out.gap.value)  # the quotient is certified above one
        for gap in (out.gap, core.subtract(large, small, MUL)):
            assert mul_combine(small, gap).approx(60).intersects(large.approx(60))
        with pytest.raises(NotGreaterError):
            core.subtract(small, large, MUL)

    def test_equal_sides_refused(self, sqrt2):
        x = into_mul(sqrt2)
        for a, b in ((x, x), (x, into_mul(isqrt_real(2)))):
            with pytest.raises(UndecidedError, match="overlapped through precision 256"):
                MUL.order(a, b)
            with pytest.raises(UndecidedError):
                core.compare(a, b, MUL)

    @settings(max_examples=40, deadline=None)
    @given(_mul_elements(), _mul_elements())
    def test_least_multiple_exceeding(self, x, y):
        (a, _), (b, _) = x, y
        n = core.find_multiple_exceeding(a, b, MUL)
        assert MUL.order(mul_multiple(n, a), b).is_greater
        if n > 1:  # a^(n-1) is certified below b, or overlaps it
            try:
                assert MUL.order(mul_multiple(n - 1, a), b).is_less
            except UndecidedError:
                pass


class TestInferredModel:
    """model_of finds MUL, so the generic entry points need no model argument."""

    def test_model_of(self, sqrt2):
        assert model_of(as_mul(3, 2)) is MUL and model_of(into_mul(sqrt2)) is MUL

    def test_generic_core_without_model(self):
        two, root3 = as_mul(2), into_mul(isqrt_real(3))
        out = core.compare(two, root3)
        assert out.is_greater and mul_combine(root3, out.gap).approx(60).intersects(two.approx(60))
        # the gap 2 / sqrt 3, whose square is 4/3
        assert mul_multiple(2, core.subtract(two, root3)).approx(30).contains(PosRat(4, 3))
        # 2^1 > sqrt 3, and sqrt 3^2 = 3 > 2
        assert core.find_multiple_exceeding(two, root3) == 1
        assert core.find_multiple_exceeding(root3, two) == 2
        assert have_ratio_witness(two, root3) == (1, 2)

    def test_scaling_is_a_power(self):
        # b = 2^(1/4): three of them make 2^(3/4), certified below 2
        two = as_mul(2)
        b = core.shrink_below(two, 3)
        assert MUL.order(core.multiple(3, b), two).is_less
        # the anchored map 1 -> 2 is q -> 2^q
        phi = anchor_embedding(PosRat(1), two)
        iv = phi(PosRat(1, 2)).approx(40)
        s = math.isqrt(2 << 80)
        assert iv.lo <= PosRat(s + 1, 1 << 40) and PosRat(s, 1 << 40) <= iv.hi
        assert check_homomorphism(phi, samples=5).passed

    def test_every_entry_point_answers_or_refuses_typed(self):
        x, y = as_mul(2), into_mul(isqrt_real(3))
        calls = [
            lambda: core.combine(x, y),
            lambda: core.compare(x, y),
            lambda: core.subtract(x, y),
            lambda: core.multiple(3, x),
            lambda: core.multiple_naive(3, x),
            lambda: core.find_multiple_exceeding(y, x),
            lambda: core.shrink_below(x, 3),
            lambda: format_element(x),
            lambda: nat_embedding(x)(3),
            lambda: evaluate_naive(nat_embedding(x), 3),
            lambda: anchor_embedding(PosRat(1), x)(PosRat(1, 2)),
            lambda: anchor_embedding(x, y),
            lambda: embeddings_compare(nat_embedding(x), nat_embedding(y), 2),
            lambda: embedding_to_json(nat_embedding(x)),
            lambda: fourth_proportional(x, y, real_from_rat(PosRat(2)), 30),
            lambda: fourth_proportional(PosRat(1), PosRat(2), x, 30),
            lambda: hom.psi(MUL, x),
            lambda: hom.hom_compare(nat_embedding(x), nat_embedding(y)),
            lambda: hom.product(x, y),
            lambda: hom.quotient(x, y),
            lambda: make_ratio(x, y),
            lambda: have_ratio_witness(x, y),
            lambda: ratio_value_exact(make_ratio(x, y)),
            lambda: ratio_compare(x, y, x, y),
            lambda: ratio_compare(PosRat(1), PosRat(2), x, y),
            lambda: verify_witness(Witness(1, 1), x, y, x, y),
            lambda: mul_multiple(2, x),
            lambda: nth_root(x, 2, 30),
            lambda: mul_pow(x, PosRat(1, 3)),
        ]
        for call in calls:
            try:
                call()
            except MagnitudeError:
                pass


class TestIntNthRoot:
    @given(st.integers(1, 10**600), st.integers(1, 200))
    def test_floor_root(self, k, n):
        r = int_nth_root(k, n)
        assert r**n <= k < (r + 1) ** n

    def test_large_cube_root(self):
        k = 3 << 20000
        r = int_nth_root(k, 3)
        assert r**3 <= k < (r + 1) ** 3

    def test_matches_isqrt(self):
        for k in (1, 2, 3, 99, 10**12, 10**12 + 1):
            assert int_nth_root(k, 2) == math.isqrt(k)

    @given(st.integers(1 << 2000, 1 << 2600))
    def test_floor_square_root_above_2_2000(self, k):
        r = int_nth_root(k, 2)
        assert r * r <= k < (r + 1) * (r + 1)

    def test_square_root_at_exact_squares_above_2_2000(self):
        s = (1 << 1100) + 12345
        for k, want in ((s * s - 1, s - 1), (s * s, s), (s * s + 2 * s, s), ((s + 1) ** 2, s + 1)):
            assert int_nth_root(k, 2) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            int_nth_root(0, 2)


class TestNthRoot:
    def test_sqrt2_against_isqrt_oracle(self):
        r = nth_root(as_mul(2), 2, 30)
        assert r.approx(30).intersects(isqrt_real(2).approx(30))

    def test_interval_pinned(self):
        # one integer 5th root per endpoint of x's interval scaled by 2^74
        # (w = 60 + 6 + 8); recorded output
        r = nth_root(into_mul(isqrt_real(3)), 5, 60)
        iv = r.approx(60)
        assert iv == Interval(
            PosRat(10541485335623588417993, 1 << 73),
            PosRat(21082970671247176835987, 1 << 74),
        )
        # the root of sqrt(3) is 3^(1/10), checked in exact arithmetic
        assert iv.lo**10 <= PosRat(3, 1) <= iv.hi**10

    @pytest.mark.parametrize("n", [2, 7])
    def test_base_just_above_one(self, n):
        x = PosRat((1 << 200) + 1, 1 << 200)
        r = nth_root(as_mul(x.num, x.den), n, 4)
        for p in (4, 30, 300):
            iv = r.approx(p)
            assert iv.width_at_most(p)
            assert iv.lo**n <= x <= iv.hi**n

    def test_exact_cube(self):
        r = nth_root(as_mul(8), 3, 20)
        assert r.value.exact == PosRat(2, 1)

    def test_exact_rational_root(self):
        r = nth_root(as_mul(9, 4), 2, 20)
        assert r.value.exact == PosRat(3, 2)

    def test_identity_root(self, sqrt2):
        x = into_mul(sqrt2)
        assert nth_root(x, 1, 10) is x

    def test_width_contract(self):
        r = nth_root(as_mul(5), 3, 4)
        for p in (4, 10, 25):
            assert r.approx(p).width_at_most(p)

    def test_opaque_base(self, sqrt2):
        # sqrt(sqrt(2)) = 2^(1/4)
        r = nth_root(into_mul(sqrt2), 2, 25)
        fourth = mul_multiple(4, r)
        assert fourth.approx(20).contains(PosRat(2, 1))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 60), st.integers(2, 5))
    def test_roundtrip(self, base, n):
        r = nth_root(as_mul(base), n, 34)
        back = mul_multiple(n, r)
        assert back.approx(30).contains(PosRat(base, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            nth_root(as_mul(2), 0, 10)
        with pytest.raises(ValueError):
            nth_root(as_mul(2), 2, -1)


class TestPow:
    def test_integer_exponent(self):
        assert mul_pow(as_mul(2), 3, 10).value.exact == PosRat(8, 1)

    def test_unit_exponent(self, sqrt2):
        x = into_mul(sqrt2)
        got = mul_pow(x, PosRat(1, 1), 20)
        assert got.approx(20).intersects(x.approx(20))

    def test_sqrt_via_pow_matches_isqrt_oracle(self):
        got = mul_pow(as_mul(2), PosRat(1, 2), 40)
        iv = got.approx(40)
        oracle = isqrt_real(2).approx(80)
        assert iv.lo <= oracle.lo and oracle.hi <= iv.hi
        assert iv.width_at_most(40)

    def test_fractional_exponent(self):
        # 8^(2/3) = 4
        got = mul_pow(as_mul(8), PosRat(2, 3), 30)
        assert got.approx(30).contains(PosRat(4, 1))

    def test_denominator_above_64_at_300_bits(self):
        # 2^(67/68): 68 is below the working precision, so this takes one
        # 68th root per endpoint
        got = mul_pow(as_mul(2), PosRat(67, 68), 300)
        iv = got.approx(300)
        assert iv.width_at_most(300)
        assert iv.lo**68 <= PosRat(2**67, 1) <= iv.hi**68

    def test_large_denominator_uses_dyadic_path(self):
        y = PosRat(100001, 100000)
        got = mul_pow(as_mul(2), y, 20)
        iv = got.approx(20)
        mid = iv.midpoint()
        assert abs(mid.num / mid.den - 2.0 ** (100001 / 100000)) < 1e-5

    def test_real_exponent(self, sqrt2):
        got = mul_pow(as_mul(2), sqrt2, 16)
        iv = got.approx(16)
        mid = iv.midpoint()
        assert abs(mid.num / mid.den - 2.0 ** (2.0**0.5)) < 1e-3

    def test_exact_real_exponent_delegates(self):
        got = mul_pow(as_mul(3), real_from_rat(PosRat(2, 1)), 10)
        assert got.value.exact == PosRat(9, 1)

    def test_base_law_instance(self):
        p = 40
        y = PosRat(1, 3)
        lhs = mul_pow(mul_combine(as_mul(3, 2), as_mul(5, 2)), y, p)
        rhs = mul_combine(mul_pow(as_mul(3, 2), y, p), mul_pow(as_mul(5, 2), y, p))
        assert lhs.approx(p).intersects(rhs.approx(p))

    def test_exponent_law_instance(self):
        p = 40
        x = as_mul(2)
        lhs = mul_pow(x, PosRat(1, 2) + PosRat(1, 3), p)
        rhs = mul_combine(mul_pow(x, PosRat(1, 2), p), mul_pow(x, PosRat(1, 3), p))
        assert lhs.approx(p).intersects(rhs.approx(p))

    def test_monotone_in_exponent(self):
        low = mul_pow(as_mul(2), PosRat(1, 3), 30)
        high = mul_pow(as_mul(2), PosRat(1, 2), 30)
        assert MUL.order(low, high).tag is Rel.LESS

    def test_validation(self):
        with pytest.raises(ValueError):
            mul_pow(as_mul(2), PosRat(1, 2), -1)
        with pytest.raises(TypeError):
            mul_pow(as_mul(2), 1.5, 10)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(
            [PosRat(2), PosRat(3, 2), PosRat((1 << 200) + 1, 1 << 200), PosRat(10**6)]
        ),
        st.integers(1, 40),
        st.integers(2, 200),
        st.sampled_from([4, 30, 300, 1000]),
    )
    def test_rational_exponent_encloses_exact_power(self, base, m, n, p):
        # n <= w takes an integer root, n > w the square-root table; either
        # way lo^n <= b^m <= hi^n in exact arithmetic
        y = PosRat(m, n)
        x = as_mul(base.num, base.den)
        iv = mul_pow(x, y, p).approx(p)
        assert iv.width_at_most(p)
        assert iv.lo**y.den <= base**y.num <= iv.hi**y.den
        # two independent evaluators of one embedding must agree
        via_root = mul_multiple(m, nth_root(x, n, p))
        assert iv.intersects(via_root.approx(p))

    def test_result_size_cap(self):
        # x ~ 1367, a product of isqrt leaves, raised to y ~ 3.49e12 needs
        # about 3.8e13 bits; the bound is read from the inputs' intervals and
        # refuses at once, before any integer power is taken
        x = into_mul(real_mul(isqrt_real(1000), isqrt_real(1869)))
        y = real_scale(isqrt_real(2), PosRat(2468 * 10**9))
        start = time.perf_counter()
        r = mul_pow(x, y, 4)  # building reads nothing; the first read refuses
        with pytest.raises(OracleFailureError, match="over the cap"):
            r.approx(4)
        assert time.perf_counter() - start < 1
        # a base near one is charged 3(x - 1)/2 bits per unit of y, not a
        # whole bit: 1.0001^(2000001/2), about 144 bits, is still computed
        iv = mul_pow(as_mul(10001, 10000), PosRat(2000001, 2), 30).approx(30)
        assert iv.width_at_most(30)
        assert abs(math.log2(iv.lo.num) - math.log2(iv.lo.den) - 1000000.5 * math.log2(1.0001)) < 1e-6

    def test_exact_power_over_the_cap_is_a_node(self):
        # 10001^(10^6) has about 13.3 million bits; the node encloses the
        # power, about 2^144, to 2^-30 without building it
        start = time.perf_counter()
        got = mul_pow(as_mul(10001, 10000), 10**6, 30)
        assert time.perf_counter() - start < 1
        assert got.value.exact is None
        iv = got.approx(30)
        assert iv.width_at_most(30)
        assert iv.lo.num.bit_length() < 400 and iv.lo.den.bit_length() < 400
        # (9/4)^(7/2) and 4^(10^5) stay exact points: their roots' bits
        # times the exponent's numerator are under the cap
        assert mul_pow(as_mul(9, 4), PosRat(7, 2), 30).value.exact == PosRat(2187, 128)
        assert mul_pow(as_mul(4), 10**5, 30).value.exact == PosRat(4**10**5)
        assert mul_pow(as_mul(1 << 20), PosRat(10**5, 20), 30).value.exact == PosRat(2**10**5)

    def test_numerator_far_above_denominator(self):
        base, y = PosRat(10**6 + 1), PosRat(1000, 3)
        iv = mul_pow(as_mul(base.num), y, 300).approx(300)
        assert iv.width_at_most(300)
        assert iv.lo**3 <= base**1000 <= iv.hi**3
