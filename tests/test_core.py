from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitudes import core
from magnitudes.core import Rel
from magnitudes.errors import (
    DiscreteModelError,
    ModelMismatchError,
    NotGreaterError,
    UndecidedError,
)
from magnitudes.models import NAT, RAT, REAL, PosRat, real_from_rat, real_scale

from conftest import isqrt_real

rationals = st.builds(PosRat, st.integers(1, 1 << 16), st.integers(1, 1 << 16))
naturals = st.integers(1, 1 << 32)
wide_naturals = st.integers(1, 1 << 200)
wide_rationals = st.builds(PosRat, wide_naturals, wide_naturals)


def fraction(x) -> Fraction:
    return Fraction(x) if isinstance(x, int) else Fraction(x.num, x.den)


class TestCombine:
    def test_nat(self):
        assert core.combine(2, 3) == 5

    def test_rat(self):
        assert core.combine(PosRat(7, 3), PosRat(1, 2)) == PosRat(17, 6)

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatchError):
            core.combine(2, PosRat(1, 2))

    @given(rationals, rationals, rationals)
    def test_associative(self, a, b, c):
        assert core.combine(a, core.combine(b, c)) == core.combine(core.combine(a, b), c)

    @given(rationals, rationals)
    def test_commutative(self, a, b):
        assert core.combine(a, b) == core.combine(b, a)


class TestCompare:
    def test_less_with_witness(self):
        out = core.compare(PosRat(2, 3), PosRat(5, 6))
        assert out.tag is Rel.LESS and out.gap == PosRat(1, 6)

    def test_greater_with_witness(self):
        out = core.compare(5, 3)
        assert out.tag is Rel.GREATER and out.gap == 2

    def test_reduced_equality(self):
        assert core.compare(PosRat(4, 6), PosRat(2, 3)).is_equal

    @given(rationals, rationals)
    def test_trichotomy_witness_reconstructs(self, a, b):
        out = core.compare(a, b)
        if out.is_less:
            assert core.combine(a, out.gap) == b
        elif out.is_greater:
            assert core.combine(b, out.gap) == a
        else:
            assert a == b and out.gap is None

    @given(rationals, rationals, rationals)
    def test_translation_invariance(self, a, b, c):
        want = core.compare(b, c).tag
        assert core.compare(core.combine(a, b), core.combine(a, c)).tag is want


class TestSubtract:
    def test_basic(self):
        assert core.subtract(PosRat(7, 3), PosRat(1, 2)) == PosRat(11, 6)
        assert core.subtract(9, 4) == 5

    def test_not_greater(self):
        with pytest.raises(NotGreaterError):
            core.subtract(PosRat(1, 2), PosRat(7, 3))
        with pytest.raises(NotGreaterError):
            core.subtract(4, 4)

    def test_real_certifies_the_difference(self):
        sqrt2, three_halves = isqrt_real(2), real_from_rat(PosRat(3, 2))
        d = core.subtract(three_halves, sqrt2, REAL)
        assert d.approx(40) == REAL.order(sqrt2, three_halves).gap.approx(40)
        assert core.compare(sqrt2, three_halves, REAL).is_less
        with pytest.raises(NotGreaterError):
            core.subtract(sqrt2, three_halves, REAL)
        with pytest.raises(UndecidedError):
            core.subtract(sqrt2, sqrt2, REAL)

    @given(rationals, rationals)
    def test_recombines_and_shrinks(self, a, d):
        b = core.combine(a, d)
        got = core.subtract(b, a)
        assert got == d
        assert core.compare(got, b).is_less

    @given(rationals, rationals, rationals)
    def test_difference_decomposition(self, a, d1, d2):
        b = core.combine(a, d1)
        c = core.combine(b, d2)
        assert core.subtract(c, a) == core.combine(
            core.subtract(c, b), core.subtract(b, a)
        )


class TestMultiple:
    def test_examples(self):
        assert core.multiple(5, PosRat(3, 4)) == PosRat(15, 4)
        assert core.multiple(2, 7) == core.combine(7, 7) == 14
        assert core.multiple(13, PosRat(2, 7)) == PosRat(26, 7)
        assert core.multiple_naive(13, PosRat(2, 7)) == PosRat(26, 7)

    def test_naive_base_case(self):
        assert core.multiple_naive(1, 9) == 9
        assert core.multiple_naive(3, PosRat(1, 2)) == PosRat(3, 2)

    def test_naive_guard(self):
        with pytest.raises(ValueError):
            core.multiple_naive((1 << 16) + 1, 1)

    def test_naive_is_an_addition_chain(self):
        class Counting:
            calls = 0

            def check(self, x):
                return RAT.check(x)

            def combine(self, a, b):
                self.calls += 1
                return RAT.combine(a, b)

        a = PosRat(2, 7)
        for n in (*range(1, 301), 1 << 16):
            model = Counting()
            assert core.multiple_naive(n, a, model) == PosRat(2 * n, 7)
            assert model.calls <= 2 * (n.bit_length() - 1)

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            core.multiple(0, PosRat(1, 2))
        with pytest.raises(TypeError):
            core.multiple(PosRat(2, 1), PosRat(1, 2))

    @settings(max_examples=40)
    @given(rationals, st.integers(1, 1 << 10))
    def test_doubling_equals_naive(self, a, n):
        assert core.multiple(n, a) == core.multiple_naive(n, a)

    @given(naturals, st.integers(1, 1 << 10), st.integers(1, 1 << 10))
    def test_multiple_of_multiple(self, a, m, n):
        assert core.multiple(m * n, a) == core.multiple(m, core.multiple(n, a))

    @given(st.one_of(wide_naturals, wide_rationals), st.integers(1, 1 << 300))
    def test_closed_form_in_lowest_terms(self, a, n):
        got = core.multiple(n, a)
        assert fraction(got) == n * fraction(a)
        if isinstance(a, PosRat):
            # the result skips PosRat validation, so check it is reduced
            assert gcd(got.num, got.den) == 1 and got.den >= 1


class TestFindMultipleExceeding:
    def test_examples(self):
        assert core.find_multiple_exceeding(PosRat(1, 3), PosRat(2, 1)) == 7
        assert core.find_multiple_exceeding(PosRat(3, 1), PosRat(1, 2)) == 1
        assert core.find_multiple_exceeding(2, 9) == 5

    @given(st.one_of(st.tuples(wide_naturals, wide_naturals), st.tuples(wide_rationals, wide_rationals)))
    def test_floor_quotient_plus_one(self, pair):
        a, b = pair
        assert core.find_multiple_exceeding(a, b) == fraction(b) // fraction(a) + 1

    @given(st.one_of(naturals, wide_naturals, rationals, wide_rationals), st.integers(1, 1 << 200))
    def test_exact_multiple_and_below(self, a, k):
        # b = k*a is not exceeded by k*a itself; b < a is exceeded at once
        assert core.find_multiple_exceeding(a, core.multiple(k, a)) == k + 1
        if isinstance(a, PosRat):
            assert core.find_multiple_exceeding(a, a * PosRat(1, k + 1)) == 1
        elif a > 1:
            assert core.find_multiple_exceeding(a, a - 1) == 1

    def test_real_search(self):
        tiny = real_scale(isqrt_real(2), PosRat(1, 10**12))
        assert core.find_multiple_exceeding(tiny, real_from_rat(PosRat(1, 1)), REAL) == 707106781187

    @given(rationals, rationals)
    def test_least(self, a, b):
        n = core.find_multiple_exceeding(a, b)
        assert core.compare(core.multiple(n, a), b).is_greater
        if n > 1:
            assert not core.compare(core.multiple(n - 1, a), b).is_greater


class TestShrinkBelow:
    def test_examples(self):
        got = core.shrink_below(PosRat(1, 1), 3)
        assert got == PosRat(1, 4)
        assert core.shrink_below(PosRat(2, 5), 10) == PosRat(2, 55)

    def test_discrete_rejected(self):
        with pytest.raises(DiscreteModelError):
            core.shrink_below(5, 2)

    @given(rationals, st.integers(1, 1 << 8))
    def test_contract(self, a, n):
        b = core.shrink_below(a, n)
        assert core.compare(core.multiple(n, b), a).is_less


Q = PosRat(1, 2)
REAL_POINT = real_from_rat(PosRat(3, 2))

# Each refused call and the exception type it raises.  The element checks
# come before the multiplier's, so a call wrong in both reports the element.
REFUSALS = [
    ("compare(True, 1)", lambda: core.compare(True, 1), ModelMismatchError),
    ("compare(0, 1)", lambda: core.compare(0, 1), ModelMismatchError),
    ("compare(2, q)", lambda: core.compare(2, Q), ModelMismatchError),
    ("compare(q, 2)", lambda: core.compare(Q, 2), ModelMismatchError),
    ("compare(2, 3, RAT)", lambda: core.compare(2, 3, RAT), ModelMismatchError),
    ("compare(q, q, NAT)", lambda: core.compare(Q, Q, NAT), ModelMismatchError),
    ("compare(1.5, 2)", lambda: core.compare(1.5, 2), ModelMismatchError),
    ("compare(2, 1.5)", lambda: core.compare(2, 1.5), ModelMismatchError),
    ("combine(q, real)", lambda: core.combine(Q, REAL_POINT), ModelMismatchError),
    ("combine(real, q)", lambda: core.combine(REAL_POINT, Q), ModelMismatchError),
    ("combine(2, True)", lambda: core.combine(2, True), ModelMismatchError),
    ("subtract(q, 2)", lambda: core.subtract(Q, 2), ModelMismatchError),
    ("subtract(2, q, RAT)", lambda: core.subtract(2, Q, RAT), ModelMismatchError),
    ("multiple(2, 0)", lambda: core.multiple(2, 0), ModelMismatchError),
    ("multiple(2, True)", lambda: core.multiple(2, True), ModelMismatchError),
    ("multiple(2, q, NAT)", lambda: core.multiple(2, Q, NAT), ModelMismatchError),
    ("multiple(2, 2, REAL)", lambda: core.multiple(2, 2, REAL), ModelMismatchError),
    ("multiple(0, 0)", lambda: core.multiple(0, 0), ModelMismatchError),
    ("multiple(True, 0)", lambda: core.multiple(True, 0), ModelMismatchError),
    ("multiple(0, q)", lambda: core.multiple(0, Q), ValueError),
    ("multiple(-3, 2)", lambda: core.multiple(-3, 2), ValueError),
    ("multiple(True, q)", lambda: core.multiple(True, Q), TypeError),
    ("multiple(2.0, q)", lambda: core.multiple(2.0, Q), TypeError),
    ("multiple(q, q)", lambda: core.multiple(Q, Q), TypeError),
    ("multiple_naive(2, q, NAT)", lambda: core.multiple_naive(2, Q, NAT), ModelMismatchError),
    ("multiple_naive(0, q)", lambda: core.multiple_naive(0, Q), ValueError),
    ("multiple_naive(True, 2)", lambda: core.multiple_naive(True, 2), TypeError),
    ("find_multiple_exceeding(q, 2)", lambda: core.find_multiple_exceeding(Q, 2), ModelMismatchError),
    ("find_multiple_exceeding(2, 3, RAT)", lambda: core.find_multiple_exceeding(2, 3, RAT), ModelMismatchError),
    ("shrink_below(q, 0)", lambda: core.shrink_below(Q, 0), ValueError),
    ("shrink_below(q, True)", lambda: core.shrink_below(Q, True), TypeError),
    ("shrink_below(2, 1, RAT)", lambda: core.shrink_below(2, 1, RAT), ModelMismatchError),
    ("shrink_below(0, 0)", lambda: core.shrink_below(0, 0), ModelMismatchError),
    ("shrink_below(2, 1)", lambda: core.shrink_below(2, 1), DiscreteModelError),
]


@pytest.mark.parametrize("call, kind", [(c, k) for _, c, k in REFUSALS], ids=[i for i, _, _ in REFUSALS])
def test_refusals_keep_their_exception_types(call, kind):
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is kind


class TestOrdering3:
    def test_swapped(self):
        assert Rel.LESS.swapped() is Rel.GREATER
        assert Rel.GREATER.swapped() is Rel.LESS
        assert Rel.EQUAL.swapped() is Rel.EQUAL

    def test_descriptor_invariants(self):
        assert NAT.descriptor.discrete and NAT.descriptor.smallest == 1
        assert RAT.descriptor.symmetric and RAT.descriptor.smallest is None
