import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitudes.core import compare
from magnitudes.embed import (
    Anchor,
    ApproxPolicy,
    ComposeOf,
    IdentityRepr,
    SumOf,
    UnitMultiple,
    anchor_embedding,
    embedding_from_json,
    embedding_to_json,
    evaluate,
    nat_embedding,
)
from magnitudes.errors import ModelMismatchError, NotSymmetricError, UndecidedError
from magnitudes.hom import (
    hom_add,
    hom_compare,
    hom_compose,
    identity_endo,
    product,
    psi,
    quotient,
)
from magnitudes.models import NAT, RAT, REAL, Interval, PosRat, _Monomial, real_add, real_from_rat, real_scale

from conftest import isqrt_real, opaque

rationals = st.builds(PosRat, st.integers(1, 1 << 10), st.integers(1, 1 << 10))


class TestIdentity:
    def test_probe(self):
        ide = identity_endo(RAT)
        assert ide(PosRat(7, 3)) == PosRat(7, 3)

    def test_neutral_for_composition(self):
        phi = psi(RAT, PosRat(5, 3))
        ide = identity_endo(RAT)
        assert hom_compare(hom_compose(ide, phi), phi).is_equal
        assert hom_compare(hom_compose(phi, ide), phi).is_equal

    def test_psi_unit_is_identity(self):
        assert hom_compare(psi(RAT, PosRat(1, 1)), identity_endo(RAT)).is_equal

    def test_psi_discrete_domain(self):
        mapping = psi(NAT, PosRat(2, 5))
        assert mapping(3) == PosRat(6, 5)


class TestHomAdd:
    def test_pointwise(self):
        phi = psi(RAT, PosRat(2, 5))
        chi = psi(RAT, PosRat(1, 5))
        assert hom_add(phi, chi)(PosRat(1, 1)) == PosRat(3, 5)

    def test_commutative_at_probes(self):
        phi, chi = psi(RAT, PosRat(2, 7)), psi(RAT, PosRat(9, 4))
        for probe in (PosRat(1, 1), PosRat(3, 5)):
            assert hom_add(phi, chi)(probe) == hom_add(chi, phi)(probe)

    def test_psi_additive(self):
        lhs = psi(RAT, PosRat(2, 1) + PosRat(3, 1))
        rhs = hom_add(psi(RAT, PosRat(2, 1)), psi(RAT, PosRat(3, 1)))
        assert hom_compare(lhs, rhs).is_equal

    def test_signature_mismatch(self):
        with pytest.raises(ModelMismatchError):
            hom_add(psi(RAT, PosRat(1, 2)), psi(NAT, 2))


class TestHomCompose:
    def test_psi_multiplicative(self):
        lhs = hom_compose(psi(RAT, PosRat(2, 1)), psi(RAT, PosRat(3, 1)))
        assert hom_compare(lhs, psi(RAT, PosRat(6, 1))).is_equal

    def test_associative_at_probes(self):
        a, b, c = (psi(RAT, q) for q in (PosRat(2, 3), PosRat(7, 5), PosRat(1, 4)))
        for probe in (PosRat(1, 1), PosRat(5, 2)):
            assert hom_compose(hom_compose(a, b), c)(probe) == hom_compose(a, hom_compose(b, c))(probe)

    @given(rationals, rationals, rationals)
    def test_commutes(self, x, y, probe):
        a, b = psi(RAT, x), psi(RAT, y)
        assert hom_compose(a, b)(probe) == hom_compose(b, a)(probe)

    def test_chain_mismatch(self):
        with pytest.raises(ModelMismatchError):
            hom_compose(psi(NAT, 2), psi(RAT, PosRat(1, 2)))


class TestHomCompare:
    def test_delta_reconstructs(self):
        big, small = psi(RAT, PosRat(5, 1)), psi(RAT, PosRat(2, 1))
        outcome = hom_compare(big, small)
        assert outcome.is_greater
        delta = outcome.gap
        assert hom_compare(delta, psi(RAT, PosRat(3, 1))).is_equal
        rebuilt = hom_add(small, delta)
        assert hom_compare(rebuilt, big).is_equal

    def test_equal(self):
        phi = psi(RAT, PosRat(4, 9))
        assert hom_compare(phi, phi).is_equal

    @given(rationals, rationals, rationals)
    def test_delta_additive_at_random_probe(self, x, y, probe):
        if x == y:
            return
        phi, chi = psi(RAT, x), psi(RAT, y)
        outcome = hom_compare(phi, chi)
        smaller, larger = (phi, chi) if outcome.is_less else (chi, phi)
        delta = outcome.gap
        assert larger(probe) == smaller(probe) + delta(probe)

    def test_real_codomain_delta(self, sqrt2):
        phi = psi(RAT, sqrt2)
        chi = psi(RAT, real_from_rat(PosRat(1, 1)))
        outcome = hom_compare(phi, chi)
        assert outcome.is_greater
        gap_at_one = outcome.gap(PosRat(1, 1))
        # sqrt2 - 1 = 0.41421...
        iv = gap_at_one.approx(16)
        assert iv.lo < PosRat(4143, 10000) and iv.hi > PosRat(4142, 10000)

    def test_equal_reals_undecided(self, sqrt2):
        with pytest.raises(UndecidedError, match="real comparison overlapped through precision 256"):
            hom_compare(psi(REAL, sqrt2), psi(REAL, sqrt2))

    @pytest.mark.parametrize("e", [10, 100, 200, 240])
    def test_real_delta_contains_tiny_gap(self, e):
        # the values at the probe are product nodes certified apart on the
        # ladder; their difference node shows positivity on its own grids
        gap = PosRat(1, 1 << e)
        x = isqrt_real(2)
        outcome = hom_compare(psi(REAL, real_add(x, real_from_rat(gap))), psi(REAL, x))
        assert outcome.is_greater
        iv = outcome.gap.image.approx(30)
        assert iv.width_at_most(30) and iv.contains(gap)


class TestReprIsTheElement:
    """The reified map is the hom-space element: callable, and serializable."""

    @given(rationals, rationals)
    def test_calling_agrees_with_evaluate(self, image, probe):
        anchored = anchor_embedding(PosRat(3, 2), image)
        ide = IdentityRepr(RAT)
        n = probe.num
        unit = nat_embedding(image)
        assert unit(n) == evaluate(unit, n)
        for phi in (anchored, ide, SumOf(anchored, ide), ComposeOf(anchored, ide)):
            assert phi(probe) == evaluate(phi, probe)

    def test_results_are_reprs(self):
        phi, chi = psi(RAT, PosRat(5, 2)), psi(RAT, PosRat(2, 3))
        assert isinstance(phi, Anchor) and isinstance(psi(NAT, 3), UnitMultiple)
        assert isinstance(hom_add(phi, chi), SumOf)
        assert isinstance(hom_compose(phi, chi), ComposeOf)
        assert identity_endo(RAT) == IdentityRepr(RAT)
        assert hom_compare(phi, chi).gap == psi(RAT, PosRat(11, 6))

    @given(rationals, rationals, rationals, st.integers(1, 1 << 10))
    def test_results_round_trip_through_json(self, x, y, probe, n):
        phi, chi = psi(RAT, x), psi(RAT, y)
        results = [phi, hom_add(phi, chi), hom_compose(phi, chi), psi(NAT, x)]
        if x != y:
            results.append(hom_compare(phi, chi).gap)
        for got in results:
            back = embedding_from_json(json.loads(json.dumps(embedding_to_json(got))))
            b = n if got.domain is NAT else probe
            assert back(b) == got(b)


class TestProduct:
    def test_rational_examples(self):
        assert product(PosRat(3, 2), PosRat(4, 3)) == PosRat(2, 1)
        assert product(PosRat(1, 1), PosRat(7, 9)) == PosRat(7, 9)

    def test_nat_is_integer_multiplication(self):
        assert product(3, 4) == 12
        assert product(1, 9) == 9

    @given(rationals, rationals)
    def test_matches_fraction_arithmetic(self, a, b):
        got = product(a, b)
        want = Fraction(a.num, a.den) * Fraction(b.num, b.den)
        assert Fraction(got.num, got.den) == want

    def test_real_sqrt2_squared(self, sqrt2):
        got = product(sqrt2, sqrt2)
        iv = got.approx(30)
        assert iv.contains(PosRat(2, 1)) and iv.width_at_most(30)

    def test_real_product_is_one_node(self):
        # the product node itself, not a scaling by 1/1 wrapped around it
        assert product(isqrt_real(2), isqrt_real(3)).__class__ is _Monomial

    @given(rationals, rationals, rationals)
    def test_order_preserved(self, a, b, c):
        assert (
            compare(product(a, b), product(a, c)).tag
            is compare(b, c).tag
        )


class TestQuotient:
    def test_rational(self):
        assert quotient(PosRat(3, 2), PosRat(1, 2)) == PosRat(3, 1)

    def test_nat_rejected(self):
        with pytest.raises(NotSymmetricError):
            quotient(6, 4)

    def test_real_interval_pinned(self):
        # the inputs' 74-bit intervals, their endpoint quotients rounded out
        # onto the 2^-74 grid; recorded output
        d = quotient(isqrt_real(3), isqrt_real(2), ApproxPolicy(60))
        iv = d.approx(60)
        assert iv == Interval(
            PosRat(23134776522904537350343, 1 << 74), PosRat(23134776522904537350346, 1 << 74)
        )
        # sqrt(3)/sqrt(2) = sqrt(6)/2: the interval holds isqrt's bracket
        s = math.isqrt(6 << 400)
        assert iv.lo <= PosRat(s, 1 << 201) and PosRat(s + 1, 1 << 201) <= iv.hi

    def test_tiny_divisor_width_contract(self, sqrt2):
        # a = sqrt(2)/2^400: the input precision must grow with 1/a^2
        tiny = PosRat(1, 1 << 400)
        d = quotient(isqrt_real(3), real_scale(sqrt2, tiny), ApproxPolicy(60))
        iv = d.approx(60)
        assert iv.width_at_most(60)
        s = math.isqrt(6 << 1000)
        assert iv.lo * tiny <= PosRat(s, 1 << 501)
        assert PosRat(s + 1, 1 << 501) <= iv.hi * tiny

    def test_order_against_unit(self):
        b, a = PosRat(7, 2), PosRat(2, 1)
        assert compare(quotient(b, a), PosRat(1, 1)).tag is compare(b, a).tag

    def test_real_bisection_against_endpoint_division(self, sqrt2):
        # oracle: endpoint division of interval bounds, fully independent
        b = real_from_rat(PosRat(2, 1))
        got = quotient(b, sqrt2).approx(20)
        s2 = sqrt2.approx(40)
        lo_want = PosRat(2, 1) / s2.hi
        hi_want = PosRat(2, 1) / s2.lo
        assert got.lo <= hi_want and lo_want <= got.hi
        assert got.width_at_most(20)

    def test_real_roundtrip_opaque_operands(self, sqrt2):
        b = opaque(real_from_rat(PosRat(7, 2)))
        d = quotient(b, sqrt2)
        back = product(d, sqrt2)
        assert back.approx(30).contains(PosRat(7, 2))

    def test_exact_real_fast_path(self):
        d = quotient(real_from_rat(PosRat(3, 1)), real_from_rat(PosRat(2, 1)))
        assert d.exact == PosRat(3, 2)

    @settings(max_examples=30, deadline=None)
    @given(rationals, rationals)
    def test_real_quotient_contains_exact_value(self, b, a):
        got = quotient(opaque(real_from_rat(b)), opaque(real_from_rat(a)))
        assert got.approx(40).contains(b / a)
