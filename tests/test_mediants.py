import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnitudes.errors import InexactModelError
from magnitudes.mediants import ratio_as_fraction, simplest_in
from magnitudes.models import NAT, RAT, REAL, PosRat, real_from_rat

small_rationals = st.builds(PosRat, st.integers(1, 48), st.integers(1, 48))
rationals = st.builds(PosRat, st.integers(1, 1 << 16), st.integers(1, 1 << 16))


def brute_simplest(lo, hi, include_lo, include_hi):
    flo = Fraction(lo.num, lo.den)
    fhi = Fraction(hi.num, hi.den)
    # the mediant of lo < hi lies strictly inside, so the search ends by
    # denominator lo.den + hi.den
    for den in range(1, lo.den + hi.den + 1):
        for num in range(max(1, math.floor(flo * den)), math.floor(fhi * den) + 1):
            q = Fraction(num, den)
            above = q >= flo if include_lo else q > flo
            below = q <= fhi if include_hi else q < fhi
            if above and below:
                return PosRat(num, den)
    return None


class TestSimplestIn:
    def test_known_case(self):
        assert simplest_in(PosRat(4, 3), PosRat(3, 2)) == PosRat(4, 3)
        assert simplest_in(PosRat(4, 3), PosRat(3, 2), include_lo=False) == PosRat(7, 5)

    def test_integer_shortcut(self):
        assert simplest_in(PosRat(5, 2), PosRat(7, 2)) == PosRat(3, 1)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            simplest_in(PosRat(3, 2), PosRat(4, 3))
        with pytest.raises(ValueError):
            simplest_in(PosRat(1, 2), PosRat(1, 2), include_hi=False)

    def test_degenerate_point(self):
        assert simplest_in(PosRat(5, 7), PosRat(5, 7), True, True) == PosRat(5, 7)

    def test_continued_fraction_past_the_frame_limit(self):
        # consecutive Fibonacci ratios: 5,000 terms of 1, one pass each
        f = [1, 1]
        while len(f) < 5003:
            f.append(f[-1] + f[-2])
        lo, hi = sorted((PosRat(f[-1], f[-2]), PosRat(f[-2], f[-3])))
        assert simplest_in(lo, hi, True, True) == PosRat(f[-2], f[-3])

    @settings(max_examples=300)
    @given(small_rationals, small_rationals, st.booleans(), st.booleans())
    @example(PosRat(1, 48), PosRat(1, 47), False, False)  # answer 2/95
    def test_matches_brute_force(self, a, b, include_lo, include_hi):
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        got = simplest_in(lo, hi, include_lo, include_hi)
        want = brute_simplest(lo, hi, include_lo, include_hi)
        assert want is not None and got == want

    @settings(max_examples=200)
    @given(rationals, rationals, st.booleans(), st.booleans())
    def test_membership_and_minimality(self, a, b, include_lo, include_hi):
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        got = simplest_in(lo, hi, include_lo, include_hi)
        assert (got > lo or (include_lo and got == lo))
        assert (got < hi or (include_hi and got == hi))


class TestRatioDescent:
    @given(rationals, rationals)
    def test_matches_division(self, a, b):
        assert ratio_as_fraction(a, b, RAT) == a / b

    @given(st.integers(1, 1 << 24), st.integers(1, 1 << 24))
    def test_nat_pairs(self, m, n):
        assert ratio_as_fraction(m, n, NAT) == PosRat(m, n)

    def test_equal_elements(self):
        assert ratio_as_fraction(PosRat(5, 7), PosRat(5, 7), RAT) == PosRat(1, 1)

    def test_inexact_model_refused(self):
        x = real_from_rat(PosRat(1, 2))
        with pytest.raises(InexactModelError):
            ratio_as_fraction(x, x, REAL)
