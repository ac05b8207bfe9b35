"""Cross-check of the real operators against mpmath at up to 1000 bits.

mpmath evaluates each value with 64 more bits than the interval's width
(more for values above 1), so its error is far below what the containment
check can see.
"""

from fractions import Fraction

import pytest

from magnitudes.embed import ApproxPolicy
from magnitudes.hom import quotient
from magnitudes.models import PosRat, real_from_rat
from magnitudes.power import into_mul, nth_root, pow as mul_pow

from conftest import isqrt_real

mpmath = pytest.importorskip("mpmath")

P = 1000


def _holds(iv, value, p=P) -> bool:
    man, exp = value.man_exp
    v = man * Fraction(2) ** exp
    lo, hi = Fraction(iv.lo.num, iv.lo.den), Fraction(iv.hi.num, iv.hi.den)
    slack = Fraction(1, 1 << (p + 32))
    return iv.width_at_most(p) and lo - slack <= v <= hi + slack


@pytest.fixture
def mp():
    with mpmath.workprec(P + 64):
        yield mpmath.mp


def test_quotient(mp):
    d = quotient(isqrt_real(3), isqrt_real(2), ApproxPolicy(P))
    assert _holds(d.approx(P), mpmath.sqrt(3) / mpmath.sqrt(2))


def test_nth_root(mp):
    r = nth_root(into_mul(isqrt_real(3)), 5, P)
    assert _holds(r.approx(P), mpmath.root(mpmath.sqrt(3), 5))


def test_pow_97th_root(mp):
    got = mul_pow(into_mul(isqrt_real(2)), PosRat(1, 97), P)
    assert _holds(got.approx(P), mpmath.power(mpmath.sqrt(2), mpmath.mpf(1) / 97))


@pytest.mark.parametrize(
    "base, k, p",
    [
        (PosRat(2), 2, 60),
        (PosRat(2), 2, 200),
        (PosRat(2), 2, 1000),
        (PosRat(1025, 1024), 3, 300),
        (PosRat(10**6), 2, 200),
    ],
)
def test_pow_real_exponent(base, k, p):
    got = mul_pow(into_mul(real_from_rat(base)), isqrt_real(k), p)
    # every value here is below 2^64, so p + 128 bits are p + 64 absolute
    with mpmath.workprec(p + 128):
        want = mpmath.power(mpmath.mpf(base.num) / base.den, mpmath.sqrt(k))
        assert _holds(got.approx(p), want, p)


def test_pow_exact_base_over_the_size_cap():
    # 1.0001^(10^6) would be a 13-million-bit point; the node encloses it
    got = mul_pow(into_mul(real_from_rat(PosRat(10001, 10000))), 10**6, 30)
    # the value is about 2^144, so 30 + 144 + 64 bits are 64 more than 2^-30
    with mpmath.workprec(238):
        want = mpmath.power(mpmath.mpf(10001) / 10000, 10**6)
        assert _holds(got.approx(30), want, 30)
