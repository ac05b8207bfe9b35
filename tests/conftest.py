import math

import pytest

from magnitudes.models import Interval, PosRat, PosRealValue


def isqrt_real(k: int) -> PosRealValue:
    """Independent oracle for sqrt(k), k >= 2, from integer square roots.

    floor(sqrt(k * 4^p)) brackets sqrt(k) between consecutive multiples of
    2^-p; no package arithmetic is involved.
    """

    def refine(p: int) -> Interval:
        s = math.isqrt(k << (2 * p))
        return Interval(PosRat(s, 1 << p), PosRat(s + 1, 1 << p))

    return PosRealValue(refine)


def sqrt_convergents(k: int):
    """Continued-fraction convergents P/Q of sqrt(k), k not a square."""
    a0 = math.isqrt(k)
    m, d, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    while True:
        yield p, q
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev


def recorded(k: int, seen: list) -> PosRealValue:
    """sqrt(k) that records each precision it is refined at."""

    def refine(p: int) -> Interval:
        seen.append(p)
        return isqrt_real(k).approx(p)

    return PosRealValue(refine)


def opaque(x: PosRealValue) -> PosRealValue:
    """Strip the exact-point fast path so interval code paths are exercised."""
    return PosRealValue(x.approx)


@pytest.fixture
def sqrt2() -> PosRealValue:
    return isqrt_real(2)
