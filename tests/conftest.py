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
