"""Ground truth that does not use the library.

Inputs handed to the library are refinement oracles built here from
``math.isqrt``.  Every check below works in exact integer or ``fractions``
arithmetic on a symbolic description of the same input, so a wrong library
result cannot also fool its checker.

Each checker returns ``None`` when the result is correct and a short reason
string when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Symbolic values: a sum of terms coef * sqrt(k), k squarefree.


def _split_square(k: int) -> tuple[int, int]:
    """k = r^2 * m with m having no square factor found by trial division."""
    r, m, d = 1, k, 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            r *= d
        d += 1
    return r, m


class Surd:
    """Exact value sum(coef * sqrt(k)) with rational coefs, k >= 1 squarefree."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if c != 0}

    @staticmethod
    def rational(q) -> "Surd":
        return Surd({1: Fraction(q)})

    @staticmethod
    def root(k: int, scale=1, offset=0) -> "Surd":
        """offset + scale * sqrt(k)."""
        r, m = _split_square(k)
        return Surd({m: Fraction(scale) * r}) + Surd.rational(offset)

    def __add__(self, other: "Surd") -> "Surd":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return Surd(out)

    def __sub__(self, other: "Surd") -> "Surd":
        return self + other.scaled(-1)

    def scaled(self, q) -> "Surd":
        return Surd({k: c * q for k, c in self.terms.items()})

    def __mul__(self, other: "Surd") -> "Surd":
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                r, m = _split_square(k1 * k2)
                out[m] = out.get(m, 0) + c1 * c2 * r
        return Surd(out)

    def sign(self) -> int:
        """Exact sign; supports the one- and two-term sums the workloads build."""
        items = list(self.terms.items())
        if not items:
            return 0
        if len(items) == 1:
            return 1 if items[0][1] > 0 else -1
        if len(items) > 2:
            raise ValueError("sign of a sum of more than two surds is not needed")
        (k1, c1), (k2, c2) = items
        if (c1 > 0) == (c2 > 0):
            return 1 if c1 > 0 else -1
        # opposite signs: compare squares of magnitudes
        big1 = c1 * c1 * k1 > c2 * c2 * k2
        return (1 if c1 > 0 else -1) if big1 else (1 if c2 > 0 else -1)

    def squared_rational(self) -> Fraction:
        """x^2 for a single-term x (so x^2 is rational)."""
        if len(self.terms) != 1:
            raise ValueError("only single-term surds square to a rational")
        (k, c), = self.terms.items()
        return c * c * k


def bracket(value: Surd, p: int) -> tuple[int, int]:
    """(t, t + n) with t <= value * 2^p < t + n, for a surd of n positive terms."""
    total = 0
    for k, c in value.terms.items():
        # floor(c * sqrt(k) * 2^p) = floor(sqrt(k * num^2 * 4^p) / den)
        total += math.isqrt(k * c.numerator * c.numerator << (2 * p)) // c.denominator
    # each term floors separately, so the sum can be short by (terms - 1)
    return total, total + len(value.terms)


# ---------------------------------------------------------------------------
# Building library inputs from symbolic values


def make_real(lib, value: Surd):
    """A PosRealValue whose oracle is computed from ``value`` with isqrt only.

    Rational values become exact library points; the rest get an oracle that
    brackets value * 2^q between integers at q = p + 2 and returns the
    bracket scaled back, so the width is at most 2^-p.
    """
    if set(value.terms) <= {1}:
        q = value.terms[1]
        return lib.real_from_rat(lib.PosRat(q.numerator, q.denominator))
    PosRat, Interval = lib.PosRat, lib.Interval

    def refine(p: int):
        q = p + 2
        lo, hi = bracket(value, q)
        if lo < 1:
            lo_rat = PosRat(1, 1 << (q + 64))  # value > 0 and far above this
        else:
            lo_rat = PosRat(lo, 1 << q)
        return Interval(lo_rat, PosRat(hi, 1 << q))

    return lib.PosRealValue(refine)


def to_fraction(x) -> Fraction:
    """A library PosRat (or a Fraction) as a Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x.num, x.den)


# ---------------------------------------------------------------------------
# Checkers for real-ops: interval results against exact characterisations


def check_interval_power(lo, hi, p: int, exponent: int, target: Fraction):
    """The true value V > 0 satisfies V**exponent == target.

    Requires hi - lo <= 2^-p and lo**exponent <= target <= hi**exponent.
    """
    lo, hi = to_fraction(lo), to_fraction(hi)
    if lo > hi:
        return "interval endpoints out of order"
    if (hi - lo) * (1 << p) > 1:
        return f"width above 2^-{p}"
    t_num, t_den = target.numerator, target.denominator
    if lo.numerator**exponent * t_den > t_num * lo.denominator**exponent:
        return "lower endpoint above the true value"
    if hi.numerator**exponent * t_den < t_num * hi.denominator**exponent:
        return "upper endpoint below the true value"
    return None


def check_interval_surd(lo, hi, p: int, value: Surd):
    """Width <= 2^-p and lo <= value <= hi, certified by isqrt brackets
    refined up to 512 bits past p."""
    lo, hi = to_fraction(lo), to_fraction(hi)
    if lo > hi:
        return "interval endpoints out of order"
    if (hi - lo) * (1 << p) > 1:
        return f"width above 2^-{p}"
    q = p + 16
    while q <= p + 512:
        t_lo, t_hi = bracket(value, q)
        low, high = Fraction(t_lo, 1 << q), Fraction(t_hi, 1 << q)
        if hi < low or lo > high:
            return "interval misses the true value"
        if lo <= low and high <= hi:
            return None
        q += 64
    return "containment not certified by the reference brackets"


# ---------------------------------------------------------------------------
# Checkers for real-ratio


def ratio_truth(a: Surd, b: Surd, a2: Surd, b2: Surd) -> int:
    """Sign of a/b - a2/b2, i.e. of a*b2 - a2*b (all values positive)."""
    return (a * b2 - a2 * b).sign()


def _witness_holds(m: int, n: int, a: Surd, b: Surd, a2: Surd, b2: Surd) -> bool:
    """m*a > n*b and m*a2 <= n*b2."""
    return (a.scaled(m) - b.scaled(n)).sign() > 0 and (a2.scaled(m) - b2.scaled(n)).sign() <= 0


def check_ratio_verdict(kind: str, witness, truth: int, a, b, a2, b2):
    """Verdict against ground truth; strict verdicts need a valid witness.

    ``witness`` is (m, n) or None.  Returns (error_or_None, undecided).
    """
    if kind == "unknown":
        return None, truth != 0
    if kind == "equal":
        return (None if truth == 0 else "equal verdict for unequal ratios"), False
    if kind not in ("greater", "less"):
        return f"unrecognised verdict {kind!r}", False
    if truth == 0:
        return f"strict verdict {kind} for equal ratios", False
    if (kind == "greater") != (truth > 0):
        return f"verdict {kind} contradicts the exact order", False
    if witness is None:
        return "strict verdict without a witness", False
    m, n = witness
    if m < 1 or n < 1:
        return "witness multipliers must be positive", False
    ok = _witness_holds(m, n, a, b, a2, b2) if kind == "greater" else _witness_holds(m, n, a2, b2, a, b)
    return (None if ok else "witness does not certify the verdict"), False


# ---------------------------------------------------------------------------
# Continued fractions of sqrt(k), for real-vs-rational ratio pairs


def sqrt_convergents(k: int, count: int) -> list:
    """First ``count`` convergents P/Q of sqrt(k), k not a perfect square."""
    a0 = math.isqrt(k)
    m, d, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    out = [(p1, q1)]
    while len(out) < count:
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append((p1, q1))
    return out
