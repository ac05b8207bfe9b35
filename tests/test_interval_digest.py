"""Real operator intervals pinned as one digest of their ``lo|hi`` endpoints.

The corpus is built only from ``conftest.isqrt_real`` leaves and exact
points, fresh for every result, so each interval depends on the operators
alone:

* ``hom.product`` and ``hom.quotient`` of irrational and exact operands,
  a repeated operand and a nested product;
* ``embed.fourth_proportional`` over rational ratios and a real image;
* ``power.nth_root`` and ``power.pow`` of roots and of exact bases;

each at 30, 300 and 1000 bits, read at the policy precision and once more
at a coarser one; and ``real_add`` chains over roots and exact points, a
shared subnode among them, read at 30 and 300 bits.

A change to the real operators that keeps every endpoint keeps the digest.
"""

import hashlib
from fractions import Fraction

import pytest

from magnitudes.embed import ApproxPolicy, fourth_proportional
from magnitudes.hom import product, quotient
from magnitudes.models import PosRat, real_add, real_from_rat, real_scale
from magnitudes.power import into_mul, nth_root, pow

from conftest import isqrt_real

DIGEST = "fff4382481f7d6e63adc8b6fc7e8178d997bd6d1ba3fce2498177ac68200c4fd"

PRECISIONS = (30, 300, 1000)

# (k, s): sqrt(k) scaled by s, or the exact point s when k is 1
OPERANDS = (
    (2, PosRat(1)),
    (3, PosRat(7, 5)),
    (59, PosRat(1, 40)),
    (1, PosRat(22, 7)),
    (1, PosRat(3, 1024)),
)


def operand(k: int, s: PosRat):
    if k == 1:
        return real_from_rat(s)
    root = isqrt_real(k)
    return root if s == PosRat(1) else real_scale(root, s)


def operator_results(mp=None):
    """(label, value, precision, v) for every operator result of the corpus:
    v is the value in mp, or None without mp."""

    def real(k, s):  # operand(k, s) in mp
        return mp.sqrt(k) * fraction(s) if k != 1 else fraction(s)

    def fraction(q):
        return mp.mpf(q.num) / q.den

    for p in PRECISIONS:
        policy = ApproxPolicy(precision=p)
        for i, (ka, sa) in enumerate(OPERANDS):
            for kb, sb in OPERANDS[i:]:
                yield (
                    f"product {ka}*{sa} {kb}*{sb}",
                    product(operand(ka, sa), operand(kb, sb), policy),
                    p,
                    mp and real(ka, sa) * real(kb, sb),
                )
                yield (
                    f"quotient {kb}*{sb} {ka}*{sa}",
                    quotient(operand(kb, sb), operand(ka, sa), policy),
                    p,
                    mp and real(kb, sb) / real(ka, sa),
                )
        x = isqrt_real(5)
        yield "product x*x", product(x, x, policy), p, mp and mp.mpf(5)
        inner = product(isqrt_real(2), isqrt_real(3), policy)
        yield "product (2*3)*7", product(inner, isqrt_real(7), policy), p, mp and mp.sqrt(42)
        for a, b in ((PosRat(1), PosRat(3)), (PosRat(50, 3), PosRat(7, 41)), (PosRat(9, 8), PosRat(8, 9))):
            for k, s in OPERANDS:
                yield (
                    f"fourth {a}:{b} {k}*{s}",
                    fourth_proportional(a, b, operand(k, s), p),
                    p,
                    mp and real(k, s) * fraction(b) / fraction(a),
                )
        for k in (2, 10, 97):
            for n in (2, 3, 9):
                yield f"root {k} {n}", nth_root(into_mul(isqrt_real(k)), n, p).value, p, mp and mp.root(k, 2 * n)
            for e in (PosRat(2), PosRat(5, 3), PosRat(67, 68)):
                yield f"pow {k} {e}", pow(into_mul(isqrt_real(k)), e, p).value, p, mp and mp.power(k, fraction(e) / 2)
        for base, e in ((PosRat(3, 2), PosRat(7, 5)), (PosRat(9, 4), PosRat(3, 2)), (PosRat(2), PosRat(1, 97))):
            yield (
                f"pow {base} {e}",
                pow(into_mul(real_from_rat(base)), e, p).value,
                p,
                mp and mp.power(fraction(base), fraction(e)),
            )


def chains(mp=None):
    """(label, value, precision, v) for real_add chains over roots and points,
    v as in operator_results."""
    for p in (30, 300):
        for depth in (2, 17, 150):
            acc, v = isqrt_real(2), mp and mp.sqrt(2)
            for i in range(1, depth):
                k = 2 + (7 * i) % 57
                if i % 5 == 0:
                    acc, v = real_add(acc, real_from_rat(PosRat(k, 3))), mp and v + mp.mpf(k) / 3
                else:
                    acc, v = real_add(acc, isqrt_real(k)), mp and v + mp.sqrt(k)
            yield f"chain {depth}", acc, p, v
        # a shared subnode: c + c, three times over
        c = real_add(isqrt_real(3), isqrt_real(11))
        for _ in range(3):
            c = real_add(c, c)
        yield "chain doubled", c, p, mp and 8 * (mp.sqrt(3) + mp.sqrt(11))


def intervals(mp=None):
    """(label, q, interval, v) for every read of the corpus: each result at
    its precision, then once more at a coarser one."""
    for label, value, p, v in (*operator_results(mp), *chains(mp)):
        for q in (p, p // 3):
            yield label, q, value.approx(q), v


def interval_lines():
    for label, q, iv, _ in intervals():
        yield f"{label} @{q}: {iv.lo}|{iv.hi}"


def test_operator_interval_digest():
    lines = list(interval_lines())
    assert len(lines) == 2 * (3 * (2 * 15 + 2 + 3 * 5 + 3 * 6 + 3) + 2 * 4)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST


def test_every_digest_interval_holds_its_value_and_meets_its_width():
    # what the digest pins is itself checked: each interval has a positive
    # lower end, width <= 2^-q, and holds the value mpmath finds at 4,000
    # bits, up to that value's own error
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(4000):
        for label, q, iv, v in intervals(mpmath.mp):
            assert iv.lo.num > 0 and iv.width_at_most(q), f"{label} @{q}"
            man, exp = mpmath.mpf(v).man_exp
            v = man * Fraction(2) ** exp
            slack = v / (1 << 3984)
            lo, hi = Fraction(iv.lo.num, iv.lo.den), Fraction(iv.hi.num, iv.hi.den)
            assert lo - slack <= v <= hi + slack, f"{label} @{q}"
