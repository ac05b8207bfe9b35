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

from magnitudes.embed import ApproxPolicy, fourth_proportional
from magnitudes.hom import product, quotient
from magnitudes.models import PosRat, real_add, real_from_rat, real_scale
from magnitudes.power import into_mul, nth_root, pow

from conftest import isqrt_real

DIGEST = "a61c82044b523cfbb5af7e183c9aeda781fb1ca4a8c418fc986b2d8dd471275e"

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


def operator_results():
    """(label, value, precision) for every operator result of the corpus."""
    for p in PRECISIONS:
        policy = ApproxPolicy(precision=p)
        for i, (ka, sa) in enumerate(OPERANDS):
            for kb, sb in OPERANDS[i:]:
                yield f"product {ka}*{sa} {kb}*{sb}", product(operand(ka, sa), operand(kb, sb), policy), p
                yield f"quotient {kb}*{sb} {ka}*{sa}", quotient(operand(kb, sb), operand(ka, sa), policy), p
        x = isqrt_real(5)
        yield "product x*x", product(x, x, policy), p
        inner = product(isqrt_real(2), isqrt_real(3), policy)
        yield "product (2*3)*7", product(inner, isqrt_real(7), policy), p
        for a, b in ((PosRat(1), PosRat(3)), (PosRat(50, 3), PosRat(7, 41)), (PosRat(9, 8), PosRat(8, 9))):
            for k, s in OPERANDS:
                yield f"fourth {a}:{b} {k}*{s}", fourth_proportional(a, b, operand(k, s), p), p
        for k in (2, 10, 97):
            for n in (2, 3, 9):
                yield f"root {k} {n}", nth_root(into_mul(isqrt_real(k)), n, p).value, p
            for e in (PosRat(2), PosRat(5, 3), PosRat(67, 68)):
                yield f"pow {k} {e}", pow(into_mul(isqrt_real(k)), e, p).value, p
        for base, e in ((PosRat(3, 2), PosRat(7, 5)), (PosRat(9, 4), PosRat(3, 2)), (PosRat(2), PosRat(1, 97))):
            yield f"pow {base} {e}", pow(into_mul(real_from_rat(base)), e, p).value, p


def chains():
    """(label, value, precision) for real_add chains over roots and points."""
    for p in (30, 300):
        for depth in (2, 17, 150):
            acc = isqrt_real(2)
            for i in range(1, depth):
                k = 2 + (7 * i) % 57
                leaf = real_from_rat(PosRat(k, 3)) if i % 5 == 0 else isqrt_real(k)
                acc = real_add(acc, leaf)
            yield f"chain {depth}", acc, p
        # a shared subnode: c + c, three times over
        c = real_add(isqrt_real(3), isqrt_real(11))
        for _ in range(3):
            c = real_add(c, c)
        yield "chain doubled", c, p


def interval_lines():
    for label, value, p in (*operator_results(), *chains()):
        for q in (p, p // 3):
            iv = value.approx(q)
            yield f"{label} @{q}: {iv.lo}|{iv.hi}"


def test_operator_interval_digest():
    lines = list(interval_lines())
    assert len(lines) == 2 * (3 * (2 * 15 + 2 + 3 * 5 + 3 * 6 + 3) + 2 * 4)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
