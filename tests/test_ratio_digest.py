"""Real ratio verdicts pinned as one digest of (kind, witness, fuel_spent).

The corpus is built only from ``conftest.isqrt_real`` leaves, fresh for
every comparison, so each verdict depends on the engine alone:

* sqrt(k) : 1 against each convergent P : Q of sqrt(k), for non-square
  k < 100, down to about 2^-120 apart, in both orders;
* scaled roots s*sqrt(k) : sqrt(l) against t*sqrt(k) : sqrt(l), with t/s
  = 1 + 2^-g for gaps g = 1 ... 40, in both orders;
* equal ratios written two ways, which end Unknown at their fuel.

A change to the ratio engine that keeps its verdicts, witnesses and fuel
keeps the digest.
"""

import hashlib
import math

from magnitudes.models import PosRat, real_from_rat, real_scale
from magnitudes.ratio import ratio_compare

from conftest import isqrt_real, sqrt_convergents

DIGEST = "999911b2c612cd250850846cdb00d58abe97711946994d883a9e26c83074fb28"


def corpus():
    """Zero-argument builders of ratio_compare's arguments, fresh terms each call."""
    one = PosRat(1)
    for k in range(2, 100):
        if math.isqrt(k) ** 2 == k:
            continue
        for P, Q in sqrt_convergents(k):
            # |sqrt(k) - P/Q| is below 1/Q^2: stop past about 120 bits
            if 2 * Q.bit_length() > 122:
                break
            yield lambda k=k, P=P, Q=Q: (isqrt_real(k), real_from_rat(one), PosRat(P), PosRat(Q))
            yield lambda k=k, P=P, Q=Q: (P, Q, isqrt_real(k), real_from_rat(one))
    for k, l in ((2, 3), (5, 7), (42, 59)):
        for s in (PosRat(1), PosRat(3, 7), PosRat(22, 9)):
            for g in range(1, 41):
                t = s * PosRat((1 << g) + 1, 1 << g)
                for u, v in ((s, t), (t, s)):
                    yield lambda k=k, l=l, u=u, v=v: (
                        real_scale(isqrt_real(k), u),
                        isqrt_real(l),
                        real_scale(isqrt_real(k), v),
                        isqrt_real(l),
                    )
    for k in (2, 3, 10, 99):
        for q in (PosRat(2), PosRat(5, 3), PosRat(1, 1000)):
            yield lambda k=k, q=q: (isqrt_real(k), real_from_rat(PosRat(1)), real_scale(isqrt_real(k), q), real_from_rat(q))
            yield lambda k=k, q=q: (real_scale(isqrt_real(k), q), isqrt_real(k), q, PosRat(1))


def verdict_lines(fuel: int):
    for build in corpus():
        got = ratio_compare(*build(), fuel=fuel)
        w = got.witness
        yield f"{got.kind}:{'' if w is None else f'{w.m}/{w.n}'}:{got.fuel_spent}"


def test_real_verdict_digest():
    lines = list(verdict_lines(64))
    assert len(lines) == 7324
    # every strict pair decides; only the equal ones stay Unknown
    assert sum(line.startswith("unknown") for line in lines) == 24
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
