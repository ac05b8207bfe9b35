"""Ratio comparison with certifying witnesses.

Two pairs stand in the same ratio when every multiplier pair orders them
the same way.  A strict verdict therefore has a finite certificate: a pair
(m, n) whose fraction n/m separates the two ratio values.  The engine
returns that witness, and anyone can re-verify it independently.
"""

import math

from magnitudes import (
    Interval,
    PosRat,
    PosRealValue,
    have_ratio_witness,
    ratio_compare,
    real_from_rat,
    verify_witness,
)

print("== every pair has a ratio (Archimedean) ==")
m, n = have_ratio_witness(PosRat(1, 2), PosRat(5, 1))
print(f"1/2 vs 5: m={m} multiples exceed, and n={n} the other way")

print("\n== exact comparison with witness ==")
verdict = ratio_compare(PosRat(3, 1), PosRat(2, 1), PosRat(4, 1), PosRat(3, 1))
print("3:2 vs 4:3 ->", verdict.kind, "witness", verdict.witness)
print("  meaning: 3*3 = 9 > 4*2 = 8, while 3*4 = 12 <= 4*3 = 12")
print("  verifies:", verify_witness(verdict.witness, PosRat(3, 1), PosRat(2, 1), PosRat(4, 1), PosRat(3, 1)))

print("\n== equality is detected through values ==")
print("2:3 vs 4:6 ->", ratio_compare(2, 3, 4, 6).kind)


def sqrt_oracle(k):
    def refine(p):
        s = math.isqrt(k << (2 * p))
        return Interval(PosRat(s, 1 << p), PosRat(s + 1, 1 << p))

    return PosRealValue(refine)


print("\n== a real ratio against a rational one ==")
sqrt2 = sqrt_oracle(2)
one = real_from_rat(PosRat(1, 1))
verdict = ratio_compare(sqrt2, one, PosRat(3, 1), PosRat(2, 1), fuel=64)
print("sqrt2 : 1 vs 3 : 2 ->", verdict.kind, "witness", verdict.witness)
w = verdict.witness
print(f"  the fraction {w.n}/{w.m} = {w.n/w.m:.6f} separates sqrt2 = 1.41421... from 1.5")
print("  verifies:", verify_witness(w, PosRat(3, 1), PosRat(2, 1), sqrt2, one))

print("\n== honest indecision ==")
verdict = ratio_compare(sqrt_oracle(2), one, sqrt_oracle(8), real_from_rat(PosRat(2, 1)), fuel=8)
print("sqrt2 : 1 vs sqrt8 : 2, fuel 8 ->", verdict.kind,
      f"(fuel spent {verdict.fuel_spent}, precision cap {verdict.precision_cap})")
print("both ratios are sqrt2: their enclosures always overlap, so equal real")
print("ratios are left undecided, never given a wrong verdict")
