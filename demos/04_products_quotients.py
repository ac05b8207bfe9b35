"""Products and quotients out of the embedding space.

Same-signature embeddings form a magnitude space of their own; when the
domain has a unit, the space is isomorphic to the codomain via "where does
the unit go".  Pulling the composition of embeddings back along that map
IS multiplication: no separate product axiom is needed, and quotients
fall out wherever every element is an anchor (symmetric models).
"""

import math

from magnitudes import (
    IdentityRepr,
    Interval,
    PosRat,
    PosRealValue,
    RAT,
    hom_add,
    hom_compare,
    hom_compose,
    product,
    psi,
    quotient,
    real_from_rat,
)

print("== the unit-anchored correspondence ==")
double = psi(RAT, PosRat(2, 1))
triple = psi(RAT, PosRat(3, 1))
print("double(7/3) =", double(PosRat(7, 3)))
print("composition is the map for the product:",
      hom_compare(hom_compose(double, triple), psi(RAT, PosRat(6, 1))).tag.value)
print("sum is the map for the sum:",
      hom_compare(hom_add(double, triple), psi(RAT, PosRat(5, 1))).tag.value)
print("the unit's map is the identity:",
      hom_compare(psi(RAT, PosRat(1, 1)), IdentityRepr(RAT)).tag.value)

print("\n== comparing maps yields a difference map ==")
outcome = hom_compare(psi(RAT, PosRat(5, 1)), psi(RAT, PosRat(2, 1)))
delta = outcome.gap
print("psi(5) vs psi(2):", outcome.tag.value, "- delta at 2/7 is", delta(PosRat(2, 7)))

print("\n== products ==")
print("3/2 * 4/3 =", product(PosRat(3, 2), PosRat(4, 3)))
print("3 * 4 =", product(3, 4), "(naturals: integer multiplication)")


def sqrt_oracle(k):
    def refine(p):
        s = math.isqrt(k << (2 * p))
        return Interval(PosRat(s, 1 << p), PosRat(s + 1, 1 << p))

    return PosRealValue(refine)


sqrt2 = sqrt_oracle(2)
sq = product(sqrt2, sqrt2)
iv = sq.approx(30)
print(f"sqrt2 * sqrt2 is in [{iv.lo.decimal(10)}, {iv.hi.decimal(10)}] (contains 2)")

print("\n== quotients (symmetric models only) ==")
print("(3/2) / (1/2) =", quotient(PosRat(3, 2), PosRat(1, 2)))
try:
    quotient(6, 4)
except Exception as exc:
    print("6 / 4 in the naturals refused:", exc)

q = quotient(real_from_rat(PosRat(2, 1)), sqrt2)
iv = q.approx(25)
print(f"2 / sqrt2 ~ {iv.midpoint().decimal(8)} (= sqrt2, by interval division)")
back = product(q, sqrt2)
print("round trip contains 2:", back.approx(30).contains(PosRat(2, 1)))
