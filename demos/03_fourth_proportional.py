"""Embeddings and the fourth proportional.

An additive order-preserving map between models is determined by a single
value: where it sends one element.  Out of the naturals that anchor is the
image of 1; out of a dense model it is realized by fourth proportionals:
given a, b and an image a' for a, the element completing a:b = a':b'.
"""

import math

from magnitudes import (
    Interval,
    PosRat,
    PosRealValue,
    anchor_embedding,
    check_homomorphism,
    embedding_to_json,
    embeddings_compare,
    evaluate,
    fourth_proportional,
    multiple_naive,
    nat_embedding,
    real_from_rat,
)

print("== unit-multiple embeddings out of the naturals ==")
phi = nat_embedding(PosRat(2, 5))
print("1 ->", evaluate(phi, 1), " 3 ->", evaluate(phi, 3), " 13 ->", evaluate(phi, 13))
print("naive recursion agrees:", multiple_naive(13, phi.image))

print("\n== the same map two ways: uniqueness ==")
chi = anchor_embedding(1, PosRat(2, 5))
for probe in (1, 7, 13):
    print(f"probe {probe}: comparison says", embeddings_compare(phi, chi, probe).value)

print("\n== anchored embeddings between dense models ==")
scale = anchor_embedding(PosRat(2, 3), PosRat(1, 2))
print("2/3 -> 1/2, so 4/3 ->", evaluate(scale, PosRat(4, 3)))

print("\n== fourth proportional into the reals ==")
b_prime = fourth_proportional(PosRat(2, 1), PosRat(3, 1), real_from_rat(PosRat(1, 1)), 30)
iv = b_prime.approx(30)
print(f"2 : 3 = 1 : x gives x in [{iv.lo}, {iv.hi}] (contains 3/2)")


def sqrt_oracle(k):
    def refine(p):
        s = math.isqrt(k << (2 * p))
        return Interval(PosRat(s, 1 << p), PosRat(s + 1, 1 << p))

    return PosRealValue(refine)


sqrt2 = sqrt_oracle(2)
doubled = fourth_proportional(PosRat(1, 1), PosRat(2, 1), sqrt2, 20)
iv = doubled.approx(20)
print(f"1 : 2 = sqrt2 : x gives x ~ {iv.midpoint().decimal(6)} (2*sqrt2 = 2.828427...)")

print("\n== homomorphism checking ==")
print("valid map:", check_homomorphism(phi, samples=200, seed=0).passed)
from magnitudes.models import RAT

report = check_homomorphism(lambda x: x + PosRat(1, 1), samples=200, seed=0,
                            domain=RAT, codomain=RAT)
print("shifted map fails at:", report.counterexample)

print("\n== embeddings serialize to small JSON trees ==")
print(embedding_to_json(phi))
