"""Three magnitude models and the generic core operations.

A magnitude is a positive quantity: there is addition, trichotomous
comparison, and nothing else: no zero, no negatives.  The comparison is
the interesting part: whichever side is larger, the answer carries the
exact difference as a witness.
"""

from magnitudes import (
    NAT,
    RAT,
    PosRat,
    combine,
    compare,
    find_multiple_exceeding,
    multiple,
    multiple_naive,
    real_from_rat,
    shrink_below,
    subtract,
)

print("== combining and comparing ==")
print("2 + 3 =", combine(2, 3))
print("7/3 + 1/2 =", combine(PosRat(7, 3), PosRat(1, 2)))

outcome = compare(PosRat(2, 3), PosRat(5, 6))
print("compare(2/3, 5/6) ->", outcome.tag.value, "by", outcome.gap)
print("the witness reconstructs the larger side:", combine(PosRat(2, 3), outcome.gap))

print("\n== subtraction is partial ==")
print("subtract(7/3, 1/2) =", subtract(PosRat(7, 3), PosRat(1, 2)))
try:
    subtract(PosRat(1, 2), PosRat(7, 3))
except Exception as exc:
    print("subtract(1/2, 7/3) refused:", exc)

print("\n== integral multiples, doubling vs naive ==")
print("5 * 3/4 =", multiple(5, PosRat(3, 4)))
print("13 * 2/7 =", multiple(13, PosRat(2, 7)), "| naive:", multiple_naive(13, PosRat(2, 7)))

print("\n== the Archimedean search ==")
n = find_multiple_exceeding(PosRat(1, 3), PosRat(2, 1))
print("least n with n * 1/3 > 2:", n)
print("check:", multiple(n, PosRat(1, 3)), ">", PosRat(2, 1))

print("\n== shrinking below (nondiscrete models only) ==")
small = shrink_below(PosRat(1, 1), 3)
print("some b with 3b < 1:", small, "->", multiple(3, small))

print("\n== the real model: interval refinement oracles ==")
x = real_from_rat(PosRat(1, 3))
for p in (2, 10, 20):
    iv = x.approx(p)
    print(f"approx(1/3, {p}) = [{iv.lo}, {iv.hi}]")
print("descriptors:", NAT.descriptor.model_id, RAT.descriptor.model_id)
