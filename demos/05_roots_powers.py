"""Roots and powers through the multiplicative magnitude space.

The reals above one form a magnitude space whose "addition" is
multiplication: its n-fold multiple is x^n, and the unique embedding of
the additive reals into it sending 1 to x evaluates to x^y.  Each power
is one oracle node on x's interval endpoints scaled to integers: a
rational exponent with a small denominator costs one integer root per
endpoint; a real exponent (or a very large denominator) is bracketed
between dyadic exponents and read off a table of successive square roots.
"""

from magnitudes import (
    PosRat,
    into_mul,
    mul_combine,
    mul_multiple,
    nth_root,
    real_from_rat,
)
from magnitudes.power import MUL, pow as mul_pow

print("== membership is certified, not assumed ==")
x = into_mul(real_from_rat(PosRat(3, 2)))
try:
    into_mul(real_from_rat(PosRat(1, 1)))
except Exception as exc:
    print("1 refused:", exc)

print("\n== multiplicative multiples are powers ==")
print("2^3 =", mul_multiple(3, into_mul(real_from_rat(PosRat(2, 1)))).value.exact)
print("(3/2)^10 =", mul_multiple(10, x).value.exact)

print("\n== roots from integer roots of interval endpoints ==")
two = into_mul(real_from_rat(PosRat(2, 1)))
r = nth_root(two, 2, 40)
iv = r.approx(40)
print("sqrt2 ~", iv.midpoint().decimal(12))
print("8^(1/3) =", nth_root(into_mul(real_from_rat(PosRat(8, 1))), 3, 20).value.exact,
      "(exact cube recognized)")

print("\n== general powers ==")
half = mul_pow(two, PosRat(1, 2), 40)
print("pow(2, 1/2, 40) ~", half.approx(40).midpoint().decimal(12))
print("pow(8, 2/3, 30) contains 4:",
      mul_pow(into_mul(real_from_rat(PosRat(8, 1))), PosRat(2, 3), 30).approx(30).contains(PosRat(4, 1)))

print("\n== the power laws, at interval level ==")
p = 40
x1 = into_mul(real_from_rat(PosRat(3, 2)))
x2 = into_mul(real_from_rat(PosRat(5, 2)))
y = PosRat(7, 4)
lhs = mul_pow(mul_combine(x1, x2), y, p)
rhs = mul_combine(mul_pow(x1, y, p), mul_pow(x2, y, p))
print("(x1*x2)^y vs x1^y * x2^y intersect:",
      lhs.approx(p).intersects(rhs.approx(p)))

y1, y2 = PosRat(1, 3), PosRat(1, 2)
lhs = mul_pow(x1, y1 + y2, p)
rhs = mul_combine(mul_pow(x1, y1, p), mul_pow(x1, y2, p))
print("x^(y1+y2) vs x^y1 * x^y2 intersect:",
      lhs.approx(p).intersects(rhs.approx(p)))

print("\n== monotone in the exponent ==")
low = mul_pow(two, PosRat(1, 3), 30)
high = mul_pow(two, PosRat(1, 2), 30)
print("2^(1/3) vs 2^(1/2):", MUL.order(low, high).tag.value)
