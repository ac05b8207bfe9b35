"""Powers and roots through the multiplicative magnitude space.

The reals greater than one form a magnitude space under multiplication:
its "integral multiple" is x^n, its trichotomy witness is a quotient, and
its order agrees with the additive one.  Because that space is continuous
at oracle level, every base x > 1 determines a unique embedding of the
additive positive reals into it sending 1 to x; evaluating that embedding
at y is x^y.

The computable route is integer roots of scaled interval endpoints plus
integer powers: rational exponents m/n go through an n-th root and an
m-fold multiplicative multiple; irrational (or large-denominator) exponents
are bracketed between dyadic ones, which cost one iterated-square-root
chain.  Uniqueness of the embedding is what the law suite leans on: any two
correct evaluators must agree wherever their intervals are queried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import core, hom
from .core import ModelDescriptor, Ordering3, Rel, check_precision
from .errors import (
    InexactModelError,
    NotAboveOneError,
    OracleFailureError,
)
from .models import (
    RAT_ONE,
    Interval,
    Model,
    Overlap,
    PosRat,
    PosRealValue,
    certify,
    ladder,
    real_compare_escalating,
    real_from_rat,
)

__all__ = [
    "MulReal",
    "MUL",
    "into_mul",
    "mul_combine",
    "mul_compare",
    "mul_multiple",
    "int_nth_root",
    "nth_root",
    "pow",
]

PRECISION_GUARD = 8  # extra bits absorbing interval blow-up in power chains
DYADIC_DENOMINATOR_LIMIT = 1024


@dataclass(frozen=True)
class MulReal:
    """A real certified strictly greater than one.

    ``certified_above_one`` records a precision whose interval already has
    lower endpoint above 1; the certificate travels with the value.
    """

    value: PosRealValue
    certified_above_one: int

    def approx(self, p: int) -> Interval:
        return self.value.approx(p)


def into_mul(x: PosRealValue) -> MulReal:
    """Certify x > 1 or refuse.

    Walks precision 0 and then the default ladder: the first interval with
    lower endpoint above 1 certifies membership; an interval entirely at or
    below 1 refutes it; exhaustion of the ladder is an honest refusal (x may
    be 1, below 1, or undecidable at this policy).
    """
    verdict, p = certify(x, RAT_ONE, (0, *ladder()))
    if verdict is Rel.GREATER:
        return MulReal(x, p)
    if verdict is Rel.LESS or x.approx(p).hi <= RAT_ONE:
        raise NotAboveOneError("value certified not greater than one")
    raise NotAboveOneError(f"could not separate value from 1 at precision {p}")


class _MulRealModel(Model):
    """The multiplicative space as a model: combine is product."""

    def __init__(self):
        self.descriptor = ModelDescriptor(
            model_id="mul-real",
            discrete=False,
            symmetric=True,
            continuous_at_oracle=True,
            exact_order=False,
            unit=None,
            smallest=None,
        )

    def owns(self, x) -> bool:
        return isinstance(x, MulReal)

    def combine(self, a: MulReal, b: MulReal) -> MulReal:
        return mul_combine(a, b)

    def order(self, a, b) -> Ordering3:
        raise InexactModelError("multiplicative order is certified; use mul_compare")

    def certainly_greater(self, a: MulReal, b: MulReal) -> bool:
        return mul_compare(a, b) is Rel.GREATER


MUL = _MulRealModel()


def mul_combine(x: MulReal, y: MulReal) -> MulReal:
    """Product; closure certificate recomputed (x*y > y > 1)."""
    return into_mul(hom.product(x.value, y.value))


def mul_compare(x: MulReal, y: MulReal) -> Union[Rel, Overlap]:
    """Certified comparison; multiplicative order agrees with additive order."""
    return real_compare_escalating(x.value, y.value)


def mul_multiple(n: int, x: MulReal) -> MulReal:
    """x^n as the n-th multiplicative multiple, by square-and-multiply."""
    return core.multiple(n, x, MUL)


def int_nth_root(k: int, n: int) -> int:
    """Largest r with r**n <= k, by Newton's iteration from above.

    The root has at most m = ceil(bits/n) bits.  The root of k's top bits,
    found recursively for m // 2 bits and rounded up, starts the iteration
    above r and close enough that each step doubles the correct bits.
    """
    if k < 1 or n < 1:
        raise ValueError("positive arguments only")
    if n == 1 or k == 1:
        return k
    m = -(-k.bit_length() // n)  # r < 2^m
    if m == 1:
        return 1
    s = m // 2
    x = (int_nth_root(k >> (n * s), n) + 1) << s  # x^n > k
    while True:
        y = ((n - 1) * x + k // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def nth_root(x: MulReal, n: int, p: int) -> MulReal:
    """r > 1 with r^n = x, refined to precision p.

    Exact rational bases with perfect n-th power numerator and denominator
    short-circuit to the exact root.  Otherwise x's (prec + 2)-interval is
    scaled by 2^(n(prec + 2)) and its endpoints go through integer roots.
    Since x > 1 that interval starts above 3/4, where the root map
    contracts, so the result is narrower than 2^-prec.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("root index must be an int >= 1")
    check_precision(p)
    if n == 1:
        x.value.approx(p)
        return x
    if x.value.exact is not None:
        q = x.value.exact
        root_num = int_nth_root(q.num, n)
        root_den = int_nth_root(q.den, n)
        if root_num**n == q.num and root_den**n == q.den:
            return into_mul(real_from_rat(PosRat(root_num, root_den)))

    def refine(prec: int) -> Interval:
        q = prec + 2
        iv = x.value.approx(q)
        lo = int_nth_root((iv.lo.num << (n * q)) // iv.lo.den, n)
        hi = int_nth_root(-((-(iv.hi.num << (n * q))) // iv.hi.den), n) + 1
        return Interval(PosRat(lo, 1 << q), PosRat(hi, 1 << q))

    value = PosRealValue(refine)
    value.approx(p)
    return into_mul(value)


def pow(x: MulReal, y, p: int = 30) -> MulReal:
    """x^y for y a positive rational or real; result refined to precision p.

    Integer y is a multiplicative multiple; rational y = m/n with n up to
    DYADIC_DENOMINATOR_LIMIT goes through the n-th root; anything else
    (larger denominators, genuinely real exponents) is bracketed
    monotonically between dyadic exponents k/2^t and (k+1)/2^t.
    """
    check_precision(p)
    if isinstance(y, int) and not isinstance(y, bool):
        y = PosRat(y, 1)
    if isinstance(y, PosRealValue) and y.exact is not None:
        y = y.exact
    if isinstance(y, PosRat):
        if y.den == 1:
            out = mul_multiple(y.num, x)
            out.value.approx(p)
            return out
        if y.den <= DYADIC_DENOMINATOR_LIMIT:
            root = nth_root(x, y.den, p + PRECISION_GUARD)
            out = mul_multiple(y.num, root)
            out.value.approx(p)
            return out
        y = real_from_rat(y)
    if isinstance(y, PosRealValue):
        return _pow_bracketed(x, _real_dyadic_bounds(y), p)
    raise TypeError(f"unsupported exponent type {type(y).__name__}")


def _real_dyadic_bounds(y: PosRealValue):
    def bounds(t: int):
        iv = y.approx(t)
        klo = (iv.lo.num << t) // iv.lo.den
        khi = -((-(iv.hi.num << t)) // iv.hi.den)
        return klo, khi

    return bounds


def _dyadic_pow(x: MulReal, k: int, t: int) -> MulReal:
    """x^(k/2^t) via t iterated square roots and one integer power."""
    root = x
    for _ in range(t):
        root = nth_root(root, 2, 4)
    return mul_multiple(k, root)


def _pow_bracketed(x: MulReal, bounds, p: int) -> MulReal:
    """Monotone dyadic bracketing: x > 1 makes y -> x^y increasing."""

    def refine(prec: int) -> Interval:
        t = prec + PRECISION_GUARD
        for _ in range(8):
            klo, khi = bounds(t)
            if klo < 1:
                t += 16
                continue
            low_iv = _dyadic_pow(x, klo, t).approx(prec + 2)
            if khi == klo:
                iv = low_iv
            else:
                high_iv = _dyadic_pow(x, khi, t).approx(prec + 2)
                iv = Interval(low_iv.lo, high_iv.hi)
            if iv.width_at_most(prec):
                return iv
            t += 16
        raise OracleFailureError(
            f"power bracketing did not reach width 2^-{prec} in budget"
        )

    value = PosRealValue(refine)
    value.approx(p)
    return into_mul(value)
