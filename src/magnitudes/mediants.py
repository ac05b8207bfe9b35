"""Fraction search by continued fractions.

* :func:`simplest_in` finds the smallest-denominator fraction inside a
  rational interval.  It is the Stern-Brocot walk with runs of same-direction
  mediant steps collapsed into one continued-fraction term, so the cost is
  proportional to the answer's continued-fraction length, not its size.
  ``ratio.ratio_compare`` takes every separating witness from it.

* :func:`ratio_as_fraction` recovers the exact value of a ratio x : y in an
  exact model using only the model's own toolkit (combine, order, integral
  multiples).  It is the alternating-subtraction descent: repeatedly split
  off the integer part of x/y and flip.  For commensurable elements (always,
  in the shipped exact models) the remainder vanishes and the accumulated
  continued fraction is the exact ratio value.  The law
  ``fourth-proportional-unique`` checks the closed-form
  ``embed.fourth_proportional`` against it.
"""

from __future__ import annotations

from typing import Tuple

from . import core
from .errors import InexactModelError
from .models import Model, PosRat


def simplest_in(
    lo: PosRat,
    hi: PosRat,
    include_lo: bool = True,
    include_hi: bool = False,
) -> PosRat:
    """Smallest-denominator fraction in the interval from lo to hi.

    Endpoint inclusion is controlled by the flags; the interval must be
    nonempty (lo < hi, or lo = hi with both endpoints included).
    """
    if lo > hi or (lo == hi and not (include_lo and include_hi)):
        raise ValueError("empty interval")
    n, d = _simplest(lo.num, lo.den, hi.num, hi.den, include_lo, include_hi)
    return PosRat(n, d)


def _simplest(ln: int, ld: int, hn: int, hd: int, lo_in: bool, hi_in: bool) -> Tuple[int, int]:
    # smallest admissible integer at or above ln/ld
    floor_lo, rem = divmod(ln, ld)
    cand = floor_lo if (lo_in and rem == 0) else floor_lo + 1
    against_hi = cand * hd - hn
    if against_hi < 0 or (against_hi == 0 and hi_in):
        return cand, 1
    # no integer fits: every admissible fraction is floor_lo + 1/y with y in
    # the reciprocal interval, endpoint roles and inclusion flags swapped
    rn, rd = ln - floor_lo * ld, ld  # lo - floor_lo  (zero when lo integral)
    sn, sd = hn - floor_lo * hd, hd  # hi - floor_lo  (> 0: interval nonempty)
    if rn == 0:
        # y is only bounded below: pick its smallest admissible integer
        g, grem = divmod(sd, sn)
        yn = g if (hi_in and grem == 0) else g + 1
        yd = 1
    else:
        yn, yd = _simplest(sd, sn, rd, rn, hi_in, lo_in)
    return floor_lo * yn + yd, yn


def ratio_as_fraction(antecedent, consequent, model: Model) -> PosRat:
    """Exact value of antecedent : consequent, via alternating subtraction.

    Only defined on exact-order models; each round peels the integer part
    of the running ratio with a multiple search and continues on the
    remainder, accumulating continued-fraction convergents.
    """
    if not model.descriptor.exact_order:
        raise InexactModelError("ratio descent needs an exact-order model")
    # convergent recurrence p_k = a_k p_{k-1} + p_{k-2}, seeded at k = -2, -1
    p_prev, q_prev = 0, 1
    p_curr, q_curr = 1, 0
    x, y = antecedent, consequent
    while True:
        outcome = model.order(x, y)
        if outcome.is_equal:
            term = 1
            remainder = None
        elif outcome.is_less:
            term = 0
            remainder = x
        else:
            exceed = core.find_multiple_exceeding(y, x, model)
            term = exceed - 1
            stepped = core.multiple(term, y, model) if term > 1 else y
            diff = model.order(x, stepped)
            remainder = diff.gap if diff.is_greater else None
            if diff.is_less:  # cannot happen: term * y <= x by construction
                raise AssertionError("multiple search overshot the ratio descent")
        p_prev, p_curr = p_curr, term * p_curr + p_prev
        q_prev, q_curr = q_curr, term * q_curr + q_prev
        if remainder is None:
            return PosRat(p_curr, q_curr)
        x, y = y, remainder
