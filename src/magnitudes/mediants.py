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
    """(num, den) in lowest terms of the simplest fraction from ln/ld to hn/hd.

    Each pass peels one continued-fraction term: when no integer fits the
    interval, every admissible fraction is floor_lo + 1/y with y in the
    reciprocal interval, endpoint roles and inclusion flags swapped.  The
    terms fold into the convergent recurrence as they are found, so the
    walk is a loop, whatever the length of the answer's continued fraction.
    """
    # convergents p/q of the terms so far, seeded at k = -2, -1
    p_prev, q_prev, p, q = 0, 1, 1, 0
    while True:
        floor_lo, rem = divmod(ln, ld)
        sn = hn - floor_lo * hd  # hi - floor_lo, over hd
        if rem == 0 and lo_in:  # lo, an integer, is admissible
            return floor_lo * p + p_prev, floor_lo * q + q_prev
        if sn > hd or (sn == hd and hi_in):  # floor_lo + 1, at or below hi, is admissible
            floor_lo += 1
            return floor_lo * p + p_prev, floor_lo * q + q_prev
        p_prev, p = p, floor_lo * p + p_prev
        q_prev, q = q, floor_lo * q + q_prev
        if rem == 0:
            # lo is integral, so y is only bounded below: take its smallest
            # admissible integer
            g, grem = divmod(hd, sn)
            last = g if (hi_in and grem == 0) else g + 1
            return last * p + p_prev, last * q + q_prev
        # y lies from hd/sn to ld/rem, the reciprocals of hi and lo - floor_lo
        ln, ld, hn, hd, lo_in, hi_in = hd, sn, ld, rem, hi_in, lo_in


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
