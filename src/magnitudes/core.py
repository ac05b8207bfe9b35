"""Generic operations on magnitude spaces.

A magnitude space is a set with an associative, commutative combine
operation satisfying trichotomy: for any a, b exactly one of a = b + d,
a = b, b = a + d holds for some element d.  There is no zero and no
negatives; comparison is therefore inseparable from subtraction, and the
three-way result carries the difference d as a witness.

Everything here is generic over a model object (see :mod:`magnitudes.models`)
supplying the primitive combine/order operations.  Each entry point checks
every element it is given, once, by ``model.check`` (ModelMismatchError),
then any multiplier by ``check_positive_int`` (TypeError, or ValueError
below 1).  The model argument is optional; passing it skips only its
inference, by ``models.model_of``, from the element checked first.
"""

from __future__ import annotations

import enum
from typing import Any

from .errors import DiscreteModelError, NotGreaterError

NAIVE_GUARD = 1 << 16


class Rel(enum.Enum):
    """Three-way order tag."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"

    def swapped(self) -> "Rel":
        if self is Rel.LESS:
            return Rel.GREATER
        if self is Rel.GREATER:
            return Rel.LESS
        return Rel.EQUAL


class Record:
    """Immutable record with value semantics.

    A subclass lists its fields in ``__slots__``, in field order after those
    of its bases, and sets them in ``__init__`` through ``object.__setattr__``.
    Instances compare equal when they are of the same class with equal
    fields, hash their field tuple, print as ``Name(field=value, ...)``, and
    refuse assignment and deletion with AttributeError.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Ordering3(Record):
    """Trichotomy outcome for a pair (a, b), carrying the difference witness.

    ``gap`` is the element d reconstructing the larger side:
    LESS means combine(a, d) = b, GREATER means combine(b, d) = a,
    EQUAL carries no gap.
    """

    __slots__ = ("tag", "gap")

    def __init__(self, tag: Rel, gap: Any = None):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "gap", gap)

    @staticmethod
    def less_by(d) -> "Ordering3":
        return Ordering3(Rel.LESS, d)

    @staticmethod
    def equal() -> "Ordering3":
        return _ORDER_EQUAL

    @staticmethod
    def greater_by(d) -> "Ordering3":
        return Ordering3(Rel.GREATER, d)

    @property
    def is_less(self) -> bool:
        return self.tag is Rel.LESS

    @property
    def is_equal(self) -> bool:
        return self.tag is Rel.EQUAL

    @property
    def is_greater(self) -> bool:
        return self.tag is Rel.GREATER


# records are immutable, so every EQUAL outcome can be this one
_ORDER_EQUAL = Ordering3(Rel.EQUAL, None)


class ModelDescriptor(Record):
    """Static facts about a model.

    symmetric      -- every pair a, b is related by an endomorphism a -> b,
                      equivalently quotients exist
    exact_order    -- comparison decides without precision parameters
    smallest       -- the smallest element, or None
    discrete       -- has a smallest element: ``smallest is not None``
    """

    __slots__ = ("model_id", "symmetric", "exact_order", "unit", "smallest")

    def __init__(
        self, model_id: str, symmetric: bool, exact_order: bool, unit: Any = None, smallest: Any = None
    ):
        object.__setattr__(self, "model_id", model_id)
        object.__setattr__(self, "symmetric", symmetric)
        object.__setattr__(self, "exact_order", exact_order)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "smallest", smallest)

    @property
    def discrete(self) -> bool:
        return self.smallest is not None


def check_positive_int(value, what: str) -> int:
    if value.__class__ is int and value >= 1:  # the common case
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def check_precision(p) -> int:
    if isinstance(p, bool) or not isinstance(p, int) or p < 0:
        raise ValueError("precision must be an int >= 0")
    return p


def combine(a, b, model=None):
    """Sum of two elements of one model."""
    if model is None:
        model = _models.model_of(a)
    model.check(a)
    model.check(b)
    return model.combine(a, b)


def compare(a, b, model=None) -> Ordering3:
    """Trichotomous comparison with difference witness, by the model's order:
    exact on nat and rat, certified on real and never EQUAL (RealModel.order)."""
    if model is None:
        model = _models.model_of(a)
    model.check(a)
    model.check(b)
    return model.order(a, b)


def subtract(b, a, model=None):
    """The unique d with combine(a, d) = b.  Requires a < b, certified on
    reals, where sides that overlap raise UndecidedError (see ``compare``)."""
    if model is None:
        model = _models.model_of(a)
    model.check(a)
    model.check(b)
    outcome = model.order(b, a)
    if not outcome.is_greater:
        raise NotGreaterError("subtraction needs a < b; magnitudes have no zero")
    return outcome.gap


def multiple(n: int, a, model=None):
    """n-fold sum of a, by the model's ``multiple``.

    nat multiplies, rat multiplies and cancels one gcd, real builds one
    scaling node, and the multiplicative space one monomial node x^n.
    """
    if model is None:
        model = _models.model_of(a)
    model.check(a)
    if n.__class__ is not int or n < 1:
        check_positive_int(n, "multiplier")
    return model.multiple(n, a)


def multiple_naive(n: int, a, model=None):
    """n-fold sum by an addition chain over ``model.combine`` alone.
    Cross-check oracle only: it never calls the model's ``multiple``.

    The chain reads n's bits from the top: each bit after the leading one
    doubles the sum, acc + acc, and each set bit then adds a, so it takes
    at most 2*floor(log2 n) sums.  Guarded to n <= 2**16.
    """
    if model is None:
        model = _models.model_of(a)
    model.check(a)
    n = check_positive_int(n, "multiplier")
    if n > NAIVE_GUARD:
        raise ValueError(f"naive multiple guarded to n <= {NAIVE_GUARD}")
    combine = model.combine
    acc = a
    for bit in bin(n)[3:]:
        acc = combine(acc, acc)
        if bit == "1":
            acc = combine(acc, a)
    return acc


def find_multiple_exceeding(a, b, model=None) -> int:
    """Least n with multiple(n, a) > b, by the model's ``least_multiple_exceeding``.

    Exists for every pair in an Archimedean model (all shipped models are).
    nat, rat and real answer floor(b/a) + 1, exactly on points and otherwise
    from b/a enclosed on the ladder, one read per side per rung; the
    multiplicative space, whose multiples are powers, doubles then bisects.
    """
    if model is None:
        model = _models.model_of(a)
    model.check(a)
    model.check(b)
    return model.least_multiple_exceeding(a, b)


def shrink_below(a, n: int, model=None):
    """Some b with multiple(n, b) < a.  Requires a nondiscrete model.

    Returns a scaled by 1/(n+1), so n of them fall short of a by a/(n+1).
    """
    if model is None:
        model = _models.model_of(a)
    model.check(a)
    n = check_positive_int(n, "multiplier")
    if model.descriptor.discrete:
        raise DiscreteModelError(
            f"model '{model.descriptor.model_id}' has a smallest element; nothing shrinks below it"
        )
    return model.scale(a, _models.PosRat(1, n + 1))


# models imports this module, so it comes last; the entry points read it when called
from . import models as _models  # noqa: E402
