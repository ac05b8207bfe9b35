"""Exact arithmetic on ordered magnitude spaces.

Three concrete models (naturals, positive rationals, and computable
positive reals as interval-refinement oracles) share one generic core:
trichotomous comparison carrying its difference witness, partial
subtraction, integral multiples and Archimedean multiple searches (one
floor(b/a) + 1 formula, exact on points, from enclosures on reals).  On top
of the core sit the classical ratio engine (exact decisions on exact
points, certified witness search elsewhere), embeddings with fourth
proportionals, the operator algebra of the embedding space (products,
quotients), power functions through the multiplicative space of reals
above one, and an executable law suite covering all of it.
"""

from .core import (
    ModelDescriptor,
    Ordering3,
    Rel,
    combine,
    compare,
    find_multiple_exceeding,
    multiple,
    multiple_naive,
    shrink_below,
    subtract,
)
from .embed import (
    Anchor,
    ApproxPolicy,
    ComposeOf,
    EmbeddingRepr,
    IdentityRepr,
    SumOf,
    UnitMultiple,
    anchor_embedding,
    check_homomorphism,
    embedding_from_json,
    embedding_to_json,
    embeddings_compare,
    evaluate,
    evaluate_naive,
    fourth_proportional,
    nat_embedding,
)
from .errors import (
    DiscreteModelError,
    InexactModelError,
    MagnitudeError,
    ModelMismatchError,
    NoUnitError,
    NotAboveOneError,
    NotGreaterError,
    NotSymmetricError,
    OracleFailureError,
    ParseError,
    UndecidedError,
    UnsupportedCodomainError,
)
from .hom import (
    hom_add,
    hom_compare,
    hom_compose,
    identity_endo,
    product,
    psi,
    quotient,
)
from .models import (
    NAT,
    RAT,
    REAL,
    Interval,
    Overlap,
    PosRat,
    PosRealValue,
    model_by_id,
    model_of,
    nat_make,
    rat_make,
    real_add,
    real_compare,
    real_from_rat,
    real_mul,
    real_scale,
)
from .power import MulReal, into_mul, int_nth_root, mul_combine, mul_multiple, nth_root, pow
from .ratio import (
    Ratio,
    RatioRel,
    Witness,
    have_ratio_witness,
    make_ratio,
    ratio_compare,
    ratio_value_exact,
    verify_witness,
)

__version__ = "0.1.0"

_LAWS_NAMES = ("LawReport", "law_sets", "list_laws", "run_suite")


def __getattr__(name):
    # The law suite loads on first use, so that importing the library or
    # running one CLI operation does not pay for it.
    if name in _LAWS_NAMES:
        from . import laws

        return getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
