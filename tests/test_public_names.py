"""The public surface of ``magnitudes``, pinned so that each addition or
deletion is a deliberate edit here."""

import types

import magnitudes
from magnitudes import core, embed, hom, models, ratio

PUBLIC = [
    "Anchor",
    "ApproxPolicy",
    "ComposeOf",
    "DiscreteModelError",
    "EmbeddingRepr",
    "IdentityRepr",
    "InexactModelError",
    "Interval",
    "MagnitudeError",
    "ModelDescriptor",
    "ModelMismatchError",
    "MulReal",
    "NAT",
    "NoUnitError",
    "NotAboveOneError",
    "NotGreaterError",
    "NotSymmetricError",
    "OracleFailureError",
    "Ordering3",
    "Overlap",
    "ParseError",
    "PosRat",
    "PosRealValue",
    "RAT",
    "REAL",
    "RatioRel",
    "Rel",
    "SumOf",
    "UndecidedError",
    "UnitMultiple",
    "UnsupportedCodomainError",
    "Witness",
    "anchor_embedding",
    "check_homomorphism",
    "combine",
    "compare",
    "embedding_from_json",
    "embedding_to_json",
    "embeddings_compare",
    "evaluate",
    "find_multiple_exceeding",
    "fourth_proportional",
    "have_ratio_witness",
    "hom_add",
    "hom_compare",
    "hom_compose",
    "int_nth_root",
    "into_mul",
    "model_by_id",
    "model_of",
    "mul_combine",
    "mul_multiple",
    "multiple",
    "multiple_naive",
    "nat_embedding",
    "nth_root",
    "pow",
    "product",
    "psi",
    "quotient",
    "ratio_compare",
    "real_add",
    "real_compare",
    "real_from_rat",
    "real_mul",
    "real_scale",
    "shrink_below",
    "subtract",
    "verify_witness",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(magnitudes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


def test_aliases_of_other_calls_are_gone():
    # each restated a public call: parse_element(NAT, ...), PosRat,
    # Model.ratio_pair, multiple_naive and IdentityRepr
    for module, name in (
        (models, "nat_make"),
        (models, "rat_make"),
        (ratio, "Ratio"),
        (ratio, "make_ratio"),
        (ratio, "ratio_value_exact"),
        (embed, "evaluate_naive"),
        (hom, "identity_endo"),
        (core.Ordering3, "swapped"),
    ):
        assert not hasattr(module, name), name
