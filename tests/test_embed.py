import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitudes.core import Rel, multiple, multiple_naive
from magnitudes.embed import (
    ApproxPolicy,
    IdentityRepr,
    SumOf,
    anchor_embedding,
    check_homomorphism,
    embedding_from_json,
    embedding_to_json,
    embeddings_compare,
    evaluate,
    fourth_proportional,
    nat_embedding,
)
from magnitudes.errors import (
    InexactModelError,
    ModelMismatchError,
    ParseError,
    UndecidedError,
    UnsupportedCodomainError,
)
from magnitudes.hom import quotient
from magnitudes.models import (
    NAT,
    RAT,
    REAL,
    PosRat,
    parse_element,
    real_add,
    real_from_rat,
    real_scale,
)

from conftest import isqrt_real, recorded

rationals = st.builds(PosRat, st.integers(1, 1 << 12), st.integers(1, 1 << 12))


class TestUnitMultiple:
    def test_eval_examples(self):
        phi = nat_embedding(PosRat(2, 5))
        assert evaluate(phi, 3) == PosRat(6, 5)
        assert evaluate(phi, 1) == PosRat(2, 5)
        assert evaluate(nat_embedding(PosRat(3, 4)), 5) == PosRat(15, 4)

    def test_sum_splits_additively(self):
        phi = SumOf(nat_embedding(2), nat_embedding(3))
        assert evaluate(phi, 1) == 5

    def test_identity_instance(self):
        phi = nat_embedding(1)
        for n in (1, 7, 1 << 20):
            assert evaluate(phi, n) == n

    # the naive oracle of a unit-multiple map n -> n*image is the addition
    # chain multiple_naive(n, image, codomain)
    def test_naive_oracle(self):
        phi = nat_embedding(PosRat(2, 7))
        assert multiple_naive(13, phi.image, phi.codomain) == PosRat(26, 7)
        assert multiple_naive(1, phi.image, phi.codomain) == PosRat(2, 7)
        assert multiple_naive(2, 5, NAT) == 10

    def test_naive_guard(self):
        phi = nat_embedding(1)
        assert multiple_naive(1 << 16, phi.image, phi.codomain) == evaluate(phi, 1 << 16)
        with pytest.raises(ValueError):
            multiple_naive((1 << 16) + 1, phi.image, phi.codomain)

    @settings(max_examples=40)
    @given(rationals, st.integers(1, 1 << 10))
    def test_fast_equals_naive(self, image, n):
        phi = nat_embedding(image)
        assert evaluate(phi, n) == multiple_naive(n, image, phi.codomain)


class TestAnchor:
    def test_rat_to_rat_scaling(self):
        phi = anchor_embedding(PosRat(2, 3), PosRat(1, 2))
        assert evaluate(phi, PosRat(4, 3)) == PosRat(1, 1)
        assert evaluate(phi, PosRat(2, 3)) == PosRat(1, 2)

    def test_rat_to_real(self, sqrt2):
        phi = anchor_embedding(PosRat(1, 1), sqrt2)
        out = evaluate(phi, PosRat(2, 1))
        eight = isqrt_real(8)
        assert out.approx(20).intersects(eight.approx(20))

    def test_rat_to_real_reads_on_demand(self):
        seen = []
        out = evaluate(anchor_embedding(PosRat(1), recorded(2, seen)), PosRat(2))
        assert seen == []
        assert out.approx(100).intersects(isqrt_real(8).approx(100))
        # one read, near the reader's 100 bits: no policy precision first
        assert seen == [103]

    def test_nat_codomain_divisibility(self):
        phi = anchor_embedding(2, 6)
        assert evaluate(phi, 5) == 15
        with pytest.raises(UnsupportedCodomainError):
            anchor_embedding(2, 7)
        with pytest.raises(UnsupportedCodomainError):
            anchor_embedding(PosRat(1, 2), 3)

    def test_real_domain_needs_exact_anchor(self, sqrt2):
        with pytest.raises(UnsupportedCodomainError):
            anchor_embedding(sqrt2, sqrt2)
        phi = anchor_embedding(real_from_rat(PosRat(1, 1)), sqrt2)
        out = evaluate(phi, real_from_rat(PosRat(2, 1)))
        assert out.approx(20).intersects(isqrt_real(8).approx(20))


class TestFourthProportional:
    def test_builds_read_no_leaf(self):
        seen = []
        a, b = recorded(2, seen), recorded(3, seen)
        # (sqrt2 / sqrt3) * 3/2 / sqrt3 = sqrt2 / 2
        inner = fourth_proportional(PosRat(2), PosRat(3), quotient(a, b, ApproxPolicy(300)), 300)
        out = quotient(inner, b)
        assert seen == []
        iv = out.approx(40)
        assert seen  # the first read does all the reads
        assert iv.width_at_most(40) and iv.lo**2 < PosRat(1, 2) < iv.hi**2

    def test_doubling_instance(self, sqrt2):
        out = fourth_proportional(PosRat(1, 1), PosRat(2, 1), sqrt2, 20)
        assert out.approx(20).intersects(isqrt_real(8).approx(20))

    def test_exact_instance(self):
        out = fourth_proportional(PosRat(2, 1), PosRat(3, 1), real_from_rat(PosRat(1, 1)), 30)
        iv = out.approx(30)
        assert iv.contains(PosRat(3, 2)) and iv.width_at_most(30)

    def test_degenerate_equal_terms(self, sqrt2):
        out = fourth_proportional(PosRat(5, 7), PosRat(5, 7), sqrt2, 10)
        assert out is sqrt2

    def test_uniqueness_runs_intersect(self):
        a, b, c = PosRat(3, 7), PosRat(22, 5), PosRat(9, 4)
        first = fourth_proportional(a, b, real_from_rat(c), 30)
        second = fourth_proportional(a, b, real_from_rat(c), 35)
        assert first.approx(30).intersects(second.approx(35))

    @settings(max_examples=60)
    @given(rationals, rationals, rationals)
    def test_against_exact_division(self, a, b, c):
        out = fourth_proportional(a, b, real_from_rat(c), 40)
        iv = out.approx(40)
        assert iv.contains(c * (b / a))
        assert iv.width_at_most(40)

    def test_nat_domain(self):
        out = fourth_proportional(2, 3, real_from_rat(PosRat(1, 1)), 30)
        assert out.approx(30).contains(PosRat(3, 2))

    def test_precision_validation(self):
        with pytest.raises(ValueError):
            fourth_proportional(1, 2, real_from_rat(PosRat(1, 1)), -1)

    def test_inexact_terms_refused(self, sqrt2):
        one = real_from_rat(PosRat(1, 1))
        with pytest.raises(InexactModelError):
            fourth_proportional(sqrt2, one, one, 20)
        with pytest.raises(InexactModelError):
            fourth_proportional(one, real_from_rat(PosRat(2, 1)), one, 20)

    def test_nat_terms_scale_by_reduced_fraction(self):
        out = fourth_proportional(6, 4, real_from_rat(PosRat(9, 1)), 10)
        assert out.exact == PosRat(6, 1)


class TestCheckHomomorphism:
    def test_unit_multiple_passes(self):
        report = check_homomorphism(nat_embedding(PosRat(2, 5)), samples=100, seed=0)
        assert report.passed and report.counterexample is None

    def test_adversarial_shift_fails(self):
        report = check_homomorphism(
            lambda x: x + PosRat(1, 1), samples=100, seed=0, domain=RAT, codomain=RAT
        )
        assert not report.passed
        assert report.counterexample["kind"] == "additivity"

    def test_sum_of_embeddings_passes(self):
        phi = SumOf(nat_embedding(PosRat(2, 1)), nat_embedding(PosRat(3, 1)))
        report = check_homomorphism(phi, samples=100, seed=1)
        assert report.passed

    def test_real_codomain_scaling_passes(self):
        report = check_homomorphism(
            lambda b: real_scale(b, PosRat(3, 1)), samples=50, seed=0, domain=REAL, codomain=REAL
        )
        assert report.passed and report.counterexample is None

    def test_real_codomain_shift_fails(self):
        one = real_from_rat(PosRat(1, 1))
        report = check_homomorphism(
            lambda b: real_add(b, one), samples=50, seed=0, domain=REAL, codomain=REAL
        )
        assert not report.passed
        assert report.counterexample["kind"] == "additivity"

    def test_real_counterexample_parses_back(self):
        one = real_from_rat(PosRat(1, 1))
        report = check_homomorphism(
            lambda b: real_add(b, one), samples=50, seed=0, domain=REAL, codomain=REAL
        )
        for key in ("b", "c"):
            text = report.counterexample[key]
            assert "PosRealValue" not in text
            assert parse_element(REAL, text).exact == parse_element(RAT, text)

    def test_callable_requires_models(self):
        with pytest.raises(ValueError):
            check_homomorphism(lambda x: x, samples=10)


class TestEmbeddingsCompare:
    def test_order(self):
        assert embeddings_compare(nat_embedding(2), nat_embedding(3), 1) is Rel.LESS

    def test_uniqueness_of_anchored_map(self):
        phi = nat_embedding(PosRat(2, 5))
        chi = anchor_embedding(1, PosRat(2, 5))
        for probe in (1, 7, 13):
            assert embeddings_compare(phi, chi, probe) is Rel.EQUAL

    @given(rationals, rationals, st.integers(1, 500), st.integers(1, 500))
    def test_probe_independent(self, im1, im2, p1, p2):
        phi, chi = nat_embedding(im1), nat_embedding(im2)
        assert embeddings_compare(phi, chi, p1) is embeddings_compare(phi, chi, p2)

    def test_signature_mismatch(self):
        with pytest.raises(ModelMismatchError):
            embeddings_compare(nat_embedding(2), nat_embedding(PosRat(1, 2)), 1)

    def test_real_codomain_certifies(self):
        phi, chi = nat_embedding(isqrt_real(2)), nat_embedding(real_from_rat(PosRat(3, 2)))
        assert embeddings_compare(phi, chi, 5) is Rel.LESS
        assert embeddings_compare(chi, phi, 5) is Rel.GREATER

    def test_real_codomain_equal_images_undecided(self):
        image = isqrt_real(2)
        with pytest.raises(UndecidedError, match="real comparison overlapped through precision 256"):
            embeddings_compare(nat_embedding(image), nat_embedding(image), 3)

    @given(rationals, st.integers(1, 256), st.integers(1, 256))
    def test_multiple_commutes(self, image, n, a):
        chi = nat_embedding(image)
        assert evaluate(chi, multiple(n, a)) == multiple(n, evaluate(chi, a))


class TestJsonForm:
    def test_round_trip_idempotent(self):
        tree = SumOf(
            nat_embedding(PosRat(2, 5)),
            nat_embedding(PosRat(1, 3)),
        )
        blob = embedding_to_json(tree)
        assert embedding_to_json(embedding_from_json(blob)) == blob
        text = json.dumps(blob, sort_keys=True)
        again = json.dumps(embedding_to_json(embedding_from_json(json.loads(text))), sort_keys=True)
        assert text == again

    def test_anchor_and_identity(self):
        tree = anchor_embedding(PosRat(2, 3), PosRat(1, 2))
        blob = embedding_to_json(tree)
        assert embedding_from_json(blob) == tree
        ident = IdentityRepr(NAT)
        assert embedding_from_json(embedding_to_json(ident)) == ident

    def test_real_point_serializes(self):
        tree = anchor_embedding(PosRat(1, 1), real_from_rat(PosRat(3, 2)))
        blob = embedding_to_json(tree)
        rebuilt = embedding_from_json(blob)
        assert embedding_to_json(rebuilt) == blob

    def test_oracle_real_refuses_serialization(self, sqrt2):
        tree = anchor_embedding(PosRat(1, 1), sqrt2)
        with pytest.raises(ValueError):
            embedding_to_json(tree)

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "nope"},
            {"kind": "sum", "left": {"kind": "identity", "model": "nat"},
             "right": {"kind": "identity", "model": "rat"}},
            {"kind": "compose", "outer": {"kind": "identity", "model": "nat"},
             "inner": {"kind": "identity", "model": "rat"}},
            {"no": "kind"},
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            embedding_from_json(bad)
