"""The magnitude space of embeddings, and the operators it induces.

Same-signature embeddings form a magnitude space of their own under
pointwise sum: comparison at any single probe decides the global order, and
a strict inequality yields a difference embedding reconstructing the larger
side.  Endomorphisms additionally compose, and composition is commutative,
associative, distributes over sum, and preserves order.

When the domain carries a designated unit, the map sending a' to the unique
embedding with unit -> a' is an isomorphism onto the embedding space; it
induces the product a * b = (embedding for b)(a) and, in symmetric models,
the quotient b / a.  On naturals and rationals the product evaluates that
embedding, which collapses to fraction arithmetic.  On reals the embedding
would end in a monomial node of :mod:`magnitudes.models`, so ``product``
and ``quotient`` build ``real_mul`` and ``real_div`` directly, and nested
products and quotients refine as one node.
"""

from __future__ import annotations

from typing import Optional

from .core import Ordering3, Record
from .errors import ModelMismatchError, NoUnitError, NotSymmetricError
from .embed import (
    ApproxPolicy,
    ComposeOf,
    EmbeddingRepr,
    IdentityRepr,
    SumOf,
    anchor_embedding,
    evaluate,
    nat_embedding,
)
from .models import (
    NAT,
    RAT,
    REAL,
    Model,
    model_of,
    real_div,
    real_mul,
)

__all__ = [
    "HomElement",
    "EndoElement",
    "identity_endo",
    "hom",
    "hom_add",
    "hom_compose",
    "hom_compare",
    "psi",
    "product",
    "quotient",
]


class HomElement(Record):
    """An embedding as an element of its hom magnitude space."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: EmbeddingRepr):
        object.__setattr__(self, "mapping", mapping)

    @property
    def domain(self) -> Model:
        return self.mapping.domain

    @property
    def codomain(self) -> Model:
        return self.mapping.codomain

    def __call__(self, b):
        return evaluate(self.mapping, b)


class EndoElement(HomElement):
    """An embedding of a model into itself."""

    __slots__ = ()

    def __init__(self, mapping: EmbeddingRepr):
        if mapping.domain is not mapping.codomain:
            raise ModelMismatchError("endomorphisms need domain = codomain")
        super().__init__(mapping)


def hom(mapping: EmbeddingRepr) -> HomElement:
    if mapping.domain is mapping.codomain:
        return EndoElement(mapping)
    return HomElement(mapping)


def identity_endo(model: Model) -> EndoElement:
    return EndoElement(IdentityRepr(model))


def _require_same_signature(phi: HomElement, chi: HomElement):
    if phi.domain is not chi.domain or phi.codomain is not chi.codomain:
        raise ModelMismatchError("hom elements of different signatures")


def hom_add(phi: HomElement, chi: HomElement) -> HomElement:
    """Pointwise sum; the sum of two embeddings is again an embedding."""
    _require_same_signature(phi, chi)
    return hom(SumOf(phi.mapping, chi.mapping))


def hom_compose(phi: HomElement, chi: HomElement) -> HomElement:
    """phi after chi."""
    if chi.codomain is not phi.domain:
        raise ModelMismatchError("composition signatures do not chain")
    return hom(ComposeOf(outer=phi.mapping, inner=chi.mapping))


def _canonical_probe(model: Model):
    probe = model.descriptor.unit
    if probe is None:
        probe = model.descriptor.smallest
    if probe is None:
        raise NoUnitError(f"model {model!r} has no canonical probe")
    return probe


def hom_compare(phi: HomElement, chi: HomElement) -> Ordering3:
    """Trichotomy in the hom space, witnessed by the difference embedding.

    One probe evaluation decides (embeddings agreeing at one point agree
    everywhere), by the codomain's order, which on the real model is
    certified and refuses rather than answer EQUAL.  On strict inequality
    the witness delta is itself a HomElement with delta(b) = larger(b) -
    smaller(b) for every b.
    """
    _require_same_signature(phi, chi)
    probe = _canonical_probe(phi.domain)
    outcome = phi.codomain.order(phi(probe), chi(probe))
    if outcome.is_equal:
        return outcome
    return Ordering3(outcome.tag, psi(phi.domain, outcome.gap))


def psi(model: Model, a_prime) -> HomElement:
    """The unique embedding of `model` sending its unit to a_prime.

    This map is an isomorphism from the codomain onto the hom space: it is
    additive, order-preserving, and every embedding out of `model` arises
    as psi of its value at the unit.
    """
    unit = model.descriptor.unit
    if unit is None:
        raise NoUnitError(f"model {model!r} has no designated unit")
    if model is NAT:
        return hom(nat_embedding(a_prime))
    return hom(anchor_embedding(unit, a_prime))


def product(a, b, policy: Optional[ApproxPolicy] = None):
    """a * b on a unit-bearing model: apply the embedding for b to a.

    On nat and rat the embedding psi(b) is built and evaluated at a, which
    is exact fraction arithmetic and the executable definition the laws
    check.  On the real model that evaluation ends in the monomial node
    ``real_mul(a, b)``, so the node is built directly, as ``quotient``
    builds ``real_div``.  policy is accepted and unread: a nat or rat
    product is exact, and a real one refines when it is read.
    """
    model = model_of(a)
    model.check(b)
    if model is REAL:
        return real_mul(a, b)
    return evaluate(psi(model, b).mapping, a)


def quotient(b, a, policy: Optional[ApproxPolicy] = None):
    """The unique d with product(d, a) = b.  Symmetric models only.

    policy is accepted and unread: a rat quotient is exact, and a real one
    is a node that refines when it is read.
    """
    model = model_of(b)
    model.check(a)
    if not model.descriptor.symmetric:
        raise NotSymmetricError(
            f"model '{model.descriptor.model_id}' has no quotients"
        )
    return b / a if model is RAT else real_div(b, a)
