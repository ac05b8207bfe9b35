"""The magnitude space of embeddings, and the operators it induces.

Same-signature embeddings form a magnitude space of their own under
pointwise sum: comparison at any single probe decides the global order, and
a strict inequality yields a difference embedding reconstructing the larger
side.  Endomorphisms additionally compose, and composition is commutative,
associative, distributes over sum, and preserves order.

An element of that space is the reified map itself, an
:class:`~magnitudes.embed.EmbeddingRepr`, called at a domain element to
evaluate it.  Sums and composites are ``SumOf`` and ``ComposeOf`` nodes
over their operands, and ``psi`` builds a ``UnitMultiple`` or an
``Anchor``, so every result serializes by ``embedding_to_json``.

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

from .core import Ordering3
from .errors import ModelMismatchError, NoUnitError, NotSymmetricError
from .embed import (
    ApproxPolicy,
    ComposeOf,
    EmbeddingRepr,
    IdentityRepr,
    SumOf,
    _same_signature,
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
    "identity_endo",
    "hom_add",
    "hom_compose",
    "hom_compare",
    "psi",
    "product",
    "quotient",
]


def identity_endo(model: Model) -> IdentityRepr:
    return IdentityRepr(model)


def hom_add(phi: EmbeddingRepr, chi: EmbeddingRepr) -> SumOf:
    """Pointwise sum; the sum of two embeddings is again an embedding."""
    _same_signature(phi, chi)
    return SumOf(phi, chi)


def hom_compose(phi: EmbeddingRepr, chi: EmbeddingRepr) -> ComposeOf:
    """phi after chi."""
    if chi.codomain is not phi.domain:
        raise ModelMismatchError("composition signatures do not chain")
    return ComposeOf(outer=phi, inner=chi)


def _canonical_probe(model: Model):
    probe = model.descriptor.unit
    if probe is None:
        probe = model.descriptor.smallest
    if probe is None:
        raise NoUnitError(f"model {model!r} has no canonical probe")
    return probe


def hom_compare(phi: EmbeddingRepr, chi: EmbeddingRepr) -> Ordering3:
    """Trichotomy in the hom space, witnessed by the difference embedding.

    One probe evaluation decides (embeddings agreeing at one point agree
    everywhere), by the codomain's order, which on the real model is
    certified and refuses rather than answer EQUAL.  On strict inequality
    the witness is psi of the gap between the two images of the unit: the
    embedding delta with delta(b) = larger(b) - smaller(b) for every b.
    """
    _same_signature(phi, chi)
    probe = _canonical_probe(phi.domain)
    outcome = phi.codomain.order(phi(probe), chi(probe))
    if outcome.is_equal:
        return outcome
    return Ordering3(outcome.tag, psi(phi.domain, outcome.gap))


def psi(model: Model, a_prime) -> EmbeddingRepr:
    """The unique embedding of `model` sending its unit to a_prime.

    This map is an isomorphism from the codomain onto the hom space: it is
    additive, order-preserving, and every embedding out of `model` arises
    as psi of its value at the unit.  The result is the reified map, a
    ``UnitMultiple`` out of the naturals and an ``Anchor`` otherwise.
    """
    unit = model.descriptor.unit
    if unit is None:
        raise NoUnitError(f"model {model!r} has no designated unit")
    if model is NAT:
        return nat_embedding(a_prime)
    return anchor_embedding(unit, a_prime)


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
    return evaluate(psi(model, b), a)


def quotient(b, a, policy: Optional[ApproxPolicy] = None):
    """The unique d with product(d, a) = b.  Symmetric models with a unit only.

    policy is accepted and unread: a rat quotient is exact, and a real one
    is a node that refines when it is read.
    """
    model = model_of(b)
    model.check(a)
    if model is RAT:
        return b / a
    if model is REAL:
        return real_div(b, a)
    if not model.descriptor.symmetric:
        raise NotSymmetricError(f"model '{model.descriptor.model_id}' has no quotients")
    raise NoUnitError(f"model {model!r} has no designated unit")
