"""Embeddings between magnitude models, reified as data.

An embedding is an order-preserving additive map.  Rather than opaque
callables, embeddings are represented as small trees (unit-multiple maps
out of the naturals, anchored maps defined through fourth proportionals,
identity, pointwise sums, and compositions) with one pure evaluator.
Reification is what makes embeddings comparable, serializable, and usable
as elements of their own magnitude space (see :mod:`magnitudes.hom`).

The central construction is :func:`fourth_proportional`: given a, b in an
exact model and a' in the real model, produce b' with a : b = a' : b'.  The
ratio b : a is the exact model's integer pair in closed form
(``Model.ratio_pair``), and a' is scaled by it at whatever precision the
caller's oracle queries demand.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from . import core
from .core import Record, Rel, check_precision
from .errors import (
    ModelMismatchError,
    ParseError,
    UnsupportedCodomainError,
)
from .models import (
    NAT,
    REAL,
    Model,
    PosRat,
    PosRealValue,
    model_by_id,
    model_of,
    real_mul,
    real_scale,
)

__all__ = [
    "ApproxPolicy",
    "EmbeddingRepr",
    "UnitMultiple",
    "Anchor",
    "IdentityRepr",
    "SumOf",
    "ComposeOf",
    "nat_embedding",
    "anchor_embedding",
    "evaluate",
    "fourth_proportional",
    "check_homomorphism",
    "HomCheckReport",
    "embeddings_compare",
    "embedding_to_json",
    "embedding_from_json",
]


class ApproxPolicy(Record):
    """A target precision, accepted and unread by ``hom.product`` and ``hom.quotient``."""

    __slots__ = ("precision",)

    def __init__(self, precision: int = 30):
        if precision < 0:
            raise ValueError("target precision must be >= 0")
        object.__setattr__(self, "precision", precision)


class EmbeddingRepr(Record):
    """Base class for embedding representations; each one is the map itself,
    and the element of its hom space (see :mod:`magnitudes.hom`)."""

    __slots__ = ()
    domain: Model
    codomain: Model

    def __call__(self, b):
        return evaluate(self, b)


class UnitMultiple(EmbeddingRepr):
    """n -> n * image: the unique embedding out of the naturals sending 1 to image."""

    __slots__ = ("image", "domain", "codomain")

    def __init__(self, image, domain: Model, codomain: Model):
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)


class Anchor(EmbeddingRepr):
    """b -> the fourth proportional to (anchor, b, image)."""

    __slots__ = ("anchor", "image", "domain", "codomain")

    def __init__(self, anchor, image, domain: Model, codomain: Model):
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)


class IdentityRepr(EmbeddingRepr):
    __slots__ = ("model",)

    def __init__(self, model: Model):
        object.__setattr__(self, "model", model)

    @property
    def domain(self) -> Model:
        return self.model

    @property
    def codomain(self) -> Model:
        return self.model


class SumOf(EmbeddingRepr):
    __slots__ = ("left", "right")

    def __init__(self, left: EmbeddingRepr, right: EmbeddingRepr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def domain(self) -> Model:
        return self.left.domain

    @property
    def codomain(self) -> Model:
        return self.left.codomain


class ComposeOf(EmbeddingRepr):
    __slots__ = ("outer", "inner")

    def __init__(self, outer: EmbeddingRepr, inner: EmbeddingRepr):
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    @property
    def domain(self) -> Model:
        return self.inner.domain

    @property
    def codomain(self) -> Model:
        return self.outer.codomain


def nat_embedding(a_prime) -> UnitMultiple:
    """The unique embedding of the naturals mapping 1 to a_prime."""
    return UnitMultiple(image=a_prime, domain=NAT, codomain=model_of(a_prime))


def anchor_embedding(a, a_prime) -> Anchor:
    """The unique embedding mapping a to a_prime, when one is representable.

    Supported signatures: a nat or rat domain into rat, real or the
    multiplicative space (the image scaled by b : anchor, a power on the
    last), and naturals into naturals when the anchor divides its image; a
    real domain into the reals, from an exact rational anchor.
    """
    domain = model_of(a)
    codomain = model_of(a_prime)
    if codomain is NAT and not (domain is NAT and a_prime % a == 0):
        raise UnsupportedCodomainError(
            "an embedding into the naturals needs a natural anchor dividing its image"
        )
    if domain is REAL:
        if codomain is not REAL or a.exact is None:
            raise UnsupportedCodomainError(
                "real-domain anchors must be exact rational points mapping into reals"
            )
    elif not domain.descriptor.exact_order:
        raise UnsupportedCodomainError(f"no anchored embeddings out of {domain!r}")
    return Anchor(anchor=a, image=a_prime, domain=domain, codomain=codomain)


def fourth_proportional(a, b, a_prime: PosRealValue, p: int) -> PosRealValue:
    """b' in the real model with a : b = a' : b', refined when it is read.

    a and b live in one exact model, where the ratio b : a is the fraction
    b/a in closed form; the result is a' scaled by it, the exact point when
    a' is one and otherwise an oracle honoring the width contract at every
    precision (uniqueness makes any two correct constructions agree).  p is
    checked and otherwise unread.
    """
    model = model_of(a)
    model.check(b)
    REAL.check(a_prime)
    check_precision(p)
    return real_scale(a_prime, PosRat(*model.ratio_pair(b, a)))


def evaluate(phi: EmbeddingRepr, b):
    """Apply an embedding to a domain element.

    A real result is a node that refines when it is read, to the precision
    its reader asks for; evaluation itself reads nothing.
    """
    if isinstance(phi, UnitMultiple):
        NAT.check(b)
        return core.multiple(b, phi.image, phi.codomain)
    if isinstance(phi, IdentityRepr):
        phi.model.check(b)
        return b
    if isinstance(phi, SumOf):
        return phi.codomain.combine(evaluate(phi.left, b), evaluate(phi.right, b))
    if isinstance(phi, ComposeOf):
        return evaluate(phi.outer, evaluate(phi.inner, b))
    if isinstance(phi, Anchor):
        return _evaluate_anchor(phi, b)
    raise TypeError(f"not an embedding representation: {phi!r}")


def _evaluate_anchor(phi: Anchor, b):
    domain, codomain = phi.domain, phi.codomain
    domain.check(b)
    if domain is REAL:
        # exact rational anchor: b * image / anchor
        return real_scale(real_mul(b, phi.image), phi.anchor.exact.reciprocal())
    if codomain is NAT:
        return (phi.image // phi.anchor) * b
    # the image scaled by b : anchor, exact in a nat or rat domain
    return codomain.scale(phi.image, PosRat(*domain.ratio_pair(b, phi.anchor)))


class HomCheckReport(Record):
    __slots__ = ("passed", "samples", "counterexample")

    def __init__(self, passed: bool, samples: int, counterexample: Optional[dict] = None):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "counterexample", counterexample)


def check_homomorphism(
    phi: Union[EmbeddingRepr, Callable],
    samples: int = 100,
    seed: int = 0,
    domain: Optional[Model] = None,
    codomain: Optional[Model] = None,
) -> HomCheckReport:
    """Test additivity and order preservation on random domain pairs.

    Accepts either a reified embedding or a bare callable (then domain and
    codomain must be given).  Exact codomains demand equality; the real
    codomain demands that the two sides' 30-bit intervals intersect.  Stops
    at the first counterexample.
    """
    import random

    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(phi, EmbeddingRepr):
        domain, codomain = phi.domain, phi.codomain
    elif domain is None or codomain is None:
        raise ValueError("callable maps need explicit domain and codomain models")

    rng = random.Random(seed)
    exact = codomain.descriptor.exact_order
    for _ in range(samples):
        b = domain.random_element(rng)
        c = domain.random_element(rng)
        lhs = phi(domain.combine(b, c))
        rhs = codomain.combine(phi(b), phi(c))
        if exact:
            additive = codomain.order(lhs, rhs).is_equal
        else:
            additive = lhs.approx(30).intersects(rhs.approx(30))
        if not additive:
            kind = "additivity"
        elif exact and domain.descriptor.exact_order and (
            domain.order(b, c).tag is not codomain.order(phi(b), phi(c)).tag
        ):
            kind = "order"
        else:
            continue
        # the canonical text form, which parse_element reads back
        b, c = _element_to_text(b, domain), _element_to_text(c, domain)
        return HomCheckReport(False, samples, {"kind": kind, "b": b, "c": c})
    return HomCheckReport(True, samples, None)


def embeddings_compare(phi: EmbeddingRepr, chi: EmbeddingRepr, probe) -> Rel:
    """Order of two same-signature embeddings, decided at one probe.

    Any probe decides the global relation (two embeddings agreeing anywhere
    agree everywhere); probe independence is a tested law, not an
    assumption.  The real model's order is certified and refuses while the
    images still overlap (see ``RealModel.order``).
    """
    _same_signature(phi, chi)
    return phi.codomain.order(evaluate(phi, probe), evaluate(chi, probe)).tag


def _same_signature(phi: EmbeddingRepr, chi: EmbeddingRepr) -> None:
    if phi.domain is not chi.domain or phi.codomain is not chi.codomain:
        raise ModelMismatchError("embeddings of different signatures")


# ---------------------------------------------------------------------------
# JSON form: a small tree of variant tags and operands.


def _element_to_text(x, model: Model) -> str:
    if model is REAL:
        if x.exact is None:
            raise ValueError("only exact rational points serialize")
        return str(x.exact)
    if not model.descriptor.exact_order:
        raise ModelMismatchError(f"cannot serialize elements of {model!r}")
    return str(x)


def embedding_to_json(phi: EmbeddingRepr) -> dict:
    if isinstance(phi, UnitMultiple):
        return {
            "kind": "unit-multiple",
            "codomain": phi.codomain.descriptor.model_id,
            "image": _element_to_text(phi.image, phi.codomain),
        }
    if isinstance(phi, Anchor):
        return {
            "kind": "anchor",
            "domain": phi.domain.descriptor.model_id,
            "codomain": phi.codomain.descriptor.model_id,
            "anchor": _element_to_text(phi.anchor, phi.domain),
            "image": _element_to_text(phi.image, phi.codomain),
        }
    if isinstance(phi, IdentityRepr):
        return {"kind": "identity", "model": phi.model.descriptor.model_id}
    if isinstance(phi, SumOf):
        return {
            "kind": "sum",
            "left": embedding_to_json(phi.left),
            "right": embedding_to_json(phi.right),
        }
    if isinstance(phi, ComposeOf):
        return {
            "kind": "compose",
            "outer": embedding_to_json(phi.outer),
            "inner": embedding_to_json(phi.inner),
        }
    raise TypeError(f"not an embedding representation: {phi!r}")


def embedding_from_json(data: dict) -> EmbeddingRepr:
    from .models import parse_element

    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("embedding JSON needs a 'kind' tag")
    kind = data["kind"]
    try:
        if kind == "unit-multiple":
            codomain = model_by_id(data["codomain"])
            return nat_embedding(parse_element(codomain, data["image"]))
        if kind == "anchor":
            domain = model_by_id(data["domain"])
            codomain = model_by_id(data["codomain"])
            return anchor_embedding(
                parse_element(domain, data["anchor"]),
                parse_element(codomain, data["image"]),
            )
        if kind == "identity":
            return IdentityRepr(model_by_id(data["model"]))
        if kind == "sum":
            left = embedding_from_json(data["left"])
            right = embedding_from_json(data["right"])
            if left.domain is not right.domain or left.codomain is not right.codomain:
                raise ParseError("sum parts must share one signature")
            return SumOf(left, right)
        if kind == "compose":
            outer = embedding_from_json(data["outer"])
            inner = embedding_from_json(data["inner"])
            if inner.codomain is not outer.domain:
                raise ParseError("composition signatures do not chain")
            return ComposeOf(outer, inner)
    except KeyError as missing:
        raise ParseError(f"embedding JSON missing field {missing}") from None
    raise ParseError(f"unknown embedding kind {kind!r}")
