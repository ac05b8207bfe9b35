"""The ``embeddings`` law set: embedding laws."""

from __future__ import annotations

from .. import core, embed, mediants
from ..core import Rel
from ..models import NAT, PosRat, real_from_rat, real_scale
from . import _elems, _elems_mults, _expect, _law, _mul, _same, _same_tag


def _gen_unit_embedding(model, rng):
    return {"image": model.random_element(rng), "n": rng.getrandbits(10) + 1}


@_law(
    "embedding-fast-matches-naive",
    "evaluating n -> n*image by doubling equals the literal recursion",
    ("nat", "rat"),
    _gen_unit_embedding,
)
def _embed_fast_naive(model, v, tol):
    phi = embed.nat_embedding(v["image"])
    _same(model, embed.evaluate(phi, v["n"]), embed.evaluate_naive(phi, v["n"]), tol)


@_law(
    "embedding-additive",
    "phi(b + c) = phi(b) + phi(c) for constructed embeddings",
    ("rat",),
    _elems("image", "b", "c"),
)
def _embed_additive(model, v, tol):
    phi = embed.anchor_embedding(PosRat(1, 1), v["image"])
    lhs = embed.evaluate(phi, model.combine(v["b"], v["c"]))
    rhs = model.combine(embed.evaluate(phi, v["b"]), embed.evaluate(phi, v["c"]))
    _same(model, lhs, rhs, tol)


@_law(
    "embedding-multiple-commutes",
    "phi(n*a) = n*phi(a)",
    ("nat", "rat"),
    _elems_mults(("image", "a"), ("n",), bound=256),
)
def _embed_multiple_commutes(model, v, tol):
    if model is NAT:
        phi = embed.nat_embedding(v["image"])
        lhs = embed.evaluate(phi, core.multiple(v["n"], v["a"], model))
        rhs = core.multiple(v["n"], embed.evaluate(phi, v["a"]), model)
    else:
        phi = embed.anchor_embedding(PosRat(1, 1), v["image"])
        lhs = embed.evaluate(phi, _mul(model, v["n"], v["a"]))
        rhs = _mul(model, v["n"], embed.evaluate(phi, v["a"]))
    _same(model, lhs, rhs, tol)


@_law(
    "embedding-unique-at-anchor",
    "the unit-multiple map and the anchored map with the same unit image agree",
    ("rat",),
    _elems_mults(("image",), ("p1", "p2", "p3"), bound=512),
)
def _embed_unique(model, v, tol):
    phi = embed.nat_embedding(v["image"])
    chi = embed.anchor_embedding(1, v["image"])
    for probe in (v["p1"], v["p2"], v["p3"]):
        got = embed.embeddings_compare(phi, chi, probe)
        _same_tag(got, Rel.EQUAL)


@_law(
    "embedding-probe-independent",
    "comparing two embeddings gives one answer at every probe",
    ("rat",),
    _elems_mults(("im1", "im2"), ("p1", "p2", "p3"), bound=512),
)
def _probe_independent(model, v, tol):
    phi = embed.nat_embedding(v["im1"])
    chi = embed.nat_embedding(v["im2"])
    tags = {
        embed.embeddings_compare(phi, chi, probe)
        for probe in (v["p1"], v["p2"], v["p3"])
    }
    _expect(len(tags) == 1, tags, "one tag across probes")


@_law(
    "fourth-proportional-unique",
    "independent constructions of the fourth proportional intersect",
    ("rat",),
    _elems("a", "b", "c"),
)
def _fourth_unique(model, v, tol):
    # the closed form b/a against the descent over the model's own combine,
    # order and multiples
    p = 30 if tol is None else tol
    first = embed.fourth_proportional(v["a"], v["b"], real_from_rat(v["c"]), p)
    second = real_scale(real_from_rat(v["c"]), mediants.ratio_as_fraction(v["b"], v["a"], model))
    _expect(
        first.approx(p).intersects(second.approx(p + 5)),
        first.approx(p),
        second.approx(p + 5),
    )
    expected = v["c"] * (v["b"] / v["a"])
    _expect(first.approx(p).contains(expected), first.approx(p), expected)

