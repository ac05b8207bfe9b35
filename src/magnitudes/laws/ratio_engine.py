"""The ``ratio_engine`` law set: ratio engine contracts."""

from __future__ import annotations

from .. import embed, ratio
from ..core import Rel
from ..models import real_from_rat
from . import _elems, _elems_mults, _expect, _law, _same_tag


@_law(
    "engine-matches-exact-oracle",
    "the comparison engine agrees with cross-multiplication on exact ratios",
    ("nat", "rat"),
    _elems("a", "b", "c", "d"),
)
def _engine_vs_oracle(model, v, tol):
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    got = ratio.ratio_compare(a, b, c, d)
    _expect(not got.is_unknown, got.kind, "decided on exact models")
    n1, m1 = model.ratio_pair(a, b)
    n2, m2 = model.ratio_pair(c, d)
    x, y = n1 * m2, n2 * m1
    want = Rel.EQUAL if x == y else (Rel.GREATER if x > y else Rel.LESS)
    _same_tag(got.kind_tag(), want)


@_law(
    "engine-witness-soundness",
    "every strict verdict carries a witness that verifies",
    ("nat", "rat"),
    _elems("a", "b", "c", "d"),
)
def _witness_soundness(model, v, tol):
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    got = ratio.ratio_compare(a, b, c, d)
    if got.is_greater:
        _expect(ratio.verify_witness(got.witness, a, b, c, d), got.witness, "verifies")
    elif got.is_less:
        _expect(ratio.verify_witness(got.witness, c, d, a, b), got.witness, "verifies")


@_law(
    "engine-rejects-bogus-witness",
    "no multiplier pair separates a ratio from itself",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("m", "n"), bound=512),
)
def _rejects_bogus(model, v, tol):
    w = ratio.Witness(v["m"], v["n"])
    _expect(
        not ratio.verify_witness(w, v["a"], v["b"], v["a"], v["b"]),
        w,
        "self-separation refused",
    )


@_law(
    "engine-antisymmetry",
    "swapping the ratio pairs swaps greater and less, keeping the witness",
    ("nat", "rat"),
    _elems("a", "b", "c", "d"),
)
def _antisymmetry(model, v, tol):
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    fwd = ratio.ratio_compare(a, b, c, d)
    rev = ratio.ratio_compare(c, d, a, b)
    swap = {"greater": "less", "less": "greater", "equal": "equal"}
    _expect(rev.kind == swap[fwd.kind], rev.kind, swap[fwd.kind])
    if fwd.witness is not None:
        _expect(rev.witness == fwd.witness, rev.witness, fwd.witness)


@_law(
    "engine-strict-transitive",
    "greater-than composes: a:b > c:d and c:d > e:f imply a:b > e:f",
    ("nat", "rat"),
    _elems("a", "b", "c", "d", "e", "f"),
)
def _strict_transitive(model, v, tol):
    first = ratio.ratio_compare(v["a"], v["b"], v["c"], v["d"])
    second = ratio.ratio_compare(v["c"], v["d"], v["e"], v["f"])
    if first.is_greater and second.is_greater:
        third = ratio.ratio_compare(v["a"], v["b"], v["e"], v["f"])
        _expect(third.is_greater, third.kind, "greater")


@_law(
    "embedded-ratio-never-strict",
    "promoting a rational pair to reals never changes its ratio detectably",
    ("rat",),
    _elems("a", "b"),
)
def _embedded_never_strict(model, v, tol):
    out = ratio.ratio_compare(
        v["a"], v["b"], real_from_rat(v["a"]), real_from_rat(v["b"]), fuel=16
    )
    _expect(out.kind in ("equal", "unknown"), out.kind, "equal or unknown")


@_law(
    "proportionality-under-embedding",
    "an embedding sends a:b to (phi a):(phi b) with the same ratio",
    ("rat",),
    _elems_mults(("a", "b"), ("k",), bound=256),
)
def _proportionality(model, v, tol):
    phi = embed.nat_embedding(v["a"])  # naturals into rationals, 1 -> a
    img_m = embed.evaluate(phi, v["k"])
    img_n = embed.evaluate(phi, v["k"] + 1)
    verdict = ratio.ratio_compare(v["k"], v["k"] + 1, img_m, img_n)
    _expect(verdict.is_equal, verdict.kind, "equal")

