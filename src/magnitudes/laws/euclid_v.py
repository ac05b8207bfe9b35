"""The ``euclid_v`` law set: the classical proportion laws."""

from __future__ import annotations

from .. import core, hom, ratio
from ..core import Rel
from . import _elems, _elems_mults, _expect, _law, _same, _same_tag


def _scaled_pair(model, a, b, k):
    return model.multiple(k, a), model.multiple(k, b)


@_law(
    "V.1-multiple-of-sum",
    "n(a + b) = na + nb",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("n",)),
)
def _v1(model, v, tol):
    lhs = model.multiple(v["n"], model.combine(v["a"], v["b"]))
    rhs = model.combine(model.multiple(v["n"], v["a"]), model.multiple(v["n"], v["b"]))
    _same(model, lhs, rhs, tol)


@_law(
    "V.2-sum-of-multipliers",
    "(m + n)a = ma + na",
    ("nat", "rat"),
    _elems_mults(("a",), ("m", "n")),
)
def _v2(model, v, tol):
    lhs = model.multiple(v["m"] + v["n"], v["a"])
    rhs = model.combine(model.multiple(v["m"], v["a"]), model.multiple(v["n"], v["a"]))
    _same(model, lhs, rhs, tol)


@_law(
    "V.3-multiple-of-multiple",
    "(mn)a = m(na)",
    ("nat", "rat"),
    _elems_mults(("a",), ("m", "n")),
)
def _v3(model, v, tol):
    _same(
        model,
        model.multiple(v["m"] * v["n"], v["a"]),
        model.multiple(v["m"], model.multiple(v["n"], v["a"])),
        tol,
    )


@_law(
    "V.4-scaled-proportionals",
    "a:b = a':b' implies ja:kb = ja':kb'",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("f", "j", "k"), bound=256),
)
def _v4(model, v, tol):
    a, b = v["a"], v["b"]
    a2, b2 = _scaled_pair(model, a, b, v["f"])
    verdict = ratio.ratio_compare(
        model.multiple(v["j"], a),
        model.multiple(v["k"], b),
        model.multiple(v["j"], a2),
        model.multiple(v["k"], b2),
    )
    _expect(verdict.is_equal, verdict.kind, "equal")


@_law(
    "V.5-multiples-preserve-element-order",
    "na relates to nb as a relates to b; on strict order na - nb = n(a - b)",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("n",)),
)
def _v5(model, v, tol):
    a, b, n = v["a"], v["b"], v["n"]
    na, nb = model.multiple(n, a), model.multiple(n, b)
    _same_tag(core.compare(na, nb, model).tag, core.compare(a, b, model).tag)
    if core.compare(a, b, model).is_greater:
        diff = core.subtract(na, nb, model)
        _same(model, diff, model.multiple(n, core.subtract(a, b, model)), tol)


@_law(
    "V.6-multiples-preserve-multiplier-order",
    "ma relates to na as m relates to n; on strict order ma - na = (m - n)a",
    ("nat", "rat"),
    _elems_mults(("a",), ("m", "n")),
)
def _v6(model, v, tol):
    a, m, n = v["a"], v["m"], v["n"]
    ma, na = model.multiple(m, a), model.multiple(n, a)
    want = Rel.EQUAL if m == n else (Rel.GREATER if m > n else Rel.LESS)
    _same_tag(core.compare(ma, na, model).tag, want)
    if m > n:
        _same(model, core.subtract(ma, na, model), model.multiple(m - n, a), tol)


@_law(
    "V.7-equals-have-equal-ratios",
    "a = b implies a:c = b:c and c:a = c:b",
    ("nat", "rat"),
    _elems("a", "c"),
)
def _v7(model, v, tol):
    a, c = v["a"], v["c"]
    _expect(ratio.ratio_compare(a, c, a, c).is_equal, "strict", "equal")
    _expect(ratio.ratio_compare(c, a, c, a).is_equal, "strict", "equal")


@_law(
    "V.8-greater-has-greater-ratio",
    "a > b implies a:c > b:c and c:b > c:a",
    ("nat", "rat"),
    _elems("b", "d", "c"),
)
def _v8(model, v, tol):
    b, c = v["b"], v["c"]
    a = model.combine(b, v["d"])
    first = ratio.ratio_compare(a, c, b, c)
    _expect(first.is_greater, first.kind, "greater")
    _expect(
        ratio.verify_witness(first.witness, a, c, b, c),
        first.witness,
        "verified witness",
    )
    second = ratio.ratio_compare(c, b, c, a)
    _expect(second.is_greater, second.kind, "greater")


@_law(
    "V.9-equal-ratios-cancel",
    "a:c = b:c exactly when a = b",
    ("nat", "rat"),
    _elems("a", "b", "c"),
)
def _v9(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    verdict = ratio.ratio_compare(a, c, b, c)
    _expect(
        verdict.is_equal == core.compare(a, b, model).is_equal,
        verdict.kind,
        "equal ratios iff equal elements",
    )


@_law(
    "V.10-ratio-order-reflects-element-order",
    "a:c > b:c implies a > b; c:a > c:b implies b > a",
    ("nat", "rat"),
    _elems("a", "b", "c"),
)
def _v10(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    _same_tag(ratio.ratio_compare(a, c, b, c).kind_tag(), core.compare(a, b, model).tag)
    _same_tag(ratio.ratio_compare(c, a, c, b).kind_tag(), core.compare(b, a, model).tag)


@_law(
    "V.11-same-ratio-transitive",
    "ratios equal to the same ratio are equal to each other",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("j", "k"), bound=256),
)
def _v11(model, v, tol):
    a, b = v["a"], v["b"]
    a2, b2 = _scaled_pair(model, a, b, v["j"])
    a3, b3 = _scaled_pair(model, a, b, v["k"])
    _expect(ratio.ratio_compare(a2, b2, a3, b3).is_equal, "strict", "equal")


@_law(
    "V.12-sum-of-proportionals",
    "a:b = c:d implies a:b = (a + c):(b + d)",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("f",), bound=256),
)
def _v12(model, v, tol):
    a, b = v["a"], v["b"]
    c, d = _scaled_pair(model, a, b, v["f"])
    verdict = ratio.ratio_compare(a, b, model.combine(a, c), model.combine(b, d))
    _expect(verdict.is_equal, verdict.kind, "equal")


@_law(
    "V.13-equality-respects-strict-order",
    "a:b = a':b' and a':b' > a'':b'' imply a:b > a'':b''",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c", "d"), ("f",), bound=256),
)
def _v13(model, v, tol):
    a, b = v["a"], v["b"]
    a2, b2 = _scaled_pair(model, a, b, v["f"])
    reference = ratio.ratio_compare(a2, b2, v["c"], v["d"])
    chained = ratio.ratio_compare(a, b, v["c"], v["d"])
    _expect(chained.kind == reference.kind, chained.kind, reference.kind)


@_law(
    "V.14-proportion-crosses-order",
    "a:b = c:d implies a relates to c as b relates to d",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("f",), bound=256),
)
def _v14(model, v, tol):
    a, b = v["a"], v["b"]
    c, d = _scaled_pair(model, a, b, v["f"])
    _same_tag(core.compare(a, c, model).tag, core.compare(b, d, model).tag)


@_law(
    "V.15-common-scaling",
    "a:b = ka:kb",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("k",)),
)
def _v15(model, v, tol):
    ka, kb = _scaled_pair(model, v["a"], v["b"], v["k"])
    _expect(ratio.ratio_compare(v["a"], v["b"], ka, kb).is_equal, "strict", "equal")


@_law(
    "V.16-alternation",
    "a:b = c:d implies a:c = b:d (all four in one space)",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("f",), bound=256),
)
def _v16(model, v, tol):
    a, b = v["a"], v["b"]
    c, d = _scaled_pair(model, a, b, v["f"])
    _expect(ratio.ratio_compare(a, c, b, d).is_equal, "strict", "equal")


@_law(
    "V.17-separation",
    "(a + b):b = (a' + b'):b' implies a:b = a':b'",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("k",), bound=256),
)
def _v17(model, v, tol):
    a, b = v["a"], v["b"]
    whole = model.combine(a, b)
    whole2, b2 = _scaled_pair(model, whole, b, v["k"])
    part = core.subtract(whole, b, model)
    part2 = core.subtract(whole2, b2, model)
    _expect(ratio.ratio_compare(part, b, a, b).is_equal, "strict", "separated part keeps ratio")
    _expect(ratio.ratio_compare(part, b, part2, b2).is_equal, "strict", "equal")


@_law(
    "V.18-composition",
    "a:b = a':b' implies (a + b):b = (a' + b'):b'",
    ("nat", "rat"),
    _elems_mults(("a", "b"), ("k",), bound=256),
)
def _v18(model, v, tol):
    a, b = v["a"], v["b"]
    a2, b2 = _scaled_pair(model, a, b, v["k"])
    verdict = ratio.ratio_compare(
        model.combine(a, b), b, model.combine(a2, b2), b2
    )
    _expect(verdict.is_equal, verdict.kind, "equal")


@_law(
    "V.19-remainder-proportion",
    "(a + b):(c + d) = a:c implies b:d = a:c",
    ("nat", "rat"),
    _elems_mults(("a", "c"), ("f",), bound=256),
)
def _v19(model, v, tol):
    a, c = v["a"], v["c"]
    b, d = _scaled_pair(model, a, c, v["f"])
    whole_check = ratio.ratio_compare(
        model.combine(a, b), model.combine(c, d), a, c
    )
    _expect(whole_check.is_equal, whole_check.kind, "construction proportional")
    _expect(ratio.ratio_compare(b, d, a, c).is_equal, "strict", "equal")


@_law(
    "V.20-ex-aequali-order",
    "from a:b = a':b' and b:c = b':c', a relates to c as a' relates to c'",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c"), ("f",), bound=256),
)
def _v20(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    a2, b2 = _scaled_pair(model, a, b, v["f"])
    c2 = model.multiple(v["f"], c)
    _same_tag(core.compare(a, c, model).tag, core.compare(a2, c2, model).tag)


def _perturbed_chain(model, a, b, c, k):
    """Primed triple satisfying a:b = b':c' and b:c = a':b'.

    Take a' = k*ab, b' = k*ac, c' = k*bc; products keep the construction
    inside either exact model.
    """
    ab = hom.product(a, b)
    ac = hom.product(a, c)
    bc = hom.product(b, c)
    return model.multiple(k, ab), model.multiple(k, ac), model.multiple(k, bc)


@_law(
    "V.21-perturbed-order",
    "from a:b = b':c' and b:c = a':b', a relates to c as a' relates to c'",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c"), ("k",), bound=64),
)
def _v21(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    a2, b2, c2 = _perturbed_chain(model, a, b, c, v["k"])
    _expect(ratio.ratio_compare(a, b, b2, c2).is_equal, "strict", "hypothesis 1 holds")
    _expect(ratio.ratio_compare(b, c, a2, b2).is_equal, "strict", "hypothesis 2 holds")
    _same_tag(core.compare(a, c, model).tag, core.compare(a2, c2, model).tag)


@_law(
    "V.22-ex-aequali",
    "a:b = a':b' and b:c = b':c' imply a:c = a':c'",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c"), ("f",), bound=256),
)
def _v22(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    a2, b2, c2 = (model.multiple(v["f"], x) for x in (a, b, c))
    _expect(ratio.ratio_compare(a, c, a2, c2).is_equal, "strict", "equal")


@_law(
    "V.23-perturbed-ex-aequali",
    "a:b = b':c' and b:c = a':b' imply a:c = a':c'",
    ("nat", "rat"),
    _elems_mults(("a", "b", "c"), ("k",), bound=64),
)
def _v23(model, v, tol):
    a, b, c = v["a"], v["b"], v["c"]
    a2, b2, c2 = _perturbed_chain(model, a, b, c, v["k"])
    _expect(ratio.ratio_compare(a, c, a2, c2).is_equal, "strict", "equal")


@_law(
    "V.24-sum-of-same-ratio",
    "a:b = c:d and e:b = f:d imply (a + e):b = (c + f):d",
    ("nat", "rat"),
    _elems_mults(("a", "e", "b"), ("k",), bound=256),
)
def _v24(model, v, tol):
    a, e, b = v["a"], v["e"], v["b"]
    k = v["k"]
    c, d = _scaled_pair(model, a, b, k)
    f = model.multiple(k, e)
    verdict = ratio.ratio_compare(
        model.combine(a, e), b, model.combine(c, f), d
    )
    _expect(verdict.is_equal, verdict.kind, "equal")

