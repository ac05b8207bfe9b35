"""The slotted records behave as the frozen dataclasses they replace."""

import copy
import inspect

import pytest

from magnitudes.core import ModelDescriptor, Ordering3, Rel
from magnitudes.embed import (
    Anchor,
    ApproxPolicy,
    ComposeOf,
    HomCheckReport,
    IdentityRepr,
    SumOf,
    UnitMultiple,
)
from magnitudes.laws import LawReport, LawSpec
from magnitudes.models import NAT, Overlap
from magnitudes.power import MulReal
from magnitudes.ratio import Ratio, RatioRel, Witness

# (class, positional fields, repr); fields are plain values so reprs are stable
RECORDS = [
    (Ordering3, (Rel.LESS, 5), "Ordering3(tag=<Rel.LESS: 'less'>, gap=5)"),
    (
        ModelDescriptor,
        ("m", False, True, 1, 1),
        "ModelDescriptor(model_id='m', symmetric=False, exact_order=True, unit=1, smallest=1)",
    ),
    (ApproxPolicy, (12,), "ApproxPolicy(precision=12)"),
    (UnitMultiple, ("i", "d", "c"), "UnitMultiple(image='i', domain='d', codomain='c')"),
    (Anchor, (1, 2, "d", "c"), "Anchor(anchor=1, image=2, domain='d', codomain='c')"),
    (IdentityRepr, ("m",), "IdentityRepr(model='m')"),
    (SumOf, ("l", "r"), "SumOf(left='l', right='r')"),
    (ComposeOf, ("o", "i"), "ComposeOf(outer='o', inner='i')"),
    (
        HomCheckReport,
        (False, 7, {"a": "1"}),
        "HomCheckReport(passed=False, samples=7, counterexample={'a': '1'})",
    ),
    (
        LawSpec,
        ("id", "text", "set", ("rat",), len, abs),
        "LawSpec(law_id='id', statement='text', law_set='set', models=('rat',), "
        "gen=<built-in function len>, check=<built-in function abs>)",
    ),
    (
        LawReport,
        ("id", "rat", 10, 1, None, [{"x": "1"}]),
        "LawReport(law_id='id', model='rat', trials=10, seed=1, tolerance=None, "
        "failures=[{'x': '1'}])",
    ),
    (Overlap, (30,), "Overlap(precision=30)"),
    (MulReal, ("v",), "MulReal(value='v')"),
    (Ratio, (1, 2, "nat"), "Ratio(antecedent=1, consequent=2, model_id='nat')"),
    (Witness, (3, 4), "Witness(m=3, n=4)"),
    (
        RatioRel,
        ("greater", Witness(3, 4), 2, 0),
        "RatioRel(kind='greater', witness=Witness(m=3, n=4), fuel_spent=2, precision_cap=0)",
    ),
]
FROZEN = [row for row in RECORDS if row[0] is not LawReport]
ids = [row[0].__name__ for row in RECORDS]


def fields(cls) -> list:
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls,args,text", RECORDS, ids=ids)
def test_positional_and_keyword_construction_agree(cls, args, text):
    first = cls(*args)
    second = cls(**dict(zip(fields(cls), args)))
    assert first == second
    assert repr(first) == repr(second) == text
    assert copy.copy(first) == first


@pytest.mark.parametrize("cls,args,text", FROZEN, ids=[row[0].__name__ for row in FROZEN])
def test_frozen_records_hash_and_refuse_changes(cls, args, text):
    record = cls(*args)
    if cls is not HomCheckReport:  # its counterexample is a dict
        assert hash(record) == hash(cls(*args))
    for name in fields(cls):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_no_equality_across_classes():
    mapping = IdentityRepr(NAT)
    assert SumOf(mapping, mapping) != ComposeOf(mapping, mapping)
    assert SumOf(mapping, mapping) == SumOf(mapping, mapping)
    assert Overlap(3) != Witness(3, 3) and Witness(3, 4) != (3, 4)


def test_defaults():
    assert Ordering3(Rel.EQUAL).gap is None
    assert ApproxPolicy().precision == 30
    assert HomCheckReport(True, 5).counterexample is None
    assert RatioRel("equal") == RatioRel("equal", None, 0, 0) == RatioRel.equal()
    assert ModelDescriptor("m", True, True).unit is None
    # discrete is read from smallest, not stored
    assert ModelDescriptor("m", False, True, 1, 1).discrete and not ModelDescriptor("m", True, True).discrete


def test_construction_checks():
    with pytest.raises(ValueError, match=">= 0"):
        ApproxPolicy(-1)
    with pytest.raises(ValueError, match=">= 0"):
        ApproxPolicy(precision=-1)
    assert ApproxPolicy(precision=40) == ApproxPolicy(40)


def test_law_report_is_mutable_with_its_own_failures():
    first = LawReport("a", "rat", 1, 0, None)
    second = LawReport("a", "rat", 1, 0, None)
    first.failures.append({"inputs": {}})
    assert second.failures == [] and first.failures is not second.failures
    first.trials = 2
    assert first.trials == 2 and first != second
    with pytest.raises(TypeError):
        hash(first)


def test_shared_equal_records():
    for shared, fresh in [
        (Ordering3.equal(), Ordering3(Rel.EQUAL, None)),
        (RatioRel.equal(), RatioRel("equal")),
    ]:
        assert shared == fresh and hash(shared) == hash(fresh)
        assert type(shared).equal() is shared
        for name in fields(type(shared)):
            with pytest.raises(AttributeError):
                setattr(shared, name, None)
    assert NAT.order(4, 4) is Ordering3.equal()
    spent = RatioRel.equal(fuel_spent=3)
    assert spent.fuel_spent == 3 and spent.is_equal and spent != RatioRel.equal()
    assert RatioRel.equal().fuel_spent == 0
