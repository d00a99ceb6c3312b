"""The frozen record classes against twins built by dataclasses: the same
equality, hashing, ordering, repr and match arguments, and no assignment."""

from __future__ import annotations

import dataclasses
from dataclasses import FrozenInstanceError, field, make_dataclass

import pytest

import ctrd
from ctrd.abstract_exec import Operation
from ctrd.lattice import GSet, NatMax
from ctrd.record import Frozen, fields, replace
from ctrd.runtime_local import Req, Update
from ctrd.syntax import (
    ArrowType, BoolType, BoolVal, Clone, Closure, CON, Duplicated, Identifier, LatOp,
    LatType, LOC, Lit, OrdOp, Plain, Program, RecordType, RecordVal, Ref, RefType,
    TERM_FIELDS, UnitType, UnitVal, Var,
)

ORDERED = (Update, Req)
RECORDS = (*TERM_FIELDS, Program, BoolVal, UnitVal, Closure, RecordVal, Plain, Duplicated,
           BoolType, UnitType, LatType, RefType, ArrowType, RecordType,
           NatMax, GSet, *ORDERED, Operation)
POS = (3, 14)


def _twin(cls):
    """What dataclass(frozen=True) builds from cls's fields, with `pos`
    left out of equality, hashing and repr."""
    spec = [(n, object, field(default=None, compare=False, repr=False)) if n == "pos"
            else (n, object) for n in fields(cls)]
    return make_dataclass(cls.__name__, spec, frozen=True, order=cls in ORDERED)


def _pairs(cls):
    """Pairs of instances (of cls, of its twin) over the same values: one
    base, one per field changed, and one with only `pos` changed."""
    twin = _twin(cls)
    names = [n for n in fields(cls) if n != "pos"]
    base = {n: (i, f"v{i}") for i, n in enumerate(names)}
    variants = [base] + [{**base, n: (-1, "w")} for n in names]
    for v in variants:
        yield cls(**v), twin(**v)
    if "pos" in fields(cls):
        yield cls(**base, pos=POS), twin(**base, pos=POS)


def test_the_records_are_every_frozen_class_and_no_dataclass():
    assert len(RECORDS) == 35
    assert set(Frozen.__subclasses__()) == set(RECORDS)
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_dataclass_twin(cls):
    assert cls.__match_args__ == _twin(cls).__match_args__ == fields(cls)
    pairs = list(_pairs(cls))
    for a, ta in pairs:
        assert repr(a) == repr(ta)
        assert hash(a) == hash(ta)
        assert replace(a) == a and replace(a) is not a
        for b, tb in pairs:
            assert (a == b) == (ta == tb) and (a != b) == (ta != tb), (a, b)
            if cls in ORDERED:
                assert [a < b, a <= b, a > b, a >= b] == [ta < tb, ta <= tb, ta > tb, ta >= tb]


@pytest.mark.parametrize("cls", [c for c in RECORDS if "pos" in fields(c)],
                         ids=lambda cls: cls.__name__)
def test_pos_takes_no_part_in_equality_hashing_or_repr(cls):
    (a, _), *_, (at, _) = _pairs(cls)
    assert a.pos is None and at.pos == POS
    assert a == at and hash(a) == hash(at) and repr(a) == repr(at)
    assert replace(a, pos=POS) == a and replace(a, pos=POS).pos == POS


def test_forms_with_equal_fields_are_unequal():
    ident, one = Identifier(CON, 0), Lit(Plain(NatMax(1), LOC))
    pairs = [(LatOp("join", one, one), OrdOp("join", one, one)),
             (BoolType(LOC), UnitType(LOC)), (UnitType(LOC), LatType(LOC)),
             (BoolType(LOC), LatType(LOC)), (Ref(CON, one, ident), Clone(CON, one, ident))]
    for a, b in pairs:
        assert a != b and b != a and not a == b, (a, b)
        assert a.__eq__(b) is NotImplemented
    assert Var("x") != ("x",) and Var("x").__eq__("x") is NotImplemented
    with pytest.raises(TypeError):
        Update(1, 2, 3, 4, 5) < Req(1, 2, 3)


def test_a_record_refuses_assignment_and_deletion():
    t = Var("x", POS)
    with pytest.raises(FrozenInstanceError):
        t.name = "y"
    with pytest.raises(FrozenInstanceError):
        del t.pos
    with pytest.raises(FrozenInstanceError):
        t.other = 1
    with pytest.raises(FrozenInstanceError):
        NatMax(1).n = 2
    assert t == Var("x") and t.pos == POS
    # a cache written to the instance dict stays outside the fields
    t.__dict__["_cached"] = 1
    assert t == Var("x") and repr(t) == "Var(name='x')"


def test_replace_changes_only_the_named_fields():
    ident = Identifier(CON, 0)
    req = Req((0, 1), ident, CON)
    assert replace(req, effect=LOC) == Req((0, 1), ident, LOC)
    with pytest.raises(TypeError):
        replace(req, nonesuch=1)
    assert replace(UnitVal()) == UnitVal()
    assert fields(Var) == fields(Var("x")) == ("name", "pos")


def test_the_package_record_is_still_the_recorder():
    from ctrd import abstract_exec
    assert ctrd.record is abstract_exec.record
