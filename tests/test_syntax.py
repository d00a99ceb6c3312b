"""Syntax-level algebra: subtyping, label joins on types, location
occurrence, parsing, and the pretty-printer round trip; the printer and
the parser against the oracles in syntax_oracle.py and parse_oracle.py."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import parse_oracle
import syntax_oracle
from conftest import CORPUS, load, subterms
from ctrd.lattice import GSet, NatMax
from ctrd.parser import ParseError, parse_program, parse_term, parse_type
from ctrd.record import Frozen, fields
from ctrd.syntax import (
    App, ArrowType, Assign, Await, AVA, BoolType, BoolVal, Clone, Closure,
    CON, Deref, Duplicated, FlexRead, FlexWrite, Identifier, If, LABELS,
    LatOp, LatType, Let, Lit, Location, LOC, OAC, OrdOp, Plain, Proj, Record,
    RecordType, RecordVal, Ref, RefType, Restrict, UnitType, UNIT, Var,
    pretty, pretty_type, refs, subtype, type_join_label,
    value_locations,
)

# ---------------------------------------------------------------------------
# type_join_label

def test_type_join_label_examples():
    assert type_join_label(BoolType(CON), AVA) == BoolType(AVA)
    ref = RefType(CON, LatType(CON))
    assert type_join_label(ref, LOC) == ref           # loc is the bottom
    arrow = ArrowType(LatType(CON), CON, LatType(CON), CON)
    # only the outer label joins; the latent label is untouched
    assert type_join_label(arrow, AVA) == ArrowType(LatType(CON), CON, LatType(CON), AVA)


def test_type_join_label_loc_is_identity():
    for t in _small_types():
        assert type_join_label(t, LOC) == t


# ---------------------------------------------------------------------------
# subtyping

def test_base_covariant_in_label():
    assert subtype(BoolType(CON), BoolType(AVA))
    assert not subtype(BoolType(AVA), BoolType(CON))


def test_arrow_example():
    # argument and latent label contravariant, result and own label covariant
    sub = ArrowType(BoolType(AVA), CON, UnitType(LOC), LOC)
    sup = ArrowType(BoolType(CON), LOC, UnitType(CON), CON)
    assert subtype(sub, sup)
    assert not subtype(sup, sub)


def test_ref_invariant_content():
    assert subtype(RefType(CON, LatType(CON)), RefType(AVA, LatType(CON)))
    assert not subtype(RefType(CON, LatType(LOC)), RefType(CON, LatType(CON)))


def test_record_width_and_depth():
    wide = RecordType((("a", LatType(LOC)), ("b", BoolType(LOC))), LOC)
    narrow = RecordType((("a", LatType(CON)),), CON)
    assert subtype(wide, narrow)
    assert not subtype(narrow, wide)


def _small_types() -> list:
    """Enumerated types to depth three over a compact alphabet."""
    labels = (LOC, AVA)
    level = [BoolType(lab) for lab in labels] + [UnitType(lab) for lab in labels]
    pool = list(level)
    for _ in range(2):
        nxt = []
        for lab in labels:
            nxt.extend(RefType(lab, c) for c in level[:6])
            nxt.extend(ArrowType(a, lat, b, lab)
                       for a in level[:3] for b in level[:3] for lat in labels)
        level = nxt
        pool.extend(level[:40])
    return pool[:120]


def test_subtype_reflexive_on_generated_types():
    for t in _small_types():
        assert subtype(t, t)


def test_subtype_transitive_on_generated_types():
    pool = _small_types()
    rel = [[subtype(a, b) for b in pool] for a in pool]
    n = len(pool)
    for i in range(n):
        for j in range(n):
            if not rel[i][j]:
                continue
            for k in range(n):
                if rel[j][k]:
                    assert rel[i][k], (pool[i], pool[j], pool[k])


# ---------------------------------------------------------------------------
# refs: syntactic location occurrence

def _oracle_locations(obj) -> set[Location]:
    """Independent reflection-based walk of the whole object graph."""
    out: set[Location] = set()

    def walk(x):
        if isinstance(x, Location):
            out.add(x)
        elif isinstance(x, Frozen):
            for name in fields(x):
                walk(getattr(x, name))
        elif isinstance(x, (tuple, list, frozenset)):
            for item in x:
                walk(item)

    walk(obj)
    return out


def test_refs_examples():
    assert refs(Lit(Plain(NatMax(1), LOC))) == frozenset()
    o = Location(1, 1, False)
    rec = Lit(Plain(RecordVal((("a", Plain(o, LOC)), ("b", Plain(NatMax(3), LOC)))), LOC))
    assert refs(rec) == {o}
    lam = Lit(Plain(Closure(CON, "x", LatType(CON), Deref(Lit(Plain(o, LOC)))), LOC))
    assert refs(lam) == {o}


def test_refs_matches_reflection_oracle():
    o1, o2 = Location(1, 1, False), Location(2, 7, True)
    terms = [
        Lit(Plain(NatMax(3), CON)),
        Assign(Deref(Lit(Plain(o1, LOC))), Lit(Plain(o2, AVA))),
        Record((("x", Lit(Plain(o1, LOC))), ("y", Var("v"))), CON),
        If(Lit(Plain(BoolVal(True), LOC)), Lit(Duplicated(Ref(LOC, Lit(Plain(o2, LOC)),
                                                              Identifier(LOC, 1)))), Var("z")),
        Let("w", Lit(Plain(o1, LOC)), FlexWrite(CON, Var("w"), Lit(Plain(o2, OAC)))),
    ]
    for t in terms:
        assert set(refs(t)) == _oracle_locations(t)
        if isinstance(t, Lit):
            assert set(value_locations(t.value)) == _oracle_locations(t)


# ---------------------------------------------------------------------------
# parsing

def test_parse_ref_shape():
    t = parse_term("ref@con(nat 3 @con, (con,1))")
    assert t == Ref(CON, Lit(Plain(NatMax(3), CON)), Identifier(CON, 1))


def test_parse_deref_assign_precedence():
    t = parse_term("!x := y")
    assert t == Assign(Deref(Var("x")), Var("y"))


def test_parse_flexread_label_misuse():
    with pytest.raises(ParseError, match="FlexRead label must be con or ava"):
        parse_term("flexread@loc(x)")
    with pytest.raises(ParseError, match="FlexWrite label must be con or ava"):
        parse_term("flexwrite@oac(x, y)")


def test_parse_application_left_associative():
    t = parse_term("f x y")
    assert t == App(App(Var("f"), Var("x")), Var("y"))


def test_parse_binop_left_associative():
    t = parse_term("a \\/ b \\/ c")
    assert t == LatOp("join", LatOp("join", Var("a"), Var("b")), Var("c"))


def test_parse_set_literal():
    t = parse_term('set{"a", "b"} @ava')
    assert t == Lit(Plain(GSet(frozenset("ab")), AVA))


def test_parse_type_forms():
    assert parse_type("Ref@con Lat@con") == RefType(CON, LatType(CON))
    assert parse_type("(Lat@con - con -> Unit@con)@loc") == \
        ArrowType(LatType(CON), CON, UnitType(CON), LOC)
    assert parse_type("{a: Lat@con, b: Bool@loc}@con") == \
        RecordType((("a", LatType(CON)), ("b", BoolType(LOC))), CON)


def test_parse_program_header():
    p = parse_program("servers 2; client 1 { unit @loc }")
    assert p.servers == 2
    with pytest.raises(ParseError, match="duplicate client"):
        parse_program("servers 2; client 1 { unit @loc } client 1 { unit @loc }")


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_program("servers 3;\nclient 1 { ref@con(nat 1 @con (con,1)) }")
    assert exc.value.pos[0] == 2


# ---------------------------------------------------------------------------
# round trip: parse after pretty-print is the identity on parsed terms

def test_roundtrip_corpus_style_terms():
    sources = [
        "let x = ref@loc(nat 1 @loc, (loc,1)) in !x := (!x \\/ nat 2 @loc)",
        "if flexread@con(p) <= nat 3 @loc then { q := nat 1 @con } else { unit @con }",
        "(fn@con(x: Lat@con) => x \\/ nat 1 @con) (nat 2 @loc)",
        "{a = nat 1 @loc, b = true @con}@con . a",
        "clone@con(z, (con,4))[ava]",
        "await((ava,7))",
        'set{"a"} @loc /\\ set{} @loc',
        "!(!y)",
    ]
    for src in sources:
        t = parse_term(src)
        assert parse_term(pretty(t)) == t


_label_st = st.sampled_from(LABELS)
_nonoac_label_st = st.sampled_from([LOC, CON, AVA])
_ident_st = st.builds(Identifier, _label_st, st.integers(0, 3))
_name_st = st.sampled_from(["x", "y", "z"])

_base_type_st = st.one_of(
    st.builds(BoolType, _label_st),
    st.builds(UnitType, _label_st),
    st.builds(LatType, _label_st),
)
_type_st = st.recursive(
    _base_type_st,
    lambda inner: st.one_of(
        st.builds(RefType, _label_st, inner),
        st.builds(ArrowType, inner, _label_st, inner, _label_st),
    ),
    max_leaves=4,
)

_literal_st = st.one_of(
    st.builds(lambda n, lab: Lit(Plain(NatMax(n), lab)), st.integers(0, 9), _nonoac_label_st),
    st.builds(lambda e, lab: Lit(Plain(GSet(e), lab)),
              st.frozensets(st.sampled_from("ab"), max_size=2), _nonoac_label_st),
    st.builds(lambda b, lab: Lit(Plain(BoolVal(b), lab)), st.booleans(), _nonoac_label_st),
    st.builds(lambda lab: Lit(Plain(UNIT, lab)), _nonoac_label_st),
)


def _compound(term):
    flex_label = st.sampled_from([CON, AVA])
    return st.one_of(
        st.builds(lambda a, b: LatOp("join", a, b), term, term),
        st.builds(lambda a, b: OrdOp("le", a, b), term, term),
        st.builds(App, term, term),
        st.builds(If, term, term, term),
        st.builds(Restrict, term, _label_st),
        st.builds(Deref, term),
        st.builds(Assign, term, term),
        st.builds(Ref, _label_st, term, _ident_st),
        st.builds(Clone, st.just(CON), term, _ident_st),
        st.builds(Await, _ident_st),
        st.builds(FlexRead, flex_label, term),
        st.builds(FlexWrite, flex_label, term, term),
        st.builds(lambda n, t1, t2: Let(n, t1, t2), _name_st, term, term),
        st.builds(lambda n, t: Proj(t, n), _name_st, term),
        st.builds(lambda n, t, lab: Record(((n, t),), lab), _name_st, term, _label_st),
        st.builds(lambda lab, n, ty, b: Lit(Plain(Closure(lab, n, ty, b), LOC)),
                  _label_st, _name_st, _type_st, term),
    )


_term_st = st.recursive(st.one_of(_literal_st, st.builds(Var, _name_st)),
                        _compound, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_term_st)
def test_roundtrip_generated_terms(t):
    assert parse_term(pretty(t)) == t


LEVELS = range(6)     # term, assign, binop, app, prefix, atom


def _parsed_as_oracle(text: str) -> None:
    got, want = parse_term(text), parse_oracle.parse_term(text)
    assert got == want
    assert [(type(s), s.pos) for s in subterms(got)] == \
        [(type(s), s.pos) for s in subterms(want)]


@settings(max_examples=300, deadline=None)
@given(_term_st)
def test_generated_terms_print_and_parse_as_the_oracles_do(t):
    for level in LEVELS:
        text = pretty(t, level)
        assert text == syntax_oracle.pretty(t, level), level
        _parsed_as_oracle(text)


def test_corpus_subterms_print_and_parse_as_the_oracles_do():
    count = 0
    for path in sorted(CORPUS.rglob("*.ctrd")):
        for _, body in parse_program(load(path)).clients:
            for t in subterms(body):
                for level in LEVELS:
                    assert pretty(t, level) == syntax_oracle.pretty(t, level), (path, t)
                _parsed_as_oracle(pretty(t))
                count += 1
    assert count == 665


@settings(max_examples=200, deadline=None)
@given(_type_st)
def test_roundtrip_generated_types(t):
    assert parse_type(pretty_type(t)) == t
