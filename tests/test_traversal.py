"""The term-structure table and the traversals derived from it."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import typing

from hypothesis import given, settings, strategies as st

import syntax_oracle
from conftest import CORPUS, load, subterms
from ctrd.lattice import NatMax
from ctrd.parser import ParseError, parse_program, parse_term, parse_type
from ctrd.record import fields
from ctrd.runtime_local import free_names, subst
from ctrd.syntax import (
    App, Closure, CON, Deref, Duplicated, Identifier, LABELS, LOC, Let, Lit,
    Location, Plain, Record, RecordVal, Ref, Restrict, TERM_FIELDS, TERM_LAYOUT,
    Term, Var, children, map_children, map_locations, pretty, rebuild, refs,
    value_locations,
)

TERM_FORMS = tuple(TERM_FIELDS)


def _corpus_terms():
    for path in sorted(CORPUS.rglob("*.ctrd")):
        try:
            prog = parse_program(load(path))
        except ParseError:
            continue
        for _, body in prog.clients:
            yield path.name, body


def test_every_term_form_has_a_table_entry():
    assert set(typing.get_args(Term)) == set(TERM_FIELDS)
    for cls, (names, strict) in TERM_FIELDS.items():
        assert set(names) <= set(fields(cls)), cls
        assert strict is None or strict <= len(names), cls
    # the printer lays out every form but the two it prints itself, with
    # one level per child
    assert set(TERM_LAYOUT) == set(TERM_FIELDS) - {Lit, Record}
    for cls, (level, template, needs) in TERM_LAYOUT.items():
        assert len(needs) == len(TERM_FIELDS[cls][0]), cls
        assert all(f"{{{i}}}" in template for i in range(len(needs))), cls


def test_rebuild_of_children_is_identity_on_the_corpus():
    seen = set()
    for name, body in _corpus_terms():
        for t in subterms(body):
            seen.add(type(t))
            assert rebuild(t, children(t)) == t, (name, t)
            assert map_children(t, lambda s: s) is t, (name, t)
            # no term-valued field is missing from the table
            held = []
            for name in fields(t):
                x = getattr(t, name)
                held += [s for _, s in x] if name == "fields" else [x]
            nested = [x for x in held if isinstance(x, TERM_FORMS)]
            assert nested == list(children(t)), (name, t)
    assert seen == set(TERM_FORMS)


def test_subst_respects_binders_and_shares_untouched_subterms():
    one = Lit(Plain(NatMax(1), LOC))
    t = parse_term("let y = x in let x = x in x")
    got = subst(t, {"x": one})
    assert got == Let("y", one, Let("x", one, parse_term("x")))
    fn = parse_term("fn@loc(x: Lat@loc) => x \\/ y")
    assert subst(fn, {"x": one}) is fn
    assert subst(fn, {"y": one}) == parse_term("fn@loc(x: Lat@loc) => x \\/ nat 1 @loc")
    untouched = parse_term("!a")
    assert subst(parse_term("!a"), {"x": one}) == untouched
    pair = parse_term("(!a) \\/ x")
    assert subst(pair, {"x": one}).left is pair.left
    # a term in which the name is not free comes back as itself
    for src in ("!a", "let x = y in x", "fn@loc(x: Lat@loc) => x", "{a = y}@loc . a"):
        t = parse_term(src)
        assert "x" not in free_names(t), src
        assert subst(t, {"x": one}) is t, src
    shadowed = parse_term("let y = x in let x = y in x")
    assert subst(shadowed, {"x": one}).body is shadowed.body


def test_rewrite_reaches_closure_bodies_and_record_fields():
    old, new = Location(1, 1, False), Location(1, 9, True)
    at = Lit(Plain(old, LOC))
    body = Lit(Plain(Closure(LOC, "z", parse_type("Lat@loc"), at), LOC))
    record = Lit(Plain(RecordVal((("f", Plain(old, LOC)),)), LOC))
    t = parse_term("{a = unit @loc, b = unit @loc}@loc")
    t = rebuild(t, (body, record))
    assert refs(t) == {old}
    moved = map_locations(t, {old: new}.__getitem__)
    assert refs(moved) == {new}
    assert rebuild(moved, children(t)) == t


# ---------------------------------------------------------------------------
# the location walk against the recursive walks in syntax_oracle.py

_locations = st.builds(Location, st.integers(1, 2), st.integers(1, 3), st.booleans())


def _location_terms():
    """Terms whose literals hold locations in every place a value can:
    bare, in record values, in closure bodies and in duplicated markers."""
    leaf = st.one_of(st.builds(Var, st.just("x")),
                     st.builds(lambda o: Lit(Plain(o, LOC)), _locations),
                     st.just(Lit(Plain(NatMax(1), CON))))

    def forms(term):
        value = term.filter(lambda t: isinstance(t, Lit)).map(lambda t: t.value)
        return st.one_of(
            st.builds(App, term, term),
            st.builds(Deref, term),
            st.builds(Restrict, term, st.sampled_from(LABELS)),
            st.builds(lambda a, b: Let("x", a, b), term, term),
            st.builds(lambda a, b: Record((("a", a), ("b", b)), LOC), term, term),
            st.builds(lambda t: Ref(LOC, t, Identifier(LOC, 1)), term),
            st.builds(lambda t: Lit(Duplicated(t)), term),
            st.builds(lambda t: Lit(Plain(Closure(LOC, "z", parse_type("Lat@loc"), t), LOC)),
                      term),
            st.builds(lambda a, b: Lit(Plain(RecordVal((("f", a), ("g", b))), CON)),
                      value, value),
        )

    return st.recursive(leaf, forms, max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(_location_terms(), st.dictionaries(_locations, _locations, max_size=4))
def test_map_locations_renames_as_the_recursive_rewrite_does(t, mapping):
    assert refs(t) == syntax_oracle.refs(t)
    if isinstance(t, Lit):
        assert value_locations(t.value) == syntax_oracle.refs(t)
    moved = map_locations(t, lambda o: mapping.get(o, o))
    assert moved == syntax_oracle.rewrite_term(t, mapping)
    for level in range(6):
        assert pretty(moved, level) == syntax_oracle.pretty(moved, level)
    # nothing renamed: the term itself comes back
    if not refs(t) & mapping.keys():
        assert moved is t
    assert map_locations(t, lambda o: o) is t


def test_bench_tracer_targets_still_resolve():
    # the benchmark wraps these functions by name from outside the package
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, module, attr_path, importers in tracer._WRAPPED:
        owner = importlib.import_module(module)
        *cls, attr = attr_path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        target = getattr(owner, attr)
        assert callable(target), name
        for imp in importers:
            assert getattr(importlib.import_module(imp), attr) is target, (name, imp)
