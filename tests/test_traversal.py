"""The term-structure table and the traversals derived from it."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import pathlib
import typing

from conftest import CORPUS, load, subterms
from ctrd.clone import rewrite_term
from ctrd.lattice import NatMax
from ctrd.parser import ParseError, parse_program, parse_term, parse_type
from ctrd.runtime_local import free_names, subst
from ctrd.syntax import (
    Closure, LOC, Let, Lit, Location, Plain, RecordVal, TERM_FIELDS, Term,
    children, map_children, rebuild, refs,
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
        assert set(names) <= {f.name for f in dataclasses.fields(cls)}, cls
        assert strict is None or strict <= len(names), cls


def test_rebuild_of_children_is_identity_on_the_corpus():
    seen = set()
    for name, body in _corpus_terms():
        for t in subterms(body):
            seen.add(type(t))
            assert rebuild(t, children(t)) == t, (name, t)
            assert map_children(t, lambda s: s) is t, (name, t)
            # no term-valued field is missing from the table
            held = []
            for f in dataclasses.fields(t):
                x = getattr(t, f.name)
                held += [s for _, s in x] if f.name == "fields" else [x]
            nested = [x for x in held if isinstance(x, TERM_FORMS)]
            assert nested == list(children(t)), (name, t)
    assert seen == set(TERM_FORMS)


def test_subst_respects_binders_and_shares_untouched_subterms():
    one = Lit(Plain(NatMax(1), LOC))
    t = parse_term("let y = x in let x = x in x")
    got = subst(t, "x", one)
    assert got == Let("y", one, Let("x", one, parse_term("x")))
    fn = parse_term("fn@loc(x: Lat@loc) => x \\/ y")
    assert subst(fn, "x", one) is fn
    assert subst(fn, "y", one) == parse_term("fn@loc(x: Lat@loc) => x \\/ nat 1 @loc")
    untouched = parse_term("!a")
    assert subst(parse_term("!a"), "x", one) == untouched
    pair = parse_term("(!a) \\/ x")
    assert subst(pair, "x", one).left is pair.left
    # a term in which the name is not free comes back as itself
    for src in ("!a", "let x = y in x", "fn@loc(x: Lat@loc) => x", "{a = y}@loc . a"):
        t = parse_term(src)
        assert "x" not in free_names(t), src
        assert subst(t, "x", one) is t, src
    shadowed = parse_term("let y = x in let x = y in x")
    assert subst(shadowed, "x", one).body is shadowed.body


def test_rewrite_reaches_closure_bodies_and_record_fields():
    old, new = Location(1, 1, False), Location(1, 9, True)
    at = Lit(Plain(old, LOC))
    body = Lit(Plain(Closure(LOC, "z", parse_type("Lat@loc"), at), LOC))
    record = Lit(Plain(RecordVal((("f", Plain(old, LOC)),)), LOC))
    t = parse_term("{a = unit @loc, b = unit @loc}@loc")
    t = rebuild(t, (body, record))
    assert refs(t) == {old}
    moved = rewrite_term(t, {old: new})
    assert refs(moved) == {new}
    assert rebuild(moved, children(t)) == t


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
