from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from ctrd.parser import parse_program
from ctrd.runtime_cloud import initial_config
from ctrd.runtime_local import Log
from ctrd.syntax import Duplicated, Lit, Location, RecordVal, children, map_value
from ctrd.typecheck import check_program

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
# bench/gen.py, the benchmark's program generator, loaded by path (bench/
# is not a package)
_spec = importlib.util.spec_from_file_location("bench_gen", CORPUS.parent / "bench" / "gen.py")
gen = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)
# the corpus programs that typecheck, so run and explore can take them
RUNNABLE = sorted(p for p in CORPUS.rglob("*.ctrd") if p.parent.name != "reject")
# the corpus size, pinned once for every test that walks the corpus: a lost
# or an unlisted program fails them
CORPUS_COUNT, RUNNABLE_COUNT = 72, 47


def corpus_files(group: str) -> list[pathlib.Path]:
    return sorted((CORPUS / group).glob("*.ctrd"))


def load(path) -> str:
    return pathlib.Path(path).read_text(encoding="utf-8")


def checked_config(src: str, servers: int | None = None):
    """Parse, typecheck, and build the initial configuration."""
    prog = parse_program(src)
    checked = check_program(prog)
    return prog, checked, initial_config(prog, checked.id_types, servers)


def log_of(events, clients=(0, 1, 2, 3)) -> Log:
    """The server log that lists events newest first, over those clients."""
    log = Log.base(0, tuple(sorted(clients)))
    for e in reversed(events):
        log = Log(e, log)
    return log


def subterms(t) -> list:
    """Every subterm, the terms inside literals (closure bodies, duplicated
    creations, closures in record values) included."""
    out = []

    def term(s):
        out.append(s)
        if isinstance(s, Lit):
            value(s.value)
        for c in children(s):
            term(c)
        return s

    def value(v):
        map_value(v, term, value)
        return v

    term(t)
    return out


def canonical_shape(graph):
    """A reference graph's shape with locations renamed by deterministic
    traversal order and value labels erased: equal shapes mean isomorphic
    graphs."""
    order: dict[Location, int] = {}

    def visit(o: Location) -> None:
        if o in order:
            return
        order[o] = len(order)
        for succ in _ordered_succs(graph.nodes[o]):
            visit(succ)

    visit(graph.root)
    for o in sorted(graph.nodes):
        visit(o)

    def shape_of(v):
        if isinstance(v, Duplicated):
            return ("duplicated",)
        raw = v.raw
        if isinstance(raw, Location):
            return ("loc", order[raw])
        if isinstance(raw, RecordVal):
            return ("record", tuple((n, shape_of(fv)) for n, fv in raw.fields))
        return ("raw", raw)

    return tuple(shape_of(graph.nodes[o])
                 for o in sorted(graph.nodes, key=lambda loc: order[loc]))


def _ordered_succs(v) -> list[Location]:
    """Successor locations in deterministic value-traversal order."""
    out: list[Location] = []

    def walk(v) -> None:
        if isinstance(v, Duplicated):
            return
        raw = v.raw
        if isinstance(raw, Location):
            out.append(raw)
        elif isinstance(raw, RecordVal):
            for _, fv in raw.fields:
                walk(fv)

    walk(v)
    return list(dict.fromkeys(out))


@pytest.fixture
def corpus():
    return CORPUS
