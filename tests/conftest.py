from __future__ import annotations

import pathlib

import pytest

from ctrd.parser import parse_program
from ctrd.runtime_cloud import initial_config
from ctrd.syntax import Lit, children, map_value
from ctrd.typecheck import check_program

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
# the corpus programs that typecheck, so run and explore can take them
RUNNABLE = sorted(p for p in CORPUS.rglob("*.ctrd") if p.parent.name != "reject")


def corpus_files(group: str) -> list[pathlib.Path]:
    return sorted((CORPUS / group).glob("*.ctrd"))


def load(path) -> str:
    return pathlib.Path(path).read_text(encoding="utf-8")


def checked_config(src: str, servers: int | None = None):
    """Parse, typecheck, and build the initial configuration."""
    prog = parse_program(src)
    checked = check_program(prog)
    return prog, checked, initial_config(prog, checked.id_types, servers)


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


@pytest.fixture
def corpus():
    return CORPUS
