"""The one-regex lexer, the let-spine parser and typechecker, and the one
loop of passes that types each client once and reruns only the failed
ones, against the character-level, recursive front end in
parse_oracle.py, whose fixpoint of passes over every client is followed
by a strict pass."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import parse_oracle
from conftest import CORPUS, CORPUS_COUNT, gen, load
from ctrd.parser import ParseError, parse_program, parse_term, tokenize
from ctrd.record import Frozen, fields
from ctrd.syntax import CON, LOC, LatType, Let
from ctrd.typecheck import CheckError, TypeEnv, check_program, typecheck

CORPUS_FILES = sorted(CORPUS.rglob("*.ctrd"))
GENERATED = [
    *(gen.chain_program(seed, f"long{seed}", gen.LONG_MIX, True).text for seed in (11000, 11001)),
    *(gen.chain_program(seed, f"hist{seed}", gen.HISTORY_MIX, False).text for seed in (11000, 11001)),
    *(gen.anomaly_variant(seed, f"mixed{seed}").text for seed in (11000, 11001)),
    gen.deep_chain(50),
]


def _outcome(fn, *args):
    """fn's result, or the position and message of its ParseError."""
    try:
        return "ok", fn(*args)
    except ParseError as e:
        return "error", e.pos, e.message


def _shape(x) -> list:
    """(class, pos) of every node under x, in field order: terms, values,
    types and identifiers alike, as `pos` takes no part in equality."""
    out = []

    def walk(v):
        if isinstance(v, Frozen):
            out.append((type(v).__name__, getattr(v, "pos", None)))
            for name in fields(v):
                walk(getattr(v, name))
        elif isinstance(v, (tuple, list)):
            for item in v:
                walk(item)

    walk(x)
    return out


def _oracle_tokens(src: str) -> list:
    return [(t.kind, t.text, t.pos) for t in parse_oracle.tokenize(src)]


def _assert_parsed_as_oracle(src: str) -> None:
    assert _outcome(tokenize, src) == _outcome(_oracle_tokens, src)
    got, want = _outcome(parse_program, src), _outcome(parse_oracle.parse_program, src)
    assert got == want
    if got[0] == "ok":
        assert _shape(got[1]) == _shape(want[1])


def _checked(check, program):
    try:
        result = check(program)
    except CheckError as e:
        return "error", e.kind, e.pos, e.message
    return "ok", result.client_types, list(result.id_types.items())


def test_corpus_and_generated_programs_parse_as_the_oracle_parses_them():
    assert len(CORPUS_FILES) == CORPUS_COUNT
    for text in [load(p) for p in CORPUS_FILES] + GENERATED:
        _assert_parsed_as_oracle(text)


def test_corpus_and_generated_programs_check_as_the_oracle_checks_them():
    errors = 0
    for text in [load(p) for p in CORPUS_FILES] + GENERATED:
        program = parse_program(text)
        got = _checked(check_program, program)
        assert got == _checked(parse_oracle.check_program, program)
        errors += got[0] == "error"
    assert errors == len(list((CORPUS / "reject").glob("*.ctrd")))


# what the corpus lacks: digits int() rejects, identifier edges, an
# unterminated string, CR LF line ends, a comment at the end of the text,
# and let spines that shadow or use the name they bind
EDGES = [
    "servers \u00b2;", "servers \u0663; client 1 { unit @loc }", "x\u00b2 \u00b2x", "\u00bd",
    '"abc\n"', "servers 1;\r\nclient 1 {\r\n  unit @loc } // done",
    "servers 1; client 1 { let x = nat 1 @loc in let x = x \\/ nat 2 @loc in x }",
    "servers 1; client 1 { let x = x in x }",
    "servers 1; client 1 { let x = nat 1 @loc in let y = x in let x = unit @loc in y }",
    "servers 1; client 1 { let f = fn@loc(y: Lat@loc) => let y = y in y in f (nat 1 @loc) }",
]


def test_edge_texts_parse_and_check_as_the_oracle_does():
    checked = 0
    for text in EDGES:
        _assert_parsed_as_oracle(text)
        if _outcome(parse_program, text)[0] == "ok":
            program = parse_program(text)
            assert _checked(check_program, program) == _checked(parse_oracle.check_program, program)
            checked += 1
    assert checked == 5


def test_a_let_spine_leaves_the_callers_context_alone():
    gamma = {"z": LatType(LOC)}
    term = parse_term("let x = z in let z = unit @loc in let y = (let w = x in w) in y")
    assert typecheck(TypeEnv(gamma=gamma), term) == LatType(LOC)
    assert gamma == {"z": LatType(LOC)}
    with pytest.raises(CheckError, match="unbound variable 'w'"):
        typecheck(TypeEnv(), parse_term("let y = (let w = unit @loc in w) in w"))


def test_every_let_of_a_long_spine_keeps_its_position():
    text = gen.deep_chain(5000)
    program = parse_program(text)
    lets = [(line, col) for kind, _, (line, col) in tokenize(text) if kind == "let"]
    body, seen = program.clients[0][1], []
    while isinstance(body, Let):
        seen.append(body.pos)
        body = body.body
    assert seen == lets and len(seen) == 5001
    assert check_program(program).client_types == {1: LatType(CON)}


# ---------------------------------------------------------------------------
# mutated program texts

_PIECES = st.sampled_from(
    ["²", "٣", "½", "é", "λ", "_", "x", "7", "0", " ", "\n", "\t", "\r", "\x0b",
     '"', "/", "//", "\\", "@", "(", ")", "{", "}", "[", "]", ";", ":", "=", "<",
     "-", "!", ".", ",", "let", "in", "x²", "²x", "servers", "😀",
     "ref", "clone", "await", "flexread", "flexwrite", "@con", "@loc", "(con,1)",
     "\\/", "/\\", "<=", ":="])


@st.composite
def _mutated(draw):
    text = draw(st.sampled_from([load(p) for p in CORPUS_FILES]))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:i] + draw(_PIECES) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 12)):]
        else:
            text = text[:i] + draw(st.text(max_size=3)) + text[i + 1:]
    return text


@settings(max_examples=300, deadline=None)
@given(_mutated())
def test_mutated_programs_parse_and_fail_as_the_oracle_does(text):
    _assert_parsed_as_oracle(text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=12) | st.lists(_PIECES, max_size=8).map("".join))
def test_short_texts_lex_as_the_oracle_lexes_them(text):
    assert _outcome(tokenize, text) == _outcome(_oracle_tokens, text)
