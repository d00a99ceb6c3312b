"""The front end as it stood before the one-regex lexer, the let-spine
loops and the one loop of passes that reruns only failed clients, kept
as a differential oracle.

`tokenize` walks the text one character at a time and builds a `Token`
per token; its one change is that a number is ASCII digits only.
`OracleParser` parses a `let` in two recursive frames, the body through
`term`, and reads each call form (ref, clone, await, flexread, flexwrite)
and each binary operator by a branch of its own; it reads the rest of the
grammar with the parser's own methods. `typecheck` types the let
spine it is given by recursion, with one context copy per `let`, and
hands every other term to ctrd's typechecker, whose passes fill the
identifier map they are given. `collect_id_types` reruns every client,
ignoring its errors, until the identifier map stops changing; then
`check_program` types every client once more against the result and
raises the first error in program order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ctrd.parser import KEYWORDS, ParseError, _Parser
from ctrd.syntax import (
    App, Await, Clone, FlexRead, FlexWrite, Label, LatOp, LOC, Let, OrdOp, Pos,
    Ref, Var,
)
from ctrd.typecheck import CheckError, ProgramCheck, TypeEnv, typecheck as typecheck_term

_SYMBOLS = ["=>", ":=", "<=", "->", "\\/", "/\\",
            "(", ")", "{", "}", "[", "]", "@", ",", ":", ";", ".", "!", "=", "<", "-"]


@dataclass
class Token:
    kind: str       # "ident" | "num" | "string" | "eof" | keyword / symbol text
    text: str
    pos: Pos


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if src[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = src[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                advance(1)
            continue
        pos = (line, col)
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            toks.append(Token("num", src[i:j], pos))
            advance(j - i)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            toks.append(Token(word if word in KEYWORDS else "ident", word, pos))
            advance(j - i)
            continue
        if c == '"':
            j = i + 1
            while j < n and src[j] not in '"\n':
                j += 1
            if j >= n or src[j] != '"':
                raise ParseError(pos, "unterminated string literal")
            toks.append(Token("string", src[i + 1:j], pos))
            advance(j - i + 1)
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                toks.append(Token(sym, sym, pos))
                advance(len(sym))
                break
        else:
            raise ParseError(pos, f"unexpected character {c!r}")
    toks.append(Token("eof", "", (line, col)))
    return toks


_PREFIX_START = frozenset(
    ["!", "(", "{", "ident", "nat", "set", "true", "false", "unit",
     "ref", "clone", "await", "flexread", "flexwrite"]
)


class OracleParser(_Parser):
    """The parser's grammar over the oracle's tokens, a let in two frames
    and a branch per call form and per operator."""

    def __init__(self, src: str):
        super().__init__([(t.kind, t.text, t.pos) for t in tokenize(src)])

    def let(self):
        start = self.expect("let")
        name = self.expect("ident")[1]
        self.expect("=")
        bound = self.term()
        self.expect("in")
        body = self.term()
        return Let(name, bound, body, pos=start[2])

    def binop(self):
        t = self.app()
        while True:
            kind = self.tok[0]
            if kind == "\\/" or kind == "/\\":
                pos = self.next()[2]
                rhs = self.app()
                t = LatOp("join" if kind == "\\/" else "meet", t, rhs, pos=pos)
            elif kind == "<=" or kind == "<":
                pos = self.next()[2]
                rhs = self.app()
                t = OrdOp("le" if kind == "<=" else "lt", t, rhs, pos=pos)
            else:
                return t

    def app(self):
        t = self.prefix()
        while self.tok[0] in _PREFIX_START:
            arg = self.prefix()
            t = App(t, arg, pos=arg.pos)
        return t

    def atom(self):
        kind, text, pos = self.tok
        if kind == "ident":
            self.next()
            return Var(text, pos=pos)
        if kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if kind == "{":
            return self.record()
        if kind in ("nat", "set", "true", "false", "unit"):
            return self.literal()
        if kind == "num":
            raise ParseError(pos, "bare number; write `nat N @label`")
        if kind == "ref" or kind == "clone":
            return self.ref_or_clone()
        if kind == "await":
            self.next()
            self.expect("(")
            ident = self.idlit()
            self.expect(")")
            return Await(ident, pos=pos)
        if kind == "flexread":
            self.next()
            lab = self.flex_label(pos, "FlexRead")
            self.expect("(")
            sub = self.term()
            self.expect(")")
            return FlexRead(lab, sub, pos=pos)
        if kind == "flexwrite":
            self.next()
            lab = self.flex_label(pos, "FlexWrite")
            self.expect("(")
            target = self.term()
            self.expect(",")
            value = self.term()
            self.expect(")")
            return FlexWrite(lab, target, value, pos=pos)
        shown = text or "end of input"
        raise ParseError(pos, f"expected a term, found {shown!r}")

    def flex_label(self, pos, what: str):
        lab = self.at_label()
        if lab not in (Label.CON, Label.AVA):
            raise ParseError(pos, f"{what} label must be con or ava")
        return lab

    def ref_or_clone(self):
        kind, _, pos = self.next()   # "ref" or "clone"
        lab = self.at_label()
        self.expect("(")
        body = self.term()
        self.expect(",")
        ident = self.idlit()
        self.expect(")")
        if kind == "ref":
            return Ref(lab, body, ident, pos=pos)
        return Clone(lab, body, ident, pos=pos)


def parse_program(src: str):
    return OracleParser(src).program()


def parse_term(src: str):
    p = OracleParser(src)
    t = p.term()
    p.expect("eof")
    return t


def typecheck(env: TypeEnv, t):
    """A let spine typed by recursion, with one gamma copy per let."""
    if isinstance(t, Let):
        tb = typecheck_term(env, t.bound)
        return typecheck(env.with_var(t.name, tb), t.body)
    return typecheck_term(env, t)


def collect_id_types(program) -> dict:
    ids: dict = {}
    while True:
        before = dict(ids)
        for _, term in program.clients:
            env = TypeEnv(gamma={}, sigma={}, ids=ids, effect=LOC)
            try:
                typecheck(env, term)
            except CheckError:
                pass
        if ids == before:
            return ids


def check_program(program) -> ProgramCheck:
    ids = collect_id_types(program)
    client_types = {}
    for cid, term in program.clients:
        client_types[cid] = typecheck(TypeEnv(gamma={}, sigma={}, ids=ids, effect=LOC), term)
    return ProgramCheck(client_types, ids)
