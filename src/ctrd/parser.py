"""Recursive-descent parser for the surface language.

Whitespace-insensitive, `//` line comments. Grammar sketch:

    program  := "servers" NAT ";" ("client" NAT "{" term "}")+
    term     := fn | if | let | assign
    assign   := binop (":=" binop)?
    binop    := app (("\\/" | "/\\" | "<=" | "<") app)*
    app      := prefix+
    prefix   := "!" prefix | atom ("." IDENT | "[" label "]")*
    atom     := IDENT | literal "@" label | record | "(" term ")"
              | ref | clone | await | flexread | flexwrite

The self-delimiting call forms (ref, clone, await, flexread, flexwrite)
sit at atom level so they can appear as operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .lattice import GSet, NatMax
from .syntax import (
    App, ArrowType, Assign, Await, BoolType, BoolVal, Clone, Closure, Deref,
    FlexRead, FlexWrite, Identifier, If, Label, LatOp, LatType, Let, Lit, LOC,
    OrdOp, Plain, Pos, Program, Proj, Record, RecordType, Ref, RefType,
    Restrict, Term, Type, UNIT, UnitType, Var,
)


class ParseError(Exception):
    def __init__(self, pos: Pos, message: str):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")
        self.pos = pos
        self.message = message


KEYWORDS = frozenset(
    """servers client fn if then else ref clone await flexread flexwrite
       let in nat set true false unit loc con oac ava Bool Unit Lat Ref""".split()
)

_LABEL_NAMES = {"loc": Label.LOC, "con": Label.CON, "oac": Label.OAC, "ava": Label.AVA}

_SYMBOLS = ["=>", ":=", "<=", "->", "\\/", "/\\",
            "(", ")", "{", "}", "[", "]", "@", ",", ":", ";", ".", "!", "=", "<", "-"]


@dataclass
class Token:
    kind: str       # "ident" | "nat" | "string" | "eof" | keyword / symbol text
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
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
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


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            shown = t.text or "end of input"
            raise ParseError(t.pos, f"expected {kind!r}, found {shown!r}")
        return self.next()

    # -- programs ----------------------------------------------------------

    def program(self) -> Program:
        self.expect("servers")
        n_tok = self.expect("num")
        servers = int(n_tok.text)
        if servers < 1:
            raise ParseError(n_tok.pos, "at least one server is required")
        self.expect(";")
        clients: list[tuple[int, Term]] = []
        seen: set[int] = set()
        while self.peek().kind == "client":
            self.next()
            cid_tok = self.expect("num")
            cid = int(cid_tok.text)
            if cid in seen:
                raise ParseError(cid_tok.pos, f"duplicate client id {cid}")
            seen.add(cid)
            self.expect("{")
            body = self.term()
            self.expect("}")
            clients.append((cid, body))
        if not clients:
            raise ParseError(self.peek().pos, "expected at least one client block")
        self.expect("eof")
        return Program(servers, tuple(clients))

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "fn":
            return self.fn()
        if t.kind == "if":
            return self.if_()
        if t.kind == "let":
            return self.let()
        return self.assign()

    def fn(self) -> Term:
        start = self.expect("fn")
        latent = self.at_label()
        self.expect("(")
        param = self.expect("ident").text
        self.expect(":")
        ty = self.type_()
        self.expect(")")
        self.expect("=>")
        body = self.term()
        # the @-label is the latent write bound; a literal closure is local data
        return Lit(Plain(Closure(latent, param, ty, body), LOC), pos=start.pos)

    def if_(self) -> Term:
        start = self.expect("if")
        cond = self.term()
        self.expect("then")
        self.expect("{")
        then = self.term()
        self.expect("}")
        self.expect("else")
        self.expect("{")
        els = self.term()
        self.expect("}")
        return If(cond, then, els, pos=start.pos)

    def let(self) -> Term:
        start = self.expect("let")
        name = self.expect("ident").text
        self.expect("=")
        bound = self.term()
        self.expect("in")
        body = self.term()
        return Let(name, bound, body, pos=start.pos)

    def assign(self) -> Term:
        lhs = self.binop()
        if self.peek().kind == ":=":
            op = self.next()
            rhs = self.binop()
            return Assign(lhs, rhs, pos=op.pos)
        return lhs

    def binop(self) -> Term:
        t = self.app()
        while True:
            k = self.peek().kind
            if k in ("\\/", "/\\"):
                op = self.next()
                rhs = self.app()
                t = LatOp("join" if k == "\\/" else "meet", t, rhs, pos=op.pos)
            elif k in ("<=", "<"):
                op = self.next()
                rhs = self.app()
                t = OrdOp("le" if k == "<=" else "lt", t, rhs, pos=op.pos)
            else:
                return t

    def app(self) -> Term:
        t = self.prefix()
        while self._starts_prefix():
            arg = self.prefix()
            t = App(t, arg, pos=arg.pos)
        return t

    def _starts_prefix(self) -> bool:
        return self.peek().kind in _PREFIX_START

    def prefix(self) -> Term:
        t = self.peek()
        if t.kind == "!":
            bang = self.next()
            return Deref(self.prefix(), pos=bang.pos)
        out = self.atom()
        while True:
            k = self.peek().kind
            if k == ".":
                dot = self.next()
                name = self.expect("ident").text
                out = Proj(out, name, pos=dot.pos)
            elif k == "[":
                br = self.next()
                lab = self.label()
                self.expect("]")
                out = Restrict(out, lab, pos=br.pos)
            else:
                return out

    def atom(self) -> Term:
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if t.kind == "{":
            return self.record()
        if t.kind == "ident":
            self.next()
            return Var(t.text, pos=t.pos)
        if t.kind in ("nat", "set", "true", "false", "unit"):
            return self.literal()
        if t.kind == "num":
            raise ParseError(t.pos, "bare number; write `nat N @label`")
        if t.kind == "ref" or t.kind == "clone":
            return self.ref_or_clone()
        if t.kind == "await":
            self.next()
            self.expect("(")
            ident = self.idlit()
            self.expect(")")
            return Await(ident, pos=t.pos)
        if t.kind == "flexread":
            self.next()
            lab = self.flex_label(t.pos, "FlexRead")
            self.expect("(")
            sub = self.term()
            self.expect(")")
            return FlexRead(lab, sub, pos=t.pos)
        if t.kind == "flexwrite":
            self.next()
            lab = self.flex_label(t.pos, "FlexWrite")
            self.expect("(")
            target = self.term()
            self.expect(",")
            value = self.term()
            self.expect(")")
            return FlexWrite(lab, target, value, pos=t.pos)
        shown = t.text or "end of input"
        raise ParseError(t.pos, f"expected a term, found {shown!r}")

    def flex_label(self, pos: Pos, what: str) -> Label:
        lab = self.at_label()
        if lab not in (Label.CON, Label.AVA):
            raise ParseError(pos, f"{what} label must be con or ava")
        return lab

    def ref_or_clone(self) -> Term:
        t = self.next()   # "ref" or "clone"
        lab = self.at_label()
        self.expect("(")
        body = self.term()
        self.expect(",")
        ident = self.idlit()
        self.expect(")")
        if t.kind == "ref":
            return Ref(lab, body, ident, pos=t.pos)
        return Clone(lab, body, ident, pos=t.pos)

    def record(self) -> Term:
        start = self.peek()
        fields = self.braced(lambda: self.field("=", self.term))
        lab = self.at_label()
        return Record(tuple(fields), lab, pos=start.pos)

    def literal(self) -> Term:
        t = self.next()
        if t.kind == "nat":
            n = self.expect("num")
            lab = self.at_label()
            return Lit(Plain(NatMax(int(n.text)), lab), pos=t.pos)
        if t.kind == "set":
            elems = self.braced(lambda: self.expect("string").text)
            lab = self.at_label()
            return Lit(Plain(GSet(frozenset(elems)), lab), pos=t.pos)
        if t.kind in ("true", "false"):
            lab = self.at_label()
            return Lit(Plain(BoolVal(t.kind == "true"), lab), pos=t.pos)
        if t.kind == "unit":
            lab = self.at_label()
            return Lit(Plain(UNIT, lab), pos=t.pos)
        raise ParseError(t.pos, f"expected a literal, found {t.text!r}")

    def idlit(self) -> Identifier:
        self.expect("(")
        lab = self.label()
        self.expect(",")
        n = self.expect("num")
        self.expect(")")
        return Identifier(lab, int(n.text))

    def braced(self, item: Callable) -> list:
        """`{` item (`,` item)* `}`, or `{}`."""
        self.expect("{")
        items = []
        if self.peek().kind != "}":
            items.append(item())
            while self.peek().kind == ",":
                self.next()
                items.append(item())
        self.expect("}")
        return items

    def field(self, sep: str, value: Callable) -> tuple:
        name = self.expect("ident").text
        self.expect(sep)
        return name, value()

    def at_label(self) -> Label:
        self.expect("@")
        return self.label()

    def label(self) -> Label:
        t = self.peek()
        if t.kind in _LABEL_NAMES:
            self.next()
            return _LABEL_NAMES[t.kind]
        shown = t.text or "end of input"
        raise ParseError(t.pos, f"expected a label, found {shown!r}")

    # -- types -------------------------------------------------------------

    def type_(self) -> Type:
        t = self.peek()
        if t.kind in ("Bool", "Unit", "Lat"):
            self.next()
            lab = self.at_label()
            ctor = {"Bool": BoolType, "Unit": UnitType, "Lat": LatType}[t.kind]
            return ctor(lab, pos=t.pos)
        if t.kind == "Ref":
            self.next()
            lab = self.at_label()
            content = self.type_()
            return RefType(lab, content, pos=t.pos)
        if t.kind == "{":
            fields = self.braced(lambda: self.field(":", self.type_))
            lab = self.at_label()
            return RecordType(tuple(sorted(fields)), lab, pos=t.pos)
        if t.kind == "(":
            self.next()
            arg = self.type_()
            self.expect("-")
            latent = self.label()
            self.expect("->")
            result = self.type_()
            self.expect(")")
            lab = self.at_label()
            return ArrowType(arg, latent, result, lab, pos=t.pos)
        shown = t.text or "end of input"
        raise ParseError(t.pos, f"expected a type, found {shown!r}")


def parse_program(src: str) -> Program:
    return _Parser(tokenize(src)).program()


def parse_term(src: str) -> Term:
    p = _Parser(tokenize(src))
    t = p.term()
    p.expect("eof")
    return t


def parse_type(src: str) -> Type:
    p = _Parser(tokenize(src))
    t = p.type_()
    p.expect("eof")
    return t
