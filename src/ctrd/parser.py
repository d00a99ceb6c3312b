"""Lexer and recursive-descent parser for the surface language.

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
sit at atom level so they can appear as operands; one method reads them
all from the _CALLS table. The binary operators are read from the
inverse of syntax.OPERATORS, which the printer reads too.

The lexer is one compiled regular expression, matched once per token
together with the whitespace and comments before it; lines are counted
from the newlines it skips. A number is ASCII digits. A token is a tuple
(kind, text, pos); the list ends in one "eof" token, which the parser
never moves past.

A let spine, `let x = e in let y = e' in ...`, is read in a loop and
folded into nested `Let` nodes, so a program may hold any number of lets
in a row; every other form recurses once per level of nesting.
"""

from __future__ import annotations

import re
from typing import Callable

from .lattice import GSet, NatMax
from .syntax import (
    App, ArrowType, Assign, Await, AVA, BoolType, BoolVal, Clone, Closure, CON,
    Deref, FlexRead, FlexWrite, Identifier, If, Label, LABELS, LatType, Let,
    Lit, LOC, OPERATORS, Plain, Pos, Program, Proj, Record, RecordType, Ref,
    RefType, Restrict, Term, Type, UNIT, UnitType, Var,
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

Token = tuple[str, str, Pos]    # kind ("ident", "num", "string", "eof", a keyword or symbol), text, pos

# one match per token: the whitespace and comments before it, then the
# token, or no token at the end of the text
_TOKEN = re.compile(
    r'((?:[ \t\r\n]+|//[^\n]*)*)(?:'
    r'([^\W\d]\w*)'                                # a word; see tokenize
    r'|(=>|:=|<=|->|\\/|/\\|[(){}\[\]@,:;.!=<-])'
    r'|([0-9]+)'
    r'|("[^"\n]*")'
    r'|(.)'                                        # no token starts here
    r'|\Z)', re.S)


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    line, bol = 1, 0        # bol: where the current line begins
    for m in _TOKEN.finditer(src):
        skip, word, symbol, num, string, other = m.groups()
        if "\n" in skip:
            line += skip.count("\n")
            bol = m.start() + skip.rindex("\n") + 1
        pos = (line, m.end(1) - bol + 1)
        if word:
            if word in KEYWORDS:
                append((word, word, pos))
            # \w also admits digits that are not decimal, such as "²",
            # which cannot start an identifier
            elif word[0].isalpha() or word[0] == "_":
                append(("ident", word, pos))
            else:
                raise ParseError(pos, f"unexpected character {word[0]!r}")
        elif symbol:
            append((symbol, symbol, pos))
        elif num:
            append(("num", num, pos))
        elif string:
            append(("string", string[1:-1], pos))
        elif other:
            if other == '"':
                raise ParseError(pos, "unterminated string literal")
            raise ParseError(pos, f"unexpected character {other!r}")
        else:
            break
    append(("eof", "", pos))
    return toks


_LITERALS = ("nat", "set", "true", "false", "unit")

# the self-delimiting call forms: keyword -> (form, the labels its @label
# admits, or None where it takes none, and its arguments: a term or an
# identifier literal)
_CALLS = {
    "ref": (Ref, LABELS, ("term", "ident")),
    "clone": (Clone, LABELS, ("term", "ident")),
    "await": (Await, None, ("ident",)),
    "flexread": (FlexRead, (CON, AVA), ("term",)),
    "flexwrite": (FlexWrite, (CON, AVA), ("term", "term")),
}

# binary operator spelling -> (form, operator name)
_BINOPS = {sym: (form, op) for op, (form, sym) in OPERATORS.items()}

_PREFIX_START = frozenset(["!", "(", "{", "ident", *_LITERALS, *_CALLS])


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.tok = toks[0]      # the next token

    def next(self) -> Token:
        t = self.tok
        if t[0] != "eof":
            self.i += 1
            self.tok = self.toks[self.i]
        return t

    def expect(self, kind: str) -> Token:
        t = self.tok
        if t[0] != kind:
            shown = t[1] or "end of input"
            raise ParseError(t[2], f"expected {kind!r}, found {shown!r}")
        return self.next()

    # -- programs ----------------------------------------------------------

    def program(self) -> Program:
        self.expect("servers")
        n_pos = self.tok[2]
        servers = self.number()
        if servers < 1:
            raise ParseError(n_pos, "at least one server is required")
        self.expect(";")
        clients: list[tuple[int, Term]] = []
        seen: set[int] = set()
        while self.tok[0] == "client":
            self.next()
            cid_pos = self.tok[2]
            cid = self.number()
            if cid in seen:
                raise ParseError(cid_pos, f"duplicate client id {cid}")
            seen.add(cid)
            self.expect("{")
            body = self.term()
            self.expect("}")
            clients.append((cid, body))
        if not clients:
            raise ParseError(self.tok[2], "expected at least one client block")
        self.expect("eof")
        return Program(servers, tuple(clients))

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        kind = self.tok[0]
        if kind == "let":
            return self.let()
        if kind == "fn":
            return self.fn()
        if kind == "if":
            return self.if_()
        return self.assign()

    def fn(self) -> Term:
        start = self.expect("fn")
        latent = self.at_label()
        self.expect("(")
        param = self.expect("ident")[1]
        self.expect(":")
        ty = self.type_()
        self.expect(")")
        self.expect("=>")
        body = self.term()
        # the @-label is the latent write bound; a literal closure is local data
        return Lit(Plain(Closure(latent, param, ty, body), LOC), pos=start[2])

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
        return If(cond, then, els, pos=start[2])

    def let(self) -> Term:
        """The whole let spine from here: its lets in a loop, then the body,
        folded right into nested Let nodes."""
        spine = []
        while self.tok[0] == "let":
            pos = self.next()[2]
            name = self.expect("ident")[1]
            self.expect("=")
            bound = self.term()
            self.expect("in")
            spine.append((name, bound, pos))
        body = self.term()
        for name, bound, pos in reversed(spine):
            body = Let(name, bound, body, pos=pos)
        return body

    def assign(self) -> Term:
        lhs = self.binop()
        if self.tok[0] == ":=":
            pos = self.next()[2]
            rhs = self.binop()
            return Assign(lhs, rhs, pos=pos)
        return lhs

    def binop(self) -> Term:
        t = self.app()
        while self.tok[0] in _BINOPS:
            form, op = _BINOPS[self.tok[0]]
            pos = self.next()[2]
            t = form(op, t, self.app(), pos=pos)
        return t

    def app(self) -> Term:
        t = self.prefix()
        while self.tok[0] in _PREFIX_START:
            arg = self.prefix()
            t = App(t, arg, pos=arg.pos)
        return t

    def prefix(self) -> Term:
        if self.tok[0] == "!":
            pos = self.next()[2]
            return Deref(self.prefix(), pos=pos)
        out = self.atom()
        while True:
            kind = self.tok[0]
            if kind == ".":
                pos = self.next()[2]
                name = self.expect("ident")[1]
                out = Proj(out, name, pos=pos)
            elif kind == "[":
                pos = self.next()[2]
                lab = self.label()
                self.expect("]")
                out = Restrict(out, lab, pos=pos)
            else:
                return out

    def atom(self) -> Term:
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
        if kind in _LITERALS:
            return self.literal()
        if kind == "num":
            raise ParseError(pos, "bare number; write `nat N @label`")
        if kind in _CALLS:
            return self.call()
        shown = text or "end of input"
        raise ParseError(pos, f"expected a term, found {shown!r}")

    def call(self) -> Term:
        """A call form: its keyword, its @label if it takes one, and its
        arguments in parentheses, separated by commas."""
        kind, _, pos = self.next()
        form, labels, kinds = _CALLS[kind]
        args: list = []
        if labels is not None:
            lab = self.at_label()
            if lab not in labels:
                allowed = " or ".join(map(str, labels))
                raise ParseError(pos, f"{form.__name__} label must be {allowed}")
            args.append(lab)
        self.expect("(")
        for i, arg in enumerate(kinds):
            if i:
                self.expect(",")
            args.append(self.term() if arg == "term" else self.idlit())
        self.expect(")")
        return form(*args, pos=pos)

    def record(self) -> Term:
        pos = self.tok[2]
        fields = self.braced(lambda: self.field("=", self.term))
        lab = self.at_label()
        return Record(tuple(fields), lab, pos=pos)

    def literal(self) -> Term:
        kind, text, pos = self.next()
        if kind == "nat":
            n = self.number()
            lab = self.at_label()
            return Lit(Plain(NatMax(n), lab), pos=pos)
        if kind == "set":
            elems = self.braced(lambda: self.expect("string")[1])
            lab = self.at_label()
            return Lit(Plain(GSet(frozenset(elems)), lab), pos=pos)
        if kind == "true" or kind == "false":
            lab = self.at_label()
            return Lit(Plain(BoolVal(kind == "true"), lab), pos=pos)
        if kind == "unit":
            lab = self.at_label()
            return Lit(Plain(UNIT, lab), pos=pos)
        raise ParseError(pos, f"expected a literal, found {text!r}")

    def idlit(self) -> Identifier:
        self.expect("(")
        lab = self.label()
        self.expect(",")
        n = self.number()
        self.expect(")")
        return Identifier(lab, n)

    def number(self) -> int:
        _, text, pos = self.expect("num")
        try:
            return int(text)
        except ValueError:      # more digits than int() converts
            raise ParseError(pos, f"number too long ({len(text)} digits)") from None

    def braced(self, item: Callable) -> list:
        """`{` item (`,` item)* `}`, or `{}`."""
        self.expect("{")
        items = []
        if self.tok[0] != "}":
            items.append(item())
            while self.tok[0] == ",":
                self.next()
                items.append(item())
        self.expect("}")
        return items

    def field(self, sep: str, value: Callable) -> tuple:
        name = self.expect("ident")[1]
        self.expect(sep)
        return name, value()

    def at_label(self) -> Label:
        self.expect("@")
        return self.label()

    def label(self) -> Label:
        kind, text, pos = self.tok
        lab = _LABEL_NAMES.get(kind)
        if lab is None:
            shown = text or "end of input"
            raise ParseError(pos, f"expected a label, found {shown!r}")
        self.next()
        return lab

    # -- types -------------------------------------------------------------

    def type_(self) -> Type:
        kind, _, pos = self.tok
        if kind in ("Bool", "Unit", "Lat"):
            self.next()
            lab = self.at_label()
            ctor = {"Bool": BoolType, "Unit": UnitType, "Lat": LatType}[kind]
            return ctor(lab)
        if kind == "Ref":
            self.next()
            lab = self.at_label()
            content = self.type_()
            return RefType(lab, content)
        if kind == "{":
            fields = self.braced(lambda: self.field(":", self.type_))
            lab = self.at_label()
            return RecordType(tuple(sorted(fields)), lab)
        if kind == "(":
            self.next()
            arg = self.type_()
            self.expect("-")
            latent = self.label()
            self.expect("->")
            result = self.type_()
            self.expect(")")
            lab = self.at_label()
            return ArrowType(arg, latent, result, lab)
        shown = self.tok[1] or "end of input"
        raise ParseError(pos, f"expected a type, found {shown!r}")


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
