"""The printer and the location walks as they stood before TERM_LAYOUT and
map_locations, kept as differential oracles.

`pretty` prints each form from its own `match` arm. `refs` collects
locations by a recursive walk of its own, and `rewrite_term` and
`rewrite_value` rename them by another, rebuilding every literal they
pass.
"""

from __future__ import annotations

from ctrd.lattice import GSet, NatMax
from ctrd.syntax import (
    App, Assign, Await, BoolVal, Clone, Closure, Deref, Duplicated, FlexRead,
    FlexWrite, If, LatOp, Let, Lit, Location, OrdOp, Plain, Proj, Record,
    RecordVal, Ref, Restrict, UnitVal, Var, children, map_children, map_value,
    pretty_type,
)

_TERM, _ASSIGN, _BINOP, _APP, _PREFIX, _ATOM = range(6)

_LATOP_SYM = {"join": "\\/", "meet": "/\\"}
_ORDOP_SYM = {"le": "<=", "lt": "<"}


def pretty(t, level: int = _TERM) -> str:
    s, lv = _pp(t)
    if lv < level:
        return f"({s})"
    return s


def _pp(t) -> tuple[str, int]:
    match t:
        case Var(name=n):
            return n, _ATOM
        case Lit(value=v):
            return _pp_value(v)
        case Restrict(term=s, label=lab):
            return f"{pretty(s, _ATOM)}[{lab}]", _ATOM
        case Proj(term=s, name=n):
            return f"{pretty(s, _ATOM)}.{n}", _ATOM
        case Deref(term=s):
            return f"!{pretty(s, _PREFIX)}", _PREFIX
        case App(fn=f, arg=a):
            return f"{pretty(f, _APP)} {pretty(a, _PREFIX)}", _APP
        case LatOp(op=op, left=a, right=b):
            return f"{pretty(a, _BINOP)} {_LATOP_SYM[op]} {pretty(b, _APP)}", _BINOP
        case OrdOp(op=op, left=a, right=b):
            return f"{pretty(a, _BINOP)} {_ORDOP_SYM[op]} {pretty(b, _APP)}", _BINOP
        case Assign(target=a, value=b):
            return f"{pretty(a, _BINOP)} := {pretty(b, _BINOP)}", _ASSIGN
        case If(cond=c, then=a, els=b):
            return (
                f"if {pretty(c, _TERM)} then {{ {pretty(a, _TERM)} }} "
                f"else {{ {pretty(b, _TERM)} }}",
                _TERM,
            )
        case Let(name=x, bound=a, body=b):
            return f"let {x} = {pretty(a, _TERM)} in {pretty(b, _TERM)}", _TERM
        case Ref(label=lab, init=s, ident=ident):
            return f"ref@{lab}({pretty(s, _TERM)}, {ident})", _ATOM
        case Clone(label=lab, term=s, ident=ident):
            return f"clone@{lab}({pretty(s, _TERM)}, {ident})", _ATOM
        case Await(ident=ident):
            return f"await({ident})", _ATOM
        case FlexRead(label=lab, term=s):
            return f"flexread@{lab}({pretty(s, _TERM)})", _ATOM
        case FlexWrite(label=lab, target=a, value=b):
            return f"flexwrite@{lab}({pretty(a, _TERM)}, {pretty(b, _TERM)})", _ATOM
        case Record(fields=fs, label=lab):
            inner = ", ".join(f"{n} = {pretty(ft, _TERM)}" for n, ft in fs)
            return f"{{{inner}}}@{lab}", _ATOM
    raise TypeError(f"not a term: {t!r}")


def _pp_value(v) -> tuple[str, int]:
    if isinstance(v, Duplicated):
        return f"duplicated({pretty(v.inner, _TERM)})", _ATOM
    raw, lab = v.raw, v.label
    if isinstance(raw, NatMax):
        return f"nat {raw.n} @{lab}", _ATOM
    if isinstance(raw, GSet):
        inner = ", ".join(f'"{e}"' for e in sorted(raw.elems))
        return f"set{{{inner}}} @{lab}", _ATOM
    if isinstance(raw, BoolVal):
        return f"{'true' if raw.value else 'false'} @{lab}", _ATOM
    if isinstance(raw, UnitVal):
        return f"unit @{lab}", _ATOM
    if isinstance(raw, Closure):
        return (
            f"fn@{raw.latent}({raw.param}: {pretty_type(raw.param_type)}) "
            f"=> {pretty(raw.body, _TERM)}",
            _TERM,
        )
    if isinstance(raw, Location):
        return f"<{raw}> @{lab}", _ATOM
    if isinstance(raw, RecordVal):
        inner = ", ".join(f"{n} = {pretty(Lit(fv), _TERM)}" for n, fv in raw.fields)
        return f"{{{inner}}}@{lab}", _ATOM
    raise TypeError(f"not a value: {v!r}")


def refs(t) -> frozenset[Location]:
    out: set[Location] = set()

    def term(s):
        if s.__class__ is Lit:
            value(s.value)
        else:
            for c in children(s):
                term(c)
        return s

    def value(v):
        if isinstance(v, Plain) and isinstance(v.raw, Location):
            out.add(v.raw)
        else:
            map_value(v, term, value)
        return v

    term(t)
    return frozenset(out)


def rewrite_value(v, mapping: dict):
    if isinstance(v, Plain) and isinstance(v.raw, Location):
        return Plain(mapping.get(v.raw, v.raw), v.label)
    return map_value(v, lambda t: rewrite_term(t, mapping),
                     lambda fv: rewrite_value(fv, mapping))


def rewrite_term(t, mapping: dict):
    if isinstance(t, Lit):
        return Lit(rewrite_value(t.value, mapping), pos=t.pos)
    return map_children(t, lambda s: rewrite_term(s, mapping))
