"""Core syntax: consistency labels, identifiers, locations, terms, values,
types, and the label / subtyping algebra.

Everything here is immutable; terms double as runtime residuals, so values
(locations, closures, duplicated markers) are ordinary term literals.

The structure of terms is written down once, in TERM_FIELDS: for each of
the 17 forms, its term-valued fields in evaluation order and how many of
them form the strict prefix evaluated before the node reduces. The helpers
children, rebuild and map_children are derived from that table when the
module loads, and map_value does the same for the three value forms that
hold terms or values; both maps return their input when nothing in it
changed. Substitution, decomposition, map_locations (the one walk over the
locations a term holds, for refs and the clone upload) and the
low-equivalence check are written against these helpers, so a new form is
one table entry. The printed syntax is a table too: TERM_LAYOUT gives each
form but Lit and Record its precedence level, a format template and the
level each child needs, and OPERATORS gives each binary operator its form
and spelling, for the printer and the parser.
"""

from __future__ import annotations

import enum
from operator import attrgetter, is_
from typing import Callable, NamedTuple, Optional, Union

from .lattice import GSet, LatticeValue, NatMax
from .record import Frozen, fields, replace

Pos = tuple[int, int]


# ---------------------------------------------------------------------------
# Labels

class Label(enum.Enum):
    """Consistency labels; lower in the chain means stronger consistency,
    and < is the chain order loc < con < oac < ava."""

    LOC = "loc"
    CON = "con"
    OAC = "oac"
    AVA = "ava"

    # members are singletons compared by identity: hash them at C speed,
    # not through Enum.__hash__
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    def __lt__(self, other: Label) -> bool:
        return _RANK[self] < _RANK[other]


_RANK = {Label.LOC: 0, Label.CON: 1, Label.OAC: 2, Label.AVA: 3}
LABELS = (Label.LOC, Label.CON, Label.OAC, Label.AVA)
LOC, CON, OAC, AVA = LABELS


def label_leq(a: Label, b: Label) -> bool:
    """Chain order loc <= con <= oac <= ava."""
    return _RANK[a] <= _RANK[b]


def label_join(a: Label, b: Label) -> Label:
    return a if _RANK[a] >= _RANK[b] else b


# ---------------------------------------------------------------------------
# Identifiers and locations

class Identifier(NamedTuple):
    """Programmer-chosen name for a reference, shared across clients.
    Identifiers order by label in the chain order, then by index."""

    label: Label
    index: int

    def __str__(self) -> str:
        return f"({self.label},{self.index})"


class Location(NamedTuple):
    """Runtime store address; remote ones name (client, serial) pairs.
    Locations order by client, then serial, then remote."""

    client: int
    serial: int
    remote: bool

    def __str__(self) -> str:
        kind = "r" if self.remote else "l"
        return f"c{self.client}.{kind}{self.serial}"


# ---------------------------------------------------------------------------
# Types

class BoolType(Frozen):
    label: Label


class UnitType(Frozen):
    label: Label


class LatType(Frozen):
    label: Label


class RefType(Frozen):
    label: Label
    content: "Type"


class ArrowType(Frozen):
    arg: "Type"
    latent: Label        # upper bound on the effect while the body runs
    result: "Type"
    label: Label


class RecordType(Frozen):
    fields: tuple[tuple[str, "Type"], ...]   # sorted by field name
    label: Label


Type = Union[BoolType, UnitType, LatType, RefType, ArrowType, RecordType]


def label_of(t: Type) -> Label:
    return t.label


def with_label(t: Type, lab: Label) -> Type:
    return t if t.label is lab else replace(t, label=lab)


def type_join_label(t: Type, lab: Label) -> Type:
    """Join a label onto a type's outer label; inner components untouched."""
    return with_label(t, label_join(t.label, lab))


def type_join(t1: Type, t2: Type) -> Optional[Type]:
    """Join types with identical raw structure by joining outer labels.

    Inner components (including those under Ref and arrows) must be equal;
    only the outermost labels are merged. None when the shapes disagree.
    """
    if with_label(t1, LOC) == with_label(t2, LOC):
        return with_label(t1, label_join(t1.label, t2.label))
    return None


def subtype(t1: Type, t2: Type) -> bool:
    """Structural subtyping.

    Base types are covariant in their label. Arrows are contravariant in the
    argument and the latent label, covariant in the result and their own
    label. References are invariant in content (mutability) and covariant in
    label. Records use width and depth subtyping with a covariant label.
    """
    match (t1, t2):
        case (BoolType(), BoolType()) | (UnitType(), UnitType()) | (LatType(), LatType()):
            return label_leq(t1.label, t2.label)
        case (RefType(), RefType()):
            return t1.content == t2.content and label_leq(t1.label, t2.label)
        case (ArrowType(), ArrowType()):
            return (
                subtype(t2.arg, t1.arg)
                and subtype(t1.result, t2.result)
                and label_leq(t1.label, t2.label)
                and label_leq(t2.latent, t1.latent)
            )
        case (RecordType(), RecordType()):
            have = dict(t1.fields)
            return label_leq(t1.label, t2.label) and all(
                name in have and subtype(have[name], want)
                for name, want in t2.fields
            )
        case _:
            return False


def map_labels(t: Type, f: Callable[[Label], Label]) -> Type:
    """Rewrite every label in a type, outer and inner."""
    match t:
        case BoolType() | UnitType() | LatType():
            return with_label(t, f(t.label))
        case RefType(label=lab, content=c):
            return RefType(f(lab), map_labels(c, f))
        case ArrowType(arg=a, latent=latent, result=r, label=lab):
            return ArrowType(map_labels(a, f), f(latent), map_labels(r, f), f(lab))
        case RecordType(fields=fs, label=lab):
            return RecordType(tuple((n, map_labels(ft, f)) for n, ft in fs), f(lab))
    raise TypeError(f"not a type: {t!r}")


def erase_labels(t: Type) -> Type:
    return map_labels(t, lambda _: LOC)


def same_raw_shape(t1: Type, t2: Type) -> bool:
    """Equal after forgetting every label; separates flow errors from shape errors."""
    return erase_labels(t1) == erase_labels(t2)


def ref_free(t: Type) -> bool:
    """No reference constructor anywhere in the type."""
    match t:
        case RefType():
            return False
        case ArrowType(arg=a, result=r):
            return ref_free(a) and ref_free(r)
        case RecordType(fields=fs):
            return all(ref_free(ft) for _, ft in fs)
        case _:
            return True


# ---------------------------------------------------------------------------
# Raw and labeled values

class BoolVal(Frozen):
    value: bool


class UnitVal(Frozen):
    pass


UNIT = UnitVal()


class Closure(Frozen):
    latent: Label
    param: str
    param_type: Type
    body: "Term"


class RecordVal(Frozen):
    fields: tuple[tuple[str, "LabeledValue"], ...]   # sorted by field name


RawValue = Union[LatticeValue, BoolVal, UnitVal, Closure, Location, RecordVal]


class Plain(Frozen):
    raw: RawValue
    label: Label


class Duplicated(Frozen):
    """Marker produced when a reference is created under a taken identifier.

    Opaque: printable and comparable, but it cannot be dereferenced or
    assigned through.
    """

    inner: "Term"


LabeledValue = Union[Plain, Duplicated]


def raise_label(v: LabeledValue, lab: Label) -> LabeledValue:
    """Stamp a value with a label join; duplicated markers are left alone."""
    if isinstance(v, Plain):
        return Plain(v.raw, label_join(v.label, lab))
    return v


# ---------------------------------------------------------------------------
# Terms

class Var(Frozen):
    name: str
    pos: Optional[Pos] = None


class Lit(Frozen):
    value: LabeledValue
    pos: Optional[Pos] = None


class Restrict(Frozen):
    """t[l]: raises the effect while t runs and joins l onto the result.

    Also serves as the runtime effect frame introduced by taken branches
    and function application.
    """

    term: "Term"
    label: Label
    pos: Optional[Pos] = None


class LatOp(Frozen):
    op: str                    # "join" | "meet"
    left: "Term"
    right: "Term"
    pos: Optional[Pos] = None


class OrdOp(Frozen):
    op: str                    # "le" | "lt"
    left: "Term"
    right: "Term"
    pos: Optional[Pos] = None


class App(Frozen):
    fn: "Term"
    arg: "Term"
    pos: Optional[Pos] = None


class If(Frozen):
    cond: "Term"
    then: "Term"
    els: "Term"
    pos: Optional[Pos] = None


class Ref(Frozen):
    label: Label
    init: "Term"
    ident: Identifier
    pos: Optional[Pos] = None


class Await(Frozen):
    ident: Identifier
    pos: Optional[Pos] = None


class Deref(Frozen):
    term: "Term"
    pos: Optional[Pos] = None


class Assign(Frozen):
    target: "Term"
    value: "Term"
    pos: Optional[Pos] = None


class FlexRead(Frozen):
    label: Label               # con or ava only
    term: "Term"
    pos: Optional[Pos] = None


class FlexWrite(Frozen):
    label: Label               # con or ava only
    target: "Term"
    value: "Term"
    pos: Optional[Pos] = None


class Record(Frozen):
    fields: tuple[tuple[str, "Term"], ...]   # source order
    label: Label
    pos: Optional[Pos] = None


class Proj(Frozen):
    term: "Term"
    name: str
    pos: Optional[Pos] = None


class Clone(Frozen):
    label: Label
    term: "Term"
    ident: Identifier
    pos: Optional[Pos] = None


class Let(Frozen):
    """Binding sugar; runs the body under the ambient effect."""

    name: str
    bound: "Term"
    body: "Term"
    pos: Optional[Pos] = None


Term = Union[
    Var, Lit, Restrict, LatOp, OrdOp, App, If, Ref, Await, Deref, Assign,
    FlexRead, FlexWrite, Record, Proj, Clone, Let,
]


class Program(Frozen):
    servers: int
    clients: tuple[tuple[int, Term], ...]


# ---------------------------------------------------------------------------
# Term structure

# A Record's children are the terms of its (name, term) pairs, all strict
# (None below); its children and rebuild are defined apart.
TERM_FIELDS: dict[type, tuple[tuple[str, ...], Optional[int]]] = {
    Var: ((), 0),
    Lit: ((), 0),
    Restrict: (("term",), 1),
    LatOp: (("left", "right"), 2),
    OrdOp: (("left", "right"), 2),
    App: (("fn", "arg"), 2),
    If: (("cond", "then", "els"), 1),
    Ref: (("init",), 1),
    Await: ((), 0),
    Deref: (("term",), 1),
    Assign: (("target", "value"), 2),
    FlexRead: (("term",), 1),
    FlexWrite: (("target", "value"), 2),
    Record: ((), None),
    Proj: (("term",), 1),
    Clone: (("term",), 1),
    Let: (("bound", "body"), 1),
}


# straight-line code, such as `lambda t: (t.term,)` and `lambda t, kids:
# cls(kids[0], t.label, t.pos)`; attrgetter beats a Python getter for 2+ children
def _getter(names: tuple[str, ...]) -> Callable[[Term], tuple]:
    if len(names) > 1:
        return attrgetter(*names)
    return eval(f"lambda t: ({''.join(f't.{n},' for n in names)})")


def _maker(cls: type, names: tuple[str, ...]) -> Callable[[Term, tuple], Term]:
    args = ", ".join(f"kids[{names.index(f)}]" if f in names else f"t.{f}" for f in fields(cls))
    return eval(f"lambda t, kids: cls({args})", {"cls": cls})


_CHILDREN = {cls: _getter(names) for cls, (names, _) in TERM_FIELDS.items()}
_CHILDREN[Record] = lambda t: tuple(s for _, s in t.fields)
_MAKERS = {cls: _maker(cls, names) for cls, (names, _) in TERM_FIELDS.items()}
_MAKERS[Record] = lambda t, kids: Record(
    tuple((n, k) for (n, _), k in zip(t.fields, kids)), t.label, t.pos)


def children(t: Term) -> tuple[Term, ...]:
    """The term's immediate subterms in evaluation order."""
    return _CHILDREN[t.__class__](t)


def rebuild(t: Term, kids: tuple[Term, ...]) -> Term:
    """A node like t with its children replaced, position by position."""
    return _MAKERS[t.__class__](t, kids)


def map_children(t: Term, f: Callable[[Term], Term]) -> Term:
    """t with f applied to each child; t itself when f changes none."""
    kids = children(t)
    new = tuple(map(f, kids))
    return t if all(map(is_, new, kids)) else rebuild(t, new)


def map_value(v: LabeledValue, on_term: Callable[[Term], Term],
              on_value: Callable[[LabeledValue], LabeledValue]) -> LabeledValue:
    """v with on_term applied to the term it holds (a closure body or a
    duplicated creation) and on_value to each record field; v itself when
    they change nothing, and every other value comes back as it is."""
    if isinstance(v, Duplicated):
        inner = on_term(v.inner)
        return v if inner is v.inner else Duplicated(inner)
    raw = v.raw
    if isinstance(raw, Closure):
        body = on_term(raw.body)
        return v if body is raw.body else Plain(
            Closure(raw.latent, raw.param, raw.param_type, body), v.label)
    if isinstance(raw, RecordVal):
        fields = tuple((n, on_value(fv)) for n, fv in raw.fields)
        same = all(new is old for (_, new), (_, old) in zip(fields, raw.fields))
        return v if same else Plain(RecordVal(fields), v.label)
    return v


# ---------------------------------------------------------------------------
# Location occurrence

def map_locations(t: Term, f: Callable[[Location], Location]) -> Term:
    """t with f applied to every location it holds, through values, records
    and abstraction bodies; t itself when f changes none. A let spine is
    walked in a loop: its bound terms top down, then its body, then rebuilt
    from the bottom up where something changed."""
    def term(s: Term) -> Term:
        if s.__class__ is Lit:
            v = value(s.value)
            return s if v is s.value else Lit(v, s.pos)
        if s.__class__ is not Let:
            return map_children(s, term)
        spine = []
        while s.__class__ is Let:
            spine.append((s, term(s.bound)))
            s = s.body
        s = term(s)
        for let, bound in reversed(spine):
            s = let if bound is let.bound and s is let.body else Let(let.name, bound, s, let.pos)
        return s

    def value(v: LabeledValue) -> LabeledValue:
        if isinstance(v, Plain) and isinstance(v.raw, Location):
            o = f(v.raw)
            return v if o is v.raw else Plain(o, v.label)
        return map_value(v, term, value)

    return term(t)


def refs(t: Term) -> frozenset[Location]:
    """Locations occurring syntactically in a term, through values, records
    and abstraction bodies."""
    out: set[Location] = set()

    def see(o: Location) -> Location:
        out.add(o)
        return o

    map_locations(t, see)
    return frozenset(out)


def value_locations(v: LabeledValue) -> frozenset[Location]:
    return refs(Lit(v))


# ---------------------------------------------------------------------------
# Pretty-printing (inverse of the parser on parsed terms)

_TERM, _ASSIGN, _BINOP, _APP, _PREFIX, _ATOM = range(6)

# the binary operators: name -> (form, spelling)
OPERATORS = {"join": (LatOp, "\\/"), "meet": (LatOp, "/\\"),
             "le": (OrdOp, "<="), "lt": (OrdOp, "<")}

# every form but Lit and Record: its level, a str.format template over its
# printed children ({0}, ...), the node (t) and the operator spelling (op),
# and the level each child is printed at (a lower one gets parentheses)
TERM_LAYOUT: dict[type, tuple[int, str, tuple[int, ...]]] = {
    Var: (_ATOM, "{t.name}", ()),
    Restrict: (_ATOM, "{0}[{t.label}]", (_ATOM,)),
    Proj: (_ATOM, "{0}.{t.name}", (_ATOM,)),
    Deref: (_PREFIX, "!{0}", (_PREFIX,)),
    App: (_APP, "{0} {1}", (_APP, _PREFIX)),
    LatOp: (_BINOP, "{0} {op} {1}", (_BINOP, _APP)),
    OrdOp: (_BINOP, "{0} {op} {1}", (_BINOP, _APP)),
    Assign: (_ASSIGN, "{0} := {1}", (_BINOP, _BINOP)),
    If: (_TERM, "if {0} then {{ {1} }} else {{ {2} }}", (_TERM, _TERM, _TERM)),
    Let: (_TERM, "let {t.name} = {0} in {1}", (_TERM, _TERM)),
    Ref: (_ATOM, "ref@{t.label}({0}, {t.ident})", (_TERM,)),
    Clone: (_ATOM, "clone@{t.label}({0}, {t.ident})", (_TERM,)),
    Await: (_ATOM, "await({t.ident})", ()),
    FlexRead: (_ATOM, "flexread@{t.label}({0})", (_TERM,)),
    FlexWrite: (_ATOM, "flexwrite@{t.label}({0}, {1})", (_TERM, _TERM)),
}


def pretty(t: Term, level: int = _TERM) -> str:
    s, lv = _pp(t)
    return f"({s})" if lv < level else s


def _pp(t: Term) -> tuple[str, int]:
    cls = t.__class__
    if cls is Lit:
        return _pp_value(t.value)
    if cls is Record:
        inner = ", ".join(f"{n} = {pretty(ft, _TERM)}" for n, ft in t.fields)
        return f"{{{inner}}}@{t.label}", _ATOM
    level, template, needs = TERM_LAYOUT[cls]
    if cls is Let:      # a spine in a loop; its body needs no parentheses
        heads = []
        while t.__class__ is Let:
            heads.append(template.format(pretty(t.bound, needs[0]), "", t=t))
            t = t.body
        return "".join(heads) + pretty(t), level
    op = OPERATORS[t.op][1] if cls is LatOp or cls is OrdOp else None
    return template.format(*map(pretty, children(t), needs), t=t, op=op), level


def _pp_value(v: LabeledValue) -> tuple[str, int]:
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


def pretty_type(t: Type) -> str:
    match t:
        case BoolType(label=lab):
            return f"Bool@{lab}"
        case UnitType(label=lab):
            return f"Unit@{lab}"
        case LatType(label=lab):
            return f"Lat@{lab}"
        case RefType(label=lab, content=c):
            return f"Ref@{lab} {pretty_type(c)}"
        case ArrowType(arg=a, latent=latent, result=r, label=lab):
            return f"({pretty_type(a)} - {latent} -> {pretty_type(r)})@{lab}"
        case RecordType(fields=fs, label=lab):
            inner = ", ".join(f"{n}: {pretty_type(ft)}" for n, ft in fs)
            return f"{{{inner}}}@{lab}"
    raise TypeError(f"not a type: {t!r}")

