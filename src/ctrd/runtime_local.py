"""Small-step reduction local to one client.

A client is a residual term with its decomposition into evaluation context
and redex, plus a local store, a FIFO message buffer, and a local identifier
map. Every rule that touches only the client's own state, available writes
and replica reads included, fires here, in place on the client; which
redexes those are is decided only by runtime_cloud._route.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional, Union

from .lattice import DomainMismatch, GSet, NatMax, lat_join, lat_leq, lat_lt, lat_meet
from .record import Frozen
from .syntax import (
    App, Assign, AVA, Await, BoolVal, Clone, Closure, CON, Deref, Duplicated,
    FlexRead, FlexWrite, Identifier, If, Label, LatOp, Let, Lit, Location,
    LOC, OAC, OrdOp, Plain, Proj, Record, RecordVal, Ref, Restrict,
    TERM_FIELDS, Term, UNIT, Var, children, label_join, map_children,
    raise_label, rebuild as rebuild_node,
)


class CtrdRuntimeError(Exception):
    """Interpreter fault: kind is one of DuplicatedIdentifier,
    DomainMismatch, Stuck, DanglingLocation."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


class EventId(NamedTuple):
    """Event n of a client; events order by client, then n."""

    client: int
    n: int

    def __str__(self) -> str:
        return f"c{self.client}:{self.n}"

    def sort_key(self) -> tuple[int, int]:     # bench/run.py sorts by it
        return (self.client, self.n)


_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def _flags(m: int) -> bytes:
    """Byte i is 1 when bit i of m is set, else 0."""
    return f"{m:b}".encode()[::-1].translate(_ZERO_ONE)


# An event mask is laid out over a tuple of sorted client ids: event n of
# the client in slot s of K is bit (n - 1) * K + s, so a client's events
# are every K-th bit from its slot. Log and AbstractExecution both use it.

def event_bit(clients: tuple[int, ...], e: EventId) -> int:
    """The bit of e in a mask over clients, which must hold e's client."""
    return (e.n - 1) * len(clients) + clients.index(e.client)


def bit_event(clients: tuple[int, ...], i: int) -> EventId:
    """The event at bit i of a mask over clients: event_bit's inverse."""
    n, s = divmod(i, len(clients))
    return EventId(clients[s], n + 1)


class Log:
    """An event log as a persistent list (Okasaki, Purely Functional Data
    Structures, 1998): an immutable cell (event, tail) listing its event
    before its tail's, down to a base, a set of events listed in (client,
    n) order. A server log grows from an empty base, one cell per event;
    the common log is a base. Each keeps its length and its events as a
    mask over the sorted client ids of its configuration (event_bit), so a
    push, a snapshot and the event set each cost O(1)."""

    __slots__ = ("event", "tail", "len", "mask", "clients")

    def __init__(self, event: EventId, tail: "Log"):
        self.event, self.tail, self.len, self.clients = event, tail, tail.len + 1, tail.clients
        self.mask = tail.mask | 1 << event_bit(tail.clients, event)

    @staticmethod
    def base(mask: int, clients: tuple[int, ...]) -> "Log":
        log = object.__new__(Log)
        log.event = log.tail = None
        log.len, log.mask, log.clients = mask.bit_count(), mask, clients
        return log

    def __contains__(self, e: EventId) -> bool:
        return e.client in self.clients and e.n >= 1 and bool(
            self.mask >> event_bit(self.clients, e) & 1)


# what a read served from the client's own store sees of the server logs
NO_EVENTS = Log.base(0, ())


# Where a read was served from: ("local", client) | ("server", idx) | ("servers",)
Source = tuple


@dataclass(slots=True)
class Action:
    """One step's observable effect: the running effect label plus an
    optional rd/wr/ref operation record. Never hashed or keyed, so not
    frozen: a frozen record (ctrd.record) pays a call per field to build.
    Nothing writes an action after its step, so eps shares one per label."""

    effect: Label
    kind: str = "eps"                      # "rd" | "wr" | "ref" | "eps"
    label: Optional[Label] = None          # consistency level of the operation
    event: Optional[EventId] = None
    location: Optional[Location] = None
    value: Optional[object] = None         # LabeledValue
    source: Optional[Source] = None
    snapshot: Optional[Log] = None         # seen: a server's cell, the common base, NO_EVENTS
    literal_label: Optional[Label] = None  # as spelled by the rule, when it differs
    synced: bool = False                   # one atomic step across every server


_EPS = {lab: Action(lab) for lab in Label}     # one internal step's action per label


def eps(effect: Label) -> Action:
    return _EPS[effect]


class Update(Frozen, order=True):
    """Buffered asynchronous write, carried until it is in every server's
    log. The server logs are the only record of where it has landed, so a
    message never changes between entering and leaving the mailbox. No two
    messages share an event, so messages order by it; the sender is
    event.client."""

    event: EventId
    location: Location
    ident: Optional[Identifier]
    value: object                  # LabeledValue, unstamped payload
    effect: Label


class Req(Frozen, order=True):
    """Request for a fresher state of an identified location; ordered by its
    event, the requester's, like an Update."""

    event: EventId
    ident: Identifier
    effect: Label


Message = Union[Update, Req]


def message_id(m: Message, table: dict) -> int:
    """The int the intern table gives m. Kept in m's __dict__, outside its
    record fields, until another table is asked; building a message
    costs nothing for it, and a message does not change in flight, so it
    is hashed once per table however often it is delivered."""
    held = m.__dict__.get("_message_id")
    if held is None or held[0] is not table:
        held = m.__dict__["_message_id"] = (table, table.setdefault(m, len(table)))
    return held[1]


class Interned:
    """A value whose key() is mapped to a small int by an intern table.

    explore keys a state by the ints of its parts (collapse compression,
    Holzmann 1997): a part a step leaves alone keeps its int and is not
    hashed again. key_id asks the table once and keeps the int until it is
    asked about another table. Subclasses have `_table` and `_id` slots,
    with `_table` None until the first call. An object is interned only
    once it no longer changes, so the kept int stays exact. Clients and
    servers key their fields, terms and stores included; an execution keys
    the ints of its events (AbstractExecution.key_id).
    """

    __slots__ = ()

    def key_id(self, table: dict) -> int:
        if self._table is not table:
            self._id = table.setdefault(self.key(), len(table))
            self._table = table
        return self._id


def sorted_items(d: dict) -> tuple:
    """The items of a map keyed by locations or identifiers, in the order
    of their keys, which order themselves by their fields."""
    return tuple(sorted(d.items()))


@dataclass(slots=True)
class ClientState(Interned):
    """One client. A client keyed or asked for its choices (enabled keeps them
    and its route in _choices) is never mutated; a step steps the plain copy
    CloudConfig.own_client takes, which starts without them. pending holds, by
    name, the values the root let spine waits on (a CEK environment, Felleisen
    & Friedman 1986), the only names term is open in (see bind)."""

    cid: int
    term: Term
    redex: Optional[Redex]                 # decompose(term), kept by plug
    store: dict[Location, object]          # Location -> LabeledValue
    buffer: tuple[Message, ...]
    idmap: dict[Identifier, Location]
    loc_counter: int = 0
    event_counter: int = 0
    pending: tuple[tuple[str, Lit], ...] = ()
    _table: Optional[dict] = field(default=None, init=False, repr=False, compare=False)
    _id: int = field(default=0, init=False, repr=False, compare=False)
    _choices: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> "ClientState":
        return ClientState(self.cid, self.term, self.redex, dict(self.store), self.buffer,
                           dict(self.idmap), self.loc_counter, self.event_counter, self.pending)

    def plug(self, result: Term) -> None:
        """Replace the redex by result. Only bind also changes a client's
        term, so the decomposition is computed once per step."""
        self.term = self.redex.rebuild(result)
        self.redex = decompose(self.term)

    def bind(self, x: str, v: Lit) -> None:
        """E-LET at the root, at the cost of the next bound term, not of the
        spine: only that term is closed, by one subst walk with the pending
        values and x's, and pending keeps, in name order, those the rest of
        the spine holds free and the next let does not rebind. A body that
        is not a let is closed."""
        env = dict((*self.pending, (x, v)))
        body = self.term.body
        if body.__class__ is Let:
            rest, y = free_names(body.body), body.name
            bound = subst(body.bound, env)
            self.term = body if bound is body.bound else Let(y, bound, body.body, body.pos)
            kept = [p for p in self.pending if p[0] in rest and p[0] != y and p[0] != x]
            if x in rest and x != y:
                insort(kept, (x, v))    # names are distinct, so only they compare
            self.pending = tuple(kept)
        else:
            self.term, self.pending = subst(body, env), ()
        self.redex = decompose(self.term)

    def closed_term(self) -> Term:
        """The whole residual program: term with the pending values put in."""
        return subst(self.term, dict(self.pending))

    def fresh_location(self, remote: bool) -> Location:
        self.loc_counter += 1
        return Location(self.cid, self.loc_counter, remote)

    def fresh_event(self) -> EventId:
        self.event_counter += 1
        return EventId(self.cid, self.event_counter)

    def getkey(self, loc: Location) -> Optional[Identifier]:
        hits = [ident for ident, o in self.idmap.items() if o == loc]
        if len(hits) > 1:
            raise CtrdRuntimeError("Stuck", f"multiple identifiers map to {loc}")
        return hits[0] if hits else None

    def key(self):
        """One-to-one with the closed term's: pending holds names free in term."""
        return (self.cid, self.term, self.pending, sorted_items(self.store), self.buffer,
                sorted_items(self.idmap), self.loc_counter, self.event_counter)


def initial_client(cid: int, term: Term) -> ClientState:
    return ClientState(cid, term, decompose(term), {}, (), {})


# ---------------------------------------------------------------------------
# Decomposition into evaluation context + redex

@dataclass(slots=True)
class Redex:
    """The redex, the effect it runs under, and the (node, child index)
    frames of its evaluation context from the root down; not frozen, as
    Action."""

    term: Term
    effect: Label
    path: tuple[tuple[Term, int], ...]

    def rebuild(self, result: Term) -> Term:
        """Plug a term into the evaluation context."""
        for node, i in reversed(self.path):
            kids = children(node)
            result = rebuild_node(node, kids[:i] + (result,) + kids[i + 1:])
        return result


def decompose(term: Term) -> Optional[Redex]:
    """Locate the leftmost-innermost evaluation position; None for a value."""
    if term.__class__ is Lit:
        return None
    t, eff, path = term, LOC, []
    while True:
        cls = t.__class__
        kids = children(t)
        strict = TERM_FIELDS[cls][1]
        for i in range(len(kids) if strict is None else strict):
            if kids[i].__class__ is not Lit:
                break
        else:
            return Redex(t, eff, tuple(path))
        path.append((t, i))
        if cls is Restrict:
            eff = label_join(eff, t.label)
        t = kids[i]


# ---------------------------------------------------------------------------
# Substitution (call-by-value: substituted terms are closed values)

_NO_NAMES: frozenset[str] = frozenset()


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    # most unions add nothing; hand back an operand rather than a new set
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def free_names(t: Term) -> frozenset[str]:
    """The names of t that subst(t, env) replaces when env holds them.

    A Var gives its name; a closure literal gives the free names of its
    body less its parameter; every other literal gives none, since subst
    does not enter duplicated markers or record values; a Let gives the
    free names of its bound term and those of its body less its own name;
    every other form gives the union of its children's. Terms are
    immutable, so the set is computed once per node and kept in the node's
    __dict__ (outside its record fields, so equality, hashing and repr
    do not see it). A let spine is walked in a loop, down to its first
    node with a kept set, and its sets are kept on the way back up.
    """
    try:
        return t._free_names
    except AttributeError:
        pass
    cls = t.__class__
    if cls is Let:
        spine = []
        while t.__class__ is Let and "_free_names" not in t.__dict__:
            spine.append(t)
            t = t.body
        fv = free_names(t)
        for let in reversed(spine):
            if let.name in fv:
                fv = fv - {let.name}
            fv = _union(free_names(let.bound), fv)
            let.__dict__["_free_names"] = fv
        return fv
    if cls is Var:
        fv = frozenset((t.name,))
    elif cls is Lit:
        v = t.value
        fv = _NO_NAMES
        if v.__class__ is Plain and v.raw.__class__ is Closure:
            fv = free_names(v.raw.body)
            if v.raw.param in fv:
                fv = fv - {v.raw.param}
    else:
        fv = _NO_NAMES
        for c in children(t):
            fv = _union(fv, free_names(c))
    t.__dict__["_free_names"] = fv
    return fv


def subst(t: Term, env: dict[str, Term]) -> Term:
    """t with each name of env put in by its closed value, in one walk.

    The values are closed (call-by-value substitutes values, and a
    program's values carry no free names), so no binder in t can capture
    them and subst never renames. A subterm that holds no name of env
    free, by free_names, comes back as itself without being entered: a
    step costs the paths to the occurrences it replaces, not the size of
    t. A let spine is walked in a loop, down to the first let that rebinds
    a name of env or whose body holds none free, then rebuilt from there
    up. Below a let or a closure parameter that rebinds a name the walk
    goes on without it. The walk (_subst) calls itself, not a closure that
    refers to itself, so a call leaves no reference cycle for the collector.
    """
    return _subst(env, t)


def _subst(env: dict[str, Term], t: Term) -> Term:
    if free_names(t).isdisjoint(env):
        return t
    cls = t.__class__
    if cls is Var:
        return env[t.name]
    if cls is Lit:          # a closure
        v = t.value
        c = v.raw
        body = _subst(_without(env, c.param) if c.param in env else env, c.body)
        return Lit(Plain(Closure(c.latent, c.param, c.param_type, body), v.label), t.pos)
    if cls is not Let:
        return map_children(t, partial(_subst, env))
    spine = []              # lets that hold a name of env free, top down
    while True:
        spine.append(t)
        if t.name in env:   # its body is out of that name's scope
            body = _subst(_without(env, t.name), t.body)
            break
        t = t.body
        if t.__class__ is not Let or free_names(t).isdisjoint(env):
            body = _subst(env, t)
            break
    for let in reversed(spine):
        body = Let(let.name, _subst(env, let.bound), body, let.pos)
    return body


def _without(env: dict[str, Term], name: str) -> dict[str, Term]:
    return {x: v for x, v in env.items() if x != name}


# ---------------------------------------------------------------------------
# Local stepping

_OP_FN = {"join": lat_join, "meet": lat_meet,
          "le": lambda a, b: BoolVal(lat_leq(a, b)),
          "lt": lambda a, b: BoolVal(lat_lt(a, b))}


def _lattice_apply(fn, v1, v2, r: Optional[Term] = None):
    """fn on two plain lattice values, labelled with the join of theirs;
    faults name r, the redex of E-LATOP or E-ORDOP, or a merge if None."""
    if not (isinstance(v1, Plain) and isinstance(v2, Plain)):
        raise CtrdRuntimeError("DuplicatedIdentifier", "cannot merge a duplicated marker"
                               if r is None else "lattice operation on a duplicated marker")
    if not isinstance(v1.raw, (NatMax, GSet)) or not isinstance(v2.raw, (NatMax, GSet)):
        raise CtrdRuntimeError("Stuck", f"cannot merge non-lattice values {v1} and {v2}"
                               if r is None else f"lattice operation on non-lattice values in {r!r}")
    try:
        return Plain(fn(v1.raw, v2.raw), label_join(v1.label, v2.label))
    except DomainMismatch as e:
        raise CtrdRuntimeError("DomainMismatch", str(e)) from None


def merge_values(v1, v2):
    """Lattice join of two plain lattice values; labels join alongside."""
    return _lattice_apply(lat_join, v1, v2)


def join_into(store: dict, o: Location, v) -> None:
    """Install v in a replica of o by join: a replica never moves down."""
    store[o] = merge_values(store[o], v) if o in store else v


def cell_operand(v, dup: Optional[str], nonloc: str) -> tuple[Location, Label]:
    """The location and label of a store operation's cell. A duplicated
    marker faults with message dup (Stuck with nonloc if dup is None)."""
    if isinstance(v, Plain) and isinstance(v.raw, Location):
        return v.raw, v.label
    if dup is not None and isinstance(v, Duplicated):
        raise CtrdRuntimeError("DuplicatedIdentifier", dup)
    raise CtrdRuntimeError("Stuck", nonloc)


def _buffered_write(c: ClientState, o: Location, v, eff: Label,
                    ident: Optional[Identifier]) -> EventId:
    """E-AVAREF, E-AVAASSIGN and E-FLEXWRT-AVA: join v, stamped, into the
    client's replica of o and buffer it unstamped under a fresh event."""
    join_into(c.store, o, raise_label(v, label_join(eff, AVA)))
    nu = c.fresh_event()
    c.buffer = c.buffer + (Update(nu, o, ident, v, eff),)
    return nu


def step_local(c: ClientState) -> tuple[str, Action]:
    """Fire the unique local rule at the client's redex.

    The client must not be finished. The rule fires in place on the client,
    which the caller owns, and (rule, action) comes back; a root E-LET binds
    (ClientState.bind), any other substitutes. Only the redexes that
    runtime_cloud._route sends here step; any other, one that needs the
    servers or the global identifier map, is Stuck and leaves the client
    untouched.
    """
    r, eff = c.redex.term, c.redex.effect

    def done(result: Term, action: Action, rule: str) -> tuple[str, Action]:
        c.plug(result)
        return rule, action

    match r:
        case LatOp(op=op, left=a, right=b) | OrdOp(op=op, left=a, right=b):
            return done(Lit(_lattice_apply(_OP_FN[op], a.value, b.value, r)), eps(eff),
                        "E-LATOP" if r.__class__ is LatOp else "E-ORDOP")

        case App(fn=Lit(value=vf), arg=Lit() as arg):
            if not (isinstance(vf, Plain) and isinstance(vf.raw, Closure)):
                raise CtrdRuntimeError("Stuck", "application of a non-closure value")
            body = subst(vf.raw.body, {vf.raw.param: arg})
            # run under the closure's own label and join it onto the result
            return done(Restrict(body, vf.label), eps(eff), "E-BETA")

        case If(cond=Lit(value=vc), then=a, els=b):
            if not (isinstance(vc, Plain) and isinstance(vc.raw, BoolVal)):
                raise CtrdRuntimeError("Stuck", "non-boolean condition")
            branch = a if vc.raw.value else b
            # the taken branch runs under the guard's label
            return done(Restrict(branch, vc.label), eps(eff),
                        "E-IF-TRUE" if vc.raw.value else "E-IF-FALSE")

        case Restrict(term=Lit(value=v), label=lab):
            return done(Lit(raise_label(v, lab)), eps(eff), "E-RESTRICT")

        case Let(name=x, bound=Lit() as b, body=body):
            if c.redex.path:    # a let in bound position or under a Restrict
                return done(subst(body, {x: b}), eps(eff), "E-LET")
            c.bind(x, b)
            return "E-LET", eps(eff)

        case Record(fields=fs, label=lab):
            vals = tuple(sorted((n, ft.value) for n, ft in fs))
            return done(Lit(Plain(RecordVal(vals), lab)), eps(eff), "E-RECORD")

        case Proj(term=Lit(value=v), name=name):
            if not (isinstance(v, Plain) and isinstance(v.raw, RecordVal)):
                raise CtrdRuntimeError("Stuck", "projection from a non-record value")
            for n, fv in v.raw.fields:
                if n == name:
                    return done(Lit(raise_label(fv, v.label)), eps(eff), "E-PROJ")
            raise CtrdRuntimeError("Stuck", f"record has no field {name!r}")

        case Ref(label=Label.LOC | Label.AVA, ident=ident) if ident in c.idmap:
            return done(Lit(Duplicated(r)), eps(eff), "E-REF-DUP")

        case Ref(label=Label.LOC, init=Lit(value=v), ident=ident):
            o = c.fresh_location(remote=False)
            c.store[o] = raise_label(v, eff)
            c.idmap[ident] = o
            return done(Lit(Plain(o, LOC)), eps(eff), "E-LOCALREF")

        case Ref(label=Label.AVA, init=Lit(value=v), ident=ident):
            o = c.fresh_location(remote=True)
            c.idmap[ident] = o
            nu = _buffered_write(c, o, v, eff, ident)
            return done(Lit(Plain(o, AVA)), Action(eff, "ref", AVA, nu, o, v), "E-AVAREF")

        case Await(ident=ident) if ident in c.idmap:
            o = c.idmap[ident]
            return done(Lit(Plain(o, ident.label)), eps(eff), "E-AWAIT1")

        case Deref(term=Lit(value=v)):
            o, lab = cell_operand(v, "dereference of a duplicated marker",
                                  "dereference of a non-location")
            if lab == LOC:
                if o not in c.store:
                    raise CtrdRuntimeError("DanglingLocation", f"{o} not in the local store")
                return done(Lit(c.store[o]), eps(eff), "E-LOCALDEREF")
            if lab == AVA and o in c.store:
                result = raise_label(c.store[o], AVA)
                ident = c.getkey(o)
                if ident is None:
                    raise CtrdRuntimeError("Stuck", f"no identifier for {o}")
                nu = c.fresh_event()
                c.buffer = c.buffer + (Req(nu, ident, eff),)
                act = Action(eff, "rd", AVA, nu, o, result,
                             source=("local", c.cid), snapshot=NO_EVENTS)
                return done(Lit(result), act, "E-AVADEREF1")
            if lab == OAC:
                raise CtrdRuntimeError("Stuck", "dereference of an oac location")

        case Assign(target=Lit(value=vt), value=Lit(value=vv)):
            o, lab = cell_operand(vt, "assignment through a duplicated marker",
                                  "assignment to a non-location")
            if lab == LOC:
                if o not in c.store:
                    raise CtrdRuntimeError("DanglingLocation", f"{o} not in the local store")
                c.store[o] = raise_label(vv, eff)
                return done(Lit(Plain(UNIT, LOC)), eps(eff), "E-LOCALASSIGN")
            if lab == AVA:
                nu = _buffered_write(c, o, vv, eff, c.getkey(o))
                return done(Lit(Plain(UNIT, AVA)), Action(eff, "wr", AVA, nu, o, vv),
                            "E-AVAASSIGN")
            if lab == OAC:
                raise CtrdRuntimeError("Stuck", "assignment to an oac location")

        case FlexWrite(label=lab, target=Lit(value=vt), value=Lit(value=v)):
            o, _ = cell_operand(vt, "flexwrite through a duplicated marker",
                                "flexwrite to a non-location")
            if lab == AVA:
                nu = _buffered_write(c, o, v, eff, c.getkey(o))
                # the rule spells the action label con; semantically this is
                # the buffered (available) write
                act = Action(eff, "wr", AVA, nu, o, v, literal_label=CON)
                return done(Lit(Plain(UNIT, AVA)), act, "E-FLEXWRT-AVA")

        case FlexRead(label=lab, term=Lit(value=v)):
            o, _ = cell_operand(v, "flexread through a duplicated marker",
                                "flexread of a non-location")
            if lab == AVA and o in c.store:
                result = raise_label(c.store[o], AVA)
                act = Action(eff, "rd", AVA, c.fresh_event(), o, result,
                             source=("local", c.cid), snapshot=NO_EVENTS)
                return done(Lit(result), act, "E-FLEXRD-AVA")

        case Var(name=n):
            raise CtrdRuntimeError("Stuck", f"free variable {n!r} at runtime")

    raise CtrdRuntimeError("Stuck", f"no rule applies to {r!r}")
