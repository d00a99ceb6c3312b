"""Distributed reduction over the whole configuration.

A configuration is a set of clients, a multiset of in-flight messages, a set
of replica servers, and a global identifier map. Consistent operations touch
every server in one atomic step (consensus is abstracted to that step);
available operations go through buffered update messages delivered one
server at a time. Only rules that touch the servers or the global map fire
here; _route says where each redex steps, and sends the rest to step_local.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache, reduce
from operator import and_, attrgetter, itemgetter
from typing import Callable, NamedTuple, Optional

from .clone import clone_step
# decompose is not called here; the name is kept so that tools wrapping it
# from outside the package find it where step_local is looked up
from .runtime_local import (
    Action, ClientState, CtrdRuntimeError, EventId, Interned, Log,
    Message, Req, Update, cell_operand, decompose, eps, event_bit, initial_client,
    join_into, merge_values, message_id, sorted_items, step_local,
)
from .syntax import (
    Assign, AVA, Await, Clone, CON, Deref, Duplicated, FlexRead, FlexWrite,
    Identifier, Label, Lit, Location, LOC, OAC, Plain, Program, Ref, Term,
    Type, UNIT, label_join, label_of, pretty, pretty_type, raise_label,
    subtype, type_join_label,
)
from .typecheck import (CheckError, TypeEnv, type_of_value,
                        typecheck as typecheck_term)


class IllegalChoice(Exception):
    """step_cloud was given a choice that enabled does not offer."""


class StateSpaceLimit(Exception):
    """Exploration exceeded the configured state budget."""


# ---------------------------------------------------------------------------
# Servers and configurations

@dataclass(slots=True)
class Server(Interned):
    """One replica: its store and its event log, a Log cell (newest event
    first). The key holds the log's mask: every reader of a log (a read's
    or a delivery's snapshot mask, check_ec, check_wf, the common log) sees
    only which events it holds, so the order they arrived in is left to run
    and --trace. A server is a value: a step that changes one builds a new
    Server and never writes a store in place, so configurations share
    servers and the int key_id keeps for its key stays exact."""

    store: dict[Location, object]       # Location -> LabeledValue
    seq: Log                            # newest first
    _table: Optional[dict] = field(default=None, init=False, repr=False, compare=False)
    _id: int = field(default=0, init=False, repr=False, compare=False)

    def key(self):
        return (sorted_items(self.store), self.seq.mask)


class CloudConfig:
    """Clients, the mailbox of in-flight messages, the replica servers, and
    the global identifier and store typing maps.

    The servers, the server list, the mailbox and the two maps are values:
    copy() shares them, and a step puts a new one in place of each part it
    changes and writes none in place. copy() shares the clients too; a
    handler steps the one plain copy own_client takes of its client.

    common, the events present in every server's log, is the AND of the
    server log masks; it is read where a rule records it and left out of
    the key.

    _key keeps (table, mailbox, global_ids, store_typing, int) once keyed,
    _messages (mailbox, servers, global_ids, the message choices) once
    asked, and _enabled keeps enabled(self) once asked, or None. A copy
    shares _key and _messages, which hold only while the parts they name
    are the very objects in place, and starts without _enabled, as a step
    replaces parts of it; a client's kept choices hold while the part they
    read is (see enabled).
    """

    __slots__ = ("clients", "mailbox", "servers", "global_ids", "store_typing", "id_typing",
                 "_key", "_messages", "_enabled")

    def __init__(self, clients: dict[int, ClientState], mailbox: tuple[Message, ...],
                 servers: list[Server], global_ids: dict[Identifier, Location],
                 store_typing: dict[Location, Type], id_typing: dict[Identifier, Type]):
        self.clients = clients
        self.mailbox = mailbox
        self.servers = servers
        self.global_ids = global_ids
        self.store_typing = store_typing
        self.id_typing = id_typing          # static; shared
        self._key = self._messages = self._enabled = None

    def copy(self) -> "CloudConfig":
        new = object.__new__(CloudConfig)
        new.clients, new.mailbox, new.servers = dict(self.clients), self.mailbox, self.servers
        new.global_ids, new.store_typing = self.global_ids, self.store_typing
        new.id_typing, new._key, new._messages = self.id_typing, self._key, self._messages
        new._enabled = None
        return new

    def own_client(self, cid: int) -> ClientState:
        """A plain copy of the client, put in its place; a handler takes one
        of the client it steps and steps it in place."""
        client = self.clients[cid] = self.clients[cid].copy()
        return client

    @property
    def common(self) -> Log:
        """The events in every server's log, as a base: the snapshot the
        synchronized rules record."""
        return Log.base(reduce(and_, [s.seq.mask for s in self.servers]),
                        self.servers[0].seq.clients)

    def type_location(self, o: Location, ident: Identifier) -> None:
        """Record a fresh allocation's typing from its identifier's, once."""
        if ident in self.id_typing and o not in self.store_typing:
            self.store_typing = {**self.store_typing, o: self.id_typing[ident]}

    def sync_write(self, client: ClientState, writes: dict) -> tuple[EventId, Log]:
        """Write every replica of writes' locations and push the client's
        next event onto every server log, one cell each, in one step;
        returns the event and the common log as it stood before, the
        snapshot the synchronized rules record."""
        nu, pre_common = client.fresh_event(), self.common
        self.servers = [Server({**s.store, **writes}, Log(nu, s.seq)) for s in self.servers]
        return nu, pre_common

    # -- keys ----------------------------------------------------------------

    def key(self, table: dict) -> tuple:
        """The key of the configuration's server-permutation orbit, from the
        ints the intern table gives its parts: the clients in client order,
        one int for the mailbox (the sorted message_id of its messages) and
        the two maps together (their sorted_items), and the servers sorted.
        A part's int is read where it is kept, so a key costs what the last
        step changed; a delivery that publishes nothing leaves the mailbox,
        the maps and their int untouched. For configurations with the same clients and
        number of servers, keys are equal exactly when one configuration is
        a server permutation of the other up to the order of each server's
        log."""
        held = self._key
        if held is None or held[0] is not table or held[1] is not self.mailbox \
                or held[2] is not self.global_ids or held[3] is not self.store_typing:
            parts = (tuple(sorted([message_id(m, table) for m in self.mailbox])),
                     sorted_items(self.global_ids), sorted_items(self.store_typing))
            held = self._key = (table, self.mailbox, self.global_ids, self.store_typing,
                                table.setdefault(parts, len(table)))
        clients = self.clients
        return (*[c._id if c._table is table else c.key_id(table)
                  for c in map(clients.__getitem__, sorted(clients))],
                held[4],
                *sorted([s._id if s._table is table else s.key_id(table) for s in self.servers]))


def initial_config(program: Program, id_types: dict[Identifier, Type],
                   servers: Optional[int] = None) -> CloudConfig:
    n = servers if servers is not None else program.servers
    empty = Log.base(0, tuple(sorted(cid for cid, _ in program.clients)))
    return CloudConfig(
        clients={cid: initial_client(cid, term) for cid, term in program.clients},
        mailbox=(),
        servers=[Server({}, empty) for _ in range(n)],
        global_ids={},
        store_typing={},
        id_typing=dict(id_types),
    )


# ---------------------------------------------------------------------------
# Step choices

class Kind(IntEnum):
    """The rule family of a step choice, in scheduling order."""
    CLIENT_STEP = 0
    AWAIT_RESOLVE = 1
    CON_READ = 2
    AVA_REMOTE_READ = 3
    SEND = 4
    DELIVER_UPDATE = 5
    PROCESS_REQ = 6
    GC_UPDATE = 7


# read once: len() of an enum class runs EnumType.__len__ in Python
_KINDS = len(Kind)
_KIND, _EVENT = itemgetter(0), attrgetter("event")


class Choice(NamedTuple):
    """One enabled rule instance. Fields a kind does not use stay at their
    defaults, so the tuple order (kind, client, message, server) is the
    scheduling order: a message kind holds messages of one class, which
    order by their events."""
    kind: Kind
    client: int = 0
    message: Optional[Message] = None   # the in-flight message itself
    server: int = 0


def _route(client: ClientState):
    """Where the unfinished client's redex steps, the one statement of it:
    _await_resolve for an await on an identifier the client has not bound;
    (label, location, rule) for a read a server answers, a con dereference
    or an ava read of a cell the client holds no replica of; _cloud_redex,
    given a location operand, for a rule that reads or writes every server
    and the global map; else step_local."""
    match client.redex.term:
        case Await(ident=ident) if ident not in client.idmap:
            return _await_resolve
        case Deref(term=Lit(value=Plain(raw=Location() as o, label=lab))):
            if lab == CON:
                return CON, o, "E-CONDEREF"
            if lab == AVA and o not in client.store:
                return AVA, o, "E-AVADEREF2"
        case FlexRead(term=Lit(value=Plain(raw=Location() as o, label=Label.OAC)),
                      label=Label.AVA) if o not in client.store:
            return AVA, o, "E-FLEXRD-AVA"
        case (Ref(label=Label.CON | Label.OAC) | Clone()
              | Assign(target=Lit(value=Plain(raw=Location(), label=Label.CON)))
              | FlexWrite(label=Label.CON, target=Lit(value=Plain(raw=Location())))
              | FlexRead(label=Label.CON, term=Lit(value=Plain(raw=Location())))):
            return _cloud_redex
    return step_local


# a client's choices name no message, so each is built once, on first use
_choice = cache(Choice)


def _client_choices(config: CloudConfig, client: ClientState) -> list[Choice]:
    """The client's own choices, SEND first, kept on it (_choices) with the
    one part of the configuration they read: the server list for a remote
    read, the global map for an await, or None. Parts are replaced, never
    written, so the list is reused while that part is the same object."""
    held = client._choices
    if held is not None and (held[0] is None or held[0] is config.servers
                             or held[0] is config.global_ids):
        return held[1]
    cid, part = client.cid, None
    out = [_choice(Kind.SEND, cid)] if client.buffer else []
    if client.redex is not None:
        route = _route(client)
        if route is _await_resolve:
            part = config.global_ids
            if client.redex.term.ident in part:   # otherwise blocked until it is published
                out.append(_choice(Kind.AWAIT_RESOLVE, cid))
        elif route.__class__ is tuple:
            part = config.servers
            kind = Kind.CON_READ if route[0] == CON else Kind.AVA_REMOTE_READ
            out.extend(_choice(kind, cid, server=i) for i, s in enumerate(part)
                       if route[1] in s.store)
        else:
            out.append(_choice(Kind.CLIENT_STEP, cid))
    client._choices = (part, out)
    return out


def _message_choices(config: CloudConfig) -> list[Choice]:
    """The mailbox's choices in event order, stably sorted on the kind,
    kept (CloudConfig._messages) with the mailbox, server list and global
    map they read. PROCESS_REQ also reads the requester's identifier map,
    but a Req is only built from an identifier in it, and maps only grow."""
    held = config._messages
    if held and held[0] is config.mailbox and held[1] is config.servers \
            and held[2] is config.global_ids:
        return held[3]
    out, clients = [], config.servers[0].seq.clients
    for m in sorted(config.mailbox, key=_EVENT):
        if isinstance(m, Update):
            # an update has landed exactly at the servers whose log holds it
            bit = 1 << event_bit(clients, m.event)
            lacking = [Choice(Kind.DELIVER_UPDATE, message=m, server=r)
                       for r, s in enumerate(config.servers) if not s.seq.mask & bit]
            out.extend(lacking or [Choice(Kind.GC_UPDATE, message=m)])
        elif m.ident in config.global_ids and m.ident in config.clients[m.event.client].idmap:
            o = config.global_ids[m.ident]
            out.extend(Choice(Kind.PROCESS_REQ, message=m, server=r)
                       for r, s in enumerate(config.servers) if o in s.store)
    out.sort(key=_KIND)
    config._messages = (config.mailbox, config.servers, config.global_ids, out)
    return out


def enabled(config: CloudConfig) -> list[Choice]:
    """Every rule instance whose premises hold, deterministically ordered:
    the one statement of each rule's premises, which step_cloud enforces
    and the handlers rely on. Computed once per configuration and kept in
    it (CloudConfig._enabled); the list is shared and must not be mutated.
    The clients' kept lists in client order, stably sorted on the kind
    alone, then the message choices, which sort after them, are in Choice
    order."""
    out = config._enabled
    if out is None:
        clients = config.clients
        out = [ch for cid in sorted(clients) for ch in _client_choices(config, clients[cid])]
        out.sort(key=_KIND)
        config._enabled = out = out + _message_choices(config)
    return out


# ---------------------------------------------------------------------------
# Trace entries

@dataclass(slots=True)
class TraceEntry:
    step: int
    rule: str
    action: Action
    client: Optional[int] = None
    server: Optional[int] = None
    node_count: Optional[int] = None


def _joined_replicas(config: CloudConfig, o: Location):
    """The lattice join of every server's replica of o."""
    states = [s.store[o] for s in config.servers if o in s.store]
    if len(states) != len(config.servers):
        raise CtrdRuntimeError("DanglingLocation", f"{o} missing from some server")
    merged = states[0]
    for v in states[1:]:
        merged = merge_values(merged, v)
    return merged


# ---------------------------------------------------------------------------
# Configuration stepping

def step_cloud(config: CloudConfig, choice: Choice) -> tuple[CloudConfig, TraceEntry]:
    """Apply one enabled rule instance; returns the new configuration and
    the trace record of what fired. The one place a choice is refused:
    IllegalChoice unless enabled(config) offers it. The handler gets the
    offered choice and a copy of the input that shares its components; it
    puts a new value in place of each part it changes (see CloudConfig),
    and steps the copy own_client takes of the client it steps."""
    offered = enabled(config)
    try:
        choice = offered[offered.index(choice)]
    except ValueError:
        raise IllegalChoice(f"{choice} is not enabled") from None
    return _HANDLERS[choice.kind](config.copy(), choice)


def _client_step(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    client = cfg.own_client(ch.client)
    if _route(client) is _cloud_redex:
        return _cloud_redex(cfg, client)
    bound = len(client.idmap)
    rule, action = step_local(client)
    # new identifier bindings are fresh allocations; record their typing
    for ident in list(client.idmap)[bound:]:
        cfg.type_location(client.idmap[ident], ident)
    return cfg, TraceEntry(0, rule, action, client=ch.client)


def _cloud_redex(cfg: CloudConfig, client: ClientState) -> tuple[CloudConfig, TraceEntry]:
    """A redex that _route sends here, as it needs every server and the
    global map, on the client the caller owns. The synchronized rules
    record the common log as it stood before they write."""
    cid = client.cid
    r, eff = client.redex.term, client.redex.effect

    def finish(result: Term, action: Action, rule: str,
               node_count: Optional[int] = None) -> tuple[CloudConfig, TraceEntry]:
        client.plug(result)
        return cfg, TraceEntry(0, rule, action, client=cid, node_count=node_count)

    match r:
        case Ref(label=lab, init=Lit(value=v), ident=ident) if lab in (CON, OAC):
            if ident in cfg.global_ids:
                return finish(Lit(Duplicated(r)), eps(eff), "E-CONREF-DUP")
            o = client.fresh_location(remote=True)
            stamped = raise_label(v, label_join(eff, lab))
            nu, pre_common = cfg.sync_write(client, {o: stamped})
            cfg.global_ids = {**cfg.global_ids, ident: o}
            cfg.type_location(o, ident)
            act = Action(eff, "ref", lab, nu, o, v, snapshot=pre_common, synced=True)
            if lab == OAC:
                # on-demand refs also land in the local store for fast reads
                client.store[o] = stamped
                client.idmap[ident] = o
            return finish(Lit(Plain(o, lab)), act, "E-OACREF" if lab == OAC else "E-CONREF")

        case Assign(target=Lit(value=Plain(raw=Location() as o, label=lab)),
                    value=Lit(value=v)) if lab == CON:
            stamped = raise_label(v, label_join(eff, CON))
            nu, pre_common = cfg.sync_write(client, {o: stamped})
            act = Action(eff, "wr", CON, nu, o, v, snapshot=pre_common, synced=True)
            return finish(Lit(Plain(UNIT, CON)), act, "E-CONASSIGN")

        case FlexWrite(label=Label.CON, target=Lit(value=Plain(raw=o)), value=Lit(value=v)):
            # join, not overwrite: a flexwrite@ava still in flight is joined
            # into the servers it reaches later, so every replica must hold
            # the same join now for them to agree at quiescence
            stamped = raise_label(merge_values(_joined_replicas(cfg, o), v),
                                  label_join(eff, CON))
            join_into(client.store, o, stamped)
            nu, pre_common = cfg.sync_write(client, {o: stamped})
            act = Action(eff, "wr", CON, nu, o, v, snapshot=pre_common, synced=True)
            return finish(Lit(Plain(UNIT, CON)), act, "E-FLEXWRT-CON")

        case FlexRead(label=Label.CON, term=Lit(value=Plain(raw=o))):
            # consistent read: merge every replica, install the merged state
            merged = _joined_replicas(cfg, o)
            cfg.servers = [Server({**s.store, o: merged}, s.seq) for s in cfg.servers]
            join_into(client.store, o, merged)
            result = Plain(merged.raw, CON)
            act = Action(eff, "rd", CON, client.fresh_event(), o, result,
                         source=("servers",), snapshot=cfg.common)
            return finish(Lit(result), act, "E-FLEXRD-CON")

        case Clone(label=lab, term=Lit(value=tv), ident=ident):
            if lab != CON:
                raise CtrdRuntimeError("Stuck", f"clone label {lab} unsupported")
            o, _ = cell_operand(tv, None, "clone of a non-location")
            if ident in cfg.global_ids:
                return finish(Lit(Duplicated(r)), eps(eff), "E-CONREF-DUP")
            result, act, nodes = clone_step(cfg, client, o, ident, eff)
            return finish(Lit(result), act, "E-CLONE", node_count=nodes)

    raise CtrdRuntimeError("Stuck", f"no cloud rule applies to {pretty(r)}")


def _await_resolve(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    client = cfg.own_client(ch.client)
    d = client.redex
    ident = d.term.ident
    o = client.idmap[ident] = cfg.global_ids[ident]
    client.plug(Lit(Plain(o, ident.label)))
    return cfg, TraceEntry(0, "E-AWAIT2", eps(d.effect), client=ch.client)


def _server_read(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    """One server answers a consistent read, or an available read of a cell
    the client holds no replica of yet (which installs one)."""
    cid, r = ch.client, ch.server
    client, server = cfg.own_client(cid), cfg.servers[r]
    lab, o, rule = _route(client)
    if lab == AVA:
        client.store[o] = server.store[o]
    result = raise_label(server.store[o], lab)
    act = Action(client.redex.effect, "rd", lab, client.fresh_event(), o, result,
                 source=("server", r), snapshot=server.seq)
    client.plug(Lit(result))
    return cfg, TraceEntry(0, rule, act, client=cid, server=r)


def _send(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    client = cfg.own_client(ch.client)
    m, client.buffer = client.buffer[0], client.buffer[1:]
    cfg.mailbox = cfg.mailbox + (m,)
    return cfg, TraceEntry(0, "E-SEND", eps(LOC), client=ch.client)


def _deliver_update(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    m, r = ch.message, ch.server
    server = cfg.servers[r]
    target = m.location
    if m.ident is not None:
        if m.ident not in cfg.global_ids:
            cfg.global_ids = {**cfg.global_ids, m.ident: m.location}
        target = cfg.global_ids[m.ident]
    store = dict(server.store)
    join_into(store, target, raise_label(m.value, m.effect))
    cfg.servers = cfg.servers[:]
    cfg.servers[r] = Server(store, Log(m.event, server.seq))
    act = Action(m.effect, "wr", AVA, m.event, target, m.value, snapshot=server.seq)
    return cfg, TraceEntry(0, "E-PROCESS-UPDATE", act, server=r)


def _process_req(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    m, r = ch.message, ch.server
    client = cfg.own_client(m.event.client)
    # join, not overwrite: the server may not have seen this client's own
    # writes yet
    join_into(client.store, client.idmap[m.ident],
              raise_label(cfg.servers[r].store[cfg.global_ids[m.ident]], m.effect))
    cfg.mailbox = tuple(x for x in cfg.mailbox if x is not m)
    return cfg, TraceEntry(0, "E-PROCESS-REQUEST", eps(m.effect), client=client.cid, server=r)


def _gc_update(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    cfg.mailbox = tuple(x for x in cfg.mailbox if x is not ch.message)
    return cfg, TraceEntry(0, "E-GC", eps(LOC))


_HANDLERS = {
    Kind.CLIENT_STEP: _client_step,
    Kind.AWAIT_RESOLVE: _await_resolve,
    Kind.CON_READ: _server_read,
    Kind.AVA_REMOTE_READ: _server_read,
    Kind.SEND: _send,
    Kind.DELIVER_UPDATE: _deliver_update,
    Kind.PROCESS_REQ: _process_req,
    Kind.GC_UPDATE: _gc_update,
}


def footprint(config: CloudConfig, ch: Choice) -> frozenset:
    """What the enabled choice ch reads or writes in config: ("c", c) for
    client c, ("s", r) for server r, ("m", e) for the message of event e,
    and "ids" for the unpublished part of the global map (see explore).
    Two choices with disjoint footprints are independent."""
    kind, m = ch.kind, ch.message
    if kind == Kind.CLIENT_STEP and _route(config.clients[ch.client]) is _cloud_redex:
        servers = [("s", r) for r in range(len(config.servers))]
        return frozenset([("c", ch.client), "ids", *servers])
    if kind in (Kind.CON_READ, Kind.AVA_REMOTE_READ):
        return frozenset({("c", ch.client), ("s", ch.server)})
    if kind == Kind.DELIVER_UPDATE:
        if m.ident is None or m.ident in config.global_ids:
            return frozenset({("s", ch.server)})
        return frozenset({("s", ch.server), "ids"})
    if kind == Kind.PROCESS_REQ:
        return frozenset({("c", m.event.client), ("s", ch.server), ("m", m.event)})
    if kind == Kind.GC_UPDATE:
        return frozenset({("m", m.event)})
    return frozenset({("c", ch.client)})    # a local client step, SEND, AWAIT_RESOLVE


# ---------------------------------------------------------------------------
# Quiescence

def quiescent(config: CloudConfig) -> bool:
    """No choice is left and every client has run to a value."""
    return not enabled(config) and all(c.redex is None for c in config.clients.values())


# ---------------------------------------------------------------------------
# Schedulers

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_M1 = 0xBF58476D1CE4E5B9
_SPLITMIX_M2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny 64-bit generator with documented constants so traces are
    reproducible across implementations."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + _SPLITMIX_GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _SPLITMIX_M1) & _MASK64
        z = ((z ^ (z >> 27)) * _SPLITMIX_M2) & _MASK64
        return z ^ (z >> 31)


class RandomScheduler:
    name = "random"

    def __init__(self, seed: int):
        self.rng = SplitMix64(seed)

    def pick(self, choices: list[Choice]) -> Choice:
        return choices[self.rng.next() % len(choices)]


class _CategoryFair:
    """Rotates over choice categories so every persistently enabled message
    step is eventually taken."""

    def __init__(self, name: str, rotate_within: bool):
        self.name = name
        self.cat = 0
        self.rotate_within = rotate_within
        self.counters = [0] * _KINDS

    def pick(self, choices: list[Choice]) -> Choice:
        by_cat: dict[int, list[Choice]] = {}
        for ch in choices:
            by_cat.setdefault(ch.kind, []).append(ch)
        for off in range(_KINDS):
            cat = (self.cat + off) % _KINDS
            if cat in by_cat:
                self.cat = (cat + 1) % _KINDS
                group = by_cat[cat]
                if self.rotate_within:
                    idx = self.counters[cat] % len(group)
                    self.counters[cat] += 1
                    return group[idx]
                return group[0]
        raise IllegalChoice("no choices to pick from")


def make_scheduler(name: str, seed: int = 0):
    if name == "random":
        return RandomScheduler(seed)
    if name == "round-robin":
        return _CategoryFair(name, rotate_within=False)
    if name == "drain-fair":
        return _CategoryFair(name, rotate_within=True)
    raise ValueError(f"unknown scheduler {name!r}")


# ---------------------------------------------------------------------------
# Running and exploring

@dataclass
class RunResult:
    config: CloudConfig
    trace: list[TraceEntry]
    status: str            # "quiescent" | "deadlock" | "step-limit"
    steps: int


def run(config: CloudConfig, scheduler, max_steps: int = 10_000,
        wf_each_step: bool = False) -> RunResult:
    """Drive the configuration until quiescence, deadlock, or the step cap."""
    trace: list[TraceEntry] = []
    cfg = config
    choices = enabled(cfg)
    while choices and len(trace) < max_steps:
        cfg, entry = step_cloud(cfg, scheduler.pick(choices))
        entry.step = len(trace)
        trace.append(entry)
        if wf_each_step:
            report = check_wf(cfg)
            if not report.ok:
                raise CtrdRuntimeError("Stuck", f"well-formedness lost: {report.problems[0]}")
        choices = enabled(cfg)
    status = "step-limit" if choices else "quiescent" if quiescent(cfg) else "deadlock"
    return RunResult(cfg, trace, status, len(trace))


@dataclass
class ExploreSummary:
    """Counts of the states explore visited, of its maximal traces (the
    visited states it did not expand), of those cut at the depth bound, of
    check_wf problems in the visited states, and of the steps it took
    (step_cloud calls; the explore report leaves them out)."""
    states: int = 0
    traces: int = 0
    truncated: int = 0
    wf_problems: int = 0
    steps: int = 0


def max_states_from_env() -> int:
    """explore's budget of visited states: CTRD_MAX_STATES, 500000 when unset.
    ValueError unless it is an integer of at least 1."""
    raw = os.environ.get("CTRD_MAX_STATES", "500000")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"CTRD_MAX_STATES must be an integer of at least 1, not {raw!r}")
    return n


def explore(config: CloudConfig, max_depth: int,
            on_trace: Optional[Callable] = None,
            check_wf_each: bool = False) -> ExploreSummary:
    """Exhaustive interleaving exploration to a depth bound, one state per
    class of states that no checker can tell apart.

    States are deduplicated on (configuration, abstract execution): two
    prefixes landing on the same pair have identical futures for every
    checker, so one representative subtree suffices. The configuration is
    keyed by its orbit under server permutations, with each server's log
    as a set (CloudConfig.key and Server.key, ints from one intern table
    per call). This is exact: the initial configuration is symmetric,
    every rule treats the servers alike and reads a log only through the
    events it holds, a state is always reached at the same depth, and no
    execution, checker or observation sees a server index or a log's
    order. So too for transitions (Ip and Dill 1996): of the choices that
    differ only in servers with equal key ints, explore steps the first
    (_one_per_server_class). Swapping those servers fixes the key, and a
    rule reads a server only through its store and log mask, so the rest
    reach the class the first marked seen.

    Commuting choices are stepped in one order (sleep sets, Godefroid
    1996, ch. 5). footprint names what a choice reads or writes:

      a local client step, SEND, AWAIT_RESOLVE   its client
      a client step that _cloud_redex fires      its client, every server, "ids"
      CON_READ, AVA_REMOTE_READ                  its client, its server
      DELIVER_UPDATE                             its server, and "ids" while
                                                 its identifier is unpublished
      PROCESS_REQ                                the requester, its server,
                                                 its message
      GC_UPDATE                                  its message

    Choices with disjoint footprints are independent: neither enables or
    disables the other, and both orders reach one state. The mailbox is a
    multiset (its key and enabled sort it), a published identifier never
    changes, store typings are set once per fresh location, and the
    history's parts commute (an event's rows are its own; a delivery ORs
    its server's log into its event's ar row). Each frame keeps a sleep
    set of (choice, footprint) pairs: the choices stepped from it so far,
    and those its parent held that are independent of the choice that led
    to it. A state does not step its sleep set: each such step reaches a
    state a finished subtree holds. A revisited state, given sleep set Z,
    steps the members of the set it keeps that Z lacks, then keeps the
    intersection (state caching, Godefroid 1996, sec. 5.3). While every
    class is reached at one depth, a finished subtree holds every state
    reachable from its root and such steps find no new state; the rule
    keeps the pruning sound where that fails. Sleep sets are compared in
    the form a server permutation fixes (_class_of), as a revisit can
    arrive at another member of the class. Alone, they prune steps, never
    states.

    A choice that nothing else can touch, from its state or from any state
    the others reach, is stepped alone (_alone; a persistent set of one,
    Valmari 1990). A GC_UPDATE is one: every log holds its update, so no
    delivery of it is left and no other choice names its message. So is
    a client c's local CLIENT_STEP or AWAIT_RESOLVE while c's buffer is
    empty, or its SEND once c is a value, while no Req of c is in the
    mailbox: only c's choices and a PROCESS_REQ of its Req touch c, and a
    Req gets there only by c's SEND. That search keeps every terminal
    class, not the states between or those a depth bound cuts. It is off
    with check_wf_each, as check_wf judges every state; otherwise it runs
    first with its on_trace calls held back, and if a trace reaches
    max_depth or a step faults, the plain search runs and reports. Its
    budget stop is raised as it is: the plain search visits every state
    it does, so stops too unless a step faults first.

    The summary counts what was visited and the steps taken. An internal
    step passes its parent's execution on unchanged. on_trace(exec_,
    final, truncated) is called per visited maximal trace; exec_ may be
    shared and must not be mutated. The state budget, in states the
    search that reports visits, is max_states_from_env(). The search keeps
    its path on an explicit stack, so its depth is bounded by --max-depth,
    not by Python's recursion limit.
    """
    if not check_wf_each:
        held: list = []
        try:
            hold = on_trace and (lambda *call: held.append(call))
            summary = _search(config, max_depth, hold, False, True)
        except (_Cut, CtrdRuntimeError, RecursionError):
            pass
        else:
            for call in held:
                on_trace(*call)
            return summary
    return _search(config, max_depth, on_trace, check_wf_each, False)


class _Cut(Exception):
    """A trace of explore's reduced search reached the depth bound."""


def _search(config: CloudConfig, max_depth: int, on_trace: Optional[Callable],
            check_wf_each: bool, select: bool) -> ExploreSummary:
    """explore's depth-first search; with select, a state for which _alone
    names a choice steps that choice alone, and a cut trace raises _Cut."""
    from .abstract_exec import AbstractExecution, fold_entry

    max_states = max_states_from_env()
    summary = ExploreSummary()
    seen: dict = {}     # state key -> the sleep set it keeps, as _class_of forms
    sleeps: dict = {}   # each kept sleep set once, for the states that share it
    table: dict = {}

    # depth-first in pre-order, on an explicit stack: per expanded state, its
    # execution, the depth of its successors, the choices left to step and
    # its sleep set
    stack: list = []

    def arrive(cfg: CloudConfig, exec_: AbstractExecution, depth: int, sleep: list) -> None:
        key = (*cfg.key(table), exec_.key_id(table))
        kept = seen.get(key)
        if kept is not None and not kept:
            return
        servers = cfg.servers
        asleep = frozenset([_class_of(t, servers) for t, _ in sleep])
        if kept is not None:
            # a revisit steps what the visits so far left asleep and this one
            # does not, and keeps what both left asleep
            awake, both = kept - asleep, kept & asleep
            seen[key] = sleeps.setdefault(both, both)
            if not awake:
                return
            sleep = [p for p in sleep if _class_of(p[0], servers) in kept]
            steps = [ch for ch in _one_per_server_class(enabled(cfg), servers)
                     if _class_of(ch, servers) in awake]
        else:
            summary.states += 1
            if summary.states > max_states:
                raise StateSpaceLimit(f"more than {max_states} states")
            if check_wf_each:
                summary.wf_problems += len(check_wf(cfg).problems)
            choices = enabled(cfg)
            if not choices or depth >= max_depth:
                seen[key] = _NO_SLEEP
                truncated = bool(choices)
                if truncated and select:
                    raise _Cut
                summary.traces += 1
                summary.truncated += truncated
                if on_trace is not None:
                    on_trace(exec_, cfg, truncated)
                return
            alone = _alone(cfg, choices) if select else None
            if alone is None:
                steps = _one_per_server_class(choices, servers)
            else:
                # the one choice is all a revisit can find asleep and step
                steps, asleep = [alone], asleep & {_class_of(alone, servers)}
            seen[key] = sleeps.setdefault(asleep, asleep)
            if asleep:
                steps = [ch for ch in steps if _class_of(ch, servers) not in asleep]
        stack.append((cfg, exec_, depth + 1, iter(steps), sleep))

    arrive(config, AbstractExecution(config.clients), 0, [])
    while stack:
        cfg, exec_, depth, choices, sleep = stack[-1]
        choice = next(choices, None)
        if choice is None:
            stack.pop()
            continue
        summary.steps += 1
        nxt, entry = step_cloud(cfg, choice)
        fp = footprint(cfg, choice)
        if entry.action.kind != "eps":      # A-INTERNAL: no history change
            exec_ = exec_.copy()
            fold_entry(exec_, entry)
        arrive(nxt, exec_, depth, [p for p in sleep if p[1].isdisjoint(fp)])
        sleep.append((choice, fp))
    return summary


# the sleep set explore keeps for a state it does not expand, one for all
_NO_SLEEP: frozenset = frozenset()
# the kinds whose server field names a server
_SERVED = frozenset({Kind.CON_READ, Kind.AVA_REMOTE_READ, Kind.DELIVER_UPDATE, Kind.PROCESS_REQ})


def _alone(config: CloudConfig, choices: list[Choice]) -> Optional[Choice]:
    """The choice of choices, those enabled in config, that explore steps
    alone, or None; a client step is local unless _route names _cloud_redex."""
    if choices[-1].kind == Kind.GC_UPDATE:
        return choices[-1]
    asking = {m.event.client for m in config.mailbox if m.__class__ is Req}
    for ch in choices:
        kind = ch.kind
        if kind > Kind.SEND:
            break
        client = config.clients[ch.client]
        if ch.client not in asking and (client.redex is None if kind == Kind.SEND else (
                kind <= Kind.AWAIT_RESOLVE and not client.buffer
                and not (kind == Kind.CLIENT_STEP and _route(client) is _cloud_redex))):
            return ch
    return None


def _class_of(ch: Choice, servers: list[Server]) -> tuple:
    """ch in the form a server permutation fixes: its server as the
    server's key int, its message as its event. The servers must have just
    been keyed (explore's arrive)."""
    return (ch.kind, ch.client, ch.message and ch.message.event,
            servers[ch.server]._id if ch.kind in _SERVED else None)


def _one_per_server_class(choices: list[Choice], servers: list[Server]) -> list[Choice]:
    """choices less each one that repeats an earlier choice's (kind, client,
    message) on a server whose key int is that earlier server's."""
    kept: dict = {}
    for ch in choices:
        kept.setdefault(_class_of(ch, servers), ch)
    return list(kept.values())


# ---------------------------------------------------------------------------
# Well-formedness (executable subject-reduction checks)

@dataclass
class WfReport:
    ok: bool
    problems: list[str]

    def summary(self, name: str = "wf") -> str:
        return f"CHECK {name} {'OK' if self.ok else 'FAIL ' + self.problems[0]}"


def check_wf(config: CloudConfig) -> WfReport:
    """Re-typecheck every store, identifier map, buffer, and whole residual
    program (closed_term) against the store and identifier typings."""
    problems: list[str] = []
    sigma, ids = config.store_typing, config.id_typing
    # a copy: typing a residual ref records its identifier, and the map
    # is shared by every configuration
    env = TypeEnv(sigma=sigma, ids=dict(ids), runtime=True)

    def check_store(owner: str, store: dict) -> None:
        for o in sorted(store):
            if o not in sigma:
                problems.append(f"{owner}: {o} missing from the store typing")
                continue
            want = sigma[o]
            if want.label == OAC:
                # available writes stamp oac cells up to ava; the oac label
                # is the access discipline, not a bound on the value stamp
                want = type_join_label(want, AVA)
            try:
                t = type_of_value(env, store[o], None)
            except CheckError as e:
                problems.append(f"{owner}: value at {o} untypable: {e.message}")
                continue
            if not subtype(t, want):
                problems.append(
                    f"{owner}: value at {o} has type {pretty_type(t)}, "
                    f"store typing {pretty_type(sigma[o])}")

    def check_ids(owner: str, idmap: dict) -> None:
        for ident, o in sorted(idmap.items()):
            if ident not in ids:
                problems.append(f"{owner}: {ident} missing from the identifier typing")
            elif o not in sigma:
                problems.append(f"{owner}: {ident} maps to untyped {o}")
            elif not subtype(sigma[o], ids[ident]):
                problems.append(
                    f"{owner}: {ident} maps to {o} of type {pretty_type(sigma[o])}, "
                    f"identifier typing {pretty_type(ids[ident])}")

    for cid in sorted(config.clients):
        client = config.clients[cid]
        check_store(f"client {cid} store", client.store)
        check_ids(f"client {cid}", client.idmap)
        for m in client.buffer:
            _check_message(config, env, m, f"client {cid} buffer", problems)
        try:
            typecheck_term(env, client.closed_term())
        except CheckError as e:
            problems.append(f"client {cid}: residual term untypable: {e.message}")

    for i, server in enumerate(config.servers):
        check_store(f"server {i}", server.store)

    for m in config.mailbox:
        _check_message(config, env, m, "mailbox", problems)

    check_ids("global map", config.global_ids)
    return WfReport(not problems, problems)


def _check_message(config: CloudConfig, env: TypeEnv, m: Message, where: str,
                   problems: list[str]) -> None:
    if isinstance(m, Req):
        if m.ident not in config.id_typing:
            problems.append(f"{where}: request for untyped {m.ident}")
        return
    try:
        tv = type_of_value(env, m.value, None)
    except CheckError as e:
        problems.append(f"{where}: update payload untypable: {e.message}")
        return
    target = config.id_typing.get(m.ident) if m.ident is not None else \
        config.store_typing.get(m.location)
    if target is None:
        problems.append(f"{where}: update has no target typing")
        return
    if not subtype(type_join_label(tv, label_of(target)), target):
        problems.append(f"{where}: update payload {pretty_type(tv)} "
                        f"incompatible with {pretty_type(target)}")
