"""Distributed reduction over the whole configuration.

A configuration is a set of clients, a multiset of in-flight messages, a set
of replica servers, and a global identifier map. Consistent operations touch
every server in one atomic step (consensus is abstracted to that step);
available operations go through buffered update messages delivered one
server at a time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, NamedTuple, Optional

from .clone import clone_step
# decompose is not called here; the name is kept so that tools wrapping it
# from outside the package find it where step_local is looked up
from .runtime_local import (
    Action, ClientState, CtrdRuntimeError, EventId, Message, Req, Update,
    decompose, eps, initial_client, merge_values, step_local,
)
from .syntax import (
    Assign, AVA, Await, Clone, CON, Deref, Duplicated, FlexRead, FlexWrite,
    Identifier, Lit, Location, LOC, OAC, Plain, Program, Ref, Term, Type,
    UNIT, label_join, label_of, pretty, pretty_type, raise_label, subtype,
    type_join_label,
)
from .typecheck import (CheckError, TypeEnv, type_of_value,
                        typecheck as typecheck_term)


class IllegalChoice(Exception):
    """A scheduler picked a step whose rule premises do not hold."""


class StateSpaceLimit(Exception):
    """Exploration exceeded the configured state budget."""


# ---------------------------------------------------------------------------
# Servers and configurations

@dataclass
class Server:
    store: dict[Location, object]       # Location -> LabeledValue
    seq: tuple[EventId, ...]            # newest first

    def copy(self) -> "Server":
        return Server(dict(self.store), self.seq)

    def key(self):
        return (tuple(sorted(self.store.items(), key=lambda kv: kv[0].sort_key())),
                self.seq)


@dataclass
class CloudConfig:
    clients: dict[int, ClientState]
    mailbox: tuple[Message, ...]
    servers: list[Server]
    global_ids: dict[Identifier, Location]
    store_typing: dict[Location, Type]
    id_typing: dict[Identifier, Type]

    def copy(self) -> "CloudConfig":
        return CloudConfig(
            {cid: c.copy() for cid, c in self.clients.items()},
            self.mailbox,
            [s.copy() for s in self.servers],
            dict(self.global_ids),
            dict(self.store_typing),
            self.id_typing,      # static; shared
        )

    def key(self):
        return (
            tuple(self.clients[cid].key() for cid in sorted(self.clients)),
            tuple(sorted((m.key(), m) for m in self.mailbox)),
            tuple(s.key() for s in self.servers),
            tuple(sorted(((i.sort_key(), i), o)
                         for i, o in self.global_ids.items())),
            tuple(sorted(((o.sort_key(), o), t)
                         for o, t in self.store_typing.items())),
        )


def initial_config(program: Program, id_types: dict[Identifier, Type],
                   servers: Optional[int] = None) -> CloudConfig:
    n = servers if servers is not None else program.servers
    return CloudConfig(
        clients={cid: initial_client(cid, term) for cid, term in program.clients},
        mailbox=(),
        servers=[Server({}, ()) for _ in range(n)],
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


class Choice(NamedTuple):
    """One enabled rule instance. Fields a kind does not use stay at their
    defaults, so the tuple order (kind, client, message key, server) is the
    scheduling order."""
    kind: Kind
    client: int = 0
    message: tuple = ()     # message key
    server: int = 0


def _find_message(config: CloudConfig, key: tuple) -> Optional[Message]:
    for m in config.mailbox:
        if m.key() == key:
            return m
    return None


def enabled(config: CloudConfig) -> list[Choice]:
    """Every rule instance whose premises hold, deterministically ordered."""
    out: list[Choice] = []

    def reads(kind: Kind, cid: int, o: Location) -> None:
        out.extend(Choice(kind, cid, server=i) for i, s in enumerate(config.servers)
                   if o in s.store)

    for cid in sorted(config.clients):
        client = config.clients[cid]
        if client.buffer:
            out.append(Choice(Kind.SEND, cid))
        if client.redex is None:
            continue
        match client.redex.term:
            case Await(ident=ident):
                if ident in client.idmap:
                    out.append(Choice(Kind.CLIENT_STEP, cid))
                elif ident in config.global_ids:
                    out.append(Choice(Kind.AWAIT_RESOLVE, cid))
                # otherwise blocked until the identifier is published
            case Deref(term=Lit(value=Plain(raw=Location() as o, label=lab))) if (
                    lab == CON or lab == AVA and o not in client.store):
                reads(Kind.CON_READ if lab == CON else Kind.AVA_REMOTE_READ, cid, o)
            case FlexRead(term=Lit(value=Plain(raw=Location() as o, label=cell)), label=lab) if (
                    cell == OAC and lab == AVA and o not in client.store):
                reads(Kind.AVA_REMOTE_READ, cid, o)
            case _:
                out.append(Choice(Kind.CLIENT_STEP, cid))
    all_servers = frozenset(range(len(config.servers)))
    for m in config.mailbox:
        key = m.key()
        if isinstance(m, Update):
            if m.delivered == all_servers:
                out.append(Choice(Kind.GC_UPDATE, message=key))
            else:
                out.extend(Choice(Kind.DELIVER_UPDATE, message=key, server=r)
                           for r in sorted(all_servers - m.delivered))
        else:
            ident = m.ident
            if ident in config.global_ids and m.origin in config.clients:
                o = config.global_ids[ident]
                out.extend(Choice(Kind.PROCESS_REQ, message=key, server=r)
                           for r, s in enumerate(config.servers) if o in s.store)
    return sorted(out)


# ---------------------------------------------------------------------------
# Trace entries

@dataclass
class TraceEntry:
    step: int
    rule: str
    action: Action
    client: Optional[int] = None
    server: Optional[int] = None
    node_count: Optional[int] = None


def _common_seq(servers: list[Server]) -> tuple[EventId, ...]:
    """Events present in every server's log, deterministically ordered."""
    if not servers:
        return ()
    common = set(servers[0].seq)
    for s in servers[1:]:
        common &= set(s.seq)
    return tuple(sorted(common, key=lambda e: e.sort_key()))


def _joined_replicas(config: CloudConfig, o: Location):
    """The lattice join of every server's replica of o."""
    states = [s.store[o] for s in config.servers if o in s.store]
    if len(states) != len(config.servers):
        raise CtrdRuntimeError("DanglingLocation", f"{o} missing from some server")
    merged = states[0]
    for v in states[1:]:
        merged = merge_values(merged, v)
    return merged


def _keep_own_writes(client: ClientState, o: Location, v) -> None:
    """Install v in the client's replica of o by join, not overwrite: the
    client's own flexwrite@ava may still be buffered or in flight, and a
    later flexread@ava must not read below it."""
    client.store[o] = merge_values(client.store[o], v) if o in client.store else v


def _sync_write(config: CloudConfig, o: Location, v, nu: EventId) -> None:
    for s in config.servers:
        s.store[o] = v
        s.seq = (nu,) + s.seq


# ---------------------------------------------------------------------------
# Configuration stepping

def step_cloud(config: CloudConfig, choice: Choice) -> tuple[CloudConfig, TraceEntry]:
    """Apply one enabled rule instance; returns the new configuration and
    the trace record of what fired. The input is copied once, here, and the
    handler steps that copy in place."""
    return _HANDLERS[choice.kind](config.copy(), choice)


def _client_step(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    cid = ch.client
    client = cfg.clients[cid]
    if client.redex is None:
        raise IllegalChoice(f"client {cid} has no enabled local step")
    bound = len(client.idmap)
    fired = step_local(client)
    if fired is None:
        return _cloud_redex(cfg, cid)
    # new identifier bindings are fresh allocations; record their typing
    for ident in list(client.idmap)[bound:]:
        if ident in cfg.id_typing:
            cfg.store_typing.setdefault(client.idmap[ident], cfg.id_typing[ident])
    rule, action = fired
    return cfg, TraceEntry(0, rule, action, client=cid)


def _cloud_redex(cfg: CloudConfig, cid: int) -> tuple[CloudConfig, TraceEntry]:
    client = cfg.clients[cid]
    r, eff = client.redex.term, client.redex.effect
    pre_common = _common_seq(cfg.servers)

    def finish(result: Term, action: Action, rule: str,
               node_count: Optional[int] = None) -> tuple[CloudConfig, TraceEntry]:
        client.plug(result)
        return cfg, TraceEntry(0, rule, action, client=cid, node_count=node_count)

    match r:
        case Ref(label=lab, init=Lit(value=v), ident=ident) if lab in (CON, OAC):
            if ident in cfg.global_ids:
                return finish(Lit(Duplicated(r)), eps(eff), "E-CONREF-DUP")
            o = client.fresh_location(remote=True)
            nu = client.fresh_event()
            stamped = raise_label(v, label_join(eff, lab))
            _sync_write(cfg, o, stamped, nu)
            cfg.global_ids[ident] = o
            if ident in cfg.id_typing:
                cfg.store_typing.setdefault(o, cfg.id_typing[ident])
            act = Action(eff, "ref", lab, nu, o, v, snapshot=pre_common, synced=True)
            if lab == OAC:
                # on-demand refs also land in the local store for fast reads
                client.store[o] = stamped
                client.idmap[ident] = o
                return finish(Lit(Plain(o, OAC)), act, "E-OACREF")
            return finish(Lit(Plain(o, CON)), act, "E-CONREF")

        case Assign(target=Lit(value=Plain(raw=Location() as o, label=lab)),
                    value=Lit(value=v)) if lab == CON:
            nu = client.fresh_event()
            stamped = raise_label(v, label_join(eff, CON))
            _sync_write(cfg, o, stamped, nu)
            act = Action(eff, "wr", CON, nu, o, v, snapshot=pre_common, synced=True)
            return finish(Lit(Plain(UNIT, CON)), act, "E-CONASSIGN")

        case FlexWrite(label=lab, target=Lit(value=tv), value=Lit(value=v)):
            if isinstance(tv, Duplicated):
                raise CtrdRuntimeError("DuplicatedIdentifier",
                                       "flexwrite through a duplicated marker")
            o = tv.raw
            if not isinstance(o, Location):
                raise CtrdRuntimeError("Stuck", "flexwrite to a non-location")
            nu = client.fresh_event()
            if lab == AVA:
                if o in client.store:
                    merged = merge_values(client.store[o], v)
                else:
                    merged = v
                client.store[o] = raise_label(merged, label_join(eff, AVA))
                ident = client.getkey(o)
                client.buffer = client.buffer + (Update(o, ident, v, cid, frozenset(), nu, eff),)
                # the rule spells the action label con; semantically this is
                # the buffered (available) write
                act = Action(eff, "wr", AVA, nu, o, v, literal_label=CON)
                return finish(Lit(Plain(UNIT, AVA)), act, "E-FLEXWRT-AVA")
            # join, not overwrite: a flexwrite@ava still in flight is joined
            # into the servers it reaches later, so every replica must hold
            # the same join now for them to agree at quiescence
            stamped = raise_label(merge_values(_joined_replicas(cfg, o), v),
                                  label_join(eff, CON))
            _keep_own_writes(client, o, stamped)
            _sync_write(cfg, o, stamped, nu)
            act = Action(eff, "wr", CON, nu, o, v, snapshot=pre_common, synced=True)
            return finish(Lit(Plain(UNIT, CON)), act, "E-FLEXWRT-CON")

        case FlexRead(label=lab, term=Lit(value=tv)):
            if isinstance(tv, Duplicated):
                raise CtrdRuntimeError("DuplicatedIdentifier",
                                       "flexread through a duplicated marker")
            o = tv.raw
            if not isinstance(o, Location):
                raise CtrdRuntimeError("Stuck", "flexread of a non-location")
            nu = client.fresh_event()
            if lab == AVA:
                if o not in client.store:
                    raise IllegalChoice("remote flexread must pick a server")
                result = raise_label(client.store[o], AVA)
                act = Action(eff, "rd", AVA, nu, o, result,
                             source=("local", cid), snapshot=())
                return finish(Lit(result), act, "E-FLEXRD-AVA")
            # consistent read: merge every replica, install the merged state
            merged = _joined_replicas(cfg, o)
            for s in cfg.servers:
                s.store[o] = merged
            _keep_own_writes(client, o, merged)
            result = Plain(merged.raw, CON)
            act = Action(eff, "rd", CON, nu, o, result,
                         source=("servers",), snapshot=pre_common)
            return finish(Lit(result), act, "E-FLEXRD-CON")

        case Clone(label=lab, term=Lit(value=tv), ident=ident):
            if lab != CON:
                raise CtrdRuntimeError("Stuck", f"clone label {lab} unsupported")
            if isinstance(tv, Duplicated) or not isinstance(tv.raw, Location):
                raise CtrdRuntimeError("Stuck", "clone of a non-location")
            result, act, nodes = clone_step(cfg, client, tv.raw, ident, eff, pre_common)
            if result is None:
                return finish(Lit(Duplicated(r)), eps(eff), "E-CONREF-DUP")
            return finish(Lit(result), act, "E-CLONE", node_count=nodes)

        case Await(ident=ident):
            raise IllegalChoice("await resolution is its own choice")

    raise IllegalChoice(f"no cloud rule applies to {pretty(r)}")


def _await_resolve(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    cid = ch.client
    client = cfg.clients[cid]
    d = client.redex
    if d is None or not isinstance(d.term, Await):
        raise IllegalChoice(f"client {cid} is not at an await")
    ident = d.term.ident
    if ident not in cfg.global_ids:
        raise IllegalChoice(f"{ident} is not globally bound")
    o = cfg.global_ids[ident]
    client.idmap[ident] = o
    client.plug(Lit(Plain(o, ident.label)))
    return cfg, TraceEntry(0, "E-AWAIT2", eps(d.effect), client=cid)


def _server_read(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    """One server answers a consistent read, or an available read of a cell
    the client holds no replica of yet (which installs one)."""
    cid, r = ch.client, ch.server
    client = cfg.clients[cid]
    d = client.redex
    match d.term if d is not None else None:
        case Deref(term=Lit(value=Plain(raw=Location() as o, label=lab))) if lab in (CON, AVA):
            rule = "E-CONDEREF" if lab == CON else "E-AVADEREF2"
        case FlexRead(label=lab, term=Lit(value=Plain(raw=Location() as o))) if lab == AVA:
            rule = "E-FLEXRD-AVA"
        case _:
            raise IllegalChoice(f"client {cid} is not at a server read")
    server = cfg.servers[r]
    if ((lab == CON) != (ch.kind == Kind.CON_READ) or o not in server.store
            or (lab == AVA and o in client.store)):
        raise IllegalChoice(f"server read premises violated for client {cid} at server {r}")
    if lab == AVA:
        client.store[o] = server.store[o]
    result = raise_label(server.store[o], lab)
    act = Action(d.effect, "rd", lab, client.fresh_event(), o, result,
                 source=("server", r), snapshot=server.seq)
    client.plug(Lit(result))
    return cfg, TraceEntry(0, rule, act, client=cid, server=r)


def _send(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    cid = ch.client
    client = cfg.clients[cid]
    if not client.buffer:
        raise IllegalChoice(f"client {cid} has an empty buffer")
    m, rest = client.buffer[0], client.buffer[1:]
    client.buffer = rest
    cfg.mailbox = cfg.mailbox + (m,)
    return cfg, TraceEntry(0, "E-SEND", eps(LOC), client=cid)


def _deliver_update(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    key, r = ch.message, ch.server
    m = _find_message(cfg, key)
    if not isinstance(m, Update) or r in m.delivered:
        raise IllegalChoice(f"update delivery premises violated for {key}")
    server = cfg.servers[r]
    pre_seq = server.seq
    if m.ident is not None and m.ident not in cfg.global_ids:
        cfg.global_ids[m.ident] = m.location
        target = m.location
    elif m.ident is not None:
        target = cfg.global_ids[m.ident]
    else:
        target = m.location
    if target not in server.store:
        server.store[target] = raise_label(m.value, m.effect)
    else:
        server.store[target] = raise_label(merge_values(m.value, server.store[target]),
                                           m.effect)
    server.seq = (m.event,) + server.seq
    new_m = Update(m.location, m.ident, m.value, m.origin,
                   m.delivered | {r}, m.event, m.effect)
    cfg.mailbox = tuple(new_m if x is m else x for x in cfg.mailbox)
    act = Action(m.effect, "wr", AVA, m.event, target, m.value, snapshot=pre_seq)
    return cfg, TraceEntry(0, "E-PROCESS-UPDATE", act, server=r)


def _process_req(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    key, r = ch.message, ch.server
    m = _find_message(cfg, key)
    if not isinstance(m, Req) or m.ident not in cfg.global_ids:
        raise IllegalChoice(f"request premises violated for {key}")
    o = cfg.global_ids[m.ident]
    server = cfg.servers[r]
    if o not in server.store:
        raise IllegalChoice(f"server {r} does not hold {o}")
    client = cfg.clients[m.origin]
    local = client.idmap.get(m.ident)
    if local is None:
        raise IllegalChoice(f"requester no longer maps {m.ident}")
    # join, not overwrite: the server may not have seen this client's own
    # writes yet, and a replica never moves down its lattice
    client.store[local] = merge_values(client.store[local],
                                       raise_label(server.store[o], m.effect))
    cfg.mailbox = tuple(x for x in cfg.mailbox if x is not m)
    return cfg, TraceEntry(0, "E-PROCESS-REQUEST", eps(m.effect),
                           client=m.origin, server=r)


def _gc_update(cfg: CloudConfig, ch: Choice) -> tuple[CloudConfig, TraceEntry]:
    key = ch.message
    m = _find_message(cfg, key)
    if not isinstance(m, Update) or m.delivered != frozenset(range(len(cfg.servers))):
        raise IllegalChoice(f"garbage collection premises violated for {key}")
    cfg.mailbox = tuple(x for x in cfg.mailbox if x is not m)
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


# ---------------------------------------------------------------------------
# Client status and quiescence

def client_status(config: CloudConfig, cid: int) -> str:
    client = config.clients[cid]
    if client.redex is None:
        return "done"
    t = client.redex.term
    if t.__class__ is Await and t.ident not in client.idmap \
            and t.ident not in config.global_ids:
        return "blocked"
    return "ready"


def quiescent(config: CloudConfig) -> bool:
    return not enabled(config) and all(
        client_status(config, cid) == "done" for cid in config.clients
    )


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
        self.counters = [0] * len(Kind)

    def pick(self, choices: list[Choice]) -> Choice:
        by_cat: dict[int, list[Choice]] = {}
        for ch in choices:
            by_cat.setdefault(ch.kind, []).append(ch)
        for off in range(len(Kind)):
            cat = (self.cat + off) % len(Kind)
            if cat in by_cat:
                self.cat = (cat + 1) % len(Kind)
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
    if choices:
        status = "step-limit"
    elif any(client_status(cfg, cid) == "blocked" for cid in cfg.clients):
        status = "deadlock"
    else:
        status = "quiescent"
    return RunResult(cfg, trace, status, len(trace))


@dataclass
class ExploreSummary:
    states: int = 0
    traces: int = 0
    truncated: int = 0
    wf_violations: list[str] = field(default_factory=list)


def explore(config: CloudConfig, max_depth: int,
            on_trace: Optional[Callable] = None,
            check_wf_each: bool = False,
            max_states: Optional[int] = None) -> ExploreSummary:
    """Exhaustive interleaving exploration to a depth bound.

    States are deduplicated on (configuration, abstract execution): two
    prefixes landing on the same pair have identical futures for every
    checker, so one representative subtree suffices. on_trace receives the
    abstract execution of each maximal trace, folded along the way, with its
    final configuration and a truncation flag.
    """
    from .abstract_exec import AbstractExecution, fold_entry

    if max_states is None:
        max_states = int(os.environ.get("CTRD_MAX_STATES", "500000"))
    summary = ExploreSummary()
    seen: set = set()

    def visit(cfg: CloudConfig, exec_: AbstractExecution, depth: int) -> None:
        key = (cfg.key(), exec_.key())
        if key in seen:
            return
        seen.add(key)
        summary.states += 1
        if summary.states > max_states:
            raise StateSpaceLimit(f"more than {max_states} states")
        if check_wf_each:
            report = check_wf(cfg)
            if not report.ok:
                summary.wf_violations.extend(report.problems)
        choices = enabled(cfg)
        if not choices or depth >= max_depth:
            truncated = bool(choices)
            summary.traces += 1
            summary.truncated += int(truncated)
            if on_trace is not None:
                on_trace(exec_, cfg, truncated)
            return
        for choice in choices:
            nxt, entry = step_cloud(cfg, choice)
            nxt_exec = exec_.copy()
            fold_entry(nxt_exec, entry)
            visit(nxt, nxt_exec, depth + 1)

    visit(config, AbstractExecution(config.clients), 0)
    return summary


# ---------------------------------------------------------------------------
# Well-formedness (executable subject-reduction checks)

@dataclass
class WfReport:
    ok: bool
    problems: list[str]

    def summary(self, name: str = "wf") -> str:
        return f"CHECK {name} {'OK' if self.ok else 'FAIL ' + self.problems[0]}"


def check_wf(config: CloudConfig) -> WfReport:
    """Re-typecheck every store, identifier map, buffer, and residual term
    against the store and identifier typings."""
    problems: list[str] = []
    sigma, ids = config.store_typing, config.id_typing
    env = TypeEnv(gamma={}, sigma=sigma, ids=ids, effect=LOC, runtime=True)

    def check_store(owner: str, store: dict) -> None:
        for o in sorted(store, key=lambda loc: loc.sort_key()):
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

    for cid in sorted(config.clients):
        client = config.clients[cid]
        check_store(f"client {cid} store", client.store)
        for ident, o in sorted(client.idmap.items(), key=lambda kv: kv[0].sort_key()):
            if ident not in ids:
                problems.append(f"client {cid}: {ident} missing from the identifier typing")
            elif o not in sigma:
                problems.append(f"client {cid}: {ident} maps to untyped {o}")
            elif not subtype(sigma[o], ids[ident]):
                problems.append(
                    f"client {cid}: {ident} maps to {o} of type {pretty_type(sigma[o])}, "
                    f"identifier typing {pretty_type(ids[ident])}")
        for m in client.buffer:
            _check_message(config, m, f"client {cid} buffer", problems)
        try:
            typecheck_term(env, client.term)
        except CheckError as e:
            problems.append(f"client {cid}: residual term untypable: {e.message}")

    for i, server in enumerate(config.servers):
        check_store(f"server {i}", server.store)

    for m in config.mailbox:
        _check_message(config, m, "mailbox", problems)

    for ident, o in sorted(config.global_ids.items(), key=lambda kv: kv[0].sort_key()):
        if o not in sigma:
            problems.append(f"global map: {ident} maps to untyped {o}")
        elif ident not in ids:
            problems.append(f"global map: {ident} missing from the identifier typing")
        elif not subtype(sigma[o], ids[ident]):
            problems.append(f"global map: {ident} at {o}: "
                            f"{pretty_type(sigma[o])} vs {pretty_type(ids[ident])}")

    return WfReport(not problems, problems)


def _check_message(config: CloudConfig, m: Message, where: str, problems: list[str]) -> None:
    if isinstance(m, Req):
        if m.ident not in config.id_typing:
            problems.append(f"{where}: request for untyped {m.ident}")
        return
    env = TypeEnv(gamma={}, sigma=config.store_typing, ids=config.id_typing,
                  effect=LOC, runtime=True)
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
