"""Abstract executions: event histories folded out of traces, and the
sequential / eventual consistency checkers over them.

An abstract execution carries, per event: the operation (OP) and its return
value (RVAL); plus the returns-before order (RB), the per-client event sets
(SP), the visibility relation (VIS), and the arbitration order (AR).

Relations are stored as predecessor masks over a dense bit index, the
layout of runtime_local.event_bit over the execution's sorted client ids,
which server logs share. The index depends only on the event id, not on
the order events were folded in, so two interleavings that fold the same
history give equal masks and equal keys. Bit a of rb_masks[b] is set when
(a, b) is in RB, and likewise for vis_masks and ar_masks; sp_masks[s] holds
the events of the client in slot s. Every bit of every mask is below the
length of the mask lists. The attributes rb, vis and ar are read-only
views, discard aside, of the same relations as sets of (EventId, EventId)
pairs: only the abstraction rules (fold_entry) and project write a history.
"""

from __future__ import annotations

import json
from collections.abc import Set
from dataclasses import dataclass
from functools import reduce
from itertools import compress, count, islice
from operator import or_
from typing import Iterable, Iterator, Optional

from .lattice import GSet, NatMax
from .record import Frozen, fields
from .runtime_local import _flags, Action, EventId, Interned, Log, bit_event, event_bit
from .syntax import (
    AVA, BoolVal, CON, Closure, Duplicated, Label, Lit, Location, Plain,
    RecordVal, UnitVal, children, pretty, rebuild,
)
from .typecheck import check_program

Pair = tuple[EventId, EventId]


class MalformedTrace(Exception):
    pass


class NotQuiescent(Exception):
    pass


class ProgramsNotLowEquivalent(Exception):
    pass


class Operation(Frozen):
    kind: str                      # "rd" | "wr" | "ref"
    label: Label                   # semantic consistency level of the op
    location: Location
    value: object                  # LabeledValue


# ---------------------------------------------------------------------------
# Bit masks

def _bits(m: int) -> Iterator[int]:
    """The set bits of m, lowest first."""
    return compress(count(), _flags(m))


def _or_rows(rows: list[int], m: int) -> int:
    """The OR of rows[i] over the set bits i of m (all below len(rows))."""
    return reduce(or_, compress(rows, _flags(m)), 0)


def _successors(rows: list[int]) -> list[int]:
    """The successor masks of a relation given by its predecessor masks."""
    succ = [0] * len(rows)
    for a, m in enumerate(rows):
        if m:
            bit = 1 << a
            for b in _bits(m):
                succ[b] |= bit
    return succ


def _relation(masks: str) -> property:
    """A pair-set view of the relation stored in the named mask list."""
    return property(lambda self: PairView(self, getattr(self, masks)))


class AbstractExecution(Interned):
    """A history over the events of the given clients (see the module
    docstring for the mask layout).

    key_id interns each event's (index, op, rval) once and keys the
    execution by the sorted event ints and the rb, vis and ar masks: equal
    exactly when key(), the structural key built on every call, is equal.
    The event ints live in a map that copy() passes on, valid for one
    table; events are only ever added, so a copy folded one step further
    interns one event. An execution is interned only once it is no longer
    folded into or edited."""

    __slots__ = ("clients", "op", "rval", "sp_masks", "rb_masks",
                 "vis_masks", "ar_masks", "_table", "_id", "_events", "_events_table")

    def __init__(self, clients: Iterable[int] = ()):
        self.clients = tuple(sorted(set(clients)))
        self.op: dict[EventId, Operation] = {}
        self.rval: dict[EventId, object] = {}
        self.sp_masks = [0] * len(self.clients)
        self.rb_masks: list[int] = []
        self.vis_masks: list[int] = []
        self.ar_masks: list[int] = []
        self._table = self._events_table = None
        self._events: dict[EventId, int] = {}

    def copy(self) -> "AbstractExecution":
        new = object.__new__(AbstractExecution)
        new.clients = self.clients
        new.op, new.rval = dict(self.op), dict(self.rval)
        new.sp_masks, new.rb_masks = self.sp_masks[:], self.rb_masks[:]
        new.vis_masks, new.ar_masks = self.vis_masks[:], self.ar_masks[:]
        new._table, new._events_table = None, self._events_table
        new._events = dict(self._events)
        return new

    def key(self):
        index, rval = self.index, self.rval
        return (tuple(sorted((index(e), op, rval.get(e)) for e, op in self.op.items())),
                tuple(self.rb_masks), tuple(self.vis_masks), tuple(self.ar_masks))

    def key_id(self, table: dict) -> int:
        if self._table is not table:
            if self._events_table is not table:
                self._events, self._events_table = {}, table
            events, op = self._events, self.op
            # the events folded since the map was last filled, in order
            for e in islice(op, len(events), None):
                events[e] = table.setdefault((self.index(e), op[e], self.rval.get(e)), len(table))
            self._id = table.setdefault((tuple(sorted(events.values())), tuple(self.rb_masks),
                                         tuple(self.vis_masks), tuple(self.ar_masks)), len(table))
            self._table = table
        return self._id

    def index(self, e: EventId) -> int:
        if e.client not in self.clients or e.n < 1:
            raise MalformedTrace(f"event {e} lies outside clients {self.clients}")
        return event_bit(self.clients, e)

    def event_at(self, i: int) -> EventId:
        return bit_event(self.clients, i)

    def events_mask(self) -> int:
        return reduce(or_, self.sp_masks, 0)

    def _grow(self, i: int) -> None:
        """Extend the relation masks in place to cover bit i."""
        short = i + 1 - len(self.rb_masks)
        if short > 0:
            pad = [0] * short
            self.rb_masks += pad
            self.vis_masks += pad
            self.ar_masks += pad

    def add_event(self, e: EventId, op: Operation) -> tuple[int, int]:
        """Record a new event; returns its bit index and the mask of its
        client's earlier events."""
        if e in self.op:
            raise MalformedTrace(f"event {e} recorded twice")
        i = self.index(e)
        self._grow(i)
        slot = self.clients.index(e.client)
        prior = self.sp_masks[slot]
        self.sp_masks[slot] = prior | 1 << i
        self.op[e] = op
        return i, prior

    def history_mask(self, log: Log, what: str) -> int:
        """The mask of a recorded log, whose events must all be in the
        history; MalformedTrace names the lowest one that is not, or a log
        over other clients than the execution's."""
        m = log.mask
        if m and log.clients != self.clients:
            raise MalformedTrace(f"{what} records a log over clients {log.clients}, "
                                 f"not {self.clients}")
        stray = m & ~self.events_mask()
        if stray:
            e = self.event_at((stray & -stray).bit_length() - 1)
            raise MalformedTrace(f"{what} names an event outside the history: {e}")
        return m

    @property
    def sp(self) -> dict[int, frozenset[EventId]]:
        """Per-client event sets, for the clients that have events."""
        return {c: frozenset(map(self.event_at, _bits(m)))
                for c, m in zip(self.clients, self.sp_masks) if m}

    rb = _relation("rb_masks")
    vis = _relation("vis_masks")
    ar = _relation("ar_masks")


class PairView(Set):
    """One relation of an execution as a set of (EventId, EventId) pairs,
    read through its predecessor masks. discard clears one pair in place."""

    __slots__ = ("_exec", "_rows")

    def __init__(self, exec_: AbstractExecution, rows: list[int]):
        self._exec, self._rows = exec_, rows

    @classmethod
    def _from_iterable(cls, pairs):
        return set(pairs)

    def _indices(self, pair: Pair) -> Optional[tuple[int, int]]:
        try:
            return self._exec.index(pair[0]), self._exec.index(pair[1])
        except MalformedTrace:
            return None

    def __contains__(self, pair) -> bool:
        ij = self._indices(pair)
        if ij is None or ij[1] >= len(self._rows):
            return False
        return bool(self._rows[ij[1]] >> ij[0] & 1)

    def __iter__(self) -> Iterator[Pair]:
        at = self._exec.event_at
        for ib, m in enumerate(self._rows):
            if m:
                b = at(ib)
                for ia in _bits(m):
                    yield at(ia), b

    def __len__(self) -> int:
        return sum(m.bit_count() for m in self._rows)

    def discard(self, pair: Pair) -> None:
        if pair in self:
            ia, ib = self._indices(pair)
            self._rows[ib] &= ~(1 << ia)


_DELIVERY_RULE = "E-PROCESS-UPDATE"


def fold_entry(exec_: AbstractExecution, entry) -> None:
    """Fold one trace entry into the execution (the abstraction rules)."""
    act: Action = entry.action
    if act.kind == "eps":
        return   # A-INTERNAL: no history change
    nu = act.event
    if nu is None or act.location is None:
        raise MalformedTrace(f"action in {entry.rule} lacks an event or location")

    if act.kind == "rd":
        # A-READ: the read sees every event in the serving log plus its own
        # client's prior events
        if act.snapshot is None:
            raise MalformedTrace(f"read in {entry.rule} lacks a log snapshot")
        seen = exec_.history_mask(act.snapshot, f"read in {entry.rule}")
        i, prior = exec_.add_event(nu, Operation("rd", act.label, act.location, act.value))
        exec_.rb_masks[i] |= seen | prior
        exec_.vis_masks[i] |= seen | prior
        exec_.rval[nu] = act.value
        return

    if act.kind in ("wr", "ref"):
        if entry.rule == _DELIVERY_RULE:
            # A-MSGPROCESS: a buffered write landing on one more server;
            # arbitration inherits that server's prior log, no new event
            if nu not in exec_.op:
                raise MalformedTrace(f"delivery of unrecorded event {nu}")
            if act.snapshot is None:
                raise MalformedTrace("delivery lacks a log snapshot")
            exec_.ar_masks[exec_.index(nu)] |= exec_.history_mask(act.snapshot,
                                                                  "delivery")
            return
        common = 0
        if act.synced:
            # A-WRITE-1: all-server write; arbitration inherits the shared log
            if act.snapshot is None:
                raise MalformedTrace(f"{entry.rule} lacks a log snapshot")
            common = exec_.history_mask(act.snapshot, entry.rule)
        # A-WRITE-2 (not synced): local buffered write; no arbitration yet
        i, prior = exec_.add_event(nu, Operation(act.kind, act.label, act.location, act.value))
        exec_.rb_masks[i] |= common | prior
        exec_.ar_masks[i] |= common
        exec_.rval[nu] = act.location if act.kind == "ref" else "unit"
        return

    raise MalformedTrace(f"unknown action kind {act.kind!r}")


def record(trace: Iterable) -> AbstractExecution:
    """Build the abstract execution of a full trace, in the layout of the
    logs it records (a run's: its configuration's clients), or over the
    clients whose events it holds when no recorded log holds an event."""
    trace = list(trace)
    exec_ = AbstractExecution(next(
        (s.clients for e in trace if (s := e.action.snapshot) and s.len),
        [e.action.event.client for e in trace if e.action.event is not None]))
    for entry in trace:
        fold_entry(exec_, entry)
    return exec_


def project(exec_: AbstractExecution, lab: Label) -> AbstractExecution:
    """Restrict the execution to events at one consistency level."""
    out = AbstractExecution(exec_.clients)
    keep = 0
    for e, op in exec_.op.items():
        if op.label == lab:
            keep |= 1 << exec_.index(e)
            out.op[e] = op
    out.rval = {e: v for e, v in exec_.rval.items() if e in out.op}
    # rows of dropped events are cleared, columns masked by keep
    kept = _flags(keep).ljust(len(exec_.rb_masks), b"\0")
    cut = lambda masks: [m & keep if f else 0 for m, f in zip(masks, kept)]
    out.sp_masks = [m & keep for m in exec_.sp_masks]
    out.rb_masks, out.vis_masks, out.ar_masks = (
        cut(exec_.rb_masks), cut(exec_.vis_masks), cut(exec_.ar_masks))
    return out


def project_con(exec_: AbstractExecution) -> AbstractExecution:
    return project(exec_, CON)


def return_value_of(op: Operation):
    """The abstract return-value function: reads return the value, writes
    return unit, creations return the location."""
    if op.kind == "rd":
        return op.value
    if op.kind == "wr":
        return "unit"
    return op.location


# ---------------------------------------------------------------------------
# Sequential consistency checker

def _mark(b: bool) -> str:
    return "OK" if b else "FAIL"


@dataclass
class ScVerdict:
    po_in_vis: bool
    ar_vis_closure: bool
    ar_neg_vis_closure: bool
    rval_ok: bool

    @property
    def ok(self) -> bool:
        return (self.po_in_vis and self.ar_vis_closure
                and self.ar_neg_vis_closure and self.rval_ok)

    def summary(self, name: str = "sc") -> str:
        return (f"CHECK {name} po_in_vis={_mark(self.po_in_vis)} "
                f"ar_vis={_mark(self.ar_vis_closure)} "
                f"ar_neg_vis={_mark(self.ar_neg_vis_closure)} "
                f"rval={_mark(self.rval_ok)}")


def ar_chain(exec_: AbstractExecution) -> Optional[tuple[int, set[int]]]:
    """(members, the n + 1 prefixes) when ar is a chain, a strict total
    order of n events, else None: sorted by the popcount of its row, each
    member's row is the previous row plus the previous member, and the
    first member is the one without a row."""
    ar = exec_.ar_masks
    order = [i for _, i in sorted((m.bit_count(), i) for i, m in enumerate(ar) if m)]
    ranked = sum(1 << i for i in order)
    members = reduce(or_, ar, ranked)
    prefix = first = members & ~ranked
    if members & ~exec_.events_mask() or first & (first - 1) or (members and not first):
        return None
    prefixes = {0, first}
    for i in order:
        if ar[i] != prefix:
            return None
        prefix |= 1 << i
        prefixes.add(prefix)
    return members, prefixes


def _ar_closures(exec_: AbstractExecution) -> tuple[bool, bool]:
    """check_sc's two closure clauses for any ar, O(n) ORs of ar rows per
    distinct row; the reference the chain path is tested against."""
    vis, ar, events = exec_.vis_masks, exec_.ar_masks, exec_.events_mask()
    # ar ; vis within vis: whatever c sees, c sees its ar-predecessors too
    # (each distinct row once)
    ar_vis = not any(_or_rows(ar, v) & ~v for v in set(vis))
    # ar^-1 ; not-vis within not-vis, with not-vis the complement of vis over
    # the events: the ar-successors of what an event does not see are events
    # it does not see. Checked on its own, from successor masks, so that it
    # fails where relations reach outside the history.
    succ = _successors(ar)
    return ar_vis, not any(_or_rows(succ, u) & ~u
                           for u in {events & ~vis[c] for c in _bits(events)})


def check_sc(exec_: AbstractExecution) -> ScVerdict:
    """Sequential-consistency conditions over an execution.

    Program order must be visible (only read events observe, so the
    condition bites on read targets); visibility must be closed under
    arbitration prefixes both positively and negatively; and every recorded
    return value must match the abstract return-value function. Every
    history that fold_entry builds meets po_in_vis and rval_ok by
    construction: A-READ writes one row into a read's rb and its vis, and
    rval is taken from the action that op is taken from.

    When ar is a chain (ar_chain), as the common log is on a con
    projection, both closure clauses take one set lookup per vis row: SC
    against a given witness order is tractable (Gibbons & Korach 1997).
    Otherwise _ar_closures decides them.
    """
    rb, vis, sp = exec_.rb_masks, exec_.vis_masks, exec_.sp_masks
    k = len(exec_.clients)
    reads = [exec_.index(e) for e, op in exec_.op.items() if op.kind == "rd"]
    # po within vis on reads: a read sees its client's earlier events
    po_in_vis = not any(rb[c] & sp[c % k] & ~vis[c] & ~(1 << c) for c in reads)
    if held := ar_chain(exec_):
        # ar ; vis within vis: every row's members are a prefix; ar^-1 ;
        # not-vis within not-vis: every event's unseen members a suffix
        members, prefixes = held
        closed = [v & members in prefixes for v in vis]
        ar_vis, ar_neg_vis = all(closed), all(compress(closed, _flags(exec_.events_mask())))
    else:
        ar_vis, ar_neg_vis = _ar_closures(exec_)
    rval_ok = all(exec_.rval.get(e) == return_value_of(op)
                  for e, op in exec_.op.items())
    return ScVerdict(po_in_vis, ar_vis, ar_neg_vis, rval_ok)


# ---------------------------------------------------------------------------
# Eventual consistency checker

@dataclass
class EcVerdict:
    eventual_visibility: bool
    rval_ok: bool
    converged: bool

    @property
    def ok(self) -> bool:
        return self.eventual_visibility and self.rval_ok and self.converged

    def summary(self, name: str = "ec") -> str:
        return (f"CHECK {name} eventual_visibility={_mark(self.eventual_visibility)} "
                f"rval={_mark(self.rval_ok)} converged={_mark(self.converged)}")


def check_ec(exec_: AbstractExecution, config) -> EcVerdict:
    """Finite-trace surrogate for eventual consistency at quiescence: every
    available write reached every server log, replicas agree everywhere,
    and a probe read of any location an available write landed at would
    see the joined value from any server."""
    from .runtime_cloud import quiescent

    if not quiescent(config):
        raise NotQuiescent("eventual-consistency check needs a quiescent run")
    ava_writes = {e for e, op in exec_.op.items()
                  if op.label == AVA and op.kind in ("wr", "ref")}
    common = config.common
    in_all_logs = all(e in common for e in ava_writes)
    stores = [sorted(s.store.items()) for s in config.servers]
    converged = all(st == stores[0] for st in stores[1:])
    # an update joins into its identifier's published location, which a
    # client that lost the race to create the identifier does not hold
    landed = lambda e, o: config.global_ids.get(config.clients[e.client].getkey(o), o)
    ava_locs = {landed(e, op.location) for e, op in exec_.op.items() if e in ava_writes}
    agree = True
    for o in ava_locs:
        held = [s.store.get(o) for s in config.servers]
        if any(v is None for v in held) or any(v != held[0] for v in held[1:]):
            agree = False
    rval_ok = all(exec_.rval.get(e) == return_value_of(op)
                  for e, op in exec_.op.items() if op.label == AVA)
    return EcVerdict(in_all_logs and agree, rval_ok, converged)


# ---------------------------------------------------------------------------
# Observation and noninterference

def value_json(v, labels: bool = True):
    """JSON view of a value. With labels=False the consistency labels are
    erased and unit becomes the bare string "unit"."""
    if v is None:
        return None
    if isinstance(v, Duplicated):
        return {"duplicated": pretty(v.inner)}
    raw = v.raw
    if isinstance(raw, NatMax):
        form, payload = "nat", raw.n
    elif isinstance(raw, GSet):
        form, payload = "set", sorted(raw.elems)
    elif isinstance(raw, BoolVal):
        form, payload = "bool", raw.value
    elif isinstance(raw, UnitVal):
        if not labels:
            return "unit"
        form, payload = "unit", True
    elif isinstance(raw, Location):
        form, payload = "loc", str(raw)
    elif isinstance(raw, RecordVal):
        form, payload = "record", {n: value_json(fv, labels) for n, fv in raw.fields}
    elif isinstance(raw, Closure):
        form, payload = "fn", pretty(raw.body)
    else:
        form, payload = "opaque", str(raw)
    return {"label": str(v.label), form: payload} if labels else {form: payload}


def con_observation(config) -> dict[str, object]:
    """Agreed server values of every con-labeled identifier, labels erased."""
    out: dict[str, object] = {}
    for ident in sorted(config.global_ids):
        if ident.label != CON:
            continue
        o = config.global_ids[ident]
        held = [s.store.get(o) for s in config.servers if o in s.store]
        if not held:
            out[str(ident)] = None
            continue
        if any(v != held[0] for v in held[1:]):
            # in JSON order, not server order: servers are interchangeable
            out[str(ident)] = {"disagreement": sorted(
                (value_json(v, labels=False) for v in held), key=_canonical_obs)}
            continue
        out[str(ident)] = value_json(held[0], labels=False)
    return out


def _canonical_obs(obs: dict) -> str:
    return json.dumps(obs, sort_keys=True)


def _check_value_low_equiv(va, vb) -> None:
    if va == vb:
        return
    if isinstance(va, Plain) and isinstance(vb, Plain):
        ra, rb_ = va.raw, vb.raw
        if (isinstance(ra, Closure) and isinstance(rb_, Closure)
                and va.label == vb.label
                and (ra.latent, ra.param, ra.param_type)
                == (rb_.latent, rb_.param, rb_.param_type)):
            check_low_equivalence(ra.body, rb_.body)
            return
        if (isinstance(ra, RecordVal) and isinstance(rb_, RecordVal)
                and va.label == vb.label
                and [n for n, _ in ra.fields] == [n for n, _ in rb_.fields]):
            for (_, fa), (_, fb) in zip(ra.fields, rb_.fields):
                _check_value_low_equiv(fa, fb)
            return
        if (va.label == AVA and vb.label == AVA
                and not isinstance(ra, (Location, Closure, RecordVal))
                and type(ra) is type(rb_)):
            return
    raise ProgramsNotLowEquivalent(
        f"literals differ at a non-ava position: {pretty(Lit(va))} vs {pretty(Lit(vb))}")


def _form(t) -> str:
    """A term's form and its source position, for a diagnostic."""
    return f"{t.__class__.__name__} at {t.pos[0]}:{t.pos[1]}" if t.pos else t.__class__.__name__


def check_low_equivalence(ta, tb) -> None:
    """Terms must be identical except in ava-labeled literal constants.
    Each node's last child is walked in a loop, the others by a call, so a
    let spine, whose body is the last child, is walked in a loop."""
    while not (isinstance(ta, Lit) and isinstance(tb, Lit)):
        ka, kb = children(ta), children(tb)
        # the nodes with their children blanked out: every other field compared
        shape_a = rebuild(ta, (None,) * len(ka))
        shape_b = rebuild(tb, (None,) * len(kb))
        if shape_a != shape_b:
            diff = f"structure differs: {_form(ta)} vs {_form(tb)}"
            if ta.__class__ is tb.__class__:        # name the first field that differs
                name = next(n for n in fields(ta) if getattr(shape_a, n) != getattr(shape_b, n))
                show = (lambda fs: ", ".join(n for n, _ in fs)) if name == "fields" else str
                diff += f": {name} {show(getattr(ta, name))} vs {show(getattr(tb, name))}"
            raise ProgramsNotLowEquivalent(diff)
        if not ka:
            return
        for a, b in zip(ka[:-1], kb[:-1]):
            check_low_equivalence(a, b)
        ta, tb = ka[-1], kb[-1]
    _check_value_low_equiv(ta.value, tb.value)


@dataclass
class NifVerdict:
    """equivalent is True when the two sets of con observations are equal,
    False when one side has an observation that the other lacks and the
    other cut no trace at the depth bound, and None otherwise: no verdict,
    as the missing observations may lie past the cut traces."""
    equivalent: Optional[bool]
    observations_a: frozenset[str]
    observations_b: frozenset[str]
    truncated_a: int
    truncated_b: int


def check_noninterference(prog_a, prog_b, max_depth: int,
                          servers: Optional[int] = None) -> NifVerdict:
    """Programs that differ only in ava literals must have the same set of
    con observations across every schedule."""
    from .runtime_cloud import explore, initial_config

    if prog_a.servers != prog_b.servers or len(prog_a.clients) != len(prog_b.clients):
        raise ProgramsNotLowEquivalent("program headers differ")
    for (ca, ta), (cb, tb) in zip(prog_a.clients, prog_b.clients):
        if ca != cb:
            raise ProgramsNotLowEquivalent("client ids differ")
        check_low_equivalence(ta, tb)

    results = []
    for prog in (prog_a, prog_b):
        checked = check_program(prog)
        cfg = initial_config(prog, checked.id_types, servers)
        obs: set[str] = set()
        truncated = [0]

        def on_trace(exec_, final, was_truncated, obs=obs, truncated=truncated):
            if was_truncated:
                truncated[0] += 1
            else:
                obs.add(_canonical_obs(con_observation(final)))

        explore(cfg, max_depth, on_trace=on_trace)
        results.append((frozenset(obs), truncated[0]))

    (obs_a, trunc_a), (obs_b, trunc_b) = results
    # an observation that one side lacks counts only if that side cut no trace
    apart = (obs_a - obs_b and not trunc_b) or (obs_b - obs_a and not trunc_a)
    return NifVerdict(obs_a == obs_b or (False if apart else None),
                      obs_a, obs_b, trunc_a, trunc_b)
