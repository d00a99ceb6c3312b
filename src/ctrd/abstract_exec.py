"""Abstract executions: event histories folded out of traces, finite
relation algebra, and the sequential / eventual consistency checkers.

An abstract execution carries, per event: the operation (OP) and its return
value (RVAL); plus the returns-before order (RB), the per-client event sets
(SP), the visibility relation (VIS), and the arbitration order (AR).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .lattice import GSet, NatMax, lat_join
from .runtime_local import Action, EventId
from .syntax import (
    AVA, BoolVal, CON, Closure, Duplicated, Label, Lit, Location, Plain,
    RecordVal, UnitVal, children, pretty, rebuild,
)
from .typecheck import check_program

NABLA = "nabla"          # no return value recorded
Pair = tuple[EventId, EventId]


class MalformedTrace(Exception):
    pass


class NotQuiescent(Exception):
    pass


class ProgramsNotLowEquivalent(Exception):
    pass


@dataclass(frozen=True)
class Operation:
    kind: str                      # "rd" | "wr" | "ref"
    label: Label                   # semantic consistency level of the op
    location: Location
    value: object                  # LabeledValue
    literal_label: Optional[Label] = None


@dataclass
class AbstractExecution:
    op: dict[EventId, Operation] = field(default_factory=dict)
    rval: dict[EventId, object] = field(default_factory=dict)
    rb: set[Pair] = field(default_factory=set)
    sp: dict[int, frozenset[EventId]] = field(default_factory=dict)
    vis: set[Pair] = field(default_factory=set)
    ar: set[Pair] = field(default_factory=set)

    def copy(self) -> "AbstractExecution":
        return AbstractExecution(dict(self.op), dict(self.rval), set(self.rb),
                                 dict(self.sp), set(self.vis), set(self.ar))

    def events(self) -> frozenset[EventId]:
        return frozenset(self.op)

    def key(self):
        return (
            tuple(sorted(self.op.items(), key=lambda kv: kv[0].sort_key())),
            tuple(sorted(self.rval.items(), key=lambda kv: kv[0].sort_key())),
            frozenset(self.rb),
            tuple(sorted((i, s) for i, s in self.sp.items())),
            frozenset(self.vis),
            frozenset(self.ar),
        )


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
        if nu in exec_.op:
            raise MalformedTrace(f"event {nu} recorded twice")
        i = entry.client
        prior = exec_.sp.get(i, frozenset())
        seen = set(act.snapshot) | prior
        exec_.op[nu] = Operation("rd", act.label, act.location, act.value,
                                 act.literal_label)
        exec_.rb |= {(w, nu) for w in seen}
        exec_.vis |= {(w, nu) for w in seen}
        exec_.sp[i] = prior | {nu}
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
            exec_.ar |= {(w, nu) for w in act.snapshot}
            return
        if nu in exec_.op:
            raise MalformedTrace(f"event {nu} recorded twice")
        i = entry.client
        prior = exec_.sp.get(i, frozenset())
        exec_.op[nu] = Operation(act.kind, act.label, act.location, act.value,
                                 act.literal_label)
        if act.synced:
            # A-WRITE-1: all-server write; arbitration inherits the shared log
            if act.snapshot is None:
                raise MalformedTrace(f"{entry.rule} lacks a log snapshot")
            common = set(act.snapshot)
            exec_.rb |= {(w, nu) for w in common | prior}
            exec_.ar |= {(w, nu) for w in common}
        else:
            # A-WRITE-2: local buffered write; no arbitration yet
            exec_.rb |= {(w, nu) for w in prior}
        exec_.sp[i] = prior | {nu}
        exec_.rval[nu] = act.location if act.kind == "ref" else "unit"
        return

    raise MalformedTrace(f"unknown action kind {act.kind!r}")


def record(trace: Iterable) -> AbstractExecution:
    """Build the abstract execution of a full trace."""
    exec_ = AbstractExecution()
    for entry in trace:
        fold_entry(exec_, entry)
    return exec_


# ---------------------------------------------------------------------------
# Finite relation algebra

def relation_compose(r1: set[Pair], r2: set[Pair]) -> set[Pair]:
    by_left: dict[EventId, set[EventId]] = {}
    for b, c in r2:
        by_left.setdefault(b, set()).add(c)
    return {(a, c) for a, b in r1 for c in by_left.get(b, ())}


def relation_inverse(r: set[Pair]) -> set[Pair]:
    return {(b, a) for a, b in r}


def relation_negate(r: set[Pair], universe: frozenset[EventId]) -> set[Pair]:
    return {(a, b) for a in universe for b in universe} - set(r)


def program_order(exec_: AbstractExecution) -> set[Pair]:
    """Returns-before restricted to same-client pairs."""
    same: set[Pair] = set()
    for events in exec_.sp.values():
        same |= {(a, b) for a in events for b in events if a != b}
    return exec_.rb & same


def project(exec_: AbstractExecution, lab: Label) -> AbstractExecution:
    """Restrict the execution to events at one consistency level."""
    keep = {e for e, op in exec_.op.items() if op.label == lab}
    return AbstractExecution(
        op={e: exec_.op[e] for e in keep},
        rval={e: v for e, v in exec_.rval.items() if e in keep},
        rb={(a, b) for a, b in exec_.rb if a in keep and b in keep},
        sp={i: frozenset(s & keep) for i, s in exec_.sp.items()},
        vis={(a, b) for a, b in exec_.vis if a in keep and b in keep},
        ar={(a, b) for a, b in exec_.ar if a in keep and b in keep},
    )


def project_con(exec_: AbstractExecution) -> AbstractExecution:
    return project(exec_, CON)


def project_ava(exec_: AbstractExecution) -> AbstractExecution:
    return project(exec_, AVA)


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


def check_sc(exec_: AbstractExecution) -> ScVerdict:
    """Sequential-consistency conditions over an execution.

    Program order must be visible (only read events observe, so the
    condition bites on read targets); visibility must be closed under
    arbitration prefixes both positively and negatively; and every recorded
    return value must match the abstract return-value function.
    """
    universe = exec_.events()
    po = program_order(exec_)
    reads = {e for e, op in exec_.op.items() if op.kind == "rd"}
    po_in_vis = all((a, b) in exec_.vis for a, b in po if b in reads)
    ar_vis = relation_compose(exec_.ar, exec_.vis) <= exec_.vis
    neg_vis = relation_negate(exec_.vis, universe)
    ar_neg_vis = relation_compose(relation_inverse(exec_.ar), neg_vis) <= neg_vis
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
    and a probe read of any available location would see the joined value
    from any server."""
    from .runtime_cloud import quiescent

    if not quiescent(config):
        raise NotQuiescent("eventual-consistency check needs a quiescent run")
    ava_writes = {e for e, op in exec_.op.items()
                  if op.label == AVA and op.kind in ("wr", "ref")}
    in_all_logs = all(
        all(e in s.seq for s in config.servers) for e in ava_writes
    )
    stores = [
        sorted(s.store.items(), key=lambda kv: kv[0].sort_key())
        for s in config.servers
    ]
    converged = all(st == stores[0] for st in stores[1:])
    ava_locs = {op.location for e, op in exec_.op.items() if e in ava_writes}
    agree = True
    for o in ava_locs:
        held = [s.store.get(o) for s in config.servers]
        if any(v is None for v in held) or any(v != held[0] for v in held[1:]):
            agree = False
    rval_ok = all(exec_.rval.get(e) == return_value_of(op)
                  for e, op in exec_.op.items() if op.label == AVA)
    return EcVerdict(in_all_logs and agree, rval_ok, converged)


def join_of_writes(trace: Iterable, location: Location):
    """Independent oracle: fold the lattice join over every wr/ref payload
    targeting a location (delivery entries replay the same events and are
    skipped)."""
    acc = None
    for entry in trace:
        act = entry.action
        if act.kind in ("wr", "ref") and act.location == location \
                and entry.rule != _DELIVERY_RULE:
            v = act.value
            if isinstance(v, Plain):
                acc = v.raw if acc is None else lat_join(acc, v.raw)
    return acc


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
    for ident in sorted(config.global_ids, key=lambda i: i.sort_key()):
        if ident.label != CON:
            continue
        o = config.global_ids[ident]
        held = [s.store.get(o) for s in config.servers if o in s.store]
        if not held:
            out[str(ident)] = None
            continue
        if any(v != held[0] for v in held[1:]):
            out[str(ident)] = {"disagreement": [value_json(v, labels=False)
                                                 for v in held]}
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
        f"literals differ at a non-ava position: {va} vs {vb}")


def check_low_equivalence(ta, tb) -> None:
    """Terms must be identical except in ava-labeled literal constants."""
    if isinstance(ta, Lit) and isinstance(tb, Lit):
        _check_value_low_equiv(ta.value, tb.value)
        return
    ka, kb = children(ta), children(tb)
    # the nodes with their children blanked out: every other field compared
    shape_a = rebuild(ta, (None,) * len(ka))
    shape_b = rebuild(tb, (None,) * len(kb))
    if shape_a != shape_b:
        raise ProgramsNotLowEquivalent(f"structure differs: {shape_a!r} vs {shape_b!r}")
    for a, b in zip(ka, kb):
        check_low_equivalence(a, b)


@dataclass
class NifVerdict:
    equivalent: bool
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
    return NifVerdict(obs_a == obs_b, obs_a, obs_b, trunc_a, trunc_b)
