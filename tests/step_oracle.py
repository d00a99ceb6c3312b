"""Substitution, the server and common logs, and the enabled choices as
they stood before pruning, before logs became cells and before clients
kept their choices, kept as differential oracles.

`subst` walks the whole term on every call and rebuilds every closure
literal and shadowing let it passes, whether or not the name occurs.
`free_names` computes a term's free names from scratch, caching nothing.
`logs_after` keeps every server's log as a tuple, newest first, and
`common_seq` intersects every server's log and sorts the result.
`enabled` builds every choice of a configuration from scratch and sorts
the whole list by the Choice tuples; `server_read` states on its own which
redexes a server answers.
"""

from __future__ import annotations

from operator import attrgetter

from ctrd.runtime_cloud import Choice, Kind
from ctrd.runtime_local import Update, event_bit
from ctrd.syntax import (AVA, Await, CON, Closure, Deref, FlexRead, Let, Lit, Location, OAC,
                         Plain, Var, children, map_children)


def subst(t, name: str, value):
    def go(t):
        cls = t.__class__
        if cls is Var:
            return value if t.name == name else t
        if cls is Lit:
            v = t.value
            if isinstance(v, Plain) and isinstance(v.raw, Closure) and v.raw.param != name:
                c = v.raw
                return Lit(Plain(Closure(c.latent, c.param, c.param_type, go(c.body)),
                                 v.label), t.pos)
            return t
        if cls is Let and t.name == name:
            return Let(name, go(t.bound), t.body, t.pos)
        return map_children(t, go)

    return go(t)


def free_names(t) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Lit):
        v = t.value
        if isinstance(v, Plain) and isinstance(v.raw, Closure):
            return free_names(v.raw.body) - {v.raw.param}
        return frozenset()
    if isinstance(t, Let):
        return free_names(t.bound) | (free_names(t.body) - {t.name})
    return frozenset().union(*map(free_names, children(t)))


def logs_after(logs: tuple, entry) -> tuple:
    """The server logs after one step: a synchronized write prepends its
    event to every log, and a delivery to its server's."""
    a = entry.action
    if a.synced:
        return tuple((a.event,) + log for log in logs)
    if entry.rule == "E-PROCESS-UPDATE":
        return tuple((a.event,) + log if r == entry.server else log
                     for r, log in enumerate(logs))
    return logs


def common_seq(logs) -> tuple:
    """Events present in every log, in (client, n) order."""
    if not logs:
        return ()
    common = set(logs[0])
    for log in logs[1:]:
        common.intersection_update(log)
    return tuple(sorted(common, key=attrgetter("client", "n")))


# the rules whose action records the common log as it stood before the step
COMMON_LOG_RULES = frozenset({"E-CONREF", "E-OACREF", "E-CONASSIGN",
                              "E-FLEXWRT-CON", "E-FLEXRD-CON", "E-CLONE"})


def server_read(client):
    """(label, location) of the read a server answers at the client's
    redex, or None: a dereference of a con cell or of an ava cell the
    client holds no replica of, or a flexread@ava of an oac cell it holds
    no replica of."""
    t = client.redex.term
    if not isinstance(t, (Deref, FlexRead)) or not isinstance(t.term, Lit):
        return None
    v = t.term.value
    if not (isinstance(v, Plain) and isinstance(v.raw, Location)):
        return None
    o, replica = v.raw, v.raw in client.store
    if isinstance(t, Deref) and v.label == CON:
        return CON, o
    if isinstance(t, Deref) and v.label == AVA and not replica:
        return AVA, o
    if isinstance(t, FlexRead) and t.label == AVA and v.label == OAC and not replica:
        return AVA, o
    return None


def enabled(config) -> list:
    """Every enabled choice of config, in the order of the Choice tuples."""
    out = []
    for cid in sorted(config.clients):
        client = config.clients[cid]
        if client.buffer:
            out.append(Choice(Kind.SEND, cid))
        if client.redex is None:
            continue
        t = client.redex.term
        if t.__class__ is Await and t.ident not in client.idmap:
            if t.ident in config.global_ids:
                out.append(Choice(Kind.AWAIT_RESOLVE, cid))
            continue
        read = server_read(client)
        if read is None:
            out.append(Choice(Kind.CLIENT_STEP, cid))
        else:
            kind = Kind.CON_READ if read[0] == CON else Kind.AVA_REMOTE_READ
            out.extend(Choice(kind, cid, server=i) for i, s in enumerate(config.servers)
                       if read[1] in s.store)
    clients = config.servers[0].seq.clients
    for m in config.mailbox:
        if isinstance(m, Update):
            bit = 1 << event_bit(clients, m.event)
            lacking = [Choice(Kind.DELIVER_UPDATE, message=m, server=r)
                       for r, s in enumerate(config.servers) if not s.seq.mask & bit]
            out.extend(lacking or [Choice(Kind.GC_UPDATE, message=m)])
        elif m.ident in config.global_ids and m.ident in config.clients[m.event.client].idmap:
            o = config.global_ids[m.ident]
            out.extend(Choice(Kind.PROCESS_REQ, message=m, server=r)
                       for r, s in enumerate(config.servers) if o in s.store)
    return sorted(out)
