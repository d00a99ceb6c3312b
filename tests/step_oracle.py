"""Substitution and the server and common logs as they stood before
pruning and before logs became cells, kept as differential oracles.

`subst` walks the whole term on every call and rebuilds every closure
literal and shadowing let it passes, whether or not the name occurs.
`free_names` computes a term's free names from scratch, caching nothing.
`logs_after` keeps every server's log as a tuple, newest first, and
`common_seq` intersects every server's log and sorts the result.
"""

from __future__ import annotations

from operator import attrgetter

from ctrd.syntax import Closure, Let, Lit, Plain, Var, children, map_children


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
