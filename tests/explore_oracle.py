"""The explorer as it stood before interned state keys, server-permutation
orbits and log sets, kept as a differential oracle: it visits every
concrete state, each server's log in the order it was written.

`structural_key` rebuilds a configuration's key from every component on
every call, reading their fields directly, so no cached key can hide a
component that was mutated after it was keyed; a client's term is closed
over its pending values, so the key is that of the whole program. `explore` is the plain
depth-first search: it deduplicates on the pair (structural key, execution
key) and copies and folds the execution on every step, internal ones
included. `terminal_outcomes` gives the set of what the checkers can tell
apart at the end of each maximal trace, the figure that a reduced explorer
must reproduce.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Optional

import step_oracle
from conftest import log_events
from ctrd.abstract_exec import AbstractExecution, con_observation, fold_entry
from ctrd.cli import CHECKS
from ctrd.runtime_cloud import (
    ExploreSummary, StateSpaceLimit, enabled, step_cloud,
)
from ctrd.syntax import LABELS, Location


def _name_key(x) -> tuple:
    """The order of a location or an identifier, written out here rather
    than taken from the types: a location by (client, serial, remote), an
    identifier by (rank of its label in the chain, index)."""
    if isinstance(x, Location):
        return (x.client, x.serial, int(x.remote))
    return (LABELS.index(x.label), x.index)


def _by_name_key(d: dict) -> tuple:
    return tuple(sorted(d.items(), key=lambda kv: _name_key(kv[0])))


def closed_term(c):
    """The client's whole residual program: its term with the values its
    root let spine still waits on put in by the oracle's own subst."""
    t = c.term
    for name, value in c.pending:
        t = step_oracle.subst(t, name, value)
    return t


def client_key(c) -> tuple:
    return (c.cid, closed_term(c), _by_name_key(c.store), c.buffer, _by_name_key(c.idmap),
            c.loc_counter, c.event_counter)


def server_key(s) -> tuple:
    return (_by_name_key(s.store), tuple(log_events(s.seq)))


def structural_key(cfg) -> tuple:
    return (
        tuple(client_key(cfg.clients[cid]) for cid in sorted(cfg.clients)),
        tuple(sorted(cfg.mailbox, key=lambda m: m.event)),
        tuple(server_key(s) for s in cfg.servers),
        _by_name_key(cfg.global_ids),
        _by_name_key(cfg.store_typing),
    )


def orbit_key(cfg) -> tuple:
    """The structural key of cfg's class under server permutations and log
    orders: the servers as a multiset of (store, log set). The mailbox is
    kept as it is, since a delivery changes only a server."""
    clients, mailbox, servers, ids, typing = structural_key(cfg)
    servers = Counter((store, frozenset(seq)) for store, seq in servers)
    return clients, mailbox, frozenset(servers.items()), ids, typing


def explore(config, max_depth: int, on_trace: Optional[Callable] = None,
            max_states: int = 500_000, check_depth: bool = False) -> ExploreSummary:
    """Every interleaving to a depth bound, deduplicated on the structural
    pair; on_trace(exec_, final config, truncated) per maximal trace.

    With check_depth, every arrival at a configuration's orbit_key, the
    ones deduplication cuts included, must come at the same depth:
    AssertionError otherwise. Depth-bounded deduplication on that class is
    exact only then."""
    summary = ExploreSummary()
    seen: set = set()
    depth_of: dict = {}

    def visit(cfg, exec_: AbstractExecution, depth: int) -> None:
        if check_depth:
            first = depth_of.setdefault(orbit_key(cfg), depth)
            assert first == depth, f"a configuration reached at depths {first} and {depth}"
        key = (structural_key(cfg), exec_.key())
        if key in seen:
            return
        seen.add(key)
        summary.states += 1
        if summary.states > max_states:
            raise StateSpaceLimit(f"more than {max_states} states")
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


def terminal_outcomes(config, max_depth: int, explore_fn: Callable = explore,
                      **options) -> tuple[set, ExploreSummary]:
    """The distinct outcomes of explore_fn's maximal traces, and its
    summary. An outcome is the execution's structural key, the con
    observation, the truncated flag and the sc, sc-con and ec verdicts."""
    outcomes: set = set()

    def on_trace(exec_, final, truncated):
        outcomes.add((exec_.key(), json.dumps(con_observation(final), sort_keys=True),
                      truncated, *[CHECKS[name](exec_, final).ok
                                   for name in ("sc", "sc-con", "ec")]))

    summary = explore_fn(config, max_depth, on_trace=on_trace, **options)
    return outcomes, summary
