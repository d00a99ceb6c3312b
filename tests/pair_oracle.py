"""Reference oracle for the abstract-execution checkers: histories as sets
of (EventId, EventId) pairs and the finite relation algebra over them.

This is the direct reading of the definitions, cubic in the number of
events. `check_sc` in `ctrd.abstract_exec` works on predecessor masks;
the tests hold it to this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ctrd.abstract_exec import (
    AbstractExecution, Operation, ScVerdict, return_value_of,
)
from ctrd.runtime_local import EventId

Pair = tuple[EventId, EventId]


@dataclass
class PairHistory:
    op: dict[EventId, Operation] = field(default_factory=dict)
    rval: dict[EventId, object] = field(default_factory=dict)
    rb: set[Pair] = field(default_factory=set)
    sp: dict[int, frozenset[EventId]] = field(default_factory=dict)
    vis: set[Pair] = field(default_factory=set)
    ar: set[Pair] = field(default_factory=set)


def pairs_of(exec_: AbstractExecution) -> PairHistory:
    """The same history with its relations read out through the pair views."""
    return PairHistory(dict(exec_.op), dict(exec_.rval), set(exec_.rb),
                       exec_.sp, set(exec_.vis), set(exec_.ar))


def set_pairs(ex: AbstractExecution, rel: str, pairs) -> None:
    """Replace relation rel ("rb", "vis" or "ar") of ex with the given
    pairs, written straight into its predecessor masks."""
    masks = getattr(ex, f"{rel}_masks")
    masks[:] = [0] * len(masks)
    for a, b in pairs:
        ia, ib = ex.index(a), ex.index(b)
        ex._grow(max(ia, ib))     # extends the mask lists in place
        masks[ib] |= 1 << ia


def mask_history(op: dict[EventId, Operation], rval=None, rb=(), vis=(),
                 ar=()) -> AbstractExecution:
    """A mask execution over op's events (each in its client's SP), with
    the given return values and relations."""
    ex = AbstractExecution(e.client for e in op)
    for e, o in op.items():
        ex.add_event(e, o)
    ex.rval.update(rval or {})
    for rel, pairs in (("rb", rb), ("vis", vis), ("ar", ar)):
        set_pairs(ex, rel, pairs)
    return ex


def relation_compose(r1: set[Pair], r2: set[Pair]) -> set[Pair]:
    by_left: dict[EventId, set[EventId]] = {}
    for b, c in r2:
        by_left.setdefault(b, set()).add(c)
    return {(a, c) for a, b in r1 for c in by_left.get(b, ())}


def relation_inverse(r: set[Pair]) -> set[Pair]:
    return {(b, a) for a, b in r}


def relation_negate(r: set[Pair], universe: frozenset[EventId]) -> set[Pair]:
    return {(a, b) for a in universe for b in universe} - set(r)


def program_order(h: PairHistory) -> set[Pair]:
    """Returns-before restricted to same-client pairs."""
    same: set[Pair] = set()
    for events in h.sp.values():
        same |= {(a, b) for a in events for b in events if a != b}
    return h.rb & same


def check_sc(h: PairHistory) -> ScVerdict:
    """The sequential-consistency clauses, read off the definitions."""
    universe = frozenset(h.op)
    po = program_order(h)
    reads = {e for e, op in h.op.items() if op.kind == "rd"}
    po_in_vis = all((a, b) in h.vis for a, b in po if b in reads)
    ar_vis = relation_compose(h.ar, h.vis) <= h.vis
    neg_vis = relation_negate(h.vis, universe)
    ar_neg_vis = relation_compose(relation_inverse(h.ar), neg_vis) <= neg_vis
    rval_ok = all(h.rval.get(e) == return_value_of(op) for e, op in h.op.items())
    return ScVerdict(po_in_vis, ar_vis, ar_neg_vis, rval_ok)
