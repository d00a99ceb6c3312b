"""The one-pass `--trace` writer against the dict-building oracle in
trace_oracle.py: the text is byte for byte `json.dumps` of the oracle's
dicts with indent=2 and sort_keys, and parses back to them."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import trace_oracle
from conftest import RUNNABLE, RUNNABLE_COUNT, checked_config, gen, load, log_of
from ctrd.cli import trace_json
from ctrd.lattice import GSet, NatMax
from ctrd.runtime_cloud import TraceEntry, make_scheduler, run
from ctrd.runtime_local import Action, EventId, Log
from ctrd.syntax import (
    CON, LABELS, BoolVal, Closure, Duplicated, LatOp, LatType, Lit, Location,
    Plain, RecordVal, UNIT, Var,
)


def _assert_written_as_oracle(trace: list[TraceEntry]) -> None:
    want = trace_oracle.trace_json(trace)
    text = trace_json(trace)
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == want


# ---------------------------------------------------------------------------
# runs of the corpus

SCHEDULERS = [("random", 0), ("random", 1), ("random", 2),
              ("drain-fair", 0), ("round-robin", 0)]


def test_corpus_traces_are_written_as_the_oracle_writes_them():
    assert len(RUNNABLE) == RUNNABLE_COUNT
    snapshots = 0
    for path in RUNNABLE:
        _, _, cfg = checked_config(load(path))
        for name, seed in SCHEDULERS:
            res = run(cfg, make_scheduler(name, seed), 10_000)
            snapshots += sum(e.action.snapshot is not None for e in res.trace)
            _assert_written_as_oracle(res.trace)
    assert snapshots > 0


def test_a_long_generated_run_is_written_as_the_oracle_writes_it():
    # a benchmark-sized let-chain program: server logs over 100 events
    # long, whose snapshots are written from their tails' text, and
    # deliveries that enter the common log behind later events of their
    # own client, where a listing in (client, n) order cannot just append
    _, _, cfg = checked_config(gen.chain_program(11000, "long", gen.LONG_MIX, True).text)
    res = run(cfg, make_scheduler("random", 5), 100_000)
    assert res.status == "quiescent" and res.steps > 1000
    commons = [s for e in res.trace if (s := e.action.snapshot) and s.event is None]
    assert max(len(e.action.snapshot or ()) for e in res.trace) > 100
    assert any(x.client == e.client and x.n > e.n
               for before, after in zip(commons, commons[1:])
               for e in set(after) - set(before) for x in before)
    _assert_written_as_oracle(res.trace)


# ---------------------------------------------------------------------------
# generated traces

# quote, backslash, control characters, non-ASCII, a line separator and a
# lone surrogate, which encode_basestring_ascii escapes as json.dumps does
_strings = st.text(alphabet=st.sampled_from(
    ['a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
     'é', 'λ', '\u2028', '\ud800', '😀']), max_size=6) | st.text(max_size=4)
_labels = st.sampled_from(LABELS)
_events = st.builds(EventId, st.integers(0, 3), st.integers(1, 6))
_locations = st.builds(Location, st.integers(0, 3), st.integers(0, 5), st.booleans())
_string_sets = st.builds(lambda xs, lab: Plain(GSet(frozenset(xs)), lab),
                         st.lists(_strings, max_size=4), _labels)
_bodies = st.one_of(
    st.builds(Lit, _string_sets),
    st.builds(lambda v: LatOp("join", Var("x"), Lit(v)), _string_sets),
)
_closures = st.builds(
    lambda lab, param, body: Plain(Closure(lab, param, LatType(lab), body), lab),
    _labels, st.sampled_from(["x", "y"]), _bodies)
_leaves = st.one_of(
    st.builds(lambda n, lab: Plain(NatMax(n), lab), st.integers(0, 10 ** 12), _labels),
    _string_sets,
    st.builds(lambda b, lab: Plain(BoolVal(b), lab), st.booleans(), _labels),
    st.builds(lambda lab: Plain(UNIT, lab), _labels),
    st.builds(Plain, _locations, _labels),
    _closures,
    st.builds(lambda body: Duplicated(body), _bodies),
)


def _records(inner):
    names = st.sampled_from(["a", "b", "c\"q", "ü"])
    return st.builds(
        lambda fields, lab: Plain(RecordVal(tuple(sorted(fields.items()))), lab),
        st.dictionaries(names, inner, max_size=3), _labels)


_values = st.recursive(_leaves, _records, max_leaves=6)
_sources = st.one_of(
    st.builds(lambda c: ("local", c), st.integers(0, 3)),
    st.builds(lambda r: ("server", r), st.integers(0, 3)),
    st.just(("servers",)),
    st.just(()),
)


@st.composite
def _snapshot_pools(draw):
    # bases listed from masks, the common log's form, and cells pushed onto
    # them and onto one another, so that snapshots share tails and equal
    # logs need not be the same cells; then a base equal to another but not
    # the same object, and one with the same mask over other clients, which
    # lists other events
    empty = log_of(())
    masks = draw(st.lists(st.integers(0, (1 << 24) - 1), max_size=3))
    cells = [empty, *(Log.base(m, empty.clients) for m in masks)]
    for e in draw(st.lists(_events, max_size=12)):
        cells.append(Log(e, draw(st.sampled_from(cells))))
    return cells + [Log.base(m, c) for m in masks[:1] for c in (empty.clients, (1, 3))]


@st.composite
def _traces(draw):
    # entries draw snapshots and values from small pools, so one object is
    # met again later in the trace (the writer renders it once) alongside
    # equal objects that are not the same one
    snap_pool = draw(_snapshot_pools())
    value_pool = draw(st.lists(st.none() | _values, min_size=1, max_size=3))
    snapshot = st.none() | st.sampled_from(snap_pool)
    value = st.sampled_from(value_pool) | st.none() | _values
    action = st.builds(
        Action, _labels, st.sampled_from(["rd", "wr", "ref", "eps"]),
        st.none() | _labels, st.none() | _events, st.none() | _locations, value,
        st.none() | _sources, snapshot, st.none() | _labels, st.booleans())
    entry = st.builds(
        TraceEntry, st.integers(0, 10 ** 6),
        st.sampled_from(["E-READ-CON", "E-PROCESS-UPDATE"]) | _strings, action,
        st.none() | st.integers(0, 3), st.none() | st.integers(0, 3),
        st.none() | st.integers(0, 10 ** 6))
    return draw(st.lists(entry, max_size=6))


@settings(max_examples=120, deadline=None)
@given(_traces())
def test_generated_traces_are_written_as_the_oracle_writes_them(trace):
    _assert_written_as_oracle(trace)


# ---------------------------------------------------------------------------
# each optional key, on and off

def test_empty_trace():
    assert trace_json([]) == "[]\n"
    _assert_written_as_oracle([])


_FULL = TraceEntry(
    7, "E-READ-CON",
    Action(CON, "rd", label=CON, event=EventId(1, 2), location=Location(1, 0, True),
           value=Plain(NatMax(3), CON), source=("server", 1),
           snapshot=log_of([EventId(2, 1), EventId(1, 1)]), literal_label=LABELS[3],
           synced=True),
    client=1, server=0, node_count=12)
_ACTION_OFF = {"label": None, "literal_label": None, "snapshot": None,
               "synced": False, "event": None, "location": None, "value": None,
               "source": None}


@pytest.mark.parametrize("field", sorted(_ACTION_OFF))
def test_each_optional_action_field_off(field):
    entry = replace(_FULL, action=replace(_FULL.action, **{field: _ACTION_OFF[field]}))
    _assert_written_as_oracle([_FULL, entry, _FULL])
    action = json.loads(trace_json([entry]))[0]["action"]
    if field in ("label", "literal_label", "snapshot", "synced"):
        assert field not in action
    else:
        assert action[field] is None


@pytest.mark.parametrize("field", ["node_count", "client", "server"])
def test_each_optional_entry_field_off(field):
    entry = replace(_FULL, **{field: None})
    _assert_written_as_oracle([entry, _FULL])
    written = json.loads(trace_json([entry]))[0]
    if field == "node_count":
        assert "nodes" not in written
    else:
        assert written[field] is None


def test_zero_counts_are_written():
    entry = replace(_FULL, step=0, client=0, server=0, node_count=0)
    _assert_written_as_oracle([entry])
    written = json.loads(trace_json([entry]))[0]
    assert (written["step"], written["client"], written["server"], written["nodes"]) == (0, 0, 0, 0)


def test_empty_snapshot_and_source_forms():
    empty = replace(_FULL, action=replace(_FULL.action, snapshot=log_of(())))
    _assert_written_as_oracle([empty])
    assert json.loads(trace_json([empty]))[0]["action"]["snapshot"] == []
    for source in [("local", 0), ("servers",), ()]:
        _assert_written_as_oracle([replace(_FULL, action=replace(_FULL.action, source=source))])
