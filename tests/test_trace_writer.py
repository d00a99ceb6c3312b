"""The one-pass `--trace` writer against the dict-building oracle in
trace_oracle.py: the text is byte for byte `json.dumps` of the oracle's
dicts with indent=2 and sort_keys, and parses back to them."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import trace_oracle
from conftest import RUNNABLE, checked_config, load
from ctrd.cli import trace_json
from ctrd.lattice import GSet, NatMax
from ctrd.runtime_cloud import TraceEntry, make_scheduler, run
from ctrd.runtime_local import Action, EventId
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
    assert len(RUNNABLE) == 45
    snapshots = 0
    for path in RUNNABLE:
        _, _, cfg = checked_config(load(path))
        for name, seed in SCHEDULERS:
            res = run(cfg, make_scheduler(name, seed), 10_000)
            snapshots += sum(e.action.snapshot is not None for e in res.trace)
            _assert_written_as_oracle(res.trace)
    assert snapshots > 0


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
_snapshots = st.lists(_events, max_size=8).map(tuple)


@st.composite
def _traces(draw):
    # entries draw snapshots and values from small pools, so one object is
    # met again later in the trace (the writer renders it once) alongside
    # equal objects that are not the same one
    snap_pool = draw(st.lists(_snapshots, min_size=1, max_size=3))
    value_pool = draw(st.lists(st.none() | _values, min_size=1, max_size=3))
    snapshot = st.none() | st.sampled_from(snap_pool) | _snapshots
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
           snapshot=(EventId(2, 1), EventId(1, 1)), literal_label=LABELS[3],
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
    empty = replace(_FULL, action=replace(_FULL.action, snapshot=()))
    _assert_written_as_oracle([empty])
    assert json.loads(trace_json([empty]))[0]["action"]["snapshot"] == []
    for source in [("local", 0), ("servers",), ()]:
        _assert_written_as_oracle([replace(_FULL, action=replace(_FULL.action, source=source))])
