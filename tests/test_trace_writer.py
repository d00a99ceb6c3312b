"""The one-pass `--trace` writer against the dict-building oracle in
trace_oracle.py: the text is byte for byte `json.dumps` of the oracle's
dicts with indent=2 and sort_keys, and parses back to them. Its snapshot
handles lose nothing: replayed by `trace_v1`, they give the schema-1 file
that listed each snapshot's events. And the file grows linearly with the
run."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import test_golden
import trace_oracle
from conftest import (CORPUS, RUNNABLE, RUNNABLE_COUNT, checked_config, gen, load, log_events,
                      log_of)
from ctrd.cli import trace_json
from ctrd.lattice import GSet, NatMax
from ctrd.runtime_cloud import TraceEntry, make_scheduler, run
from ctrd.runtime_local import NO_EVENTS, Action, EventId, Log
from ctrd.syntax import (
    CON, LABELS, BoolVal, Closure, Duplicated, LatOp, LatType, Lit, Location,
    Plain, RecordVal, UNIT, Var,
)


def _assert_written_as_oracle(trace: list[TraceEntry]) -> None:
    want = trace_oracle.trace_json(trace)
    text = trace_json(trace)
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == want


def _assert_handles_expand(trace: list[TraceEntry], servers: int) -> None:
    """trace_v1 of the written file is the schema-1 file, which listed each
    snapshot's events, byte for byte."""
    listed = trace_oracle.trace_json(trace, listed=True)
    assert trace_oracle.trace_v1(trace_json(trace), servers) == \
        json.dumps(listed, indent=2, sort_keys=True) + "\n"


def _long_run(scale: float):
    """A run of the run-long program shape at a scale of LONG_MIX, and its
    server count."""
    g = gen.chain_program(11000, "long", gen.scale_mix(gen.LONG_MIX, scale), True)
    _, _, cfg = checked_config(g.text)
    res = run(cfg, make_scheduler("random", 5), 100_000)
    assert res.status == "quiescent"
    return res, g.servers


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
    # long, and deliveries that enter the common log behind later events of
    # their own client, so that trace_v1 must sort what it lists of the
    # common log in (client, n) order, not just append (this run is
    # expanded at scale 1 below)
    res, _ = _long_run(1)
    assert res.steps > 1000
    commons = [log_events(s) for e in res.trace if (s := e.action.snapshot) and s.len and s.event is None]
    assert max(e.action.snapshot.len for e in res.trace if e.action.snapshot) > 100
    assert any(x.client == e.client and x.n > e.n
               for before, after in zip(commons, commons[1:])
               for e in set(after) - set(before) for x in before)
    _assert_written_as_oracle(res.trace)


# ---------------------------------------------------------------------------
# the handles lose nothing

def test_handles_expand_to_the_listed_snapshots_on_the_corpus():
    handles = set()
    for path in RUNNABLE:
        _, _, cfg = checked_config(load(path))
        for seed in (0, 1, 2):
            res = run(cfg, make_scheduler("random", seed), 10_000)
            handles |= {trace_oracle.snapshot_handle(e)["log"]
                        for e in res.trace if e.action.snapshot is not None}
            _assert_handles_expand(res.trace, len(cfg.servers))
    assert handles == {"local", "server", "common"}


def test_handles_expand_to_the_listed_snapshots_on_the_golden_runs(tmp_path):
    # each golden trace file, expanded, is the listed file of its run;
    # and a file written under --servers expands over that many servers
    runs = [(p, t, s) for p in test_golden.PROGRAMS for t, s in test_golden.SCHEDULES]
    runs += [(p, "seed0", ["--seed", "0"]) for p in test_golden.RULE_PROGRAMS]
    for program, tag, sched in runs:
        text = (test_golden.GOLDEN / test_golden.golden_name(program, tag, "trace.json")).read_text()
        _, _, cfg = checked_config(load(CORPUS / (program + ".ctrd")))
        flag, value = sched
        res = run(cfg, make_scheduler("random", int(value)) if flag == "--seed"
                  else make_scheduler(value), 10_000)
        assert trace_json(res.trace) == text, (program, tag)
        _assert_handles_expand(res.trace, len(cfg.servers))
    for servers in (1, 4):
        test_golden._ctrd_in(tmp_path, "run", "anomaly/mixed", [
            "--seed", "1", "--servers", str(servers), "--trace", "trace.json"])
        _, _, cfg = checked_config(load(CORPUS / "anomaly/mixed.ctrd"), servers)
        res = run(cfg, make_scheduler("random", 1), 10_000)
        assert (tmp_path / "trace.json").read_text() == trace_json(res.trace)
        _assert_handles_expand(res.trace, servers)


@pytest.mark.parametrize("scale", [0.5, 1])
def test_handles_expand_to_the_listed_snapshots_on_a_generated_run(scale):
    res, servers = _long_run(scale)
    _assert_handles_expand(res.trace, servers)


def test_the_trace_file_grows_linearly_with_the_run():
    # bytes, not time, so the bound is deterministic: a handle's size does
    # not grow with its log's length
    per_entry = []
    for scale in (0.5, 2):
        res, _ = _long_run(scale)
        per_entry.append(len(trace_json(res.trace).encode()) / len(res.trace))
    assert len(res.trace) > 1500
    assert per_entry[1] <= 1.25 * per_entry[0], per_entry


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
    # NO_EVENTS, an empty server log, bases (the common log's form) and
    # cells pushed onto them and onto one another; the entry's server
    # picks the handle
    empty = log_of(())
    masks = draw(st.lists(st.integers(0, (1 << 24) - 1), max_size=3))
    cells = [NO_EVENTS, empty, *(Log.base(m, empty.clients) for m in masks)]
    for e in draw(st.lists(_events, max_size=12)):
        cells.append(Log(e, draw(st.sampled_from(cells[1:]))))
    return cells


@st.composite
def _traces(draw):
    # entries draw snapshots and values from small pools, so one object is
    # met again later in the trace (the writer renders a value once)
    # alongside equal objects that are not the same one
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


def test_each_snapshot_handle_and_the_source_forms():
    # an entry with a server names its log, any other the common log, and
    # NO_EVENTS is a local read's; an empty server log is not NO_EVENTS
    cases = [(log_of(()), 0, {"len": 0, "log": "server", "server": 0}),
             (_FULL.action.snapshot, 2, {"len": 2, "log": "server", "server": 2}),
             (log_of(()), None, {"len": 0, "log": "common"}),
             (Log.base(0b101, (1, 2)), None, {"len": 2, "log": "common"}),
             (NO_EVENTS, None, {"len": 0, "log": "local"})]
    for snapshot, server, handle in cases:
        entry = replace(_FULL, server=server, action=replace(_FULL.action, snapshot=snapshot))
        _assert_written_as_oracle([entry])
        assert json.loads(trace_json([entry]))[0]["action"]["snapshot"] == handle
    for source in [("local", 0), ("servers",), ()]:
        _assert_written_as_oracle([replace(_FULL, action=replace(_FULL.action, source=source))])
