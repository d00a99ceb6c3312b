"""Reference oracles over traces.

`trace_json` gives each entry as the dict that
`json.dumps(..., indent=2, sort_keys=True)` turns into the `--trace` file;
`trace_json` in `ctrd.cli` renders the text in one pass, and the tests hold
it to `json.dumps` of these dicts, byte for byte. The file names each
snapshot by a handle (`snapshot_handle`). `trace_v1` expands every handle
into the events it names by replaying the entries before it, which gives
the schema-1 file that listed each snapshot's events, as `trace_json(...,
listed=True)` gives it from the trace itself. `join_of_writes` folds the
writes of a trace into the state every replica of a cell converges to.
"""

from __future__ import annotations

import json

from conftest import log_events
from ctrd.abstract_exec import value_json
from ctrd.lattice import lat_join
from ctrd.runtime_cloud import TraceEntry
from ctrd.runtime_local import Action, NO_EVENTS
from ctrd.syntax import Plain


def snapshot_handle(e: TraceEntry) -> dict:
    """The handle the --trace file writes for an entry's snapshot, picked
    from the entry: a local read's NO_EVENTS, the log of the entry's
    server, or else the common log."""
    snap = e.action.snapshot
    if snap is NO_EVENTS:
        return {"log": "local", "len": 0}
    if e.server is None:
        return {"log": "common", "len": snap.len}
    return {"log": "server", "server": e.server, "len": snap.len}


def action_json(a: Action, snapshot=None) -> dict:
    out = {
        "effect": str(a.effect),
        "op": a.kind,
        "event": str(a.event) if a.event else None,
        "location": str(a.location) if a.location else None,
        "value": value_json(a.value),
        "source": list(map(str, a.source)) if a.source else None,
    }
    if a.label is not None:
        out["label"] = str(a.label)
    if a.literal_label is not None:
        out["literal_label"] = str(a.literal_label)
    if a.snapshot is not None:
        out["snapshot"] = snapshot
    if a.synced:
        out["synced"] = True
    return out


def trace_json(trace: list[TraceEntry], listed: bool = False) -> list[dict]:
    """One dict per entry, each snapshot as its handle; with listed, as the
    list of its events (schema 1)."""
    out = []
    for e in trace:
        snap = e.action.snapshot
        snapshot = (None if snap is None else [str(x) for x in log_events(snap)] if listed
                    else snapshot_handle(e))
        entry = {"step": e.step, "rule": e.rule, "client": e.client,
                 "server": e.server, "action": action_json(e.action, snapshot)}
        if e.node_count is not None:
            entry["nodes"] = e.node_count
        out.append(entry)
    return out


def trace_v1(text: str, servers: int) -> str:
    """The schema-1 file of a --trace file written over that many servers:
    each handle replaced by the list of the events it names, recovered by
    replaying the entries before it. A delivery pushes its event onto its
    server's log and a synchronized rule pushes its event onto every log;
    nothing else changes a log. A server log lists its events newest first,
    the common log (the events every log holds) in (client, n) order."""
    entries = json.loads(text)
    logs: list[list[str]] = [[] for _ in range(servers)]     # oldest first
    for entry in entries:
        action = entry["action"]
        handle = action.get("snapshot")
        if handle is not None:
            if handle["log"] == "local":
                events = []
            elif handle["log"] == "server":
                events = logs[handle["server"]][::-1]
            else:
                events = sorted(set(logs[0]).intersection(*logs[1:]), key=_event_order)
            assert len(events) == handle["len"], (entry, events)
            action["snapshot"] = events
        if entry["rule"] == "E-PROCESS-UPDATE":
            logs[entry["server"]].append(action["event"])
        elif action.get("synced"):
            for log in logs:
                log.append(action["event"])
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def _event_order(name: str) -> tuple[int, int]:
    client, n = name[1:].split(":")
    return int(client), int(n)


def join_of_writes(trace, location):
    """Fold the lattice join over every wr/ref payload targeting a location
    (delivery entries replay the same events and are skipped)."""
    acc = None
    for entry in trace:
        act = entry.action
        if act.kind in ("wr", "ref") and act.location == location \
                and entry.rule != "E-PROCESS-UPDATE":
            v = act.value
            if isinstance(v, Plain):
                acc = v.raw if acc is None else lat_join(acc, v.raw)
    return acc
