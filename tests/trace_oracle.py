"""Reference oracles over traces.

`trace_json` gives each entry as the dict that
`json.dumps(..., indent=2, sort_keys=True)` turns into the `--trace` file;
`trace_json` in `ctrd.cli` renders the text in one pass, and the tests hold
it to `json.dumps` of these dicts, byte for byte. `join_of_writes` folds the
writes of a trace into the state every replica of a cell converges to.
"""

from __future__ import annotations

from ctrd.abstract_exec import value_json
from ctrd.lattice import lat_join
from ctrd.runtime_cloud import TraceEntry
from ctrd.runtime_local import Action
from ctrd.syntax import Plain


def action_json(a: Action) -> dict:
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
        out["snapshot"] = [str(e) for e in a.snapshot]
    if a.synced:
        out["synced"] = True
    return out


def trace_json(trace: list[TraceEntry]) -> list[dict]:
    out = []
    for e in trace:
        entry = {"step": e.step, "rule": e.rule, "client": e.client,
                 "server": e.server, "action": action_json(e.action)}
        if e.node_count is not None:
            entry["nodes"] = e.node_count
        out.append(entry)
    return out


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
