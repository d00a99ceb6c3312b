"""Reference oracle for the `--trace` writer: each entry as the dict that
`json.dumps(..., indent=2, sort_keys=True)` turns into the file.

`trace_json` in `ctrd.cli` renders the text in one pass; the tests hold it
to `json.dumps` of these dicts, byte for byte.
"""

from __future__ import annotations

from ctrd.abstract_exec import value_json
from ctrd.runtime_cloud import TraceEntry
from ctrd.runtime_local import Action


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
