"""Cross-cutting runtime invariants checked over corpus executions."""

from __future__ import annotations

from conftest import checked_config, corpus_files, load, log_events
from ctrd.runtime_cloud import explore, make_scheduler, run
from ctrd.syntax import CON, label_leq


def _runs():
    for group in ("con", "ava", "run"):
        for path in corpus_files(group):
            _, _, cfg = checked_config(load(path))
            res = run(cfg, make_scheduler("drain-fair"), 1000)
            yield path, res


def test_server_logs_hold_each_event_once():
    for path, res in _runs():
        for s in res.config.servers:
            assert s.seq.len == len(set(log_events(s.seq))), path.name


def test_effect_never_exceeds_written_level():
    # dynamic shadow of noninterference: a write's running effect stays at
    # or below the consistency level it writes at
    for path, res in _runs():
        for e in res.trace:
            a = e.action
            if a.kind in ("wr", "ref"):
                assert label_leq(a.effect, a.label), (path.name, e.rule)


def test_con_locations_agree_on_every_reachable_config():
    for path in [corpus_files("con")[1], corpus_files("run")[3]]:
        _, _, cfg = checked_config(load(path))
        seen_disagreement = []

        def on_trace(exec_, final, truncated, seen=seen_disagreement):
            con_locs = {o for o, t in final.store_typing.items() if t.label == CON}
            for o in con_locs:
                held = [s.store[o] for s in final.servers if o in s.store]
                if held and any(v != held[0] for v in held[1:]):
                    seen.append((path.name, o))

        explore(cfg, 12, on_trace=on_trace)
        assert not seen_disagreement


def test_buffer_is_fifo_and_delivery_counts():
    # one delivery per server per update; total deliveries = servers * updates
    for path, res in _runs():
        servers = len(res.config.servers)
        updates = {e.action.event for e in res.trace if e.rule in
                   ("E-AVAREF", "E-AVAASSIGN", "E-FLEXWRT-AVA")}
        deliveries = [e for e in res.trace if e.rule == "E-PROCESS-UPDATE"]
        assert len(deliveries) == servers * len(updates), path.name
        per_event = {}
        for e in deliveries:
            per_event.setdefault(e.action.event, set()).add(e.server)
        for reached in per_event.values():
            assert reached == set(range(servers)), path.name


def test_quiescent_servers_converge():
    for path, res in _runs():
        assert res.status == "quiescent", path.name
        stores = [s.store for s in res.config.servers]
        assert all(st == stores[0] for st in stores[1:]), path.name
