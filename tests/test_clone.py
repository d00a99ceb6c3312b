"""Reference graphs and the one-step clone upload."""

from __future__ import annotations

import pytest

from conftest import CORPUS, canonical_shape, checked_config, load
from ctrd.clone import reachable_graph
from ctrd.lattice import NatMax
from ctrd.runtime_cloud import make_scheduler, run
from ctrd.runtime_local import CtrdRuntimeError
from ctrd.syntax import CON, Duplicated, Identifier, Location, LOC, Plain, pretty_type
from ctrd.typecheck import upgrade


def _loc(n):
    return Location(1, n, False)


def edge_count(g) -> int:
    return sum(len(es) for es in g.edges.values())


def test_chain_graph_nodes_and_edges():
    # x <- y <- z: three nodes, two edges
    store = {
        _loc(1): Plain(NatMax(3), LOC),
        _loc(2): Plain(_loc(1), LOC),
        _loc(3): Plain(_loc(2), LOC),
    }
    g = reachable_graph(_loc(3), store)
    assert g.node_count == 3 and edge_count(g) == 2


def test_single_node_graph():
    store = {_loc(1): Plain(NatMax(7), LOC)}
    g = reachable_graph(_loc(1), store)
    assert g.node_count == 1 and edge_count(g) == 0


def test_cycle_terminates():
    # closure over a hand-built cyclic store (the type system cannot build
    # one, but the traversal must still terminate)
    store = {
        _loc(1): Plain(_loc(2), LOC),
        _loc(2): Plain(_loc(1), LOC),
    }
    g = reachable_graph(_loc(1), store)
    assert g.node_count == 2 and edge_count(g) == 2


def test_dangling_location_detected():
    store = {_loc(1): Plain(_loc(2), LOC)}
    with pytest.raises(CtrdRuntimeError) as exc:
        reachable_graph(_loc(1), store)
    assert exc.value.kind == "DanglingLocation"


def _run(src: str):
    _, _, cfg = checked_config(src)
    return run(cfg, make_scheduler("drain-fair"), 1000)


def test_clone_single_node_matches_con_ref():
    clone_res = _run("""servers 3;
    client 1 { let x = ref@loc(nat 3 @loc, (loc,1)) in clone@con(x, (con,2)) }""")
    ref_res = _run("""servers 3;
    client 1 { ref@con(nat 3 @con, (con,2)) }""")
    ident = Identifier(CON, 2)
    o_clone = clone_res.config.global_ids[ident]
    o_ref = ref_res.config.global_ids[ident]
    for s_c, s_r in zip(clone_res.config.servers, ref_res.config.servers):
        assert s_c.store[o_clone] == s_r.store[o_ref]
        assert len(s_c.seq) == len(s_r.seq) == 1
    assert clone_res.config.clients[1].term.value == Plain(o_clone, CON)


def test_clone_uploads_isomorphic_graph():
    res = _run("""servers 3;
    client 1 {
      let x = ref@loc(nat 3 @loc, (loc,1)) in
      let y = ref@loc(x, (loc,2)) in
      let z = ref@loc(y, (loc,3)) in
      clone@con(z, (con,4))
    }""")
    client = res.config.clients[1]
    local_root = client.idmap[Identifier(LOC, 3)]
    local = reachable_graph(local_root, client.store)
    remote_root = res.config.global_ids[Identifier(CON, 4)]
    remote = reachable_graph(remote_root, res.config.servers[0].store)
    assert canonical_shape(local) == canonical_shape(remote)
    # all uploaded values are stamped con
    assert all(v.label == CON for v in remote.nodes.values())


def test_clone_is_one_synchronization():
    res = _run("""servers 3;
    client 1 {
      let x = ref@loc(nat 3 @loc, (loc,1)) in
      let y = ref@loc(x, (loc,2)) in
      clone@con(y, (con,3))
    }""")
    synced = [e for e in res.trace if e.action.synced]
    assert len(synced) == 1 and synced[0].rule == "E-CLONE"
    assert synced[0].node_count == 2


def test_clone_types_every_fresh_node_as_its_local_cell_upgraded():
    # the fresh root included: its typing comes from the local root's, not
    # from the identifier it is published under
    res = _run(load(CORPUS / "clone" / "chain3_clone.ctrd"))
    cfg = res.config
    client = cfg.clients[1]
    local_root = client.idmap[Identifier(LOC, 3)]
    fresh_root = cfg.global_ids[Identifier(CON, 4)]
    assert pretty_type(cfg.store_typing[fresh_root]) == "Ref@con Ref@con Lat@con"
    local = reachable_graph(local_root, client.store)
    remote = reachable_graph(fresh_root, cfg.servers[0].store)
    assert len(local.nodes) == len(remote.nodes) == 3
    for o, fresh in zip(sorted(local.nodes), sorted(remote.nodes)):
        assert cfg.store_typing[fresh] == upgrade(cfg.store_typing[o]), (o, fresh)


def test_clone_leaves_local_graph_alone():
    res = _run("""servers 3;
    client 1 {
      let x = ref@loc(nat 3 @loc, (loc,1)) in
      clone@con(x, (con,2))
    }""")
    client = res.config.clients[1]
    o = client.idmap[Identifier(LOC, 1)]
    assert client.store[o] == Plain(NatMax(3), LOC)   # still local, still loc


def test_clone_taken_identifier_yields_duplicated():
    res = _run("""servers 3;
    client 1 {
      let c = ref@con(nat 1 @con, (con,2)) in
      let x = ref@loc(nat 3 @loc, (loc,1)) in
      clone@con(x, (con,2))
    }""")
    final = res.config.clients[1].term.value
    assert isinstance(final, Duplicated)
    # the existing binding and server state are untouched
    o = res.config.global_ids[Identifier(CON, 2)]
    assert all(s.store[o] == Plain(NatMax(1), CON) for s in res.config.servers)
