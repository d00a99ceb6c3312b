"""Reference graphs and the one-step clone upload."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, canonical_shape, checked_config, corpus_files, load, subterms
from ctrd.clone import reachable_graph
from ctrd.lattice import NatMax
from ctrd.runtime_cloud import Kind, enabled, make_scheduler, run, step_cloud
from ctrd.runtime_local import CtrdRuntimeError, decompose
from ctrd.syntax import (
    CON, Clone, Closure, Deref, Duplicated, Identifier, Lit, Location, LOC, Plain,
    RecordVal, UnitType, pretty_type, value_locations,
)
from ctrd.typecheck import upgrade


def _loc(n):
    return Location(1, n, False)


def edge_count(g) -> int:
    return sum(len(value_locations(v)) for v in g.nodes.values())


def _held(v) -> set[Location]:
    """The locations a stored value holds, read off its structure: the value
    itself when it is one, a record's fields, and the literals in a closure
    body or a duplicated creation."""
    if isinstance(v, Duplicated):
        return _in_term(v.inner)
    raw = v.raw
    if isinstance(raw, Location):
        return {raw}
    if isinstance(raw, RecordVal):
        return set().union(*(_held(fv) for _, fv in raw.fields))
    if isinstance(raw, Closure):
        return _in_term(raw.body)
    return set()


def _in_term(t) -> set[Location]:
    return set().union(*(_held(s.value) for s in subterms(t) if isinstance(s, Lit)))


def reachable_oracle(root: Location, store: dict) -> dict:
    """reachable_graph's nodes by a recursive depth-first walk; a held
    location outside the store, the root included, is DanglingLocation."""
    nodes: dict = {}

    def visit(o: Location) -> None:
        if o in nodes:
            return
        if o not in store:
            raise CtrdRuntimeError("DanglingLocation", f"{o} not in the store")
        nodes[o] = store[o]
        for succ in sorted(_held(store[o])):
            visit(succ)

    visit(root)
    return nodes


def _closure_over(o: Location):
    """A closure value whose body dereferences o."""
    return Plain(Closure(LOC, "z", UnitType(LOC), Deref(Lit(Plain(o, LOC)))), LOC)


def _duplicated_over(o: Location):
    """A duplicated creation whose term dereferences o."""
    return Duplicated(Deref(Lit(Plain(o, LOC))))


def _record(*vs):
    return Plain(RecordVal(tuple((f"f{i}", v) for i, v in enumerate(vs))), LOC)


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


def test_graph_matches_recursive_oracle_on_shared_nodes_records_and_closures():
    # 1 holds a record of 2 and 3; both reach 4 (shared), 2 through a
    # closure body; 4 closes a cycle back to 1; 5 is in the store but not
    # reachable
    store = {
        _loc(1): _record(Plain(_loc(2), LOC), Plain(_loc(3), LOC)),
        _loc(2): _closure_over(_loc(4)),
        _loc(3): _record(Plain(NatMax(1), LOC), Plain(_loc(4), LOC)),
        _loc(4): _duplicated_over(_loc(1)),
        _loc(5): Plain(_loc(1), LOC),
    }
    g = reachable_graph(_loc(1), store)
    assert g.root == _loc(1) and g.nodes == reachable_oracle(_loc(1), store)
    assert sorted(g.nodes) == [_loc(n) for n in (1, 2, 3, 4)] and edge_count(g) == 5
    # a location that only a closure body or a record field holds must be stored
    for held in (_closure_over(_loc(9)), _record(Plain(NatMax(2), LOC), Plain(_loc(9), LOC))):
        for walk in (reachable_graph, reachable_oracle):
            with pytest.raises(CtrdRuntimeError) as exc:
                walk(_loc(1), {**store, _loc(3): held})
            assert exc.value.kind == "DanglingLocation"


_LOCS = [_loc(n) for n in range(1, 6)]     # _loc(5) is never stored: dangling

_values = st.recursive(
    st.builds(lambda n: Plain(NatMax(n), LOC), st.integers(0, 3))
    | st.sampled_from(_LOCS).map(lambda o: Plain(o, LOC))
    | st.sampled_from(_LOCS).map(_closure_over)
    | st.sampled_from(_LOCS).map(_duplicated_over),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda vs: _record(*vs)),
    max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_LOCS[:4]), _values), st.sampled_from(_LOCS))
def test_graph_matches_recursive_oracle_on_drawn_stores(store, root):
    try:
        expected = reachable_oracle(root, store)
    except CtrdRuntimeError as e:
        with pytest.raises(CtrdRuntimeError) as exc:
            reachable_graph(root, store)
        assert exc.value.kind == e.kind == "DanglingLocation"
        return
    g = reachable_graph(root, store)
    assert g.root == root and g.nodes == expected


def test_clone_node_count_matches_recursive_oracle_on_the_corpus():
    # every E-CLONE step's node count is the oracle's count over the
    # client's store just before the step, from the clone's root
    clones = 0
    for path in corpus_files("clone"):
        _, _, cfg = checked_config(load(path))
        while choices := enabled(cfg):
            ch = choices[0]
            expected = None
            if ch.kind == Kind.CLIENT_STEP:
                client = cfg.clients[ch.client]
                redex = decompose(client.closed_term())
                if redex and isinstance(redex.term, Clone):
                    root = redex.term.term.value.raw
                    expected = len(reachable_oracle(root, client.store))
            cfg, entry = step_cloud(cfg, ch)
            assert (entry.rule == "E-CLONE") == (expected is not None), (path.name, entry.rule)
            if expected is not None:
                assert entry.node_count == expected, path.name
                clones += 1
    assert clones > 0


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
