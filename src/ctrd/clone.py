"""Reference graphs and the one-step clone upload.

Building a linked structure out of consistent references costs one
all-server synchronization per node. Clone builds the graph locally and
uploads the whole reachable graph in a single synchronization step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .runtime_local import Action, ClientState, CtrdRuntimeError
from .syntax import (
    CON, Identifier, Label, Lit, Location, Plain, label_join, map_locations,
    raise_label, value_locations,
)
from .typecheck import upgrade


@dataclass
class ReferenceGraph:
    """Locations reachable from a root through stored values."""

    root: Location
    nodes: dict[Location, object]              # Location -> LabeledValue
    edges: dict[Location, frozenset[Location]]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(es) for es in self.edges.values())


def reachable_graph(root: Location, store: dict) -> ReferenceGraph:
    """Transitive closure of location occurrence starting at root.

    Cycles are fine; a location mentioned by a stored value but absent from
    the store is a DanglingLocation fault.
    """
    if root not in store:
        raise CtrdRuntimeError("DanglingLocation", f"clone root {root} not in the local store")
    nodes: dict[Location, object] = {}
    edges: dict[Location, frozenset[Location]] = {}
    todo = [root]
    while todo:
        o = todo.pop()
        if o in nodes:
            continue
        if o not in store:
            raise CtrdRuntimeError("DanglingLocation", f"{o} referenced but not in the local store")
        v = store[o]
        nodes[o] = v
        out = value_locations(v)
        edges[o] = out
        todo.extend(sorted(out - nodes.keys(), key=lambda loc: loc.sort_key()))
    return ReferenceGraph(root, nodes, edges)


def clone_step(config, client: ClientState, root: Location,
               ident: Identifier, effect: Label):
    """Upload the whole reachable graph in one atomic all-server step.

    Allocates a fresh remote location per node, rewrites intra-graph
    location occurrences, stamps every node with the effect joined with
    con, and pushes one shared event onto every server log, and so into
    the common log, whose earlier state the action records. The caller
    owns the client and has checked that ident is not taken; the servers
    and maps are mutated through the configuration's private copies.
    Returns (result value, action, node count).
    """
    graph = reachable_graph(root, client.store)
    mapping = {o: client.fresh_location(remote=True)
               for o in sorted(graph.nodes, key=lambda loc: loc.sort_key())}
    nu = client.fresh_event()
    stamp = label_join(effect, CON)
    servers = config.own_servers()
    for o in graph.nodes:
        fresh = mapping[o]
        # every location a node holds is a node too, so mapping has it
        moved = raise_label(map_locations(Lit(graph.nodes[o]), mapping.__getitem__).value,
                            stamp)
        for s in servers:
            s.store[fresh] = moved
        if o in config.store_typing:
            config.own_store_typing().setdefault(fresh, upgrade(config.store_typing[o]))
    pre_common = config.sync_append(nu)
    fresh_root = mapping[graph.root]
    config.own_global_ids()[ident] = fresh_root
    root_value = servers[0].store[fresh_root]
    action = Action(effect, "ref", CON, nu, fresh_root, root_value,
                    snapshot=pre_common, synced=True)
    return Plain(fresh_root, CON), action, graph.node_count
