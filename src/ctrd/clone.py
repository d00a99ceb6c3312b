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

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def reachable_graph(root: Location, store: dict) -> ReferenceGraph:
    """Transitive closure of location occurrence starting at root.

    Cycles are fine; a location mentioned by a stored value but absent from
    the store is a DanglingLocation fault.
    """
    if root not in store:
        raise CtrdRuntimeError("DanglingLocation", f"clone root {root} not in the local store")
    nodes: dict[Location, object] = {}
    todo = [root]
    while todo:
        o = todo.pop()
        if o in nodes:
            continue
        if o not in store:
            raise CtrdRuntimeError("DanglingLocation", f"{o} referenced but not in the local store")
        v = store[o]
        nodes[o] = v
        todo.extend(sorted(value_locations(v) - nodes.keys()))
    return ReferenceGraph(root, nodes)


def clone_step(config, client: ClientState, root: Location,
               ident: Identifier, effect: Label):
    """Upload the whole reachable graph in one atomic all-server step.

    Allocates a fresh remote location per node, rewrites intra-graph
    location occurrences, stamps every node with the effect joined with
    con, and writes the nodes with one shared event, the client's next,
    onto every server log (CloudConfig.sync_write), and so into the common
    log, whose earlier state the action records. The caller owns the
    client and has checked that ident is not taken; the servers and maps
    are replaced, not written in place. Returns (result value, action,
    node count).
    """
    graph = reachable_graph(root, client.store)
    mapping = {o: client.fresh_location(remote=True) for o in sorted(graph.nodes)}
    stamp = label_join(effect, CON)
    # every location a node holds is a node too, so mapping has it
    writes = {mapping[o]: raise_label(map_locations(Lit(v), mapping.__getitem__).value, stamp)
              for o, v in graph.nodes.items()}
    typing = {mapping[o]: upgrade(config.store_typing[o])
              for o in graph.nodes if o in config.store_typing}
    if typing:      # the fresh locations are new to the store typing
        config.store_typing = {**config.store_typing, **typing}
    nu, pre_common = config.sync_write(client, writes)
    fresh_root = mapping[graph.root]
    config.global_ids = {**config.global_ids, ident: fresh_root}
    action = Action(effect, "ref", CON, nu, fresh_root, writes[fresh_root],
                    snapshot=pre_common, synced=True)
    return Plain(fresh_root, CON), action, graph.node_count
