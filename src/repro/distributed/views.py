"""Batched materialisation of certificate-independent view structure.

Every runtime in this library — the PLS verification round and the dMAM
interactive protocols — hands nodes the same kind of local information: the
node's identifier, its sorted neighbor identifiers, and (for verifiers) the
radius-``t`` ball it is allowed to inspect.  The reference implementation,
:meth:`~repro.distributed.network.Network.local_view`, rebuilds that
structure one node at a time, which is the right shape for explaining the
model but wasteful when the same network is executed many times (per trial,
per challenge draw, per sweep point).

This module is the shared *view layer*: :func:`materialize_structures` builds
every node's :class:`NodeStructure` in one pass over the network's compiled
:class:`~repro.graphs.indexed.IndexedGraph`, and :func:`assemble_view` turns
one cached structure plus a certificate assignment into the
:class:`~repro.distributed.network.LocalView` the verifier sees.  The
:class:`~repro.distributed.engine.SimulationEngine` caches the structure
lists per ``(network, radius)`` and layers prover/decision caches on top;
the interactive runtime consumes the same structures, so no runtime pays the
per-node ``local_view`` / ``node_of`` rebuild cost more than once per
network.

Sharing contract
----------------
``assemble_view`` copies ``neighbor_ids`` per view (cheap, and a verifier
sorting it in place must not corrupt the cache) but shares the ball graph
across every view built from the same structure — across trials, challenge
draws, and backends.  Verifiers (interactive ones included) must therefore
treat views as **read-only**; every scheme and protocol in the library does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.distributed.network import LocalView, Network
from repro.graphs.graph import Graph, Node
from repro.observability.tracer import current as current_tracer

__all__ = ["NodeStructure", "materialize_structures", "iter_structures",
           "structure_at", "assemble_view"]


@dataclass(frozen=True)
class NodeStructure:
    """The certificate-independent part of one node's :class:`LocalView`."""

    node: Node
    center_id: int
    neighbor_ids: list[int]
    visible_nodes: list[Node]
    visible_ids: list[int]
    ball: Graph


def materialize_structures(network: Network, radius: int) -> list[NodeStructure]:
    """Build every node's :class:`NodeStructure` in one batched pass.

    Nodes appear in the network's node order (the order
    :func:`~repro.distributed.verifier.run_verification` visits them).
    This is the cache-friendly form; callers that must bound peak memory on
    very large networks stream :func:`iter_structures` instead.
    """
    with current_tracer().span("view_materialize") as sp:
        if sp:
            sp.set(nodes=network.size, radius=radius)
        return list(iter_structures(network, radius))


def iter_structures(network: Network, radius: int):
    """Yield each node's :class:`NodeStructure`, one node resident at a time.

    Same nodes, same order, same per-structure content as
    :func:`materialize_structures` — but as a generator: at no point do all
    ``n`` structures (each carrying a ball :class:`Graph` and several Python
    lists) exist at once.  This is the streaming substrate of the
    million-node path — the engine's reference/fallback loops consume it
    directly above their streaming threshold instead of caching a
    whole-graph structure list.
    """
    indexed = network.graph.indexed()
    labels = indexed.labels
    if radius == 1:
        # one flat id list up front (O(n) ints — not what bounds memory; the
        # per-node balls and lists are), then pure index arithmetic per node
        ids = [network.id_of(label) for label in labels]
        node_of = network.node_of
        for i, node in enumerate(labels):
            center_id = ids[i]
            neighbor_ids = sorted(ids[j] for j in indexed.neighbors_of(i))
            # star ball, laid out exactly like Network.local_view builds it
            ball = Graph()
            ball._adj[center_id] = set(neighbor_ids)
            for neighbor_id in neighbor_ids:
                ball._adj[neighbor_id] = {center_id}
            visible = [node, *(node_of(nid) for nid in neighbor_ids)]
            yield NodeStructure(
                node=node, center_id=center_id, neighbor_ids=neighbor_ids,
                visible_nodes=visible,
                visible_ids=[center_id, *neighbor_ids], ball=ball)
    else:
        for node in labels:
            yield _deep_structure(network, node, radius)


def structure_at(network: Network, node: Node, radius: int) -> NodeStructure:
    """Build the single :class:`NodeStructure` of ``node``, on demand.

    Equivalent to the matching entry of :func:`materialize_structures`
    without touching any other node — what the vectorized backend's exactness
    fallback uses on large networks, where re-deciding a handful of flagged
    nodes must not materialise (or cache) a million-entry structure list.
    """
    if radius == 1:
        return _star_structure(network, node)
    return _deep_structure(network, node, radius)


def _star_structure(network: Network, node: Node) -> NodeStructure:
    center_id = network.id_of(node)
    neighbor_ids = network.neighbor_ids(node)
    # star ball, laid out exactly like Network.local_view builds it
    ball = Graph()
    ball._adj[center_id] = set(neighbor_ids)
    for neighbor_id in neighbor_ids:
        ball._adj[neighbor_id] = {center_id}
    visible = [node, *(network.node_of(nid) for nid in neighbor_ids)]
    return NodeStructure(
        node=node, center_id=center_id, neighbor_ids=neighbor_ids,
        visible_nodes=visible,
        visible_ids=[center_id, *neighbor_ids], ball=ball)


def _deep_structure(network: Network, node: Node, radius: int) -> NodeStructure:
    # delegate to the reference implementation so the deliberate t-round
    # view approximation documented there stays the single source of truth;
    # only the certificate-independent fields are kept (an empty assignment
    # leaves view.certificates keyed by exactly the visible identifiers, in
    # visible order)
    view = network.local_view(node, {}, radius=radius)
    visible_ids = list(view.certificates)
    return NodeStructure(
        node=node, center_id=view.center_id,
        neighbor_ids=view.neighbor_ids,
        visible_nodes=[network.node_of(i) for i in visible_ids],
        visible_ids=visible_ids, ball=view.ball)


def assemble_view(structure: NodeStructure, certificates: dict[Node, Any],
                  radius: int) -> LocalView:
    """Assemble a :class:`LocalView` from cached structure plus certificates.

    See the module docstring for the sharing contract: ``neighbor_ids`` is
    copied per view, the ball graph is shared and must stay read-only.
    """
    get = certificates.get
    return LocalView(
        center_id=structure.center_id,
        certificate=get(structure.node),
        neighbor_ids=list(structure.neighbor_ids),
        certificates={vid: get(v) for vid, v in
                      zip(structure.visible_ids, structure.visible_nodes)},
        ball=structure.ball,
        radius=radius,
    )
