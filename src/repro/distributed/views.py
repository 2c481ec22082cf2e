"""Batched materialisation of certificate-independent view structure.

Every runtime in this library — the PLS verification round and the dMAM
interactive protocols — checks certificates in one round: a node sees its
own identifier and certificate and its neighbors' identifiers and
certificates.  The reference implementation,
:meth:`~repro.distributed.network.Network.local_view`, rebuilds that view one
node at a time, which is the right shape for explaining the model but
wasteful when the same network is executed many times (per trial, per
challenge draw, per sweep point).

This module is the shared *view layer*: :func:`materialize_structures` builds
every node's :class:`NodeStructure` in one pass over the network's compiled
:class:`~repro.graphs.indexed.IndexedGraph`, and :func:`assemble_view` turns
one cached structure plus a certificate assignment into the
:class:`~repro.distributed.network.LocalView` the verifier sees.  The
:class:`~repro.distributed.engine.SimulationEngine` caches one structure
list per network and layers prover/decision caches on top; the interactive
runtime consumes the same structures, so no runtime pays the per-node
``local_view`` / ``node_of`` rebuild cost more than once per network.

Sharing contract
----------------
A view shares no mutable object with the cached structure:
``assemble_view`` slices a new ``neighbor_ids`` list and builds a new
certificates dictionary per view, so a verifier that sorts or edits its
view cannot corrupt the cache.  The certificate objects themselves are the
caller's.

:func:`structure_at` and :func:`assemble_view` take a ``radius`` argument
that must be 1, the only view there is; any other value raises
:class:`ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.distributed.network import LocalView, Network
from repro.graphs.graph import Node
from repro.observability.tracer import current as current_tracer

__all__ = ["NodeStructure", "materialize_structures", "iter_structures",
           "structure_at", "assemble_view"]


@dataclass(frozen=True)
class NodeStructure:
    """The certificate-independent part of one node's :class:`LocalView`:
    the node and its neighbors, the node first, with their identifiers."""

    node: Node
    visible_nodes: list[Node]
    visible_ids: list[int]


def materialize_structures(network: Network) -> list[NodeStructure]:
    """Build every node's :class:`NodeStructure` in one batched pass.

    Nodes appear in the network's node order (the order
    :func:`~repro.distributed.verifier.run_verification` visits them).
    This is the cache-friendly form; callers that must bound peak memory on
    very large networks stream :func:`iter_structures` instead.
    """
    with current_tracer().span("view_materialize") as sp:
        if sp:
            sp.set(nodes=network.size)
        return list(iter_structures(network))


def iter_structures(network: Network):
    """Yield each node's :class:`NodeStructure`, one node resident at a time.

    Same nodes, same order, same per-structure content as
    :func:`materialize_structures` — but as a generator: at no point do all
    ``n`` structures exist at once.  This is the streaming substrate of the
    million-node path — the engine's reference/fallback loops consume it
    directly above their streaming threshold instead of caching a
    whole-graph structure list.
    """
    indexed = network.graph.indexed()
    # one flat id list up front, then pure index arithmetic per node
    ids = [network.id_of(label) for label in indexed.labels]
    node_of = network.node_of
    for i, node in enumerate(indexed.labels):
        neighbor_ids = sorted(ids[j] for j in indexed.neighbors_of(i))
        yield NodeStructure(
            node=node, visible_nodes=[node, *map(node_of, neighbor_ids)],
            visible_ids=[ids[i], *neighbor_ids])


def structure_at(network: Network, node: Node, radius: int = 1) -> NodeStructure:
    """Build the single :class:`NodeStructure` of ``node``, on demand.

    Equivalent to the matching entry of :func:`materialize_structures`
    without touching any other node — what the vectorized backend's exactness
    fallback uses on large networks, where re-deciding a handful of flagged
    nodes must not materialise (or cache) a million-entry structure list.
    ``radius`` must be 1.
    """
    if radius != 1:
        raise ValueError(f"views are one-round (radius 1), not radius {radius!r}")
    neighbor_ids = network.neighbor_ids(node)
    return NodeStructure(
        node=node, visible_nodes=[node, *map(network.node_of, neighbor_ids)],
        visible_ids=[network.id_of(node), *neighbor_ids])


def assemble_view(structure: NodeStructure, certificates: dict[Node, Any],
                  radius: int = 1) -> LocalView:
    """Assemble a :class:`LocalView` from cached structure plus certificates.

    See the module docstring for the sharing contract.  ``radius`` must
    be 1.
    """
    if radius != 1:
        raise ValueError(f"views are one-round (radius 1), not radius {radius!r}")
    get = certificates.get
    ids = structure.visible_ids
    return LocalView(
        center_id=ids[0],
        certificate=get(structure.node),
        neighbor_ids=ids[1:],
        certificates={vid: get(v) for vid, v in zip(ids, structure.visible_nodes)},
    )
