"""Paths and cycles of blocks (Lemma 5: no ``o(log n)``-bit LCP for ``Forb(K_k)``).

A *block* is a copy of ``K_{k-1}`` whose nodes carry ``k - 1`` consecutive
identifiers.  Blocks are chained by *block connections* (all edges between
the ``ceil((k-1)/2)`` rightmost nodes of one block and the
``floor((k-1)/2)`` leftmost nodes of the next).  Lemma 5 shows:

* a *path of blocks* (blocks ``B_0, B_{pi^{-1}(1)}, ..., B_{pi^{-1}(p)},
  B_{p+1}`` chained in a row) is ``K_k``-minor-free (Claim 7) — a *legal*
  instance;
* a *cycle of blocks* (a subset of ordinary blocks chained into a ring) has a
  ``K_k`` minor (Claim 8) — an *illegal* instance;
* with ``o(log n)``-bit certificates, two paths of blocks receive identical
  labelled blocks (pigeonhole over the ``p!`` permutations), and splicing
  them produces an accepted cycle of blocks — contradiction.

The module builds these instances, produces the explicit ``K_k`` minor model
of Claim 8, and implements the cut-and-paste splice used in the proof so the
indistinguishability argument can be executed and checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "BlockInstance",
    "block_node_ids",
    "build_path_of_blocks",
    "build_cycle_of_blocks",
    "clique_minor_model_in_cycle",
    "splice_cycle_from_paths",
]


def block_node_ids(k: int, block_index: int) -> list[int]:
    """Return the node identifiers of block ``B_{block_index}`` (``k - 1`` consecutive ints)."""
    size = k - 1
    return list(range(block_index * size, (block_index + 1) * size))


def _right_part(k: int, block_index: int) -> list[int]:
    ids = block_node_ids(k, block_index)
    return ids[len(ids) - math.ceil((k - 1) / 2):]


def _left_part(k: int, block_index: int) -> list[int]:
    ids = block_node_ids(k, block_index)
    return ids[:math.floor((k - 1) / 2)]


@dataclass
class BlockInstance:
    """A path or cycle of blocks together with its construction data."""

    k: int
    block_sequence: list[int]
    graph: Graph
    is_cycle: bool

    @property
    def number_of_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def nodes_of_block(self, block_index: int) -> list[int]:
        """Return the node identifiers of one block of the instance."""
        if block_index not in self.block_sequence:
            raise GraphError(f"block {block_index} is not part of this instance")
        return block_node_ids(self.k, block_index)


def _add_block(graph: Graph, k: int, block_index: int) -> None:
    ids = block_node_ids(k, block_index)
    for i, u in enumerate(ids):
        graph.add_node(u)
        for v in ids[i + 1:]:
            graph.add_edge(u, v)


def _add_block_connection(graph: Graph, k: int, from_block: int, to_block: int) -> None:
    for u in _right_part(k, from_block):
        for v in _left_part(k, to_block):
            graph.add_edge(u, v)


def build_path_of_blocks(k: int, p: int, permutation: list[int] | None = None) -> BlockInstance:
    """Build a path of blocks for ``Forb(K_k)`` with ``p`` ordinary blocks.

    ``permutation`` is the permutation ``pi`` of the paper given as the list
    ``[pi^{-1}(1), ..., pi^{-1}(p)]`` of ordinary block indices (a permutation
    of ``1..p``); the identity is used when omitted.  The starting block is
    ``B_0`` and the ending block is ``B_{p+1}``, exactly as in the paper, so
    the instance has ``n = (k - 1)(p + 2)`` nodes.
    """
    if k < 3:
        raise GraphError("blocks are defined for k >= 3")
    if p < 1:
        raise GraphError("need at least one ordinary block")
    order = list(range(1, p + 1)) if permutation is None else list(permutation)
    if sorted(order) != list(range(1, p + 1)):
        raise GraphError("permutation must be a permutation of 1..p")
    sequence = [0, *order, p + 1]
    graph = Graph()
    for block_index in range(p + 2):
        _add_block(graph, k, block_index)
    for position in range(len(sequence) - 1):
        _add_block_connection(graph, k, sequence[position], sequence[position + 1])
    return BlockInstance(k=k, block_sequence=sequence, graph=graph, is_cycle=False)


def build_cycle_of_blocks(k: int, block_order: list[int]) -> BlockInstance:
    """Build a cycle of blocks out of the given ordinary-block indices.

    The blocks are chained in the given order and the last one is connected
    back to the first.  Only the listed blocks are present (a cycle of blocks
    uses a subset of the ordinary blocks, as in the paper).
    """
    if len(block_order) < 2:
        raise GraphError("a cycle of blocks needs at least two blocks")
    if len(set(block_order)) != len(block_order):
        raise GraphError("block indices must be distinct")
    graph = Graph()
    for block_index in block_order:
        _add_block(graph, k, block_index)
    for position, block_index in enumerate(block_order):
        next_block = block_order[(position + 1) % len(block_order)]
        _add_block_connection(graph, k, block_index, next_block)
    return BlockInstance(k=k, block_sequence=list(block_order), graph=graph, is_cycle=True)


def clique_minor_model_in_cycle(instance: BlockInstance) -> list[set[int]]:
    """Return the explicit ``K_k`` minor model of Claim 8 for a cycle of blocks.

    The ``k - 1`` nodes of the cycle's first block are kept as singleton
    branch sets and the rest of the cycle (which stays connected) is
    contracted into the ``k``-th branch set.
    """
    if not instance.is_cycle:
        raise GraphError("the explicit clique minor model only exists in cycles of blocks")
    block_nodes = set(instance.nodes_of_block(instance.block_sequence[0]))
    rest = set(instance.graph.nodes()) - block_nodes
    branch_sets: list[set[int]] = [{node} for node in sorted(block_nodes)]
    branch_sets.append(rest)
    return branch_sets


def splice_cycle_from_paths(k: int, p: int, other_permutation: list[int]) -> BlockInstance:
    """Perform the cut-and-paste of Lemma 5 on two paths of blocks.

    The first path of blocks is assumed to use the identity permutation (as
    in the paper, without loss of generality); ``other_permutation`` is the
    block order of the second path.  Because the second order is not the
    identity, it contains a *descent*: two consecutive blocks ``B_j -> B_i``
    with ``i < j``.  The spliced cycle consists of the blocks
    ``B_i, B_{i+1}, ..., B_j`` chained in identity order (these connections
    all exist in the first path) and closed by the connection
    ``B_j -> B_i`` (which exists in the second path).  Consequently every
    node of the cycle has the same local view — same neighbors, identifiers,
    and per-block certificates — as in one of the two accepted paths, which
    is exactly the contradiction used in the lemma and what the tests verify
    with :mod:`repro.lowerbound.indistinguishability`.
    """
    if sorted(other_permutation) != list(range(1, p + 1)):
        raise GraphError("the permutation must be a permutation of 1..p")
    descent: tuple[int, int] | None = None
    for position in range(p - 1):
        if other_permutation[position] > other_permutation[position + 1]:
            descent = (other_permutation[position + 1], other_permutation[position])
            break
    if descent is None:
        raise GraphError("the second permutation is the identity; no descent to splice on")
    low_block, high_block = descent
    cycle_blocks = list(range(low_block, high_block + 1))
    return build_cycle_of_blocks(k, cycle_blocks)
