"""The two-path instances of Lemma 6 (lower bound for ``Forb(K_{p,q})``).

The legal instance ``I_{a,b}`` consists of two disjoint paths — one carrying
the identifiers of the set ``a`` (in increasing order), the other the
identifiers of ``b`` — plus ``q`` "rung" edges joining the ``jd``-th node of
each path for ``j = 1..q``.  Such instances are outerplanar, hence
``K_{p,q}``-minor-free for every ``p >= 2, q >= 3``.

The illegal instance ``J`` glues ``q`` copies of each path: the rung edges
are shifted cyclically (``a_i[jd]`` is joined to ``b_{i+j}[jd]``), so that
contracting every path produces ``K_{q,q}``.  Every node of ``J`` has the
same radius-1 view as the corresponding node of one of the legal instances
``I_{a_i, b_j}``, which is the indistinguishability step of the lemma.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "IdentifierPartition",
    "make_identifier_partition",
    "build_legal_instance",
    "build_glued_instance",
    "bipartite_minor_model_in_glued",
]


@dataclass
class IdentifierPartition:
    """The identifier sets ``a_1..a_n`` and ``b_1..b_n`` of Lemma 6 (restricted to ``q`` of each)."""

    a_sets: list[list[int]]
    b_sets: list[list[int]]
    q: int
    d: int


def make_identifier_partition(n: int, q: int) -> IdentifierPartition:
    """Split the identifier range ``0 .. 2qn - 1`` into ``q`` sets of each kind.

    The paper partitions ``{1..n^2}`` into ``2n`` sets; the experiments only
    ever instantiate ``q`` copies of each side, so we carve exactly
    ``2q`` disjoint identifier blocks: ``a_i`` gets ``n_A = floor(n/2)``
    identifiers and ``b_i`` gets ``n_B = ceil(n/2)``.
    """
    if n < 6 * q:
        raise GraphError("Lemma 6 instances need n >= 6q")
    n_a = n // 2
    n_b = n - n_a
    a_sets: list[list[int]] = []
    b_sets: list[list[int]] = []
    cursor = 0
    for _ in range(q):
        a_sets.append(list(range(cursor, cursor + n_a)))
        cursor += n_a
    for _ in range(q):
        b_sets.append(list(range(cursor, cursor + n_b)))
        cursor += n_b
    d = n // (2 * q)
    return IdentifierPartition(a_sets=a_sets, b_sets=b_sets, q=q, d=d)


def _add_path(graph: Graph, identifiers: list[int]) -> None:
    for node in identifiers:
        graph.add_node(node)
    for first, second in zip(identifiers, identifiers[1:]):
        graph.add_edge(first, second)


def build_legal_instance(a_ids: list[int], b_ids: list[int], q: int, d: int) -> Graph:
    """Build the legal instance ``I_{a,b}``: two identifier paths plus ``q`` rungs.

    The ``j``-th rung joins the node with the ``jd``-th smallest identifier
    of ``a`` to the node with the ``jd``-th smallest identifier of ``b``
    (1-based, as in the paper's ``a[jd]`` notation).
    """
    if q * d > min(len(a_ids), len(b_ids)):
        raise GraphError("the paths are too short for q rungs at spacing d")
    graph = Graph()
    _add_path(graph, a_ids)
    _add_path(graph, b_ids)
    for j in range(1, q + 1):
        graph.add_edge(a_ids[j * d - 1], b_ids[j * d - 1])
    return graph


def build_glued_instance(partition: IdentifierPartition) -> Graph:
    """Build the illegal instance ``J`` of Lemma 6.

    ``q`` copies of the ``a``-path and ``q`` copies of the ``b``-path are
    laid down with their own identifier sets, and the ``j``-th rung of the
    ``i``-th ``a``-path goes to the ``(i + j mod q)``-th ``b``-path.
    Contracting every path yields ``K_{q,q}``.
    """
    q, d = partition.q, partition.d
    graph = Graph()
    for a_ids in partition.a_sets:
        _add_path(graph, a_ids)
    for b_ids in partition.b_sets:
        _add_path(graph, b_ids)
    for i in range(q):
        for j in range(1, q + 1):
            target = (i + j) % q
            graph.add_edge(partition.a_sets[i][j * d - 1],
                           partition.b_sets[target][j * d - 1])
    return graph


def legal_instances_used_by_glued(partition: IdentifierPartition) -> list[Graph]:
    """Return the legal instances whose views cover the glued instance ``J``.

    A node of the ``i``-th ``a``-path of ``J`` sees, around the ``j``-th rung,
    exactly what it would see in ``I_{a_i, b_{i+j}}``; the paper's
    monochromatic-certificate argument needs all these instances to be
    accepted with identical certificates.  The experiments verify the view
    containment over this exact family.
    """
    instances = []
    q, d = partition.q, partition.d
    for i in range(q):
        for j in range(q):
            instances.append(build_legal_instance(partition.a_sets[i],
                                                  partition.b_sets[j], q, d))
    return instances


def bipartite_minor_model_in_glued(partition: IdentifierPartition) -> tuple[list[set[int]], list[set[int]]]:
    """Return the explicit ``K_{q,q}`` minor model of the glued instance.

    Each path is one branch set; the two sides of the bipartition are the
    ``a``-paths and the ``b``-paths.
    """
    side_a = [set(a_ids) for a_ids in partition.a_sets]
    side_b = [set(b_ids) for b_ids in partition.b_sets]
    return side_a, side_b


__all__.append("legal_instances_used_by_glued")
