"""Minor detection and minor-model verification.

Theorem 2 of the paper concerns graph classes defined by excluded minors
(``Forb(H)`` for ``H`` a set of cliques and complete bipartite graphs).  The
lower-bound experiments need to *verify* the structural claims about the
constructed instances:

* cycles of blocks contain ``K_k`` as a minor (Claim 8) — verified by an
  explicit minor model, checked by :func:`verify_clique_minor_model`;
* paths of blocks are ``K_4``-minor-free (Claim 7 for ``k = 4``) — verified
  by the polynomial series-parallel reduction :func:`is_k4_minor_free`;
* the ``I_{a,b}`` instances of Lemma 6 are outerplanar — verified by
  :func:`repro.graphs.validation.is_outerplanar`;
* the glued instance ``J`` contains ``K_{q,q}`` as a minor — verified by an
  explicit minor model, checked by :func:`verify_bipartite_minor_model`.

The model checks are constructive, so they scale to every instance size.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Node

__all__ = [
    "verify_clique_minor_model",
    "verify_bipartite_minor_model",
    "is_k4_minor_free",
]


# ----------------------------------------------------------------------
# constructive verification of minor models
# ----------------------------------------------------------------------
def _check_branch_sets(graph: Graph, branch_sets: Sequence[Iterable[Node]]) -> list[set[Node]]:
    sets = [set(branch) for branch in branch_sets]
    seen: set[Node] = set()
    for index, branch in enumerate(sets):
        if not branch:
            raise GraphError(f"branch set {index} is empty")
        for node in branch:
            if not graph.has_node(node):
                raise GraphError(f"branch set {index} contains unknown node {node!r}")
            if node in seen:
                raise GraphError(f"node {node!r} appears in two branch sets")
            seen.add(node)
        if len(graph.subgraph(branch).connected_components()) != 1:
            raise GraphError(f"branch set {index} does not induce a connected subgraph")
    return sets


def _branch_sets_adjacent(graph: Graph, a: set[Node], b: set[Node]) -> bool:
    return any(graph.has_edge(u, v) for u in a for v in b)


def verify_clique_minor_model(graph: Graph, branch_sets: Sequence[Iterable[Node]]) -> bool:
    """Verify that the branch sets form a ``K_k`` minor model (``k = len(branch_sets)``)."""
    sets = _check_branch_sets(graph, branch_sets)
    return all(_branch_sets_adjacent(graph, a, b) for a, b in combinations(sets, 2))


def verify_bipartite_minor_model(graph: Graph, side_a: Sequence[Iterable[Node]],
                                 side_b: Sequence[Iterable[Node]]) -> bool:
    """Verify a ``K_{p,q}`` minor model given the two sides of branch sets."""
    sets = _check_branch_sets(graph, list(side_a) + list(side_b))
    a_sets, b_sets = sets[:len(list(side_a))], sets[len(list(side_a)):]
    return all(_branch_sets_adjacent(graph, a, b) for a in a_sets for b in b_sets)


# ----------------------------------------------------------------------
# exact K4-minor detection
# ----------------------------------------------------------------------
def is_k4_minor_free(graph: Graph) -> bool:
    """Return whether ``graph`` has no ``K4`` minor (i.e. is series-parallel-ish).

    A graph is ``K4``-minor-free exactly when every subgraph can be reduced
    to the empty graph by repeatedly deleting vertices of degree <= 1 and
    *suppressing* vertices of degree 2 (merging their two neighbors if the
    merge would create a parallel edge).  The reduction below is the standard
    polynomial-time test.
    """
    work = graph.copy()
    # We operate on a multigraph-like structure implicitly: suppressing a
    # degree-2 vertex whose neighbors are already adjacent simply removes it.
    changed = True
    while changed and work.number_of_nodes() > 0:
        changed = False
        for node in list(work.nodes()):
            degree = work.degree(node)
            if degree <= 1:
                work.remove_node(node)
                changed = True
            elif degree == 2:
                a, b = sorted(work.neighbors(node), key=repr)
                work.remove_node(node)
                if not work.has_edge(a, b):
                    work.add_edge(a, b)
                changed = True
    # If something with minimum degree >= 3 survives, it contains a K4 minor.
    return work.number_of_nodes() == 0
