"""Minor detection and minor-model verification.

Theorem 2 of the paper concerns graph classes defined by excluded minors
(``Forb(H)`` for ``H`` a set of cliques and complete bipartite graphs).  The
lower-bound experiments need to *verify* the structural claims about the
constructed instances:

* cycles of blocks contain ``K_k`` as a minor (Claim 8) — verified by an
  explicit minor model, checked by :func:`verify_minor_model`;
* paths of blocks are ``K_k``-minor-free (Claim 7) — verified exactly for
  small instances by :func:`has_clique_minor` (exponential search) and for
  ``k = 4`` by the polynomial series-parallel reduction
  :func:`is_k4_minor_free`;
* the ``I_{a,b}`` instances of Lemma 6 are outerplanar — verified by
  :func:`repro.graphs.validation.is_outerplanar`;
* the glued instance ``J`` contains ``K_{q,q}`` as a minor — verified by an
  explicit minor model.

Minor containment is NP-hard in general, so the exact searches are only used
on the small instances exercised by the test-suite; the constructive checks
(:func:`verify_minor_model`) scale to every instance size.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Node

__all__ = [
    "verify_minor_model",
    "verify_clique_minor_model",
    "verify_bipartite_minor_model",
    "contract_branch_sets",
    "is_k4_minor_free",
    "has_clique_minor",
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


def verify_minor_model(graph: Graph, branch_sets: Sequence[Iterable[Node]],
                       target: Graph,
                       target_order: Sequence[Node] | None = None) -> bool:
    """Verify that ``branch_sets`` form a model of ``target`` as a minor of ``graph``.

    ``branch_sets[i]`` plays the role of the ``i``-th node of ``target`` in
    ``target_order`` (or ``sorted(target.nodes(), key=repr)`` by default).
    The branch sets must be disjoint, each must induce a connected subgraph,
    and for every edge of ``target`` the corresponding branch sets must be
    joined by at least one edge of ``graph``.
    """
    sets = _check_branch_sets(graph, branch_sets)
    order = list(target_order) if target_order is not None else sorted(target.nodes(), key=repr)
    if len(order) != len(sets):
        raise GraphError("number of branch sets does not match the target graph order")
    position = {node: index for index, node in enumerate(order)}
    for u, v in target.edges():
        if not _branch_sets_adjacent(graph, sets[position[u]], sets[position[v]]):
            return False
    return True


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


def contract_branch_sets(graph: Graph, branch_sets: Sequence[Iterable[Node]]) -> Graph:
    """Contract each branch set to a single node and return the resulting graph.

    Nodes not covered by any branch set are dropped.  The result has nodes
    ``0 .. len(branch_sets) - 1``.
    """
    sets = _check_branch_sets(graph, branch_sets)
    owner: dict[Node, int] = {}
    for index, branch in enumerate(sets):
        for node in branch:
            owner[node] = index
    result = Graph(nodes=range(len(sets)))
    for u, v in graph.edges():
        if u in owner and v in owner and owner[u] != owner[v]:
            result.add_edge(owner[u], owner[v])
    return result


# ----------------------------------------------------------------------
# exact minor detection (small graphs / special cases)
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


def _graph_after_contraction(graph: Graph, u: Node, v: Node) -> Graph:
    """Return the graph obtained by contracting edge ``{u, v}`` into ``u``."""
    result = Graph(nodes=(node for node in graph.nodes() if node != v))
    for a, b in graph.edges():
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            result.add_edge(a2, b2)
    return result


def has_clique_minor(graph: Graph, k: int, _budget: list[int] | None = None) -> bool:
    """Exact test for a ``K_k`` minor, by searching over edge contractions.

    The test uses the fact that ``H`` is a minor of ``G`` exactly when some
    sequence of edge contractions of ``G`` produces a graph containing ``H``
    as a subgraph (contracting the branch sets of a minor model exhibits the
    subgraph; conversely contractions only produce minors).  Exponential in
    the worst case; intended for the small instances used in the lower-bound
    tests.  A search budget guards against accidental misuse on large graphs.
    """
    if _budget is None:
        _budget = [200_000]
    from repro.graphs.generators import complete_graph

    pruned = _min_degree_prune(graph, k) if k >= 3 else graph
    if k <= 1:
        return pruned.number_of_nodes() >= k
    if k == 2:
        return graph.number_of_edges() >= 1
    return _has_minor_by_contraction(pruned, complete_graph(k), _budget, {})


def _min_degree_prune(graph: Graph, k: int) -> Graph:
    """Repeatedly delete vertices of degree < k - 1 (they cannot be in a K_k model...

    Actually low-degree vertices *can* be internal to a branch set, so instead
    of deleting them we contract them into a neighbor, which preserves minor
    containment of cliques both ways when degree <= 2.
    """
    work = graph.copy()
    changed = True
    while changed:
        changed = False
        for node in list(work.nodes()):
            if not work.has_node(node):
                continue
            degree = work.degree(node)
            if degree == 0 and work.number_of_nodes() > 1:
                work.remove_node(node)
                changed = True
            elif degree == 1:
                # a pendant vertex is useless for a clique minor with k >= 3
                work.remove_node(node)
                changed = True
            elif degree == 2:
                a, b = sorted(work.neighbors(node), key=repr)
                work.remove_node(node)
                if not work.has_edge(a, b):
                    work.add_edge(a, b)
                changed = True
    return work


def _graph_signature(graph: Graph) -> frozenset:
    return frozenset(graph.edges()) | frozenset((node,) for node in graph.nodes())


def _has_minor_by_contraction(graph: Graph, target: Graph, budget: list[int],
                              memo: dict) -> bool:
    """Search over edge contractions for a subgraph isomorphic to ``target``.

    ``target`` is a minor of ``graph`` exactly when some sequence of edge
    contractions of ``graph`` produces a graph containing ``target`` as a
    subgraph, so the search over contraction sequences (with memoisation) is
    exact.
    """
    signature = _graph_signature(graph)
    cached = memo.get(signature)
    if cached is not None:
        return cached
    if budget[0] <= 0:
        raise GraphError("exact minor search budget exhausted; graph too large for exact test")
    budget[0] -= 1
    if graph.number_of_nodes() < target.number_of_nodes():
        memo[signature] = False
        return False
    if graph.number_of_edges() < target.number_of_edges():
        # contractions never increase the edge count, so this prunes the branch
        memo[signature] = False
        return False
    if _has_subgraph_isomorphic_to(graph, target):
        memo[signature] = True
        return True
    for edge in sorted(graph.edges(), key=repr):
        contracted = _graph_after_contraction(graph, edge[0], edge[1])
        if _has_minor_by_contraction(contracted, target, budget, memo):
            memo[signature] = True
            return True
    memo[signature] = False
    return False


def _has_subgraph_isomorphic_to(graph: Graph, target: Graph) -> bool:
    """Check for a (not necessarily induced) subgraph isomorphic to ``target``.

    Delegates to networkx's VF2 matcher, which is exact.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    matcher = GraphMatcher(graph.to_networkx(), target.to_networkx())
    return matcher.subgraph_is_monomorphic()
