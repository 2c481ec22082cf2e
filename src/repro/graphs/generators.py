"""Graph generators used by the tests, examples and benchmark harness.

The paper's evaluation-by-theorem (:mod:`repro.analysis.experiments`) needs a varied
supply of *yes*-instances (planar graphs of many shapes) and *no*-instances
(graphs containing a ``K5`` or ``K3,3`` minor).  All generators are
deterministic given a ``seed`` so that experiments are reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Node

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "wheel_graph",
    "ladder_graph",
    "grid_graph",
    "binary_tree",
    "random_tree",
    "random_apollonian_network",
    "random_planar_graph",
    "delaunay_planar_graph",
    "random_maximal_outerplanar_graph",
    "random_outerplanar_graph",
    "subdivide_edges",
    "k5_subdivision",
    "k33_subdivision",
    "petersen_graph",
    "planar_plus_random_edges",
    "random_nonplanar_graph",
    "PLANAR_FAMILIES",
    "NONPLANAR_FAMILIES",
    "planar_family",
    "nonplanar_family",
]


# ----------------------------------------------------------------------
# deterministic classical families
# ----------------------------------------------------------------------
def path_graph(n: int) -> Graph:
    """Return the path on nodes ``0 .. n-1``."""
    graph = Graph(nodes=range(n))
    graph.add_edges_from((i, i + 1) for i in range(n - 1))
    return graph


def cycle_graph(n: int) -> Graph:
    """Return the cycle on nodes ``0 .. n-1`` (``n >= 3``)."""
    if n < 3:
        raise GraphError("a cycle needs at least 3 nodes")
    graph = path_graph(n)
    graph.add_edge(n - 1, 0)
    return graph


def star_graph(n_leaves: int) -> Graph:
    """Return the star with center ``0`` and ``n_leaves`` leaves."""
    graph = Graph(nodes=range(n_leaves + 1))
    graph.add_edges_from((0, i) for i in range(1, n_leaves + 1))
    return graph


def complete_graph(k: int) -> Graph:
    """Return the complete graph ``K_k`` on nodes ``0 .. k-1``."""
    graph = Graph(nodes=range(k))
    graph.add_edges_from((i, j) for i in range(k) for j in range(i + 1, k))
    return graph


def complete_bipartite_graph(p: int, q: int) -> Graph:
    """Return ``K_{p,q}`` with sides ``0..p-1`` and ``p..p+q-1``."""
    graph = Graph(nodes=range(p + q))
    graph.add_edges_from((i, p + j) for i in range(p) for j in range(q))
    return graph


def wheel_graph(n_rim: int) -> Graph:
    """Return the wheel: a cycle on ``1..n_rim`` plus a hub ``0``."""
    if n_rim < 3:
        raise GraphError("a wheel needs at least 3 rim nodes")
    graph = Graph(nodes=range(n_rim + 1))
    for i in range(1, n_rim + 1):
        graph.add_edge(0, i)
        graph.add_edge(i, 1 + (i % n_rim))
    return graph


def ladder_graph(n_rungs: int) -> Graph:
    """Return the ladder: two paths of length ``n_rungs`` joined by rungs."""
    graph = Graph(nodes=range(2 * n_rungs))
    for i in range(n_rungs - 1):
        graph.add_edge(i, i + 1)
        graph.add_edge(n_rungs + i, n_rungs + i + 1)
    for i in range(n_rungs):
        graph.add_edge(i, n_rungs + i)
    return graph


def grid_graph(rows: int, cols: int) -> Graph:
    """Return the ``rows x cols`` grid; nodes are numbered row-major."""
    graph = Graph(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                graph.add_edge(node, node + 1)
            if r + 1 < rows:
                graph.add_edge(node, node + cols)
    return graph


def binary_tree(depth: int) -> Graph:
    """Return the complete binary tree of the given depth (root ``0``)."""
    n = 2 ** (depth + 1) - 1
    graph = Graph(nodes=range(n))
    for i in range(1, n):
        graph.add_edge(i, (i - 1) // 2)
    return graph


def petersen_graph() -> Graph:
    """Return the Petersen graph (non-planar, contains a ``K5`` minor)."""
    graph = Graph(nodes=range(10))
    for i in range(5):
        graph.add_edge(i, (i + 1) % 5)            # outer cycle
        graph.add_edge(5 + i, 5 + (i + 2) % 5)    # inner pentagram
        graph.add_edge(i, 5 + i)                  # spokes
    return graph


# ----------------------------------------------------------------------
# randomised planar families
# ----------------------------------------------------------------------
def random_tree(n: int, seed: int | None = None) -> Graph:
    """Return a uniformly random labelled tree (Prüfer construction)."""
    if n <= 0:
        raise GraphError("a tree needs at least one node")
    if n == 1:
        return Graph(nodes=[0])
    if n == 2:
        return Graph(edges=[(0, 1)])
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for node in prufer:
        degree[node] += 1
    graph = Graph(nodes=range(n))
    import heapq

    leaves = [node for node in range(n) if degree[node] == 1]
    heapq.heapify(leaves)
    for node in prufer:
        leaf = heapq.heappop(leaves)
        graph.add_edge(leaf, node)
        degree[leaf] = 0
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(leaves, node)
    last = [node for node in range(n) if degree[node] == 1]
    graph.add_edge(last[0], last[1])
    return graph


def random_apollonian_network(n: int, seed: int | None = None) -> Graph:
    """Return a random planar triangulation built by repeated face subdivision.

    Starting from a triangle, each new node is placed inside a uniformly
    chosen triangular face and connected to its three corners.  The result is
    a maximal planar graph (an *Apollonian network*) on ``n >= 3`` nodes.
    """
    if n < 3:
        raise GraphError("an Apollonian network needs at least 3 nodes")
    rng = random.Random(seed)
    graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    faces: list[tuple[int, int, int]] = [(0, 1, 2)]
    for new in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        graph.add_edge(new, a)
        graph.add_edge(new, b)
        graph.add_edge(new, c)
        faces.extend([(a, b, new), (b, c, new), (a, c, new)])
    return graph


def random_planar_graph(n: int, edge_keep_probability: float = 0.7,
                        seed: int | None = None) -> Graph:
    """Return a random connected planar graph.

    A random triangulation is generated first and each non-tree edge is then
    kept independently with probability ``edge_keep_probability``, so that
    the result stays connected and planar but is no longer maximal.
    """
    if n == 1:
        return Graph(nodes=[0])
    if n == 2:
        return Graph(edges=[(0, 1)])
    rng = random.Random(seed)
    triangulation = random_apollonian_network(n, seed=rng.randrange(2 ** 30))
    from repro.graphs.spanning_tree import bfs_spanning_tree

    tree = bfs_spanning_tree(triangulation, 0)
    graph = tree.to_graph()
    for u, v in triangulation.edges():
        if tree.has_edge(u, v):
            continue
        if rng.random() < edge_keep_probability:
            graph.add_edge(u, v)
    return graph


def delaunay_planar_graph(n: int, seed: int | None = None) -> Graph:
    """Return the Delaunay triangulation of ``n`` random points in the unit square.

    Delaunay triangulations are planar, connected, and structurally very
    different from Apollonian networks (bounded average degree, no dominating
    apex vertices), which makes them a useful second planar family for the
    scaling experiments.  Requires :mod:`scipy`.
    """
    if n < 3:
        return path_graph(n)
    rng = random.Random(seed)
    import numpy as np
    from scipy.spatial import Delaunay

    points = np.array([[rng.random(), rng.random()] for _ in range(n)])
    triangulation = Delaunay(points)
    graph = Graph(nodes=range(n))
    for simplex in triangulation.simplices:
        a, b, c = (int(x) for x in simplex)
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(a, c)
    return graph


def random_maximal_outerplanar_graph(n: int, seed: int | None = None) -> Graph:
    """Return a random maximal outerplanar graph (a triangulated convex polygon).

    Nodes ``0 .. n-1`` form the outer cycle; the interior is triangulated by
    recursively splitting ears at random.
    """
    if n < 3:
        return path_graph(n)
    rng = random.Random(seed)
    graph = cycle_graph(n)

    def triangulate(polygon: Sequence[int]) -> None:
        if len(polygon) <= 3:
            return
        # split the polygon by a random chord from a random vertex
        i = rng.randrange(len(polygon))
        j = (i + rng.randrange(2, len(polygon) - 1)) % len(polygon)
        a, b = polygon[i], polygon[j]
        if not graph.has_edge(a, b):
            graph.add_edge(a, b)
        lo, hi = min(i, j), max(i, j)
        triangulate(polygon[lo:hi + 1])
        triangulate(polygon[hi:] + polygon[:lo + 1])

    triangulate(list(range(n)))
    return graph


def random_outerplanar_graph(n: int, chord_keep_probability: float = 0.6,
                             seed: int | None = None) -> Graph:
    """Return a random connected outerplanar graph (subset of a maximal one)."""
    rng = random.Random(seed)
    maximal = random_maximal_outerplanar_graph(n, seed=rng.randrange(2 ** 30))
    if n < 3:
        return maximal
    graph = path_graph(n)
    for u, v in maximal.edges():
        if abs(u - v) == 1:
            continue
        if rng.random() < chord_keep_probability:
            graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# non-planar families
# ----------------------------------------------------------------------
def subdivide_edges(graph: Graph, subdivisions: int, seed: int | None = None) -> Graph:
    """Return a copy of ``graph`` with every edge replaced by a path.

    Each edge is subdivided between 1 and ``subdivisions`` times (chosen at
    random when a seed is supplied, always ``subdivisions`` otherwise).
    Subdividing preserves (non-)planarity, so this turns ``K5`` / ``K3,3``
    into larger topological obstructions.
    """
    rng = random.Random(seed)
    result = Graph(nodes=graph.nodes())
    next_node = max((node for node in graph.nodes() if isinstance(node, int)), default=-1) + 1
    for u, v in graph.edges():
        count = subdivisions if seed is None else rng.randint(1, max(1, subdivisions))
        previous = u
        for _ in range(count):
            result.add_edge(previous, next_node)
            previous = next_node
            next_node += 1
        result.add_edge(previous, v)
    return result


def k5_subdivision(subdivisions: int = 2, seed: int | None = None) -> Graph:
    """Return a subdivision of ``K5`` (non-planar by Kuratowski's theorem)."""
    return subdivide_edges(complete_graph(5), subdivisions, seed=seed)


def k33_subdivision(subdivisions: int = 2, seed: int | None = None) -> Graph:
    """Return a subdivision of ``K3,3`` (non-planar by Kuratowski's theorem)."""
    return subdivide_edges(complete_bipartite_graph(3, 3), subdivisions, seed=seed)


def planar_plus_random_edges(n: int, extra_edges: int = 3, seed: int | None = None) -> Graph:
    """Return a planar triangulation with extra random edges forced on top.

    For ``n >= 7`` a maximal planar graph cannot absorb any extra edge, so
    the result is guaranteed to be non-planar; these "almost planar" inputs
    are the adversarially interesting *no*-instances for soundness tests.
    """
    if n < 7:
        raise GraphError("planar_plus_random_edges needs n >= 7 to guarantee non-planarity")
    rng = random.Random(seed)
    graph = random_apollonian_network(n, seed=rng.randrange(2 ** 30))
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 100 * extra_edges:
        attempts += 1
        u, v = rng.sample(range(n), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1
    if added == 0:
        raise GraphError("could not add any extra edge; increase n")
    return graph


def random_nonplanar_graph(n: int, seed: int | None = None) -> Graph:
    """Return a random connected graph guaranteed to contain a ``K5`` minor.

    A random spanning tree is generated and a clique on five random nodes is
    merged in, plus some random noise edges.
    """
    if n < 5:
        raise GraphError("need at least 5 nodes for a K5 minor")
    rng = random.Random(seed)
    graph = random_tree(n, seed=rng.randrange(2 ** 30))
    clique = rng.sample(range(n), 5)
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
    for _ in range(n // 2):
        u, v = rng.sample(range(n), 2)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# named family registry (used by experiments and benchmarks)
# ----------------------------------------------------------------------
PLANAR_FAMILIES: dict[str, object] = {
    "path": lambda n, seed=None: path_graph(n),
    "cycle": lambda n, seed=None: cycle_graph(max(3, n)),
    "tree": lambda n, seed=None: random_tree(n, seed=seed),
    "grid": lambda n, seed=None: grid_graph(max(2, int(round(n ** 0.5))),
                                            max(2, int(round(n ** 0.5)))),
    "apollonian": lambda n, seed=None: random_apollonian_network(max(3, n), seed=seed),
    "delaunay": lambda n, seed=None: delaunay_planar_graph(max(3, n), seed=seed),
    "random-planar": lambda n, seed=None: random_planar_graph(max(3, n), seed=seed),
    "outerplanar": lambda n, seed=None: random_outerplanar_graph(max(3, n), seed=seed),
    "wheel": lambda n, seed=None: wheel_graph(max(3, n - 1)),
    "ladder": lambda n, seed=None: ladder_graph(max(2, n // 2)),
}

NONPLANAR_FAMILIES: dict[str, object] = {
    "k5": lambda n, seed=None: complete_graph(5),
    "k33": lambda n, seed=None: complete_bipartite_graph(3, 3),
    "k5-subdivision": lambda n, seed=None: k5_subdivision(max(1, n // 10), seed=seed),
    "k33-subdivision": lambda n, seed=None: k33_subdivision(max(1, n // 9), seed=seed),
    "petersen": lambda n, seed=None: petersen_graph(),
    "planar-plus-edges": lambda n, seed=None: planar_plus_random_edges(max(7, n), seed=seed),
    "random-nonplanar": lambda n, seed=None: random_nonplanar_graph(max(5, n), seed=seed),
}


def planar_family(name: str, n: int, seed: int | None = None) -> Graph:
    """Return a planar graph from the named family with roughly ``n`` nodes."""
    if name not in PLANAR_FAMILIES:
        raise GraphError(f"unknown planar family {name!r}")
    return PLANAR_FAMILIES[name](n, seed=seed)  # type: ignore[operator]


def nonplanar_family(name: str, n: int, seed: int | None = None) -> Graph:
    """Return a non-planar graph from the named family with roughly ``n`` nodes."""
    if name not in NONPLANAR_FAMILIES:
        raise GraphError(f"unknown non-planar family {name!r}")
    return NONPLANAR_FAMILIES[name](n, seed=seed)  # type: ignore[operator]
