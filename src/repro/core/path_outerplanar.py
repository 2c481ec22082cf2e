"""Path-outerplanar graphs (Definition 1 and Lemma 1 of the paper).

A graph is *path-outerplanar* when its vertices admit a total order that
forms a Hamiltonian path and in which every two edges, viewed as intervals
over the order, are nested or disjoint (they may share endpoints but may not
cross).  Lemma 1 shows this is the same as having a drawing with the
Hamiltonian path on a horizontal line and all remaining edges as
non-crossing semi-circles above it.

This module provides the combinatorial side: witness checking, crossing
detection, interval (``I(x)``) computation used by the certificates of
Lemma 2, witness search for small graphs, and a generator of random
path-outerplanar instances for the tests and benchmarks.
"""

from __future__ import annotations

import random
from itertools import permutations

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Node
from repro.graphs.validation import hamiltonian_order_is_valid

__all__ = [
    "intervals_cross",
    "find_crossing_pair",
    "is_path_outerplanar_witness",
    "find_path_outerplanar_witness",
    "compute_covering_intervals",
    "random_path_outerplanar_graph",
]

Interval = tuple[int, int]


def intervals_cross(first: Interval, second: Interval) -> bool:
    """Return whether two edge-intervals cross (violate Definition 1).

    Intervals may share endpoints; they cross exactly when they strictly
    interleave: ``a < c < b < d`` for one of the two orderings.
    """
    a, b = min(first), max(first)
    c, d = min(second), max(second)
    if a > c or (a == c and b < d):
        a, b, c, d = c, d, a, b
    return a < c < b < d


def find_crossing_pair(chords: list[Interval]) -> tuple[Interval, Interval] | None:
    """Return a pair of crossing chords, or ``None`` when the family is laminar.

    Runs in ``O(m log m)`` with the classic parenthesis-matching sweep, so it
    can be used on the large instances produced by the benchmarks.
    """
    normalised = sorted((min(c), max(c)) for c in chords)
    # sort by left endpoint ascending, right endpoint descending
    normalised.sort(key=lambda iv: (iv[0], -iv[1]))
    stack: list[Interval] = []
    for a, b in normalised:
        if a == b:
            raise GraphError("degenerate chord with equal endpoints")
        while stack and stack[-1][1] <= a:
            stack.pop()
        if stack and stack[-1][1] < b:
            return (stack[-1], (a, b))
        stack.append((a, b))
    return None


def is_path_outerplanar_witness(graph: Graph, order: list[Node]) -> bool:
    """Check whether ``order`` is a path-outerplanarity witness for ``graph``.

    ``order`` must list every node exactly once, consecutive nodes must be
    adjacent (so the order is a Hamiltonian path), and no two edges may cross
    with respect to the order.
    """
    if not hamiltonian_order_is_valid(graph, order):
        return False
    rank = {node: index + 1 for index, node in enumerate(order)}
    chords = [(rank[u], rank[v]) for u, v in graph.edges()]
    return find_crossing_pair(chords) is None


def find_path_outerplanar_witness(graph: Graph, max_exact_nodes: int = 9,
                                  raise_on_failure: bool = True) -> list[Node] | None:
    """Return a path-outerplanarity witness, or ``None``.

    The search first tries cheap candidate orders (sorted nodes and their
    reverse, helpful because our generators use the natural order as the
    witness), then falls back to exhaustive enumeration for graphs with at
    most ``max_exact_nodes`` nodes.
    """
    nodes = sorted(graph.nodes(), key=repr)
    candidates = [nodes, list(reversed(nodes))]
    for order in candidates:
        if is_path_outerplanar_witness(graph, order):
            return order
    if graph.number_of_nodes() <= max_exact_nodes:
        for order in permutations(nodes):
            # the reverse of a witness is a witness, so only test one orientation
            if len(order) > 1 and repr(order[0]) > repr(order[-1]):
                continue
            if is_path_outerplanar_witness(graph, list(order)):
                return list(order)
        return None
    if raise_on_failure:
        raise GraphError(
            "no cheap witness found and the graph is too large for exhaustive search")
    return None


def compute_covering_intervals(n: int, chords: list[Interval],
                               assume_laminar: bool = True) -> dict[int, Interval]:
    """Compute ``I(x)`` for every rank ``x`` in ``1..n`` (Lemma 2 certificates).

    ``I(x)`` is the shortest chord ``[a, b]`` with ``a < x < b``; when no
    chord covers ``x`` the sentinel ``(0, n + 1)`` is used, exactly as in the
    paper.  Chords are given as rank pairs; chords of length one (path edges)
    never cover anything and are ignored.

    With ``assume_laminar=True`` a linear sweep is used (valid whenever the
    chord family is non-crossing, which is always the case for the honest
    prover); otherwise a quadratic but assumption-free scan is used.
    """
    sentinel: Interval = (0, n + 1)
    covering = [(min(a, b), max(a, b)) for a, b in chords if abs(a - b) >= 2]
    intervals: dict[int, Interval] = {x: sentinel for x in range(1, n + 1)}
    if not covering:
        return intervals
    if not assume_laminar:
        for x in range(1, n + 1):
            best = sentinel
            for a, b in covering:
                if a < x < b and (b - a) < (best[1] - best[0]):
                    best = (a, b)
            intervals[x] = best
        return intervals
    # laminar sweep: the innermost active chord at x is the top of the stack
    covering.sort(key=lambda iv: (iv[0], -iv[1]))
    stack: list[Interval] = []
    pointer = 0
    for x in range(1, n + 1):
        while pointer < len(covering) and covering[pointer][0] < x:
            stack.append(covering[pointer])
            pointer += 1
        while stack and stack[-1][1] <= x:
            stack.pop()
        intervals[x] = stack[-1] if stack else sentinel
    return intervals


def random_path_outerplanar_graph(n: int, chord_count: int | None = None,
                                  seed: int | None = None) -> tuple[Graph, list[int]]:
    """Generate a random path-outerplanar graph with witness ``[0, 1, ..., n-1]``.

    The graph consists of the path ``0 - 1 - ... - (n-1)`` plus
    ``chord_count`` random chords added only when they keep the chord family
    laminar.  Returns ``(graph, witness)``.
    """
    if n < 1:
        raise GraphError("need at least one node")
    rng = random.Random(seed)
    graph = Graph(nodes=range(n))
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    if chord_count is None:
        chord_count = max(0, n // 2)
    chords: list[Interval] = []
    attempts = 0
    while len(chords) < chord_count and attempts < 50 * (chord_count + 1):
        attempts += 1
        a, b = sorted(rng.sample(range(n), 2)) if n >= 2 else (0, 0)
        if b - a < 2 or graph.has_edge(a, b):
            continue
        candidate = (a + 1, b + 1)  # ranks are 1-based
        if all(not intervals_cross(candidate, existing) for existing in chords):
            chords.append(candidate)
            graph.add_edge(a, b)
    return graph, list(range(n))
