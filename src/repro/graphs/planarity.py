"""Planarity testing and planar-embedding computation.

The honest prover of Theorem 1 needs a combinatorial planar embedding
(rotation system) of the input graph, and the Kuratowski minimiser of the
non-planarity prover needs many yes/no tests on edge subsets.  This module
is the one place that knows how planarity is tested:

* fast necessary conditions (edge-count bounds) reject dense graphs
  without running a full test;
* the full test is Brandes' left-right planarity test ("The Left-Right
  Planarity Test", 2009), ported from networkx's iterative ``LRPlanarity``
  onto flat integer lists: nodes are ``0 .. n-1``, oriented edges are list
  positions, and conflict pairs are four-slot records.  It visits
  neighbours in the order networkx visits them, so it returns networkx's
  rotation at every node, starting neighbour included.  A yes/no question
  (:func:`is_planar`, :func:`edge_list_is_planar`) stops after the testing
  phase; when an embedding is asked for (:func:`compute_planar_embedding`)
  the sign and embedding phases run too, and the resulting
  :class:`~repro.graphs.embedding.RotationSystem` is re-validated against
  Euler's formula (an independent check) before being handed to callers,
  so a faulty embedding can never silently reach the prover.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import EmbeddingError, NotPlanarError
from repro.graphs.embedding import RotationSystem
from repro.graphs.graph import Edge, Graph, Node

__all__ = [
    "planarity_upper_edge_bound",
    "passes_edge_count_bound",
    "is_planar",
    "edge_list_is_planar",
    "compute_planar_embedding",
]


def planarity_upper_edge_bound(n: int) -> int:
    """Return the maximum number of edges of a simple planar graph on ``n`` nodes.

    ``3n - 6`` for ``n >= 3``; smaller graphs are trivially planar.
    """
    if n < 3:
        return n * (n - 1) // 2
    return 3 * n - 6


def passes_edge_count_bound(graph: Graph) -> bool:
    """Return ``False`` when the graph has too many edges to be planar."""
    return graph.number_of_edges() <= planarity_upper_edge_bound(graph.number_of_nodes())


def is_planar(graph: Graph) -> bool:
    """Return whether ``graph`` is planar."""
    if graph.number_of_nodes() <= 4:
        return True
    if not passes_edge_count_bound(graph):
        return False
    _, adjacency, m = _graph_adjacency(graph)
    return _left_right(adjacency, m, embed=False) is not None


def edge_list_is_planar(edges: Iterable[Edge]) -> bool:
    """Return whether the graph formed by ``edges`` alone is planar.

    The Kuratowski minimiser runs this on many edge subsets of one host, so
    the test graph is built straight from the list: no :class:`Graph`, no
    embedding.  Self-loops are ignored and a repeated edge counts once.
    """
    index: dict[Node, int] = {}
    adjacency: list[list[int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            continue
        i = index.get(u)
        if i is None:
            i = index[u] = len(adjacency)
            adjacency.append([])
        j = index.get(v)
        if j is None:
            j = index[v] = len(adjacency)
            adjacency.append([])
        key = (i, j) if i < j else (j, i)
        if key in seen:
            continue
        seen.add(key)
        adjacency[i].append(j)
        adjacency[j].append(i)
    return _left_right(adjacency, len(seen), embed=False) is not None


def compute_planar_embedding(graph: Graph) -> RotationSystem:
    """Return a planar rotation system of ``graph``.

    Raises
    ------
    NotPlanarError
        If the graph is not planar.
    EmbeddingError
        If the computed embedding fails the Euler-formula validation (this
        would indicate a bug in the planarity test and is always checked).
    """
    if not passes_edge_count_bound(graph):
        raise NotPlanarError(
            f"graph with n={graph.number_of_nodes()} and m={graph.number_of_edges()} "
            "violates the planar edge bound 3n - 6")
    labels, adjacency, m = _graph_adjacency(graph)
    embedding = _left_right(adjacency, m, embed=True)
    if embedding is None:
        raise NotPlanarError("graph is not planar")
    leftmost, clockwise, head = embedding
    rotations: dict[Node, list[Node]] = {}
    for v, label in enumerate(labels):
        start = leftmost[v]
        order = []
        if start >= 0:
            order.append(labels[head[start]])
            half = clockwise[start]
            while half != start:
                order.append(labels[head[half]])
                half = clockwise[half]
        rotations[label] = order
    rotation = RotationSystem(rotations)
    if graph.number_of_nodes() > 0 and graph.is_connected():
        if not rotation.is_planar_embedding():
            raise EmbeddingError(
                "the planarity test returned a rotation system that fails Euler's formula")
    return rotation


# ----------------------------------------------------------------------
# the left-right test
# ----------------------------------------------------------------------
def _graph_adjacency(graph: Graph) -> tuple[list[Node], list[list[int]], int]:
    """Return ``(labels, adjacency, m)`` with neighbours in networkx's order.

    networkx's ``check_planarity(G)`` copies ``G`` edge by edge (in
    ``G.edges`` order) before its depth-first searches, and ``G`` here would
    be ``Graph.edges()`` inserted into an ``nx.Graph``.  Both edge streams
    list each edge under whichever endpoint comes first in node order, so
    node ``i``'s list holds its earlier neighbours in node order, then its
    later ones in the order ``Graph`` iterates them.  One pass builds that.
    """
    adj = graph._adj
    labels = list(adj)
    index = {label: i for i, label in enumerate(labels)}
    adjacency: list[list[int]] = [[] for _ in labels]
    m = 0
    for i, label in enumerate(labels):
        own = adjacency[i]
        for neighbor in adj[label]:
            j = index[neighbor]
            if j > i:
                own.append(j)
                adjacency[j].append(i)
                m += 1
    return labels, adjacency, m


def _left_right(adjacency: list[list[int]], m: int, embed: bool):
    """Brandes' left-right planarity test on ``adjacency`` (``m`` edges).

    Returns ``None`` when the graph is not planar.  Otherwise returns
    ``True`` when ``embed`` is false, and ``(leftmost, clockwise, head)``
    when it is: half-edge ``2e`` leaves the tail of oriented edge ``e`` and
    ``2e + 1`` its head; ``head[h]`` is the node half-edge ``h`` points to,
    ``clockwise[h]`` the next half-edge around the same node, and
    ``leftmost[v]`` the half-edge networkx's ``neighbors_cw_order(v)``
    starts from (``-1`` for an isolated node).

    The phases and their order of operations are networkx's (orientation,
    testing, sign, embedding), each an explicit-stack loop, so no input
    depth reaches the recursion limit.  ``-1`` stands for networkx's
    ``None``.
    """
    n = len(adjacency)
    if n > 2 and m > 3 * n - 6:
        return None

    # -- orientation: DFS heights, lowpoints and nesting depths ---------
    height = [-1] * n
    parent_edge = [-1] * n
    tail = [0] * m
    head = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    outgoing: list[list[int]] = [[] for _ in range(n)]
    position = [0] * n
    roots = []
    edges = 0
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            hv = height[v]
            neighbors = adjacency[v]
            out = outgoing[v]
            e = parent_edge[v]
            k = position[v]
            degree = len(neighbors)
            while k < degree:
                w = neighbors[k]
                k += 1
                hw = height[w]
                if hw < 0:  # tree edge: descend, finish it when w is done
                    vw = edges
                    edges += 1
                    tail[vw] = v
                    head[vw] = w
                    out.append(vw)
                    lowpt[vw] = lowpt2[vw] = hv
                    parent_edge[w] = vw
                    height[w] = hv + 1
                    position[v] = k
                    stack.append(v)
                    stack.append(w)
                    break
                if hw >= hv - 1:
                    # the tree edge from the parent, or a back edge that a
                    # finished descendant already oriented towards v
                    continue
                vw = edges  # back edge to a proper ancestor
                edges += 1
                tail[vw] = v
                head[vw] = w
                out.append(vw)
                lowpt[vw] = hw
                lowpt2[vw] = hv
                nesting[vw] = 2 * hw
                if e >= 0:
                    low = lowpt[e]
                    if hw < low:
                        lowpt2[e] = min(low, hv)
                        lowpt[e] = hw
                    elif hw > low:
                        lowpt2[e] = min(lowpt2[e], hw)
                    else:
                        lowpt2[e] = min(lowpt2[e], hv)
            else:
                # v is finished, and so is the tree edge e into it: what
                # networkx does when the parent resumes after e
                if e >= 0:
                    u = tail[e]
                    low = lowpt[e]
                    low2 = lowpt2[e]
                    nesting[e] = 2 * low + 1 if low2 < hv - 1 else 2 * low
                    f = parent_edge[u]
                    if f >= 0:
                        up = lowpt[f]
                        if low < up:
                            lowpt2[f] = min(up, low2)
                            lowpt[f] = low
                        elif low > up:
                            lowpt2[f] = min(lowpt2[f], low)
                        else:
                            lowpt2[f] = min(lowpt2[f], low2)

    # -- testing: the conflict-pair stack --------------------------------
    # A conflict pair is a record [left.low, left.high, right.low,
    # right.high]; networkx compares stack bottoms by identity, so do we.
    by_nesting = nesting.__getitem__
    ordered = [sorted(out, key=by_nesting) if len(out) > 1 else out for out in outgoing]
    ref = [-1] * m
    side = [1] * m
    lowpt_edge = [-1] * m
    stack_bottom: list[list[int] | None] = [None] * m
    pairs: list[list[int]] = []
    position = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            hv = height[v]
            out = ordered[v]
            e = parent_edge[v]
            k = position[v]
            degree = len(out)
            while k < degree:
                ei = out[k]
                k += 1
                stack_bottom[ei] = pairs[-1] if pairs else None
                w = head[ei]
                if parent_edge[w] == ei:  # tree edge: w integrates it when done
                    position[v] = k
                    stack.append(v)
                    stack.append(w)
                    break
                lowpt_edge[ei] = ei  # back edge
                pairs.append([-1, -1, ei, ei])
                if lowpt[ei] < hv:
                    if k == 1:
                        lowpt_edge[e] = ei
                    elif not _add_constraints(ei, e, pairs, stack_bottom, lowpt,
                                              lowpt_edge, ref):
                        return None
            else:
                if e < 0:
                    continue
                # remove the back edges returning to the parent u of v
                u = tail[e]
                hu = hv - 1
                while pairs:
                    top = pairs[-1]
                    if top[0] == -1 and top[1] == -1:
                        lowest = lowpt[top[2]]
                    elif top[2] == -1 and top[3] == -1:
                        lowest = lowpt[top[0]]
                    else:
                        lowest = min(lowpt[top[0]], lowpt[top[2]])
                    if lowest != hu:
                        break
                    pairs.pop()
                    if top[0] != -1:
                        side[top[0]] = -1
                if pairs:  # one more conflict pair to consider
                    top = pairs[-1]
                    while top[1] != -1 and head[top[1]] == u:
                        top[1] = ref[top[1]]
                    if top[1] == -1 and top[0] != -1:  # left just emptied
                        ref[top[0]] = top[2]
                        side[top[0]] = -1
                        top[0] = -1
                    while top[3] != -1 and head[top[3]] == u:
                        top[3] = ref[top[3]]
                    if top[3] == -1 and top[2] != -1:  # right just emptied
                        ref[top[2]] = top[0]
                        side[top[2]] = -1
                        top[2] = -1
                if lowpt[e] < hu:
                    # e's side is that of a highest return edge
                    top = pairs[-1]
                    high_left = top[1]
                    high_right = top[3]
                    if high_left != -1 and (high_right == -1
                                            or lowpt[high_left] > lowpt[high_right]):
                        ref[e] = high_left
                    else:
                        ref[e] = high_right
                    # what u does when it resumes after e: integrate e's return edges
                    f = parent_edge[u]
                    if ordered[u][0] == e:
                        lowpt_edge[f] = lowpt_edge[e]
                    elif not _add_constraints(e, f, pairs, stack_bottom, lowpt,
                                              lowpt_edge, ref):
                        return None
    if not embed:
        return True

    # -- sign: resolve each edge's side along its reference chain -------
    chain = []
    for e in range(m):
        r = ref[e]
        if r < 0:
            continue
        chain.append(e)
        while ref[r] >= 0:
            chain.append(r)
            r = ref[r]
        while chain:
            x = chain.pop()
            side[x] *= side[ref[x]]
            ref[x] = -1
    for e in range(m):
        if side[e] < 0:
            nesting[e] = -nesting[e]

    # -- embedding: cw/ccw successor lists over half-edges --------------
    half_head = [0] * (2 * m)
    half_head[0::2] = head
    half_head[1::2] = tail
    clockwise = [0] * (2 * m)
    counter = [0] * (2 * m)
    leftmost = [-1] * n
    for v in range(n):
        out = outgoing[v]
        if not out:
            continue
        if len(out) > 1:
            out = ordered[v] = sorted(out, key=by_nesting)
        else:
            ordered[v] = out
        # networkx adds v's out half-edges one after another, each clockwise
        # after the previous; the first one stays leftmost
        first = previous = 2 * out[0]
        leftmost[v] = first
        for e in out[1:]:
            half = 2 * e
            clockwise[previous] = half
            counter[half] = previous
            previous = half
        clockwise[previous] = first
        counter[first] = previous
    left_ref = [-1] * n
    right_ref = [-1] * n
    position = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            out = ordered[v]
            k = position[v]
            degree = len(out)
            while k < degree:
                ei = out[k]
                k += 1
                w = head[ei]
                half = 2 * ei + 1  # the half-edge from w back to v
                if parent_edge[w] == ei:
                    # tree edge: v becomes w's leftmost neighbour
                    first = leftmost[w]
                    if first < 0:
                        clockwise[half] = counter[half] = half
                    else:
                        before = counter[first]
                        clockwise[half] = first
                        counter[half] = before
                        clockwise[before] = half
                        counter[first] = half
                    leftmost[w] = half
                    left_ref[v] = right_ref[v] = 2 * ei
                    position[v] = k
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:  # clockwise after right_ref[w]
                    anchor = right_ref[w]
                    after = clockwise[anchor]
                    clockwise[half] = after
                    counter[half] = anchor
                    counter[after] = half
                    clockwise[anchor] = half
                else:  # counterclockwise before left_ref[w]
                    anchor = left_ref[w]
                    before = counter[anchor]
                    clockwise[half] = anchor
                    counter[half] = before
                    clockwise[before] = half
                    counter[anchor] = half
                    if leftmost[w] == anchor:
                        leftmost[w] = half
                    left_ref[w] = half
    return leftmost, clockwise, half_head


def _add_constraints(ei: int, e: int, pairs: list[list[int]],
                     stack_bottom: list, lowpt: list[int], lowpt_edge: list[int],
                     ref: list[int]) -> bool:
    """Merge the return edges of ``ei`` into the constraints of its parent ``e``.

    networkx's ``LRPlanarity.add_constraints`` on the flat records; returns
    ``False`` when the constraints cannot be met (the graph is not planar).
    """
    pair = [-1, -1, -1, -1]
    low_e = lowpt[e]
    bottom = stack_bottom[ei]
    # merge the return edges of ei into pair.right
    while True:
        q = pairs.pop()
        if q[0] != -1 or q[1] != -1:
            q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if q[0] != -1 or q[1] != -1:
                return False
        if lowpt[q[2]] > low_e:  # merge intervals
            if pair[2] == -1 and pair[3] == -1:  # topmost interval
                pair[3] = q[3]
            elif pair[2] != -1:
                ref[pair[2]] = q[3]
            pair[2] = q[2]
        elif q[2] != -1:  # align
            ref[q[2]] = lowpt_edge[e]
        if (pairs[-1] if pairs else None) is bottom:
            break
    # merge the conflicting return edges of e_1 .. e_{i-1} into pair.left
    low_i = lowpt[ei]
    while True:
        top = pairs[-1]
        if not ((top[0] != -1 or top[1] != -1) and lowpt[top[1]] > low_i) \
                and not ((top[2] != -1 or top[3] != -1) and lowpt[top[3]] > low_i):
            break
        q = pairs.pop()
        if (q[2] != -1 or q[3] != -1) and lowpt[q[3]] > low_i:
            q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if (q[2] != -1 or q[3] != -1) and lowpt[q[3]] > low_i:
                return False
        # merge the interval below lowpt(ei) into pair.right
        if pair[2] != -1:
            ref[pair[2]] = q[3]
        if q[2] != -1:
            pair[2] = q[2]
        if pair[0] == -1 and pair[1] == -1:  # topmost interval
            pair[1] = q[1]
        elif pair[0] != -1:
            ref[pair[0]] = q[1]
        pair[0] = q[0]
    if pair[0] != -1 or pair[1] != -1 or pair[2] != -1 or pair[3] != -1:
        pairs.append(pair)
    return True
