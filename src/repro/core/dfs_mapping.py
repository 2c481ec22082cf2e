"""Cutting a planar graph open along a spanning tree (Section 3.2 of the paper).

Given a planar graph ``G`` with a rotation-system embedding, a spanning tree
``T`` rooted at ``r``, the paper defines:

* the **DFS-mapping** ``f : {1, .., 2n-1} -> V(T)``: an Euler tour of ``T``
  that descends into children following the counterclockwise rotation order
  (Definition in Section 3.2); every node ``v`` receives ``deg_T(v)`` copies
  (``deg_T(r) + 1`` for the root);
* the **induced graph** ``G_{T,f}`` (Definition 2): the path
  ``1 - 2 - ... - (2n-1)`` plus, for every cotree edge ``{u, v}`` of ``G``,
  one edge between a copy of ``u`` and a copy of ``v``.  Lemma 3 shows that
  when the copies are chosen according to the angular sector in which the
  cotree edge leaves each endpoint (the *type* ``tau`` of the paper), the
  induced graph is path-outerplanar; Lemma 4 shows the converse: if *some*
  induced graph is path-outerplanar then ``G`` is planar.

This module computes ``f``, the types, ``G_{T,f}``, and the contraction that
recovers ``G`` (used to exercise Lemma 4).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.exceptions import EmbeddingError, GraphError
from repro.graphs.embedding import RotationSystem
from repro.graphs.graph import Graph, Node, edge_key
from repro.graphs.planarity import compute_planar_embedding
from repro.graphs.spanning_tree import RootedTree, bfs_spanning_tree
from repro.graphs.validation import require_connected

__all__ = ["DFSMapping", "TreeEdgeImage", "PlanarCutDecomposition", "cut_open",
           "euler_tour_locally_consistent"]


def euler_tour_locally_consistent(copies: set[int],
                                  child_spans: list[tuple[int, int]]) -> bool:
    """Local Euler-tour consistency of one node's claimed copies (Phase 2b).

    A node of the Theorem 1 verifier knows its claimed copy indices
    (``f^{-1}`` of itself, reconstructed from the visible edge certificates)
    and, for every tree child, the index span ``[child_min, child_max]``
    that child's subtree claims to occupy.  In a genuine DFS-mapping the
    copies and spans interleave exactly: the first copy is followed by the
    first child's whole span, then the next copy, the next span, and so on
    — so the sorted copies must equal ``[f_min, span_1.max + 1, ...,
    span_m.max + 1]`` with ``span_k.min == previous copy + 1``.

    This is the pure chain predicate shared between the reference verifier
    (:func:`repro.core.planarity_scheme.reconstruct_local_structure`) and
    the vectorized planarity kernel, which evaluates the same conditions for
    all nodes at once with per-node segmented sorts
    (:func:`repro.vectorized.kernels.segment_sort`).  The root/parent anchor
    (``f_min``/``f_max`` against the parent edge's indices) stays with the
    callers — it needs the parent certificate, not the tour shape.

    Ties among span starts make the chain unsatisfiable in every order, so
    the predicate is order-insensitive even though Python's sort breaks such
    ties arbitrarily.
    """
    if not copies:
        return False
    copies_sorted = sorted(copies)
    expected = [copies_sorted[0]]
    for child_min, child_max in sorted(child_spans):
        if child_min > child_max:
            return False
        if child_min != expected[-1] + 1:
            return False
        expected.append(child_max + 1)
    return copies_sorted == expected


@dataclass(frozen=True)
class TreeEdgeImage:
    """The two path edges of ``G_{T,f}`` onto which a tree edge is mapped.

    ``descend_index`` is the index ``i`` such that the path edge
    ``{i, i + 1}`` realises the parent-to-child traversal
    (``f(i) = parent``, ``f(i+1) = child``); ``return_index`` is the index
    ``j`` of the child-to-parent traversal (``f(j) = child``,
    ``f(j+1) = parent``).
    """

    parent: Node
    child: Node
    descend_index: int
    return_index: int


@dataclass
class DFSMapping:
    """The DFS-mapping ``f`` of a rooted spanning tree following a rotation system."""

    root: Node
    f: dict[int, Node]
    copies: dict[Node, list[int]]
    children_order: dict[Node, list[Node]]

    @property
    def path_length(self) -> int:
        """Return ``2n - 1``, the number of indices."""
        return len(self.f)


@dataclass
class PlanarCutDecomposition:
    """Everything produced by cutting a planar graph open along a spanning tree."""

    graph: Graph
    tree: RootedTree
    rotation: RotationSystem
    mapping: DFSMapping
    tree_edge_images: dict[tuple[Node, Node], TreeEdgeImage] = field(default_factory=dict)
    cotree_edge_images: dict[tuple[Node, Node], tuple[int, int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def path_length(self) -> int:
        """Number of vertices of ``G_{T,f}`` (``2n - 1``)."""
        return self.mapping.path_length

    def induced_edges(self) -> list[tuple[int, int]]:
        """Return all edges of ``G_{T,f}`` (path edges plus mapped cotree edges)."""
        n_path = self.path_length
        edges = [(i, i + 1) for i in range(1, n_path)]
        edges.extend(sorted((min(i, j), max(i, j))
                            for i, j in self.cotree_edge_images.values()))
        return edges

    def induced_graph(self) -> Graph:
        """Return ``G_{T,f}`` as a :class:`Graph` on nodes ``1 .. 2n-1``."""
        return Graph(nodes=range(1, self.path_length + 1), edges=self.induced_edges())

    def chord_intervals(self) -> list[tuple[int, int]]:
        """Return the mapped cotree edges as rank intervals (the chords of the witness)."""
        return [(min(i, j), max(i, j)) for i, j in self.cotree_edge_images.values()]

    def contract_copies(self) -> Graph:
        """Contract every set of copies back to its original node (Lemma 4 direction).

        The result is exactly the original graph ``G`` (up to the node
        labels, which are preserved).
        """
        owner: dict[int, Node] = {}
        for node, indices in self.mapping.copies.items():
            for index in indices:
                owner[index] = node
        contracted = Graph(nodes=self.graph.nodes())
        for i, j in self.induced_edges():
            u, v = owner[i], owner[j]
            if u != v:
                contracted.add_edge(u, v)
        return contracted


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _children_in_rotation_order(rotation: RotationSystem, tree: RootedTree,
                                node: Node) -> list[Node]:
    """Return the tree children of ``node`` ordered by the rotation.

    For a non-root node the order starts immediately after the parent edge in
    the rotation; for the root it starts at the first tree child appearing in
    the stored rotation (the virtual parent edge ``{r, r'}`` of Lemma 3 is
    placed immediately before that child).
    """
    tree_children = set(tree.children(node))
    if not tree_children:
        return []
    parent = tree.parent(node)
    if parent is not None:
        order = rotation.rotation_from(node, parent)[1:]
    else:
        full = rotation.rotation(node)
        first_child = next(nb for nb in full if nb in tree_children)
        order = rotation.rotation_from(node, first_child)
    return [nb for nb in order if nb in tree_children]


def _euler_tour(root: Node, children_order: dict[Node, list[Node]],
                ) -> tuple[dict[int, Node], dict[Node, list[int]]]:
    f: dict[int, Node] = {}
    copies: dict[Node, list[int]] = defaultdict(list)
    index = 1
    f[index] = root
    copies[root].append(index)
    stack: list[tuple[Node, int]] = [(root, 0)]
    while stack:
        node, child_pos = stack[-1]
        children = children_order[node]
        if child_pos < len(children):
            stack[-1] = (node, child_pos + 1)
            child = children[child_pos]
            index += 1
            f[index] = child
            copies[child].append(index)
            stack.append((child, 0))
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                index += 1
                f[index] = parent
                copies[parent].append(index)
    return f, dict(copies)


def _cotree_types_at_node(rotation: RotationSystem, tree: RootedTree,
                          mapping: DFSMapping, node: Node) -> dict[Node, int]:
    """Return, for every cotree neighbor of ``node``, the copy index it attaches to.

    The copy is determined by the angular sector of the cotree edge: walking
    along the rotation (in the same direction used to order the DFS
    children), the first tree edge encountered after the cotree edge carries
    the copy from which the DFS departs along that tree edge (the ``tau``
    types of Lemma 3).  The parent edge — or, at the root, the virtual edge
    ``{r, r'}`` — carries the last copy.
    """
    children = mapping.children_order[node]
    copies = mapping.copies[node]
    tree_children = set(children)
    parent = tree.parent(node)
    all_neighbors = rotation.rotation(node)
    cotree_neighbors = [nb for nb in all_neighbors
                        if nb not in tree_children and nb != parent]
    if not cotree_neighbors:
        return {}

    # linearise the rotation so that the "closing" edge (parent edge, or the
    # virtual parent edge at the root) sits at the very end of the list
    if parent is not None:
        linear = rotation.rotation_from(node, parent)[1:]
    elif children:
        first_child = children[0]
        linear = rotation.rotation_from(node, first_child)
    else:
        linear = list(all_neighbors)

    # copy index carried by each tree-edge marker
    marker_copy: dict[Node, int] = {}
    for child_position, child in enumerate(children):
        marker_copy[child] = copies[child_position]
    closing_copy = copies[-1]

    types: dict[Node, int] = {}
    positions = {neighbor: position for position, neighbor in enumerate(linear)}
    for cotree_neighbor in cotree_neighbors:
        position = positions[cotree_neighbor]
        assigned = closing_copy
        for later in linear[position + 1:]:
            if later in marker_copy:
                assigned = marker_copy[later]
                break
        types[cotree_neighbor] = assigned
    return types


def cut_open(graph: Graph, rotation: RotationSystem | None = None,
             tree: RootedTree | None = None) -> PlanarCutDecomposition:
    """Cut a planar graph open along a spanning tree (Lemma 3 construction).

    Parameters
    ----------
    graph:
        A connected planar graph.
    rotation:
        A planar rotation system of ``graph``; computed when omitted.
    tree:
        A spanning tree of ``graph``; when omitted, a BFS tree rooted at the
        first node of ``graph``.

    Returns the full decomposition: the DFS-mapping ``f``, the images of tree
    and cotree edges in ``G_{T,f}``, and helpers to materialise ``G_{T,f}``
    or contract it back to ``G``.
    """
    require_connected(graph, context="cut_open")
    if rotation is None:
        rotation = compute_planar_embedding(graph)
    if tree is None:
        tree = bfs_spanning_tree(graph, next(iter(graph.nodes())))
    if not tree.spans(graph):
        raise GraphError("the provided tree is not a spanning tree of the graph")
    if set(rotation.nodes()) != set(graph.nodes()):
        raise EmbeddingError("the rotation system does not cover the graph's nodes")

    children_order = {node: _children_in_rotation_order(rotation, tree, node)
                      for node in graph.nodes()}
    f, copies = _euler_tour(tree.root, children_order)
    mapping = DFSMapping(root=tree.root, f=f, copies=copies, children_order=children_order)

    # images of tree edges: descend / return path edges
    tree_edge_images: dict[tuple[Node, Node], TreeEdgeImage] = {}
    for node in graph.nodes():
        for child_position, child in enumerate(children_order[node]):
            descend_index = copies[node][child_position]
            return_index = copies[child][-1]
            image = TreeEdgeImage(parent=node, child=child,
                                  descend_index=descend_index, return_index=return_index)
            tree_edge_images[edge_key(node, child)] = image

    # images of cotree edges via the angular types
    types_per_node = {node: _cotree_types_at_node(rotation, tree, mapping, node)
                      for node in graph.nodes()}
    cotree_edge_images: dict[tuple[Node, Node], tuple[int, int]] = {}
    for u, v in graph.edges():
        if tree.has_edge(u, v):
            continue
        key = edge_key(u, v)
        first, second = key
        cotree_edge_images[key] = (types_per_node[first][second], types_per_node[second][first])

    return PlanarCutDecomposition(
        graph=graph,
        tree=tree,
        rotation=rotation,
        mapping=mapping,
        tree_edge_images=tree_edge_images,
        cotree_edge_images=cotree_edge_images,
    )
