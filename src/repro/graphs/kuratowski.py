"""Extraction of Kuratowski obstructions (subdivisions of ``K5`` / ``K3,3``).

Kuratowski's theorem states that a graph is planar if and only if it contains
no subdivision of ``K5`` or ``K3,3``.  The folklore proof-labeling scheme for
*non*-planarity (Section 2 of the paper) certifies the presence of such a
subdivision, so the honest prover of
:class:`repro.core.nonplanarity_scheme.NonPlanarityScheme` needs to extract
one.  We do this by computing an edge-minimal non-planar subgraph: removing
any further edge would make it planar, and a classical argument shows such a
subgraph is exactly a Kuratowski subdivision.

Computing that minimal subgraph by greedy edge deletion costs one planarity
test per edge per pass — quadratic in practice, and the bottleneck of every
soundness sweep that needs honest Kuratowski certificates above ``n ~ 500``.
:func:`find_kuratowski_subdivision` therefore exits early through a cheap
*structural validation* (:func:`_as_subdivision`): strip low-degree vertices
and, if the remainder provably is a subdivision already, return it after
linear work and no planarity test.  That is exactly the shape of the
sweeps' witness instances (``k5_subdivision`` / ``k33_subdivision``
generators), which makes honest non-planarity proving linear there.

Every other input is minimised by *divide and conquer over the edge set*
(:func:`_minimal_nonplanar_core`, the QuickXplain minimisation scheme):
recursively split the candidate edges in half and test whether the support
plus one half is already non-planar — a whole half is then discarded after a
single planarity test.  A minimal core of ``k`` edges inside ``m``
candidates costs ``O(k log(m / k) + k)`` planarity tests instead of the
greedy loop's one test per edge per pass, so the cost follows the
*witness*, not the host: instances whose injected crossing edges close a
short core resolve in well under a second at ``n = 1000``, and
planar-plus-random-edges instances whose cores thread ``~100``-edge
subdivided paths through the triangulation dropped from ~35 s to ~9 s at
``n = 1000`` when this replaced the greedy loop.  The core is edge-minimal
non-planar, hence a subdivision, and is validated like the early exit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import GraphError, PlanarGraphError
from repro.graphs.graph import Graph, Node
from repro.graphs.planarity import edge_list_is_planar, is_planar

__all__ = ["KuratowskiSubdivision", "find_kuratowski_subdivision"]


@dataclass(frozen=True)
class KuratowskiSubdivision:
    """A subdivision of ``K5`` or ``K3,3`` found inside a host graph.

    Attributes
    ----------
    kind:
        Either ``"K5"`` or ``"K3,3"``.
    branch_vertices:
        The vertices of degree >= 3 in the subdivision (5 for ``K5``, 6 for
        ``K3,3``).
    subgraph:
        The subdivision itself (a subgraph of the host graph).
    """

    kind: str
    branch_vertices: tuple[Node, ...]
    subgraph: Graph

    def paths(self) -> list[list[Node]]:
        """Return the subdivided edges as vertex paths between branch vertices."""
        branch = set(self.branch_vertices)
        paths: list[list[Node]] = []
        seen_edges: set[frozenset[Node]] = set()
        for start in self.branch_vertices:
            for neighbor in self.subgraph.neighbors(start):
                if frozenset((start, neighbor)) in seen_edges:
                    continue
                path = [start, neighbor]
                seen_edges.add(frozenset((start, neighbor)))
                while path[-1] not in branch:
                    current = path[-1]
                    options = [x for x in self.subgraph.neighbors(current) if x != path[-2]]
                    if len(options) != 1:
                        raise GraphError("subdivision path is not a simple chain")
                    path.append(options[0])
                    seen_edges.add(frozenset((current, options[0])))
                paths.append(path)
        return paths


def _minimal_nonplanar_core(graph: Graph) -> Graph:
    """Edge-minimal non-planar subgraph of ``graph`` by recursive edge-set halving.

    The QuickXplain minimisation scheme: ``_minimise(support, candidates)``
    returns a minimal subset ``X`` of ``candidates`` with ``support ∪ X``
    non-planar, under the invariant that ``support ∪ candidates`` is
    non-planar.  Splitting the candidates in half lets one planarity test
    discard half the edges whenever the core is concentrated on one side, so
    a ``k``-edge core inside ``m`` candidate edges costs
    ``O(k log(m / k) + k)`` tests — a greedy loop needs ``m`` (one per
    edge) before it can even start a second pass.  Each test runs on a graph
    built from the candidate edge list alone, so no test pays for more of
    the host graph than it keeps.
    """
    def _minimise(support: list, candidates: list, support_grew: bool) -> list:
        # invariant: support + candidates is non-planar
        if support_grew and not edge_list_is_planar(support):
            return []
        if len(candidates) == 1:
            return candidates
        mid = len(candidates) // 2
        first, second = candidates[:mid], candidates[mid:]
        part_two = _minimise(support + first, second, bool(first))
        part_one = _minimise(support + part_two, first, bool(part_two))
        return part_one + part_two

    core_edges = _minimise([], list(graph.edges()), False)
    return Graph(nodes={node for edge in core_edges for node in edge}, edges=core_edges)


def _peel_low_degree(core: Graph) -> None:
    """Iteratively strip vertices of degree < 2 (never part of a subdivision)."""
    queue = [node for node in core.nodes() if core.degree(node) < 2]
    while queue:
        node = queue.pop()
        if not core.has_node(node) or core.degree(node) >= 2:
            continue
        neighbors = list(core.neighbors(node))
        core.remove_node(node)
        queue.extend(nb for nb in neighbors if core.degree(nb) < 2)


def _as_subdivision(core: Graph) -> KuratowskiSubdivision | None:
    """Return ``core`` as a validated subdivision, or ``None``.

    Purely structural (no planarity test): the branch degrees must classify,
    every edge must lie on a branch-to-branch chain, the chains must be
    simple and pairwise distinct, and the branch pairs they connect must form
    exactly ``K5`` or a complete 3+3 bipartition.  Together with the degree
    conditions this characterises the subdivisions, so an early exit here
    never returns a false positive.
    """
    if any(core.degree(node) < 2 for node in core.nodes()):
        return None  # stray vertices can never belong to a subdivision
    branch = tuple(sorted((node for node in core.nodes() if core.degree(node) >= 3),
                          key=repr))
    degrees = {core.degree(node) for node in branch}
    if len(branch) == 5 and degrees == {4}:
        kind = "K5"
    elif len(branch) == 6 and degrees == {3}:
        kind = "K3,3"
    else:
        return None
    subdivision = KuratowskiSubdivision(kind=kind, branch_vertices=branch,
                                        subgraph=core)
    try:
        paths = subdivision.paths()
    except GraphError:
        return None
    if sum(len(path) - 1 for path in paths) != core.number_of_edges():
        return None  # leftover edges outside the chains (stray components)
    pairs = {frozenset((path[0], path[-1])) for path in paths}
    if len(pairs) != len(paths) or any(path[0] == path[-1] for path in paths):
        return None  # parallel chains or a chain closing on its own endpoint
    if kind == "K5":
        expected = {frozenset((u, v)) for u in branch for v in branch if u != v}
        return subdivision if pairs == expected else None
    if len(pairs) != 9:
        return None
    adjacency: dict[Node, set[Node]] = {vertex: set() for vertex in branch}
    for pair in pairs:
        u, v = tuple(pair)
        adjacency[u].add(v)
        adjacency[v].add(u)
    if any(len(partners) != 3 for partners in adjacency.values()):
        return None
    colour: dict[Node, int] = {branch[0]: 0}
    stack = [branch[0]]
    while stack:
        vertex = stack.pop()
        for partner in adjacency[vertex]:
            if partner not in colour:
                colour[partner] = 1 - colour[vertex]
                stack.append(partner)
            elif colour[partner] == colour[vertex]:
                return None
    if len(colour) != 6 or sum(colour.values()) != 3:
        return None
    return subdivision


def find_kuratowski_subdivision(graph: Graph) -> KuratowskiSubdivision:
    """Return a Kuratowski subdivision contained in a non-planar graph.

    The input itself — stripped of low-degree vertices — is structurally
    validated first, so graphs that already are subdivisions (the sweeps'
    honest witness instances) cost linear work and no planarity test: a
    validated subdivision is non-planar by Kuratowski's theorem.  Every
    other input is tested for planarity once, then minimised by divide and
    conquer over the edge set (:func:`_minimal_nonplanar_core` — one
    planarity test can discard half the candidate edges) and the core is
    validated the same way.

    Raises
    ------
    PlanarGraphError
        If ``graph`` is planar (a :class:`GraphError`, so callers that ask
        for a subdivision only of non-planar graphs need not tell the two
        apart).
    GraphError
        If the minimal core fails structural validation (an edge-minimal
        non-planar graph is a subdivision of ``K5`` or ``K3,3``, so that
        would be a bug).
    """
    peeled = graph.copy()
    _peel_low_degree(peeled)
    early = _as_subdivision(peeled)
    if early is not None:
        return early
    if is_planar(graph):
        raise PlanarGraphError("graph is planar; it contains no Kuratowski subdivision")
    subdivision = _as_subdivision(_minimal_nonplanar_core(graph))
    if subdivision is None:
        raise GraphError("the edge-minimal non-planar core failed Kuratowski validation")
    return subdivision
