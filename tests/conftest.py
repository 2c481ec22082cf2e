"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os
import sys

import pytest

# Several tests fan trial workers defined in test modules out through
# SimulationEngine.run_trials, whose pool is pinned to the ``spawn`` start
# method: the child interpreter re-imports the worker's module from scratch,
# so the tests directory must be importable there.  The parent's sys.path
# has it (pytest inserts the rootdir), but spawn children only inherit
# PYTHONPATH — export it once, before any pool starts.
_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
if _TESTS_DIR not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (_TESTS_DIR, os.environ.get("PYTHONPATH")) if path)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    k5_subdivision,
    k33_subdivision,
    ladder_graph,
    path_graph,
    petersen_graph,
    planar_plus_random_edges,
    random_apollonian_network,
    random_outerplanar_graph,
    random_planar_graph,
    random_tree,
    wheel_graph,
)


def planar_instances() -> list[tuple[str, object]]:
    """A labelled collection of connected planar graphs covering many shapes."""
    return [
        ("path-12", path_graph(12)),
        ("single-node", path_graph(1)),
        ("two-nodes", path_graph(2)),
        ("cycle-9", cycle_graph(9)),
        ("star-7", complete_bipartite_graph(1, 7)),
        ("tree-25", random_tree(25, seed=3)),
        ("grid-5x6", grid_graph(5, 6)),
        ("ladder-8", ladder_graph(8)),
        ("wheel-9", wheel_graph(9)),
        ("apollonian-28", random_apollonian_network(28, seed=1)),
        ("delaunay-35", delaunay_planar_graph(35, seed=2)),
        ("random-planar-30", random_planar_graph(30, seed=4)),
        ("outerplanar-22", random_outerplanar_graph(22, seed=5)),
    ]


def nonplanar_instances() -> list[tuple[str, object]]:
    """A labelled collection of connected non-planar graphs."""
    return [
        ("k5", complete_graph(5)),
        ("k6", complete_graph(6)),
        ("k33", complete_bipartite_graph(3, 3)),
        ("k34", complete_bipartite_graph(3, 4)),
        ("petersen", petersen_graph()),
        ("k5-subdivision", k5_subdivision(2)),
        ("k33-subdivision", k33_subdivision(2)),
        ("planar-plus-edges", planar_plus_random_edges(14, seed=7)),
    ]


@pytest.fixture(params=planar_instances(), ids=lambda case: case[0])
def planar_case(request):
    """Parametrised fixture yielding (name, planar graph)."""
    return request.param


@pytest.fixture(params=nonplanar_instances(), ids=lambda case: case[0])
def nonplanar_case(request):
    """Parametrised fixture yielding (name, non-planar graph)."""
    return request.param
