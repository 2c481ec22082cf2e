"""Quickstart: certify that a network is planar with O(log n)-bit certificates.

Run with::

    PYTHONPATH=src python examples/quickstart.py
    PYTHONPATH=src python examples/quickstart.py --backend vectorized

The example resolves the Theorem 1 proof-labeling scheme through the
:class:`~repro.distributed.registry.SchemeRegistry`, runs the honest prover
and the batched :class:`~repro.distributed.engine.SimulationEngine` verifier
over a small planar network, and reports the exact certificate sizes.  It
then shows the soundness side: on a non-planar network, replaying
certificates of a planar sub-network leaves at least one node rejecting.

``--backend vectorized`` routes every verification in this script through
the :mod:`repro.vectorized` array kernels: the building-block and planarity
sections run on full kernels, which decide every node in array form and
hand a node to the reference verifier only when its view holds a value the
arrays cannot represent exactly — same decisions either way.  An attack
that changes a few certificates of an assignment the engine certified
(``engine.certify``) is decided locally instead, re-deciding only the
changed balls; this script's attack transplants certificates from another
network, so the kernel decides it.  See ``docs/ARCHITECTURE.md`` for the
backend-support matrix.
"""

from __future__ import annotations

import argparse

from repro.analysis.tables import print_table
from repro.distributed.engine import BACKENDS, SimulationEngine
from repro.distributed.registry import default_registry
from repro.graphs.generators import (
    delaunay_planar_graph,
    planar_plus_random_edges,
    random_tree,
)
from repro.graphs.planarity import is_planar


def certify_planar_network(engine: SimulationEngine) -> None:
    """Completeness: an honest prover convinces every node of a planar network."""
    scheme = default_registry().create("planarity-pls")
    graph = delaunay_planar_graph(40, seed=1)
    result = engine.certify_and_verify(scheme, graph, seed=1)

    print("== Certifying a planar network (Delaunay triangulation, n = 40) ==")
    print(f"all nodes accept          : {result.accepted}")
    print(f"largest certificate       : {result.max_certificate_bits} bits")
    print(f"average certificate       : {result.mean_certificate_bits:.1f} bits")
    print(f"per-edge message load     : {result.message_bits_per_edge} bits (1 round)")
    print()


def certify_building_block(engine: SimulationEngine) -> None:
    """The spanning-tree building block, served by its vectorized kernel."""
    scheme = default_registry().create("tree-pls")
    graph = random_tree(60, seed=3)
    result = engine.certify_and_verify(scheme, graph, seed=3)

    kernel = default_registry().kernel_for(scheme)
    print("== Certifying a tree network (building-block scheme, n = 60) ==")
    print(f"verification backend      : {engine.backend}"
          + (" (array kernel)" if kernel and engine.backend == "vectorized" else ""))
    print(f"all nodes accept          : {result.accepted}")
    print(f"largest certificate       : {result.max_certificate_bits} bits")
    print()


def reject_nonplanar_network(engine: SimulationEngine) -> None:
    """Soundness: no certificate assignment convinces every node of a non-planar network."""
    scheme = default_registry().create("planarity-pls")
    graph = planar_plus_random_edges(20, extra_edges=1, seed=2)
    assert not is_planar(graph)
    network = engine.network_for(graph, seed=2)

    # the strongest cheap attack: certify a planar sub-network honestly and
    # replay those certificates on the real (non-planar) network
    twin = graph.copy()
    for u, v in list(twin.edges()):
        if is_planar(twin):
            break
        twin.remove_edge(u, v)
        if not twin.is_connected():
            twin.add_edge(u, v)
    donor_network = engine.network_for(
        twin, ids={node: network.id_of(node) for node in twin.nodes()})
    transplanted = scheme.prove(donor_network)
    result = engine.verify(scheme, network, transplanted)

    print("== Attacking a non-planar network (planar graph + 1 crossing link) ==")
    print(f"all nodes accept          : {result.accepted}")
    print(f"nodes raising the alarm   : {len(result.rejecting_nodes)} of {network.size}")
    print_table([result.summary()], title="verification summary")
    print()


def list_registered_schemes() -> None:
    """Every scheme in the library is discoverable by name."""
    print_table(default_registry().description_rows(),
                title="registered certification schemes")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=BACKENDS, default="reference",
                        help="verification backend used by the engine "
                             "(schemes without a vectorized kernel fall back "
                             "to the reference verifier)")
    args = parser.parse_args()
    engine = SimulationEngine(seed=1, backend=args.backend)

    list_registered_schemes()
    certify_planar_network(engine)
    certify_building_block(engine)
    reject_nonplanar_network(engine)


if __name__ == "__main__":
    main()
