"""E1 — certificate-size scaling of the Theorem 1 scheme (vs log2 n, vs the universal map).

Prints the certificate-size table (experiment E1) and times the honest
prover, which is the operation whose output the table measures.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis.experiments import certificate_size_fit, certificate_size_scaling
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.distributed.verifier import certificate_statistics
from repro.graphs.generators import delaunay_planar_graph, random_apollonian_network

SIZES = [16, 32, 64, 128, 256]
FAMILIES = ["apollonian", "delaunay", "grid", "tree"]


def test_certificate_size_table(benchmark):
    """Regenerate the E1 table; benchmark measuring one prover run at n=128."""
    rows = certificate_size_scaling(sizes=SIZES, families=FAMILIES,
                                    include_universal=False,
                                    engine=SimulationEngine(seed=128))
    fit = certificate_size_fit(rows)
    emit(rows, "E1: planarity-pls certificate size vs n")
    emit([fit], "E1: least-squares fit max_bits ~ a*log2(n) + b")
    assert all(row["accepted"] for row in rows)

    graph = random_apollonian_network(128, seed=128)
    network = Network(graph, seed=128)
    scheme = default_registry().create("planarity-pls")

    def prove_and_measure():
        certificates = scheme.prove(network)
        return max(certificate_statistics(certificates).values())

    max_bits = benchmark(prove_and_measure)
    assert max_bits > 0


def test_certificate_size_large_instance(benchmark):
    """Prover + size accounting on a larger Delaunay instance (n = 600)."""
    graph = delaunay_planar_graph(600, seed=7)
    network = Network(graph, seed=7)
    scheme = default_registry().create("planarity-pls")

    def prove():
        return scheme.prove(network)

    certificates = benchmark(prove)
    sizes = certificate_statistics(certificates)
    emit([{"n": 600, "max_bits": max(sizes.values()),
           "mean_bits": round(sum(sizes.values()) / len(sizes), 1)}],
         "E1: large Delaunay instance")
