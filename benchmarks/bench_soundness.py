"""E3 — soundness: adversarial provers never convince every node of a non-planar network."""

from __future__ import annotations

from conftest import emit

from repro.adversary.attacks import transplant_attack
from repro.analysis.experiments import soundness_experiment
from repro.distributed.engine import SimulationEngine
from repro.distributed.registry import default_registry
from repro.graphs.generators import planar_plus_random_edges
from repro.graphs.planarity import is_planar


def test_soundness_table(benchmark):
    """Regenerate the E3 attack table; benchmark one transplant attack."""
    engine = SimulationEngine(seed=9)
    rows = soundness_experiment(n=24, trials=10, engine=engine)
    emit(rows, "E3: best adversarial prover results on non-planar inputs")
    assert all(not row["fooled"] for row in rows)

    graph = planar_plus_random_edges(30, extra_edges=2, seed=9)
    scheme = default_registry().create("planarity-pls")
    network = engine.network_for(graph, seed=9)
    twin = graph.copy()
    for u, v in list(twin.edges()):
        if is_planar(twin):
            break
        twin.remove_edge(u, v)
        if not twin.is_connected():
            twin.add_edge(u, v)
    donor_network = engine.network_for(
        twin, ids={node: network.id_of(node) for node in twin.nodes()})
    donor = scheme.prove(donor_network)

    def attack():
        return transplant_attack(scheme, network, donor, engine=engine).fooled

    assert benchmark(attack) is False
