"""Experiment drivers (E1-E10, one per claim of the paper they reproduce).

Every function returns a list of plain dictionaries (rows), so the
paper-claims ledger (``benchmarks/bench_paper.py``) can commit and gate the
tables and the tests can assert the qualitative claims (who wins, by what
kind of factor) without string parsing.  Runtime scaling (E8) is not a
claim of the paper; perfbench measures it.
"""

from __future__ import annotations

import math
import random
from typing import Any

from repro.adversary.attacks import random_certificate_attack, transplant_attack
from repro.analysis.fitting import fit_log_scaling
from repro.baselines.comparison import compare_schemes_on
from repro.core.path_outerplanar import random_path_outerplanar_graph
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.graphs.generators import (
    NONPLANAR_FAMILIES,
    PLANAR_FAMILIES,
    nonplanar_family,
    planar_family,
    planar_plus_random_edges,
    random_apollonian_network,
)
from repro.graphs.graph import Graph, Node
from repro.graphs.planarity import is_planar
from repro.lowerbound.counting import lower_bound_curve, minimum_certificate_bits

__all__ = [
    "certificate_size_scaling",
    "completeness_experiment",
    "soundness_experiment",
    "comparison_experiment",
    "lower_bound_table",
    "upper_vs_lower_bound_table",
]

#: engine shared by every driver in this module when the caller passes none;
#: caches of caller-owned networks are weakref-evicted, and the engine's own
#: network cache is a bounded LRU, so holding it at module level keeps at
#: most ``_NETWORK_CACHE_SIZE`` experiment graphs alive.
_SHARED_ENGINE = SimulationEngine()


def _engine_or_default(engine: SimulationEngine | None) -> SimulationEngine:
    return engine if engine is not None else _SHARED_ENGINE


# ----------------------------------------------------------------------
# E1: certificate size scaling
# ----------------------------------------------------------------------
def certificate_size_scaling(sizes: list[int] | None = None,
                             families: list[str] | None = None,
                             include_universal: bool = False,
                             seed: int = 0,
                             engine: SimulationEngine | None = None) -> list[dict[str, Any]]:
    """Measure certificate sizes of the planarity PLS across sizes and families.

    Each row reports the exact maximum and mean certificate size in bits, the
    value of ``log2(n)``, and the ratio ``max_bits / log2(n)`` whose
    boundedness is the measurable form of Theorem 1.
    """
    sizes = sizes or [16, 32, 64, 128, 256]
    families = families or ["apollonian", "delaunay", "random-planar", "grid", "tree"]
    engine = _engine_or_default(engine)
    registry = default_registry()
    scheme = registry.create("planarity-pls")
    universal = registry.create("universal-map-pls")
    rows: list[dict[str, Any]] = []
    for family in families:
        for n in sizes:
            graph = planar_family(family, n, seed=seed + n)
            result = engine.certify_and_verify(scheme, graph, seed=seed + n)
            actual_n = graph.number_of_nodes()
            row: dict[str, Any] = {
                "family": family,
                "n": actual_n,
                "m": graph.number_of_edges(),
                "max_bits": result.max_certificate_bits,
                "mean_bits": round(result.mean_certificate_bits, 1),
                "log2_n": round(math.log2(actual_n), 2),
                "max_bits_per_log_n": round(
                    result.max_certificate_bits / math.log2(max(actual_n, 2)), 1),
                "accepted": result.accepted,
            }
            if include_universal:
                universal_result = engine.certify_and_verify(universal, graph, seed=seed + n)
                row["universal_max_bits"] = universal_result.max_certificate_bits
            rows.append(row)
    return rows


def certificate_size_fit(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Fit the E1 rows against ``c * log2(n)`` and report the constant."""
    sizes = [row["n"] for row in rows]
    bits = [float(row["max_bits"]) for row in rows]
    fit = fit_log_scaling(sizes, bits)
    return {
        "slope_bits_per_log2n": round(fit.slope, 2),
        "intercept_bits": round(fit.intercept, 2),
        "r_squared": round(fit.r_squared, 4),
    }


__all__.append("certificate_size_fit")


# ----------------------------------------------------------------------
# E2: completeness
# ----------------------------------------------------------------------
def completeness_experiment(n: int = 60, trials_per_family: int = 3,
                            seed: int = 0,
                            engine: SimulationEngine | None = None,
                            scheme_name: str = "planarity-pls") -> list[dict[str, Any]]:
    """Run the honest prover + verifier over every planar family (acceptance must be 1.0)."""
    engine = _engine_or_default(engine)
    scheme = default_registry().create(scheme_name)
    rows = []
    for family in PLANAR_FAMILIES:
        accepted = 0
        for trial in range(trials_per_family):
            graph = planar_family(family, n, seed=seed + trial)
            result = engine.certify_and_verify(scheme, graph, seed=seed + trial)
            accepted += int(result.accepted)
        rows.append({
            "family": family,
            "trials": trials_per_family,
            "accepted": accepted,
            "acceptance_rate": accepted / trials_per_family,
        })
    return rows


# ----------------------------------------------------------------------
# E3: soundness under adversarial provers
# ----------------------------------------------------------------------
def _planar_twin(graph: Graph, seed: int) -> Graph:
    """Return a planar graph obtained by deleting edges of a non-planar graph."""
    twin = graph.copy()
    rng = random.Random(seed)
    edges = list(twin.edges())
    rng.shuffle(edges)
    for u, v in edges:
        if is_planar(twin):
            break
        twin.remove_edge(u, v)
        if not twin.is_connected():
            twin.add_edge(u, v)
    return twin


def soundness_experiment(n: int = 30, trials: int = 20, seed: int = 0,
                         engine: SimulationEngine | None = None,
                         scheme_name: str = "planarity-pls") -> list[dict[str, Any]]:
    """Attack the planarity verifier on non-planar inputs (no attack may fool all nodes)."""
    engine = _engine_or_default(engine)
    scheme = default_registry().create(scheme_name)
    rows = []
    for family in NONPLANAR_FAMILIES:
        graph = nonplanar_family(family, n, seed=seed)
        network = engine.network_for(graph, seed=seed)

        twin = _planar_twin(graph, seed)
        donor_network = engine.network_for(
            twin, ids={node: network.id_of(node) for node in twin.nodes()})
        donor_certificates = engine.certify(scheme, donor_network, cache=False)
        transplant = transplant_attack(scheme, network, donor_certificates,
                                       seed=seed, engine=engine)

        def factory(rng: random.Random, net: Network, node: Node) -> Any:
            donor_node = rng.choice(list(donor_certificates))
            return donor_certificates[donor_node]

        shuffled = random_certificate_attack(scheme, network, factory,
                                             trials=trials, seed=seed, engine=engine)
        rows.append({
            "family": family,
            "n": graph.number_of_nodes(),
            "transplant_accepting": transplant.best_accepting_nodes,
            "shuffle_accepting": shuffled.best_accepting_nodes,
            "total_nodes": network.size,
            "fooled": transplant.fooled or shuffled.fooled,
        })
    return rows


# ----------------------------------------------------------------------
# E5: scheme comparison
# ----------------------------------------------------------------------
def comparison_experiment(n: int = 40, seed: int = 0,
                          engine: SimulationEngine | None = None) -> list[dict[str, Any]]:
    """Compare Theorem 1 against the dMAM, universal, and Kuratowski baselines."""
    planar = random_apollonian_network(n, seed=seed)
    nonplanar = planar_plus_random_edges(max(7, n), seed=seed)
    rows = compare_schemes_on(planar, nonplanar, seed=seed,
                              engine=_engine_or_default(engine))
    return [row.as_dict() for row in rows]


# ----------------------------------------------------------------------
# E6 (counting side): lower bound vs upper bound
# ----------------------------------------------------------------------
def lower_bound_table(k: int = 5, p_values: list[int] | None = None) -> list[dict[str, Any]]:
    """Tabulate the pigeonhole lower bound of Lemma 5 for ``Forb(K_k)``."""
    p_values = p_values or [4, 8, 16, 32, 64, 128]
    return [{
        "k": point.k,
        "p": point.p,
        "n": point.n,
        "lower_bound_bits": point.min_bits_lower_bound,
        "log2_paths": point.log2_paths,
        "log2_labelings": point.log2_labelings_at_bound,
    } for point in lower_bound_curve(k, p_values)]


def upper_vs_lower_bound_table(sizes: list[int] | None = None,
                               seed: int = 0,
                               engine: SimulationEngine | None = None) -> list[dict[str, Any]]:
    """Put the Theorem 1 upper bound next to the Theorem 2 lower bound, per ``n``."""
    sizes = sizes or [24, 48, 96, 192]
    engine = _engine_or_default(engine)
    scheme = default_registry().create("planarity-pls")
    rows = []
    for n in sizes:
        graph = random_apollonian_network(n, seed=seed + n)
        result = engine.certify_and_verify(scheme, graph, seed=seed + n)
        p = max(2, n // 4 - 2)   # Forb(K5) blocks have 4 nodes each
        rows.append({
            "n": n,
            "upper_bound_max_bits": result.max_certificate_bits,
            "lower_bound_bits": minimum_certificate_bits(5, p),
            "log2_n": round(math.log2(n), 2),
        })
    return rows


# ----------------------------------------------------------------------
# E4/E9: the path-outerplanarity and non-planarity schemes
# ----------------------------------------------------------------------
def auxiliary_schemes_experiment(n: int = 60, seed: int = 0,
                                 engine: SimulationEngine | None = None) -> list[dict[str, Any]]:
    """Certificate sizes of the Lemma 2 scheme and the Kuratowski scheme."""
    engine = _engine_or_default(engine)
    registry = default_registry()
    rows = []
    graph, witness = random_path_outerplanar_graph(n, seed=seed)
    result = engine.certify_and_verify(
        registry.create("path-outerplanarity-pls", witness=witness), graph, seed=seed)
    rows.append({
        "scheme": "path-outerplanarity-pls",
        "n": graph.number_of_nodes(),
        "max_bits": result.max_certificate_bits,
        "accepted": result.accepted,
    })
    nonplanar = planar_plus_random_edges(max(7, n), seed=seed)
    result = engine.certify_and_verify(
        registry.create("non-planarity-pls"), nonplanar, seed=seed)
    rows.append({
        "scheme": "non-planarity-pls",
        "n": nonplanar.number_of_nodes(),
        "max_bits": result.max_certificate_bits,
        "accepted": result.accepted,
    })
    return rows


__all__.append("auxiliary_schemes_experiment")
