"""Tests for Definition 1 machinery and the Lemma 2 scheme (Algorithm 1)."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.building_blocks import hamiltonian_path_labels
from repro.core.path_outerplanar import (
    compute_covering_intervals,
    find_crossing_pair,
    find_path_outerplanar_witness,
    intervals_cross,
    is_path_outerplanar_witness,
    random_path_outerplanar_graph,
)
from repro.core.po_scheme import PathOuterplanarLabel, PathOuterplanarScheme, algorithm1_check
from repro.distributed.network import Network
from repro.distributed.verifier import certify_and_verify, run_verification
from repro.exceptions import GraphError, NotInClassError
from repro.graphs.generators import complete_bipartite_graph, complete_graph, cycle_graph, path_graph


# ----------------------------------------------------------------------
# Definition 1: crossing structure
# ----------------------------------------------------------------------
class TestCrossing:
    def test_intervals_cross_basic(self):
        assert intervals_cross((1, 3), (2, 4))
        assert intervals_cross((2, 4), (1, 3))
        assert not intervals_cross((1, 4), (2, 3))      # nested
        assert not intervals_cross((1, 2), (3, 4))      # disjoint
        assert not intervals_cross((1, 3), (3, 5))      # touching
        assert not intervals_cross((1, 5), (1, 3))      # shared left endpoint
        assert not intervals_cross((2, 5), (4, 5))      # shared right endpoint

    def test_find_crossing_pair(self):
        assert find_crossing_pair([(1, 3), (2, 4)]) is not None
        assert find_crossing_pair([(1, 4), (2, 3), (5, 8), (6, 7)]) is None
        assert find_crossing_pair([]) is None

    def test_degenerate_chord_rejected(self):
        with pytest.raises(GraphError):
            find_crossing_pair([(2, 2)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 15), st.integers(1, 15)), max_size=12))
    def test_sweep_matches_naive(self, raw):
        """Property: the O(m log m) sweep agrees with the quadratic pairwise check."""
        chords = [(min(a, b), max(a, b)) for a, b in raw if abs(a - b) >= 1]
        naive = any(intervals_cross(c1, c2)
                    for i, c1 in enumerate(chords) for c2 in chords[i + 1:])
        assert (find_crossing_pair(chords) is not None) == naive


class TestWitness:
    def test_generated_graphs_have_valid_witness(self):
        for seed in range(5):
            graph, witness = random_path_outerplanar_graph(20, seed=seed)
            assert is_path_outerplanar_witness(graph, witness)

    def test_witness_rejects_crossings(self):
        graph = path_graph(5)
        graph.add_edge(0, 2)
        graph.add_edge(1, 3)
        assert not is_path_outerplanar_witness(graph, [0, 1, 2, 3, 4])

    def test_witness_rejects_non_hamiltonian_orders(self):
        graph = path_graph(4)
        assert not is_path_outerplanar_witness(graph, [0, 2, 1, 3])
        assert not is_path_outerplanar_witness(graph, [0, 1, 2])

    def test_find_witness_small_graphs(self):
        assert find_path_outerplanar_witness(cycle_graph(5)) is not None
        assert find_path_outerplanar_witness(complete_bipartite_graph(1, 3),
                                             raise_on_failure=False) is None
        # K4 has a Hamiltonian path but its chords always cross
        assert find_path_outerplanar_witness(complete_graph(4),
                                             raise_on_failure=False) is None

    def test_large_graph_without_witness_raises(self):
        graph, _ = random_path_outerplanar_graph(30, seed=1)
        shuffled = graph.relabeled({i: (i * 7) % 30 for i in range(30)})
        with pytest.raises(GraphError):
            find_path_outerplanar_witness(shuffled)


class TestIntervals:
    def test_no_chords_gives_sentinel(self):
        intervals = compute_covering_intervals(5, [])
        assert all(intervals[x] == (0, 6) for x in range(1, 6))

    def test_innermost_interval_selected(self):
        chords = [(1, 6), (2, 5), (3, 5)]
        intervals = compute_covering_intervals(6, chords)
        assert intervals[4] == (3, 5)
        assert intervals[3] == (2, 5)
        assert intervals[2] == (1, 6)
        assert intervals[1] == (0, 7)
        assert intervals[5] == (1, 6)

    def test_path_edges_ignored(self):
        intervals = compute_covering_intervals(4, [(1, 2), (2, 3)])
        assert intervals[2] == (0, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 25), st.integers(0, 10 ** 6))
    def test_sweep_equals_naive_on_laminar_families(self, n, seed):
        """Property: on laminar chords the linear sweep equals the brute-force scan."""
        graph, witness = random_path_outerplanar_graph(n, seed=seed)
        rank = {node: i + 1 for i, node in enumerate(witness)}
        chords = [(rank[u], rank[v]) for u, v in graph.edges()]
        fast = compute_covering_intervals(n, chords, assume_laminar=True)
        slow = compute_covering_intervals(n, chords, assume_laminar=False)
        assert fast == slow


# ----------------------------------------------------------------------
# Algorithm 1 / the Lemma 2 scheme
# ----------------------------------------------------------------------
def _honest_interval_data(graph, witness):
    rank = {node: i + 1 for i, node in enumerate(witness)}
    n = len(witness)
    chords = [(rank[u], rank[v]) for u, v in graph.edges()]
    intervals = compute_covering_intervals(n, chords)
    return rank, intervals


class TestAlgorithm1:
    def test_accepts_honest_intervals_everywhere(self):
        for seed in range(6):
            graph, witness = random_path_outerplanar_graph(18, seed=seed)
            rank, intervals = _honest_interval_data(graph, witness)
            n = len(witness)
            for node in witness:
                neighbor_intervals = {rank[nb]: intervals[rank[nb]]
                                      for nb in graph.neighbors(node)}
                assert algorithm1_check(rank[node], n, intervals[rank[node]],
                                        neighbor_intervals), (seed, node)

    def test_rejects_rank_out_of_range(self):
        assert not algorithm1_check(0, 5, (0, 6), {1: (0, 6)})
        assert not algorithm1_check(6, 5, (0, 6), {5: (0, 6)})

    def test_rejects_missing_path_neighbor(self):
        # rank 3 of 5 but no neighbor of rank 2
        assert not algorithm1_check(3, 5, (0, 6), {4: (0, 6)})

    def test_rejects_interval_not_covering(self):
        graph, witness = random_path_outerplanar_graph(12, chord_count=4, seed=3)
        rank, intervals = _honest_interval_data(graph, witness)
        node = witness[5]
        neighbor_intervals = {rank[nb]: intervals[rank[nb]] for nb in graph.neighbors(node)}
        bad = (rank[node], rank[node] + 2)   # does not satisfy a < x
        assert not algorithm1_check(rank[node], 12, bad, neighbor_intervals)

    def test_rejects_neighbor_outside_interval(self):
        graph = path_graph(6)
        graph.add_edge(0, 5)
        graph.add_edge(1, 4)
        rank, intervals = _honest_interval_data(graph, list(range(6)))
        # node 2 (rank 3) lies under chord (2,5); claim a smaller interval instead
        neighbor_intervals = {rank[nb]: intervals[rank[nb]] for nb in graph.neighbors(2)}
        assert not algorithm1_check(3, 6, (3, 5), neighbor_intervals)


class TestPathOuterplanarScheme:
    def test_completeness(self):
        for seed, n in [(0, 6), (1, 15), (2, 30), (3, 60)]:
            graph, witness = random_path_outerplanar_graph(n, seed=seed)
            scheme = PathOuterplanarScheme(witness=witness)
            result = certify_and_verify(scheme, graph, seed=seed)
            assert result.accepted
            assert result.max_certificate_bits < 40 * 8   # a handful of O(log n) fields

    def test_completeness_with_witness_search(self):
        result = certify_and_verify(PathOuterplanarScheme(), cycle_graph(7), seed=1)
        assert result.accepted

    def test_prover_rejects_non_members(self):
        with pytest.raises(NotInClassError):
            certify_and_verify(PathOuterplanarScheme(witness=[0, 1, 2, 3]),
                               complete_graph(4), seed=1)

    def test_soundness_against_transplanted_certificates(self):
        """Move certificates from a path-outerplanar donor onto a crossing graph."""
        donor, witness = random_path_outerplanar_graph(10, chord_count=0, seed=4)
        scheme = PathOuterplanarScheme(witness=witness)
        donor_network = Network(donor, seed=4)
        donor_certs = scheme.prove(donor_network)
        crossing = donor.copy()
        crossing.add_edge(0, 4)
        crossing.add_edge(2, 7)   # (1,5) and (3,8) as ranks: they cross
        network = Network(crossing, ids={node: donor_network.id_of(node)
                                         for node in crossing.nodes()})
        result = run_verification(scheme, network, donor_certs)
        assert not result.accepted

    def test_soundness_random_attack_on_k4(self):
        scheme = PathOuterplanarScheme()
        network = Network(complete_graph(4), seed=5)
        rng = random.Random(0)
        ids = network.ids()
        fooled = False
        for _ in range(200):
            labels = {}
            for node in network.nodes():
                path = hamiltonian_path_labels(network, list(network.nodes()))[node]
                labels[node] = PathOuterplanarLabel(
                    path=dataclasses.replace(path, rank=rng.randint(1, 4),
                                             root_id=rng.choice(ids)),
                    interval=(rng.randint(0, 3), rng.randint(2, 5)),
                )
            if run_verification(scheme, network, labels).accepted:
                fooled = True
                break
        assert not fooled

    def test_certificate_encoding_round_trip_size(self):
        graph, witness = random_path_outerplanar_graph(40, seed=6)
        scheme = PathOuterplanarScheme(witness=witness)
        network = Network(graph, seed=6)
        certificates = scheme.prove(network)
        sizes = [certificate.size_bits() for certificate in certificates.values()]
        assert max(sizes) < 200
        assert min(sizes) > 0

    def test_verify_rejects_foreign_certificate_types(self):
        graph, witness = random_path_outerplanar_graph(8, seed=7)
        scheme = PathOuterplanarScheme(witness=witness)
        network = Network(graph, seed=7)
        certificates = {node: "garbage" for node in network.nodes()}
        assert not run_verification(scheme, network, certificates).accepted


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 40), st.integers(0, 10 ** 6))
def test_scheme_completeness_property(n, seed):
    """Property: the Lemma 2 scheme accepts every generated path-outerplanar graph."""
    graph, witness = random_path_outerplanar_graph(n, seed=seed)
    scheme = PathOuterplanarScheme(witness=witness)
    assert certify_and_verify(scheme, graph, seed=seed).accepted
