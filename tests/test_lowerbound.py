"""Tests for the Theorem 2 lower-bound constructions (Lemmas 5 and 6)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graphs.minors import (
    is_k4_minor_free,
    verify_bipartite_minor_model,
    verify_clique_minor_model,
)
from repro.graphs.planarity import is_planar
from repro.graphs.validation import is_outerplanar
from repro.lowerbound.bipartite_instances import (
    bipartite_minor_model_in_glued,
    build_glued_instance,
    build_legal_instance,
    legal_instances_used_by_glued,
    make_identifier_partition,
)
from repro.lowerbound.blocks import (
    block_node_ids,
    build_cycle_of_blocks,
    build_path_of_blocks,
    clique_minor_model_in_cycle,
    splice_cycle_from_paths,
)
from repro.lowerbound.counting import (
    log2_number_of_labelings,
    log2_number_of_paths,
    lower_bound_curve,
    minimum_certificate_bits,
)
from repro.lowerbound.indistinguishability import (
    all_views,
    illegal_views_covered_by_legal,
    view_signature,
)


# ----------------------------------------------------------------------
# Lemma 5: blocks
# ----------------------------------------------------------------------
class TestBlocks:
    def test_block_node_ids(self):
        assert block_node_ids(4, 0) == [0, 1, 2]
        assert block_node_ids(4, 2) == [6, 7, 8]
        assert block_node_ids(6, 1) == [5, 6, 7, 8, 9]

    def test_path_of_blocks_size_and_structure(self):
        for k in (4, 5, 6):
            instance = build_path_of_blocks(k, p=4)
            assert instance.number_of_nodes == (k - 1) * 6
            assert instance.graph.is_connected()
            # each block is a clique on k-1 nodes
            ids = instance.nodes_of_block(2)
            assert all(instance.graph.has_edge(u, v)
                       for i, u in enumerate(ids) for v in ids[i + 1:])

    def test_path_of_blocks_permutation_validation(self):
        build_path_of_blocks(4, 3, permutation=[2, 1, 3])
        with pytest.raises(GraphError):
            build_path_of_blocks(4, 3, permutation=[1, 1, 2])
        with pytest.raises(GraphError):
            build_path_of_blocks(2, 3)
        with pytest.raises(GraphError):
            build_path_of_blocks(4, 0)

    def test_paths_of_blocks_are_k4_minor_free(self):
        """Claim 7 for k = 4, verified with the exact series-parallel reduction."""
        for permutation in ([1, 2, 3], [3, 1, 2], [2, 3, 1]):
            instance = build_path_of_blocks(4, 3, permutation=permutation)
            assert is_k4_minor_free(instance.graph)

    def test_paths_of_blocks_for_k5_are_planar_hence_k5_minor_free(self):
        """Claim 7 for k = 5: the instances happen to be planar, so K5-free."""
        for p in (2, 3, 5):
            instance = build_path_of_blocks(5, p)
            assert is_planar(instance.graph)

    def test_cycles_of_blocks_have_clique_minor(self):
        """Claim 8: the explicit minor model of a cycle of blocks verifies."""
        for k in (4, 5, 6):
            instance = build_cycle_of_blocks(k, [1, 2, 3])
            model = clique_minor_model_in_cycle(instance)
            assert len(model) == k
            assert verify_clique_minor_model(instance.graph, model)

    def test_minor_model_keeps_the_first_block_as_singletons(self):
        """Claim 8's model: the first block's k - 1 nodes stay singletons and
        the rest of the cycle is the k-th branch set."""
        instance = build_cycle_of_blocks(5, [2, 1, 3])
        model = clique_minor_model_in_cycle(instance)
        first = instance.nodes_of_block(2)
        assert model[:-1] == [{node} for node in sorted(first)]
        assert model[-1] == set(instance.graph.nodes()) - set(first)

    def test_cycle_validation(self):
        with pytest.raises(GraphError):
            build_cycle_of_blocks(4, [1])
        with pytest.raises(GraphError):
            build_cycle_of_blocks(4, [1, 1])
        instance = build_path_of_blocks(4, 3)
        with pytest.raises(GraphError):
            clique_minor_model_in_cycle(instance)

    def test_splice_produces_an_illegal_instance(self):
        """The cut-and-paste of Lemma 5 yields a cycle containing K_k as a minor."""
        cycle = splice_cycle_from_paths(5, 6, other_permutation=[1, 2, 5, 4, 3, 6])
        assert cycle.is_cycle
        model = clique_minor_model_in_cycle(cycle)
        assert verify_clique_minor_model(cycle.graph, model)

    def test_splice_requires_a_descent(self):
        with pytest.raises(GraphError):
            splice_cycle_from_paths(5, 4, other_permutation=[1, 2, 3, 4])
        with pytest.raises(GraphError):
            splice_cycle_from_paths(5, 4, other_permutation=[1, 2, 3])

    def test_splice_views_covered_by_the_two_paths(self):
        """Key step of Lemma 5: every node of the spliced cycle has a view that
        already occurs (same identifiers, same per-node certificates) in one of
        the two accepted paths of blocks."""
        k, p = 5, 6
        other = [2, 1, 4, 3, 6, 5]
        identity_path = build_path_of_blocks(k, p)
        other_path = build_path_of_blocks(k, p, permutation=other)
        cycle = splice_cycle_from_paths(k, p, other_permutation=other)
        # certificates may depend only on the labelled blocks, i.e. on the node id
        labeling = {node: ("cert", node % (k - 1)) for node in identity_path.graph.nodes()}
        covered, uncovered = illegal_views_covered_by_legal(
            cycle.graph, [identity_path.graph, other_path.graph], labeling)
        assert covered, uncovered

    def test_block_membership_errors(self):
        instance = build_path_of_blocks(4, 3)
        with pytest.raises(GraphError):
            instance.nodes_of_block(9)


# ----------------------------------------------------------------------
# Lemma 6: glued bipartite instances
# ----------------------------------------------------------------------
class TestBipartiteInstances:
    def test_partition_shapes(self):
        partition = make_identifier_partition(n=24, q=3)
        assert len(partition.a_sets) == 3 and len(partition.b_sets) == 3
        assert partition.d == 4
        all_ids = [i for group in partition.a_sets + partition.b_sets for i in group]
        assert len(all_ids) == len(set(all_ids))
        with pytest.raises(GraphError):
            make_identifier_partition(n=10, q=3)

    def test_legal_instances_are_outerplanar(self):
        partition = make_identifier_partition(n=24, q=3)
        for instance in legal_instances_used_by_glued(partition):
            assert is_outerplanar(instance)
            assert not instance.is_connected() or True  # two paths: may be connected via rungs

    def test_legal_instance_structure(self):
        instance = build_legal_instance(list(range(10)), list(range(100, 112)), q=2, d=3)
        # two paths plus two rungs
        assert instance.number_of_edges() == 9 + 11 + 2
        with pytest.raises(GraphError):
            build_legal_instance(list(range(4)), list(range(100, 104)), q=3, d=2)

    def test_glued_instance_has_kqq_minor(self):
        partition = make_identifier_partition(n=24, q=3)
        glued = build_glued_instance(partition)
        side_a, side_b = bipartite_minor_model_in_glued(partition)
        assert verify_bipartite_minor_model(glued, side_a, side_b)

    def test_glued_instance_not_outerplanar(self):
        partition = make_identifier_partition(n=24, q=3)
        assert not is_outerplanar(build_glued_instance(partition))

    def test_glued_views_covered_by_legal_instances(self):
        """Key step of Lemma 6: the glued instance is locally indistinguishable
        from the accepted legal instances when certificates depend on identifiers."""
        partition = make_identifier_partition(n=30, q=3)
        glued = build_glued_instance(partition)
        legal = legal_instances_used_by_glued(partition)
        labeling = {node: ("cert", node) for node in glued.nodes()}
        covered, uncovered = illegal_views_covered_by_legal(glued, legal, labeling)
        assert covered, uncovered

    def test_small_q_2(self):
        partition = make_identifier_partition(n=16, q=2)
        glued = build_glued_instance(partition)
        side_a, side_b = bipartite_minor_model_in_glued(partition)
        assert verify_bipartite_minor_model(glued, side_a, side_b)


# ----------------------------------------------------------------------
# the counting / pigeonhole side
# ----------------------------------------------------------------------
class TestCounting:
    def test_log_factorial(self):
        assert abs(log2_number_of_paths(5) - math.log2(120)) < 1e-9
        assert log2_number_of_labelings(5, 10, 3) == 4 * 3 * 10

    @staticmethod
    def pigeonhole_applies(k: int, p: int, bits: int) -> bool:
        """Lemma 5's condition: more paths of blocks than ``bits``-bit labelings,
        so two distinct paths receive identical labelled blocks."""
        return log2_number_of_paths(p) > log2_number_of_labelings(k, p, bits)

    def test_pigeonhole_threshold_behaviour(self):
        # 0-bit certificates are fooled as soon as there are two permutations
        assert self.pigeonhole_applies(5, 3, 0)
        # enough bits always escape the pigeonhole
        assert not self.pigeonhole_applies(5, 8, 64)

    def test_minimum_bits_grows_logarithmically(self):
        small = minimum_certificate_bits(5, 8)
        large = minimum_certificate_bits(5, 8192)
        assert large > small
        # Theta(log p) growth: doubling p ten times adds roughly 10/(k-1) bits
        assert large - small <= 10
        assert minimum_certificate_bits(5, 1) == 0

    def test_fooled_certificate_size_is_sublogarithmic(self):
        """For every p, certificates below the bound are fooled, at the bound they are not."""
        for p in (8, 64, 512):
            bound = minimum_certificate_bits(5, p)
            assert not self.pigeonhole_applies(5, p, bound)
            if bound > 0:
                assert self.pigeonhole_applies(5, p, bound - 1)

    def test_lower_bound_curve_rows(self):
        points = lower_bound_curve(5, [4, 16, 64])
        assert [point.p for point in points] == [4, 16, 64]
        assert all(point.n == 4 * (point.p + 2) for point in points)
        assert points[-1].min_bits_lower_bound >= points[0].min_bits_lower_bound


# ----------------------------------------------------------------------
# view signatures
# ----------------------------------------------------------------------
class TestViews:
    def test_same_view_same_signature(self):
        first = build_path_of_blocks(4, 3).graph
        second = build_path_of_blocks(4, 3).graph
        assert view_signature(first, 5) == view_signature(second, 5)

    def test_label_changes_signature(self):
        graph = build_path_of_blocks(4, 3).graph
        assert view_signature(graph, 5, {5: "a"}) != view_signature(graph, 5, {5: "b"})

    def test_all_views_count(self):
        graph = build_path_of_blocks(4, 2).graph
        assert len(all_views(graph)) == graph.number_of_nodes()

    def test_uncovered_nodes_reported(self):
        path = build_path_of_blocks(4, 3).graph
        cycle = build_cycle_of_blocks(4, [1, 2, 3]).graph
        covered, uncovered = illegal_views_covered_by_legal(cycle, [path])
        # without the second path, the nodes on the closing connection differ
        assert not covered
        assert uncovered


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 6), st.integers(2, 6), st.integers(0, 10 ** 6))
def test_splice_property(k, p, seed):
    """Property: for any non-identity permutation the splice is covered by the two paths."""
    rng = random.Random(seed)
    permutation = list(range(1, p + 1))
    rng.shuffle(permutation)
    if permutation == sorted(permutation):
        permutation[0], permutation[1] = permutation[1], permutation[0]
    identity_path = build_path_of_blocks(k, p)
    other_path = build_path_of_blocks(k, p, permutation=permutation)
    cycle = splice_cycle_from_paths(k, p, other_permutation=permutation)
    labeling = {node: node % (k - 1) for node in identity_path.graph.nodes()}
    covered, uncovered = illegal_views_covered_by_legal(
        cycle.graph, [identity_path.graph, other_path.graph], labeling)
    assert covered, uncovered
    assert verify_clique_minor_model(cycle.graph, clique_minor_model_in_cycle(cycle))
