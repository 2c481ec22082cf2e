"""Lower-bound constructions of Theorem 2 (paths/cycles of blocks, glued bipartite instances)."""

from repro.lowerbound.blocks import (
    BlockInstance,
    block_node_ids,
    build_cycle_of_blocks,
    build_path_of_blocks,
    clique_minor_model_in_cycle,
    splice_cycle_from_paths,
)
from repro.lowerbound.bipartite_instances import (
    IdentifierPartition,
    bipartite_minor_model_in_glued,
    build_glued_instance,
    build_legal_instance,
    legal_instances_used_by_glued,
    make_identifier_partition,
)
from repro.lowerbound.counting import (
    LowerBoundPoint,
    log2_number_of_labelings,
    log2_number_of_paths,
    lower_bound_curve,
    minimum_certificate_bits,
)
from repro.lowerbound.indistinguishability import (
    ViewSignature,
    all_views,
    illegal_views_covered_by_legal,
    view_signature,
)

__all__ = [
    "BlockInstance",
    "block_node_ids",
    "build_cycle_of_blocks",
    "build_path_of_blocks",
    "clique_minor_model_in_cycle",
    "splice_cycle_from_paths",
    "IdentifierPartition",
    "bipartite_minor_model_in_glued",
    "build_glued_instance",
    "build_legal_instance",
    "legal_instances_used_by_glued",
    "make_identifier_partition",
    "LowerBoundPoint",
    "log2_number_of_labelings",
    "log2_number_of_paths",
    "lower_bound_curve",
    "minimum_certificate_bits",
    "ViewSignature",
    "all_views",
    "illegal_views_covered_by_legal",
    "view_signature",
]
