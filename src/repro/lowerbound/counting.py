"""The counting (pigeonhole) side of the Theorem 2 lower bounds.

Lemma 5 compares the number of *paths of blocks* (``p!`` — one per
permutation of the ordinary blocks) with the number of distinct ways to
label the blocks with ``g``-bit certificates (``2^{(k-1) g p}`` — each of the
``p`` ordinary blocks has ``k - 1`` nodes).  As soon as
``p! > 2^{(k-1) g p}``, two different paths receive identical labelled
blocks and the cut-and-paste of
:func:`repro.lowerbound.blocks.splice_cycle_from_paths` produces an accepted
illegal instance.  Solving for ``g`` gives the ``Omega(log n)`` certificate
lower bound; this module exposes those numbers so that the benchmark harness
can print the lower-bound curve next to the measured upper bound of
Theorem 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "log2_number_of_paths",
    "log2_number_of_labelings",
    "minimum_certificate_bits",
    "LowerBoundPoint",
    "lower_bound_curve",
]


def log2_number_of_paths(p: int) -> float:
    """Return ``log2(p!)``, the number of distinct paths of blocks."""
    return math.lgamma(p + 1) / math.log(2)


def log2_number_of_labelings(k: int, p: int, bits: int) -> float:
    """Return ``log2`` of the number of sets of ``bits``-bit labelled ordinary blocks."""
    return (k - 1) * bits * p


def minimum_certificate_bits(k: int, p: int) -> int:
    """Return the smallest per-node certificate size that escapes the pigeonhole.

    This is ``ceil(log2(p!) / ((k - 1) p))``, which grows as
    ``log2(p) / (k - 1) = Theta(log n)`` since ``n = (k - 1)(p + 2)``.
    """
    if p <= 1:
        return 0
    return math.ceil(log2_number_of_paths(p) / ((k - 1) * p))


@dataclass(frozen=True)
class LowerBoundPoint:
    """One row of the lower-bound table: instance size vs required bits."""

    k: int
    p: int
    n: int
    min_bits_lower_bound: int
    log2_paths: float
    log2_labelings_at_bound: float


def lower_bound_curve(k: int, p_values: list[int]) -> list[LowerBoundPoint]:
    """Return the lower-bound curve (required certificate bits vs ``n``) for ``Forb(K_k)``."""
    points = []
    for p in p_values:
        bits = minimum_certificate_bits(k, p)
        points.append(LowerBoundPoint(
            k=k,
            p=p,
            n=(k - 1) * (p + 2),
            min_bits_lower_bound=bits,
            log2_paths=round(log2_number_of_paths(p), 2),
            log2_labelings_at_bound=round(log2_number_of_labelings(k, p, bits), 2),
        ))
    return points
