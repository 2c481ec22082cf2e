"""Scaling fits used to summarise the certificate-size experiments.

The measurable content of Theorem 1 / Theorem 2 is a scaling shape:
certificate sizes of the planarity scheme must grow like ``c * log2(n)``
(upper bound), while every locally checkable proof needs
``Omega(log n)`` bits (lower bound).  The helpers here perform the
least-squares fits (``log2(n)`` for certificate sizes, ``1/p`` for the
dMAM soundness error) and report the goodness of fit, so a report can state
"measured max certificate size = a*log2(n) + b with R^2 = ..." precisely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ScalingFit", "fit_log_scaling", "fit_inverse_scaling"]


@dataclass(frozen=True)
class ScalingFit:
    """Result of a least-squares fit ``y ~ slope * basis(n) + intercept``."""

    basis: str
    slope: float
    intercept: float
    r_squared: float


def _least_squares(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    n = len(xs)
    if n < 2:
        return 0.0, ys[0] if ys else 0.0, 1.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared


def fit_log_scaling(sizes: list[int], bits: list[float]) -> ScalingFit:
    """Fit ``bits ~ slope * log2(n) + intercept``."""
    xs = [math.log2(n) for n in sizes]
    slope, intercept, r_squared = _least_squares(xs, list(bits))
    return ScalingFit(basis="log2(n)", slope=slope, intercept=intercept, r_squared=r_squared)


def fit_inverse_scaling(primes: list[int], errors: list[float]) -> ScalingFit:
    """Fit ``error ~ slope / p + intercept`` (the dMAM soundness shape).

    The fingerprint-bound experiment varies the field size ``p`` holding
    the instance fixed; the measured per-draw error of the cheating prover
    must then scale like ``|roots| / p``, so the fitted slope approximates
    the number of fooling points and the intercept should sit near zero.
    """
    xs = [1.0 / p for p in primes]
    slope, intercept, r_squared = _least_squares(xs, list(errors))
    return ScalingFit(basis="1/p", slope=slope, intercept=intercept,
                      r_squared=r_squared)
