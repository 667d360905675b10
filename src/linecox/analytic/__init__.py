"""Analytic distance distributions and bounds.

Closed forms live in ``closed_forms``; the quadrature-backed one-turn
distribution seen from a typical intersection in ``intersection``; the
directed two-turn upper bound in ``twoturn``. Every curve checks its t
with ``model._check_t``.
"""

from .closed_forms import (
    cdf_naive_recursion,
    cdf_one_turn_point,
    cdf_ppp2d_reference,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
    equivalent_ppp_density,
)
from .intersection import (
    DEFAULT_VARIANT,
    angle_thresholds,
    cdf_one_turn_intersection,
    one_turn_intersection_terms,
    z_length,
)
from .twoturn import cdf_two_turn_bound, two_turn_T

__all__ = [
    "cdf_naive_recursion",
    "cdf_one_turn_point",
    "cdf_zero_turn_intersection",
    "cdf_upper_intersection",
    "cdf_ppp2d_reference",
    "equivalent_ppp_density",
    "DEFAULT_VARIANT",
    "angle_thresholds",
    "z_length",
    "cdf_one_turn_intersection",
    "one_turn_intersection_terms",
    "cdf_two_turn_bound",
    "two_turn_T",
]
