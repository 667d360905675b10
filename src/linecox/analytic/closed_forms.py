"""Closed-form distance distributions.

Every function accepts a scalar t or an array of t values and returns the
matching shape. Distances are street distances (along lines, turning at
crossings) except for the planar Poisson reference, which is Euclidean.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NegativeIntensity, NonFinite
from ..model import ModelParams, _check_t, _finite_real

__all__ = [
    "cdf_naive_recursion",
    "cdf_one_turn_point",
    "cdf_zero_turn_intersection",
    "cdf_upper_intersection",
    "cdf_ppp2d_reference",
    "equivalent_ppp_density",
]


def _rate_times(rate, arr):
    """rate * t, which is 0 at t = 0 even for a rate that overflowed to
    inf (where inf * 0 would be nan), and inf where the product overflows;
    bit for bit rate * t elsewhere."""
    with np.errstate(over="ignore"):
        return np.where(arr > 0, rate, 0.0) * arr


def _ret(values, arr):
    """``values`` as a float where t was a scalar, that is where ``arr``,
    the checked t, is 0-d."""
    return float(values) if arr.ndim == 0 else values


def _ret_err(values, errors, arr, with_err):
    """``_ret`` for the quadrature curves, with their error estimates
    when ``with_err``."""
    values = _ret(values, arr)
    return (values, _ret(errors, arr)) if with_err else values


def cdf_naive_recursion(params: ModelParams, t):
    """Single-ray baseline: the distance to the nearest point in one fixed
    direction along the starting line, crossings ignored. Exponential(mu);
    independent of lambda. Kept as the sanity floor every other curve must
    beat."""
    arr = _check_t(t)
    return _ret(-np.expm1(-_rate_times(params.mu, arr)), arr)


_INV_EPS = 2.0**52  # 1 / machine epsilon of a double


def cdf_one_turn_point(params: ModelParams, t):
    """Shortest one-turn street distance from a typical point on a line.

    The path may run both ways along the own line and turn at most once at
    a crossing. Averaging the crossing count generating function over the
    crossing positions gives

        F(t) = 1 - exp(-2*mu*t - 2*lam*t + (lam/mu) * (1 - exp(-2*mu*t))).

    At lam = 0 this collapses to the own-line two-sided exponential
    1 - exp(-2*mu*t).

    Where lam/mu overflows, the exponent is taken in the rearranged form
    -x - 2*lam*t * (1 - (1 - exp(-x))/x), x = 2*mu*t, whose factors stay
    finite; at lam/mu -> inf with lam*mu fixed, F(t) -> 1 - exp(-2*lam*mu*t^2).
    The rearranged form also serves where lam/mu exceeds 1/eps while
    lam*mu stays below it: the printed form's two lam terms, each near
    2*lam*t, cancel there with an error near eps*2*lam*t, which can exceed
    the exponent's true size, 2*mu*t*(1 + lam*t), and flip the sign of F.
    """
    arr = _check_t(t)
    lam, mu = params.lam, params.mu
    two_mu_t = _rate_times(2.0 * mu, arr)
    ratio = lam / mu
    with np.errstate(over="ignore"):  # an exponent below -max is -inf: F = 1
        # lam*mu bounds the switch so that the printed form keeps its bits
        # wherever THM1_MD5 pins them, lam = 1e300 (lam*mu >= 1e294) included
        if math.isinf(ratio) or (ratio > _INV_EPS and lam * mu < _INV_EPS):
            expo = -two_mu_t - 2.0 * arr * (lam * _one_minus_mean_decay(two_mu_t))
        else:
            expo = -two_mu_t - _rate_times(2.0 * lam, arr) + ratio * (-np.expm1(-two_mu_t))
    return _ret(-np.expm1(expo), arr)


def _one_minus_mean_decay(x):
    """1 - (1 - exp(-x))/x for x >= 0, which is x/2 to first order: its
    Taylor series below x = 1e-3, where the direct form cancels, and 0 at
    x = 0. Always in [0, 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = 1.0 + np.expm1(-x) / x
    series = 0.5 * x * (1.0 - x / 3.0 * (1.0 - x / 4.0 * (1.0 - x / 5.0)))
    return np.where(x < 1e-3, series, direct)


def cdf_zero_turn_intersection(params: ModelParams, t):
    """Nearest point along either of the two streets of a typical
    intersection, no turns: four independent exponential rays,
    F(t) = 1 - exp(-4*mu*t). Also the lower sandwich bound for the one-turn
    intersection distribution."""
    arr = _check_t(t)
    return _ret(-np.expm1(-_rate_times(4.0 * params.mu, arr)), arr)


def cdf_upper_intersection(params: ModelParams, t):
    """Upper sandwich bound for the one-turn intersection distribution:
    pretend every crossing within reach carries a point immediately, which
    inflates the effective ray intensity to mu + 4*lam on each of the four
    rays, F(t) = 1 - exp(-4*(mu + 4*lam)*t)."""
    arr = _check_t(t)
    return _ret(-np.expm1(-_rate_times(4.0 * (params.mu + 4.0 * params.lam), arr)), arr)


def equivalent_ppp_density(params: ModelParams) -> float:
    """Points per unit area of the street point process: line length per
    unit area (pi*lam/2 under the crossing-rate convention) times mu. A
    planar Poisson process with this density is the natural Euclidean
    reference."""
    return math.pi * params.lam * params.mu / 2.0


def cdf_ppp2d_reference(density, t):
    """Euclidean nearest-neighbor CDF of a planar Poisson process with the
    given intensity (points per unit area): F(t) = 1 - exp(-pi*density*t^2).
    Reference curve for "does the street geometry matter" comparisons."""
    if not _finite_real(density):
        raise NonFinite(f"density must be finite, got {density!r}")
    if density < 0:
        raise NegativeIntensity(f"density must be >= 0, got {density}")
    density = float(density)
    arr = _check_t(t)
    with np.errstate(over="ignore"):  # pi*density*t^2 past the largest float: F = 1
        return _ret(-np.expm1(-_rate_times(math.pi * density, arr) * arr), arr)
