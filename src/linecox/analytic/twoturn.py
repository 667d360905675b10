"""Upper bound for the directed two-turn reachability distribution.

The path family: walk the positive direction of the home street, turn onto
a crossing street, turn once more, and look for a point on that third
street. Void-probability bookkeeping with the dependence between streets
dropped gives an upper bound on the CDF of the shortest such distance:

    B(t)  = 1 - exp(-lam * Int_0^t (2 - T(u)) du)
    T(u)  = exp(-lam * Int_0^u (2 - Ttilde(w, u)) dw)
    Ttilde(w, u) = (1/pi^2) * Int Int  exp(-mu * z)  dtheta_1 dtheta_i

where w and u are the arc positions of the two turns on the home street and
the angle integral runs over both street orientations. For angles whose
third street cannot re-enter the reach the target is unreachable and the
survival factor is 1 (z = 0); otherwise z = max(0, t - (y + w)) with the
signed entry offset y = (u - w) / (cos(theta_i) - sin(theta_i)*cot(theta_1)).

The angle integrand is only piecewise smooth: per theta_i row it jumps at
theta_1 = theta_i (y flips sign through infinity), kinks where the clamp
activates, and cuts off at the reachability threshold. The evaluator splits
every row at those three abscissae and applies Gauss-Legendre per piece, so
the tensor rule converges fast; plain Riemann sums over the same integrand
are used as the cross-check oracle in the tests.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ..errors import DomainError, QuadratureFailure
from ..model import ModelParams, validate
from ..quadrature import gauss_legendre, settle_ladder

__all__ = ["two_turn_T", "cdf_two_turn_bound"]

log = logging.getLogger(__name__)

_PI = math.pi
_HALF_PI = 0.5 * math.pi


def _ttilde_vec(w, u, t, mu, ni, n1):
    """Ttilde(w, u) for an array of w values at fixed u <= t.

    Rows with t == w have no reach left: survival 1.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    left = t - w
    safe = left > 0.0
    q = np.where(safe, (u - w) / np.where(safe, left, 1.0), 0.0)[:, None]

    # the theta_i rule is applied per half because the threshold formula
    # switches branch at pi/2 and a rule across the switch converges slowly
    tg, tw_half = gauss_legendre(ni // 2)
    sg, swt = gauss_legendre(n1)
    ti = np.concatenate([_HALF_PI * tg, _HALF_PI + _HALF_PI * tg])
    tw = np.concatenate([tw_half, tw_half]) * 0.5
    cos_i, sin_i = np.cos(ti), np.sin(ti)
    lower_half = ti <= _HALF_PI

    with np.errstate(divide="ignore", invalid="ignore"):
        thr_arg = np.where(lower_half, cos_i - q / sin_i, (q - cos_i) / sin_i)
    thr = _HALF_PI - np.arctan(thr_arg)  # arccot, mapped into (0, pi)
    A = np.where(lower_half, 0.0, thr)
    B = np.where(lower_half, thr, _PI)

    # interior breakpoints: the y pole at theta_1 = theta_i and the clamp
    # kink where y + w = t, i.e. cot(theta_1) = (cos(theta_i) - q)/sin(theta_i)
    kink = _HALF_PI - np.arctan((cos_i - q) / sin_i)
    pole = np.broadcast_to(ti, kink.shape)
    s1 = np.clip(np.minimum(pole, kink), A, B)
    s2 = np.clip(np.maximum(pole, kink), A, B)

    lo = np.stack([A, s1, s2], axis=-1)  # (nw, ni, 3)
    hi = np.stack([s1, s2, B], axis=-1)
    width = hi - lo
    th1 = lo[..., None] + width[..., None] * sg  # (nw, ni, 3, n1)

    with np.errstate(divide="ignore", invalid="ignore"):
        cot1 = np.cos(th1) / np.sin(th1)
        den = cos_i[None, :, None, None] - sin_i[None, :, None, None] * cot1
        y = (u - w)[:, None, None, None] / den
    y = np.where(np.isnan(y), 0.0, y)  # 0/0 only when u == w; the limit is 0
    z = np.maximum(left[:, None, None, None] - y, 0.0)
    g = np.exp(-mu * z)

    seg = (g * swt).sum(axis=-1) * width  # (nw, ni, 3)
    rows = seg.sum(axis=-1) + (_PI - (B - A))  # unreachable angles survive as 1
    val = (rows * tw).sum(axis=-1) * _PI / _PI**2
    return np.where(safe, val, 1.0)


def _T_of_u(u, t, mu, lam, nw, ni, n1):
    """Survival factor of one first-turn street entered at arc u."""
    if u <= 0.0:
        return 1.0
    g, wt = gauss_legendre(nw)
    tt = _ttilde_vec(u * g, u, t, mu, ni, n1)
    return math.exp(-lam * u * float(((2.0 - tt) * wt).sum()))


def _bound_eval(lam, mu, t, nu, nw, ni, n1):
    g, wt = gauss_legendre(nu)
    u_nodes = t * g
    tu = np.array([_T_of_u(float(uv), t, mu, lam, nw, ni, n1) for uv in u_nodes])
    return -math.expm1(-lam * t * float(((2.0 - tu) * wt).sum()))


# the last rungs are only reached near w = u = t corners, where the
# threshold develops a boundary layer of width (u-w)/(t-w) at the ends
# of the theta_i range
_T_LADDER = ((96, 16), (192, 32), (384, 64), (768, 128), (1536, 256),
             (3072, 512))
_B_LADDER = ((20, 20, 64, 16), (32, 32, 96, 24), (48, 48, 128, 32))


def two_turn_T(w: float, u: float, t: float, params: ModelParams,
               tol: float = 1e-6) -> float:
    """Normalized survival kernel Ttilde(w, u) in [0, 1]: the chance that a
    random-orientation third street entered from the first-turn street
    between arcs w and u carries no point within the remaining reach,
    unreachable orientations counting as survival 1.

    Near-parallel orientations are integrable limits and are folded in by
    continuity rather than raised.
    """
    validate(params)
    if not (0.0 <= w <= u <= t) or not math.isfinite(t):
        raise DomainError(f"need 0 <= w <= u <= t finite, got w={w}, u={u}, t={t}")
    prev = None
    for ni, n1 in _T_LADDER:
        cur = float(_ttilde_vec(np.array([w]), u, t, params.mu, ni, n1)[0])
        if prev is not None and abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise QuadratureFailure(
        f"Ttilde did not settle to {tol} at w={w}, u={u}, t={t}",
        value=cur, error_estimate=abs(cur - prev))


def cdf_two_turn_bound(params: ModelParams, t, tol: float = 1e-5,
                       with_err: bool = False):
    """Upper bound B(t) for the directed exactly-two-turn distance CDF.

    Scalar or array t. Resolution ladder as in the one-turn intersection
    evaluator; QuadratureFailure when three levels cannot agree to tol.
    B(0) = 0 and lam = 0 gives identically 0 (no streets to turn onto).
    ``with_err`` additionally returns the last ladder increment.
    """
    validate(params)
    arr = np.asarray(t, dtype=float)
    scalar = np.isscalar(t) or getattr(t, "ndim", 0) == 0
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise DomainError("t must be finite and >= 0")
    lam, mu = params.lam, params.mu

    def rung(r, tv):
        return np.array([_bound_eval(lam, mu, float(v), *_B_LADDER[r]) for v in tv])

    flat = arr.reshape(-1)
    values, errors = np.zeros(flat.size), np.zeros(flat.size)
    pos = flat > 0.0 if lam != 0.0 else np.zeros(flat.size, dtype=bool)
    values[pos], errors[pos] = settle_ladder(
        rung, len(_B_LADDER), flat[pos], tol,
        lambda tv: f"two-turn bound did not settle to {tol} at t={tv}",
        log, "two-turn bound")
    if scalar:
        return (float(values[0]), float(errors[0])) if with_err else float(values[0])
    values = values.reshape(arr.shape)
    if with_err:
        return values, errors.reshape(arr.shape)
    return values
