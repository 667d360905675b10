"""One-turn street distance from a typical intersection.

Conditioned on the crossing angle omega of the two origin streets, the
distribution has the form

    F(t) = 1 - exp(-4*mu*t - 2*lam*(2*t - Tx - Ty))

where Tx and Ty are mean effective "shadowing times": angle and position
averages of exp(-mu * Z(x, omega1, omega, t)), Z being the total arc length
within reach on a crossing line entering at distance x under angle omega1.
Z is piecewise: the plane splits into an inner window of angles whose
crossing line cuts both origin streets inside the reach (there
Z = 2*(t - x)), an outer regime cutting both sides far out, and a
transition regime; the breakpoints are inverse-trig thresholds in
(x, omega1, omega, t).

The breakpoints depend on x and t only through x/t, and Z is t times a
function of (x/t, omega1, omega); so Tx = t*fx(mu*t) and Ty = t*fy(mu*t).
Each rung of the quadrature ladder therefore builds its nodes, weights
and Z/t once per call, at unit reach, and serves every t of the call
(``_rung_terms``).

The recipe reads three details one way: the outer-regime length joins
the two angle sines with a plus, out-of-window angles on the second
street contribute unit survival, and the first window arctan is offset
by the entry distance x. This reading, labelled ``plus/full-angle/x``
(``DEFAULT_VARIANT``), was selected by a calibration of all eight
readings against exact Monte Carlo (table in docs/variant_calibration.json),
and it is the only one that passes the acceptance gate.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ..model import ModelParams, _check_t
from ..quadrature import check_tol, gauss_legendre, settle_ladder
from .closed_forms import _rate_times, _ret_err

__all__ = [
    "DEFAULT_VARIANT",
    "cdf_one_turn_intersection",
    "one_turn_intersection_terms",
]

log = logging.getLogger(__name__)


DEFAULT_VARIANT = "plus/full-angle/x"  # the recipe's label in every output

_PI = math.pi


def _thresholds(xr, sin_w, cos_w):
    """The four regime breakpoints at unit reach: xr = x/t in (0, 1], and
    sin_w, cos_w of the crossing angle omega, all of one shape. The
    thresholds depend on x and t only through x/t, so one call serves every
    reach.

    Returns (outer_lo, win_lo, win_hi, outer_hi): the outer regime covers
    [0, outer_lo] and [outer_hi, pi], the window [win_lo, win_hi]. The two
    window arctans are sorted because their printed order flips once
    t*cos(omega) < x. The arccos arguments lie in [-1, 1] up to rounding,
    which the clip takes up.
    """
    win_a = np.arctan2(sin_w, cos_w - xr) % _PI
    win_b = np.arctan2(sin_w, cos_w + xr) % _PI
    win_lo = np.minimum(win_a, win_b)
    win_hi = np.maximum(win_a, win_b)

    rho = (2.0 - xr) / xr
    r2 = rho * rho + 1.0
    arg_lo = (r2 * cos_w + 2.0 * rho) / (2.0 * rho * cos_w + r2)
    arg_hi = (r2 * cos_w - 2.0 * rho) / (r2 - 2.0 * rho * cos_w)
    outer_lo = np.arccos(np.clip(arg_lo, -1.0, 1.0))
    outer_hi = np.arccos(np.clip(arg_hi, -1.0, 1.0))
    return outer_lo, win_lo, win_hi, outer_hi


# coefficients (a0, a1, a2, b, d) of ``_zeta`` on the four omega1
# segments: outer below, outer above, transition below, transition above
_REGIMES = ((2.0, 1.0, 1.0, 1.0, 0.0),) * 2 + ((4.0, 2.0, 4.0, 2.0, -2.0),) * 2
# margin by which both ends of a row must pass a clip bound for the row to
# fold (``_segment_rows``)
_FOLD_TOL = 1e-12


def _coefficients(xr, sin_w, cos_w, regime):
    """(c, p, q) of ``_zeta`` in one regime, per row; q is None in the
    outer regime, where d = 0."""
    a0, a1, a2, b, d = regime
    xs = xr * sin_w
    return a0 - xr * (a1 + a2 * cos_w), b * xs, (d * xs if d else None)


def _zeta(v, c, p, q=None, out=None, scratch=None):
    """Z/t off the window before the clip, in the half gap
    v = tan((omega1 - omega)/2).

    With phi = omega1 - omega, (1 + cos(phi))/sin(phi) = 1/v,
    (1 - cos(phi))/sin(phi) = v and sin(omega1) = sin(phi)*cos_w +
    cos(phi)*sin_w, the outer length 2 - xr*(1 + (sin_w + sin(omega1))/
    sin(phi)) and the transition length 4 - 2*xr*(1 + 2*sin(omega1)/sin(phi))
    both read

        Z/t = clip(c - (p/v + q*v), 0, 4),
        c = a0 - xr*(a1 + a2*cos_w),  p = b*xr*sin_w,  q = d*xr*sin_w

    with (a0, a1, a2, b, d) = (2, 1, 1, 1, 0) in the outer regime and
    (4, 2, 4, 2, -2) in the transition (``_coefficients``); q = None stands
    for d = 0. This returns c - (p/v + q*v); the callers clip. v is an array
    whose last axis matches c, p and q, which are constant along omega1.
    ``out`` and ``scratch``, arrays of v's shape, take the result and a
    temporary in place of new arrays.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta = np.divide(p, v, out=out)
        if q is not None:
            zeta += np.multiply(q, v, out=scratch)
    return np.subtract(c, zeta, out=zeta)


def _segment_rows(lo, hi, omega, weight, c, p, q):
    """The rows of one omega1 segment [lo, hi], one per (omega, x) pair,
    with c, p, q of ``_zeta`` per row: (gap, width, mass, near, below,
    above). The row's nodes lie at omega1 = lo + width*u; gap = lo - omega,
    and mass = width*weight is the row's weight.

    ``near`` marks the rows reaching within 1e-8 of omega (mod pi), where
    v = tan((omega1 - omega)/2) may change sign or pass a pole. Elsewhere
    v keeps its sign along the row and the unclipped Z/t, c - (p/v + q*v)
    with p >= 0 >= q, rises with v and so with omega1. So a row that is not
    near and whose two ends both lie below 0 (``below``) or both above 4
    (``above``), by _FOLD_TOL, clips to that bound at every node.
    """
    width = np.maximum(hi - lo, 0.0)
    gap = lo - omega
    near = np.zeros(omega.size, dtype=bool)
    for shift in (-_PI, 0.0, _PI):
        near |= (gap - 1e-8 <= shift) & (shift <= gap + width + 1e-8)
    first, last = (_zeta(np.tan(0.5 * end), c, p, q)
                   for end in (gap, gap + width))
    mass = width * weight
    foldable = (mass > 0.0) & ~near
    below = foldable & (np.maximum(first, last) < -_FOLD_TOL)
    above = foldable & (np.minimum(first, last) > 4.0 + _FOLD_TOL)
    return gap, width, mass, near, below, above


# the ladder's rungs (nw, nx, n1): Gauss-Legendre orders in omega, in x and
# on each of the four omega1 segments
_LADDER = ((48, 48, 32), (96, 96, 64), (192, 192, 128))
# omega1 nodes built at once: a segment's unfolded rows are taken in chunks
# of _CHUNK_NODES // n1 rows
_CHUNK_NODES = 2**15


def _rung_terms(s, nw, nx, n1):
    """(Tx/t, Ty/t) at every s = mu*t of the array s, from one rung's fixed
    tensor rule: Gauss-Legendre in omega and x, the omega1 axis integrated
    per regime segment so no panel straddles a breakpoint.

    Z/t depends on (x/t, omega1, omega) alone, so the nodes, weights and
    Z/t are built once at unit reach and summed as w*exp(-s*Z/t) for every
    s. In the window Z/t = 2*(1 - x/t) whatever the angles, so the window
    folds into one weight per x node.

    Off the window the four segments are taken one at a time, one row per
    (omega, x) pair. Z/t is monotone along a row that does not pass omega,
    so the ends of the row tell whether it clips at every node
    (``_segment_rows``): such a row adds its weight to one constant, or to
    one constant times exp(-4*s), and no node is built on it. The other
    rows are built in chunks of _CHUNK_NODES nodes, each chunk serving
    every s.
    """
    og, ow = gauss_legendre(nw)
    xg, xw = gauss_legendre(nx)
    sg, sgw = gauss_legendre(n1)
    omega = np.repeat(_PI * og, nx)  # (omega, x) pairs, omega-major
    xr = np.tile(xg, nw)
    weight = np.outer(ow, xw).ravel() / _PI
    sin_w, cos_w = np.sin(omega), np.cos(omega)
    outer_lo, win_lo, win_hi, outer_hi = _thresholds(xr, sin_w, cos_w)
    window = np.maximum(win_hi - win_lo, 0.0)

    fx = np.zeros(s.size)
    clipped_0 = clipped_4 = 0.0  # weight of the rows clipped to 0 / to 4
    step = max(1, _CHUNK_NODES // n1)
    col, col_w = sg[:, None], sgw[:, None]
    # the chunk arrays (n1, rows), allocated once per call: v (then w),
    # zeta, e
    buf = np.empty((3, n1 * min(step, omega.size)))
    segments = ((0.0, outer_lo), (outer_hi, _PI), (outer_lo, win_lo),
                (win_hi, outer_hi))
    for (lo, hi), regime in zip(segments, _REGIMES):
        c, p, q = _coefficients(xr, sin_w, cos_w, regime)
        gap, width, mass, _, below, above = _segment_rows(
            lo, hi, omega, weight, c, p, q)
        clipped_0 += mass[below].sum()
        clipped_4 += mass[above].sum()
        rows = np.flatnonzero((mass > 0.0) & ~below & ~above)
        half_gap, half_width = 0.5 * gap[rows], 0.5 * width[rows]
        c, p, mass = c[rows], p[rows], mass[rows]
        if q is not None:
            q = q[rows]
        for a in range(0, rows.size, step):
            b = slice(a, a + step)
            shape = (n1, half_gap[b].size)
            v, zeta, e = (part[:shape[0] * shape[1]].reshape(shape)
                          for part in buf)
            np.multiply(half_width[b], col, out=v)
            v += half_gap[b]
            np.tan(v, out=v)
            _zeta(v, c[b], p[b], None if q is None else q[b],
                  out=zeta, scratch=e)
            np.clip(zeta, 0.0, 4.0, out=zeta)
            w = np.multiply(mass[b], col_w, out=v)
            for k, sk in enumerate(s):
                # multiply and sum rather than np.dot: BLAS would wake its
                # threads for every chunk
                np.multiply(zeta, -sk, out=e)
                np.exp(e, out=e)
                e *= w
                fx[k] += e.sum()
    # one exp per s, as for a one-point s, so a batch is bit for bit its points
    fx += [sgw.sum() * (clipped_0 + clipped_4 * math.exp(-4.0 * sk)) for sk in s]

    win_weight = (window * weight).reshape(nw, nx).sum(axis=0)
    win = np.array([(win_weight * np.exp(-2.0 * sk * (1.0 - xg))).sum()
                    for sk in s])
    return fx + win, win + float(((_PI - window) * weight).sum())


def one_turn_intersection_terms(mu: float, t: float, *, tol: float = 1e-6):
    """(Tx, Ty) with the resolution ladder refined until both move by at
    most tol; raises QuadratureFailure otherwise. Exposed because the terms
    are useful on their own (they only depend on mu and t, as t times a
    function of mu*t) and because the cross-check tests compare them
    against brute-force Riemann sums. mu is checked, and taken as a
    float, as ``ModelParams`` takes a model's mu."""
    mu = ModelParams(0.0, mu).mu
    _check_t(t)
    check_tol(tol)

    def rung(r, tv):
        fx, fy = _rung_terms(mu * tv, *_LADDER[r])
        return np.stack([tv * fx, tv * fy], axis=1)

    values, _ = settle_ladder(
        rung, len(_LADDER), [t], tol,
        lambda tv: f"(Tx, Ty) did not settle to {tol} at mu={mu}, t={tv}",
        log, "(Tx, Ty)")
    return float(values[0, 0]), float(values[0, 1])


def cdf_one_turn_intersection(params: ModelParams, t, *, tol: float = 1e-6,
                              with_err: bool = False):
    """One-turn street distance CDF from a typical intersection.

    Scalar or array t. The refinement ladder doubles the tensor rule until
    the probability moves by at most tol; QuadratureFailure (with the last
    value attached) if three levels cannot agree. All points of a call share
    each rung's geometry, and only the points not yet settled climb to the
    next rung. lam = 0 short-circuits to the exact zero-turn form
    1 - exp(-4*mu*t). F lies between that form and 1, so where the form
    rounds to 1, F is 1 and no rung runs; that covers every t at which
    mu*t overflows. ``with_err`` additionally returns the last ladder
    increment as the error estimate.
    """
    arr = _check_t(t)
    check_tol(tol)
    lam, mu = params.lam, params.mu
    zero_turn = -np.expm1(-_rate_times(4.0 * mu, arr))
    if lam == 0.0:
        return _ret_err(zero_turn, np.zeros_like(arr), arr, with_err)

    def rung(r, tv):
        fx, fy = _rung_terms(mu * tv, *_LADDER[r])
        # 2t - Tx - Ty >= 0, since Tx, Ty <= t; rounding can leave it at or
        # below 0 where mu*t is tiny, and a lam past the largest float / 2
        # would turn that into nan or a negative F
        gap = np.maximum(2.0 * tv - tv * fx - tv * fy, 0.0)
        with np.errstate(over="ignore"):
            return -np.expm1(-4.0 * mu * tv - 2.0 * (lam * gap))

    values, errors = np.where(zero_turn == 1.0, 1.0, 0.0), np.zeros(arr.shape)
    pos = (arr > 0.0) & (zero_turn < 1.0)
    values[pos], errors[pos] = settle_ladder(
        rung, len(_LADDER), arr[pos], tol,
        lambda tv: f"one-turn intersection CDF did not settle to {tol} at t={tv}",
        log, "one-turn intersection CDF")
    return _ret_err(values, errors, arr, with_err)
