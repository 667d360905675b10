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
On each rung of the quadrature ladder, fx and fy are Laplace transforms
of fixed measures of z = Z/t on [0, 4], each of total weight 1. So
1 - fx = s*gx and 1 - fy = s*gy, with slopes gx = sum w*z*phi(s*z) and
phi(x) = -expm1(-x)/x, sums of positive terms that do not cancel at any s.
The first call that reaches a rung folds its measure into one table, kept
for the process: 800 bins of width h = 0.005, each with J + 1 = 10 Taylor
moments about its centre (``_build_table``). Every later s = mu*t in
[0, 40] costs some tens of microseconds (``_rung_slopes``), and the CDF
forms lam*(2t - Tx - Ty) = lam*mu*t*t*(gx + gy) from the slopes at every
point.

The recipe reads three details one way: the outer-regime length joins
the two angle sines with a plus, out-of-window angles on the second
street contribute unit survival, and the first window arctan is offset
by the entry distance x. This reading, labelled ``plus/full-angle/x``
(``DEFAULT_VARIANT``), was selected by a calibration of all eight
readings against exact Monte Carlo (table in docs/variant_calibration.json),
and it is the only one that passes the acceptance gate.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import NamedTuple

import numpy as np

from ..errors import DomainError, _shown
from ..model import ModelParams, _check_flag, _check_record, _check_scalar_t, _check_t
from ..quadrature import _legendre, check_tol, settle_ladder
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
    sin_w, cos_w of the crossing angle omega in (0, pi), all of one shape.
    The thresholds depend on x and t only through x/t, so one call serves
    every reach.

    Returns (outer_lo, win_lo, win_hi, outer_hi): the outer regime covers
    [0, outer_lo] and [outer_hi, pi], the window [win_lo, win_hi]. Both
    outer_lo and win_lo lie below omega, and win_hi and outer_hi above
    (docs/formulas.md, thm2, "Orderings"), so no segment off the window
    reaches omega. The arccos arguments lie in [-1, 1] up to rounding,
    which the clip takes up.
    """
    win_lo = np.arctan2(sin_w, cos_w + xr)
    win_hi = np.arctan2(sin_w, cos_w - xr)

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
    """(c, p, q) of ``_zeta`` in one regime, per row; q = 0 in the outer
    regime, where d = 0."""
    a0, a1, a2, b, d = regime
    xs = xr * sin_w
    return a0 - xr * (a1 + a2 * cos_w), b * xs, d * xs


def _zeta(v, c, p, q, out=None, scratch=None):
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
    (4, 2, 4, 2, -2) in the transition (``_coefficients``). This returns
    c - (p/v + q*v); the callers clip. v, finite and not 0 since no
    segment reaches omega, is an array whose last axis matches c, p and q,
    which are constant along omega1. ``out`` and ``scratch``, arrays of
    v's shape, take the result and a temporary in place of new arrays;
    ``scratch`` may be v itself, which it then overwrites.
    """
    zeta = np.divide(p, v, out=out)
    zeta += np.multiply(q, v, out=scratch)
    return np.subtract(c, zeta, out=zeta)


def _segment_rows(lo, hi, omega, weight, c, p, q):
    """The rows of one omega1 segment [lo, hi], one per (omega, x) pair,
    with c, p, q of ``_zeta`` per row: (gap, width, mass, below, above).
    The row's nodes lie at omega1 = lo + width*u; gap = lo - omega, and
    mass = width*weight is the row's weight.

    No segment reaches omega (``_thresholds``), so v = tan((omega1 -
    omega)/2) keeps its sign along a row and has no pole there, and the
    unclipped Z/t, c - (p/v + q*v) with p >= 0 >= q, rises with v and so
    with omega1. So a row whose two ends both lie below 0 (``below``) or
    both above 4 (``above``), by _FOLD_TOL, clips to that bound at every
    node.
    """
    width = np.maximum(hi - lo, 0.0)
    gap = lo - omega
    first, last = (_zeta(np.tan(0.5 * end), c, p, q)
                   for end in (gap, gap + width))
    mass = width * weight
    below = (mass > 0.0) & (np.maximum(first, last) < -_FOLD_TOL)
    above = (mass > 0.0) & (np.minimum(first, last) > 4.0 + _FOLD_TOL)
    return gap, width, mass, below, above


# the ladder's rungs (nw, nx, n1): Gauss-Legendre orders in omega, in x and
# on each of the four omega1 segments
_LADDER = ((48, 48, 32), (96, 96, 64), (192, 192, 128))
# omega1 nodes built at once: a segment's unfolded rows are taken in chunks
# of _CHUNK_NODES // n1 rows
_CHUNK_NODES = 2**15

# The Laplace tables (``_build_table``): bins of width _BIN on [0, 4], with
# Taylor moments of orders 0.._ORDER about each bin's centre. A table serves
# 0 <= s <= _S_MAX, where a bin's truncation error in the slope is at most
# (h/2)*exp(s*h/2)*(s*h/2)**J/(J + 1)! = 7.6e-19 of its weight (h = _BIN,
# J = _ORDER).
_BIN = 0.005
_ORDER = 9
_S_MAX = 40.0


class _Table(NamedTuple):
    """One rung's slopes gx and gy as functions of s (``_build_table``).
    Its entries are the bins, the rows folded to z = 4 and the window's x
    nodes, in that order; only the bins have moments of order 1 and up."""

    moments: np.ndarray  # (_ORDER, entries): sum of w*(z - c)**j / j!, j >= 1
    centres: np.ndarray  # c: the bins' centres, 4, the window's z = 2*(1 - x/t)
    centre_mass: np.ndarray  # each entry's weight times its centre
    window: int  # the first window entry


def _build_table(nw, nx, n1):
    """The Laplace table of one rung's fixed tensor rule: Gauss-Legendre in
    omega and x, the omega1 axis integrated per regime segment so no panel
    straddles a breakpoint.

    Z/t depends on (x/t, omega1, omega) alone, so the nodes, their weights
    w and z = Z/t are fixed numbers, and fx(s) = sum w*exp(-s*z) is the
    Laplace transform of one fixed measure on [0, 4] of total weight 1.
    What the slopes read of it is sum w*z*phi(s*z) (``_rung_slopes``), to
    which the mass at z = 0 adds nothing. In the window z = 2*(1 - x/t)
    whatever the angles, so the window folds into one weight per x node;
    fy is that window plus the unit survival outside it, so gy is the
    window's part of gx.

    Off the window the four segments are taken one at a time, one row per
    (omega, x) pair. No row reaches omega, so Z/t is monotone along every
    row, and the ends of the row tell whether it clips at every node
    (``_segment_rows``): such a row adds its weight to z = 0, where it drops
    out, or to the constant at z = 4, and no node is built on it. The other
    rows are built in chunks of _CHUNK_NODES nodes, and each chunk folds its
    nodes into bins of width _BIN on [0, 4], keeping per bin the Taylor
    moments m[j, b] = sum w*(z - c_b)**j / j! about its centre c_b.
    """
    og, ow = _legendre(nw)
    xg, xw = _legendre(nx)
    sg, sgw = _legendre(n1)
    omega = np.repeat(_PI * og, nx)  # (omega, x) pairs, omega-major
    xr = np.tile(xg, nw)
    weight = np.outer(ow, xw).ravel() / _PI
    sin_w, cos_w = np.sin(omega), np.cos(omega)
    outer_lo, win_lo, win_hi, outer_hi = _thresholds(xr, sin_w, cos_w)

    bins = round(4.0 / _BIN)
    moments = np.zeros((_ORDER + 1, bins))
    clipped_4 = 0.0  # weight of the rows clipped to 4
    step = max(1, _CHUNK_NODES // n1)
    col, col_w = sg[:, None], sgw[:, None]
    # the chunk arrays (n1, rows), allocated once per build: v (then q*v,
    # c_b and the moment terms), zeta (then z - c_b) and the bin indices
    size = n1 * min(step, omega.size)
    buf = np.empty((2, size))
    index = np.empty(size, dtype=np.intp)
    segments = ((0.0, outer_lo), (outer_hi, _PI), (outer_lo, win_lo),
                (win_hi, outer_hi))
    for (lo, hi), regime in zip(segments, _REGIMES):
        c, p, q = _coefficients(xr, sin_w, cos_w, regime)
        gap, width, mass, below, above = _segment_rows(
            lo, hi, omega, weight, c, p, q)
        clipped_4 += mass[above].sum()
        rows = np.flatnonzero((mass > 0.0) & ~below & ~above)
        half_gap, half_width = 0.5 * gap[rows], 0.5 * width[rows]
        c, p, q, mass = c[rows], p[rows], q[rows], mass[rows]
        for a in range(0, rows.size, step):
            b = slice(a, a + step)
            shape = (n1, half_gap[b].size)
            n = shape[0] * shape[1]
            v, zeta = (part[:n].reshape(shape) for part in buf)
            np.multiply(half_width[b], col, out=v)
            v += half_gap[b]
            np.tan(v, out=v)
            _zeta(v, c[b], p[b], q[b], out=zeta, scratch=v)
            np.clip(zeta, 0.0, 4.0, out=zeta)
            np.multiply(zeta, 1.0 / _BIN, out=v)
            np.floor(v, out=v)
            np.minimum(v, bins - 1, out=v)
            np.copyto(index[:n].reshape(shape), v, casting="unsafe")
            v += 0.5
            v *= _BIN
            zeta -= v
            term = np.multiply(mass[b], col_w, out=v)
            for j in range(_ORDER + 1):
                if j:
                    term *= zeta
                moments[j] += np.bincount(index[:n], weights=term.ravel(),
                                          minlength=bins)

    moments /= [[math.factorial(j)] for j in range(_ORDER + 1)]
    win_weight = ((win_hi - win_lo) * weight).reshape(nw, nx).sum(axis=0)
    centres = np.concatenate(((np.arange(bins) + 0.5) * _BIN, [4.0], 2.0 * (1.0 - xg)))
    mass = np.concatenate((moments[0], [sgw.sum() * clipped_4], win_weight))
    arrays = (np.pad(moments[1:], ((0, 0), (0, 1 + nx))), centres, mass * centres)
    for part in arrays:
        part.setflags(write=False)  # every later call of the process reads it
    return _Table(*arrays, bins + 1)


@functools.cache
def _table(nw, nx, n1):
    """The rung's Laplace table, built once per process, on first use."""
    return _build_table(nw, nx, n1)


def _rung_slopes(s, nw, nx, n1):
    """(gx, gy) at every s = mu*t of the array s, 0 <= s <= _S_MAX, with
    1 - fx = s*gx and 1 - fy = s*gy, from the rung's Laplace table
    (``_build_table``). With phi(x) = -expm1(-x)/x and
    w*(1 - exp(-s*z))/s = w*z*phi(s*z), writing z = c_b + d in a bin gives

        gx(s) = sum_b [m0_b*c_b*phi(s*c_b)
                       + exp(-s*c_b) * sum_j m[j, b]*(-s)**(j - 1)]
                + 4*at_4*phi(4*s) + gy(s),
        gy(s) = sum over the window's x nodes of w*z*phi(s*z),

    with at_4 the weight folded to z = 4: one term per table entry, each
    positive but for the bins' small moment series, so no term cancels at
    any s. Cutting the Taylor series of
    (1 - exp(-s*d))/s after j = J leaves at most
    (h/2)*exp(s*h/2)*(s*h/2)**J/(J + 1)! of each bin's weight, since
    |d| <= h/2. The slopes are evaluated at max(s, tiny), the smallest
    normal double, so no argument of phi is 0; below tiny they move by
    less than 1e-307. Each s is evaluated on its own, in a fixed order,
    and without BLAS (which would wake its threads for a few hundred
    numbers; ``np.einsum`` does not call it), so a batch is bit for bit
    its points.
    """
    table = _table(nw, nx, n1)
    orders = np.arange(_ORDER)
    gx, gy = np.empty(s.size), np.empty(s.size)
    for k, sk in enumerate(np.maximum(s, np.finfo(float).tiny)):
        x = table.centres * -sk
        acc = np.einsum("j,jb->b", (-sk) ** orders, table.moments)
        acc *= np.exp(x)
        acc += table.centre_mass * (np.expm1(x) / x)
        gy[k] = acc[table.window:].sum()
        gx[k] = acc[:table.window].sum() + gy[k]
    return gx, gy


def _rung_terms(s, nw, nx, n1):
    """(Tx/t, Ty/t) = (1 - s*gx, 1 - s*gy) at every s of the array s
    (``_rung_slopes``)."""
    gx, gy = _rung_slopes(s, nw, nx, n1)
    return 1.0 - s * gx, 1.0 - s * gy


def _lam_term(lam, mu, t, slope):
    """2*lam*mu*t*t*slope, the lam term 2*lam*(2t - Tx - Ty) of the CDF's
    exponent with slope = gx + gy, for finite lam >= 0, positive finite mu
    and arrays t and slope of positive finite numbers. It is taken on the
    factors' mantissas, each in [1/2, 1), and summed binary exponents, so
    no partial product leaves the normal range: it is inf or subnormal only
    where the product itself is, and exactly 0 at lam = 0."""
    lam_m, lam_e = math.frexp(lam)
    mu_m, mu_e = math.frexp(mu)
    t_m, t_e = np.frexp(t)
    slope_m, slope_e = np.frexp(slope)
    with np.errstate(over="ignore"):
        return np.ldexp(lam_m * mu_m * t_m * t_m * slope_m,
                        2 * t_e + slope_e + (lam_e + mu_e + 1))


def one_turn_intersection_terms(mu: float, t: float, *, tol: float = 1e-6):
    """(Tx, Ty) with the resolution ladder refined until both move by at
    most tol; raises QuadratureFailure otherwise. Exposed because the terms
    are useful on their own (they only depend on mu and t, as t times a
    function of mu*t) and because the cross-check tests compare them
    against brute-force Riemann sums. mu is checked, and taken as a
    float, as ``ModelParams`` takes a model's mu. t is one number; the
    tables serve mu*t <= 40 (``_S_MAX``), DomainError past that."""
    mu = ModelParams(0.0, mu).mu
    t = _check_scalar_t(t)
    check_tol(tol)
    if mu * t > _S_MAX:
        raise DomainError(f"mu*t = {_shown(mu * t)} is past {_S_MAX}, the "
                          "largest mu*t the one-turn intersection terms serve")

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
    each rung's table, and only the points not yet settled climb to the
    next rung. Each rung forms the exponent
    4*mu*t + 2*lam*(2t - Tx - Ty) = 4*mu*t + 2*lam*mu*t*t*(gx + gy) from
    its slopes (``_rung_slopes``), which do not cancel at any s, with the
    lam term taken on the factors' mantissas (``_lam_term``), so no
    partial product over- or underflows; at lam = 0 it is exactly 0, and
    every rung gives the zero-turn form 1 - exp(-4*mu*t). F lies between
    that form and 1, so where the form rounds to 1, F is 1 and no rung runs;
    that covers every t at which mu*t overflows, and every rung runs at
    mu*t below 9.4. ``with_err``, a flag (``model._check_flag``),
    additionally returns the last ladder increment as the error estimate.
    """
    arr = _check_t(t)
    check_tol(tol)
    _check_record(params, ModelParams, "params")
    with_err = _check_flag(with_err, "with_err")
    lam, mu = params.lam, params.mu
    zero_turn = -np.expm1(-_rate_times(4.0 * mu, arr))

    def rung(r, tv):
        gx, gy = _rung_slopes(mu * tv, *_LADDER[r])
        return -np.expm1(-4.0 * mu * tv - _lam_term(lam, mu, tv, gx + gy))

    values, errors = np.where(zero_turn == 1.0, 1.0, 0.0), np.zeros(arr.shape)
    pos = (arr > 0.0) & (zero_turn < 1.0)
    values[pos], errors[pos] = settle_ladder(
        rung, len(_LADDER), arr[pos], tol,
        lambda tv: f"one-turn intersection CDF did not settle to {tol} at t={tv}",
        log, "one-turn intersection CDF")
    return _ret_err(values, errors, arr, with_err)
