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
of fixed measures of z = Z/t on [0, 4]. The first call that reaches a
rung folds its measure into one table, kept for the process: 800 bins of
width h = 0.005, each with J + 1 = 10 Taylor moments about its centre
(``_build_table``). Every later s = mu*t in [0, 40] costs some tens of
microseconds (``_rung_terms``). Where s is tiny, 2 - fx - fy comes from
the series of the table's raw moments (``_rung_gap``).

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
from typing import NamedTuple

import numpy as np

from ..errors import DomainError, InputError
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
    temporary in place of new arrays; ``scratch`` may be v itself, which
    it then overwrites.
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

# The Laplace tables (``_build_table``): bins of width _BIN on [0, 4], with
# Taylor moments of orders 0.._ORDER about each bin's centre. A table serves
# 0 <= s <= _S_MAX, where a bin's truncation error is at most
# exp(s*h/2)*(s*h/2)**(J + 1)/(J + 1)! = 3.1e-17 of its weight (h = _BIN,
# J = _ORDER). At or below _SERIES_S, 2 - fx - fy comes from the moment
# series about 0 (``_rung_gap``).
_BIN = 0.005
_ORDER = 9
_S_MAX = 40.0
_SERIES_S = 0.01


class _Table(NamedTuple):
    """One rung's fx and fy as functions of s (``_build_table``)."""

    moments: np.ndarray  # (_ORDER + 1, bins): sum of w*(z - c_b)**j / j!
    centres: np.ndarray  # c_b, the bins' centres
    at_0: float  # weight of the rows folded to z = 0
    at_4: float  # weight of the rows folded to z = 4
    win_weight: np.ndarray  # the window's weight per x node
    win_zeta: np.ndarray  # the window's z = 2*(1 - x/t) per x node
    ty_const: float  # Ty/t outside the window, unit survival
    series: np.ndarray  # (M_kx + M_ky)/k!, k = 1.._ORDER: raw moments about 0


# rung rule (nw, nx, n1) -> its _Table, built by the first call that needs it
_TABLES: dict = {}


def _build_table(nw, nx, n1):
    """The Laplace table of one rung's fixed tensor rule: Gauss-Legendre in
    omega and x, the omega1 axis integrated per regime segment so no panel
    straddles a breakpoint.

    Z/t depends on (x/t, omega1, omega) alone, so the nodes, their weights
    w and z = Z/t are fixed numbers, and fx(s) = sum w*exp(-s*z) is the
    Laplace transform of one fixed measure on [0, 4]. In the window
    z = 2*(1 - x/t) whatever the angles, so the window folds into one
    weight per x node; fy is that window plus the unit survival outside it.

    Off the window the four segments are taken one at a time, one row per
    (omega, x) pair. Z/t is monotone along a row that does not pass omega,
    so the ends of the row tell whether it clips at every node
    (``_segment_rows``): such a row adds its weight to one constant, at
    z = 0 or at z = 4, and no node is built on it. The other rows are built
    in chunks of _CHUNK_NODES nodes, and each chunk folds its nodes into
    bins of width _BIN on [0, 4], keeping per bin the Taylor moments
    m[j, b] = sum w*(z - c_b)**j / j! about its centre c_b.
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

    bins = round(4.0 / _BIN)
    moments = np.zeros((_ORDER + 1, bins))
    clipped_0 = clipped_4 = 0.0  # weight of the rows clipped to 0 / to 4
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
            n = shape[0] * shape[1]
            v, zeta = (part[:n].reshape(shape) for part in buf)
            np.multiply(half_width[b], col, out=v)
            v += half_gap[b]
            np.tan(v, out=v)
            _zeta(v, c[b], p[b], None if q is None else q[b],
                  out=zeta, scratch=v)
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
    centres = (np.arange(bins) + 0.5) * _BIN
    at_4 = float(sgw.sum() * clipped_4)
    win_weight = (window * weight).reshape(nw, nx).sum(axis=0)
    win_zeta = 2.0 * (1.0 - xg)
    # raw moments about 0 by the binomial identity:
    # z**k/k! = sum_j (z - c)**j/j! * c**(k - j)/(k - j)!
    powers = [centres**i / math.factorial(i) for i in range(_ORDER + 1)]
    series = np.array([
        sum(float((moments[j] * powers[k - j]).sum()) for j in range(k + 1))
        + (at_4 * 4.0**k + 2.0 * float((win_weight * win_zeta**k).sum()))
        / math.factorial(k)
        for k in range(1, _ORDER + 1)])
    for part in (moments, centres, win_weight, win_zeta, series):
        part.setflags(write=False)  # every later call of the process reads it
    return _Table(moments, centres, float(sgw.sum() * clipped_0), at_4, win_weight,
                  win_zeta, float(((_PI - window) * weight).sum()), series)


def _table(nw, nx, n1):
    """The rung's Laplace table, built on the first call that needs it."""
    table = _TABLES.get((nw, nx, n1))
    if table is None:
        table = _TABLES[(nw, nx, n1)] = _build_table(nw, nx, n1)
    return table


def _rung_terms(s, nw, nx, n1):
    """(Tx/t, Ty/t) at every s = mu*t of the array s, 0 <= s <= _S_MAX,
    from the rung's Laplace table (``_build_table``):

        fx(s) = sum_b exp(-s*c_b) * sum_j m[j, b]*(-s)**j
                + (at_0 + at_4*exp(-4*s)) + window(s)

    and fy(s) = window(s) + the unit survival outside the window. Writing
    exp(-s*z) = exp(-s*c_b)*exp(-s*(z - c_b)) and cutting the Taylor series
    of the second factor after (-s)**J leaves at most
    exp(s*h/2)*(s*h/2)**(J + 1)/(J + 1)! of each bin's weight, since
    |z - c_b| <= h/2. Each s is evaluated on its own, in a fixed order,
    and without BLAS (which would wake its threads for a few hundred
    numbers), so a batch is bit for bit its points.
    """
    table = _table(nw, nx, n1)
    fx = np.empty(s.size)
    for k, sk in enumerate(s):
        acc = table.moments[_ORDER] * -sk
        for m in table.moments[_ORDER - 1:0:-1]:
            acc += m
            acc *= -sk
        acc += table.moments[0]
        acc *= np.exp(-sk * table.centres)
        fx[k] = acc.sum() + (table.at_0 + table.at_4 * math.exp(-4.0 * sk))
    win = np.array([(table.win_weight * np.exp(-sk * table.win_zeta)).sum() for sk in s])
    return fx + win, win + table.ty_const


def _rung_gap(s, nw, nx, n1):
    """2 - fx - fy at every s of the array s. Above _SERIES_S it is taken
    from ``_rung_terms``. At or below it, where 2 - fx - fy is mostly
    rounding, it is the series

        sum_k (-1)**(k + 1) * s**k * (M_kx + M_ky)/k!,   k = 1..J

    of the raw moments of the two measures; the k = 0 term vanishes, since
    Tx = Ty = t at mu = 0. The first term left out is below
    2*(4*s)**(J + 1)/(J + 1)!, which is 5.8e-21 at s = _SERIES_S."""
    gap = np.empty(s.size)
    small = s <= _SERIES_S
    fx, fy = _rung_terms(s[~small], nw, nx, n1)
    gap[~small] = 2.0 - fx - fy
    series, sk = _table(nw, nx, n1).series, s[small]
    acc = np.full(sk.size, series[-1])
    for moment in series[-2::-1]:
        acc = moment - sk * acc
    gap[small] = sk * acc
    return gap


def _product(*factors):
    """The product of positive finite factors (arrays broadcast), taken on
    their mantissas, each in [1/2, 1), and summed binary exponents, so no
    partial product leaves the normal range: it is inf or subnormal only
    where the product itself is."""
    mantissa, exponent = np.frexp(np.stack(np.broadcast_arrays(*factors)))
    return np.ldexp(mantissa.prod(axis=0), exponent.sum(axis=0))


def one_turn_intersection_terms(mu: float, t: float, *, tol: float = 1e-6):
    """(Tx, Ty) with the resolution ladder refined until both move by at
    most tol; raises QuadratureFailure otherwise. Exposed because the terms
    are useful on their own (they only depend on mu and t, as t times a
    function of mu*t) and because the cross-check tests compare them
    against brute-force Riemann sums. mu is checked, and taken as a
    float, as ``ModelParams`` takes a model's mu. t is one number; the
    tables serve mu*t <= 40 (``_S_MAX``), DomainError past that."""
    mu = ModelParams(0.0, mu).mu
    arr = _check_t(t)
    check_tol(tol)
    if arr.ndim:
        raise InputError(f"t must be one number, got an array of shape {arr.shape}")
    if mu * float(arr) > _S_MAX:
        raise DomainError(f"mu*t = {mu * float(arr)!r} is past {_S_MAX}, the "
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
    next rung. lam = 0 short-circuits to the exact zero-turn form
    1 - exp(-4*mu*t). F lies between that form and 1, so where the form
    rounds to 1, F is 1 and no rung runs; that covers every t at which
    mu*t overflows, and every rung runs at mu*t below 9.4. ``with_err``
    additionally returns the last ladder increment as the error estimate.
    """
    arr = _check_t(t)
    check_tol(tol)
    lam, mu = params.lam, params.mu
    zero_turn = -np.expm1(-_rate_times(4.0 * mu, arr))
    if lam == 0.0:
        return _ret_err(zero_turn, np.zeros_like(arr), arr, with_err)

    def rung(r, tv):
        # lam*(2t - Tx - Ty) as (lam*t)*(2 - fx - fy): t*(2 - fx - fy)
        # would underflow where mu*t is tiny. Where lam*t overflows and
        # F < 1, s = mu*t is below 1e-306; there, and where s is subnormal,
        # the series of 2 - fx - fy is s*m1 to the last bit, and the term
        # is the product lam*mu*t*t*m1, formed by _product
        s = mu * tv
        with np.errstate(over="ignore"):
            lam_t = lam * tv
            lam_gap = lam_t * _rung_gap(s, *_LADDER[r])
            odd = np.isinf(lam_t) | (s < np.finfo(float).tiny)
            if odd.any():
                lam_gap[odd] = _product(lam, mu, tv[odd], tv[odd],
                                        _table(*_LADDER[r]).series[0])
            return -np.expm1(-4.0 * mu * tv - 2.0 * lam_gap)

    values, errors = np.where(zero_turn == 1.0, 1.0, 0.0), np.zeros(arr.shape)
    pos = (arr > 0.0) & (zero_turn < 1.0)
    values[pos], errors[pos] = settle_ladder(
        rung, len(_LADDER), arr[pos], tol,
        lambda tv: f"one-turn intersection CDF did not settle to {tol} at t={tv}",
        log, "one-turn intersection CDF")
    return _ret_err(values, errors, arr, with_err)
