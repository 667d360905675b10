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
Each rung's measure is binned, offline, into one table: 800 bins of
width h = 0.005, each with J + 1 = 10 Taylor moments about its centre
(``_thm2_build``, run by tools/build_thm2_tables.py). The tables ship as
package data, and the first call that reaches a rung loads its table,
kept for the process (``_table``). Every s = mu*t in [0, 40] then costs
some tens of microseconds (``_rung_slopes``), and the CDF forms
lam*(2t - Tx - Ty) = lam*mu*t*t*(gx + gy) from the slopes at every
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
import zipfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import DomainError, LineCoxError, _shown
from ..model import ModelParams, _check_flag, _check_record, _check_scalar_t, _check_t
from ..quadrature import check_tol, settle_ladder
from .closed_forms import _rate_times, _ret_err

__all__ = [
    "DEFAULT_VARIANT",
    "cdf_one_turn_intersection",
    "one_turn_intersection_terms",
]

log = logging.getLogger(__name__)


DEFAULT_VARIANT = "plus/full-angle/x"  # the recipe's label in every output

# the ladder's rungs (nw, nx, n1): Gauss-Legendre orders in omega, in x and
# on each of the four omega1 segments
_LADDER = ((48, 48, 32), (96, 96, 64), (192, 192, 128))

# The Laplace tables (``_thm2_build._build_table``): bins of width _BIN on
# [0, 4], with Taylor moments of orders 0.._ORDER about each bin's centre.
# A table serves
# 0 <= s <= _S_MAX, where a bin's truncation error in the slope is at
# most (h/2)*exp(s*h/2)*(s*h/2)**J/(J + 1)! = 7.6e-19 of its weight
# (h = _BIN, J = _ORDER).
_BIN = 0.005
_ORDER = 9
_S_MAX = 40.0


class _Table(NamedTuple):
    """One rung's slopes gx and gy as functions of s
    (``_thm2_build._build_table``). Its entries are the bins, then the
    window's x nodes; only the bins have moments of order 1 and up."""

    moments: np.ndarray  # (_ORDER, entries): sum of w*(z - c)**j / j!, j >= 1
    centres: np.ndarray  # c: the bins' centres, then the window's z = 2*(1 - x/t)
    centre_mass: np.ndarray  # each entry's weight times its centre
    window: int  # the first window entry


# The file of every rung's table, with the constants they were built with;
# tools/build_thm2_tables.py writes it (``_thm2_build``)
_TABLES_PATH = Path(__file__).with_name("_thm2_tables.npz")
# the constants, by key in the file, that a table loaded here must have been
# built with
_BUILT_WITH = {"ladder": _LADDER, "bin": _BIN, "order": _ORDER, "s_max": _S_MAX}


def _key(field: str, rung: int) -> str:
    """The file's key for one ``_Table`` field of the rung ``_LADDER[rung]``."""
    return f"{field}_{rung}"


@functools.cache
def _table(nw, nx, n1):
    """The rung's Laplace table, loaded from ``_TABLES_PATH`` on first use
    and kept, read-only, for the process. A file that is missing, cannot be
    read, or was built for other constants (``_BUILT_WITH``) raises
    LineCoxError naming it; the table is never built here."""
    rung = _LADDER.index((nw, nx, n1))
    try:
        with np.load(_TABLES_PATH, allow_pickle=False) as stored:
            stale = [name for name, value in _BUILT_WITH.items()
                     if not np.array_equal(stored[name], value)]
            if stale:
                raise LineCoxError(
                    f"the thm2 tables {_TABLES_PATH} were built for other constants "
                    f"({', '.join(stale)}); rebuild them with tools/build_thm2_tables.py")
            arrays = [stored[_key(field, rung)] for field in _Table._fields]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise LineCoxError(f"cannot read the thm2 tables {_TABLES_PATH}: {exc}") from None
    for part in arrays:
        part.setflags(write=False)  # every later call of the process reads it
    return _Table(*arrays[:-1], int(arrays[-1]))


def _rung_slopes(s, nw, nx, n1):
    """(gx, gy) at every s = mu*t of the array s, 0 <= s <= _S_MAX, with
    1 - fx = s*gx and 1 - fy = s*gy, from the rung's Laplace table
    (``_table``). With phi(x) = -expm1(-x)/x and
    w*(1 - exp(-s*z))/s = w*z*phi(s*z), writing z = c_b + d in a bin gives

        gx(s) = sum_b [m0_b*c_b*phi(s*c_b)
                       + exp(-s*c_b) * sum_j m[j, b]*(-s)**(j - 1)] + gy(s),
        gy(s) = sum over the window's x nodes of w*z*phi(s*z):

    one term per table entry, each positive but for the bins' small
    moment series, so no term cancels at any s. Cutting the Taylor series of
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
