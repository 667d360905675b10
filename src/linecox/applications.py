"""Link-budget calculators built on the distance distributions.

Vehicle-to-vehicle links assisted by reflective surfaces mounted at street
corners succeed when the received SNR clears a threshold; with
corner-mounted hardware the relevant geometry is exactly the street-path
distance the rest of this package models. Everything here is linear units;
the CLI converts dB at the boundary.

Electric-vehicle reach inverts a distance CDF: ``reach_quantile`` finds
the radius that holds a point with probability p, for each of three
curves, by one bracketed Brent solve, each searched up to t = 2^60.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields

from .analytic import (
    cdf_one_turn_intersection,
    cdf_one_turn_point,
    cdf_zero_turn_intersection,
)
from .errors import (
    InputError,
    NoBracket,
    NonFinite,
    NonPositiveParameter,
    _shown,
)
from .model import ModelParams, _check_record, _finite_real, _real
from .quadrature import check_tol

__all__ = [
    "RisLinkParams",
    "nearfield_threshold_distance",
    "nearfield_success",
    "farfield_threshold_distance",
    "farfield_success_lower_bound",
    "reach_quantile",
    "db_to_linear",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RisLinkParams:
    """Radio and surface parameters, all linear and strictly positive;
    building one checks every field, naming the first bad one, and stores
    every field as a float.

    g_t, g_r    transmit / receive antenna gains
    g           per-element gain of the reflecting surface
    wavelength  carrier wavelength (same length unit as distances)
    area        effective aperture area of the surface
    m, n        element counts of the surface along its two axes
    d_x, d_y    element spacings
    p_t         transmit power
    n0          noise power
    gamma       SNR threshold for success
    """

    g_t: float
    g_r: float
    g: float
    wavelength: float
    area: float
    m: float
    n: float
    d_x: float
    d_y: float
    p_t: float
    n0: float
    gamma: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not _finite_real(v):
                raise NonFinite(f"{f.name} must be finite, got {_shown(v)}")
            if v <= 0:
                raise NonPositiveParameter(f"{f.name} must be > 0, got {_shown(v)}")
            object.__setattr__(self, f.name, float(v))


def db_to_linear(db: float) -> float:
    """10^(db/10); inf where that overflows a float, which ``RisLinkParams``
    then rejects by field name, and 0.0 where it underflows. InputError
    when db is not a ``_real`` number."""
    if not _real(db):
        raise InputError(f"db must be a real number, got {_shown(db)}")
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:  # db / 10 or the power is past the largest float
        return 0.0 if db < 0 else math.inf


def _threshold(direct, log_d: float) -> float:
    """A threshold distance: ``direct()``, its printed form, unless a step
    of that overflows or underflows (the result is then inf, 0, a division
    by 0 or off its logarithm ``log_d``, taken factor by factor);
    exp(log_d) there. InputError when the distance itself is past the
    largest float."""
    try:
        d = direct()
    except (OverflowError, ZeroDivisionError):
        d = math.inf
    if 0.0 < d < math.inf and abs(math.log(d) - log_d) <= 1e-9:
        return d
    try:
        return math.exp(log_d)
    except OverflowError:
        raise InputError(f"the threshold distance, about 10^{log_d / math.log(10.0):.6g}, "
                         "is past the largest float") from None


def _log_product(link: RisLinkParams, **powers) -> float:
    """log of the product of link fields, each to its power."""
    return math.fsum(e * math.log(getattr(link, name)) for name, e in powers.items())


def nearfield_threshold_distance(link: RisLinkParams) -> float:
    """Largest total street distance d1 + d2 at which the near-field link
    still clears the SNR threshold. The received power there falls off as
    1/(d1+d2)^2, so the solve is a plain square root:

        d* = sqrt(g_t*g_r*wavelength^2*area^2*p_t / (16*pi^2*gamma*n0)).
    """
    _check_record(link, RisLinkParams, "link")

    def direct():
        num = link.g_t * link.g_r * link.wavelength**2 * link.area**2 * link.p_t
        return math.sqrt(num / (16.0 * math.pi**2 * link.gamma * link.n0))

    return _threshold(direct, 0.5 * (_log_product(
        link, g_t=1, g_r=1, wavelength=2, area=2, p_t=1, gamma=-1, n0=-1)
        - math.log(16.0 * math.pi**2)))


def nearfield_success(link: RisLinkParams, model: ModelParams) -> float:
    """Probability the nearest one-turn street neighbor of a typical point
    is close enough for a near-field surface-assisted link."""
    _check_record(model, ModelParams, "model")
    return cdf_one_turn_point(model, nearfield_threshold_distance(link))


def farfield_threshold_distance(link: RisLinkParams) -> float:
    """Street distance below which a far-field link is guaranteed.

    Far-field received power carries 1/(d1^2 * d2^2); success means
    d1^2*d2^2 <= X with

        X = g_t*g_r*g*m^2*n^2*d_x*d_y*wavelength^2*area^2*p_t
            / (64*pi^3*gamma*n0).

    By AM-GM, d1*d2 <= ((d1+d2)/2)^2, so any split of a total street
    distance D <= 2*X^(1/4) succeeds.
    """
    _check_record(link, RisLinkParams, "link")

    def direct():
        num = (link.g_t * link.g_r * link.g * link.m**2 * link.n**2
               * link.d_x * link.d_y * link.wavelength**2 * link.area**2 * link.p_t)
        x = num / (64.0 * math.pi**3 * link.gamma * link.n0)
        return 2.0 * x**0.25

    return _threshold(direct, math.log(2.0) + 0.25 * (_log_product(
        link, g_t=1, g_r=1, g=1, m=2, n=2, d_x=1, d_y=1, wavelength=2, area=2,
        p_t=1, gamma=-1, n0=-1) - math.log(64.0 * math.pi**3)))


def farfield_success_lower_bound(link: RisLinkParams, model: ModelParams) -> float:
    """Lower bound on the far-field success probability: the chance the
    one-turn street distance stays below the AM-GM guaranteed radius."""
    _check_record(model, ModelParams, "model")
    return cdf_one_turn_point(model, farfield_threshold_distance(link))


# quantile targets: one CDF per policy tag, each searched up to _SEARCH_CAP
REACH_POLICIES = ("one-turn-point", "zero-turn-intersection", "one-turn-intersection")

_SEARCH_CAP = 2.0**60
_XTOL, _RTOL = 1e-12, 1e-9  # the root's tolerances, as brentq reads them


def _reach_cdf(policy: str, model: ModelParams, tol: float):
    if not (isinstance(policy, str) and policy in REACH_POLICIES):
        raise InputError(f"policy must be one of {REACH_POLICIES}, got {_shown(policy)}")
    if policy == "one-turn-point":
        return lambda t: cdf_one_turn_point(model, t)
    if policy == "zero-turn-intersection":
        return lambda t: cdf_zero_turn_intersection(model, t)
    return lambda t: cdf_one_turn_intersection(model, t, tol=tol)


def reach_quantile(model: ModelParams, p: float, policy: str = "one-turn-point",
                   *, tol: float = 1e-6) -> float:
    """Smallest street distance t with F(t) >= p (e.g. the radius an
    electric vehicle must be able to cover so it finds a charging point
    with probability p). Every policy takes the one bracketed root solve,
    ``_bracketed_root``, which returns scipy.optimize.brentq's root on its
    bracket bit for bit, to 1e-9 relative; NoBracket when p is not reached
    by t = 2^60, every policy's search cap; p = 0 gives 0, where F(0) - p =
    0. Each quantile logs one INFO line: the policy, p, the curve calls and
    the wall time.
    """
    check_tol(tol)
    _check_record(model, ModelParams, "model")
    if not (_finite_real(p) and 0.0 <= p < 1.0):
        raise InputError(f"p must lie in [0, 1), got {_shown(p)}")
    p = float(p)
    cdf = _reach_cdf(policy, model, tol)
    start, calls = time.perf_counter(), 0

    def counted(t):
        nonlocal calls
        calls += 1
        return cdf(t)

    try:
        return _bracketed_root(counted, p, policy)
    finally:
        _log.info("reach quantile (%s) p=%r: %d curve calls, %.2f ms", policy, p, calls,
                  1e3 * (time.perf_counter() - start))


def _bracketed_root(cdf, p: float, policy: str) -> float:
    """Double the bracket from t = 1 until F(t) >= p (NoBracket past 2^60,
    for every curve), then solve F(t) = p in [0, t] with ``_brent``, which
    reuses the value at the bracket's top."""
    f = lambda t: cdf(t) - p
    hi = 1.0
    f_hi = f(hi)
    while f_hi < 0.0:
        hi *= 2.0
        if hi > _SEARCH_CAP:
            raise NoBracket(
                f"F(t) stays below p={p} up to the search cap {_SEARCH_CAP} for policy {policy}")
        f_hi = f(hi)
    return _brent(f, 0.0, hi, _XTOL, _RTOL, f_b=f_hi)


def _brent(f, a: float, b: float, xtol: float, rtol: float,
           maxiter: int = 100, f_b: float | None = None) -> float:
    """Root of f in the bracket [a, b] by Brent's method (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4).

    A port of scipy.optimize.brentq, step for step: the same evaluations in
    the same order, the same choice between secant interpolation, inverse
    quadratic extrapolation and bisection, and the same stop once half the
    bracket is below delta = (xtol + rtol*|x|)/2; so it returns brentq's
    root bit for bit. ``f_b``, when the caller already has f(b), stands in
    for that evaluation. ValueError when f(a) and f(b) have the same sign or
    f gives nan; RuntimeError when maxiter steps do not converge.
    """
    def call(x, fx=None):
        fx = float(f(x) if fx is None else fx)
        if math.isnan(fx):
            raise ValueError(f"f({_shown(x)}) is nan; the root solve cannot go on")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur, f_b)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({_shown(xpre)}) and f({_shown(xcur)}) must differ in sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre  # the root lies between xcur and xblk
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur holds the best iterate
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:  # a zero divisor gives inf or nan in C: bisect there too
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"no convergence in {maxiter} steps, last x {_shown(xcur)}")
