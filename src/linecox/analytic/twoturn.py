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
every row at those three abscissae and applies a Gauss-Legendre rule per
piece, graded toward both ends of the piece by x**2*(3 - 2*x). Next to the
pole exp(-mu*z) rises as exp(-m*q/|den|), over a width of order m*q, and
next to the kink it falls over a width of order 1/m (m and q below); a
plain rule resolves neither layer and converges only algebraically, the
graded one does. The theta_i rule is graded the same way, for the layer of
width of order q that the threshold has at the ends of the theta_i range.
Plain Riemann sums over the same integrand are the cross-check oracle in
the tests.

Ttilde depends on (w, u, t, mu) only through q = (u - w)/(t - w) and
m = mu*(t - w): the thresholds depend on q alone and mu*z = m*zeta with
zeta = max(0, 1 - q/den). Between the pole and the kink zeta is 0, so that
segment of every row survives whole and folds into the unit mass. The
bound's nested rule puts u = t*gu and w = u*gw at Gauss-Legendre nodes, so
q and (t - w)/t depend on the node indices only: each rung builds its
geometry once per call, at unit reach, and serves every t of the call
(``_ttilde``).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ..errors import DomainError, _shown
from ..model import ModelParams, _check_flag, _check_record, _check_t, _finite_real
from ..quadrature import _graded_legendre, _legendre, check_tol, settle_ladder
from .closed_forms import _rate_times, _ret_err

__all__ = ["two_turn_T", "cdf_two_turn_bound"]

log = logging.getLogger(__name__)

_PI = math.pi
_HALF_PI = 0.5 * math.pi
# theta_1 nodes built at once: a rung's (pair, theta_i) groups, two rows of
# n1 nodes each, are taken in chunks of _CHUNK_NODES // (2*n1) groups
_CHUNK_NODES = 2**15
_S_MAX = np.finfo(float).max


def _theta_i_rule(ni):
    """The theta_i nodes in (0, pi) and their weights: the graded rule of
    ``_graded_legendre`` on each half, since the threshold formula switches
    branch at pi/2 and a rule across the switch converges slowly."""
    tg, tw = _graded_legendre(ni // 2)
    return (np.concatenate([_HALF_PI * tg, _HALF_PI + _HALF_PI * tg]),
            np.concatenate([tw, tw]) * 0.5)


def _theta1_breaks(q, theta_i, cos_i, sin_i):
    """(A, kink, B) at q in [0, 1] and theta_i in (0, pi): the reachable
    theta_1 range [A, B] and the clamp kink where y + w = t, i.e.
    cot(theta_1) = (cos_i - q)/sin_i. The kink and the pole theta_1 =
    theta_i lie in [A, B] (docs/formulas.md, thm3-bound, "Orderings")."""
    lower_half = theta_i < _HALF_PI
    thr = _HALF_PI - np.arctan(  # arccot, mapped into (0, pi)
        np.where(lower_half, cos_i - q / sin_i, (q - cos_i) / sin_i))
    kink = _HALF_PI - np.arctan((cos_i - q) / sin_i)
    return np.where(lower_half, 0.0, thr), kink, np.where(lower_half, thr, _PI)


def _ttilde(q, c, s, ni, n1):
    """Ttilde at every pair and every s, one row per s.

    Pair p has q[p] = (u - w)/(t - w) and c[p] = t - w in some unit of
    length, and s is mu in the inverse unit, so mu*z = s*c[p]*zeta. Every
    pair has two rows per theta_i node: the theta_1 segment from A to the
    pole or the kink, whichever comes first, and the one from the other
    to B; both lie in [A, B] (``_theta1_breaks``), so neither row needs a
    clamp. Between pole and kink q/den >= 1, so zeta == 0 there and that
    segment adds its width to the unit mass pi - (B - A). The theta_i
    halves and the theta_1 segments take the graded rule of
    ``_graded_legendre``. The (pair, theta_i) groups are built and summed
    in chunks of _CHUNK_NODES // (2*n1) whole groups, and each chunk
    serves every s.
    """
    q, c, s = (np.asarray(a, dtype=float) for a in (q, c, s))
    # an s past the largest float acts as the largest: exp(-s*c*zeta) is 0
    # already there wherever zeta > 0, and inf * 0 would be nan
    s = np.minimum(s, _S_MAX)
    ti, tw = _theta_i_rule(ni)
    sg, swt = (col[:, None] for col in _graded_legendre(n1))  # (n1, 1)
    cos_ti, sin_ti = np.cos(ti), np.sin(ti)

    acc = np.zeros((s.size, q.size))
    unit = np.zeros(q.size)
    n_groups = ni * q.size
    step = max(1, _CHUNK_NODES // (2 * n1))
    buf = np.empty((3, 2 * n1 * min(step, n_groups)))
    for a in range(0, n_groups, step):
        pair, i = np.divmod(np.arange(a, min(a + step, n_groups)), ni)
        qr, theta_i, cos_i, sin_i = q[pair], ti[i], cos_ti[i], sin_ti[i]
        A, kink, B = _theta1_breaks(qr, theta_i, cos_i, sin_i)
        s1, s2 = np.minimum(theta_i, kink), np.maximum(theta_i, kink)
        # two rows per group: theta_1 in [A, s1] and in [s2, B]
        lo, width = np.empty((2, 2 * pair.size))
        lo[0::2], lo[1::2] = A, s2
        width[0::2], width[1::2] = s1, B
        width -= lo

        # nodes (n1, rows): theta_1 = lo + width*sg, then zeta
        x, den, g = (part[:n1 * lo.size].reshape(n1, lo.size) for part in buf)
        np.multiply(sg, width, out=x)
        x += lo
        np.tan(x, out=x)
        cr = c[pair]
        np.multiply(x, np.repeat(cos_i, 2), out=den)
        den -= np.repeat(sin_i, 2)
        # c*q/den with den = cos_i - sin_i*cot(theta_1), then -c*zeta; where a
        # huge c overflows them, +-inf gives zeta 0 or exp(-s*c*zeta) 0 alike
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x *= np.repeat(cr * qr, 2)
            x /= den
            if not qr.all():
                x[np.isnan(x)] = 0.0  # 0/0 only when u == w; y -> 0
            x -= np.repeat(cr, 2)
        np.minimum(x, 0.0, out=x)  # -zeta*m/s

        local = pair - pair[0]
        span = slice(pair[0], pair[-1] + 1)
        unit[span] += np.bincount(local, tw[i] * (_PI - (B - A) + (s2 - s1)))
        row_local = np.repeat(local, 2)
        rw = np.repeat(tw[i], 2) * width
        with np.errstate(over="ignore"):  # to -inf, whose exp is 0
            for k, sk in enumerate(s):
                np.multiply(x, sk, out=g)
                np.exp(g, out=g)
                g *= swt
                acc[k, span] += np.bincount(row_local, g.sum(axis=0) * rw)
    return (acc + unit) * _PI / _PI**2


def _bound_rung(lam, mu, t, nu, nw, ni, n1):
    """B at every point of t from one rung of the nested rule."""
    gu, wu = _legendre(nu)
    gw, ww = _legendre(nw)
    w = np.outer(gu, gw).ravel()  # (u, w) pairs at unit reach, u-major
    u = np.repeat(gu, nw)
    tt = _ttilde((u - w) / (1.0 - w), 1.0 - w, _rate_times(mu, t), ni, n1)
    out = np.empty(t.size)
    for k, (tk, rows) in enumerate(zip(t, tt.reshape(t.size, nu, nw))):
        tu = np.array([math.exp(-lam * float(uv) * float(((2.0 - row) * ww).sum()))
                       for uv, row in zip(tk * gu, rows)])
        out[k] = -math.expm1(-lam * float(tk) * float(((2.0 - tu) * wu).sum()))
    return out


# the last rungs are only reached near the corners, where a layer thins
# out: at w -> t the theta_1 layer next to the pole (width m*q), at u -> w
# the theta_i layer (width q)
_T_LADDER = ((64, 16), (128, 32), (256, 64), (512, 128), (1024, 256))
_B_LADDER = ((8, 8, 16, 12), (12, 12, 20, 16), (20, 20, 32, 24))


def two_turn_T(w: float, u: float, t: float, params: ModelParams,
               tol: float = 1e-6) -> float:
    """Normalized survival kernel Ttilde(w, u) in [0, 1]: the chance that a
    random-orientation third street entered from the first-turn street
    between arcs w and u carries no point within the remaining reach,
    unreachable orientations counting as survival 1.

    Near-parallel orientations are integrable limits and are folded in by
    continuity rather than raised. w, u and t are taken as floats, so a
    float32 argument gives the value of its double. The value settles up
    ``_T_LADDER``; QuadratureFailure when no two consecutive rungs agree
    to tol.
    """
    check_tol(tol)
    _check_record(params, ModelParams, "params")
    if not (all(_finite_real(x) for x in (w, u, t)) and 0.0 <= w <= u <= t):
        raise DomainError(f"need 0 <= w <= u <= t finite, got w={_shown(w)}, "
                          f"u={_shown(u)}, t={_shown(t)}")
    w, u, t = float(w), float(u), float(t)
    if w == t:
        return 1.0  # no reach left
    q, c = [(u - w) / (t - w)], [t - w]
    values, _ = settle_ladder(
        lambda r, tv: _ttilde(q, c, [params.mu], *_T_LADDER[r])[0],
        len(_T_LADDER), [t], tol,
        lambda tv: f"Ttilde did not settle to {tol} at w={w}, u={u}, t={t}",
        log, "Ttilde")
    return float(values[0])


def cdf_two_turn_bound(params: ModelParams, t, tol: float = 1e-5,
                       with_err: bool = False):
    """Upper bound B(t) for the directed exactly-two-turn distance CDF.

    Scalar or array t. Resolution ladder as in the one-turn intersection
    evaluator; QuadratureFailure when three levels cannot agree to tol.
    All points of a call share each rung's geometry. B(0) = 0, and at lam =
    0 (no streets to turn onto) every rung gives exactly 0. ``with_err``, a
    flag (``model._check_flag``), additionally returns the last increment.
    """
    arr = _check_t(t)
    check_tol(tol)
    _check_record(params, ModelParams, "params")
    with_err = _check_flag(with_err, "with_err")
    lam, mu = params.lam, params.mu

    def rung(r, tv):
        return _bound_rung(lam, mu, tv, *_B_LADDER[r])

    values, errors = np.zeros(arr.shape), np.zeros(arr.shape)
    pos = arr > 0.0
    values[pos], errors[pos] = settle_ladder(
        rung, len(_B_LADDER), arr[pos], tol,
        lambda tv: f"two-turn bound did not settle to {tol} at t={tv}",
        log, "two-turn bound")
    return _ret_err(values, errors, arr, with_err)
