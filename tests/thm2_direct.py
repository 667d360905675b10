"""The direct node sums of one ``thm2`` rung, the references for its Laplace
table: the same nodes, weights and z = Z/t as ``_thm2_build._build_table``
builds, with w*exp(-s*z) (``direct_terms``) or w*z*phi(s*z)
(``direct_slopes``) summed over every node for every s."""

import math

import numpy as np

from linecox.analytic import _thm2_build
from linecox.analytic._thm2_build import (_REGIMES, _coefficients, _segment_rows,
                                          _thresholds, _zeta)
from linecox.quadrature import _legendre


def _measure(nw, nx, n1):
    """The rule's measure of z = Z/t: (off_window, window, outside).
    ``off_window`` yields (w, z) arrays chunk by chunk, each segment's rows
    clipped to 0 and to 4 as one node each; ``window`` is the weight and z
    per x node, and ``outside`` the weight outside the window."""
    og, ow = _legendre(nw)
    xg, xw = _legendre(nx)
    sg, sgw = _legendre(n1)
    omega = np.repeat(math.pi * og, nx)
    xr = np.tile(xg, nw)
    weight = np.outer(ow, xw).ravel() / math.pi
    sin_w, cos_w = np.sin(omega), np.cos(omega)
    outer_lo, win_lo, win_hi, outer_hi = _thresholds(xr, sin_w, cos_w)
    window = np.maximum(win_hi - win_lo, 0.0)

    def off_window():
        step = max(1, _thm2_build._CHUNK_NODES // n1)
        segments = ((0.0, outer_lo), (outer_hi, math.pi), (outer_lo, win_lo),
                    (win_hi, outer_hi))
        for (lo, hi), regime in zip(segments, _REGIMES):
            c, p, q = _coefficients(xr, sin_w, cos_w, regime)
            gap, width, mass, below, above = _segment_rows(lo, hi, omega, weight, c, p, q)
            yield sgw.sum() * np.array([mass[below].sum(), mass[above].sum()]), \
                np.array([0.0, 4.0])
            rows = np.flatnonzero((mass > 0.0) & ~below & ~above)
            for a in range(0, rows.size, step):
                r = rows[a:a + step]
                v = np.tan(0.5 * width[r] * sg[:, None] + 0.5 * gap[r])
                zeta = np.clip(_zeta(v, c[r], p[r], q[r]), 0.0, 4.0)
                yield mass[r] * sgw[:, None], zeta

    win = ((window * weight).reshape(nw, nx).sum(axis=0), 2.0 * (1.0 - xg))
    return off_window(), win, float(((math.pi - window) * weight).sum())


def direct_terms(s, nw, nx, n1):
    """(Tx/t, Ty/t) at every s of the array s, on the rule (nw, nx, n1)."""
    s = np.asarray(s, dtype=float)
    off_window, (win_w, win_z), outside = _measure(nw, nx, n1)
    fx = np.zeros(s.size)
    for w, zeta in off_window:
        fx += [(w * np.exp(-sk * zeta)).sum() for sk in s]
    win = np.array([(win_w * np.exp(-sk * win_z)).sum() for sk in s])
    return fx + win, win + outside


def _phi(x):
    """-expm1(-x)/x, and its limit 1 at x = 0."""
    out = np.ones_like(x)
    pos = x > 0.0
    out[pos] = -np.expm1(-x[pos]) / x[pos]
    return out


def direct_slopes(s, nw, nx, n1):
    """(gx, gy) at every s of the array s, on the rule (nw, nx, n1): the
    sums of w*z*phi(s*z), phi(x) = -expm1(-x)/x, over the same nodes, so
    that 1 - Tx/t = s*gx and 1 - Ty/t = s*gy. A node whose s*z rounds to 0
    takes phi = 1, its limit."""
    s = np.asarray(s, dtype=float)
    off_window, (win_w, win_z), _ = _measure(nw, nx, n1)
    gx = np.zeros(s.size)
    for w, zeta in off_window:
        gx += [(w * zeta * _phi(sk * zeta)).sum() for sk in s]
    gy = np.array([(win_w * win_z * _phi(sk * win_z)).sum() for sk in s])
    return gx + gy, gy
