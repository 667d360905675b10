"""The direct node sum of one ``thm2`` rung, the reference for its Laplace
table: the same nodes, weights and z = Z/t as ``intersection._build_table``
builds, with w*exp(-s*z) summed over every node for every s."""

import math

import numpy as np

from linecox.analytic import intersection
from linecox.analytic.intersection import (_REGIMES, _coefficients, _segment_rows,
                                           _thresholds, _zeta)
from linecox.quadrature import gauss_legendre


def direct_terms(s, nw, nx, n1):
    """(Tx/t, Ty/t) at every s of the array s, on the rule (nw, nx, n1)."""
    s = np.asarray(s, dtype=float)
    og, ow = gauss_legendre(nw)
    xg, xw = gauss_legendre(nx)
    sg, sgw = gauss_legendre(n1)
    omega = np.repeat(math.pi * og, nx)
    xr = np.tile(xg, nw)
    weight = np.outer(ow, xw).ravel() / math.pi
    sin_w, cos_w = np.sin(omega), np.cos(omega)
    outer_lo, win_lo, win_hi, outer_hi = _thresholds(xr, sin_w, cos_w)
    window = np.maximum(win_hi - win_lo, 0.0)

    fx = np.zeros(s.size)
    clipped_0 = clipped_4 = 0.0
    step = max(1, intersection._CHUNK_NODES // n1)
    segments = ((0.0, outer_lo), (outer_hi, math.pi), (outer_lo, win_lo),
                (win_hi, outer_hi))
    for (lo, hi), regime in zip(segments, _REGIMES):
        c, p, q = _coefficients(xr, sin_w, cos_w, regime)
        gap, width, mass, _, below, above = _segment_rows(lo, hi, omega, weight, c, p, q)
        clipped_0 += mass[below].sum()
        clipped_4 += mass[above].sum()
        rows = np.flatnonzero((mass > 0.0) & ~below & ~above)
        for a in range(0, rows.size, step):
            r = rows[a:a + step]
            v = np.tan(0.5 * width[r] * sg[:, None] + 0.5 * gap[r])
            zeta = np.clip(_zeta(v, c[r], p[r], None if q is None else q[r]), 0.0, 4.0)
            w = mass[r] * sgw[:, None]
            fx += [(w * np.exp(-sk * zeta)).sum() for sk in s]
    fx += sgw.sum() * (clipped_0 + clipped_4 * np.exp(-4.0 * s))

    win_weight = (window * weight).reshape(nw, nx).sum(axis=0)
    win = np.array([(win_weight * np.exp(-2.0 * sk * (1.0 - xg))).sum() for sk in s])
    return fx + win, win + float(((math.pi - window) * weight).sum())
