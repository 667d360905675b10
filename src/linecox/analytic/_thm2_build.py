"""The offline build of the ``thm2`` Laplace tables.

Each rung of ``intersection._LADDER`` is a fixed tensor rule at unit
reach, so its table is a fixed array: the same for every lam, mu and t.
``_build_table`` builds one rung's table from the geometry of the
one-turn window (``_thresholds``, ``_coefficients`` and ``_zeta``): every
node off the window goes into its bin like any other, with no special
case, and ``write_tables`` stores every rung's, with the
constants they were built with, in ``intersection._TABLES_PATH``: the
package data that ``intersection._table`` loads. Nothing on the
package's import path imports this module: ``tools/build_thm2_tables.py``
and the tests do.
"""

from __future__ import annotations

import math
import zipfile

import numpy as np

from ..quadrature import _legendre
from .intersection import _BIN, _BINS, _BUILT_WITH, _LADDER, _ORDER, _Table, _key

__all__ = ["write_tables"]

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


def _coefficients(xr, sin_w, cos_w, regime):
    """(c, p, q) of ``_zeta`` in one regime, per row; q = 0 in the outer
    regime, where d = 0."""
    a0, a1, a2, b, d = regime
    xs = xr * sin_w
    return a0 - xr * (a1 + a2 * cos_w), b * xs, d * xs


def _zeta(v, c, p, q):
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
    which are constant along omega1.
    """
    return c - (p / v + q * v)


# omega1 nodes built at once: a segment's rows are taken in chunks of
# _CHUNK_NODES // n1 rows
_CHUNK_NODES = 2**15


def _build_table(nw, nx, n1):
    """The Laplace table of one rung's fixed tensor rule: Gauss-Legendre in
    omega and x, the omega1 axis integrated per regime segment so no panel
    straddles a breakpoint.

    Z/t depends on (x/t, omega1, omega) alone, so the nodes, their weights
    w and z = Z/t are fixed numbers, and fx(s) = sum w*exp(-s*z) is the
    Laplace transform of one fixed measure on [0, 4] of total weight 1.
    What the slopes read of it is sum w*z*phi(s*z)
    (``intersection._rung_slopes``), to which the mass at z = 0 adds
    nothing. In the window z = 2*(1 - x/t) whatever the angles, so the
    window folds into one weight per x node; fy is that window plus the
    unit survival outside it, so gy is the window's part of gx.

    Off the window the four segments are taken one at a time, one row per
    (omega, x) pair: the row's nodes lie at omega1 = lo + width*u for the
    Gauss nodes u on [0, 1], and its weight is width*w. Every row of
    positive weight is built node by node, in chunks of _CHUNK_NODES
    nodes, and each chunk bins its nodes, z clipped to [0, 4], into the
    _BINS bins of width _BIN, keeping per bin the Taylor moments
    m[j, b] = sum w*(z - c_b)**j / j! about its centre c_b. The table's
    entries are the _BINS bins, then the window's x nodes, so the window
    starts at entry _BINS of every rung and the table stores no marker.
    A chunk's arrays are plain temporaries, so only ``moments`` lives
    across chunks: the build runs offline (``write_tables``), and the
    chunking alone bounds its memory.
    """
    og, ow = _legendre(nw)
    xg, xw = _legendre(nx)
    sg, sgw = _legendre(n1)
    omega = np.repeat(_PI * og, nx)  # (omega, x) pairs, omega-major
    xr = np.tile(xg, nw)
    weight = np.outer(ow, xw).ravel() / _PI
    sin_w, cos_w = np.sin(omega), np.cos(omega)
    outer_lo, win_lo, win_hi, outer_hi = _thresholds(xr, sin_w, cos_w)

    moments = np.zeros((_ORDER + 1, _BINS))
    step = max(1, _CHUNK_NODES // n1)
    col, col_w = sg[:, None], sgw[:, None]
    segments = ((0.0, outer_lo), (outer_hi, _PI), (outer_lo, win_lo),
                (win_hi, outer_hi))
    for (lo, hi), regime in zip(segments, _REGIMES):
        c, p, q = _coefficients(xr, sin_w, cos_w, regime)
        width = np.maximum(hi - lo, 0.0)
        gap = lo - omega
        mass = width * weight
        rows = np.flatnonzero(mass > 0.0)
        for a in range(0, rows.size, step):
            r = rows[a:a + step]
            v = np.tan(0.5 * width[r] * col + 0.5 * gap[r])
            zeta = np.clip(_zeta(v, c[r], p[r], q[r]), 0.0, 4.0)
            cell = np.minimum(np.floor(zeta * (1.0 / _BIN)), _BINS - 1)
            bin_of = cell.astype(np.intp).ravel()
            zeta -= (cell + 0.5) * _BIN
            term = mass[r] * col_w
            for j in range(_ORDER + 1):
                if j:
                    term *= zeta
                moments[j] += np.bincount(bin_of, weights=term.ravel(), minlength=_BINS)

    moments /= [[math.factorial(j)] for j in range(_ORDER + 1)]
    win_weight = ((win_hi - win_lo) * weight).reshape(nw, nx).sum(axis=0)
    centres = np.concatenate(((np.arange(_BINS) + 0.5) * _BIN, 2.0 * (1.0 - xg)))
    mass = np.concatenate((moments[0], win_weight))
    return _Table(np.pad(moments[1:], ((0, 0), (0, nx))), centres, mass * centres)


def write_tables(path) -> None:
    """Build every rung's table and write it to ``path`` as an uncompressed
    ``.npz`` that ``np.load`` reads: first the constants the tables are
    built with (``intersection._BUILT_WITH``), then each rung's ``_Table``
    fields, one array each (``intersection._key``). Each member carries a
    fixed timestamp (``np.savez`` stamps the time of writing), so the same
    tables give the same bytes."""
    entries = {name: np.asarray(value) for name, value in _BUILT_WITH.items()}
    for rung, rule in enumerate(_LADDER):
        for field, value in zip(_Table._fields, _build_table(*rule)):
            entries[_key(field, rung)] = np.asarray(value)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, value in entries.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, value, allow_pickle=False)
