"""Fixed-rule quadrature shared by the analytic evaluators.

``_legendre`` and ``_graded_legendre`` give the cached rules, of the
orders the ladders of ``linecox.analytic`` name, and ``settle_ladder`` runs
them up a ladder, to a tolerance that ``check_tol`` admits. The evaluators
are cross-checked against plain Riemann sums in the tests.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
# numpy loads its polynomial submodule lazily; import it here so that the
# cost falls on `import linecox` and not on the first quadrature call
from numpy.polynomial.legendre import leggauss

from .errors import InputError, QuadratureFailure
from .model import _finite_real, _real


@functools.cache
def _legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], n >=
    1; cached, read-only."""
    x, w = leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.cache
def _graded_legendre(n: int):
    """The n-point rule on [0, 1] under the map g(x) = x**2*(3 - 2*x): nodes
    g(x) and weights w*g'(x) = 6*w*x*(1 - x); cached, read-only. g'
    vanishes at both ends, so the nodes crowd there, where a segment's
    integrand has a boundary layer."""
    x, w = _legendre(n)
    nodes, weights = x * x * (3.0 - 2.0 * x), 6.0 * w * x * (1.0 - x)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def check_tol(tol) -> None:
    """InputError unless the ladder tolerance ``tol`` is a ``_real`` number
    > 0 that a float holds (not nan or an int past the largest float): a bad
    tolerance is bad input, not a quadrature that failed."""
    if not (_real(tol) and tol > 0 and (tol == math.inf or _finite_real(tol))):
        raise InputError(f"tol must be > 0, got {tol!r}")


def settle_ladder(evaluate, rungs: int, t, tol: float, failure, log, name: str):
    """Run a resolution ladder of ``rungs`` rungs over the points t (all >= 0).

    ``evaluate(r, t)`` returns rung r's values at the points t, one entry
    (or one row) per point. A point settles at the first rung r >= 1 whose
    increment, the largest change of its entry against rung r - 1, is at
    most tol; only the points not yet settled go on to the next rung.
    Returns (values, increments). The first point, in the order of t, still
    unsettled after the last rung raises QuadratureFailure with the message
    ``failure(t_point)`` and that point's last value and increment. Each run
    logs one INFO line on ``log``: the points, how many settled at each rung,
    the largest last increment and the wall time.
    """
    start = time.perf_counter()
    t = np.asarray(t, dtype=float)
    active = np.arange(t.size)
    settled = [0] * rungs
    if t.size:
        prev = evaluate(0, t)
        values = np.empty_like(prev)
        increments = np.empty(t.size)
    else:
        values = increments = np.zeros(0)
    for r in range(1, rungs):
        if not active.size:
            break
        cur = evaluate(r, t[active])
        inc = np.abs(cur - prev)
        if inc.ndim > 1:
            inc = inc.max(axis=1)
        done = inc <= tol
        values[active[done]] = cur[done]
        increments[active[done]] = inc[done]
        settled[r] = int(done.sum())
        active, prev, last = active[~done], cur[~done], inc[~done]
    if active.size:
        value = prev[0]
        raise QuadratureFailure(
            failure(t[active[0]]),
            value=tuple(value.tolist()) if value.ndim else float(value),
            error_estimate=float(last[0]))
    log.info("%s: %d points, settled per rung %s, largest increment %.3g, "
             "%.1f ms", name, t.size,
             " ".join(f"{r + 1}:{n}" for r, n in enumerate(settled) if r),
             float(increments.max()) if increments.size else 0.0,
             1e3 * (time.perf_counter() - start))
    return values, increments
