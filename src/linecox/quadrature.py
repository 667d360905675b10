"""Adaptive quadrature wrappers used by the analytic evaluators.

``integrate_1d`` fronts the QUADPACK driver in scipy with break-point hints
and a hard subdivision budget; ``integrate_nested`` composes it for iterated
integrals whose inner bounds may depend on the outer variables. These are
the general, slow, trustworthy path; the production evaluators in
``linecox.analytic`` use fixed tensor rules for speed and are cross-checked
against this module (and against plain Riemann sums) in the tests.
``settle_ladder`` runs those fixed rules up a resolution ladder.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import BudgetExhausted, QuadratureFailure

__all__ = ["QuadSpec", "integrate_1d", "integrate_nested", "gauss_legendre",
           "settle_ladder"]


@dataclass(frozen=True)
class QuadSpec:
    """Tolerance and budget for one integration task.

    ``hints`` are interior abscissae where the integrand is known to kink or
    jump; they are forwarded to QUADPACK as break points so the adaptive
    rule never straddles them.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    max_subdivisions: int = 200
    hints: tuple = ()

    def __post_init__(self):
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if int(self.max_subdivisions) < 1:
            raise ValueError("max_subdivisions must be >= 1")


_DEFAULT = QuadSpec()


def integrate_1d(f, a: float, b: float, spec: QuadSpec | None = None):
    """Integrate f on [a, b]; returns (value, error_estimate).

    Raises BudgetExhausted (carrying the best value and estimate) when the
    tolerance is not met within the subdivision budget.
    """
    spec = spec or _DEFAULT
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"finite bounds required, got [{a}, {b}]")
    if a > b:
        raise ValueError(f"lower bound exceeds upper bound: [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    pts = sorted(p for p in spec.hints if a < p < b)
    out = integrate.quad(
        f, a, b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=int(spec.max_subdivisions),
        points=pts if pts else None,
        full_output=1,
    )
    if len(out) >= 4:
        # QUADPACK attached a warning message: budget or roundoff trouble.
        value, err = float(out[0]), float(out[1])
        raise BudgetExhausted(str(out[3]), value=value, error_estimate=err)
    return float(out[0]), float(out[1])


def _resolve(bound, outer):
    return float(bound(*outer)) if callable(bound) else float(bound)


def integrate_nested(f, region, spec: QuadSpec | None = None, hints=None):
    """Iterated integral of f over a (possibly curvilinear) box.

    ``region`` is a sequence of (lower, upper) pairs, outermost first; each
    bound is a number or a callable of the outer coordinates gathered so
    far. ``f`` takes the full coordinate vector as positional arguments.
    ``hints`` optionally gives per-level break points, each entry a tuple or
    a callable of the outer coordinates returning one.

    Returns (value, error_estimate). An empty level (upper <= lower) clips
    to zero mass. Inner failures propagate as QuadratureFailure with the
    coordinates of the failing panel attached.
    """
    spec = spec or _DEFAULT
    region = list(region)
    if not region:
        raise ValueError("region must have at least one level")
    hints = list(hints) if hints is not None else [None] * len(region)
    if len(hints) != len(region):
        raise ValueError("hints must align with region levels")
    return _nested(f, region, spec, hints, ())


def _nested(f, region, spec, hints, outer):
    lo = _resolve(region[0][0], outer)
    hi = _resolve(region[0][1], outer)
    if hi <= lo:
        return 0.0, 0.0
    level_hints = hints[0]
    if callable(level_hints):
        level_hints = level_hints(*outer)
    level_spec = spec if not level_hints else QuadSpec(
        spec.rel_tol, spec.abs_tol, spec.max_subdivisions, tuple(level_hints))

    if len(region) == 1:
        def leaf(x):
            return f(*outer, x)
        try:
            return integrate_1d(leaf, lo, hi, level_spec)
        except BudgetExhausted as exc:
            raise QuadratureFailure(
                f"innermost integral failed on [{lo}, {hi}] at outer={outer}: {exc}",
                value=exc.value, error_estimate=exc.error_estimate, where=outer,
            ) from exc

    inner_err = [0.0]

    def shell(x):
        val, err = _nested(f, region[1:], spec, hints[1:], outer + (x,))
        if err > inner_err[0]:
            inner_err[0] = err
        return val

    try:
        value, err = integrate_1d(shell, lo, hi, level_spec)
    except BudgetExhausted as exc:
        raise QuadratureFailure(
            f"integral failed on [{lo}, {hi}] at outer={outer}: {exc}",
            value=exc.value, error_estimate=exc.error_estimate, where=outer,
        ) from exc
    # Propagated inner noise: each shell evaluation is itself only accurate
    # to its own estimate, so widen by the worst one times the width.
    return value, err + inner_err[0] * (hi - lo)


def gauss_legendre(n: int):
    """Nodes and weights on [0, 1]; cached. The fixed tensor rules in
    linecox.analytic are built from these."""
    nodes, weights = _GL_CACHE.get(n, (None, None))
    if nodes is None:
        x, w = np.polynomial.legendre.leggauss(int(n))
        nodes = 0.5 * (x + 1.0)
        weights = 0.5 * w
        nodes.setflags(write=False)
        weights.setflags(write=False)
        _GL_CACHE[n] = (nodes, weights)
    return nodes, weights


_GL_CACHE: dict = {}


def settle_ladder(evaluate, rungs: int, t, tol: float, failure, log, name: str):
    """Run a resolution ladder of ``rungs`` rungs over the points t (all > 0).

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
