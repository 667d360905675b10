"""Monte Carlo estimation, curve comparison, and parameter sweeps.

Determinism contract: trial i of a run draws from a counter-based stream
keyed (master seed, i), chunks have a fixed size, and chunk results are
merged in submission order, so the estimate is bit-identical no matter how
many worker processes execute it. Curve metadata deliberately excludes the
worker count and any timestamps; ``run_mc`` reports its wall time and
throughput through ``logging`` instead.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch
from .model import (
    AngleLaw,
    DistributionCurve,
    ModelParams,
    PalmKind,
    PalmScenario,
    TurnPolicy,
)
from .oracle import _budget, chunk_lengths
from .sampler import _check_inputs, sample_chunk
from .analytic import (
    DEFAULT_VARIANT,
    cdf_naive_recursion,
    cdf_one_turn_intersection,
    cdf_one_turn_point,
    cdf_ppp2d_reference,
    cdf_two_turn_bound,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
    equivalent_ppp_density,
)

__all__ = [
    "EcdfEstimate",
    "ComparisonReport",
    "SweepSpec",
    "dkw_halfwidth",
    "default_grid",
    "run_mc",
    "compare",
    "figure_sweep",
    "resolve_workers",
]

_CHUNK = 512  # fixed regardless of worker count, part of the determinism contract
WORKERS_ENV = "LINECOX_WORKERS"

_log = logging.getLogger(__name__)


def dkw_halfwidth(n: int, alpha: float = 0.05) -> float:
    """Simultaneous ECDF confidence half width at level 1 - alpha
    (Dvoretzky-Kiefer-Wolfowitz with the tight constant)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def default_grid(t_max: float = 3.0, step: float = 0.01) -> np.ndarray:
    n = int(round(t_max / step))
    return np.linspace(0.0, n * step, n + 1)


def resolve_workers(workers=None) -> int:
    """Explicit argument beats the LINECOX_WORKERS environment variable
    beats 1."""
    if workers is None:
        workers = os.environ.get(WORKERS_ENV, "1")
    w = int(workers)
    if w < 1:
        raise ValueError(f"workers must be >= 1, got {w}")
    return w


@dataclass(frozen=True)
class EcdfEstimate:
    """Sorted finite distance samples plus the censoring bookkeeping.

    ``n_total`` counts every trial; censored trials (distance above t_max)
    keep their probability mass strictly beyond t_max, so the ECDF is exact
    on [0, t_max].
    """

    samples: np.ndarray
    n_total: int
    n_censored: int
    t_max: float

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float))
        if s.size and not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite; censored trials are counted, not stored")
        if self.n_total != s.size + self.n_censored:
            raise ValueError("n_total must equal len(samples) + n_censored")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def evaluate(self, grid) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        if np.any(grid > self.t_max + 1e-12):
            raise ValueError(f"grid exceeds censoring horizon t_max={self.t_max}")
        counts = np.searchsorted(self.samples, grid, side="right")
        return counts / float(self.n_total)

    def curve(self, grid, alpha: float = 0.05, meta=None) -> DistributionCurve:
        grid = np.asarray(grid, dtype=float)
        values = self.evaluate(grid)
        hw = np.full_like(grid, dkw_halfwidth(self.n_total, alpha))
        m = dict(meta or {})
        m.setdefault("estimator", "ecdf")
        m.update(trials=self.n_total, censored=self.n_censored,
                 t_max=self.t_max, alpha=alpha)
        return DistributionCurve(grid, values, hw, m)


def _mc_chunk(task) -> tuple[np.ndarray, int]:
    """Shortest lengths of trials start..stop-1 (inf when censored) and the
    number of lines they drew, clipped at t_max as ``sample_D`` clips."""
    params, scenario, policy, t_max, master, start, stop = task
    chunk = sample_chunk(params, scenario, t_max, master, start, stop)
    return chunk_lengths(chunk, policy, t_max), int(chunk.angle.size)


def run_mc(params: ModelParams, scenario: PalmScenario, policy: TurnPolicy,
           trials: int, t_max: float, seed: int, grid=None, workers=None,
           alpha: float = 0.05) -> DistributionCurve:
    """Empirical CDF of the shortest-path length over fresh realizations.

    Returns a curve on ``grid`` (default 0..t_max step 0.01) with a DKW
    simultaneous band at level 1 - alpha. Identical (seed, trials) give a
    bit-identical curve for any worker count. Inputs denser than
    ``sampler.MAX_EXPECTED_LINES`` lines per trial raise ``TooManyLines``,
    and more than ``sampler.MAX_EXPECTED_POINTS`` points per line
    ``TooManyPoints``, before any trial is drawn. Every policy runs the
    same way: each chunk of trials is drawn as one ``sample_chunk`` and
    solved at once by ``chunk_lengths``, with up to ``workers`` processes
    (never more than there are chunks). Logs one INFO line with the trial
    count, the wall time, the throughput, the mean lines per trial and the
    censored fraction; none of it enters the curve.
    """
    started = time.perf_counter()
    k = _budget(policy)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    t_max = float(t_max)
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    _check_inputs(params, scenario, t_max)
    grid = default_grid(t_max) if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0 or grid[0] < 0 or grid[-1] > t_max + 1e-12:
        raise ValueError("grid must lie within [0, t_max]")
    # the checks the finished curve makes, before any trial is drawn: the
    # level, then the grid's order and finiteness (a curve of the grid
    # itself fails only on the grid)
    dkw_halfwidth(trials, alpha)
    DistributionCurve(grid, grid, grid)
    workers = resolve_workers(workers)
    master = int(seed)

    tasks = [(params, scenario, policy, t_max, master, lo, min(lo + _CHUNK, trials))
             for lo in range(0, trials, _CHUNK)]
    if workers == 1 or len(tasks) == 1:
        chunks = [_mc_chunk(t) for t in tasks]
    else:
        # the fork start method starts every worker up front, so ask for
        # no more than there are chunks
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            chunks = list(pool.map(_mc_chunk, tasks))
    lengths = np.concatenate([c[0] for c in chunks])
    n_lines = sum(c[1] for c in chunks)

    finite = lengths[np.isfinite(lengths)]
    est = EcdfEstimate(finite, trials, int(trials - finite.size), t_max)
    meta = {
        "estimator": "monte-carlo",
        "params": {"lambda": params.lam, "mu": params.mu},
        "scenario": {"kind": scenario.kind.value,
                     "angle_law": scenario.angle_law.value},
        "policy": {"kind": policy.kind.value, "k": k,
                   "include_lower_turn_paths": policy.include_lower_turn_paths,
                   "first_hop_positive_x": policy.first_hop_positive_x},
        "seed": master,
    }
    curve = est.curve(grid, alpha, meta)
    wall = time.perf_counter() - started
    _log.info("run_mc: %d trials, %.3f s, %.0f trials/s, "
              "%.1f lines/trial, censored fraction %.4f", trials, wall,
              trials / wall if wall > 0 else math.inf, n_lines / trials,
              est.n_censored / trials)
    return curve


@dataclass(frozen=True)
class ComparisonReport:
    """Pointwise comparison of two curves on their common grid."""

    grid: np.ndarray
    ks_distance: float
    argmax_t: float
    inside_band: np.ndarray
    band: np.ndarray
    a_le_b: bool
    b_le_a: bool
    meta: dict = field(default_factory=dict)

    @property
    def inside_band_fraction(self) -> float:
        return float(np.mean(self.inside_band))

    @property
    def all_inside(self) -> bool:
        return bool(np.all(self.inside_band))


def _step_eval(curve: DistributionCurve, grid: np.ndarray):
    idx = np.searchsorted(curve.grid, grid, side="right") - 1
    idx = np.clip(idx, 0, curve.grid.size - 1)
    return curve.values[idx], curve.ci_halfwidth[idx]


def compare(curve_a: DistributionCurve, curve_b: DistributionCurve) -> ComparisonReport:
    """KS distance and band containment on the common grid.

    Equal grids are used as they are; otherwise the union of grid points
    restricted to the overlap, with each curve step-evaluated there. No
    usable overlap raises GridMismatch.
    """
    ga, gb = curve_a.grid, curve_b.grid
    if ga.size == gb.size and np.array_equal(ga, gb):
        common = ga
    else:
        lo, hi = max(ga[0], gb[0]), min(ga[-1], gb[-1])
        if hi < lo:
            raise GridMismatch(
                f"curves do not overlap: [{ga[0]}, {ga[-1]}] vs [{gb[0]}, {gb[-1]}]")
        # sorted union, as np.union1d gives it without loading numpy.ma
        pts = np.sort(np.concatenate((ga, gb)))
        pts = pts[np.append(True, pts[1:] != pts[:-1])]
        common = pts[(pts >= lo) & (pts <= hi)]
        if common.size < 2:
            raise GridMismatch("fewer than two common grid points")
    va, ha = _step_eval(curve_a, common)
    vb, hb = _step_eval(curve_b, common)
    diff = np.abs(va - vb)
    k = int(np.argmax(diff))
    band = ha + hb
    return ComparisonReport(
        grid=common,
        ks_distance=float(diff[k]),
        argmax_t=float(common[k]),
        inside_band=diff <= band,
        band=band,
        a_le_b=bool(np.all(va <= vb + 1e-12)),
        b_le_a=bool(np.all(vb <= va + 1e-12)),
        meta={"a": dict(curve_a.meta), "b": dict(curve_b.meta)},
    )


@dataclass(frozen=True)
class SweepSpec:
    """What figure_sweep should produce.

    ``pairs`` lists (lambda, mu) combinations. ``trials`` of 0 produces
    analytic curves only; positive adds the matching Monte Carlo estimates.
    The two-turn bound is evaluated on every ``bound_stride``-th grid point
    because it is the costly curve of the family.
    """

    pairs: tuple = ((1.0, 1.0),)
    t_max: float = 3.0
    grid: np.ndarray | None = None
    trials: int = 0
    seed: int = 1
    workers: int | None = None
    tol: float = 1e-6
    bound_stride: int = 5
    include_two_turn_bound: bool = True
    angle_law: AngleLaw = AngleLaw.UNIFORM


def _analytic_curve(grid, values, **meta) -> DistributionCurve:
    values = np.asarray(values, dtype=float)
    return DistributionCurve(grid, values, np.zeros_like(values),
                             {"estimator": "analytic", **meta})


def figure_sweep(spec: SweepSpec) -> dict:
    """All curves needed for the standard comparison figures, keyed
    '<curve>(lambda=..,mu=..)'. Curves: the one-turn point and intersection
    distributions, their zero-turn / inflated-intensity sandwich, the
    single-ray baseline, the equal-density planar Poisson reference, the
    directed two-turn bound, and (trials > 0) Monte Carlo companions."""
    grid = default_grid(spec.t_max) if spec.grid is None else np.asarray(spec.grid, float)
    out: dict = {}
    for lam, mu in spec.pairs:
        params = ModelParams(lam, mu)
        tag = f"(lambda={lam:g},mu={mu:g})"
        pmeta = {"params": {"lambda": lam, "mu": mu}}
        out[f"one-turn-point{tag}"] = _analytic_curve(
            grid, cdf_one_turn_point(params, grid), kind="one-turn-point", **pmeta)
        out[f"one-turn-intersection{tag}"] = _analytic_curve(
            grid, cdf_one_turn_intersection(params, grid, tol=spec.tol),
            kind="one-turn-intersection", variant=DEFAULT_VARIANT.label(), **pmeta)
        out[f"zero-turn-intersection{tag}"] = _analytic_curve(
            grid, cdf_zero_turn_intersection(params, grid),
            kind="zero-turn-intersection", **pmeta)
        out[f"upper-intersection{tag}"] = _analytic_curve(
            grid, cdf_upper_intersection(params, grid), kind="upper-intersection", **pmeta)
        out[f"single-ray{tag}"] = _analytic_curve(
            grid, cdf_naive_recursion(params, grid), kind="single-ray", **pmeta)
        density = equivalent_ppp_density(params)
        out[f"ppp-reference{tag}"] = _analytic_curve(
            grid, cdf_ppp2d_reference(density, grid), kind="ppp-reference",
            density=density, **pmeta)
        if spec.include_two_turn_bound:
            sub = grid[::max(1, int(spec.bound_stride))]
            out[f"two-turn-bound{tag}"] = _analytic_curve(
                sub, cdf_two_turn_bound(params, sub), kind="two-turn-bound", **pmeta)
        if spec.trials > 0:
            point = PalmScenario(PalmKind.TYPICAL_POINT)
            xing = PalmScenario(PalmKind.TYPICAL_INTERSECTION, spec.angle_law)
            out[f"mc-one-turn-point{tag}"] = run_mc(
                params, point, TurnPolicy.one_turn(), spec.trials, spec.t_max,
                spec.seed, grid, spec.workers)
            out[f"mc-one-turn-intersection{tag}"] = run_mc(
                params, xing, TurnPolicy.one_turn(), spec.trials, spec.t_max,
                spec.seed + 1, grid, spec.workers)
            out[f"mc-two-turn-point{tag}"] = run_mc(
                params, point, TurnPolicy.k_turn(2), spec.trials, spec.t_max,
                spec.seed + 2, grid, spec.workers)
    return out
