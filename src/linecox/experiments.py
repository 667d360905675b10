"""Monte Carlo estimation, curve comparison, and parameter sweeps.

Determinism contract: trial i of a run draws from a counter-based stream
keyed (master seed, i), each trial is solved on its own, and every chunk's
lengths fold into integer counts, so the estimate is bit-identical no
matter how many worker processes execute it or how the trials are cut
into chunks. Curve metadata deliberately excludes the worker count and any
timestamps; ``run_mc`` reports its wall time and throughput through
``logging`` instead.
"""

from __future__ import annotations

import logging
import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InputError
from .model import (
    AngleLaw,
    DistributionCurve,
    ModelParams,
    PalmKind,
    PalmScenario,
    TurnPolicy,
    _check_int,
)
from .oracle import chunk_lengths
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
    "ComparisonReport",
    "SweepSpec",
    "dkw_halfwidth",
    "default_grid",
    "run_mc",
    "compare",
    "figure_sweep",
    "resolve_workers",
]

# trials per chunk; the curve does not depend on it, since trial i draws
# from stream (seed, i) and the fold adds integer counts
_CHUNK = 512
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
    beats 1. A float of integral value serves; 2.5 raises NotAnInteger."""
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    w = _check_int(workers, "workers")
    if w < 1:
        raise ValueError(f"workers must be >= 1, got {w}")
    return w


def _mc_chunk(task) -> tuple[np.ndarray, int]:
    """Shortest lengths of trials start..stop-1 (inf when censored) and the
    number of lines they drew, clipped at t_max as ``sample_path`` clips."""
    params, scenario, policy, t_max, master, start, stop = task
    chunk = sample_chunk(params, scenario, t_max, master, start, stop)
    return chunk_lengths(chunk, policy, t_max), int(chunk.angle.size)


def _chunk_results(tasks, n_chunks: int, workers: int):
    """``_mc_chunk`` of each task, in task order. One worker runs them in
    this process; more keep at most two chunks per process in flight, so
    neither the tasks nor their results pile up, however many there are."""
    if workers == 1 or n_chunks == 1:
        yield from map(_mc_chunk, tasks)
        return
    # the fork start method starts every worker up front, so ask for no
    # more than there are chunks
    workers = min(workers, n_chunks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        in_flight = deque()
        for task in tasks:
            in_flight.append(pool.submit(_mc_chunk, task))
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()


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
    (never more than there are chunks). Each chunk's lengths are counted
    into the grid as the chunk arrives, in chunk order, so memory does not
    grow with ``trials``. Logs one INFO line with the trial count, the wall
    time, the throughput, the mean lines per trial and the censored
    fraction; none of it enters the curve.
    """
    started = time.perf_counter()
    trials = _check_int(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials >= 2**63:  # the grid counts are np.int64
        raise InputError(f"trials must be < 2**63, got a {trials.bit_length()}-bit count")
    t_max = float(t_max)
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    _check_inputs(params, scenario, t_max)
    grid = default_grid(t_max) if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0 or grid[0] < 0:
        raise ValueError("grid must lie within [0, t_max]")
    if grid[-1] > t_max + 1e-12:
        raise ValueError(f"grid reaches {grid[-1]} but t_max censors at {t_max}")
    # the checks the finished curve makes, before any trial is drawn: the
    # level, then the grid's order and finiteness (a curve of the grid
    # itself fails only on the grid)
    halfwidth = dkw_halfwidth(trials, alpha)
    DistributionCurve(grid, grid, grid)
    workers = resolve_workers(workers)
    master = _check_int(seed, "seed")

    chunks = range(0, trials, _CHUNK)
    tasks = ((params, scenario, policy, t_max, master, lo, min(lo + _CHUNK, trials))
             for lo in chunks)
    # counts[j] holds the finite lengths in (grid[j-1], grid[j]]; the last
    # bin those above the grid. Integer counts, so the curve is exact.
    counts = np.zeros(grid.size + 1, dtype=np.int64)
    n_lines = 0
    for lengths, lines in _chunk_results(tasks, len(chunks), workers):
        np.add.at(counts, np.searchsorted(grid, lengths[np.isfinite(lengths)]), 1)
        n_lines += lines
    n_censored = trials - int(counts.sum())
    meta = {
        "estimator": "monte-carlo",
        "params": {"lambda": params.lam, "mu": params.mu},
        "scenario": {"kind": scenario.kind.value,
                     "angle_law": scenario.angle_law.value},
        "policy": {"kind": policy.kind.value, "k": policy.k,
                   "include_lower_turn_paths": policy.include_lower_turn_paths,
                   "first_hop_positive_x": policy.first_hop_positive_x},
        "seed": master,
        "trials": trials,
        "censored": n_censored,
        "t_max": t_max,
        "alpha": alpha,
    }
    curve = DistributionCurve(grid, np.cumsum(counts[:-1]) / float(trials),
                              halfwidth, meta)
    wall = time.perf_counter() - started
    _log.info("run_mc: %d trials, %.3f s, %.0f trials/s, "
              "%.1f lines/trial, censored fraction %.4f", trials, wall,
              trials / wall if wall > 0 else math.inf, n_lines / trials,
              n_censored / trials)
    return curve


@dataclass(frozen=True)
class ComparisonReport:
    """Pointwise comparison of two curves on their common grid."""

    grid: np.ndarray
    ks_distance: float
    argmax_t: float
    inside_band: np.ndarray
    a_le_b: bool
    b_le_a: bool

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
    return ComparisonReport(
        grid=common,
        ks_distance=float(diff[k]),
        argmax_t=float(common[k]),
        inside_band=diff <= ha + hb,
        a_le_b=bool(np.all(va <= vb + 1e-12)),
        b_le_a=bool(np.all(vb <= va + 1e-12)),
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
        pmeta = {"params": {"lambda": params.lam, "mu": params.mu}}
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
