"""Monte Carlo estimation and curve comparison.

Determinism contract: trial i of a run draws from a counter-based stream
keyed (master seed, i), each trial is solved on its own, and every chunk's
lengths fold into integer counts, so the estimate is bit-identical no
matter how many worker processes execute it or how the trials are cut
into chunks. A chunk is the one unit of work: ``run_mc`` gives each chunk
as many trials as fit ``_CHUNK_BUDGET`` at their expected line pairs and
points, so that a chunk's draw and its kernel's layers stay bounded at any
density the sampler accepts. Curve metadata deliberately excludes the
worker count and any timestamps; ``run_mc`` reports its wall time and
throughput through ``logging`` instead.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import GridMismatch, InputError, _shown
from .model import (
    DistributionCurve,
    ModelParams,
    PalmScenario,
    TurnPolicy,
    _check_int,
    _check_record,
    _check_scalar_t,
    _finite_real,
)
from .oracle import _chunk_lengths
from .sampler import (
    _TRIAL_FIXED_COST,
    _check_inputs,
    _draw_chunk,
    _expected_lines,
)

__all__ = [
    "ComparisonReport",
    "dkw_halfwidth",
    "default_grid",
    "run_mc",
    "compare",
]

# expected cost of one chunk's trials, in the units of _chunk_trials. A
# chunk then draws within about 5 MiB near the sampler's caps and at
# lam = 0. At mu = 1, t_max = 3 it holds about 700 trials at lam 1, five
# at lam 16 and one from lam 27 on. The curve does not depend on it, since
# trial i draws from stream (seed, i) and the fold adds integer counts.
_CHUNK_BUDGET = 2**17
MAX_GRID_POINTS = 1_000_000  # a longer grid is refused before it is allocated

_log = logging.getLogger(__name__)


def dkw_halfwidth(n: int, alpha: float = 0.05) -> float:
    """Simultaneous ECDF confidence half width at level 1 - alpha
    (Dvoretzky-Kiefer-Wolfowitz with the tight constant). The sample count
    ``n`` goes through ``_check_int``; InputError below 1 or past the
    largest float."""
    n = _check_int(n, "n")
    if not (n >= 1 and _finite_real(n)):
        raise InputError(f"n must be finite and >= 1, got {_shown(n)}")
    if not (_finite_real(alpha) and 0.0 < float(alpha) < 1.0):
        raise InputError(f"alpha must be in (0, 1), got {_shown(alpha)}")
    alpha = float(alpha)
    ratio = 2.0 / alpha  # inf below alpha = 2/max; then the log of each factor
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(2.0) - math.log(alpha)
    return math.sqrt(log_ratio / (2.0 * n))


def _even_grid(start, stop, step, label: str) -> np.ndarray:
    """start, start + step, ...: a stop within 1e-12 of a step, relative to
    the larger of |start| and |stop|, ends the grid there, else the last
    step at or below stop does. InputError naming ``label`` for bad ends or
    step, more than MAX_GRID_POINTS points (before any is allocated) or
    points that do not strictly increase."""
    if not (all(map(_finite_real, (start, stop, step))) and step > 0
            and 0 <= stop - start < math.inf):
        raise InputError(f"{label} needs finite reals with step > 0 and stop >= start")
    start, stop, step = float(start), float(stop), float(step)
    steps = (stop - start) / step  # inf when the quotient overflows a float
    capped = min(steps, MAX_GRID_POINTS)  # int() never sees inf; capped still fails
    n = int(round(capped))
    scale = max(abs(start), abs(stop))  # the end test is scale-free, as the model is
    inclusive = n >= 1 and abs(start + n * step - stop) <= 1e-12 * scale
    if not inclusive:
        n = math.floor(capped + 1e-12)
        if start + n * step > stop:  # the quotient was rounded up past stop
            n -= 1
    if n >= MAX_GRID_POINTS:
        raise InputError(f"{label} has {steps + 1:.7g} points, more than the cap "
                         f"of {MAX_GRID_POINTS} points")
    grid = np.linspace(start, stop, n + 1) if inclusive else start + step * np.arange(n + 1)
    if not (np.diff(grid) > 0).all():
        raise InputError(f"{label} does not strictly increase: its step is too fine")
    return grid


def default_grid(t_max: float = 3.0, step: float = 0.01) -> np.ndarray:
    """0, step, 2*step, ... as ``--grid`` reads them: a t_max within 1e-12
    (relative to t_max) of a step ends the grid, else the last step at or
    below it."""
    return _even_grid(0.0, t_max, step,
                      f"the default grid to t_max {_shown(t_max)} by {_shown(step)}")


@functools.lru_cache(maxsize=1)
def _default_grid(t_max: float) -> np.ndarray:
    """``default_grid(t_max)``, read-only, for ``run_mc``: built once for a
    run of calls at one t_max. Only the last grid is kept, since a grid may
    hold a million points."""
    grid = default_grid(t_max)
    grid.setflags(write=False)
    return grid


def _chunk_trials(params: ModelParams, scenario: PalmScenario,
                  t_max: float) -> int:
    """Trials per chunk: as many as _CHUNK_BUDGET holds, and at least one.
    A trial with L = origin lines + lam*pi*t_max expected lines costs
    L*L, the line pairs that bound a kernel layer's labels, plus
    L*2*mu*t_max, a bound on the points it draws, plus the sampler's
    fixed cost of a trial, ``_TRIAL_FIXED_COST``."""
    lines = _expected_lines(params, scenario, t_max)
    cost = _TRIAL_FIXED_COST + lines * (lines + 2.0 * params.mu * t_max)
    return max(1, int(_CHUNK_BUDGET // cost))


def _mc_chunk(task) -> tuple[np.ndarray, int]:
    """Shortest lengths of trials start..stop-1 (inf when censored) and the
    number of lines they drew, clipped at t_max as ``sample_path`` clips:
    the cores of ``sample_chunk`` and ``chunk_lengths``, whose checks
    ``run_mc`` has made once for every chunk."""
    params, scenario, policy, t_max, master, start, stop = task
    chunk = _draw_chunk(params, scenario, t_max, master, start, stop)
    return _chunk_lengths(chunk, policy, t_max), int(chunk.angle.size)


def _chunk_results(tasks, n_chunks: int, workers: int):
    """``_mc_chunk`` of each task, in task order. A pool starts one process
    per two chunks, up to ``workers``, and keeps at most two chunks per
    process in flight, so neither the tasks nor their results pile up,
    however many there are. With fewer than two such processes the chunks
    run in this process."""
    # the fork start method starts every worker up front, and a process
    # repays its start-up only over two chunks or more
    workers = min(workers, n_chunks // 2)
    if workers < 2:
        yield from map(_mc_chunk, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        in_flight = deque()
        for task in tasks:
            in_flight.append(pool.submit(_mc_chunk, task))
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()


def run_mc(params: ModelParams, scenario: PalmScenario, policy: TurnPolicy,
           trials: int, t_max: float, seed: int, grid=None, workers: int = 1,
           alpha: float = 0.05) -> DistributionCurve:
    """Empirical CDF of the shortest-path length over fresh realizations.

    Returns a curve on ``grid`` (default 0..t_max step 0.01) with a DKW
    simultaneous band at level 1 - alpha. Identical (seed, trials) give a
    bit-identical curve for any worker count. ``t_max`` is checked as in
    ``sample_path`` (NonFinite, NegativeT, NonPositiveRadius at 0). Inputs denser than
    ``sampler.MAX_EXPECTED_LINES`` lines per trial raise ``TooManyLines``,
    and more than ``sampler.MAX_EXPECTED_POINTS`` points per line or
    ``sampler.MAX_TRIAL_POINTS`` points per trial ``TooManyPoints``, before
    any trial is drawn. Every policy runs the same way: each chunk of
    trials (``_chunk_trials`` of them) is drawn as one ``sample_chunk`` and
    solved at once by ``chunk_lengths``, the inputs checked once for all
    chunks, with up to ``workers`` processes
    (default 1), one per two chunks (in this process below four chunks). Each
    chunk's lengths are counted into the grid as the chunk arrives, in
    chunk order, so memory does not grow with ``trials``. Logs one INFO
    line with the trial count, the wall time, the throughput, the mean
    lines per trial, the censored fraction and the draw that ran
    (``compiled``, or ``python`` and the reason, ``_native.library()``,
    resolved before a pool starts so that its workers inherit it); none of
    it enters the curve.
    """
    started = time.perf_counter()
    trials = _check_int(trials, "trials")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {_shown(trials)}")
    if trials >= 2**63:  # the grid counts are np.int64
        raise InputError(f"trials must be < 2**63, got {_shown(trials)}")
    t_max = _check_inputs(params, scenario, _check_scalar_t(t_max, name="t_max"))
    _check_record(policy, TurnPolicy, "policy")
    halfwidth = dkw_halfwidth(trials, alpha)
    # a curve of the grid itself fails the finished curve's checks only on the grid
    grid = _default_grid(t_max) if grid is None else DistributionCurve(grid, grid, 0.0).grid
    if grid[0] < 0 or grid[-1] > t_max * (1.0 + 1e-12):
        raise InputError(f"grid spans [{_shown(float(grid[0]))}, "
                         f"{_shown(float(grid[-1]))}]; t_max censors at {_shown(t_max)}")
    workers = _check_int(workers, "workers")
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {_shown(workers)}")
    master = _check_int(seed, "seed")

    draw = _native.library()[1]
    size = _chunk_trials(params, scenario, t_max)
    chunks = range(0, trials, size)
    tasks = ((params, scenario, policy, t_max, master, lo, min(lo + size, trials))
             for lo in chunks)
    # counts[j] holds the finite lengths in (grid[j-1], grid[j]]; the last
    # bin those above the grid. Integer counts, so the curve is exact.
    counts = np.zeros(grid.size + 1, dtype=np.int64)
    n_lines = 0
    for lengths, lines in _chunk_results(tasks, len(chunks), workers):
        np.add.at(counts, grid.searchsorted(lengths[np.isfinite(lengths)]), 1)
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
        "alpha": float(alpha),
    }
    curve = DistributionCurve(grid, counts[:-1].cumsum() / float(trials),
                              halfwidth, meta)
    wall = time.perf_counter() - started
    _log.info("run_mc: %d trials, %.3f s, %.0f trials/s, "
              "%.1f lines/trial, censored fraction %.4f, draw %s", trials, wall,
              trials / wall if wall > 0 else math.inf, n_lines / trials,
              n_censored / trials, draw)
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
    _check_record(curve_a, DistributionCurve, "curve_a")
    _check_record(curve_b, DistributionCurve, "curve_b")
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
