"""Correctness checks on what the benchmark's jobs returned.

Every job is checked against facts that hold for any seed: CDFs lie in
[0, 1] and never decrease, Monte Carlo curves sit inside the DKW band of the
exact curve their scenario and policy are pinned to (or on the correct side
of a bound), ``cor1 <= thm2 <= cor2``, quantiles solve their equation, and
CLI files read back to the library's values. For the seeds in ``frozen.json``
each job's output must also match the output frozen from the commit that
defined the benchmark, within the evaluator's own tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import linecox as lc

from .execute import CLOSED_FORMS, MALFORMED_EXITS, THM2_TOL, THM3_TOL, model_of

# per-job DKW level; over thousands of jobs a false alarm stays below 1e-5
DKW_ALPHA = 1e-9
EXPORT_STRIDE = 100  # frozen export values are kept at every 100th grid point
FROZEN_PATH = Path(__file__).with_name("frozen.json")

# frozen-output tolerance per job kind, as (absolute, relative)
FROZEN_TOL = {"thm2": (THM2_TOL, 0.0), "thm3": (THM3_TOL, 0.0),
              "reach": (0.0, 1e-9), "reach-one-turn-intersection": (1e-4, 0.0),
              "success": (1e-12, 1e-12), "export": (1e-12, 0.0),
              "compare": (1e-12, 0.0)}


def curve_md5(curve) -> str:
    """Digest of an MC curve's grid, values and band, as float64 bytes."""
    h = hashlib.md5()
    for arr in (curve.grid, curve.values, curve.ci_halfwidth):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def _cdf_problems(values, slack=0.0) -> list[str]:
    v = np.asarray(values, dtype=float)
    out = []
    if not np.all(np.isfinite(v)):
        out.append("non-finite value")
    elif v.min() < -slack or v.max() > 1.0 + slack:
        out.append(f"value outside [0, 1]: [{v.min()!r}, {v.max()!r}]")
    if v.size > 1 and np.min(np.diff(v)) < -slack:
        out.append(f"decreasing by {-np.min(np.diff(v))!r}")
    return out


def _mc_problems(job, curve) -> list[str]:
    out = _cdf_problems(curve.values)
    if curve.meta.get("trials") != job["trials"]:
        out.append(f"trials {curve.meta.get('trials')} != {job['trials']}")
    model, t, F = model_of(job), curve.grid, curve.values
    h = lc.dkw_halfwidth(job["trials"], DKW_ALPHA)
    point = job["scenario"] == "point"
    policy = job["policy"]
    # (reference, side): side 0 = inside the band, +1 = F at least ref - h,
    # -1 = F at most ref + h
    refs = []
    if policy == "zero-turn":
        ref = (lc.cdf_one_turn_point(lc.ModelParams(0.0, job["mu"]), t) if point
               else lc.cdf_zero_turn_intersection(model, t))
        refs.append(("exact zero-turn", ref, 0))
    elif policy == "one-turn" and point:
        refs.append(("thm1", lc.cdf_one_turn_point(model, t), 0))
    elif policy == "one-turn":
        refs.append(("cor1", lc.cdf_zero_turn_intersection(model, t), +1))
        refs.append(("cor2", lc.cdf_upper_intersection(model, t), -1))
    elif policy == "two-turn-directed":
        refs.append(("directed zero-turn", lc.cdf_naive_recursion(model, t), +1))
    else:  # k-turn, k >= 2: more turns only shorten the path
        ref = (lc.cdf_one_turn_point(model, t) if point
               else lc.cdf_zero_turn_intersection(model, t))
        refs.append(("one-turn floor", ref, +1))
    for name, ref, side in refs:
        gap = F - ref
        worst = {0: np.max(np.abs(gap)), +1: -np.min(gap), -1: np.max(gap)}[side]
        if worst > h:
            out.append(f"outside the DKW band of {name}: {worst!r} > {h!r}")
    return out


def _read_curve_csv(path):
    lines = Path(path).read_text().splitlines()
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return lines[0], rows


def _export_problems(job, path) -> list[str]:
    header, rows = _read_curve_csv(path)
    if header != "t,F,err_est":
        return [f"header {header!r}"]
    grid = lc.default_grid(3.0)
    if rows.shape != (grid.size, 3) or np.max(np.abs(rows[:, 0] - grid)) > 1e-12:
        return [f"grid of shape {rows.shape} differs from the requested {job['grid']}"]
    out = _cdf_problems(rows[:, 1])
    expect = CLOSED_FORMS[job["which"]](model_of(job), grid)
    if np.max(np.abs(rows[:, 1] - expect)) > 1e-12:
        out.append("exported values differ from the library's")
    if np.any(rows[:, 2] != 0.0):
        out.append("closed form with a nonzero error estimate")
    return out


def _compare_problems(path) -> list[str]:
    rep = json.loads(Path(path).read_text())
    out = []
    if not 0.0 <= rep["ks"] <= 1.0:
        out.append(f"ks {rep['ks']!r} outside [0, 1]")
    if rep["n_grid"] != lc.default_grid(3.0).size:
        out.append(f"n_grid {rep['n_grid']}")
    if not rep["pointwise_a_le_b"]:
        out.append("pair with a <= b reported out of order")
    return out


def _reach_problems(job, q) -> list[str]:
    if not (math.isfinite(q) and q > 0.0):
        return [f"quantile {q!r}"]
    model, p = model_of(job), job["p"]
    if job["policy"] == "one-turn-intersection":
        # cor1 <= F <= cor2 brackets the quantile between theirs
        lo = -math.log1p(-p) / (4.0 * (model.mu + 4.0 * model.lam))
        hi = -math.log1p(-p) / (4.0 * model.mu)
        return [] if lo <= q <= hi else [f"quantile {q!r} outside [{lo!r}, {hi!r}]"]
    cdf = (lc.cdf_one_turn_point if job["policy"] == "one-turn-point"
           else lc.cdf_zero_turn_intersection)
    miss = abs(cdf(model, q) - p)
    return [] if miss <= 1e-9 else [f"F(quantile) misses p by {miss!r}"]


def _thm2_problems(job, values) -> list[str]:
    out = _cdf_problems(values, 2 * THM2_TOL)
    grid = np.array(job["grid"])
    model = model_of(job)
    lo = lc.cdf_zero_turn_intersection(model, grid) - THM2_TOL
    hi = lc.cdf_upper_intersection(model, grid) + THM2_TOL
    if np.any(values < lo) or np.any(values > hi):
        out.append("thm2 outside [cor1, cor2]")
    return out


def check_record(rec) -> list[str]:
    """Problems with one job's outcome; empty when it is correct. A failed
    request (uncaught exception or undocumented exit) is a problem too."""
    job, out = rec.job, rec.output
    if rec.error is not None:
        return [f"uncaught {rec.error}"]
    kind = job["kind"]
    if kind == "mc":
        return _mc_problems(job, out)
    if kind == "thm2":
        return _thm2_problems(job, out)
    if kind == "thm3":
        return _cdf_problems(out, 2 * THM3_TOL)
    if kind == "reach":
        return _reach_problems(job, out)
    if kind == "success":
        return _cdf_problems([out])
    if kind == "export":
        return _export_problems(job, out)
    if kind == "compare":
        return _compare_problems(out)
    if kind == "malformed":
        return [] if out in MALFORMED_EXITS else [f"undocumented exit {out!r}"]
    raise ValueError(f"unknown job kind {kind!r}")


def summary(rec):
    """The part of a job's output that is frozen and compared later: an MC
    curve's md5, analytic values, a quantile, an export's values at every
    ``EXPORT_STRIDE``-th grid point, a compare's KS distance. None for jobs
    that are not frozen (malformed requests, failed jobs)."""
    if rec.error is not None:
        return None
    kind, out = rec.job["kind"], rec.output
    if kind == "mc":
        return curve_md5(out)
    if kind in ("thm2", "thm3"):
        return [float(v) for v in out]
    if kind in ("reach", "success"):
        return float(out)
    if kind == "export":
        return [float(v) for v in _read_curve_csv(out)[1][::EXPORT_STRIDE, 1]]
    if kind == "compare":
        return float(json.loads(Path(out).read_text())["ks"])
    return None


def _tol_key(job):
    if job["kind"] == "reach" and job["policy"] == "one-turn-intersection":
        return "reach-one-turn-intersection"
    return job["kind"]


def frozen_problems(job, got, want) -> list[str]:
    """Compare a job's summary with its frozen one."""
    if job["kind"] == "mc":
        return [] if got == want else [f"md5 {got} != frozen {want}"]
    if got is None:
        return ["no output to compare with the frozen one"]
    atol, rtol = FROZEN_TOL[_tol_key(job)]
    g, w = np.atleast_1d(got), np.atleast_1d(want)
    if g.shape != w.shape:
        return [f"{got!r} has another shape than frozen {want!r}"]
    gap = np.max(np.abs(g - w) - rtol * np.abs(w))
    return [] if gap <= atol else [f"differs from frozen by {gap!r} > {atol!r}"]


def load_frozen(workload: str, seed: int) -> dict:
    """Frozen summaries by job id, or {} for a seed that has none."""
    with open(FROZEN_PATH) as fh:
        return json.load(fh)["workloads"].get(workload, {}).get(str(int(seed)), {})


def w2_problems(c1, c2) -> list[str]:
    """workers=1 and workers=2 must give byte-identical curves."""
    same = curve_md5(c1) == curve_md5(c2) and c1.meta == c2.meta
    return [] if same else ["workers=2 differs from workers=1"]
