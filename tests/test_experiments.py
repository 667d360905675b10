"""Monte Carlo driver, ECDF bookkeeping, and curve comparison."""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from linecox import experiments
from linecox.analytic import (
    cdf_one_turn_point,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
)
from linecox.errors import GridMismatch
from linecox.experiments import (
    WORKERS_ENV,
    EcdfEstimate,
    SweepSpec,
    compare,
    default_grid,
    dkw_halfwidth,
    figure_sweep,
    resolve_workers,
    run_mc,
)
from linecox.model import (
    DistributionCurve,
    ModelParams,
    PalmKind,
    PalmScenario,
    TurnPolicy,
)


def _analytic(grid, values, **meta):
    values = np.asarray(values, dtype=float)
    return DistributionCurve(np.asarray(grid, float), values,
                             np.zeros_like(values), meta)


def test_dkw_halfwidth_hand_values_and_validation():
    assert dkw_halfwidth(100_000, 0.05) == pytest.approx(
        0.004294694083467375, rel=1e-15)
    assert dkw_halfwidth(1, 0.05) == pytest.approx(1.3581015157406195, rel=1e-15)
    # quadrupling the sample halves the band
    assert dkw_halfwidth(4000) == pytest.approx(dkw_halfwidth(1000) / 2.0)
    with pytest.raises(ValueError):
        dkw_halfwidth(0)
    for alpha in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            dkw_halfwidth(100, alpha)


def test_default_grid_endpoints_and_step():
    g = default_grid()
    assert g.size == 301
    assert g[0] == 0.0 and g[-1] == 3.0
    assert np.allclose(np.diff(g), 0.01)
    assert np.array_equal(default_grid(1.0, 0.25),
                          [0.0, 0.25, 0.5, 0.75, 1.0])


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert resolve_workers() == 4
    assert resolve_workers(2) == 2  # explicit argument wins over the env
    with pytest.raises(ValueError):
        resolve_workers(0)
    monkeypatch.setenv(WORKERS_ENV, "0")
    with pytest.raises(ValueError):
        resolve_workers()


def test_ecdf_estimate_evaluate_and_censoring():
    """One finite sample and one censored trial: the ECDF tops out at 1/2
    on the observable window because the censored mass sits beyond t_max."""
    est = EcdfEstimate(samples=[0.5], n_total=2, n_censored=1, t_max=1.0)
    got = est.evaluate([0.4, 0.5, 0.6, 1.0])
    assert np.array_equal(got, [0.0, 0.5, 0.5, 0.5])

    with pytest.raises(ValueError):
        EcdfEstimate(samples=[0.5], n_total=3, n_censored=1, t_max=1.0)
    with pytest.raises(ValueError):
        EcdfEstimate(samples=[np.inf], n_total=1, n_censored=0, t_max=1.0)
    with pytest.raises(ValueError):
        est.evaluate([0.5, 1.2])

    # stored samples come back sorted and frozen
    est2 = EcdfEstimate(samples=[0.9, 0.1], n_total=2, n_censored=0, t_max=1.0)
    assert np.array_equal(est2.samples, [0.1, 0.9])
    with pytest.raises(ValueError):
        est2.samples[0] = 0.0


def test_ecdf_curve_band_and_metadata():
    rng = np.random.default_rng(0)
    s = rng.uniform(0.0, 1.0, size=40)
    est = EcdfEstimate(samples=s, n_total=50, n_censored=10, t_max=1.0)
    grid = np.linspace(0.0, 1.0, 21)
    curve = est.curve(grid, alpha=0.1, meta={"tagged": True})
    assert np.all(curve.ci_halfwidth == dkw_halfwidth(50, 0.1))
    assert curve.meta["tagged"] is True
    assert curve.meta["estimator"] == "ecdf"
    assert curve.meta["trials"] == 50
    assert curve.meta["censored"] == 10
    assert curve.meta["alpha"] == 0.1
    assert np.all(np.diff(curve.values) >= 0.0)
    assert curve.values[0] == 0.0 and curve.values[-1] <= 0.8 + 1e-12


def test_run_mc_bit_identical_across_worker_counts(monkeypatch):
    """Same (seed, trials) must give the same curve no matter how the
    chunks are farmed out, and the metadata must not leak the worker
    count (700 trials spans two chunks). The pool never asks for more
    processes than there are chunks: with the fork start method every
    one of them is started up front."""
    params = ModelParams(1.0, 1.0)
    scenario = PalmScenario(PalmKind.TYPICAL_POINT)
    policy = TurnPolicy.one_turn()
    kw = dict(trials=700, t_max=2.0, seed=11)
    asked = []

    def pool(max_workers):
        asked.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", pool)
    a = run_mc(params, scenario, policy, workers=1, **kw)
    b = run_mc(params, scenario, policy, workers=2, **kw)
    c = run_mc(params, scenario, policy, workers=8, **kw)
    assert asked == [2, 2]
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, c.values)
    assert np.array_equal(a.grid, b.grid)
    assert a.meta == b.meta == c.meta
    assert set(a.meta) == {"alpha", "censored", "estimator", "params",
                           "policy", "scenario", "seed", "t_max", "trials"}

    again = run_mc(params, scenario, policy, workers=1, **kw)
    assert np.array_equal(a.values, again.values)
    other = run_mc(params, scenario, policy, trials=700, t_max=2.0, seed=12)
    assert not np.array_equal(a.values, other.values)


def test_run_mc_validation_and_single_trial():
    params = ModelParams(1.0, 1.0)
    scenario = PalmScenario(PalmKind.TYPICAL_POINT)
    policy = TurnPolicy.zero_turn()
    with pytest.raises(ValueError):
        run_mc(params, scenario, policy, trials=0, t_max=1.0, seed=1)
    with pytest.raises(ValueError):
        run_mc(params, scenario, policy, trials=10, t_max=0.0, seed=1)
    with pytest.raises(ValueError):
        run_mc(params, scenario, policy, trials=10, t_max=np.inf, seed=1)
    with pytest.raises(ValueError):
        run_mc(params, scenario, policy, trials=10, t_max=1.0, seed=1,
               grid=[-0.1, 0.5])
    with pytest.raises(ValueError):
        run_mc(params, scenario, policy, trials=10, t_max=1.0, seed=1,
               grid=[0.0, 1.5])

    one = run_mc(params, scenario, policy, trials=1, t_max=2.0, seed=5)
    assert set(np.unique(one.values)) <= {0.0, 1.0}
    assert np.all(np.diff(one.values) >= 0.0)


def test_run_mc_band_covers_known_distribution():
    """With no crossing streets the one-street reach is Exp(2 mu), so the
    simultaneous band should contain that CDF in well over 90 percent of
    independent runs (the band is built to miss at most 5 percent)."""
    params = ModelParams(0.0, 1.0)
    scenario = PalmScenario(PalmKind.TYPICAL_POINT)
    policy = TurnPolicy.zero_turn()
    hw = dkw_halfwidth(400, 0.05)
    misses = 0
    for s in range(60):
        curve = run_mc(params, scenario, policy, trials=400, t_max=3.0,
                       seed=1000 + s)
        truth = -np.expm1(-2.0 * curve.grid)
        misses += np.max(np.abs(curve.values - truth)) > hw
    assert misses <= 6


def test_compare_identical_curves():
    params = ModelParams(1.0, 2.0)
    grid = default_grid(2.0, 0.05)
    a = _analytic(grid, cdf_one_turn_point(params, grid))
    report = compare(a, a)
    assert report.ks_distance == 0.0
    assert report.a_le_b and report.b_le_a
    assert report.all_inside
    assert report.inside_band_fraction == 1.0
    assert np.array_equal(report.grid, grid)


def test_compare_detects_strict_ordering():
    params = ModelParams(1.0, 1.0)
    grid = default_grid(2.0, 0.05)
    lo = _analytic(grid, cdf_zero_turn_intersection(params, grid))
    hi = _analytic(grid, cdf_upper_intersection(params, grid))
    report = compare(lo, hi)
    assert report.a_le_b and not report.b_le_a
    assert report.ks_distance > 0.1
    assert report.argmax_t in grid
    # analytic curves carry zero bands, so any gap falls outside
    assert not report.all_inside
    assert 0.0 < report.inside_band_fraction < 1.0

    # with a band wide enough, the same gap is covered
    wide = DistributionCurve(grid, lo.values, np.ones_like(grid), {})
    assert compare(wide, hi).all_inside


def test_compare_union_grid_and_mismatch():
    f = lambda g: -np.expm1(-np.asarray(g, float))
    a = _analytic([0.0, 0.5, 1.0], f([0.0, 0.5, 1.0]))
    b = _analytic([0.25, 0.75, 1.25], f([0.25, 0.75, 1.25]))
    report = compare(a, b)
    assert np.array_equal(report.grid, [0.25, 0.5, 0.75, 1.0])

    with pytest.raises(GridMismatch):
        compare(a, _analytic([2.0, 3.0], f([2.0, 3.0])))
    with pytest.raises(GridMismatch):
        compare(_analytic([0.0, 1.0], f([0.0, 1.0])),
                _analytic([1.0, 2.0], f([1.0, 2.0])))


def test_figure_sweep_curve_family():
    grid = np.linspace(0.0, 0.5, 11)
    tag = "(lambda=1,mu=1)"
    analytic_keys = {
        f"one-turn-point{tag}", f"one-turn-intersection{tag}",
        f"zero-turn-intersection{tag}", f"upper-intersection{tag}",
        f"single-ray{tag}", f"ppp-reference{tag}", f"two-turn-bound{tag}",
    }

    out = figure_sweep(SweepSpec(pairs=((1.0, 1.0),), t_max=0.5, grid=grid,
                                 trials=0, bound_stride=5))
    assert set(out) == analytic_keys
    for key in analytic_keys:
        c = out[key]
        assert np.all((0.0 <= c.values) & (c.values <= 1.0))
        assert np.all(np.diff(c.values) >= -1e-12)
        assert np.all(c.ci_halfwidth == 0.0)
    assert np.array_equal(out[f"two-turn-bound{tag}"].grid, grid[::5])
    assert np.array_equal(out[f"one-turn-point{tag}"].values,
                          cdf_one_turn_point(ModelParams(1.0, 1.0), grid))
    # the sandwich holds pointwise
    assert np.all(out[f"zero-turn-intersection{tag}"].values
                  <= out[f"one-turn-intersection{tag}"].values + 1e-12)
    assert np.all(out[f"one-turn-intersection{tag}"].values
                  <= out[f"upper-intersection{tag}"].values + 1e-12)

    out = figure_sweep(SweepSpec(pairs=((1.0, 1.0),), t_max=0.5, grid=grid,
                                 trials=8, seed=3, bound_stride=5,
                                 include_two_turn_bound=False))
    mc_keys = {f"mc-one-turn-point{tag}", f"mc-one-turn-intersection{tag}",
               f"mc-two-turn-point{tag}"}
    assert set(out) == (analytic_keys - {f"two-turn-bound{tag}"}) | mc_keys
    for key in mc_keys:
        assert out[key].meta["trials"] == 8
