"""Monte Carlo driver, its ECDF counts, and curve comparison."""

import hashlib
import json
import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from linecox import experiments
from linecox.analytic import (
    cdf_one_turn_point,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
)
from linecox.errors import GridMismatch, InputError
from linecox.experiments import (
    WORKERS_ENV,
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
    PolicyKind,
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


def test_run_mc_bit_identical_across_worker_counts(monkeypatch):
    """Same (seed, trials) must give the same curve no matter how the
    chunks are farmed out, and the metadata must not leak the worker
    count (700 trials spans two chunks). The pool never asks for more
    processes than there are chunks: with the fork start method every
    one of them is started up front. 2,600 trials are 6 chunks, more than
    the 4 that two workers keep in flight, so that window wraps."""
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

    # nor how its records are spelled: numpy-scalar intensities give the
    # float model's JSON meta, and a hand-built two-turn-directed policy
    # is its factory's, in meta and curve bytes
    two = run_mc(params, scenario, TurnPolicy.two_turn_directed(), workers=1, **kw)
    for spelled in (run_mc(ModelParams(np.int64(1), np.float32(1)), scenario,
                           TurnPolicy.two_turn_directed(), workers=1, **kw),
                    run_mc(params, PalmScenario("typical-point"),
                           TurnPolicy(PolicyKind.TWO_TURN_DIRECTED), workers=1, **kw)):
        assert json.dumps(spelled.meta) == json.dumps(two.meta)
        for name in ("grid", "values", "ci_halfwidth"):
            assert getattr(spelled, name).tobytes() == getattr(two, name).tobytes(), name
    assert two.meta["policy"] == {"kind": "two-turn-directed", "k": 2,
                                  "include_lower_turn_paths": True,
                                  "first_hop_positive_x": True}

    kw["trials"] = 2600
    d = run_mc(params, scenario, policy, workers=1, **kw)
    e = run_mc(params, scenario, policy, workers=2, **kw)
    assert asked == [2, 2, 2]
    for name in ("grid", "values", "ci_halfwidth"):
        assert getattr(d, name).tobytes() == getattr(e, name).tobytes(), name
    assert d.meta == e.meta and d.meta["trials"] == 2600


def test_run_mc_memory_does_not_grow_with_trials(monkeypatch):
    """run_mc keeps integer counts on the grid, not every trial's length:
    200,000 trials (391 chunks) peak at most 1.25 times as high as 2,048
    trials (4 chunks) under tracemalloc. Each chunk replays a copy of one
    real zero-turn chunk at sparse parameters (lam 0.5, mu 1, t_max 1,
    some censored), because tracing the sampler itself costs about 150 us
    a trial; what grows with the trial count is the driver's own memory."""
    params = ModelParams(0.5, 1.0)
    scenario = PalmScenario(PalmKind.TYPICAL_POINT)
    policy = TurnPolicy.zero_turn()
    lengths, lines = experiments._mc_chunk(
        (params, scenario, policy, 1.0, 3, 0, experiments._CHUNK))
    assert np.isinf(lengths).any() and np.isfinite(lengths).any()

    def replay(task):
        start, stop = task[-2:]
        return lengths[:stop - start].copy(), lines

    monkeypatch.setattr(experiments, "_mc_chunk", replay)
    peaks = []
    for trials in (2048, 200_000):
        tracemalloc.start()
        try:
            curve = run_mc(params, scenario, policy, trials, 1.0, 3, workers=1,
                           alpha=0.1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # censored trials keep their mass beyond t_max, so the curve tops
        # out at the finite fraction
        full, rest = divmod(trials, experiments._CHUNK)
        censored = full * int(np.isinf(lengths).sum()) + int(np.isinf(lengths[:rest]).sum())
        assert (curve.meta["trials"], curve.meta["censored"]) == (trials, censored)
        assert curve.values[-1] == (trials - censored) / trials
        assert curve.meta["alpha"] == 0.1
        assert np.all(curve.ci_halfwidth == dkw_halfwidth(trials, 0.1))
    assert peaks[1] <= 1.25 * peaks[0], peaks



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


@pytest.mark.parametrize("trials", [2**63, 10**400], ids=["2**63", "10**400"])
def test_run_mc_rejects_trials_past_int64_before_any_trial(monkeypatch, trials):
    """The grid counts are np.int64, so a count from 2**63 on is bad input
    (it was an OverflowError from dkw_halfwidth), raised before a chunk is
    drawn."""
    def refuse(*args):
        raise AssertionError("drew a chunk")

    monkeypatch.setattr(experiments, "sample_chunk", refuse)
    with pytest.raises(InputError, match="trials must be < 2"):
        run_mc(ModelParams(1.0, 1.0), PalmScenario(PalmKind.TYPICAL_POINT),
               TurnPolicy.zero_turn(), trials=trials, t_max=1.0, seed=1)


@pytest.mark.parametrize("bad, message", [
    ({"alpha": 0.0}, "alpha must be in"),
    ({"alpha": 1.0}, "alpha must be in"),
    ({"alpha": 1.5}, "alpha must be in"),
    ({"alpha": math.nan}, "alpha must be in"),
    ({"grid": [1.0, 0.5]}, "grid must be strictly increasing"),
    ({"grid": [0.0, math.nan]}, "grid must be strictly increasing"),
], ids=["alpha-0", "alpha-1", "alpha-1.5", "alpha-nan", "grid-decreasing",
        "grid-nan"])
def test_run_mc_checks_level_and_grid_before_any_trial(monkeypatch, bad, message):
    """A bad level or grid fails before the first chunk is drawn, with the
    error the finished curve would have raised."""
    calls = []

    def spy(*args):
        calls.append(args)
        return sample_chunk(*args)

    sample_chunk = experiments.sample_chunk
    monkeypatch.setattr(experiments, "sample_chunk", spy)
    with pytest.raises(ValueError, match=message):
        run_mc(ModelParams(1.0, 1.0), PalmScenario(PalmKind.TYPICAL_POINT),
               TurnPolicy.zero_turn(), trials=10, t_max=1.0, seed=1, **bad)
    assert calls == []


@pytest.mark.parametrize("scenario, policy", [
    (PalmScenario(PalmKind.TYPICAL_POINT), TurnPolicy.k_turn(2)),
    (PalmScenario(PalmKind.TYPICAL_INTERSECTION),
     TurnPolicy.k_turn(3, include_lower_turn_paths=False)),
    (PalmScenario(PalmKind.TYPICAL_POINT), TurnPolicy.two_turn_directed()),
], ids=["k2-point", "k3-exact-intersection", "two-turn-directed"])
def test_chunk_size_is_not_part_of_the_result(monkeypatch, scenario, policy):
    """Trial i draws from stream (seed, i), each trial is solved on its own
    and the fold adds integer counts, so the curve is the same bytes
    whatever the chunk size: 300 trials in chunks of 1, 97 and 512."""
    digests = set()
    for size in (1, 97, 512):
        monkeypatch.setattr(experiments, "_CHUNK", size)
        curve = run_mc(ModelParams(1.5, 0.8), scenario, policy, 300, 2.5, 31)
        digests.add(hashlib.md5(b"".join(
            np.ascontiguousarray(a, dtype="<f8").tobytes()
            for a in (curve.grid, curve.values, curve.ci_halfwidth))).hexdigest())
    assert len(digests) == 1


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
