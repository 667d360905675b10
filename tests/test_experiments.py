"""Monte Carlo driver, its ECDF counts, and curve comparison."""

import hashlib
import json
import concurrent.futures
import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linecox import experiments, sampler
from linecox.analytic import (
    cdf_one_turn_point,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
)
from linecox.cli import parse_grid
from linecox.errors import (
    GridMismatch,
    InputError,
    NegativeT,
    NonFinite,
    NonPositiveRadius,
)
from linecox.experiments import (
    MAX_GRID_POINTS,
    _even_grid,
    compare,
    default_grid,
    dkw_halfwidth,
    run_mc,
)
from linecox.model import (
    DistributionCurve,
    ModelParams,
    PalmKind,
    PalmScenario,
    PolicyKind,
    TurnPolicy,
    typical_point,
)
from linecox.oracle import sample_path
from linecox.sampler import MAX_EXPECTED_LINES, MAX_EXPECTED_POINTS


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


@pytest.mark.parametrize("alpha", [1e-309, 5e-324])
def test_dkw_halfwidth_where_two_over_alpha_overflows(alpha):
    """Below alpha = 2/max, about 1.1e-308, 2/alpha overflows to inf; the
    log is then taken factor by factor, log 2 - log alpha, and the band
    keeps its closed value."""
    closed = math.sqrt((math.log(2.0) - math.log(alpha)) / 2000.0)
    assert dkw_halfwidth(1000, alpha) == pytest.approx(closed, rel=1e-15)


def test_run_mc_returns_its_curve_where_two_over_alpha_overflows():
    """An inf band used to fail the finished curve's check, after every
    trial had run."""
    curve = run_mc(ModelParams(1.0, 1.0), PalmScenario(PalmKind.TYPICAL_POINT),
                   TurnPolicy.one_turn(), trials=200, t_max=2.0, seed=1, alpha=1e-309)
    assert np.all(curve.ci_halfwidth == dkw_halfwidth(200, 1e-309))
    assert np.all(np.isfinite(curve.ci_halfwidth))


@pytest.mark.parametrize("alpha", [np.float32(0.05), Fraction(1, 20)])
def test_run_mc_keeps_alpha_as_a_float_in_its_meta(alpha):
    """``meta`` is JSON-friendly for any real alpha: a numpy float or a
    Fraction went into it as given, and ``json.dumps`` raised TypeError."""
    curve = run_mc(ModelParams(1.0, 1.0), typical_point(), TurnPolicy.one_turn(),
                   trials=20, t_max=1.0, seed=1, alpha=alpha)
    json.dumps(curve.meta)
    assert type(curve.meta["alpha"]) is float and curve.meta["alpha"] == float(alpha)


def test_default_grid_endpoints_and_step():
    g = default_grid()
    assert g.size == 301
    assert g[0] == 0.0 and g[-1] == 3.0
    assert np.allclose(np.diff(g), 0.01)
    assert np.array_equal(default_grid(1.0, 0.25),
                          [0.0, 0.25, 0.5, 0.75, 1.0])


def test_the_default_grid_never_passes_t_max():
    """The grid's last point is the last step at or below t_max, so a run
    without a grid accepts every t_max; rounding the step count instead
    ended 2.999 at 3.0, 0.015 at 0.02 and 2.006 at 2.01, past the horizon."""
    for t_max, end in ((2.999, 2.99), (0.015, 0.01), (2.006, 2.0), (0.3, 0.3)):
        grid = default_grid(t_max)
        assert grid[-1] == pytest.approx(end, abs=1e-15) and grid[-1] <= t_max
        assert np.allclose(np.diff(grid), 0.01)
    assert default_grid(0.3, 0.1)[-1] == 0.3
    for t_max, step in ((1e4, 0.01), (1e8, 0.01), (1e308, 1e-300)):  # > 10**6 points
        with pytest.raises(InputError, match="cap of 1000000 points"):
            default_grid(t_max, step)
    assert default_grid(9999.99).size == 1_000_000
    curve = run_mc(ModelParams(1.0, 1.0), typical_point(), TurnPolicy.one_turn(),
                   5, 2.999, 1)
    assert curve.grid[-1] == pytest.approx(2.99, abs=1e-15)
    assert curve.meta["t_max"] == 2.999


def test_the_grid_end_rules_are_scale_free():
    """A grid scaled by c is the grid scaled by c, and run_mc refuses a grid
    past a tiny t_max as it does past t_max = 1. With an absolute 1e-12,
    ``0:1e-13:3e-14`` was respaced to end at 1e-13, and ``[0, 5e-13]`` was
    accepted at t_max = 1e-13, labelling F(1e-13) as F(5e-13)."""
    assert parse_grid("0:1e-13:3e-14").tobytes() == (3e-14 * np.arange(4)).tobytes()
    for c in (1e-300, 1e-13, 1.0, 1e100):
        assert _even_grid(0.0, c, 0.3 * c, "grid").tobytes() == (0.3 * c * np.arange(4)).tobytes()
        assert _even_grid(0.0, c, 0.25 * c, "grid").tobytes() == np.linspace(0.0, c, 5).tobytes()
    model, policy = ModelParams(1.0, 1.0), TurnPolicy.zero_turn()
    for t_max in (1e-13, 1.0):
        with pytest.raises(InputError, match="grid spans"):
            run_mc(model, typical_point(), policy, 1, t_max, 1, grid=[0.0, 5 * t_max])
        curve = run_mc(model, typical_point(), policy, 1, t_max, 1, grid=[0.0, t_max])
        assert curve.grid[-1] == t_max


# finite floats, the extremes and subnormals among them
_FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def _grid_ends(draw):
    """(start, stop, step): a stop at, a hair off or half a step off the
    k-th step, or any finite float."""
    start, step = draw(_FLOATS), draw(_FLOATS)
    nudge = draw(st.sampled_from((0.0, 1e-13, -1e-13, 1e-11, -1e-11, 0.5)))
    near = start + (draw(st.integers(0, 2000)) + nudge) * step
    return start, draw(st.one_of(st.just(near), _FLOATS)), step


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(ends=_grid_ends())
@example(ends=(1e16, 1.0000000000000002e16, 1.0))
@example(ends=(0.0, 1.0, 1 / 3 + 1e-11))
@example(ends=(0.0, 5e-324, 5e-324))
@example(ends=(-1e308, 1e308, 1e308))
@example(ends=(-1.7976931348623157e308, -1.4623896892229023e80, 1.7976931348623157e308))
@example(ends=(-1.7976931348623157e308, 0.0, 1.7976931348623155e308 / 2))
def test_the_one_grid_rule_holds_for_any_finite_floats(ends):
    """Budget: under 5 s (about 1 s on a 2-core VM). Every draw either
    raises InputError or gives a grid that starts at start, strictly
    increases, never passes stop and holds at most MAX_GRID_POINTS points;
    and default_grid(t_max, step) is, bit for bit, --grid 0:t_max:step."""
    start, stop, step = ends
    try:
        grid = _even_grid(start, stop, step, "grid")
    except InputError:
        pass
    else:
        assert grid[0] == start and grid.size <= MAX_GRID_POINTS
        assert (np.diff(grid) > 0).all()
        assert grid[-1] <= stop
    try:
        default = default_grid(stop, step)
    except InputError:
        with pytest.raises(InputError):
            parse_grid(f"0:{stop!r}:{step!r}")
    else:
        assert default.tobytes() == parse_grid(f"0:{stop!r}:{step!r}").tobytes()


def test_run_mc_bit_identical_across_worker_counts(monkeypatch):
    """Same (seed, trials) must give the same curve no matter how the
    chunks are farmed out, and the metadata must not leak the worker
    count. 2,000 trials are 4 chunks of at most 515. The pool asks for
    one process per two chunks, never more, since with the fork start
    method every one of them is started up front: two processes for both
    2 and 8 workers, and the 4 chunks fill the window that two workers
    keep in flight."""
    params = ModelParams(2.0, 1.0)
    scenario = PalmScenario(PalmKind.TYPICAL_POINT)
    policy = TurnPolicy.one_turn()
    kw = dict(trials=2000, t_max=2.0, seed=11)
    asked = []

    def pool(max_workers):
        asked.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
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
    other = run_mc(params, scenario, policy, trials=2000, t_max=2.0, seed=12)
    assert not np.array_equal(a.values, other.values)

    # nor how its records are spelled: numpy-scalar intensities give the
    # float model's JSON meta, and a hand-built two-turn-directed policy
    # is its factory's, in meta and curve bytes
    two = run_mc(params, scenario, TurnPolicy.two_turn_directed(), workers=1, **kw)
    for spelled in (run_mc(ModelParams(np.int64(2), np.float32(1)), scenario,
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
    400 chunks of trials peak at most 1.25 times as high as 4 chunks under
    tracemalloc (4,723 trials a chunk here). Each chunk replays a copy of one
    real zero-turn chunk at sparse parameters (lam 0.5, mu 1, t_max 1,
    some censored), because tracing the sampler itself costs about 150 us
    a trial; what grows with the trial count is the driver's own memory."""
    params = ModelParams(0.5, 1.0)
    scenario = PalmScenario(PalmKind.TYPICAL_POINT)
    policy = TurnPolicy.zero_turn()
    size = experiments._chunk_trials(params, scenario, 1.0)
    lengths, lines = experiments._mc_chunk(
        (params, scenario, policy, 1.0, 3, 0, size))
    assert np.isinf(lengths).any() and np.isfinite(lengths).any()

    def replay(task):
        start, stop = task[-2:]
        return lengths[:stop - start].copy(), lines

    monkeypatch.setattr(experiments, "_mc_chunk", replay)
    peaks = []
    for trials in (4 * size, 400 * size):
        tracemalloc.start()
        try:
            curve = run_mc(params, scenario, policy, trials, 1.0, 3, workers=1,
                           alpha=0.1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # censored trials keep their mass beyond t_max, so the curve tops
        # out at the finite fraction
        full, rest = divmod(trials, size)
        censored = full * int(np.isinf(lengths).sum()) + int(np.isinf(lengths[:rest]).sum())
        assert (curve.meta["trials"], curve.meta["censored"]) == (trials, censored)
        assert curve.values[-1] == (trials - censored) / trials
        assert curve.meta["alpha"] == 0.1
        assert np.all(curve.ci_halfwidth == dkw_halfwidth(trials, 0.1))
    assert peaks[1] <= 1.25 * peaks[0], peaks


# Drawing the largest chunk run_mc asks for just under either cap of the
# sampler: the most lines a trial (one trial a chunk, about 0.5 MiB) and the
# most points a line on two full-length streets (13 trials, about 5.2 MiB).
# 512-trial chunks drew with peaks of 269 and 205 MiB there, and 64-trial
# chunks with about 34 and 26 MiB.
DRAW_PEAK_BYTES = 8 * 2**20


LINE_CAP = (ModelParams(0.999 * MAX_EXPECTED_LINES / (3.0 * math.pi), 1.0),
            PalmScenario(PalmKind.TYPICAL_POINT))
POINT_CAP = (ModelParams(0.0, 0.999 * MAX_EXPECTED_POINTS / (2.0 * 3.0)),
             PalmScenario(PalmKind.TYPICAL_INTERSECTION))


def _largest_chunk_peak(monkeypatch, params, scenario):
    """(trials, tracemalloc peak) of the largest chunk that a 64-trial
    run_mc to t_max 3 draws, drawn again on its own."""
    asked = []

    def spy(*args):
        asked.append(args)
        return draw_chunk(*args)

    draw_chunk = experiments._draw_chunk
    monkeypatch.setattr(experiments, "_draw_chunk", spy)
    run_mc(params, scenario, TurnPolicy.zero_turn(), 64, 3.0, 5)
    largest = max(asked, key=lambda args: args[-1] - args[-2])
    tracemalloc.start()
    try:
        draw_chunk(*largest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return largest[-1] - largest[-2], peak


@pytest.mark.parametrize("params, scenario", [LINE_CAP, POINT_CAP],
                         ids=["line-cap", "point-cap"])
def test_run_mc_chunks_draw_within_a_fixed_peak_at_the_caps(monkeypatch, params,
                                                           scenario):
    """run_mc sizes each chunk by its trials' expected line pairs and
    points, so the largest chunk of a 64-trial run near either cap draws
    within DRAW_PEAK_BYTES under tracemalloc."""
    trials, peak = _largest_chunk_peak(monkeypatch, params, scenario)
    assert peak < DRAW_PEAK_BYTES, (trials, peak)


def test_the_point_cap_chunk_sorts_on_one_integer_key_per_point(monkeypatch):
    """The point-cap chunk above (13 trials, 26 lines, about 130k points) sorts its
    points within lines on one uint64 key a point, the line's index over
    the integer k of the point's raw position U = k * 2**-53, in place, and
    makes the arcs in the positions' own buffer. With an argsort of the
    arcs and a stable argsort of 16-bit line keys its draw peaked at 4.22
    MiB; with the integer keys it peaks at 2.98 MiB, and every array is the
    same (test_batched.py's ``FROZEN_MD5`` and ``FROZEN_REALIZATIONS_MD5``)."""
    trials, peak = _largest_chunk_peak(monkeypatch, *POINT_CAP)
    assert peak < 4.5 * 2**20, (trials, peak)


class _Drew(Exception):
    """Raised in place of a chunk's first draw: the chunk passed its checks."""


def _refuse_draw(*args):
    raise _Drew


_EXPONENT = st.floats(-6.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=400, deadline=None)
@given(lam=st.one_of(st.just(0.0), _EXPONENT), mu=_EXPONENT, t_max=_EXPONENT,
       point=st.booleans())
@example(lam=0.999 * MAX_EXPECTED_LINES / (3.0 * math.pi), mu=1.0, t_max=3.0, point=True)
@example(lam=0.0, mu=0.999 * MAX_EXPECTED_POINTS / 6.0, t_max=3.0, point=False)
def test_sample_chunk_accepts_every_chunk_run_mc_asks_for(lam, mu, t_max, point):
    """sample_chunk refuses a chunk whose expected lines and points pass
    one trial's cap; run_mc sizes its chunks by a larger cost per trial
    against a smaller budget, so it never asks for one."""
    params = ModelParams(lam, mu)
    scenario = PalmScenario(PalmKind.TYPICAL_POINT if point
                            else PalmKind.TYPICAL_INTERSECTION)
    try:
        sampler._check_inputs(params, scenario, t_max)
    except InputError:
        return
    size = experiments._chunk_trials(params, scenario, t_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "_compiled_draw", _refuse_draw)
        with pytest.raises(_Drew):
            sampler.sample_chunk(params, scenario, t_max, 0, 0, size)


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


@pytest.mark.parametrize("t_max, error", [
    (math.nan, NonFinite), (-1.0, NegativeT), (0.0, NonPositiveRadius), ("3", InputError),
    (True, InputError), ([1.0, 2.0], InputError)])
def test_run_mc_checks_t_max_as_sample_path_does(t_max, error):
    """t_max goes through the one t check and then is the clip radius: the
    same error, message and all, as ``sample_path`` raises."""
    args = (ModelParams(1.0, 1.0), PalmScenario(PalmKind.TYPICAL_POINT), TurnPolicy.zero_turn())
    with pytest.raises(error) as mc:
        run_mc(*args, trials=10, t_max=t_max, seed=1)
    with pytest.raises(error) as path:
        sample_path(*args, t_max=t_max, seed=1)
    assert str(mc.value) == str(path.value)


@pytest.mark.parametrize("trials", [2**63, 10**400], ids=["2**63", "10**400"])
def test_run_mc_rejects_trials_past_int64_before_any_trial(monkeypatch, trials):
    """The grid counts are np.int64, so a count from 2**63 on is bad input
    (it was an OverflowError from dkw_halfwidth), raised before a chunk is
    drawn."""
    def refuse(*args):
        raise AssertionError("drew a chunk")

    monkeypatch.setattr(experiments, "_draw_chunk", refuse)
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
        return draw_chunk(*args)

    draw_chunk = experiments._draw_chunk
    monkeypatch.setattr(experiments, "_draw_chunk", spy)
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
    whatever the chunk size: 300 trials in chunks of 1, about 97 (a trial
    here costs about 230 budget units at the point, 261 at the
    intersection) and all 300."""
    digests = set()
    for budget in (1, 97 * 230, 2**40):
        monkeypatch.setattr(experiments, "_CHUNK_BUDGET", budget)
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
