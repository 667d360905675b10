import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linecox import (
    AngleLaw,
    DistributionCurve,
    InputError,
    ModelParams,
    NegativeIntensity,
    NonFinite,
    NonPositiveRadius,
    NonPositiveScale,
    NotAnInteger,
    PalmScenario,
    PolicyBudgetNegative,
    PolicyKind,
    RisLinkParams,
    TurnPolicy,
    ZeroMu,
    cdf_ppp2d_reference,
    dkw_halfwidth,
    farfield_threshold_distance,
    nearfield_threshold_distance,
    one_turn_intersection_terms,
    reach_quantile,
    rescale,
    run_mc,
    sample_palm,
    typical_intersection,
    typical_point,
)
from realizations import realization_to_json


def test_validate_accepts_and_returns():
    assert ModelParams(0.0, 0.5).lam == 0.0  # lam may be zero


@pytest.mark.parametrize("lam,mu,exc,needle", [
    (float("nan"), 1.0, NonFinite, "lambda"),
    (1.0, float("inf"), NonFinite, "mu"),
    (-0.5, 1.0, NegativeIntensity, "lambda"),
    (1.0, -1.0, NegativeIntensity, "mu"),
    (1.0, 0.0, ZeroMu, "mu"),
])
def test_validate_rejects(lam, mu, exc, needle):
    with pytest.raises(exc) as ei:
        ModelParams(lam, mu)
    assert needle in str(ei.value)


def test_policy_factories():
    assert TurnPolicy.zero_turn().kind is PolicyKind.ZERO_TURN
    one = TurnPolicy.one_turn(include_lower_turn_paths=False)
    assert one.k == 1 and not one.include_lower_turn_paths
    two = TurnPolicy.two_turn_directed()
    assert two.kind is PolicyKind.TWO_TURN_DIRECTED
    assert two.first_hop_positive_x  # forced on
    kt = TurnPolicy.k_turn(5)
    assert kt.k == 5 and not kt.first_hop_positive_x

    # a hand-built record is its factory's: each named kind fixes its own
    # fields, and kinds and laws are read by value too
    assert TurnPolicy(PolicyKind.TWO_TURN_DIRECTED) == two
    assert TurnPolicy(PolicyKind.ONE_TURN, k=5) == TurnPolicy.one_turn()
    assert (TurnPolicy(PolicyKind.ZERO_TURN, include_lower_turn_paths=False)
            == TurnPolicy.zero_turn())
    assert TurnPolicy("one-turn") == TurnPolicy.one_turn()
    assert PalmScenario("typical-point", AngleLaw.SIN_WEIGHTED) == typical_point()
    assert (PalmScenario("typical-intersection", "sin")
            == typical_intersection(AngleLaw.SIN_WEIGHTED))
    exact = TurnPolicy("k-turn", np.int64(3), 0, 1)
    assert exact == TurnPolicy.k_turn(3, False, True)
    assert [type(v) for v in (exact.k, exact.include_lower_turn_paths,
                              exact.first_hop_positive_x)] == [int, bool, bool]
    with pytest.raises(PolicyBudgetNegative):
        TurnPolicy.k_turn(-1)
    with pytest.raises(ValueError):
        TurnPolicy("three-turn")
    with pytest.raises(ValueError):
        PalmScenario("typical-crossing")


def test_curve_build_and_freeze():
    c = DistributionCurve(np.array([0.0, 1.0, 2.0]),
                          np.array([0.0, 0.5, 0.9]), 0.1, {"a": 1})
    assert len(c) == 3
    assert c.ci_halfwidth.shape == (3,)  # scalar broadcasts
    with pytest.raises(ValueError):
        c.grid[0] = 5.0  # arrays come back read-only


@pytest.mark.parametrize("grid,values", [
    ([0.0, 1.0], [0.1]),                 # length mismatch
    ([1.0, 0.5], [0.1, 0.2]),            # not increasing
    ([0.0, 0.0], [0.1, 0.2]),            # not strictly increasing
    ([0.0, float("nan")], [0.1, 0.2]),   # non-finite
    ([], []),                            # empty
])
def test_curve_rejects(grid, values):
    with pytest.raises(ValueError):
        DistributionCurve(np.asarray(grid, float), np.asarray(values, float), 0.0)


def test_rescale_maps_grid_and_meta():
    c = DistributionCurve(np.array([0.0, 1.0]), np.array([0.0, 0.5]), 0.01,
                          {"params": {"lambda": 1.0, "mu": 2.0}})
    r = rescale(c, 2.0)
    assert np.array_equal(r.grid, [0.0, 2.0])
    assert np.array_equal(r.values, c.values)
    assert np.array_equal(r.ci_halfwidth, c.ci_halfwidth)
    assert r.meta["params"] == {"lambda": 0.5, "mu": 1.0}
    assert r.meta["rescaled_by"] == 2.0
    rr = rescale(r, 0.5)
    assert rr.meta["rescaled_by"] == 1.0
    assert rr.meta["params"] == {"lambda": 1.0, "mu": 2.0}


def test_rescale_maps_the_censoring_horizon():
    """A run_mc curve's grid ends at its t_max, and so does the rescaled
    curve's; a t_max that is not a finite number is refused like params."""
    curve = run_mc(ModelParams(1.0, 1.0), typical_point(), TurnPolicy.one_turn(), 50,
                   2.0, 3)
    r = rescale(curve, 2.0)
    assert r.grid[-1] == r.meta["t_max"] == 4.0
    assert rescale(r, 0.5).meta["t_max"] == curve.meta["t_max"] == 2.0
    for bad in (None, "2", math.inf):
        with pytest.raises(InputError, match="t_max"):
            rescale(DistributionCurve([0.0, 1.0], [0.0, 1.0], 0.0, {"t_max": bad}), 2.0)


@pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
def test_rescale_rejects_bad_scale(c):
    curve = DistributionCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.0)
    with pytest.raises(NonPositiveScale):
        rescale(curve, c)


@given(st.floats(min_value=0.01, max_value=100.0,
                 allow_nan=False, allow_infinity=False))
def test_rescale_round_trip(c):
    curve = DistributionCurve(np.array([0.0, 0.5, 1.7]),
                              np.array([0.0, 0.3, 0.8]), 0.02)
    back = rescale(rescale(curve, c), 1.0 / c)
    assert np.allclose(back.grid, curve.grid, rtol=1e-12, atol=1e-15)
    assert np.array_equal(back.values, curve.values)


def _link_of(x):
    link = RisLinkParams(*[x] * 12)
    return nearfield_threshold_distance(link), farfield_threshold_distance(link)


_CURVE = DistributionCurve(np.array([0.0, 0.5, 1.7]), np.array([0.0, 0.3, 0.8]), 0.02)
# site -> (result of one real input, an integer and a float32-exact value it
# takes, the error it raises on input that is not a real number)
REAL_INPUT_SITES = {
    "rescale": (lambda c: (rescale(_CURVE, c).grid.tobytes(), rescale(_CURVE, c).meta),
                2, 0.5, NonPositiveScale),
    "validate_link": (_link_of, 2, 0.5, NonFinite),
    "reach_quantile": (lambda p: reach_quantile(ModelParams(1.0, 1.0), p), 0, 0.5,
                       ValueError),
    "cdf_ppp2d_reference": (lambda d: cdf_ppp2d_reference(d, [0.5, 1.0]).tobytes(),
                            2, 0.25, NonFinite),
    "sample_palm": (lambda r: realization_to_json(
        sample_palm(ModelParams(1.0, 1.0), typical_point(), r, seed=1)),
        3, 2.0, NonPositiveRadius),
    "validate": (lambda x: ModelParams(x, x), 2, 0.5, NonFinite),
    "one_turn_intersection_terms": (lambda mu: one_turn_intersection_terms(mu, 0.5),
                                    2, 0.5, NonFinite),
}


@pytest.mark.parametrize("site", REAL_INPUT_SITES)
def test_real_inputs_take_numpy_scalars_and_refuse_bools(site):
    """Every real-valued input goes through one check: numpy integers and
    floats give what the equal Python float gives, and a bool is not a
    number, so it raises the error a string would. So does an int too
    large for a float, which must not escape as an OverflowError."""
    result, n, v, error = REAL_INPUT_SITES[site]
    for x in (np.int64(n), np.int32(n), n):
        assert result(x) == result(float(n)), x
    for x in (np.float32(v), np.float64(v)):
        assert result(x) == result(float(v)), x
    for bad in (True, False, "1", 10**400, np.timedelta64(1, "s")):
        with pytest.raises(error):
            result(bad)


# field -> (result of one integer input, an integer it takes)
INT_INPUT_SITES = {
    "k": (lambda k: TurnPolicy.k_turn(k), 2),
    "trials": (lambda n: _mc_bytes(trials=n), 3),
    "seed": (lambda seed: _mc_bytes(seed=seed), 5),
    "workers": (lambda w: _mc_bytes(workers=w), 2),
    "n": (dkw_halfwidth, 100),
}


def _mc_bytes(trials=2, seed=1, workers=1):
    curve = run_mc(ModelParams(1.0, 1.0), typical_point(), TurnPolicy.one_turn(),
                   trials, 1.0, seed, grid=[0.0, 0.5, 1.0], workers=workers)
    return curve.values.tobytes(), json.dumps(curve.meta)


@pytest.mark.parametrize("site", INT_INPUT_SITES)
def test_integer_inputs_take_integral_values_and_refuse_the_rest(site):
    """Every integer input goes through one check: numpy integers and a
    float of integral value give what the equal int gives; a fraction, a
    bool or a string raises NotAnInteger naming the field, and nan or inf
    NonFinite. None of them is truncated or escapes as another error."""
    result, n = INT_INPUT_SITES[site]
    for x in (np.int64(n), np.int32(n), float(n), np.float64(n)):
        assert result(x) == result(n), x
    for bad in (n + 0.7, np.float32(n + 0.5), True, "1", np.timedelta64(n, "s")):
        with pytest.raises(NotAnInteger, match=site):
            result(bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFinite, match=site):
            result(bad)


@pytest.mark.parametrize("mu, error", [(-1.0, NegativeIntensity), (0.0, ZeroMu),
                                       (float("nan"), NonFinite), (float("inf"), NonFinite)])
def test_terms_check_mu_as_validate_does(mu, error):
    """A bad mu was a QuadratureFailure (and inf an overflow warning)."""
    with pytest.raises(error, match="mu"):
        one_turn_intersection_terms(mu, 0.5)
