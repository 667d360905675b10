"""Link-budget calculators and the reach quantile solver."""

import math

import numpy as np
import pytest

from linecox.analytic import (
    cdf_one_turn_intersection,
    cdf_one_turn_point,
    cdf_zero_turn_intersection,
)
from linecox.applications import (
    REACH_POLICIES,
    RisLinkParams,
    db_to_linear,
    farfield_success_lower_bound,
    farfield_threshold_distance,
    nearfield_success,
    nearfield_threshold_distance,
    reach_quantile,
)
from linecox.errors import InputError, NoBracket, NonFinite, NonPositiveParameter
from linecox.model import ModelParams, PalmKind, PalmScenario, TurnPolicy
from linecox.oracle import sample_path


def _link(**overrides) -> RisLinkParams:
    base = dict(g_t=1.0, g_r=1.0, g=1.0, wavelength=1.0, area=1.0, m=1.0,
                n=1.0, d_x=1.0, d_y=1.0, p_t=1.0, n0=1.0, gamma=1.0)
    base.update(overrides)
    return RisLinkParams(**base)


def test_link_validation():
    with pytest.raises(NonPositiveParameter):
        _link(gamma=0.0)
    with pytest.raises(NonPositiveParameter):
        _link(p_t=-1.0)
    with pytest.raises(NonFinite):
        _link(n0=math.nan)
    with pytest.raises(NonFinite):
        _link(area=math.inf)
    with pytest.raises(NonFinite):
        _link(g="high")


def test_nearfield_constructed_unit_distance():
    """g_t = 16 pi^2 with every other factor 1 puts the threshold at
    exactly 1, so the success probability is the distribution at 1."""
    link = _link(g_t=16.0 * math.pi**2)
    assert nearfield_threshold_distance(link) == pytest.approx(1.0, rel=1e-12)
    assert nearfield_success(link, ModelParams(1.0, 1.0)) == pytest.approx(
        0.9565148284642171, rel=1e-12)


def test_nearfield_frozen_value_and_gamma_limits():
    link = _link(g_t=4.0, g_r=4.0)
    assert nearfield_threshold_distance(link) == pytest.approx(
        1.0 / math.pi, rel=1e-12)
    assert nearfield_success(link, ModelParams(1.0, 1.0)) == pytest.approx(
        0.5517110841621304, rel=1e-12)
    model = ModelParams(1.0, 1.0)
    assert nearfield_success(_link(gamma=1e30), model) < 1e-10
    assert nearfield_success(_link(gamma=1e-30), model) > 1.0 - 1e-12
    # a stricter threshold can only hurt
    assert (nearfield_success(_link(gamma=2.0), model)
            < nearfield_success(_link(), model))


def test_farfield_hand_value_and_monotonicity():
    assert farfield_threshold_distance(_link()) == pytest.approx(
        2.0 * (1.0 / (64.0 * math.pi**3))**0.25, rel=1e-12)
    model = ModelParams(1.0, 1.0)
    succ = [farfield_success_lower_bound(_link(m=m), model) for m in (4, 8, 16)]
    assert succ[0] < succ[1] < succ[2]
    assert all(0.0 < s < 1.0 for s in succ)


def test_farfield_radius_guarantees_sampled_routes():
    """Any one-turn route whose total length stays below the far-field
    radius satisfies the product condition d1^2 d2^2 <= X, whatever the
    split between the two legs. Checked on oracle-sampled routes."""
    link = _link(m=8.0, n=8.0)
    d_star = farfield_threshold_distance(link)
    x = (d_star / 2.0) ** 4
    params = ModelParams(1.0, 1.0)
    scenario = PalmScenario(PalmKind.TYPICAL_POINT)
    policy = TurnPolicy.one_turn(include_lower_turn_paths=False)
    checked = 0
    for s in range(2000):
        res = sample_path(params, scenario, policy, t_max=4.0, seed=(77, s))
        if res.censored or res.turns_used != 1:
            continue
        (l0, a0), (_, a1), (_, b0), (_, b1) = res.route
        d1, d2 = abs(a1 - a0), abs(b1 - b0)
        assert d1 + d2 == pytest.approx(res.length, abs=1e-12)
        assert d1 * d2 <= (res.length / 2.0) ** 2 + 1e-12
        if res.length <= d_star:
            assert (d1 * d2) ** 2 <= x * (1.0 + 1e-9)
            checked += 1
    assert checked >= 100


def test_reach_quantile_round_trips():
    model = ModelParams(1.0, 1.0)
    assert reach_quantile(model, 0.0) == 0.0
    assert reach_quantile(model, 0.5) == pytest.approx(
        0.28067805291725756, rel=1e-9)
    for p in (0.1, 0.5, 0.9):
        t = reach_quantile(model, p, "one-turn-point")
        assert cdf_one_turn_point(model, t) == pytest.approx(p, abs=1e-8)
        t = reach_quantile(model, p, "zero-turn-intersection")
        assert cdf_zero_turn_intersection(model, t) == pytest.approx(p, abs=1e-8)
    t = reach_quantile(model, 0.5, "one-turn-intersection")
    assert cdf_one_turn_intersection(model, t) == pytest.approx(0.5, abs=1e-6)


def test_reach_quantile_orderings():
    model = ModelParams(1.0, 1.0)
    q = [reach_quantile(model, p) for p in (0.2, 0.5, 0.9)]
    assert q[0] < q[1] < q[2]
    # more charging points per street shrink the radius
    assert reach_quantile(ModelParams(1.0, 2.0), 0.5) < q[1]


def test_reach_quantile_validation_and_no_bracket():
    model = ModelParams(1.0, 1.0)
    for bad in (1.0, -0.1, math.nan, "half"):
        with pytest.raises(ValueError):
            reach_quantile(model, bad)
    with pytest.raises(ValueError):
        reach_quantile(model, 0.5, policy="three-turn")
    assert "one-turn-intersection" in REACH_POLICIES
    # no curve reaches p by t = 2^60, every policy's one search cap
    for policy in REACH_POLICIES:
        with pytest.raises(NoBracket, match=r"search cap 1\.152921504606847e\+18 "):
            reach_quantile(ModelParams(0.0, 1e-300), 0.5, policy)


def test_db_to_linear():
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)
    assert db_to_linear(1e308) == math.inf  # 10.0 ** 1e307 raises OverflowError
    assert db_to_linear(-1e308) == 0.0  # 10.0 ** -1e307 underflows
    assert db_to_linear(-10**400) == 0.0  # -10**400 / 10.0 raises OverflowError
    assert db_to_linear(10**400) == math.inf


def _printed_thresholds(link):
    """The two threshold distances as the docstrings print them."""
    near = math.sqrt(link.g_t * link.g_r * link.wavelength**2 * link.area**2 * link.p_t
                     / (16.0 * math.pi**2 * link.gamma * link.n0))
    x = (link.g_t * link.g_r * link.g * link.m**2 * link.n**2 * link.d_x * link.d_y
         * link.wavelength**2 * link.area**2 * link.p_t
         / (64.0 * math.pi**3 * link.gamma * link.n0))
    return near, 2.0 * x**0.25


def test_thresholds_keep_the_printed_form_where_no_step_overflows():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        link = RisLinkParams(*(10.0 ** rng.uniform(-20, 20, 12)).tolist())
        assert (nearfield_threshold_distance(link),
                farfield_threshold_distance(link)) == _printed_thresholds(link)


def test_thresholds_past_an_overflowing_step():
    """A representable distance comes back finite where a step of the
    printed form overflows or underflows; one past the largest float is
    an InputError, which the CLI exits 2 on."""
    d = farfield_threshold_distance(_link(m=1e200))  # m**2 overflows
    assert d == pytest.approx(2.0 * 1e100 / (64.0 * math.pi**3) ** 0.25, rel=1e-12)
    d = nearfield_threshold_distance(_link(wavelength=1e200, area=1e-200, gamma=1e-300))
    assert d == pytest.approx(1e150 / (4.0 * math.pi), rel=1e-12)
    d = nearfield_threshold_distance(_link(wavelength=1e-200, gamma=1e-300))
    assert d == pytest.approx(1e-50 / (4.0 * math.pi), rel=1e-12)  # num underflows
    d = farfield_threshold_distance(_link(gamma=5e-324, n0=5e-324))  # gamma*n0 is 0
    assert d == pytest.approx(2.0 / (64.0 * math.pi**3) ** 0.25 / 5e-324**0.5, rel=1e-12)
    with pytest.raises(InputError, match="past the largest float"):
        nearfield_threshold_distance(_link(wavelength=1e300, area=1e300))
    with pytest.raises(InputError, match="past the largest float"):
        farfield_threshold_distance(_link(m=1e300, n=1e300, area=1e300))
