import decimal
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linecox import (
    ModelParams,
    NegativeIntensity,
    NegativeT,
    NonFinite,
    cdf_naive_recursion,
    cdf_one_turn_point,
    cdf_ppp2d_reference,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
    equivalent_ppp_density,
)
from linecox.analytic.closed_forms import _one_minus_mean_decay
from dispatch import float64_target

# 40-digit reference evaluations of the printed formulas (frozen)
ONE_TURN_REFS = [
    ((1.0, 1.0), 1.0, 0.95651482846421710869),
    ((0.5, 1.0), 1.2, 0.95694853319850020761),
    ((2.0, 0.5), 0.7, 0.77380124406615976841),
]


@pytest.mark.parametrize("pars,t,want", ONE_TURN_REFS)
def test_one_turn_point_reference_values(pars, t, want):
    got = cdf_one_turn_point(ModelParams(*pars), t)
    assert got == pytest.approx(want, rel=1e-13)


def test_fixed_reference_values():
    p11 = ModelParams(1.0, 1.0)
    assert cdf_zero_turn_intersection(p11, 0.5) == \
        pytest.approx(0.86466471676338730811, rel=1e-13)
    assert cdf_zero_turn_intersection(p11, 1.0) == \
        pytest.approx(0.98168436111126581971, rel=1e-13)
    assert cdf_upper_intersection(p11, 0.3) == \
        pytest.approx(0.99752124782333364158, rel=1e-13)
    assert cdf_naive_recursion(ModelParams(0.0, 2.0), 1.0) == \
        pytest.approx(0.86466471676338730811, rel=1e-13)
    assert cdf_ppp2d_reference(math.pi / 2.0, 0.8) == \
        pytest.approx(0.95750094371463745558, rel=1e-13)
    assert equivalent_ppp_density(p11) == pytest.approx(math.pi / 2, rel=1e-15)
    assert equivalent_ppp_density(ModelParams(2.0, 3.0)) == \
        pytest.approx(3.0 * math.pi, rel=1e-15)


def test_lambda_zero_reductions():
    t = np.linspace(0.0, 3.0, 31)
    p = ModelParams(0.0, 1.3)
    own_line = -np.expm1(-2.0 * 1.3 * t)
    assert np.array_equal(cdf_one_turn_point(p, t), own_line)
    assert np.array_equal(cdf_upper_intersection(p, t),
                          cdf_zero_turn_intersection(p, t))


def test_orderings_on_grid():
    t = np.linspace(0.0, 4.0, 81)
    for lam, mu in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.2)):
        p = ModelParams(lam, mu)
        assert np.all(cdf_one_turn_point(p, t) >= cdf_naive_recursion(p, t))
        assert np.all(cdf_upper_intersection(p, t)
                      >= cdf_zero_turn_intersection(p, t))


def test_scale_invariance():
    # stretching lengths by c is the same model with lam/c and mu/c
    t = np.linspace(0.0, 3.0, 61)
    base = ModelParams(1.0, 1.0)
    for c in (0.5, 2.0):
        scaled = ModelParams(base.lam / c, base.mu / c)
        for f in (cdf_one_turn_point, cdf_zero_turn_intersection,
                  cdf_upper_intersection, cdf_naive_recursion):
            np.testing.assert_allclose(f(scaled, c * t), f(base, t),
                                       rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            cdf_ppp2d_reference(equivalent_ppp_density(scaled), c * t),
            cdf_ppp2d_reference(equivalent_ppp_density(base), t),
            rtol=0, atol=1e-10)


@given(st.floats(0.01, 50.0), st.floats(0.01, 50.0),
       st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_monotone_in_t_and_parameters(lam, mu, t1, t2):
    lo, hi = sorted((t1, t2))
    p = ModelParams(lam, mu)
    for f in (cdf_one_turn_point, cdf_zero_turn_intersection,
              cdf_upper_intersection, cdf_naive_recursion):
        a, b = f(p, lo), f(p, hi)
        assert 0.0 <= a <= b <= 1.0
    bigger = ModelParams(lam * 1.5, mu * 1.5)
    assert cdf_one_turn_point(bigger, hi) >= cdf_one_turn_point(p, hi)
    assert cdf_upper_intersection(bigger, hi) >= cdf_upper_intersection(p, hi)


def test_zero_at_origin():
    p = ModelParams(1.0, 1.0)
    for f in (cdf_one_turn_point, cdf_zero_turn_intersection,
              cdf_upper_intersection, cdf_naive_recursion):
        assert f(p, 0.0) == 0.0
    assert cdf_ppp2d_reference(1.0, 0.0) == 0.0


def test_scalar_and_array_agree():
    p = ModelParams(0.7, 1.4)
    t = np.array([0.0, 0.5, 2.0])
    arr = cdf_one_turn_point(p, t)
    assert isinstance(arr, np.ndarray)
    for k, tv in enumerate(t):
        v = cdf_one_turn_point(p, float(tv))
        assert isinstance(v, float) and v == arr[k]


# md5 of cdf_one_turn_point over the grid of _THM1_T at every (lam, mu) of
# _THM1_PARAMS, recorded when the exponent took one rearranged form
# everywhere (each value within 1e-12 of the decimal reference below), by
# the target numpy's float64 expm1 dispatches to: its X86_V4 (AVX-512)
# loop and the baseline round some values differently
_THM1_T = np.concatenate(([0.0, 1e-300, 1e-12], np.linspace(0.0, 6.0, 121),
                          [50.0, 1e6]))
_THM1_PARAMS = [(lam, mu) for lam in (0.0, 1e-9, 0.1, 1.0, 3.7, 50.0, 1e6, 1e300)
                for mu in (1e-6, 0.01, 0.5, 1.0, 20.0, 1e6)]
THM1_MD5 = {"X86_V4": "b5c24f801a87a68dce5371f4b359c5c5",
            "baseline(X86_V2)": "a1833a3bbf59a652fa1cc04bfb54e139"}


def test_one_turn_point_digest_on_ordinary_inputs():
    target = float64_target("expm1")
    assert target in THM1_MD5, f"no THM1_MD5 recorded for float64 expm1 on {target}"
    h = hashlib.md5()
    for lam, mu in _THM1_PARAMS:
        values = cdf_one_turn_point(ModelParams(lam, mu), _THM1_T)
        h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    assert h.hexdigest() == THM1_MD5[target]


def _one_turn_point_decimal(lam, mu, t):
    """F(t; lam, mu) of thm1 in 80-digit decimal arithmetic from the exact
    float inputs: 1 - (1 - e^-x)/x by its series below x = 1, and
    1 - e^E by its series for |E| < 1e-5, where the direct forms cancel."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        D = decimal.Decimal
        lam, t = D(lam), D(t)
        x = 2 * D(mu) * t
        if x < 1:  # x/2 - x^2/6 + x^3/24 - ..., the n-th term x^n/(n+1)!
            g = term = x / 2
            n = 1
            while term and abs(term) > g * D("1e-85"):
                n += 1
                term = -term * x / (n + 1)
                g += term
        else:
            g = 1 - (1 - (-x).exp()) / x
        e = -x - 2 * lam * t * g
        if abs(e) >= D("1e-5"):
            return float(1 - e.exp())
        f, term, n = D(0), D(-1), 0
        while term and abs(term) > f.copy_abs() * D("1e-85"):
            n += 1
            term = term * e / n
            f += term
        return float(f)


def test_one_turn_point_agrees_with_a_decimal_reference():
    """Every value of the digest grid, to a relative 1e-12 of an 80-digit
    evaluation. Switching between the printed and the rearranged exponent
    by regime left 523 of them off, the worst F(1e-300; 1e300, 1e-6) =
    -4.4e-16 where the value is 4e-306."""
    for lam, mu in _THM1_PARAMS:
        got = cdf_one_turn_point(ModelParams(lam, mu), _THM1_T)
        want = np.array([_one_turn_point_decimal(lam, mu, t) for t in _THM1_T])
        assert np.all(np.abs(got - want) <= 1e-12 * want), (lam, mu)


def test_one_turn_point_when_lam_over_mu_overflows():
    """lam/mu = inf used to give F(0) = nan and F(t > 0) = -inf. The
    rearranged exponent gives 0 at t = 0, values in [0, 1], and at
    lam * mu = 1 the limit 1 - exp(-2*t^2)."""
    t = np.array([0.0, 1e-200, 0.25, 0.5, 1.0, 3.0, 1e300])
    for lam, mu in ((1e300, 1e-10), (1e300, 1e-300), (1.7e308, 1e-300)):
        f = cdf_one_turn_point(ModelParams(lam, mu), t)
        assert f[0] == 0.0 and np.all((f >= 0.0) & (f <= 1.0))
        assert np.all(np.diff(f) >= 0.0) and f[-1] == 1.0
    f = cdf_one_turn_point(ModelParams(1e300, 1e-300), t[:-1])
    assert f == pytest.approx(-np.expm1(-2.0 * t[:-1] ** 2), rel=1e-12)
    # the rearranged exponent is the printed one wherever both are finite
    for lam, mu in ((0.5, 1.0), (3.0, 0.2), (100.0, 1e-4)):
        x = 2.0 * mu * _THM1_T
        printed = -x - 2.0 * lam * _THM1_T + (lam / mu) * -np.expm1(-x)
        rearranged = -x - 2.0 * _THM1_T * (lam * _one_minus_mean_decay(x))
        assert rearranged == pytest.approx(printed, rel=1e-9, abs=1e-15)


def test_one_turn_point_keeps_its_digits_at_huge_lam_over_mu():
    """At lam/mu past 1/eps the printed exponent's two lam terms cancel to
    rounding: F(1e-9; 1e10, 1e-10) was -3.6e-15 and F(1e-7) 2.3e-13. F
    must be >= 0 and agree with the exponent's Taylor series in x = 2*mu*t,
    -x - lam*t*x*(1 - x/3 + x^2/12 - x^3/60), to a relative 1e-12; x stays
    below 2e-3, where the series' next term is below 1e-12 of the sum."""
    t = np.logspace(-12, 1, 27)
    for lam, mu in ((1e10, 1e-10), (1e8, 1e-9), (1e30, 1e-30), (3.0, 1e-16)):
        f = cdf_one_turn_point(ModelParams(lam, mu), t)
        x = 2.0 * mu * t
        assert x.max() < 2e-3
        series = -np.expm1(-x - lam * t * x * (1.0 - x / 3.0 * (1.0 - x / 4.0
                                                              * (1.0 - x / 5.0))))
        assert np.all(f >= 0.0), (lam, mu)
        assert f == pytest.approx(series, rel=1e-12, abs=0.0), (lam, mu)
    f = cdf_one_turn_point(ModelParams(1e10, 1e-10), [1e-9, 1e-7])
    assert f[0] > 0.0 and f[1] == pytest.approx(2.002e-14, rel=1e-3)


def test_input_validation():
    p = ModelParams(1.0, 1.0)
    for f in (cdf_one_turn_point, cdf_zero_turn_intersection,
              cdf_upper_intersection, cdf_naive_recursion):
        with pytest.raises(NegativeT):
            f(p, -0.1)
        with pytest.raises(NonFinite):
            f(p, float("nan"))
        with pytest.raises(NonFinite):
            f(p, np.array([0.5, float("inf")]))
    with pytest.raises(NegativeIntensity):
        cdf_ppp2d_reference(-1.0, 1.0)
    with pytest.raises(NonFinite):
        cdf_ppp2d_reference(float("nan"), 1.0)
