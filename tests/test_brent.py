"""The in-package Brent solver against scipy.optimize.brentq, bit for bit."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from linecox import applications
from linecox.applications import _brent, reach_quantile
from linecox.model import ModelParams

XTOL, RTOL = 1e-12, 1e-9  # reach_quantile's tolerances


def _brentq_quantile(model, p, policy):
    """reach_quantile's bracket, solved by brentq."""
    cdf, _ = applications._reach_cdf(policy, model, 1e-6)
    hi = 1.0
    while cdf(hi) < p:
        hi *= 2.0
    return float(brentq(lambda t: cdf(t) - p, 0.0, hi, xtol=XTOL, rtol=RTOL))


_SCALE = st.floats(-2.0, 1.5).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(lam=_SCALE, mu=_SCALE, p=st.floats(1e-9, 1.0 - 1e-9))
@example(lam=0.01, mu=0.01, p=1.0 - 1e-9)
@example(lam=10**1.5, mu=10**1.5, p=1e-9)
def test_closed_form_quantiles_equal_brentq(lam, mu, p):
    model = ModelParams(lam, mu)
    for policy in ("one-turn-point", "zero-turn-intersection"):
        assert reach_quantile(model, p, policy) == _brentq_quantile(model, p, policy)


def test_intersection_quantile_equals_brentq():
    model = ModelParams(1.0, 0.5)
    policy = "one-turn-intersection"
    assert reach_quantile(model, 0.7, policy) == _brentq_quantile(model, 0.7, policy)


def _outcome(solve):
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x, 0.0, 1.0),                       # f(a) == 0
    (lambda x: x - 1.0, 0.0, 1.0),                 # f(b) == 0
    (lambda x: (x - 1e-8) ** 3, 0.0, 1.0),         # root next to a
    (lambda x: (x - (1.0 - 1e-8)) ** 3, 0.0, 1.0),  # root next to b
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 1.0, 0.0),          # reversed bracket
    (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 2.0),
    (lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0),  # a step: flat sides
    (lambda x: math.exp(x) - 1e5, 0.0, 20.0),
    (lambda x: x * x + 1.0, -1.0, 1.0),             # the same sign at both ends
    (lambda x: math.nan, 0.0, 1.0),
])
@pytest.mark.parametrize("xtol, rtol, maxiter", [
    (XTOL, RTOL, 100),
    (2e-12, 4 * 2.220446049250313e-16, 100),
    (1e-3, RTOL, 3),                                # maxiter exhaustion
])
def test_synthetic_brackets_equal_brentq(f, a, b, xtol, rtol, maxiter):
    want = _outcome(lambda: brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter))
    got = _outcome(lambda: _brent(f, a, b, xtol, rtol, maxiter))
    assert got == want


def test_errors():
    with pytest.raises(ValueError, match="differ in sign"):
        _brent(lambda x: 1.0, 0.0, 1.0, XTOL, RTOL)
    with pytest.raises(ValueError, match="nan"):
        _brent(lambda x: math.nan, 0.0, 1.0, XTOL, RTOL)
    with pytest.raises(RuntimeError, match="3 steps"):
        _brent(lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 2.0, XTOL, RTOL,
               maxiter=3)
