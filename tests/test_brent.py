"""The in-package Brent solver against scipy.optimize.brentq, bit for bit,
and every reach quantile, solved by it, against brentq on the same bracket."""

import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from linecox import applications
from linecox.applications import _brent, reach_quantile
from linecox.errors import NoBracket, QuadratureFailure
from linecox.model import ModelParams

XTOL, RTOL = 1e-12, 1e-9  # reach_quantile's tolerances


def _brentq_quantile(model, p, policy):
    """reach_quantile's bracket, solved by brentq."""
    cdf = applications._reach_cdf(policy, model, 1e-6)
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


INTERSECTION = "one-turn-intersection"


def _spy_curve(monkeypatch):
    """Record the t of every curve call reach_quantile makes."""
    calls = []
    real = applications.cdf_one_turn_intersection

    def spy(model, t, **kw):
        calls.append(np.array(t, dtype=float))
        return real(model, t, **kw)

    monkeypatch.setattr(applications, "cdf_one_turn_intersection", spy)
    return calls


# (lam, mu, p): the benchmark's quantile jobs (lam, mu in [0.8, 1.25],
# p in [0.5, 0.6]), then lam/mu from 0.01 to 100 and p from 1e-6 to 1 - 1e-9,
# then lam 1, mu 1e-3, where the model's bracket of the root,
# [L/(4*(mu + lam)), L/(4*mu)] with L = -log(1 - p), reaches past t = 64
GRID = [
    (0.8, 1.25, 0.5), (1.25, 0.8, 0.6), (1.0, 1.0, 0.55), (1.25, 1.25, 0.5),
    (0.01, 1.0, 1e-6), (0.01, 1.0, 0.5), (0.01, 1.0, 1.0 - 1e-9),
    (100.0, 1.0, 1e-6), (100.0, 1.0, 0.5), (100.0, 1.0, 1.0 - 1e-9),
    (1.0, 1.0, 0.999), (3.0, 1.0, 0.99), (10.0, 1.0, 0.9), (1.0, 100.0, 0.5),
    (1.0, 0.01, 0.5), (1.0, 1e-3, 0.5), (1.0, 1e-3, 0.9), (1.0, 1e-3, 0.999),
]


@pytest.mark.parametrize("lam, mu, p", GRID)
def test_intersection_quantile_is_certified_or_brentq(lam, mu, p):
    """The one-turn-intersection quantile is brentq's root on the same
    bracket, bit for bit, as the closed forms' are; no certified root
    stands in for it."""
    model = ModelParams(lam, mu)
    assert reach_quantile(model, p, INTERSECTION) == _brentq_quantile(model, p, INTERSECTION)


@pytest.mark.parametrize("policy", applications.REACH_POLICIES)
def test_each_quantile_logs_one_line_with_its_curve_calls(monkeypatch, caplog, policy):
    calls = []
    real = applications._reach_cdf

    def spy(*args):
        cdf = real(*args)
        return lambda t: calls.append(t) or cdf(t)

    monkeypatch.setattr(applications, "_reach_cdf", spy)
    with caplog.at_level(logging.INFO, logger="linecox.applications"):
        reach_quantile(ModelParams(1.0, 1.0), 0.55, policy)
    lines = [r.getMessage() for r in caplog.records if r.name == "linecox.applications"]
    assert len(lines) == 1
    assert lines[0].startswith(f"reach quantile ({policy}) p=0.55: {len(calls)} curve calls, ")
    assert lines[0].endswith(" ms")


def test_quadrature_failure_everywhere_raises_as_the_generic_path():
    """No rung pair agrees to 1e-300: the solve raises at its first curve
    call, t = 1."""
    with pytest.raises(QuadratureFailure, match=r"did not settle to 1e-300 at t=1\.0$"):
        reach_quantile(ModelParams(1.0, 1.0), 0.5, INTERSECTION, tol=1e-300)


def test_no_lam_takes_the_generic_path(monkeypatch):
    """lam = 0: the curve is the zero-turn form, solved like any other."""
    model = ModelParams(0.0, 1.0)
    calls = _spy_curve(monkeypatch)
    q = reach_quantile(model, 0.5, INTERSECTION)
    monkeypatch.undo()
    assert float(calls[0]) == 1.0 and all(np.ndim(t) == 0 for t in calls)
    assert q == _brentq_quantile(model, 0.5, INTERSECTION)


@pytest.mark.parametrize("lam, mu, p, root", [
    (1e-3, 1e-3, 0.5, 156.57406148894734),
    (0.0, 1e-3, 0.5, 173.28679513961495),
    (1.0, 1e-4, 0.9, 84.86269232532474),
    (0.0, 1e-6, 0.5, 173286.79513918803),
])
def test_an_intersection_root_past_64_is_brentq_s(lam, mu, p, root):
    """Sparse charging points put the root past t = 64; the bracket keeps
    doubling, as for the closed forms, and the root is brentq's. At lam = 0
    it is the zero-turn-intersection quantile, the same curve, bit for bit."""
    model = ModelParams(lam, mu)
    assert reach_quantile(model, p, INTERSECTION) == root == _brentq_quantile(
        model, p, INTERSECTION)
    if lam == 0.0:
        assert root == reach_quantile(model, p, "zero-turn-intersection")


def test_the_bracket_doubles_to_the_one_cap(monkeypatch, caplog):
    """At mu = 1e-300 the curve stays near 0: the bracket doubles from t = 1
    to 2^60 and raises NoBracket past it, in 61 curve calls, and the INFO
    line is still written."""
    calls = _spy_curve(monkeypatch)
    with caplog.at_level(logging.INFO, logger="linecox.applications"):
        with pytest.raises(NoBracket, match=r"search cap 1\.152921504606847e\+18 "):
            reach_quantile(ModelParams(0.0, 1e-300), 0.5, INTERSECTION)
    assert [float(t) for t in calls] == [2.0**k for k in range(61)]
    assert "p=0.5: 61 curve calls, " in caplog.text


@pytest.mark.parametrize("policy, curve", [
    ("one-turn-point", "cdf_one_turn_point"),
    ("zero-turn-intersection", "cdf_zero_turn_intersection"),
])
def test_the_bracket_top_is_evaluated_once(monkeypatch, policy, curve):
    seen = []
    real = getattr(applications, curve)
    monkeypatch.setattr(applications, curve,
                        lambda model, t: seen.append(t) or real(model, t))
    reach_quantile(ModelParams(1.0, 1.0), 0.55, policy)
    assert seen[:2] == [1.0, 0.0] and seen.count(1.0) == 1


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
