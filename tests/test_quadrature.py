import logging

import numpy as np
import pytest

from linecox import ModelParams, QuadratureFailure
from linecox.analytic import (
    cdf_one_turn_intersection,
    cdf_two_turn_bound,
    one_turn_intersection_terms,
    two_turn_T,
)
from linecox.quadrature import _graded_legendre, _legendre, settle_ladder


def test_gauss_legendre_rule():
    x, w = _legendre(4)
    assert abs(w.sum() - 1.0) < 1e-14
    assert np.all((x > 0) & (x < 1))
    # degree-7 polynomial is integrated exactly by the 4-point rule
    assert abs((w * x**7).sum() - 1.0 / 8.0) < 1e-14
    # cache returns the same (read-only) arrays
    x2, w2 = _legendre(4)
    assert x2 is x and w2 is w
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_polynomial_and_trig():
    # the n-point rule is exact for degree 2n - 1; sin needs a few more nodes
    x, w = _legendre(2)
    assert abs((w * x * x).sum() - 1.0 / 3.0) < 1e-15
    x, w = _legendre(12)
    assert abs(np.pi * (w * np.sin(np.pi * x)).sum() - 2.0) < 1e-12


def test_graded_rule():
    # g(x) = x**2*(3 - 2*x) maps [0, 1] onto itself, so the weights still sum
    # to 1; the integrand y = g(x) times g'(x) has degree 5, so the 4-point
    # rule integrates it exactly
    x, w = _graded_legendre(4)
    assert abs(w.sum() - 1.0) < 1e-14
    assert abs((w * x).sum() - 0.5) < 1e-14
    assert np.all(np.diff(x) > 0) and 0.0 < x[0] and x[-1] < 1.0
    assert _graded_legendre(4)[0] is x
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_budget_exhausted_carries_partial_result():
    # row-valued points: the payload is the first unsettled point's last row
    # and the largest change within that row
    rows = [np.array([[0.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.5], [1e-9, 0.0]]),
            np.array([[0.25, 0.75], [1e-9, 0.0]])]

    def evaluate(r, t):
        return rows[r][t.astype(int)]

    with pytest.raises(QuadratureFailure) as exc:
        settle_ladder(evaluate, 3, np.array([1.0, 0.0]), 1e-6, "rows", "w=0.5, ")
    assert str(exc.value) == "rows did not settle to 1e-06 at w=0.5, t=0.0"
    assert exc.value.value == (0.25, 0.75)
    assert exc.value.error_estimate == 0.25


def test_settle_ladder_climbs_with_the_unsettled_points_only(caplog):
    # rows: rungs; columns: points t = 0, 1, 2 (used as indices)
    table = np.array([[0.0, 0.0, 0.0], [1e-9, 1.0, 1.0], [5.0, 1.0 + 1e-9, 2.0]])
    seen = []

    def evaluate(r, t):
        seen.append((r, t.tolist()))
        return table[r, t.astype(int)]

    with pytest.raises(QuadratureFailure) as exc:
        settle_ladder(evaluate, 3, np.array([0.0, 1.0, 2.0]), 1e-6, "toy")
    assert seen == [(0, [0.0, 1.0, 2.0]), (1, [0.0, 1.0, 2.0]), (2, [1.0, 2.0])]
    assert str(exc.value) == "toy did not settle to 1e-06 at t=2.0"
    assert (exc.value.value, exc.value.error_estimate) == (2.0, 1.0)

    with caplog.at_level(logging.INFO, logger="linecox"):
        values, inc = settle_ladder(evaluate, 3, np.array([0.0, 1.0]), 1e-6, "toy")
    assert values.tolist() == [1e-9, 1.0 + 1e-9]
    assert inc == pytest.approx([1e-9, 1e-9], rel=1e-6)
    (record,) = caplog.records
    assert record.name == "linecox.quadrature"
    line = record.getMessage()
    assert line.startswith("toy: 2 points, settled per rung 2:1 3:1, largest increment 1e-09")
    with caplog.at_level(logging.INFO, logger="linecox"):
        empty = settle_ladder(evaluate, 3, np.zeros(0), 1e-6, "toy")
    assert [a.size for a in empty] == [0, 0]


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_bad_tolerance_is_bad_input_at_any_lam(tol, lam):
    """A tolerance that is not > 0 is bad input (ValueError, not
    QuadratureFailure), also at lam = 0, where every rung of the curves
    agrees."""
    params = ModelParams(lam, 1.0)
    calls = (
        lambda: cdf_one_turn_intersection(params, [0.0, 0.5], tol=tol),
        lambda: cdf_two_turn_bound(params, [0.0, 0.5], tol=tol),
        lambda: one_turn_intersection_terms(1.0, 0.5, tol=tol),
        lambda: two_turn_T(0.1, 0.2, 0.5, params, tol=tol),
        lambda: two_turn_T(0.5, 0.5, 0.5, params, tol=tol),
    )
    for call in calls:
        with pytest.raises(ValueError, match="tol must be > 0"):
            call()
