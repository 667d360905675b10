import logging
import math

import numpy as np
import pytest

from linecox import (
    BudgetExhausted,
    QuadSpec,
    QuadratureFailure,
    gauss_legendre,
    integrate_1d,
    integrate_nested,
)
from linecox.quadrature import settle_ladder

_LOG = logging.getLogger("linecox.test")


def test_polynomial_and_trig():
    v, e = integrate_1d(lambda x: x * x, 0.0, 1.0)
    assert abs(v - 1.0 / 3.0) <= max(e, 1e-12)
    v, e = integrate_1d(math.sin, 0.0, math.pi)
    assert abs(v - 2.0) <= max(e, 1e-10)


def test_degenerate_and_reversed_bounds():
    assert integrate_1d(lambda x: x, 2.0, 2.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 0.0, float("inf"))


def test_hints_route_breakpoints():
    # |x - 0.5| kinks at the hint; exact area is 0.25
    spec = QuadSpec(hints=(0.5,))
    v, e = integrate_1d(lambda x: abs(x - 0.5), 0.0, 1.0, spec)
    assert abs(v - 0.25) <= max(e, 1e-12)
    # hints outside the interval are ignored rather than passed through
    v2, _ = integrate_1d(lambda x: x, 0.0, 1.0, QuadSpec(hints=(7.0,)))
    assert abs(v2 - 0.5) < 1e-12


def test_budget_exhausted_carries_partial_result():
    spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-13, max_subdivisions=3)
    with pytest.raises(BudgetExhausted) as ei:
        integrate_1d(lambda x: math.sin(1.0 / (x + 1e-4)), 0.0, 1.0, spec)
    assert ei.value.value is not None
    assert ei.value.error_estimate is not None


@pytest.mark.parametrize("kw", [
    {"rel_tol": 0.0}, {"rel_tol": float("nan")},
    {"abs_tol": -1.0}, {"max_subdivisions": 0},
])
def test_quadspec_validation(kw):
    with pytest.raises(ValueError):
        QuadSpec(**kw)


def test_nested_triangle_and_box():
    # area of {0 <= y <= x <= 1} = 1/2 (callable inner bound)
    v, e = integrate_nested(lambda x, y: 1.0, [(0.0, 1.0), (0.0, lambda x: x)])
    assert abs(v - 0.5) <= max(e, 1e-9)
    # integral of x + y over the unit square = 1
    v, e = integrate_nested(lambda x, y: x + y, [(0.0, 1.0), (0.0, 1.0)])
    assert abs(v - 1.0) <= max(e, 1e-9)
    # three levels: volume of the unit cube
    v, e = integrate_nested(lambda x, y, z: 1.0,
                            [(0.0, 1.0)] * 3)
    assert abs(v - 1.0) <= max(e, 1e-8)


def test_nested_empty_level_is_zero():
    v, e = integrate_nested(lambda x, y: 1.0, [(0.0, 1.0), (1.0, lambda x: x)])
    assert v == 0.0 and e == 0.0


def test_nested_inner_failure_reports_location():
    spec = QuadSpec(rel_tol=1e-13, abs_tol=1e-14, max_subdivisions=2)
    with pytest.raises(QuadratureFailure) as ei:
        integrate_nested(lambda x, y: math.sin(1.0 / (y + 1e-5)),
                         [(0.0, 1.0), (0.0, 1.0)], spec)
    assert ei.value.where is not None


def test_nested_hints_per_level():
    v, e = integrate_nested(
        lambda x, y: abs(y - 0.5),
        [(0.0, 1.0), (0.0, 1.0)],
        hints=[None, (0.5,)],
    )
    assert abs(v - 0.25) <= max(e, 1e-10)


def test_gauss_legendre_rule():
    x, w = gauss_legendre(4)
    assert abs(w.sum() - 1.0) < 1e-14
    assert np.all((x > 0) & (x < 1))
    # degree-7 polynomial is integrated exactly by the 4-point rule
    assert abs((w * x**7).sum() - 1.0 / 8.0) < 1e-14
    # cache returns the same (read-only) arrays
    x2, w2 = gauss_legendre(4)
    assert x2 is x and w2 is w
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_settle_ladder_climbs_with_the_unsettled_points_only(caplog):
    # rows: rungs; columns: points t = 0, 1, 2 (used as indices)
    table = np.array([[0.0, 0.0, 0.0], [1e-9, 1.0, 1.0], [5.0, 1.0 + 1e-9, 2.0]])
    seen = []

    def evaluate(r, t):
        seen.append((r, t.tolist()))
        return table[r, t.astype(int)]

    def failure(t):
        return f"no settling at t={t}"

    with pytest.raises(QuadratureFailure) as exc:
        settle_ladder(evaluate, 3, np.array([0.0, 1.0, 2.0]), 1e-6, failure,
                      _LOG, "toy")
    assert seen == [(0, [0.0, 1.0, 2.0]), (1, [0.0, 1.0, 2.0]), (2, [1.0, 2.0])]
    assert str(exc.value) == "no settling at t=2.0"
    assert (exc.value.value, exc.value.error_estimate) == (2.0, 1.0)

    with caplog.at_level(logging.INFO, logger="linecox"):
        values, inc = settle_ladder(evaluate, 3, np.array([0.0, 1.0]), 1e-6,
                                    failure, _LOG, "toy")
    assert values.tolist() == [1e-9, 1.0 + 1e-9]
    assert inc == pytest.approx([1e-9, 1e-9], rel=1e-6)
    (line,) = [r.getMessage() for r in caplog.records]
    assert line.startswith("toy: 2 points, settled per rung 2:1 3:1, largest increment 1e-09")
    with caplog.at_level(logging.INFO, logger="linecox"):
        empty = settle_ladder(evaluate, 3, np.zeros(0), 1e-6, failure, _LOG, "toy")
    assert [a.size for a in empty] == [0, 0]
