import json
import logging
import math
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad

from linecox import (
    DomainError,
    ModelParams,
    QuadratureFailure,
    TurnPolicy,
    cdf_two_turn_bound,
    dkw_halfwidth,
    sample_D,
    two_turn_T,
    typical_point,
)

DATA = pathlib.Path(__file__).parent / "data" / "riemann_oracle.json"
P11 = ModelParams(1.0, 1.0)


def ttilde_riemann(w, u, t, mu, n):
    """Plain midpoint transcription of the survival kernel, written fresh
    for this test (600 cells keeps it a subsecond cross-check)."""
    q = (u - w) / (t - w)
    ti = (np.arange(n) + 0.5) * math.pi / n
    th1 = (np.arange(n) + 0.5) * math.pi / n
    cos_i, sin_i = np.cos(ti)[:, None], np.sin(ti)[:, None]
    lower = (ti <= math.pi / 2)[:, None]
    thr = math.pi / 2 - np.arctan(np.where(lower, cos_i - q / sin_i,
                                           (q - cos_i) / sin_i))
    in_reg = np.where(lower, th1[None, :] <= thr, th1[None, :] >= thr)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = (u - w) / (cos_i - sin_i * (np.cos(th1) / np.sin(th1))[None, :])
    y = np.where(np.isnan(y), 0.0, y)
    z = np.maximum((t - w) - y, 0.0)
    return float(np.where(in_reg, np.exp(-mu * z), 1.0).mean())


def test_kernel_matches_frozen_riemann():
    data = json.loads(DATA.read_text())
    assert len(data["ttilde"]) == 3
    for rec in data["ttilde"]:
        v = two_turn_T(rec["w"], rec["u"], rec["t"], ModelParams(1.0, rec["mu"]))
        # coarse resolution carries ~2e-4 of its own first-order bias;
        # the fine one is good to ~3e-5
        assert v == pytest.approx(rec["values"]["2000"], abs=5e-4)
        assert v == pytest.approx(rec["values"]["16000"], abs=1e-4)


def test_kernel_matches_inline_riemann_at_fresh_point():
    w, u, t, mu = 0.25, 0.8, 1.2, 0.7
    v = two_turn_T(w, u, t, ModelParams(1.0, mu))
    assert v == pytest.approx(ttilde_riemann(w, u, t, mu, 600), abs=2e-3)


def test_kernel_equal_turn_arcs_reduction():
    # w = u makes y vanish, so the kernel is a two-point mixture: the
    # admissible-angle measure M carries exp(-mu*(t-u)), the rest carries 1
    M = quad(lambda th: math.pi / 2 - math.atan(math.cos(th)),
             0, math.pi / 2)[0] + 3 * math.pi**2 / 8
    for u, t, mu in ((0.0, 1.0, 1.0), (0.3, 0.5, 2.0), (1.0, 2.5, 0.4)):
        want = 1.0 - M * (1.0 - math.exp(-mu * (t - u))) / math.pi**2
        got = two_turn_T(u, u, t, ModelParams(1.0, mu))
        assert got == pytest.approx(want, abs=1e-8)


def test_kernel_range_and_edges():
    rng = np.random.default_rng(3)
    for _ in range(25):
        t = float(rng.uniform(0.2, 3.0))
        w, u = np.sort(rng.uniform(0.0, t, size=2))
        v = two_turn_T(float(w), float(u), t, P11)
        assert 0.0 <= v <= 1.0
    assert two_turn_T(1.0, 1.0, 1.0, P11) == 1.0  # no reach left


def test_kernel_monotone_in_mu():
    for mu_lo, mu_hi in ((0.2, 0.5), (0.5, 1.0), (1.0, 3.0)):
        lo = two_turn_T(0.2, 0.6, 1.0, ModelParams(1.0, mu_hi))
        hi = two_turn_T(0.2, 0.6, 1.0, ModelParams(1.0, mu_lo))
        assert lo < hi


def test_kernel_validation():
    for w, u, t in ((-0.1, 0.5, 1.0), (0.6, 0.5, 1.0), (0.2, 1.2, 1.0),
                    (0.0, 0.0, float("inf")), (0.0, 0.0, float("nan"))):
        with pytest.raises(DomainError):
            two_turn_T(w, u, t, P11)


def test_bound_contract():
    assert cdf_two_turn_bound(P11, 0.0) == 0.0
    assert cdf_two_turn_bound(ModelParams(0.0, 1.0), 1.5) == 0.0

    t = np.array([0.0, 0.5, 1.0, 2.0])
    vals, errs = cdf_two_turn_bound(P11, t, with_err=True)
    assert vals.shape == errs.shape == t.shape
    assert vals[0] == 0.0
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(np.diff(vals) > 0)
    scalar = cdf_two_turn_bound(P11, 1.0)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(vals[2], abs=2e-5)


def test_bound_validation():
    with pytest.raises(DomainError):
        cdf_two_turn_bound(P11, -0.5)
    with pytest.raises(DomainError):
        cdf_two_turn_bound(P11, float("nan"))
    with pytest.raises(QuadratureFailure) as exc:
        cdf_two_turn_bound(P11, 1.0, tol=1e-14)
    assert 0.0 < exc.value.value < 1.0


def test_bound_sits_above_small_mc():
    # 2000 exactly-two-turn directed trials against the bound at three
    # reaches; the acceptance suite repeats this at full size
    pol = TurnPolicy.two_turn_directed(include_lower_turn_paths=False)
    grid = np.array([0.5, 1.0, 1.5])
    n = 2000
    d = np.array([sample_D(P11, typical_point(), pol, 1.5, seed=(7001, s))
                  for s in range(n)])
    ecdf = (d[:, None] <= grid[None, :]).mean(axis=0)
    bound = cdf_two_turn_bound(P11, grid)
    slack = dkw_halfwidth(n, 1e-3)
    assert np.all(ecdf <= bound + slack), (ecdf, bound)


def test_bound_values_and_log_line(caplog):
    # values and increments recorded from the per-point ladder loop that
    # the shared settle driver replaced; they must not move by one bit
    with caplog.at_level(logging.INFO, logger="linecox"):
        vals, errs = cdf_two_turn_bound(P11, np.array([0.0, 0.3, 1.2]),
                                        with_err=True)
    assert vals.tolist() == [0.0, 0.29261020049469905, 0.8360441967712434]
    assert errs.tolist() == [0.0, 3.254531102947489e-07, 7.815305069769352e-09]
    lines = [r.getMessage() for r in caplog.records
             if r.name == "linecox.analytic.twoturn"]
    assert len(lines) == 1
    assert lines[0].startswith("two-turn bound: 2 points, settled per rung 2:")
    assert "largest increment 3.25e-07" in lines[0]
