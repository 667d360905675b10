import hashlib
import json
import logging
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from linecox import (
    DEFAULT_VARIANT,
    DomainError,
    InputError,
    LineCoxError,
    ModelParams,
    NonFinite,
    QuadratureFailure,
    cdf_one_turn_intersection,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
    cli,
    one_turn_intersection_terms,
    reach_quantile,
)
from linecox.analytic import _thm2_build, intersection
from linecox.analytic._thm2_build import _REGIMES, _coefficients, _thresholds, _zeta
from linecox.quadrature import _legendre
from dispatch import float64_target
from thm2_direct import direct_slopes, direct_terms

DATA = pathlib.Path(__file__).parent / "data" / "riemann_oracle.json"
P11 = ModelParams(1.0, 1.0)
# |sin(omega1 - omega)| below which the Riemann reference
# (tools/make_riemann_oracle.py) extends exp(-mu*Z) by 0
RIEMANN_GUARD = 1e-9


def thresholds(x, omega, t):
    """The four breakpoints for entry distance x, angle omega and reach t."""
    return tuple(float(v) for v in _thresholds(x / t, math.sin(omega), math.cos(omega)))


def z_off_window(x, omega1, omega, t, regime):
    """Z of the outer (regime 0) or transition (regime 2) form, clipped."""
    v = np.array([math.tan(0.5 * (omega1 - omega))])
    zeta = _zeta(v, *_coefficients(x / t, math.sin(omega), math.cos(omega),
                                   _REGIMES[regime]))
    return float(t * np.clip(zeta[0], 0.0, 4.0))


def test_threshold_hand_values():
    # omega = pi/2, t = 1, x = 0.5: window arctans and arccos pair by hand
    outer_lo, win_lo, win_hi, outer_hi = thresholds(0.5, math.pi / 2, 1.0)
    assert win_lo == pytest.approx(math.atan2(1.0, 0.5), abs=1e-12)
    assert win_hi == pytest.approx(math.atan2(1.0, -0.5), abs=1e-12)
    # rho = 3, rho^2+1 = 10: arguments +-6/10
    assert outer_lo == pytest.approx(math.acos(0.6), abs=1e-12)
    assert outer_hi == pytest.approx(math.acos(-0.6), abs=1e-12)


def test_thresholds_symmetric_at_right_angle():
    outer_lo, win_lo, win_hi, outer_hi = thresholds(0.5, math.pi / 2, 1.0)
    assert win_hi == pytest.approx(math.pi - win_lo, abs=1e-9)
    assert outer_hi == pytest.approx(math.pi - outer_lo, abs=1e-9)


def test_threshold_nesting_sampled():
    rng = np.random.default_rng(5)
    for _ in range(300):
        t = float(rng.uniform(0.1, 3.0))
        x = float(rng.uniform(0.0, 1.0)) * t
        omega = float(rng.uniform(1e-3, math.pi - 1e-3))
        outer_lo, win_lo, win_hi, outer_hi = thresholds(x, omega, t)
        assert outer_lo <= win_lo + 1e-9
        assert win_lo <= win_hi + 1e-9
        assert win_hi <= outer_hi + 1e-9
        assert 0.0 <= outer_lo and outer_hi <= math.pi


@pytest.mark.parametrize("rung", [0, 1, 2])
def test_no_segment_off_the_window_reaches_omega(rung):
    """outer_lo < omega, win_lo < omega < win_hi and omega < outer_hi,
    strictly, at every (omega, x) node of the rung, so every omega1 row
    keeps v = tan((omega1 - omega)/2) finite and of one sign, and the
    kernel needs no guard for a row through the pole.

    Proof, for omega in (0, pi) and xr = x/t in (0, 1]. Window: with
    sin(omega) > 0, atan2(sin(omega), a) falls as a rises, so
    win_lo = atan2(sin, cos + xr) < atan2(sin, cos) = omega <
    atan2(sin, cos - xr) = win_hi. Outer: with rho = (2 - xr)/xr > 0 and
    r2 = rho^2 + 1, the denominators r2 +- 2*rho*cos(omega) =
    (rho +- cos(omega))^2 + sin(omega)^2 are positive, and

        arg_lo - cos(omega) = 2*rho*sin(omega)^2/(r2 + 2*rho*cos(omega)) > 0,
        1 - arg_lo = (rho - 1)^2*(1 - cos(omega))/(r2 + 2*rho*cos(omega)) >= 0,

    so arg_lo lies in (cos(omega), 1] and outer_lo = arccos(arg_lo) <
    omega; arg_hi at omega is -arg_lo at pi - omega, so arg_hi lies in
    [-1, cos(omega)) and outer_hi > omega. The closest segment end of the
    third rung clears omega by 4.8e-9, far above the rounding of either
    side."""
    nw, nx, _ = intersection._LADDER[rung]
    og, _ = _legendre(nw)
    xg, _ = _legendre(nx)
    omega, xr = np.repeat(math.pi * og, nx), np.tile(xg, nw)
    outer_lo, win_lo, win_hi, outer_hi = _thresholds(xr, np.sin(omega), np.cos(omega))
    assert (outer_lo < omega).all() and (omega < outer_hi).all()
    assert (win_lo < omega).all() and (omega < win_hi).all()


def test_z_length_branch_values():
    t, x, omega = 1.0, 0.5, math.pi / 2
    outer_lo, win_lo, win_hi, outer_hi = thresholds(x, omega, t)

    # middle window (1.107..2.034 here): flat remaining budget on both arms
    assert win_lo <= 1.3 <= win_hi

    # outer branch at omega1 = 0.5 (below outer_lo ~ 0.927)
    om1 = 0.5
    assert om1 <= outer_lo
    c = (math.sin(omega) + math.sin(om1)) / math.sin(om1 - omega)
    want = min(max(2 * t - x * (c + 1.0), 0.0), 4 * t)
    assert z_off_window(x, om1, omega, t, 0) == pytest.approx(want, abs=1e-12)

    # transition branch at omega1 = 1.0 (between outer_lo and win_lo ~ 1.107)
    om1 = 1.0
    assert outer_lo < om1 < win_lo
    want = min(max(4 * t - 2 * x * (1 + 2 * math.sin(om1) / math.sin(om1 - omega)),
                   0.0), 4 * t)
    assert z_off_window(x, om1, omega, t, 2) == pytest.approx(want, abs=1e-12)


def test_z_length_boundary_probe():
    # the regime switch need not be continuous; both sides must stay finite
    t, x, omega = 1.0, 0.5, math.pi / 2
    outer_lo = thresholds(x, omega, t)[0]
    lo = z_off_window(x, outer_lo - 1e-6, omega, t, 0)
    hi = z_off_window(x, outer_lo + 1e-6, omega, t, 2)
    assert math.isfinite(lo) and math.isfinite(hi)


def test_terms_match_riemann_oracle():
    data = json.loads(DATA.read_text())
    assert data["cells_per_axis"] >= 2000
    for rec in data["tx"]:
        assert rec["variant"] == DEFAULT_VARIANT
        tx, ty = one_turn_intersection_terms(rec["mu"], rec["t"])
        assert tx == pytest.approx(rec["tx"], abs=5e-4)
        assert ty == pytest.approx(rec["ty"], abs=5e-4)


def test_terms_regression_and_failure_payload():
    tx, ty = one_turn_intersection_terms(1.0, 1.0)
    assert tx == pytest.approx(0.3585005653644986, rel=1e-9)
    assert ty == pytest.approx(0.908067928716823, rel=1e-9)
    with pytest.raises(QuadratureFailure) as exc:
        one_turn_intersection_terms(1.0, 1.0, tol=1e-15)
    assert exc.value.value is not None
    assert exc.value.error_estimate > 0


def test_cdf_lambda_zero_is_exact_corollary():
    t = np.linspace(0.0, 2.0, 21)
    p = ModelParams(0.0, 1.7)
    assert np.array_equal(cdf_one_turn_intersection(p, t),
                          cdf_zero_turn_intersection(p, t))
    v, e = cdf_one_turn_intersection(p, t, with_err=True)
    assert np.all(e == 0.0)


def test_cdf_basic_contract():
    assert cdf_one_turn_intersection(P11, 0.0) == 0.0
    v, e = cdf_one_turn_intersection(P11, 1.0, with_err=True)
    assert isinstance(v, float) and isinstance(e, float)
    assert 0.0 < v < 1.0 and 0.0 <= e <= 1e-6

    t = np.array([0.0, 0.5, 1.0])
    arr, errs = cdf_one_turn_intersection(P11, t, with_err=True)
    assert arr.shape == errs.shape == t.shape
    assert arr[0] == 0.0
    assert arr[2] == pytest.approx(v, abs=2e-6)
    assert np.all(np.diff(arr) > 0)


def test_cdf_sandwiched_between_corollaries():
    t = np.array([0.1, 0.25, 0.5, 1.0, 1.5])
    mid = cdf_one_turn_intersection(P11, t)
    lo = cdf_zero_turn_intersection(P11, t)
    hi = cdf_upper_intersection(P11, t)
    assert np.all(lo <= mid) and np.all(mid <= hi)


def test_cdf_validation():
    with pytest.raises(NonFinite):
        cdf_one_turn_intersection(P11, float("nan"))
    with pytest.raises(Exception):
        cdf_one_turn_intersection(P11, -1.0)
    with pytest.raises(QuadratureFailure) as exc:
        cdf_one_turn_intersection(P11, 1.0, tol=1e-15)
    assert 0.0 < exc.value.value < 1.0


# (Tx, Ty) of one_turn_intersection_terms recorded with the per-omega
# reference loop this kernel replaced, (mu, t) pairs in the order of
# _TERM_PAIRS
_TERM_PAIRS = ((1.0, 1.0), (0.3, 2.5), (2.0, 0.4), (0.05, 1.7), (4.0, 0.9))
_TERMS_RECORDED = (
    (0.3585005653644993, 0.9080679287168227),
    (1.0837198438466529, 2.310392936309738),
    (0.16645493605900333, 0.3682684791330622),
    (1.5086333660067412, 1.680478070855443),
    (0.12952508161399334, 0.7528340081790967))


def test_terms_match_the_recorded_reference():
    assert DEFAULT_VARIANT == "plus/full-angle/x"
    for (mu, t), (tx, ty) in zip(_TERM_PAIRS, _TERMS_RECORDED):
        got = one_turn_intersection_terms(mu, t)
        assert got[0] == pytest.approx(tx, abs=1e-12, rel=0)
        assert got[1] == pytest.approx(ty, abs=1e-12, rel=0)


def test_the_recipe_is_not_a_choice():
    import linecox
    import linecox.analytic
    assert not hasattr(linecox, "IntersectionVariant")
    assert not hasattr(linecox.analytic, "IntersectionVariant")
    # a stale positional variant is refused, not read as a tolerance
    with pytest.raises(TypeError):
        cdf_one_turn_intersection(P11, 1.0, DEFAULT_VARIANT)
    with pytest.raises(TypeError):
        one_turn_intersection_terms(1.0, 1.0, DEFAULT_VARIANT)
    with pytest.raises(TypeError):
        reach_quantile(P11, 0.5, "one-turn-intersection", DEFAULT_VARIANT)


def test_batch_equals_one_point_calls_bit_for_bit():
    grid = np.linspace(0.0, 3.0, 31)
    values, errs = cdf_one_turn_intersection(P11, grid, with_err=True)
    for i, t in enumerate(grid):
        v, e = cdf_one_turn_intersection(P11, float(t), with_err=True)
        assert values[i] == v and errs[i] == e


def test_terms_depend_on_mu_times_t_alone():
    # mu*t = 1.5 in all three; every one settles at the same rung
    scaled = [np.array(one_turn_intersection_terms(mu, t)) / t
              for mu, t in ((1.0, 1.5), (0.5, 3.0), (3.0, 0.5))]
    for other in scaled[1:]:
        assert np.allclose(other, scaled[0], rtol=0, atol=1e-12)


def test_one_unsettled_point_fails_the_batch_with_its_payload():
    # at tol 1e-9 the point t = 0.3 still moves by ~1.9e-9 at the last
    # rung; t = 0.05 and 1.0 settle at rung 3, t = 2.5 at rung 2
    grid = np.array([0.0, 0.05, 0.3, 1.0, 2.5])
    with pytest.raises(QuadratureFailure) as batch:
        cdf_one_turn_intersection(P11, grid, tol=1e-9)
    assert "at t=0.3" in str(batch.value)
    assert 0.0 < batch.value.value < 1.0
    assert batch.value.error_estimate > 1e-9
    with pytest.raises(QuadratureFailure) as alone:
        cdf_one_turn_intersection(P11, 0.3, tol=1e-9)
    assert (batch.value.value, batch.value.error_estimate) == (
        alone.value.value, alone.value.error_estimate)
    settled = cdf_one_turn_intersection(P11, grid[[0, 1, 3, 4]], tol=1e-9)
    assert np.all(np.diff(settled) > 0)


@pytest.fixture
def fresh_tables(monkeypatch):
    """Every table the test reads is built afresh, under its patches, by
    the builder (``_thm2_build._build_table``) in place of the loaded
    file."""
    monkeypatch.setattr(intersection, "_table", _thm2_build._build_table)


def test_chunking_does_not_change_the_terms(monkeypatch, fresh_tables):
    """Each call builds its table afresh, with the chunk size it is given."""
    s = np.array([0.05, 1.0, 6.0])
    nw, nx, n1 = intersection._LADDER[0]
    pairs = nw * nx
    ref = intersection._rung_terms(s, nw, nx, n1)
    assert pairs % 256 == 0 and pairs % 100 != 0  # 100 leaves a partial chunk
    for step in (1, 100, 256, pairs):
        monkeypatch.setattr(_thm2_build, "_CHUNK_NODES", 4 * n1 * step)
        got = intersection._rung_terms(s, nw, nx, n1)
        assert np.allclose(got[0], ref[0], rtol=1e-13, atol=0)
        assert np.array_equal(got[1], ref[1])  # the window is not chunked


@pytest.mark.parametrize("rung", [0, 1])
def test_the_fold_matches_the_all_node_sum(monkeypatch, fresh_tables, rung):
    """Brute force over every Gauss node of every row: a folded row clips
    to its bound at every node, a row left unfolded though every node clips
    crosses the bound between its outermost node and its segment's end, and
    the kernel, from a table built here, equals the sum over all nodes."""
    nw, nx, n1 = intersection._LADDER[rung]
    seen = []
    real = _thm2_build._segment_rows

    def spy(lo, hi, omega, weight, c, p, q):
        rows = real(lo, hi, omega, weight, c, p, q)
        seen.append(((c, p, q), rows))
        return rows

    monkeypatch.setattr(_thm2_build, "_segment_rows", spy)
    s = np.array([0.05, 1.0, 6.0, 20.0])
    fx, _ = intersection._rung_terms(s, nw, nx, n1)
    assert len(seen) == 4

    sg, sgw = _legendre(n1)
    off_window = np.zeros(s.size)
    folded = 0
    for coef, (gap, width, mass, below, above) in seen:
        v = np.tan(0.5 * (gap + width * sg[:, None]))
        zeta = _thm2_build._zeta(v, *coef)
        assert (zeta[:, below] <= 0.0).all() and (zeta[:, above] >= 4.0).all()
        ends = np.stack([_thm2_build._zeta(np.tan(0.5 * end), *coef)
                         for end in (gap, gap + width)])
        kept = (mass > 0.0) & ~below & ~above
        tol = _thm2_build._FOLD_TOL
        assert (ends[:, kept & (zeta <= 0.0).all(axis=0)].max(axis=0) >= -tol).all()
        assert (ends[:, kept & (zeta >= 4.0).all(axis=0)].min(axis=0) <= 4.0 + tol).all()
        folded += below.sum() + above.sum()

        w = mass * sgw[:, None]
        guard = np.abs(2.0 * v) < RIEMANN_GUARD * (1.0 + v * v)
        w[guard] = 0.0
        zeta = np.clip(np.where(guard, 0.0, zeta), 0.0, 4.0)
        off_window += [(w * np.exp(-sk * zeta)).sum() for sk in s]
    assert folded > 0.2 * 4 * nw * nx

    og, ow = _legendre(nw)
    xg, xw = _legendre(nx)
    omega, xr = np.repeat(np.pi * og, nx), np.tile(xg, nw)
    _, win_lo, win_hi, _ = _thm2_build._thresholds(xr, np.sin(omega), np.cos(omega))
    win_mass = np.maximum(win_hi - win_lo, 0.0) * np.outer(ow, xw).ravel() / np.pi
    window = [(win_mass * np.exp(-2.0 * sk * (1.0 - xr))).sum() for sk in s]
    assert np.allclose(fx, off_window + window, rtol=1e-13, atol=0)


@pytest.mark.parametrize("rung", [0, 1, 2])
def test_no_node_of_any_rung_lies_within_the_riemann_guard(monkeypatch, rung):
    """The kernel extends no node by 0: every omega1 node that a table
    build folds in keeps |sin(omega1 - omega)| = |2v/(1 + v^2)| at or above
    the Riemann reference's guard. The geometry is built at unit reach, so
    this holds for every lam, mu and t; a ladder that puts a node inside
    fails here.
    The closest nodes sit at 1.19e-6, 7.57e-8 and 4.78e-9 on rungs 1-3."""
    nw, nx, n1 = intersection._LADDER[rung]
    seen = []
    real = _thm2_build._segment_rows

    def spy(*args):
        rows = real(*args)
        seen.append(rows)
        return rows

    monkeypatch.setattr(_thm2_build, "_segment_rows", spy)
    _thm2_build._build_table(nw, nx, n1)
    assert len(seen) == 4

    sg, _ = _legendre(n1)
    clearance = math.inf
    for gap, width, mass, below, above in seen:
        kept = (mass > 0.0) & ~below & ~above
        v = np.tan(0.5 * (gap[kept] + width[kept] * sg[:, None]))
        clearance = min(clearance, float((np.abs(2.0 * v) / (1.0 + v * v)).min()))
    assert clearance >= RIEMANN_GUARD


def test_a_two_point_call_stays_small():
    t = np.array([0.7, 1.3])
    cdf_one_turn_intersection(P11, t)  # caches the rules; settles on rung 2
    tracemalloc.start()
    try:
        cdf_one_turn_intersection(P11, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 2**20


def test_each_curve_call_logs_its_ladder(caplog):
    grid = np.array([0.0, 0.05, 0.5, 2.5])
    with caplog.at_level(logging.INFO, logger="linecox"):
        quiet = cdf_one_turn_intersection(P11, grid)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "linecox.analytic.intersection"]
    assert len(lines) == 1
    assert lines[0].startswith("one-turn intersection CDF: 3 points, settled per rung 2:")
    assert "largest increment" in lines[0] and lines[0].endswith(" ms")
    assert np.array_equal(quiet, cdf_one_turn_intersection(P11, grid))


def test_cdf_is_one_where_the_zero_turn_curve_rounds_to_one():
    """F lies between 1 - exp(-4*mu*t) and 1. Where the first rounds to 1,
    F is 1 with a zero error and no rung runs, also where mu*t overflows
    (which gave nan, a failed ladder or an overflow warning)."""
    t = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    values, err = cdf_one_turn_intersection(ModelParams(1.0, 1e308), t, with_err=True)
    assert values.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0] and not err.any()
    assert cdf_one_turn_intersection(ModelParams(2.0, 10.0), 1.0) == 1.0  # 4*mu*t = 40


def test_cdf_stays_a_probability_when_lam_t_is_huge_and_mu_t_tiny():
    """2t - Tx - Ty rounds to 0 or below where mu*t is tiny; with lam past
    the largest float / 2 that gave nan (inf * 0) and a warning."""
    values = cdf_one_turn_intersection(ModelParams(1e308, 0.5), [1e-300, 2e-300, 3e-300])
    assert np.all((values >= 0.0) & (values <= 1.0))


# s at which each rung's table is held to the direct node sum: 0, the
# series' range, the range cdf_one_turn_intersection reaches (below 9.4),
# and the rest of the tables' domain up to _S_MAX
_TABLE_S = np.array([0.0, 1e-6, 1e-3, 0.01, 0.5, 2.0, 5.0, 9.35,
                     20.0, intersection._S_MAX])


@pytest.mark.parametrize("rung", [0, 1, 2])
def test_the_table_matches_the_direct_node_sum(rung):
    """fx and fy from the rung's Laplace table equal the sum of
    w*exp(-s*z) over the same nodes (tests/thm2_direct.py) within 4e-15
    absolute, at every s the table serves. The table's truncation adds at
    most exp(s*h/2)*(s*h/2)**(J + 1)/(J + 1)! of each bin's weight, 3.1e-17
    at s = _S_MAX, and the bins' weights sum to at most 1; the rest is the
    rounding of the two sums, up to 1.6e-15 over the 13.6M nodes of the
    third rung. The 2 - fx - fy that the CDF reads, series included, stays
    within the same 4e-15 of the direct sum's."""
    rule = intersection._LADDER[rung]
    want_x, want_y = direct_terms(_TABLE_S, *rule)
    got_x, got_y = intersection._rung_terms(_TABLE_S, *rule)
    assert np.allclose(got_x, want_x, rtol=0, atol=4e-15)
    assert np.allclose(got_y, want_y, rtol=0, atol=4e-15)
    gap = _TABLE_S * np.add(*intersection._rung_slopes(_TABLE_S, *rule))
    assert np.allclose(gap, 2.0 - want_x - want_y, rtol=0, atol=4e-15)


# s at which each rung's slopes are held to the direct sums: the smallest
# subnormal, tiny s where 2 - fx - fy is mostly rounding, and on to _S_MAX
_SLOPE_S = np.array([5e-324, 1e-300, 1e-12, 1e-6, 1e-3, 0.02, 9.35, intersection._S_MAX])


@pytest.mark.parametrize("rung", [0, 1, 2])
def test_the_slopes_match_the_direct_sums(rung):
    """gx and gy, with 1 - fx = s*gx and 1 - fy = s*gy, equal the sums of
    w*z*phi(s*z), phi(x) = -expm1(-x)/x, over the same nodes
    (tests/thm2_direct.py) within 4e-15 relative at every rung, down to
    the smallest subnormal s. Both are sums of positive terms, so the
    bound is the rounding of the sums (at most 1.4e-15, at the third rung)
    plus the table's truncation, at most
    (h/2)*exp(s*h/2)*(s*h/2)**J/(J + 1)! = 7.6e-19 of a bin's weight at
    s = _S_MAX."""
    rule = intersection._LADDER[rung]
    want_x, want_y = direct_slopes(_SLOPE_S, *rule)
    got_x, got_y = intersection._rung_slopes(_SLOPE_S, *rule)
    assert np.allclose(got_x, want_x, rtol=4e-15, atol=0)
    assert np.allclose(got_y, want_y, rtol=4e-15, atol=0)


def test_a_fresh_rung_2_build_stays_small():
    rule = intersection._LADDER[1]
    for n in rule:
        _legendre(n)  # the cached rules are not the build's
    tracemalloc.start()
    try:
        _thm2_build._build_table(*rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 2**20


# md5 of the file ``_thm2_build.write_tables`` writes, by the target
# numpy's float64 tan and arccos dispatch to: their X86_V4 (AVX-512) loops
# and the baseline round some values differently, and the shipped file is
# the X86_V4 build
TABLES_MD5 = {"X86_V4": "94f67a9028d70e356bcd83aedb8fe43f",
              "baseline(X86_V2)": "6e4cd92bef4b8c6f20865a4db1e3df50"}


def test_the_committed_tables_equal_a_rebuild(tmp_path):
    """The package data file holds what the builder writes: the same
    entries in the same order, each of the same dtype and shape, and the
    constants the loader checks and ``_FOLD_TOL`` equal the modules' own.
    Where tan and arccos dispatch to X86_V4, as where the file was built,
    each entry is equal bit for bit; elsewhere the rebuild has the md5
    recorded for its target."""
    rebuilt = tmp_path / "tables.npz"
    _thm2_build.write_tables(rebuilt)
    target = float64_target("tan", "arccos")
    assert target in TABLES_MD5, f"no TABLES_MD5 recorded for float64 tan, arccos on {target}"
    assert hashlib.md5(rebuilt.read_bytes()).hexdigest() == TABLES_MD5[target]
    with np.load(intersection._TABLES_PATH, allow_pickle=False) as stored, \
            np.load(rebuilt, allow_pickle=False) as built:
        assert stored.files == built.files
        assert len(stored.files) == 5 + 4 * len(intersection._LADDER)
        for name in built.files:
            want, got = built[name], stored[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            if target == "X86_V4":
                assert got.tobytes() == want.tobytes(), name
        for name, value in intersection._BUILT_WITH.items():
            assert np.array_equal(stored[name], value), name
        assert stored["fold_tol"] == _thm2_build._FOLD_TOL


@pytest.fixture
def tables_at(monkeypatch):
    """Points the loader at another file; no table is kept before the test
    or after it."""
    intersection._table.cache_clear()
    yield lambda path: monkeypatch.setattr(intersection, "_TABLES_PATH", path)
    intersection._table.cache_clear()


def test_a_missing_or_damaged_tables_file_is_an_error_naming_it(tmp_path, tables_at,
                                                                capsys):
    """The tables are never built at run time: a missing file, one cut
    short, one that is no archive and one built for another bin width each
    raise LineCoxError naming the file, which is no InputError, so the
    CLI exits 4."""
    good = intersection._TABLES_PATH.read_bytes()
    with np.load(intersection._TABLES_PATH, allow_pickle=False) as stored:
        entries = dict(stored)
    entries["bin"] = np.asarray(2 * intersection._BIN)
    stale = tmp_path / "stale.npz"
    np.savez(stale, **entries)
    (tmp_path / "cut.npz").write_bytes(good[:len(good) // 2])
    (tmp_path / "noise.npz").write_bytes(b"not a table")
    out = tmp_path / "thm2.csv"
    for path in [tmp_path / "missing.npz", tmp_path / "cut.npz", tmp_path / "noise.npz",
                 stale]:
        tables_at(path)
        with pytest.raises(LineCoxError, match=re.escape(str(path))) as info:
            cdf_one_turn_intersection(P11, 1.0)
        assert not isinstance(info.value, InputError)
        assert cli.main(["analytic", "--which", "thm2", "--grid", "0:1:0.5",
                         "--out", str(out)]) == cli.EXIT_RUNTIME
        assert str(path) in capsys.readouterr().err
    assert "(bin)" in str(info.value) and not out.exists()


def test_no_table_is_loaded_at_import():
    """Importing the package loads no table and imports no builder, and a
    curve call loads its tables without importing the builder."""
    code = ("import sys\nimport linecox\nfrom linecox.analytic import intersection\n"
            "assert intersection._table.cache_info().currsize == 0\n"
            "linecox.cdf_one_turn_intersection(linecox.ModelParams(1.0, 1.0), 1.0)\n"
            "assert intersection._table.cache_info().currsize == 2\n"
            "assert 'linecox.analytic._thm2_build' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def _tiny_s_reference(lam, mu, t):
    """F = -expm1(-g), with g = 4*mu*t + 2*m1*lam*mu*t**2 taken through
    logs, so that no factor of it over- or underflows, and m1 the slope at
    0 of the direct 2 - fx - fy of the rung these points settle at (the
    second), from s = 1e-6 and 2e-6. Two points cancel the curvature term
    s*M2/2, which is 1.03e-6 of the slope at s = 1e-6, more than the
    tolerance."""
    fx, fy = direct_terms(np.array([1e-6, 2e-6]), *intersection._LADDER[1])
    g1, g2 = 2.0 - fx - fy
    m1 = (4.0 * g1 - g2) / 2e-6
    return [-math.expm1(-(4.0 * mu * tk + 2.0 * m1 * math.exp(
        math.log(lam) + math.log(mu) + 2.0 * math.log(tk)))) for tk in t]


def test_cdf_at_tiny_mu_t_and_huge_lam_follows_the_series():
    """Where s = mu*t is tiny, 2 - fx - fy was mostly rounding, and lam
    multiplied it: F(1e-300) at lam 1e308, mu 0.5 read 3.3e-8 where it is
    about 1e-292. The series in s gives it, and (lam*t)*(2 - fx - fy) does
    not underflow as t*(2 - fx - fy) did. Where lam*t overflows, F read 1
    (inf times the series), and where s is subnormal, the series kept a
    bit or two of s: F(0.5) at lam 1e308, mu 5e-324 read 1e-323, where it
    is 3.9e-16."""
    for lam, mu, t in [(1e308, 0.5, [1e-300, 2e-300, 3e-300]),
                       (1e308, 1e-310, [2.0, 3.0]),  # lam*t overflows
                       (1e308, 5e-324, [0.5, 1.0])]:  # s is subnormal
        values = cdf_one_turn_intersection(ModelParams(lam, mu), t)
        assert values == pytest.approx(_tiny_s_reference(lam, mu, t), rel=1e-6, abs=0)


def test_the_cli_at_tiny_mu_t_and_huge_lam_follows_the_series(tmp_path):
    out = tmp_path / "thm2.csv"
    for mu, grid in [("0.5", "1e-300:3e-300:1e-300"), ("1e-310", "0:3:1")]:
        assert cli.main(["analytic", "--which", "thm2", "--lambda", "1e308", "--mu", mu,
                         "--grid", grid, "--out", str(out)]) == cli.EXIT_OK
        t, values, _ = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
        t, values = t[t > 0], values[t > 0]  # F(0) = 0 has no logarithm
        assert t.size == 3
        assert values == pytest.approx(_tiny_s_reference(1e308, float(mu), t),
                                       rel=1e-6, abs=0)


def test_the_terms_serve_mu_t_up_to_the_tables_domain():
    tx, ty = one_turn_intersection_terms(4.0, intersection._S_MAX / 4.0)
    assert 0.0 < tx < ty < intersection._S_MAX / 4.0
    with pytest.raises(DomainError, match="mu\\*t"):
        one_turn_intersection_terms(4.0, np.nextafter(intersection._S_MAX / 4.0, 11.0))
    with pytest.raises(DomainError):
        one_turn_intersection_terms(1e300, 1e300)  # mu*t overflows
