import json
import logging
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from linecox import (
    DomainError,
    ModelParams,
    NegativeT,
    NonFinite,
    QuadratureFailure,
    TurnPolicy,
    cdf_two_turn_bound,
    dkw_halfwidth,
    two_turn_T,
    typical_point,
)
from linecox.analytic import twoturn
from linecox.quadrature import _graded_legendre, _legendre
from realizations import sample_D

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


def test_kernel_takes_float32_arguments_as_their_doubles():
    """q and c are formed in doubles: in float32 they moved the value by
    5.3e-9, past a requested tol of 1e-9."""
    w, u, t = np.float32(0.2), np.float32(0.6), np.float32(1.0)
    assert two_turn_T(w, u, t, P11) == two_turn_T(float(w), float(u), float(t), P11)


def test_kernel_ladder_values_and_failure():
    # values recorded from the graded ladder; they must not move by one bit
    assert two_turn_T(0.2, 0.6, 1.0, P11) == 0.6256633590775856
    assert two_turn_T(0.2, 0.6, 1.0, P11, tol=1e-9) == 0.6256633591175594
    # no two rungs agree to 1e-300: the failure carries the last rung's
    # value and its increment over the rung before
    with pytest.raises(QuadratureFailure) as exc:
        two_turn_T(0.2, 0.6, 1.0, P11, tol=1e-300)
    assert str(exc.value) == "Ttilde did not settle to 1e-300 at w=0.2, u=0.6, t=1.0"
    q, c = [(0.6 - 0.2) / (1.0 - 0.2)], [1.0 - 0.2]
    last, before = (float(twoturn._ttilde(q, c, [1.0], *twoturn._T_LADDER[r])[0, 0])
                    for r in (-1, -2))
    assert exc.value.value == last == 0.6256633591176085
    assert exc.value.error_estimate == abs(last - before) > 0.0


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
    with pytest.raises(NegativeT):
        cdf_two_turn_bound(P11, -0.5)
    with pytest.raises(NonFinite):
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
    # values and increments recorded from the graded ladder; they must not
    # move by one bit
    with caplog.at_level(logging.INFO, logger="linecox"):
        vals, errs = cdf_two_turn_bound(P11, np.array([0.0, 0.3, 1.2]),
                                        with_err=True)
    assert vals.tolist() == [0.0, 0.2926102945307686, 0.8360442114108284]
    assert errs.tolist() == [0.0, 1.9779585191948e-08, 1.5644413475790486e-07]
    lines = [r.getMessage() for r in caplog.records
             if r.name == "linecox.quadrature"]
    assert len(lines) == 1
    assert lines[0].startswith("two-turn bound: 2 points, settled per rung 2:")
    assert "largest increment 1.56e-07" in lines[0]


# Reference for ``twoturn._ttilde``: the kernel evaluated per u node, in
# (t, mu) rather than (q, m), with cos and sin of every theta_1 node and
# every segment integrated, the one between pole and kink too. It takes
# the kernel's graded theta_i and theta_1 rules.
def _ttilde_vec(w, u, t, mu, ni, n1):
    w = np.atleast_1d(np.asarray(w, dtype=float))
    left = t - w
    safe = left > 0.0
    q = np.where(safe, (u - w) / np.where(safe, left, 1.0), 0.0)[:, None]
    tg, tw_half = _graded_legendre(ni // 2)
    sg, swt = _graded_legendre(n1)
    ti = np.concatenate([math.pi / 2 * tg, math.pi / 2 + math.pi / 2 * tg])
    tw = np.concatenate([tw_half, tw_half]) * 0.5
    cos_i, sin_i = np.cos(ti), np.sin(ti)
    lower_half = ti <= math.pi / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        thr_arg = np.where(lower_half, cos_i - q / sin_i, (q - cos_i) / sin_i)
    thr = math.pi / 2 - np.arctan(thr_arg)
    A = np.where(lower_half, 0.0, thr)
    B = np.where(lower_half, thr, math.pi)
    kink = math.pi / 2 - np.arctan((cos_i - q) / sin_i)
    pole = np.broadcast_to(ti, kink.shape)
    s1 = np.clip(np.minimum(pole, kink), A, B)
    s2 = np.clip(np.maximum(pole, kink), A, B)
    lo = np.stack([A, s1, s2], axis=-1)
    hi = np.stack([s1, s2, B], axis=-1)
    width = hi - lo
    th1 = lo[..., None] + width[..., None] * sg
    with np.errstate(divide="ignore", invalid="ignore"):
        cot1 = np.cos(th1) / np.sin(th1)
        den = cos_i[None, :, None, None] - sin_i[None, :, None, None] * cot1
        y = (u - w)[:, None, None, None] / den
    y = np.where(np.isnan(y), 0.0, y)
    z = np.maximum(left[:, None, None, None] - y, 0.0)
    g = np.exp(-mu * z)
    seg = (g * swt).sum(axis=-1) * width
    rows = seg.sum(axis=-1) + (math.pi - (B - A))
    val = (rows * tw).sum(axis=-1) * math.pi / math.pi**2
    return np.where(safe, val, 1.0)


def _bound_eval(lams, mu, t, nu, nw, ni, n1):
    """The per-u bound at every lam of ``lams``; Ttilde does not depend on
    lam, so its rows are computed once and shared by the lams."""
    g, wt = _legendre(nu)
    gw, ww = _legendre(nw)
    rows = [_ttilde_vec(float(uv) * gw, float(uv), t, mu, ni, n1) for uv in t * g]
    out = []
    for lam in lams:
        tu = np.array([math.exp(-lam * float(uv) * float(((2.0 - tt) * ww).sum()))
                       for uv, tt in zip(t * g, rows)])
        out.append(-math.expm1(-lam * t * float(((2.0 - tu) * wt).sum())))
    return out


_REF_LAMS = (0.3, 0.8, 1.0, 1.7, 2.5, 4.0)
_REF_POINTS = {0.7: (0.05, 1.1, 3.0), 1.8: (0.4, 2.2)}


@pytest.mark.parametrize("rung", range(len(twoturn._B_LADDER)))
def test_every_bound_rung_matches_the_per_u_reference(rung):
    # 6 lams x 5 (mu, t) = 30 points per rung
    spec = twoturn._B_LADDER[rung]
    for mu, ts in _REF_POINTS.items():
        want = np.array([_bound_eval(_REF_LAMS, mu, t, *spec) for t in ts]).T
        for lam, row in zip(_REF_LAMS, want):
            got = twoturn._bound_rung(lam, mu, np.array(ts), *spec)
            assert np.allclose(got, row, rtol=0, atol=1e-13), (lam, mu, ts)


# Each _B_LADDER rung is held to a graded rule of higher order in every
# dimension, at 4 lams x 3 mus x 3 t = 36 points. The reference lies within
# 1.4e-9 of the graded (64, 64, 128, 64) rule at these points; the plain
# rule with 64 theta_1 nodes misses it by up to 9.3e-8, at mu*t = 0.01,
# where the boundary layers next to the pole are thinnest.
_LADDER_LAMS = (0.3, 1.0, 2.5, 8.0)
_LADDER_POINTS = {0.2: (0.05, 1.0, 3.0), 1.0: (0.05, 1.0, 3.0), 3.0: (0.05, 1.0, 3.0)}
_LADDER_REF = (32, 32, 48, 32)
_RUNG_BOUNDS = (1e-6, 2e-7, 3e-8)


def test_every_bound_rung_is_within_its_bound_of_a_graded_reference(monkeypatch):
    ts = {mu: np.array(t) for mu, t in _LADDER_POINTS.items()}
    ref = {(lam, mu): twoturn._bound_rung(lam, mu, t, *_LADDER_REF)
           for lam in _LADDER_LAMS for mu, t in ts.items()}
    for spec, bound in zip(twoturn._B_LADDER, _RUNG_BOUNDS, strict=True):
        worst = max(np.abs(twoturn._bound_rung(lam, mu, ts[mu], *spec) - want).max()
                    for (lam, mu), want in ref.items())
        assert worst <= bound, (spec, worst)
    # the same reference against the plain rule with 64 theta_1 nodes
    monkeypatch.setattr(twoturn, "_graded_legendre", _legendre)
    for lam in (1.0, 8.0):
        plain = twoturn._bound_rung(lam, 0.2, ts[0.2], 32, 32, 64, 64)
        assert np.abs(plain - ref[lam, 0.2]).max() <= 2e-7, (lam, plain)


_KERNEL_CASES = [
    (0.3, 0.3, 1.0, 1.0),         # w == u
    (0.0, 0.0, 1.0, 2.0),
    (0.2, 1.0, 1.0, 0.7),         # u == t
    (0.25, 0.8, 1.2, 0.7),
    (0.999, 1.0, 1.0, 3.0),       # w -> t
    (1.0 - 1e-9, 1.0, 1.0, 1.0),
]
# largest miss of each _T_LADDER rung against the graded (2048, 512) rule
# over _KERNEL_CASES; the w -> t corner sets the first three
_T_RUNG_BOUNDS = (5e-6, 1e-6, 3e-9, 1e-9, 1e-9)


def test_every_kernel_rung_is_within_its_bound_of_a_graded_reference(monkeypatch):
    def kernel(case, ni, n1):
        w, u, t, mu = case
        return float(twoturn._ttilde([(u - w) / (t - w)], [t - w], [mu], ni, n1)[0, 0])

    ref = [kernel(case, 2048, 512) for case in _KERNEL_CASES]
    for spec, bound in zip(twoturn._T_LADDER, _T_RUNG_BOUNDS, strict=True):
        worst = max(abs(kernel(case, *spec) - want) for case, want in zip(_KERNEL_CASES, ref))
        assert worst <= bound, (spec, worst)
    # the plain rule of the same order agrees to 1.6e-9, at w = 1 - 1e-9
    monkeypatch.setattr(twoturn, "_graded_legendre", _legendre)
    for case, want in zip(_KERNEL_CASES, ref):
        assert kernel(case, 2048, 512) == pytest.approx(want, abs=3e-9, rel=0), case


@pytest.mark.parametrize("w, u, t, mu", _KERNEL_CASES)
def test_every_kernel_rung_matches_the_per_u_reference(w, u, t, mu):
    for ni, n1 in twoturn._T_LADDER:
        want = float(_ttilde_vec([w], u, t, mu, ni, n1)[0])
        got = float(twoturn._ttilde([(u - w) / (t - w)], [t - w], [mu], ni, n1)[0, 0])
        assert got == pytest.approx(want, abs=1e-13, rel=0), (ni, n1)


_ANGLE_RULES = twoturn._B_LADDER + twoturn._T_LADDER


@pytest.mark.parametrize("rule", _ANGLE_RULES, ids=str)
@settings(max_examples=40, deadline=None)
@given(q=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
@example(q=[0.0, 1e-300, 1.0])
def test_the_pole_and_the_kink_lie_in_the_theta1_range(rule, q):
    """A <= min(theta_i, kink) and max(theta_i, kink) <= B at every
    theta_i node of every _B_LADDER and _T_LADDER rule, for drawn q in
    [0, 1] and, on a bound rung, for q of each of its (u, w) pairs; so the
    pole theta_1 = theta_i and the kink cut [A, B] into three segments and
    the kernel needs no clamp to [A, B].

    Proof, for q in [0, 1] and theta_i in (0, pi), with c = cos(theta_i),
    s = sin(theta_i) > 0; arccot falls, and every arccot lies in (0, pi).
    Lower half (c >= 0): A = 0, and B = arccot(c - q/s) lies above
    theta_i = arccot(c/s), since c/s - (c - q/s) = (c*(1 - s) + q)/s >= 0,
    and above kink = arccot((c - q)/s), since (c - q)/s - (c - q/s) =
    c*(1 - s)/s >= 0. Upper half (c < 0): B = pi, and A = arccot((q - c)/s)
    lies below theta_i, since (q - c)/s - c/s = (q - 2*c)/s > 0, and below
    the kink, since (q - c)/s - (c - q)/s = 2*(q - c)/s > 0. In the upper
    half the two arguments are exact negatives of each other also after
    rounding; in the lower half the margin c*(1 - s)/s falls below an ulp
    next to pi/2, so the test checks the rounded values the kernel uses."""
    q = np.array(q)
    if len(rule) == 4:  # a bound rung: q at its (u, w) pairs, as _bound_rung forms it
        gu, _ = _legendre(rule[0])
        gw, _ = _legendre(rule[1])
        w = np.outer(gu, gw).ravel()
        q = np.concatenate([q, (np.repeat(gu, rule[1]) - w) / (1.0 - w)])
    ti, _ = twoturn._theta_i_rule(rule[-2])
    A, kink, B = twoturn._theta1_breaks(q[:, None], ti, np.cos(ti), np.sin(ti))
    assert (A <= np.minimum(ti, kink)).all()
    assert (np.maximum(ti, kink) <= B).all()


def test_one_point_equals_its_value_in_the_61_point_grid():
    grid = np.linspace(0.0, 3.0, 61)
    values, errs = cdf_two_turn_bound(P11, grid, with_err=True)
    for k in (0, 1, 17, 30, 44, 60):
        v, e = cdf_two_turn_bound(P11, float(grid[k]), with_err=True)
        assert values[k] == v and errs[k] == e


def test_chunking_does_not_change_the_kernel(monkeypatch):
    ni, n1 = twoturn._B_LADDER[0][2:]
    gu, _ = _legendre(20)
    w = np.outer(gu, gu).ravel()
    u = np.repeat(gu, 20)
    q, c, s = (u - w) / (1.0 - w), 1.0 - w, np.array([0.05, 1.0, 6.0])
    rows = 2 * ni * q.size
    ref = twoturn._ttilde(q, c, s, ni, n1)
    assert rows % 1000 != 0  # 1000 rows leave a partial last chunk
    for step in (1000, rows):
        monkeypatch.setattr(twoturn, "_CHUNK_NODES", n1 * step)
        got = twoturn._ttilde(q, c, s, ni, n1)
        assert np.allclose(got, ref, rtol=0, atol=1e-13)
    # one (pair, theta_i) group per chunk, on a few pairs, u == w among them
    monkeypatch.setattr(twoturn, "_CHUNK_NODES", n1)
    few = [0, 7, 211, 399]
    qf, cf = np.append(q[few], 0.0), np.append(c[few], 0.4)
    got = twoturn._ttilde(qf, cf, s, ni, n1)
    monkeypatch.undo()
    assert np.allclose(got, twoturn._ttilde(qf, cf, s, ni, n1), rtol=0, atol=1e-13)
    assert np.allclose(got[:, :-1], ref[:, few], rtol=0, atol=1e-13)


def test_one_unsettled_point_fails_the_batch_with_its_payload():
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    with pytest.raises(QuadratureFailure) as batch:
        cdf_two_turn_bound(P11, grid, tol=1e-14)
    assert "at t=0.5" in str(batch.value)
    with pytest.raises(QuadratureFailure) as alone:
        cdf_two_turn_bound(P11, 0.5, tol=1e-14)
    assert (batch.value.value, batch.value.error_estimate) == (
        alone.value.value, alone.value.error_estimate)


def test_one_point_call_memory_is_bounded():
    # the rows are built in chunks of 2**15 theta_1 nodes, so the peak is
    # a few such buffers (0.26 MB each) whatever the rung
    cdf_two_turn_bound(P11, 1.0)  # rules cached
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureFailure):  # climbs all three rungs
            cdf_two_turn_bound(P11, 2.5, tol=1e-14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_bound_where_mu_t_overflows():
    """An s = mu*t past the largest float acts as the largest: the bound
    takes its large-mu limit, with no overflow warning and no nan."""
    t = [0.5, 1.0, 3.0]
    limit = cdf_two_turn_bound(ModelParams(1.0, 1e300), t)
    for mu in (1e308, 1.7e308):
        got = cdf_two_turn_bound(ModelParams(1.0, mu), t)
        assert got == pytest.approx(limit, rel=1e-12, abs=0.0)
    assert np.all(np.diff(limit) > 0) and 0.0 < limit[0] and limit[-1] < 1.0
