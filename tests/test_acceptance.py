"""Acceptance gate: nine numbered checks, one verdict line each.

Every check prints ``criterion N: PASS/FAIL (detail)`` before asserting, so
a captured log still shows the whole scoreboard. The six-figure Monte Carlo
estimates are module-scoped fixtures shared across checks; the full module
takes a few minutes on one core.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from linecox.analytic import (
    DEFAULT_VARIANT,
    cdf_naive_recursion,
    cdf_one_turn_intersection,
    cdf_one_turn_point,
    cdf_ppp2d_reference,
    cdf_two_turn_bound,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
    equivalent_ppp_density,
    one_turn_intersection_terms,
    two_turn_T,
)
from linecox.cli import main
from linecox.experiments import compare, default_grid, dkw_halfwidth, run_mc
from linecox.model import (
    ModelParams,
    TurnPolicy,
    rescale,
    typical_intersection,
    typical_point,
)
from linecox.oracle import chunk_lengths, shortest_path
from linecox.sampler import sample_chunk, sample_palm

GRID = default_grid()  # [0, 3] step 0.01
N = 100_000
HW = dkw_halfwidth(N)
P11 = ModelParams(1.0, 1.0)
ORACLE_JSON = pathlib.Path(__file__).parent / "data" / "riemann_oracle.json"
CALIBRATION_JSON = (pathlib.Path(__file__).parent.parent
                    / "docs" / "variant_calibration.json")


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _ks(curve, truth):
    return float(np.max(np.abs(curve.values - truth)))


@pytest.fixture(scope="module")
def mc_point_11():
    return run_mc(P11, typical_point(), TurnPolicy.one_turn(), N, 3.0,
                  seed=101, grid=GRID)


@pytest.fixture(scope="module")
def mc_intersection_11():
    return run_mc(P11, typical_intersection(), TurnPolicy.one_turn(), N, 3.0,
                  seed=201, grid=GRID)


@pytest.fixture(scope="module")
def curve_thm2_11():
    return cdf_one_turn_intersection(P11, GRID)


def test_criterion_1_one_turn_point_agreement(mc_point_11):
    scores = [f"(1,1): {_ks(mc_point_11, cdf_one_turn_point(P11, GRID)):.5f}"]
    worst = _ks(mc_point_11, cdf_one_turn_point(P11, GRID))
    for lam, mu, seed in ((0.5, 1.0, 102), (2.0, 0.5, 103)):
        params = ModelParams(lam, mu)
        curve = run_mc(params, typical_point(), TurnPolicy.one_turn(), N, 3.0,
                       seed=seed, grid=GRID)
        ks = _ks(curve, cdf_one_turn_point(params, GRID))
        worst = max(worst, ks)
        scores.append(f"({lam:g},{mu:g}): {ks:.5f}")
    _verdict(1, worst <= 0.01, f"one-turn point KS {', '.join(scores)}, cap 0.01")


def test_criterion_2_lambda_zero_reductions():
    params = ModelParams(0.0, 1.0)
    point = run_mc(params, typical_point(), TurnPolicy.one_turn(), N, 3.0,
                   seed=111, grid=GRID)
    ks_point = _ks(point, -np.expm1(-2.0 * GRID))
    crossing = run_mc(params, typical_intersection(), TurnPolicy.zero_turn(),
                      N, 3.0, seed=112, grid=GRID)
    ks_cross = _ks(crossing, -np.expm1(-4.0 * GRID))
    _verdict(2, max(ks_point, ks_cross) <= 0.01,
             f"single-street KS {ks_point:.5f}, crossing KS {ks_cross:.5f}, cap 0.01")


def test_criterion_3_sandwich_and_simulation_match(mc_intersection_11, curve_thm2_11):
    lo = cdf_zero_turn_intersection(P11, GRID)
    hi = cdf_upper_intersection(P11, GRID)
    violations = int(np.sum(lo > curve_thm2_11 + 1e-9)
                     + np.sum(curve_thm2_11 > hi + 1e-9))
    ks = _ks(mc_intersection_11, curve_thm2_11)
    inside = ks <= HW

    calibrated = False
    note = "no calibration report"
    if CALIBRATION_JSON.exists():
        doc = json.loads(CALIBRATION_JSON.read_text())
        calibrated = (doc["min_ks"] <= 0.02
                      and doc["min_ks_variant"] == DEFAULT_VARIANT)
        note = (f"calibration: min-KS variant {doc['min_ks_variant']} "
                f"at {doc['min_ks']:.5f}")
    _verdict(3, violations == 0 and (inside or calibrated),
             f"{violations} sandwich violations; MC KS {ks:.5f} vs band {HW:.5f} "
             f"({'inside' if inside else 'outside'}); {note}")


def test_criterion_4_two_turn_bound_dominates_simulation():
    policy = TurnPolicy.two_turn_directed(include_lower_turn_paths=False)
    curve = run_mc(P11, typical_point(), policy, N, 3.0, seed=301, grid=GRID)
    sub = GRID[::5]
    bound = cdf_two_turn_bound(P11, sub)
    slack = bound + HW - curve.values[::5]
    _verdict(4, bool(np.all(slack >= 0.0)),
             f"exactly-two-turn directed ECDF vs bound + DKW on {sub.size} points, "
             f"min slack {float(np.min(slack)):.5f}")


def test_criterion_5_ordering_claims(mc_point_11, mc_intersection_11, curve_thm2_11):
    thm1 = cdf_one_turn_point(P11, GRID)

    analytic_gap = float(np.min(curve_thm2_11 - thm1))
    a_ok = analytic_gap >= -1e-9
    mc_gap = float(np.min(mc_intersection_11.values - mc_point_11.values))
    a_mc_ok = mc_gap >= -2.0 * (2.0 * HW)

    hw2 = dkw_halfwidth(20_000)
    two_turn = run_mc(P11, typical_point(), TurnPolicy.k_turn(2), 20_000, 3.0,
                      seed=321, grid=GRID)
    b_gap = float(np.min(two_turn.values - thm1))
    b_ok = b_gap >= -2.0 * hw2

    diff = cdf_ppp2d_reference(equivalent_ppp_density(P11), GRID) - thm1
    inner = diff[1:-1]
    c_ok = bool(np.any(inner < -1e-9) and np.any(inner > 1e-9))
    cross = GRID[1:-1][np.nonzero(np.diff(np.sign(inner)))[0]]
    c_at = f"{cross[0]:.2f}" if cross.size else "none"

    _verdict(5, a_ok and a_mc_ok and b_ok and c_ok,
             f"intersection vs point: analytic min gap {analytic_gap:.2e}, "
             f"MC min gap {mc_gap:.4f} (floor {-4 * HW:.4f}); "
             f"two-turn vs one-turn min gap {b_gap:.4f} (floor {-2 * hw2:.4f}); "
             f"planar-reference crossing at t={c_at}")


def test_criterion_6_scale_invariance():
    forms = {"one-turn-point": cdf_one_turn_point,
             "zero-turn-intersection": cdf_zero_turn_intersection,
             "upper-intersection": cdf_upper_intersection,
             "single-ray": cdf_naive_recursion}
    worst = 0.0
    for c in (0.5, 2.0):
        scaled = ModelParams(1.0 / c, 1.0 / c)
        for cdf in forms.values():
            dev = float(np.max(np.abs(cdf(P11, GRID) - cdf(scaled, c * GRID))))
            worst = max(worst, dev)
    analytic_ok = worst <= 1e-10

    base = run_mc(P11, typical_point(), TurnPolicy.one_turn(), 20_000, 3.0,
                  seed=401, grid=GRID)
    mc_ok, mc_note = True, []
    for c, seed in ((0.5, 402), (2.0, 403)):
        scaled = run_mc(ModelParams(1.0 / c, 1.0 / c), typical_point(),
                        TurnPolicy.one_turn(), 20_000, 3.0 * c, seed=seed,
                        grid=c * GRID)
        report = compare(base, rescale(scaled, 1.0 / c))
        mc_ok = mc_ok and report.all_inside
        mc_note.append(f"c={c:g}: KS {report.ks_distance:.4f} vs band")
    _verdict(6, analytic_ok and mc_ok,
             f"analytic worst deviation {worst:.2e} (cap 1e-10); "
             f"MC inside combined DKW bands ({'; '.join(mc_note)})")


def test_criterion_7_oracle_cross_validation():
    """The batched kernel of each named policy, as Monte Carlo runs it, on
    chunks of the streams (901, s), against the per-trial search of its
    k-turn twin on each stream's own realization."""
    pairs = (
        (TurnPolicy.zero_turn(), TurnPolicy.k_turn(0)),
        (TurnPolicy.one_turn(), TurnPolicy.k_turn(1)),
        (TurnPolicy.one_turn(include_lower_turn_paths=False),
         TurnPolicy.k_turn(1, include_lower_turn_paths=False)),
        (TurnPolicy.two_turn_directed(),
         TurnPolicy.k_turn(2, first_hop_positive_x=True)),
        (TurnPolicy.two_turn_directed(include_lower_turn_paths=False),
         TurnPolicy.k_turn(2, include_lower_turn_paths=False,
                           first_hop_positive_x=True)),
    )
    t_max, n = 2.5, 1000
    # odd seeds from the typical point, even ones from the typical intersection
    odd = np.arange(n) % 2 == 1
    point, crossing = (sample_chunk(P11, scenario, t_max, 901, 0, n)
                       for scenario in (typical_point(), typical_intersection()))
    batched = [np.where(odd, chunk_lengths(point, named, t_max),
                        chunk_lengths(crossing, named, t_max))
               for named, _ in pairs]
    mismatches = 0
    for s in range(n):
        scenario = typical_point() if s % 2 else typical_intersection()
        real = sample_palm(P11, scenario, t_max, seed=(901, s))
        for lengths, (_, generic) in zip(batched, pairs):
            mismatches += (lengths[s] != shortest_path(real, generic, t_max).length)
    _verdict(7, mismatches == 0,
             f"{mismatches} length mismatches over {n} seeds x {len(pairs)} "
             "policy pairs (batched kernel vs generic search)")


def test_criterion_8_quadrature_matches_riemann_oracle():
    doc = json.loads(ORACLE_JSON.read_text())
    assert doc["cells_per_axis"] >= 2000
    assert min(doc["ttilde_cells"]) >= 2000
    worst = 0.0
    for entry in doc["tx"]:
        assert entry["variant"] == DEFAULT_VARIANT
        tx, ty = one_turn_intersection_terms(entry["mu"], entry["t"])
        worst = max(worst, abs(tx - entry["tx"]), abs(ty - entry["ty"]))
    for entry in doc["ttilde"]:
        val = two_turn_T(entry["w"], entry["u"], entry["t"],
                         ModelParams(1.0, entry["mu"]))
        worst = max(worst, *(abs(val - ref) for ref in entry["values"].values()))
    _verdict(8, worst <= 5e-4,
             f"window terms and survival kernel vs >= 2000-cell Riemann sums: "
             f"worst deviation {worst:.2e}, cap 5e-4")


def test_criterion_9_byte_identical_csv_across_workers(tmp_path):
    digests = {}
    base = ["simulate", "--lambda", "1", "--mu", "1", "--policy", "one-turn",
            "--trials", "4000", "--grid", "0:2:0.1", "--seed", "33"]
    for tag, workers in (("w1", 1), ("w4", 4), ("w8", 8), ("w4-again", 4)):
        out = tmp_path / f"{tag}.csv"
        rc = main(base + ["--workers", str(workers), "--out", str(out)])
        assert rc == 0
        digests[tag] = hashlib.md5(out.read_bytes()).hexdigest()
    unique = set(digests.values())
    _verdict(9, len(unique) == 1,
             f"CSV md5 across workers 1/4/8 and a repeat: "
             f"{sorted(digests)} -> {sorted(unique)}")
