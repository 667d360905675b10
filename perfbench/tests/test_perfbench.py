"""Tests of the benchmark itself (not of linecox).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import linecox as lc  # noqa: E402
from perfbench import checks, execute, metrics, run, spans, workloads  # noqa: E402


# ---- job lists ---------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert workloads.job_list(workload, 7, 24) == workloads.job_list(workload, 7, 24)
    assert len(workloads.job_list(workload, 7, 1)) >= workloads.MIN_JOBS
    assert workloads.make_round(workload, 7, 0) != workloads.make_round(workload, 8, 0)
    assert workloads.make_round(workload, 7, 0) != workloads.make_round(workload, 7, 1)
    assert workloads.probe_jobs(7) == workloads.probe_jobs(7)


def test_round_mix_is_fixed():
    kinds = [sorted(j["kind"] for j in workloads.make_round("analytic-apps", s, 0))
             for s in range(5)]
    assert all(k == kinds[0] for k in kinds)
    for workload in workloads.WORKLOADS:
        assert len(workloads.make_round(workload, 0, 0)) == workloads.JOBS_PER_ROUND[workload]
    for seed in range(5):
        mc = workloads.make_round("mc-sparse", seed, 0)
        assert sorted((j["scenario"], j["policy"]) for j in mc) == sorted(
            (sc, pol) for sc in workloads.MC_SCENARIOS for pol in workloads.MC_POLICIES
            for _ in range(3))


@pytest.mark.parametrize("jobs", [workloads.make_round("analytic-apps", 3, 0),
                                  workloads.probe_jobs(3)])
def test_compares_refer_to_earlier_exports(jobs):
    seen = set()
    for job in jobs:
        if job["kind"] == "compare":
            assert job["a"] in seen and job["b"] in seen
        if job["kind"] == "export":
            seen.add(job["id"])


@pytest.mark.parametrize("seed", range(5))
def test_probe_reaches_every_layer(seed):
    probe = workloads.probe_jobs(seed)
    kinds = {(j["kind"], j.get("policy")) for j in probe}
    assert {("mc", p) for p in workloads.MC_POLICIES + ("k-turn",)} <= kinds
    assert {("reach", p) for p in workloads.CLOSED_REACH + ("one-turn-intersection",)} <= kinds
    assert {k for k, _ in kinds} >= {"success", "malformed", "export", "compare",
                                     "thm2", "thm3"}


# ---- correctness checks ------------------------------------------------------

def _mc_record(tmp_path, **over):
    job = dict(workloads.make_round("mc-sparse", 0, 0)[0], scenario="point",
               policy="one-turn", trials=workloads.MC_TRIALS, **over)
    return execute.Executor(tmp_path).run(job)


def _perturbed(curve, values):
    return lc.DistributionCurve(curve.grid, values, curve.ci_halfwidth, dict(curve.meta))


def test_check_accepts_an_mc_curve_and_rejects_a_perturbed_one(tmp_path):
    rec = _mc_record(tmp_path)
    assert checks.check_record(rec) == []
    v = np.array(rec.output.values)
    band = lc.dkw_halfwidth(workloads.MC_TRIALS, checks.DKW_ALPHA)
    assert 0.26 < band < 0.28  # the band a workload's one-turn point job gets
    shifted = np.clip(v + band + 0.05, 0.0, 1.0)  # monotone, but outside the band
    rec.output = _perturbed(rec.output, shifted)
    assert any("DKW" in p for p in checks.check_record(rec))
    dented = v.copy()
    dented[150] = dented[149] - 0.05
    rec.output = _perturbed(rec.output, dented)
    assert any("decreasing" in p for p in checks.check_record(rec))


def test_check_rejects_a_wrong_md5(tmp_path):
    rec = _mc_record(tmp_path)
    digest = checks.summary(rec)
    assert checks.frozen_problems(rec.job, digest, digest) == []
    assert checks.frozen_problems(rec.job, digest, "0" * 32) != []
    other = _perturbed(rec.output, np.array(rec.output.values) * (1 - 1e-15))
    assert checks.curve_md5(other) != digest
    assert checks.w2_problems(rec.output, other) != []
    assert checks.w2_problems(rec.output, rec.output) == []


def test_check_rejects_analytic_values_off_their_bounds():
    job = {"id": "x", "kind": "thm2", "lam": 1.0, "mu": 1.0, "grid": [0.5, 1.0, 1.5]}
    good = lc.cdf_one_turn_intersection(lc.ModelParams(1.0, 1.0), np.array(job["grid"]))
    assert checks.check_record(execute.Record(job, 0.0, good)) == []
    above_cor2 = lc.cdf_upper_intersection(lc.ModelParams(1.0, 1.0), np.array(job["grid"])) + 1e-3
    assert checks.check_record(execute.Record(job, 0.0, above_cor2)) != []
    assert checks.frozen_problems(job, list(good + 2e-6), list(good)) != []
    assert checks.frozen_problems(job, list(good + 5e-7), list(good)) == []


def test_malformed_requests_need_a_documented_exit():
    job = {"id": "m", "kind": "malformed", "case": "header-only", "lam": 1.0}
    assert checks.check_record(execute.Record(job, 0.0, 2)) == []
    assert checks.check_record(execute.Record(job, 0.0, 1)) != []
    assert checks.check_record(execute.Record(job, 0.0, None, "IndexError()")) != []


def test_frozen_file_covers_the_default_seed():
    for workload in workloads.WORKLOADS:
        frozen = checks.load_frozen(workload, workloads.DEFAULT_SEED)
        ids = {j["id"] for j in workloads.make_round(workload, workloads.DEFAULT_SEED, 0)
               if j["kind"] != "malformed"}
        assert ids <= set(frozen)


# ---- metric names --------------------------------------------------------------

def _declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _synthetic_spans():
    tr = spans.Tracer()

    def add(name, request="r0.j0", **attrs):
        with tr.span(name, request, **attrs):
            pass

    for pol in metrics.ENUM_POLICIES + ("k-turn",):
        add("experiments.run_mc", role="job", trials=4, policy=pol)
        add("experiments.run_mc", role="decomposition", trials=1, policy=pol)
        add("sampler.sample_palm", lines=5, points=9)
        add("oracle.shortest_path", policy=pol, censored=False)
    add("experiments.run_mc", "speedup", role="speedup-w1", trials=8, policy="one-turn")
    add("experiments.run_mc", "speedup", role="speedup-w2", trials=8, policy="one-turn")
    add("analytic.cdf_one_turn_intersection", points=3)
    add("analytic.cdf_two_turn_bound", points=2)
    add("analytic.closed", which="thm1")
    for pol in ("one-turn-intersection",) + metrics.CLOSED_REACH:
        add("applications.reach_quantile", policy=pol)
    add("applications.success", which="near")
    for command, code in (("export", 0), ("compare", 0), ("malformed", 2)):
        add("cli.main", command=command, exit=code)
    return tr.spans


def test_printed_metric_names_match_benchmark_json():
    e2e, layers = _declared()
    assert metrics.END_TO_END_UNITS == e2e
    assert metrics.PER_LAYER_UNITS == layers
    passes = [{"setup": 0.8, "gauge": [1e-3] * 100, "latency": [0.1] * 100, "rss_mb": 90.0}]
    got = metrics.end_to_end(passes, metrics.job_times(passes))
    assert {k: v["unit"] for k, v in got.items()} == e2e
    got = metrics.per_layer(_synthetic_spans(), 0.01)
    assert {k: v["unit"] for k, v in got.items()} == layers
    assert got["oracle.pairs_per_trial"]["value"] == 10.0  # 5 lines -> 10 pairs


def test_job_times_scale_out_a_slow_machine():
    quiet = {"setup": 0.8, "gauge": [metrics.GAUGE_REF_S] * 3, "latency": [0.1, 0.2, 0.3]}
    slow = {"setup": 1.6, "gauge": [2 * metrics.GAUGE_REF_S] * 3, "latency": [0.2, 0.4, 0.6]}
    assert metrics.job_times([quiet, slow, quiet]) == pytest.approx([0.1, 0.2, 0.3])
    assert metrics.setup_times([quiet, slow]) == pytest.approx([0.8, 0.8])
    assert metrics.unscaled_wall([quiet, slow, slow]) == pytest.approx(1.2)


# ---- a run's verdict ------------------------------------------------------------

def _pass_result(jobs, problem_at=None):
    problems = [[] for _ in jobs]
    if problem_at is not None:
        problems[problem_at] = ["uncaught RuntimeError()"]
    return {"summary": [None] * len(jobs), "problems": problems}


@pytest.mark.parametrize("kind, incorrect", [("thm2", True), ("export", True),
                                             ("malformed", False)])
def test_a_failed_job_is_wrong_unless_malformed(tmp_path, kind, incorrect):
    r = run.Run("analytic-apps", 0, 1, tmp_path)
    at = next(i for i, job in enumerate(r.jobs) if job["kind"] == kind)
    r.check_passes([_pass_result(r.jobs), _pass_result(r.jobs, at)])
    assert r.failed == 1
    assert bool(r.incorrect) == incorrect


def test_an_output_that_changes_between_passes_is_wrong(tmp_path):
    r = run.Run("mc-sparse", 0, 1, tmp_path)
    a, b = _pass_result(r.jobs), _pass_result(r.jobs)
    a["summary"][0], b["summary"][0] = "0" * 32, "1" * 32
    r.check_passes([a, b])
    assert r.failed == 1 and r.incorrect


# ---- entry point ----------------------------------------------------------------

def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
