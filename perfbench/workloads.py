"""Job lists of the three benchmark workloads.

A job is one user request: one ``run_mc`` call, one analytic curve, one
quantile, one CLI command. A workload's job list is a number of rounds; a
round is a fixed mix of job kinds whose parameters are drawn from the
stream of (workload, seed, round), so the same seed always gives the same
job list. The number of rounds follows from the run length alone, so
every commit measured with the same run length runs the same list. Jobs are
plain dicts, so this module imports nothing from the package under test.

Why each workload exists:

- ``mc-sparse``: ``run_mc`` at lam, mu in [0.5, 2] with the specialized
  enumerators. The sampler and the enumerators do almost all the work and no
  quadrature runs, so a batched MC kernel shows here.
- ``kturn-dense``: ``run_mc`` with ``k_turn(2)`` and ``k_turn(3)`` at
  lam in {4, 8, 16}. The generic search over the O(lines^2) crossing graph
  dominates; the sampler's share is small.
- ``analytic-apps``: analytic curves, quantiles, link calculators and CLI
  requests, a fixed share of them malformed, and no Monte Carlo. The
  quadrature ladders do almost all the work, both as batched curves and as
  scalar root-solve calls.
"""

from __future__ import annotations

import random

WORKLOADS = ("mc-sparse", "kturn-dense", "analytic-apps")

T_MAX = 3.0
GRID = "0:3:0.01"  # the CLI grid of every exported curve; also run_mc's default

MC_SCENARIOS = ("point", "intersection")
MC_POLICIES = ("zero-turn", "one-turn", "two-turn-directed")
MC_TRIALS = 150

KTURN_LAMS = (4.0, 8.0, 16.0)
# trials per (lam, k): a round then holds a moderate mode (lam 4 and 8) of
# two thirds of its jobs and a dense mode (lam 16), so the median and the
# p90 each fall inside one mode
KTURN_TRIALS = {(4.0, 2): 16, (4.0, 3): 16, (8.0, 2): 4, (8.0, 3): 4,
                (16.0, 2): 3, (16.0, 3): 2}

CLOSED_CURVES = ("thm1", "cor1", "cor2", "naive", "ppp")
CLOSED_REACH = ("one-turn-point", "zero-turn-intersection")
# exported pairs with a known pointwise order: a <= b everywhere
ORDERED_PAIRS = (("naive", "thm1"), ("naive", "cor1"), ("naive", "cor2"),
                 ("cor1", "cor2"), ("thm1", "cor2"))
MALFORMED = ("negative-lambda", "grid-beyond-clip", "unknown-file", "header-only")

W2_TRIALS = 1024  # trials of the per-seed workers=2 rerun: two 512-trial chunks

DEFAULT_SEED = 0

MIN_JOBS = 100  # leaves at least ten job latencies above the p90
# A run sends its job list PASSES times, each time from a fresh client
# process, and keeps the median of each job's speed-scaled latencies (see
# metrics.job_times). The cheaper a round, the more passes fit a run.
PASSES = {"mc-sparse": 6, "kturn-dense": 6, "analytic-apps": 4}
# jobs per round, and the seconds one round took on the 2-core Xeon the
# benchmark was defined on; they fix how many rounds fit a run length
JOBS_PER_ROUND = {"mc-sparse": 18, "kturn-dense": 12, "analytic-apps": 104}
ROUND_SECONDS = {"mc-sparse": 0.62, "kturn-dense": 0.5, "analytic-apps": 5.5}


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    # string seeds hash through sha512, stable across Python versions
    return random.Random(f"linecox-bench/{workload}/{int(seed)}/{int(round_no)}")


def _params(rng, lo=0.5, hi=2.0):
    return round(rng.uniform(lo, hi), 6), round(rng.uniform(lo, hi), 6)


def _in_stratum(rng, j, n, lo=0.5, hi=2.0):
    """A draw from stratum j of n equal strata of [lo, hi]."""
    return round(lo + (hi - lo) / n * (j % n + rng.random()), 6)


def _pairs(rng, n, shift):
    """n (lam, mu) draws, one per lam stratum, with mu's stratum shifted by
    ``shift``: over n consecutive rounds every (lam, mu) cell comes up, so
    job lists of different seeds cost about the same."""
    return [(_in_stratum(rng, j, n), _in_stratum(rng, j + shift, n)) for j in range(n)]


def _mc_job(job_id, lam, mu, scenario, policy, k, trials, seed):
    return {"id": job_id, "kind": "mc", "lam": lam, "mu": mu,
            "scenario": scenario, "policy": policy, "k": k,
            "trials": trials, "t_max": T_MAX, "seed": seed}


def _round_mc_sparse(rng, tag, round_no):
    specs = []
    for scenario in MC_SCENARIOS:
        for policy in MC_POLICIES:
            for lam, mu in _pairs(rng, 3, round_no):
                specs.append((lam, mu, scenario, policy))
    rng.shuffle(specs)
    return [_mc_job(f"{tag}.j{i}", lam, mu, sc, pol, None, MC_TRIALS,
                    rng.randrange(2**32))
            for i, (lam, mu, sc, pol) in enumerate(specs)]


def _round_kturn_dense(rng, tag, round_no):
    specs = [(lam, k, sc, _in_stratum(rng, c + round_no, 3))
             for c, (lam, k, sc) in enumerate(
                 (lam, k, sc) for lam in KTURN_LAMS for k in (2, 3) for sc in MC_SCENARIOS)]
    rng.shuffle(specs)
    return [_mc_job(f"{tag}.j{i}", lam, mu, sc, "k-turn", k, KTURN_TRIALS[(lam, k)],
                    rng.randrange(2**32))
            for i, (lam, k, sc, mu) in enumerate(specs)]


def _grid_points(rng, n, lo=0.2, hi=2.4):
    """n increasing t values, 0.3 or more apart, inside [lo, hi]."""
    step = rng.uniform(0.3, (hi - lo) / (n - 1)) if n > 1 else 0.0
    start = rng.uniform(lo, hi - step * (n - 1))
    return [round(start + step * i, 6) for i in range(n)]


def _link(rng):
    """Link parameters of a near- or far-field request, all positive; the
    gains and the threshold are drawn in dB and sent as linear values."""
    db = lambda lo, hi: round(10.0 ** (rng.uniform(lo, hi) / 10.0), 9)
    return {"g_t": db(0, 10), "g_r": db(0, 10), "g": db(0, 6),
            "wavelength": round(rng.uniform(0.005, 0.1), 6),
            "area": round(rng.uniform(0.05, 1.0), 6),
            "m": float(rng.randrange(4, 33)), "n": float(rng.randrange(4, 33)),
            "d_x": round(rng.uniform(0.002, 0.05), 6),
            "d_y": round(rng.uniform(0.002, 0.05), 6),
            "p_t": round(rng.uniform(0.1, 10.0), 6), "n0": 1e-6,
            "gamma": db(0, 20)}


def _round_analytic_apps(rng, tag, round_no):
    """One analyst session. The counts place the job median inside the CLI
    requests (20 microsecond requests below them, 18 quadrature ones above)
    and the p90 inside the thm2 curves (3 slower requests above them)."""
    jobs = []

    def add(kind, **fields):
        jobs.append({"id": f"{tag}.j{len(jobs)}", "kind": kind, **fields})

    for i in range(8):
        lam, mu = _params(rng)
        add("success", which=("near", "far")[i % 2], lam=lam, mu=mu, link=_link(rng))
    for i in range(12):
        lam, mu = _params(rng)
        add("reach", policy=CLOSED_REACH[i % 2], lam=lam, mu=mu,
            p=round(rng.uniform(0.05, 0.99), 6))
    for i in range(16):
        add("malformed", case=MALFORMED[i % 4], lam=round(rng.uniform(0.5, 2.0), 6))
    exported = {which: [] for which in CLOSED_CURVES}
    for _ in range(7):
        lam, mu = _params(rng)
        for which in CLOSED_CURVES:
            add("export", which=which, lam=lam, mu=mu, grid=GRID)
            exported[which].append(jobs[-1]["id"])
    for i in range(15):
        a, b = ORDERED_PAIRS[i % len(ORDERED_PAIRS)]
        add("compare", a=exported[a][i % 7], b=exported[b][i % 7])
    for lam, mu in _pairs(rng, 15, rng.randrange(15)):
        add("thm2", lam=lam, mu=mu, grid=_grid_points(rng, 2))
    for j in range(2):
        lam, mu = _params(rng)
        add("thm3", lam=lam, mu=mu, grid=[_in_stratum(rng, j, 2, 0.2, 2.4)])
    # the quantile of the quadrature-backed curve costs some ten thm2 points;
    # a narrow p and model range keeps that cost the same from seed to seed
    lam, mu = _params(rng, 0.8, 1.25)
    add("reach", policy="one-turn-intersection", lam=lam, mu=mu,
        p=round(rng.uniform(0.5, 0.6), 6))
    # spread each kind over the session, so that a slow stretch of the
    # machine does not hit one kind of request only; a compare still comes
    # after the two exports it reads
    order = [j for j in jobs if j["kind"] != "compare"]
    rng.shuffle(order)
    for job in (j for j in jobs if j["kind"] == "compare"):
        after = 1 + max(i for i, j in enumerate(order) if j["id"] in (job["a"], job["b"]))
        order.insert(rng.randint(after, len(order)), job)
    return order


_ROUNDS = {"mc-sparse": _round_mc_sparse, "kturn-dense": _round_kturn_dense,
           "analytic-apps": _round_analytic_apps}


def make_round(workload: str, seed: int, round_no: int) -> list[dict]:
    """The jobs of round ``round_no`` of ``workload`` under ``seed``."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _ROUNDS[workload](_rng(workload, seed, round_no), f"r{int(round_no)}",
                             int(round_no))


def round_count(workload: str, seconds: int) -> int:
    """Rounds in the job list of a run of ``seconds``: as many as
    ``PASSES`` passes fit at the nominal round time, and enough for
    ``MIN_JOBS`` jobs."""
    fit = int(seconds / (PASSES[workload] * ROUND_SECONDS[workload]))
    return max(fit, -(-MIN_JOBS // JOBS_PER_ROUND[workload]))


def job_list(workload: str, seed: int, seconds: int) -> list[dict]:
    return [job for r in range(round_count(workload, seconds))
            for job in make_round(workload, seed, r)]


def w2_check_job(workload: str, seed: int) -> dict | None:
    """The designated MC job of a seed, rerun at workers=1 and workers=2:
    round 0's MC job at the lowest lam, with its trials raised so that
    they span two chunks."""
    mc = [j for j in make_round(workload, seed, 0) if j["kind"] == "mc"]
    if not mc:
        return None
    first = min(mc, key=lambda j: j["lam"])
    return dict(first, id="w2", trials=W2_TRIALS)


def probe_jobs(seed: int) -> list[dict]:
    """A small job list over every layer, run traced in every workload's
    traced run so that each per-layer metric has a value there: a few MC
    jobs, and the first analytic-apps job of each kind, policy and case,
    with the exports the first compare reads."""
    rng = _rng("probe", seed, 0)
    mc = [(1.0, sc, pol, None, 128) for sc in MC_SCENARIOS for pol in MC_POLICIES]
    mc += [(4.0, "point", "k-turn", 2, 16), (16.0, "intersection", "k-turn", 3, 4)]
    jobs = [_mc_job(f"p.j{i}", lam, 1.0, sc, pol, k, trials, rng.randrange(2**32))
            for i, (lam, sc, pol, k, trials) in enumerate(mc)]
    apps = _round_analytic_apps(rng, "p.a", 0)
    compare = next(j for j in apps if j["kind"] == "compare")
    seen = set()
    for job in apps:
        sig = (job["kind"], job.get("policy"), job.get("case"), job.get("which"))
        if job["id"] in (compare["a"], compare["b"]) or sig not in seen:
            seen.add(sig)
            jobs.append(job)
    return jobs


def w2_speedup_job(seed: int) -> dict:
    """One mc-sparse request timed at workers=1 and workers=2."""
    return _mc_job("speedup", 1.0, 1.0, "point", "one-turn", None, 2048,
                   _rng("speedup", seed, 0).randrange(2**32))
