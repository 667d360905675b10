"""Run benchmark jobs against linecox and keep what they returned.

Only public entry points are called: ``run_mc``, the ``cdf_*`` curves,
``reach_quantile``, the link calculators, ``sample_palm``,
``shortest_path`` and ``linecox.cli.main``. Each call into a layer is
wrapped in a span of the executor's tracer; with a ``NullTracer`` that costs
one context manager per call.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import linecox as lc
from linecox import cli

from .spans import NullTracer
from .workloads import GRID

THM2_TOL = 1e-6
THM3_TOL = 1e-5
MALFORMED_EXITS = (2, 3, 4)  # documented failure exits of the CLI

CLOSED_FORMS = {
    "thm1": lambda p, t: lc.cdf_one_turn_point(p, t),
    "cor1": lambda p, t: lc.cdf_zero_turn_intersection(p, t),
    "cor2": lambda p, t: lc.cdf_upper_intersection(p, t),
    "naive": lambda p, t: lc.cdf_naive_recursion(p, t),
    "ppp": lambda p, t: lc.cdf_ppp2d_reference(lc.equivalent_ppp_density(p), t),
}


@dataclass
class Record:
    """One executed job: its latency, its output (curve, values, number,
    file path or exit code) and the uncaught exception, if any."""

    job: dict
    seconds: float
    output: object = None
    error: str | None = None


def model_of(job: dict):
    return lc.ModelParams(job["lam"], job["mu"])


def scenario_of(job: dict):
    return lc.typical_point() if job["scenario"] == "point" else lc.typical_intersection()


def policy_of(job: dict):
    name = job["policy"]
    if name == "zero-turn":
        return lc.TurnPolicy.zero_turn()
    if name == "one-turn":
        return lc.TurnPolicy.one_turn()
    if name == "two-turn-directed":
        return lc.TurnPolicy.two_turn_directed()
    return lc.TurnPolicy.k_turn(job["k"])


class Executor:
    def __init__(self, workdir: Path, tracer=None):
        self.workdir = Path(workdir)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.header_only = self.workdir / "header-only.csv"
        self.header_only.write_text("t,F,err_est\n")

    def path(self, job_id: str, suffix: str = ".csv") -> Path:
        return self.workdir / f"{job_id}{suffix}"

    def run(self, job: dict) -> Record:
        """Execute one job in a closed loop; an uncaught exception is kept
        on the record, never raised."""
        handler = getattr(self, "_job_" + job["kind"])
        start = time.perf_counter()
        try:
            with self.tracer.span("job", job["id"], kind=job["kind"]):
                output = handler(job)
        except Exception as exc:  # a failed request, reported by the caller
            return Record(job, time.perf_counter() - start, None, repr(exc))
        return Record(job, time.perf_counter() - start, output)

    def run_mc(self, job: dict, trials: int, workers: int = 1, role: str = "job"):
        with self.tracer.span("experiments.run_mc", job["id"], role=role,
                              trials=trials, policy=job["policy"]):
            return lc.run_mc(model_of(job), scenario_of(job), policy_of(job),
                             trials, job["t_max"], job["seed"], workers=workers)

    # ---- one handler per job kind -------------------------------------

    def _job_mc(self, job):
        return self.run_mc(job, job["trials"])

    def _job_thm2(self, job):
        with self.tracer.span("analytic.cdf_one_turn_intersection", job["id"],
                              points=len(job["grid"])):
            return lc.cdf_one_turn_intersection(model_of(job), np.array(job["grid"]),
                                                tol=THM2_TOL)

    def _job_thm3(self, job):
        with self.tracer.span("analytic.cdf_two_turn_bound", job["id"],
                              points=len(job["grid"])):
            return lc.cdf_two_turn_bound(model_of(job), np.array(job["grid"]),
                                         tol=THM3_TOL)

    def _job_reach(self, job):
        with self.tracer.span("applications.reach_quantile", job["id"],
                              policy=job["policy"]):
            return lc.reach_quantile(model_of(job), job["p"], job["policy"])

    def _job_success(self, job):
        link = lc.RisLinkParams(**job["link"])
        fn = (lc.nearfield_success if job["which"] == "near"
              else lc.farfield_success_lower_bound)
        with self.tracer.span("applications.success", job["id"], which=job["which"]):
            return fn(link, model_of(job))

    def _job_export(self, job):
        out = self.path(job["id"])
        self._cli(job, ["analytic", "--which", job["which"], "--lambda", repr(job["lam"]),
                        "--mu", repr(job["mu"]), "--grid", job["grid"], "--out", str(out)])
        return out

    def _job_compare(self, job):
        out = self.path(job["id"], ".json")
        self._cli(job, ["compare", str(self.path(job["a"])), str(self.path(job["b"])),
                        "--out", str(out)])
        return out

    def _job_malformed(self, job):
        case = job["case"]
        if case == "negative-lambda":
            argv = ["analytic", "--which", "thm1", f"--lambda=-{job['lam']!r}",
                    "--grid", GRID, "--out", str(self.path(job["id"]))]
        elif case == "grid-beyond-clip":
            argv = ["simulate", "--lambda", repr(job["lam"]), "--grid", GRID,
                    "--t-max", "2", "--trials", "10", "--out", str(self.path(job["id"]))]
        elif case == "unknown-file":
            argv = ["compare", str(self.path(job["id"] + ".missing")), str(self.header_only)]
        else:  # header-only
            argv = ["compare", str(self.header_only), str(self.header_only)]
        return self._cli(job, argv, expect_ok=False)

    def _cli(self, job, argv, expect_ok=True):
        """``linecox.cli.main`` with its stdout and stderr captured. Returns
        the exit code; a nonzero code on a well-formed request raises."""
        sink = io.StringIO()
        with self.tracer.span("cli.main", job["id"], command=job["kind"]) as attrs:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects before main's handlers
                    code = exc.code
        attrs["exit"] = code
        if expect_ok and code != 0:
            raise RuntimeError(f"exit {code}: {sink.getvalue().strip()}")
        return code

    # ---- traced decomposition ------------------------------------------

    def decompose(self, job: dict, trials: int):
        """Re-run an MC job's first ``trials`` trials twice on the same
        seeds: once through ``run_mc``, once as ``sample_palm`` plus
        ``shortest_path`` per trial, as ``run_mc`` does. Returns the curve
        and the per-trial lengths."""
        curve = self.run_mc(job, trials, role="decomposition")
        model, scenario, policy = model_of(job), scenario_of(job), policy_of(job)
        lengths = []
        for i in range(trials):
            with self.tracer.span("sampler.sample_palm", job["id"]) as attrs:
                real = lc.sample_palm(model, scenario, job["t_max"], (job["seed"], i))
            attrs["lines"] = len(real.lines)
            attrs["points"] = sum(a.size for a in real.arcs_by_line)
            with self.tracer.span("oracle.shortest_path", job["id"],
                                  policy=job["policy"]) as attrs:
                res = lc.shortest_path(real, policy, job["t_max"])
            attrs["censored"] = res.censored
            lengths.append(res.length)
        return curve, lengths

    def closed_curve(self, job: dict):
        """The library call behind an exported closed-form curve."""
        grid = cli.parse_grid(job["grid"])
        with self.tracer.span("analytic.closed", job["id"], which=job["which"]):
            return CLOSED_FORMS[job["which"]](model_of(job), grid)
