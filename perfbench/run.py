"""Run one linecox benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-sparse --seed 0 --seconds 24 --trace 0

Workloads are closed loops with one client: the next job starts when the
previous one has finished, in one process, with ``workers=1``. The job
list (see ``workloads.job_list``) is sent ``workloads.PASSES`` times, each
time by a fresh client process (``client.py``), so no request is repeated
inside a process. The machine is shared, and other tenants slow it by up
to 2x for seconds or minutes at a time; so each job's latency is scaled to
a reference speed by a fixed pure-Python loop timed right before it, and a
job's time is the median of its scaled latencies over the passes (see
``metrics.job_times``). Every output of every pass is checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` sends the list
untraced, traced, traced, untraced and so on, then runs a small probe of
every layer and a traced decomposition of MC jobs into sampler and oracle
calls in this process, and reports the per-layer metrics. The lines before
the last describe the run (machine facts, every MC curve's md5, failed
checks, every metric with its unit); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout that holds this
file; without it the run exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLIENT_TIMEOUT_S = 120  # a pass takes some 10 s; a hung client is killed
DECOMP_TRIALS = {"k-turn": 8}  # trials per traced MC decomposition; others 64


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` of the checkout, without running git
    (which would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _src_md5() -> str:
    h = hashlib.md5()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(),
            "src_md5": _src_md5(), "workload": workload, "seed": seed}


class Run:
    """One benchmark run: its passes, their problems and its report."""

    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path):
        from perfbench import workloads
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir = workdir
        self.jobs = workloads.job_list(workload, seed, seconds)
        self.n_passes = workloads.PASSES[workload]
        self.attempted = 0
        self.failed = 0
        self.incorrect = []  # (where, problem) of wrong outputs
        self.lines = []

    def send_pass(self, k: int, traced: bool) -> dict:
        """Pass ``k`` over the job list by a fresh client process (see
        ``client.py``); returns its result, with the seconds from starting
        the client to its ``ready`` line as ``setup``."""
        passdir = self.workdir / f"pass{k}"
        passdir.mkdir()
        argv = [sys.executable, str(ROOT / "perfbench" / "client.py"), self.workload,
                str(self.seed), str(self.seconds), str(int(traced)), str(passdir)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, _ = proc.communicate(timeout=CLIENT_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"client of pass {passdir.name} exited {proc.returncode}")
        result = json.loads(out.splitlines()[-1])
        result.update(setup=setup, traced=traced)
        self.attempted += len(self.jobs)
        return result

    def problem(self, where: str, text: str, wrong_output: bool = True):
        self.lines.append(f"problem {where}: {text}")
        if wrong_output:
            self.incorrect.append((where, text))

    def check_passes(self, passes):
        """Take in the problems each client found and compare every job's
        output with its first pass. A job with a problem is failed; its
        output is wrong, and the run incorrect, unless the job is a
        malformed request, which is meant to be refused."""
        first = {}
        for result in passes:
            for job, got, problems in zip(self.jobs, result["summary"], result["problems"]):
                if first.setdefault(job["id"], got) != got:
                    problems.append("output differs from the job's first pass")
                self.count(job, problems)
        self.lines += [f"md5 {job['id']} {first[job['id']]}"
                       for job in self.jobs if job["kind"] == "mc"]

    def count(self, job, problems):
        for text in problems:
            self.problem(job["id"], text, wrong_output=job["kind"] != "malformed")
        self.failed += bool(problems)

    def run_here(self, executor, jobs):
        """Jobs run and checked in this process, outside the timed passes."""
        from perfbench import checks
        for job in jobs:
            self.count(job, checks.check_record(executor.run(job)))
            self.attempted += 1

    def check_w2(self, job, executor, role):
        """Run ``job`` at workers=1 and workers=2; both must match byte for
        byte (and the frozen md5, for a frozen seed)."""
        from perfbench import checks
        c1 = executor.run_mc(job, job["trials"], workers=1, role=f"{role}-w1")
        c2 = executor.run_mc(job, job["trials"], workers=2, role=f"{role}-w2")
        for text in checks.w2_problems(c1, c2):
            self.problem(job["id"], text)
        want = checks.load_frozen(self.workload, self.seed).get(job["id"])
        if want is not None:
            for text in checks.frozen_problems(job, checks.curve_md5(c1), want):
                self.problem(job["id"], text)
        self.lines.append(f"md5 {job['id']} {checks.curve_md5(c1)} (workers 1 and 2)")

    def untraced(self) -> dict:
        from perfbench import execute, metrics, workloads
        passes = [self.send_pass(k, traced=False) for k in range(self.n_passes)]
        self.check_passes(passes)
        w2 = workloads.w2_check_job(self.workload, self.seed)
        if w2 is not None:
            self.check_w2(w2, execute.Executor(self.workdir), "w2")
        times = metrics.job_times(passes)
        out = metrics.end_to_end(passes, times)
        mc = [i for i, job in enumerate(self.jobs) if job["kind"] == "mc"]
        if mc:
            self.report("mc_trials_per_s", sum(self.jobs[i]["trials"] for i in mc)
                        / sum(times[i] for i in mc), "1/s")
        self.report("failed_frac", self.failed / self.attempted, "ratio")
        self.report("wall_s_unscaled", metrics.unscaled_wall(passes), "s")
        self.report("speed_factor", metrics.speed_factor(passes), "ratio")
        p90 = out["job_p90_ms"]["value"] / 1e3
        self.lines.append(f"jobs {len(times)} passes {len(passes)} "
                          f"above_p90 {sum(x > p90 for x in times)}")
        return out

    def traced_run(self) -> dict:
        from perfbench import execute, metrics, spans, workloads
        passes = [self.send_pass(k, traced=k % 4 in (1, 2))  # untraced, traced, traced, ...
                  for k in range(self.n_passes)]
        self.check_passes(passes)
        tracer = spans.Tracer()
        ex = execute.Executor(self.workdir, tracer)
        probe = workloads.probe_jobs(self.seed)
        self.run_here(ex, probe)
        for job in workloads.make_round(self.workload, self.seed, 0) + probe:
            if job["kind"] == "mc":
                n = min(job["trials"], DECOMP_TRIALS.get(job["policy"], 64))
                curve, lengths = ex.decompose(job, n)
                self.check_decomposition(job, curve, lengths)
            elif job["kind"] == "export":
                ex.closed_curve(job)
        self.check_w2(workloads.w2_speedup_job(self.seed), ex, "speedup")
        wall = {t: sum(metrics.job_times([p for p in passes if p["traced"] == t]))
                for t in (False, True)}
        recorded = [s for p in passes for s in p["spans"]] + tracer.spans
        return metrics.per_layer(recorded, wall[True] / wall[False] - 1.0)

    def check_decomposition(self, job, curve, lengths):
        """sample_palm plus shortest_path per trial must rebuild run_mc's
        curve exactly, so the decomposition times the same work."""
        import numpy as np
        finite = np.sort([x for x in lengths if math.isfinite(x)])
        values = np.searchsorted(finite, curve.grid, side="right") / float(len(lengths))
        if not np.array_equal(values, curve.values):
            self.problem(job["id"], "sampler + oracle do not rebuild run_mc's curve")

    def report(self, name, value, unit):
        self.lines.append(f"metric {name} {value!r} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "linecox" / "__init__.py").is_file():
        print(f"perfbench: no linecox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import linecox
    if Path(linecox.__file__).resolve().parent != SRC / "linecox":
        print(f"perfbench: linecox imported from {linecox.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("facts " + json.dumps(machine_facts(args.workload, args.seed), sort_keys=True))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        metrics = run.traced_run() if args.trace else run.untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        run.report(name, m["value"], m["unit"])
    print("\n".join(run.lines))
    print(json.dumps({"correct": not run.incorrect, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
