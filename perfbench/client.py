"""One pass over a workload's job list, in a fresh interpreter.

    python3 perfbench/client.py WORKLOAD SEED SECONDS TRACE WORKDIR

``run.py`` starts one such client per pass, so that no request is ever
repeated inside one process and nothing a pass leaves in memory (caches,
warmed-up tables) helps the next one. The client imports linecox and builds
the job list, prints ``ready`` (the parent times set-up up to that line),
then sends the jobs one at a time. Before each job it times a fixed
pure-Python loop, the speed gauge: it tells how fast the machine ran at
that moment. After the pass it checks every output and prints one JSON
object: per job its latency, the gauge time before it, its output summary
and its problems; the peak RSS of the pass; and, with TRACE 1, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GAUGE_LOOPS = 20000  # about 1.1 ms on a 2-core Xeon


def speed_gauge() -> float:
    """Seconds taken by a fixed pure-Python loop; it calls nothing in
    linecox."""
    start = time.perf_counter()
    acc = 0
    for i in range(GAUGE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def main(argv) -> int:
    workload, seed, seconds, trace, workdir = argv
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import linecox  # noqa: F401  (set-up includes the package import)
    from perfbench.workloads import job_list
    jobs = job_list(workload, int(seed), int(seconds))
    print("ready", flush=True)

    from perfbench import checks, execute, spans
    tracer = spans.Tracer() if trace == "1" else None
    ex = execute.Executor(Path(workdir), tracer)
    frozen = checks.load_frozen(workload, int(seed))
    out = {"latency": [], "gauge": [], "summary": [], "problems": []}
    records = []
    for job in jobs:
        out["gauge"].append(speed_gauge())
        records.append(ex.run(job))
        out["latency"].append(records[-1].seconds)
    for rec in records:
        problems = checks.check_record(rec)
        got = checks.summary(rec)
        if rec.job["id"] in frozen:
            problems += checks.frozen_problems(rec.job, got, frozen[rec.job["id"]])
        out["summary"].append(got)
        out["problems"].append(problems)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["spans"] = tracer.spans if tracer is not None else []
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
