"""Write ``frozen.json``: the outputs of round 0 and of the workers=2 job of
every workload, for each frozen seed, from the source under ``src/``.

    python3 perfbench/freeze.py

The benchmark compares later runs of these seeds with the file, so a change
of results shows up as an incorrect run. Regenerate it only on purpose, on
the commit whose outputs become the reference, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FROZEN_SEEDS = range(0, 11)  # the default seed 0 and the ten after it


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, execute, workloads

    out = {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ex = execute.Executor(workdir)
        for workload in workloads.WORKLOADS:
            for seed in FROZEN_SEEDS:
                frozen = {}
                for job in workloads.make_round(workload, seed, 0):
                    rec = ex.run(job)
                    problems = checks.check_record(rec)
                    if problems and job["kind"] != "malformed":
                        raise SystemExit(f"{workload} seed {seed} {job['id']}: {problems}")
                    if (value := checks.summary(rec)) is not None:
                        frozen[job["id"]] = value
                w2 = workloads.w2_check_job(workload, seed)
                if w2 is not None:
                    frozen[w2["id"]] = checks.curve_md5(ex.run_mc(w2, w2["trials"]))
                out.setdefault(workload, {})[str(seed)] = frozen
                print(f"{workload} seed {seed}: {len(frozen)} outputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.FROZEN_PATH, "w") as fh:
        json.dump({"seeds": list(FROZEN_SEEDS), "workloads": out}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
