"""Before/after pairs of the benchmark: a parent revision against a change.

    python3 tools/ab.py PARENT_REV [--rev HEAD] [--seeds 11 12 ...] [--aa]
        [--label NAME]

Every workload of ``BENCHMARK.json`` runs at its ``run_seconds``, the run
length the benchmark defines, so every claim is made on the benchmark's
own runs. Each revision is checked out with ``git archive`` into a fresh directory,
so neither tree holds bytecode, and every run has
PYTHONDONTWRITEBYTECODE=1. For each workload and seed the two trees run
``perfbench/run.py`` one after the other, the tree that goes first turning
from pair to pair. With ``--aa`` both trees are copies of ``--rev``: an
A/A control, which should read as no change.

For each end-to-end metric it prints the parent's median [quartiles], the
change's median, the change of the medians in percent and the pairs in
which the change read lower; then, pair by pair, each run's ``correct``
and ``failed``, and the Monte Carlo jobs whose curve md5 differs between
the two runs. The raw runs go to ``BENCH_<label>.json`` in the current
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])
RUN_SECONDS = BENCHMARK["run_seconds"]
RUN_TIMEOUT_S = 1800


def checkout(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` in the new directory ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def parse_run(stdout: str) -> dict:
    """One benchmark run's output: its machine facts, the md5 of each Monte
    Carlo job's curve and the last line's verdict and metrics."""
    lines = stdout.strip().splitlines()
    facts = next((json.loads(line[len("facts "):]) for line in lines
                  if line.startswith("facts ")), {})
    md5 = dict(line.split()[1:3] for line in lines if line.startswith("md5 "))
    last = json.loads(lines[-1])
    return {"facts": facts, "md5": md5, "correct": last["correct"],
            "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def bench(tree: Path, workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(RUN_SECONDS)],
                          cwd=tree, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return {"correct": False, "failed": None, "metrics": {}, "md5": {},
                "error": proc.stderr.strip()[-2000:]}
    return parse_run(proc.stdout)


def summarize(pairs: list[dict]) -> dict:
    """Per workload and metric: the parent's median and quartiles, the
    change's median, the change of the medians in percent, and in how many
    of the pairs where both runs read the metric the change read lower."""
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        out[workload] = {}
        for name in METRICS:
            both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                    for p in rows
                    if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
            if not both:
                continue
            a, b = np.array(both).T
            q1, median, q3 = np.percentile(a, [25, 50, 75])
            changed = float(np.median(b))
            out[workload][name] = {
                "parent_median": float(median), "parent_q1": float(q1),
                "parent_q3": float(q3), "change_median": changed,
                "delta_pct": 100.0 * (changed / median - 1.0) if median else float("nan"),
                "lower": int(np.sum(b < a)), "pairs": len(both)}
    return out


def report(pairs: list[dict], summary: dict) -> str:
    lines = []
    for workload, metrics in summary.items():
        rows = [p for p in pairs if p["workload"] == workload]
        lines.append(f"{workload}: {len(rows)} pairs, seeds "
                     f"{', '.join(str(p['seed']) for p in rows)}")
        for name, s in metrics.items():
            lines.append(f"  {name:12s} {s['parent_median']:.4g} "
                         f"[{s['parent_q1']:.4g}, {s['parent_q3']:.4g}] -> "
                         f"{s['change_median']:.4g}  {s['delta_pct']:+.1f}%  "
                         f"lower in {s['lower']}/{s['pairs']}")
        for p in rows:
            a, b = p["parent"], p["change"]
            lines.append(f"  seed {p['seed']} ({p['first']} first): parent correct "
                         f"{a['correct']} failed {a['failed']}; change correct "
                         f"{b['correct']} failed {b['failed']}; md5 differs in "
                         f"{p['md5_differs']} of {p['md5_jobs']} MC jobs")
    return "\n".join(lines)


def pair_md5s(pair: dict) -> dict:
    """The pair with its runs' curve md5s replaced by the count of Monte
    Carlo jobs both ran and of those whose md5 differs."""
    a, b = pair["parent"].pop("md5"), pair["change"].pop("md5")
    common = a.keys() & b.keys()
    return dict(pair, md5_jobs=len(common), md5_differs=sum(a[k] != b[k] for k in common))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent revision, as git names it")
    ap.add_argument("--rev", default="HEAD", help="the changed revision (default HEAD)")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(11, 21)))
    ap.add_argument("--aa", action="store_true",
                    help="run --rev against a second copy of itself")
    ap.add_argument("--label", default="ab", help="writes BENCH_<label>.json")
    args = ap.parse_args(argv)
    parent = args.rev if args.aa else args.parent
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"parent": checkout(parent, Path(tmp, "parent")),
                 "change": checkout(args.rev, Path(tmp, "change"))}
        pairs = []
        for workload in WORKLOADS:
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(trees[side], workload, seed)
                pairs.append(pair_md5s(pair))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} wall_s {pair[side]['metrics'].get('wall_s')}"
                    for side in order), flush=True)
    summary = summarize(pairs)
    print(report(pairs, summary))
    commits = {side: subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
               for side, rev in (("parent", parent), ("change", args.rev))}
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps({"parent": parent, "rev": args.rev, "commits": commits,
                               "aa": args.aa, "seconds": RUN_SECONDS,
                               "summary": summary, "pairs": pairs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
