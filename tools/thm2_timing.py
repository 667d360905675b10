#!/usr/bin/env python3
"""Time the one-turn intersection curve (``thm2``) and the two-turn bound
(``thm3``) in fresh interpreters.

Each measurement starts a new Python process, imports linecox (untimed)
and times one call with ``time.perf_counter``:

- ``first``: the first one-point call of the process, P11 (lam = mu = 1),
  t = 1;
- ``repeat``: the same call again, after the first;
- ``grid cold``: the 301-point grid ``0:3:0.01`` as the first call;
- ``grid warm``: that grid after one one-point call;
- ``two points``: t = 0.7 and 1.3 after one one-point call, warm,
  the shape of the benchmark's ``thm2`` jobs;
- ``rung 3``: the first call that needs the third rung, P11, t = 0.05,
  ``tol=1e-9``;
- ``thm3 point``: the two-turn bound ``cdf_two_turn_bound`` at P11, t = 1,
  after one one-point ``thm2`` call, the shape of the benchmark's ``thm3``
  jobs;
- ``thm3 grid``: the bound on the 61-point grid ``0:3:0.05``, after the
  same warm-up;
- ``T corner``: the kernel ``two_turn_T(0.999, 1, 1)`` at mu = 3, next to
  the w = t corner, as the first call.

Each source tree given with ``--src`` runs every measurement once per
round, in turn, over ``--runs`` rounds, so that drift in the machine's
speed reaches each tree alike. The table gives the median wall ms over
the rounds with the min-max range in parentheses.

    python tools/thm2_timing.py [--runs 7] [--src PATH ...]

``--src`` defaults to the ``src`` directory next to this file's parent;
give it twice (say, a checkout of the parent commit and this one) for a
before/after pair.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SETUP = """
import time
import numpy as np
from linecox import ModelParams, cdf_one_turn_intersection, cdf_two_turn_bound, two_turn_T
from linecox.cli import parse_grid
P11 = ModelParams(1.0, 1.0)
GRID = parse_grid("0:3:0.01")
TWO = np.array([0.7, 1.3])
GRID61 = parse_grid("0:3:0.05")
"""
# name -> (untimed warm-up statement, timed statement)
MEASUREMENTS = {
    "first": ("", "cdf_one_turn_intersection(P11, 1.0)"),
    "repeat": ("cdf_one_turn_intersection(P11, 1.0)", "cdf_one_turn_intersection(P11, 1.0)"),
    "grid cold": ("", "cdf_one_turn_intersection(P11, GRID)"),
    "grid warm": ("cdf_one_turn_intersection(P11, 1.0)", "cdf_one_turn_intersection(P11, GRID)"),
    "two points": ("cdf_one_turn_intersection(P11, 1.0)",
                   "cdf_one_turn_intersection(P11, TWO)"),
    "rung 3": ("", "cdf_one_turn_intersection(P11, 0.05, tol=1e-9)"),
    "thm3 point": ("cdf_one_turn_intersection(P11, 1.0)", "cdf_two_turn_bound(P11, 1.0)"),
    "thm3 grid": ("cdf_one_turn_intersection(P11, 1.0)", "cdf_two_turn_bound(P11, GRID61)"),
    "T corner": ("", "two_turn_T(0.999, 1.0, 1.0, ModelParams(1.0, 3.0))"),
}


def time_once(src: Path, warm: str, timed: str) -> float:
    """Wall ms of ``timed`` in a new interpreter that imports from ``src``."""
    code = (SETUP + warm + "\nstart = time.perf_counter()\n" + timed
            + "\nprint(1e3 * (time.perf_counter() - start))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7, help="rounds (default 7)")
    parser.add_argument("--src", type=Path, action="append",
                        help="a source tree to import linecox from (repeatable)")
    args = parser.parse_args(argv)
    sources = args.src or [Path(__file__).resolve().parent.parent / "src"]
    times = {(src, name): [] for src in sources for name in MEASUREMENTS}
    for _ in range(args.runs):
        for name, (warm, timed) in MEASUREMENTS.items():
            for src in sources:
                times[(src, name)].append(time_once(src, warm, timed))
    for src in sources:
        print(src)
        for name in MEASUREMENTS:
            ms = times[(src, name)]
            print(f"  {name:<10} {statistics.median(ms):9.1f} ms "
                  f"({min(ms):.1f}-{max(ms):.1f}), {len(ms)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
