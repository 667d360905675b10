#!/usr/bin/env python3
"""Time linecox layer by layer, each row in fresh interpreters, for one
source tree or side by side for several.

Each row is a plain function below that runs once and returns its
numbers. For every row the tool runs ``--runs`` rounds. In each round it
starts one new interpreter per ``--src`` tree, one at a time, and the
tree that goes first turns with the rounds, so drift in the machine's
speed reaches every tree alike. The child imports ``linecox`` from its
tree, runs the row once (untimed warm-ups first) and prints its numbers
as one JSON line. A cell is the median over the rounds with the first
and third quartiles in brackets, or the one value when every round
prints the same (a count, a ``tracemalloc`` peak). Every time is CPU
time (``time.process_time``).

The rows (``--rows``), point scenario, mu = 1 and t_max = 3 unless noted:

- ``dense`` and ``chunk``: the batched turn-layer kernel against the
  per-trial search. The trials are drawn in chunks of the size ``run_mc``
  uses (``experiments._chunk_trials``) and solved with ``chunk_lengths``
  on each chunk and with ``shortest_path`` on each trial's Realization.
  The two must agree bit for bit, or the tool exits non-zero.
  Columns: trials per chunk, lines per trial, CPU ms per trial of each
  solver, their ratio, and the kernel's largest ``tracemalloc`` peak over
  the chunks (separate, untimed calls). ``dense`` is k_turn(3) with exact
  turns at lam 16, 40, 80 and 160 and k_turn(5) at lam 40, on a few trials
  each; ``chunk`` is 512 trials at lam 4, 16 and 40, k_turn(3), with and
  without lower-turn paths.
- ``draw``: ``sample_chunk`` alone at the chunk shapes of the two Monte
  Carlo benchmark workloads (lam 0.5-2 at 150 trials, lam 4 at 16, lam 16
  at 3; radius 3), over DRAW_CHUNKS consecutive chunks: lines and points
  per trial, CPU us per trial, and, from one more untimed call under
  ``tracemalloc``, the KiB per trial the finished chunk keeps and the
  call's peak. Last, the CPU us per call of ``sample_palm`` over the same
  trials, reading each realization's lines and arcs.
- ``fixed``: a small ``run_mc`` whole at the six shapes of the
  ``kturn-dense`` workload (lam 4, 8 and 16, ``k_turn(2)`` and
  ``k_turn(3)``), with 1 trial and with the workload's trials, one chunk
  either way, over FIXED_SEEDS seeds: the CPU us per call of ``run_mc``,
  of the draw and the kernel it calls (``sampler._draw_chunk`` and
  ``oracle._chunk_lengths``) and the rest, ``run_mc`` less the other two.
  The three calls are timed seed by seed, interleaved, and each column is
  the median over the seeds (``rest`` the median of each seed's
  difference), so a call that a scheduler tick over-reads moves no
  column.
- ``thm2``: one call of the one-turn intersection curve (``thm2``), the
  two-turn bound (``thm3``) or its kernel, at lam = mu = 1 (THM2):
  ``first``, the process's first one-point call, t = 1; ``repeat``, that
  call again; ``grid cold`` and ``grid warm``, the 301-point grid
  ``0:3:0.01`` first or after one one-point call; ``two points``, t = 0.7
  and 1.3 after one one-point call (the benchmark's ``thm2`` jobs);
  ``rung 3``, the first call that needs the third rung, t = 0.05 at
  ``tol=1e-9``; ``thm3 point`` and ``thm3 grid``, ``cdf_two_turn_bound``
  at t = 1 and on ``0:3:0.05`` after one ``thm2`` point (the benchmark's
  ``thm3`` jobs are points); ``T corner``, ``two_turn_T(0.999, 1, 1)`` at
  mu = 3, next to the w = t corner, as the first call.

    PYTHONPATH=src python tools/layer_timing.py [--rows ROWS] [--runs 6] [--src PATH ...]

``--src`` defaults to this checkout's ``src``. Give it twice, a checkout
of the parent commit and then this one, for a before/after pair.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from linecox import (ModelParams, TurnPolicy, cdf_one_turn_intersection,
                     cdf_two_turn_bound, chunk_lengths, run_mc, sample_chunk,
                     sample_palm, shortest_path, two_turn_T, typical_intersection,
                     typical_point)
from linecox.cli import parse_grid
from linecox.experiments import _chunk_trials
from linecox.oracle import _chunk_lengths
from linecox.sampler import _draw_chunk

T_MAX, MU, SEED = 3.0, 1.0, 2024
SCENARIOS = {"point": typical_point(), "intersection": typical_intersection()}
DRAW_CHUNKS, FIXED_SEEDS = 100, 100
P11 = ModelParams(1.0, 1.0)


def _cpu_ms(fn):
    start = time.process_time()
    out = fn()
    return out, 1e3 * (time.process_time() - start)


def _traced(fn):
    """The bytes fn()'s result holds and fn()'s peak, under ``tracemalloc``."""
    tracemalloc.start()
    try:
        out = fn()  # held while its memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def scan_row(lam, k, lower, trials):
    params, policy = ModelParams(lam, MU), TurnPolicy.k_turn(k, lower)
    size = _chunk_trials(params, typical_point(), T_MAX)
    chunks = [sample_chunk(params, typical_point(), T_MAX, SEED, lo, min(lo + size, trials))
              for lo in range(0, trials, size)]
    chunk_lengths(chunks[0], policy, T_MAX)  # warm-ups
    shortest_path(chunks[0].realization(0), policy, T_MAX)
    batched, kernel_ms = _cpu_ms(lambda: np.concatenate(
        [chunk_lengths(c, policy, T_MAX) for c in chunks]))
    reals = [c.realization(t) for c in chunks for t in range(c.n_trials)]
    per_trial, search_ms = _cpu_ms(lambda: np.array(
        [shortest_path(r, policy, T_MAX).length for r in reals]))
    if batched.tobytes() != per_trial.tobytes():
        sys.exit(f"lam {lam}, k {k}, lower {lower}: chunk_lengths differs "
                 f"from shortest_path on {np.sum(batched != per_trial)} trials")
    peak = max(_traced(lambda: chunk_lengths(c, policy, T_MAX))[1] for c in chunks)
    return {"trials/chunk": min(size, trials),
            "lines/trial": sum(c.angle.size for c in chunks) / trials,
            "chunk_lengths ms": kernel_ms / trials, "shortest_path ms": search_ms / trials,
            "ratio": kernel_ms / search_ms, "kernel peak MiB": peak / 2**20}


def draw_row(lam, scenario, trials, chunks=DRAW_CHUNKS):
    params, scenario, n = ModelParams(lam, MU), SCENARIOS[scenario], chunks * trials

    def draw(k):
        return sample_chunk(params, scenario, T_MAX, SEED, k * trials, (k + 1) * trials)

    def palm(i):
        real = sample_palm(params, scenario, T_MAX, (SEED, i))
        return len(real.lines) + sum(a.size for a in real.arcs_by_line)

    draw(0)  # warm-ups
    palm(0)
    sizes, ms = _cpu_ms(lambda: [(c.angle.size, c.arcs.size) for c in map(draw, range(chunks))])
    kept, peak = _traced(lambda: draw(0))
    _, palm_ms = _cpu_ms(lambda: [palm(i) for i in range(n)])
    lines, points = map(sum, zip(*sizes))
    return {"lines/trial": lines / n, "points/trial": points / n,
            "sample_chunk us/trial": 1e3 * ms / n, "chunk KiB/trial": kept / trials / 2**10,
            "draw peak KiB": peak / 2**10, "sample_palm us/trial": 1e3 * palm_ms / n}


def fixed_row(lam, k, trials, seeds=FIXED_SEEDS):
    params, scenario, policy = ModelParams(lam, MU), typical_point(), TurnPolicy.k_turn(k)
    seeds = range(SEED, SEED + seeds)
    chunks = [sample_chunk(params, scenario, T_MAX, s, 0, trials) for s in seeds]
    calls = {
        "run_mc us": lambda s, c: run_mc(params, scenario, policy, trials, T_MAX, s),
        "draw us": lambda s, c: _draw_chunk(params, scenario, T_MAX, s, 0, trials),
        "kernel us": lambda s, c: _chunk_lengths(c, policy, T_MAX),
    }
    # the three calls seed by seed, interleaved; the first three passes are
    # warm-ups, since one leaves fresh-process outliers
    for _ in range(4):
        us = [{name: 1e3 * _cpu_ms(lambda: call(s, c))[1] for name, call in calls.items()}
              for s, c in zip(seeds, chunks)]
    for seed_us in us:
        seed_us["rest us"] = seed_us["run_mc us"] - seed_us["draw us"] - seed_us["kernel us"]
    return {name: statistics.median(seed_us[name] for seed_us in us) for name in us[0]}


def _thm2(t, **kwargs):
    return lambda: cdf_one_turn_intersection(P11, t, **kwargs)


def _thm3(t):
    return lambda: cdf_two_turn_bound(P11, t)


# name -> (untimed warm-up or None, timed call), every argument built untimed
THM2 = {
    "first": (None, _thm2(1.0)),
    "repeat": (_thm2(1.0), _thm2(1.0)),
    "grid cold": (None, _thm2(parse_grid("0:3:0.01"))),
    "grid warm": (_thm2(1.0), _thm2(parse_grid("0:3:0.01"))),
    "two points": (_thm2(1.0), _thm2(np.array([0.7, 1.3]))),
    "rung 3": (None, _thm2(0.05, tol=1e-9)),
    "thm3 point": (_thm2(1.0), _thm3(1.0)),
    "thm3 grid": (_thm2(1.0), _thm3(parse_grid("0:3:0.05"))),
    "T corner": (None, lambda: two_turn_T(0.999, 1.0, 1.0, ModelParams(1.0, 3.0))),
}


def thm2_row(name):
    warm, timed = THM2[name]
    if warm:
        warm()
    return {"ms": _cpu_ms(timed)[1]}


SCAN_COLUMNS = [("trials/chunk", "%d"), ("lines/trial", "%.0f"), ("chunk_lengths ms", "%.2f"),
                ("shortest_path ms", "%.2f"), ("ratio", "%.2f"), ("kernel peak MiB", "%.2f")]
# (lam, k): trials of the "fixed" rows, the kturn-dense workload's trials
FIXED = {(4.0, 2): 16, (4.0, 3): 16, (8.0, 2): 4, (8.0, 3): 4, (16.0, 2): 3, (16.0, 3): 2}
# --rows name -> (row function, its parameters, each row's arguments, its columns)
FAMILIES = {
    "dense": (scan_row, ("lam", "k", "lower", "trials"),
              [(16.0, 3, False, 64), (40.0, 3, False, 32), (80.0, 3, False, 16),
               (160.0, 3, False, 8), (40.0, 5, False, 16)], SCAN_COLUMNS),
    "chunk": (scan_row, ("lam", "k", "lower", "trials"),
              [(lam, 3, lower, 512) for lam in (4.0, 16.0, 40.0) for lower in (True, False)],
              SCAN_COLUMNS),
    "draw": (draw_row, ("lam", "scenario", "trials"),
             [(0.5, "point", 150), (1.25, "point", 150), (2.0, "point", 150),
              (1.25, "intersection", 150), (4.0, "point", 16), (16.0, "point", 3)],
             [("lines/trial", "%.1f"), ("points/trial", "%.1f"),
              ("sample_chunk us/trial", "%.1f"), ("chunk KiB/trial", "%.2f"),
              ("draw peak KiB", "%.0f"), ("sample_palm us/trial", "%.1f")]),
    "fixed": (fixed_row, ("lam", "k", "trials"),
              [(lam, k, n) for (lam, k), trials in FIXED.items() for n in (1, trials)],
              [(name, "%.0f") for name in ("run_mc us", "draw us", "kernel us", "rest us")]),
    "thm2": (thm2_row, ("measurement",), [(name,) for name in THM2], [("ms", "%.1f")]),
}
CHILD = ("import json, runpy, sys; sys.path.insert(0, %r); "
         "print(json.dumps(runpy.run_path(%r)[%r](*%r)))")


def _child(tree, row, args):
    """The numbers of one run of ``row(*args)`` in a new interpreter that
    imports linecox from ``tree``; exits with the child's error if it fails."""
    code = CHILD % (str(tree), __file__, row.__name__, args)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{tree}: {row.__name__}{args}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _cell(fmt, values):
    """The median [q1, q3] of a cell's rounds, or the one value they all
    print: one round that a scheduler tick over-reads moves neither
    number, where it would move a min-max range."""
    q1, mid, q3 = (fmt % v for v in np.percentile(values, [25, 50, 75]))
    return mid if len({fmt % v for v in values}) == 1 else f"{mid} [{q1}, {q3}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", choices=(*FAMILIES, "all"), default="all")
    # an even count puts each of two trees first equally often
    ap.add_argument("--runs", type=int, default=6, help="rounds per row (default 6)")
    ap.add_argument("--src", type=Path, action="append",
                    help="a source tree to import linecox from (repeatable; "
                         "default: this checkout's src)")
    args = ap.parse_args(argv)
    trees = args.src or [Path(__file__).resolve().parent.parent / "src"]
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    for tree in trees:
        if not (tree / "linecox" / "__init__.py").is_file():
            ap.error(f"--src {tree} holds no linecox package")
    for family, (row, params, rows, columns) in FAMILIES.items():
        if args.rows not in (family, "all"):
            continue
        header = ["src", *params, *(name for name, _ in columns)]
        print("| " + " | ".join(header) + " |\n" + "|---" * len(header) + "|")
        for row_args in rows:
            runs = [[] for _ in trees]
            for r in range(args.runs):
                for i in ((r + j) % len(trees) for j in range(len(trees))):
                    runs[i].append(_child(trees[i], row, row_args))
            for tree, numbers in zip(trees, runs):
                cells = [str(tree), *("%g" % v if isinstance(v, float) else str(v)
                                      for v in row_args)]
                cells += [_cell(fmt, [n[name] for n in numbers]) for name, fmt in columns]
                print("| " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
