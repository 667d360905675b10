#!/usr/bin/env python3
"""Time the batched turn-layer kernel against the per-trial search.

For each row it draws its trials (point scenario, mu = 1, t_max = 3) in
chunks of the size ``run_mc`` uses (``experiments._chunk_trials``) and
solves every trial with both solvers: with ``chunk_lengths`` on each
chunk, the kernel Monte Carlo runs, and with ``shortest_path`` on each
trial's Realization (a view of its chunk), the per-trial reference. The two
solvers take turns over ROUNDS rounds in one process, so that drift in the
machine's speed reaches both alike, and each round each solver solves
copies of the chunks that no call has solved, so that it pays for the
sines and cosines a chunk caches, as ``run_mc`` does for each chunk it
draws. The row checks that the two agree bit
for bit, then prints the trials per chunk, the lines per trial, the CPU ms
per trial of each solver as the median over the rounds with the min-max
range in parentheses, the ratio of the medians, and the kernel's largest
``tracemalloc`` peak over the chunks (taken in separate, untimed calls).

The "dense" rows are k_turn(3) with exact turns at lam 16, 40, 80 and 160,
and k_turn(5) at lam 40, on a few trials each. The "chunk" rows are 512
trials at lam 4, 16 and 40, k_turn(3), with and without lower-turn paths.
These rows take about a minute and a half on one core.

The "draw" rows time the sampler alone: ``sample_chunk`` at the chunk
shapes of the two Monte Carlo benchmark workloads (lam 0.5-2 at 150
trials, lam 4 at 16, lam 16 at 3; mu = 1, radius 3), over DRAW_CHUNKS
consecutive chunks per row. They print lines and points per trial, the
CPU us per trial, and, from one more untimed call under ``tracemalloc``,
the KiB per trial the finished chunk keeps and the call's peak. Last comes
the CPU us per call of ``sample_palm`` over the same trials, one call per
trial, reading each realization's lines and arcs as the benchmark's traced
replay reads them. They take some ten seconds.

The "fixed" rows time a small ``run_mc`` whole, at the six shapes of the
``kturn-dense`` benchmark workload: lam 4, 8 and 16, ``k_turn(2)`` and
``k_turn(3)`` (point scenario, mu = 1, t_max = 3), once with 1 trial and
once with the workload's trials for that shape, one chunk either way. Each
row prints the CPU us per call of ``run_mc``, of its draw and of its
kernel on the same trials, and the rest, ``run_mc`` less the other two:
the driver's own cost and its checks. The draw and the kernel are the
calls ``run_mc`` makes for a chunk: the unchecked cores
``sampler._draw_chunk`` and ``oracle._chunk_lengths``, or, in a checkout
without those cores, ``sample_chunk`` and ``chunk_lengths`` with their
checks. Each kernel call solves a copy of the chunk that no call has
solved, as ``run_mc`` solves the chunk it has just drawn. Each is the
median over
FIXED_ROUNDS rounds in which the three take turns, each round over
FIXED_SEEDS seeds. They take about ten seconds.

    PYTHONPATH=src python tools/kernel_scan.py [--rows dense|chunk|draw|fixed|all]

Point PYTHONPATH at another checkout's ``src`` to scan that one.
"""

import argparse
import dataclasses
import statistics
import sys
import time
import tracemalloc

import numpy as np

from linecox import (ModelParams, TurnPolicy, chunk_lengths, run_mc,
                     sample_chunk, sample_palm, shortest_path,
                     typical_intersection, typical_point)
from linecox import oracle, sampler
from linecox.experiments import _chunk_trials

T_MAX, MU, SEED = 3.0, 1.0, 2024
# (lam, k, include_lower_turn_paths, trials)
ROWS = {
    "dense": [(16.0, 3, False, 64), (40.0, 3, False, 32), (80.0, 3, False, 16),
              (160.0, 3, False, 8), (40.0, 5, False, 16)],
    "chunk": [(lam, 3, lower, 512) for lam in (4.0, 16.0, 40.0)
              for lower in (True, False)],
}
# (lam, scenario, trials) of the "draw" rows
DRAW_ROWS = [(0.5, "point", 150), (1.25, "point", 150), (2.0, "point", 150),
             (1.25, "intersection", 150), (4.0, "point", 16), (16.0, "point", 3)]
DRAW_CHUNKS = 100
# (lam, k): trials of the "fixed" rows, the kturn-dense workload's trials
FIXED_ROWS = {(4.0, 2): 16, (4.0, 3): 16, (8.0, 2): 4, (8.0, 3): 4,
              (16.0, 2): 3, (16.0, 3): 2}
FIXED_ROUNDS, FIXED_SEEDS = 7, 20
# the draw and the kernel as run_mc calls them (same arguments either way)
FIXED_DRAW = getattr(sampler, "_draw_chunk", sample_chunk)
FIXED_SOLVE = getattr(oracle, "_chunk_lengths", chunk_lengths)
ROUNDS = 5  # interleaved timing rounds of the two solvers per row
SCENARIOS = {"point": typical_point(), "intersection": typical_intersection()}


def _cpu_ms(fn):
    start = time.process_time()
    out = fn()
    return out, 1e3 * (time.process_time() - start)


def _spread(values):
    """Median and min-max range of a row's rounds."""
    return "%.2f (%.2f-%.2f)" % (statistics.median(values), min(values), max(values))


def scan_row(lam, k, lower, trials):
    params = ModelParams(lam, MU)
    size = _chunk_trials(params, typical_point(), T_MAX)
    chunks = [sample_chunk(params, typical_point(), T_MAX, SEED, lo,
                           min(lo + size, trials))
              for lo in range(0, trials, size)]
    policy = TurnPolicy.k_turn(k, lower)
    kernel_ms, search_ms = [], []
    for _ in range(ROUNDS):
        # each solver gets copies no call has solved, which compute their
        # cached sines and cosines again, as a freshly drawn chunk does
        fresh = [dataclasses.replace(c) for c in chunks]
        reals = [c.realization(t) for c in map(dataclasses.replace, chunks)
                 for t in range(c.n_trials)]
        batched, ms = _cpu_ms(lambda: np.concatenate(
            [chunk_lengths(c, policy, T_MAX) for c in fresh]))
        kernel_ms.append(ms / trials)
        per_trial, ms = _cpu_ms(lambda: np.array(
            [shortest_path(r, policy, T_MAX).length for r in reals]))
        search_ms.append(ms / trials)
    if batched.tobytes() != per_trial.tobytes():
        sys.exit(f"lam {lam}, k {k}, lower {lower}: chunk_lengths differs "
                 f"from shortest_path on {np.sum(batched != per_trial)} trials")
    peak = 0
    tracemalloc.start()
    try:
        for c in chunks:
            tracemalloc.reset_peak()
            chunk_lengths(c, policy, T_MAX)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return (lam, k, lower, trials, min(size, trials),
            sum(c.angle.size for c in chunks) / trials, _spread(kernel_ms),
            _spread(search_ms), statistics.median(kernel_ms) / statistics.median(search_ms),
            peak / 2**20)


def draw_row(lam, scenario, trials):
    params, lines, points = ModelParams(lam, MU), 0, 0

    def draw_all():
        nonlocal lines, points
        for k in range(DRAW_CHUNKS):
            chunk = sample_chunk(params, SCENARIOS[scenario], T_MAX, SEED,
                                 k * trials, (k + 1) * trials)
            lines += chunk.angle.size
            points += chunk.arcs.size

    def palm_all():
        for i in range(n):
            real = sample_palm(params, SCENARIOS[scenario], T_MAX, (SEED, i))
            len(real.lines)
            sum(a.size for a in real.arcs_by_line)

    sample_chunk(params, SCENARIOS[scenario], T_MAX, SEED, 0, trials)  # warm-up
    _, ms = _cpu_ms(draw_all)
    n = DRAW_CHUNKS * trials
    tracemalloc.start()
    try:
        chunk = sample_chunk(params, SCENARIOS[scenario], T_MAX, SEED, 0, trials)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, palm_ms = _cpu_ms(palm_all)
    return (lam, scenario, trials, lines / n, points / n, 1e3 * ms / n,
            kept / trials / 2**10, peak / 2**10, 1e3 * palm_ms / n)


def fixed_row(lam, k, trials):
    params, scenario, policy = ModelParams(lam, MU), typical_point(), TurnPolicy.k_turn(k)
    seeds = range(SEED, SEED + FIXED_SEEDS)
    chunks = [sample_chunk(params, scenario, T_MAX, s, 0, trials) for s in seeds]
    # each timed chunk_lengths call gets a copy it has not seen, as in
    # run_mc, so that it computes the chunk's cached sines and cosines
    copies = [[dataclasses.replace(c) for c in chunks] for _ in range(FIXED_ROUNDS + 1)]
    calls = {
        "run_mc": lambda: [run_mc(params, scenario, policy, trials, T_MAX, s)
                           for s in seeds],
        "draw": lambda: [FIXED_DRAW(params, scenario, T_MAX, s, 0, trials)
                         for s in seeds],
        "kernel": lambda: [FIXED_SOLVE(c, policy, T_MAX) for c in copies.pop()],
    }
    for call in calls.values():  # warm-up
        call()
    us = {name: [] for name in calls}
    for _ in range(FIXED_ROUNDS):
        for name, call in calls.items():
            us[name].append(1e3 * _cpu_ms(call)[1] / FIXED_SEEDS)
    us["rest"] = [a - b - c for a, b, c in zip(*us.values())]
    return (lam, k, trials) + tuple(statistics.median(v) for v in us.values())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", choices=("dense", "chunk", "draw", "fixed", "all"),
                    default="all")
    args = ap.parse_args(argv)
    names = [name for name in ROWS if args.rows in (name, "all")]
    if names:
        print("| lam | k | lower | trials | trials/chunk | lines/trial | "
              "chunk_lengths ms | shortest_path ms | ratio | kernel peak MiB |")
        print("|---|---|---|---|---|---|---|---|---|---|")
    for name in names:
        for row in ROWS[name]:
            print("| %g | %d | %s | %d | %d | %.0f | %s | %s | %.2f | %.2f |"
                  % scan_row(*row), flush=True)
    if args.rows in ("draw", "all"):
        print("| lam | scenario | trials | lines/trial | points/trial | "
              "sample_chunk us/trial | chunk KiB/trial | draw peak KiB | "
              "sample_palm us/trial |")
        print("|---|---|---|---|---|---|---|---|---|")
        for row in DRAW_ROWS:
            print("| %g | %s | %d | %.1f | %.1f | %.1f | %.2f | %.0f | %.1f |"
                  % draw_row(*row), flush=True)
    if args.rows in ("fixed", "all"):
        print("| lam | k | trials | run_mc us | draw us | kernel us | rest us |")
        print("|---|---|---|---|---|---|---|")
        for (lam, k), trials in FIXED_ROWS.items():
            for n in (1, trials):
                print("| %g | %d | %d | %.0f | %.0f | %.0f | %.0f |"
                      % fixed_row(lam, k, n), flush=True)


if __name__ == "__main__":
    main()
