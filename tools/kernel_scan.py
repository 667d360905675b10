#!/usr/bin/env python3
"""Time the batched turn-layer kernel against the per-trial search.

For each row it draws one chunk (point scenario, mu = 1, t_max = 3) and
solves every trial twice: with ``chunk_lengths``, the kernel Monte Carlo
runs, and with ``shortest_path`` on each trial's Realization (a view of the
chunk), the per-trial reference. It checks that the two agree bit for bit, then prints lines per
trial, the CPU ms per trial of each solver, their ratio, and the kernel's
``tracemalloc`` peak (taken in a separate, untimed call).

The "dense" rows are k_turn(3) with exact turns at lam 16, 40, 80 and 160,
and k_turn(5) at lam 40, on a few trials each. The "chunk" rows are
512-trial chunks at lam 4, 16 and 40, k_turn(3), with and without
lower-turn paths. The whole scan takes about a minute on one core.

The "draw" rows time the sampler alone: ``sample_chunk`` at the chunk
shapes of the two Monte Carlo benchmark workloads (lam 0.5-2 at 150
trials, lam 4 at 16, lam 16 at 3; mu = 1, radius 3), over DRAW_CHUNKS
consecutive chunks per row. They print lines and points per trial, the
CPU us per trial, and, from one more untimed call under ``tracemalloc``,
the KiB per trial the finished chunk keeps and the call's peak. Last comes
the CPU us per call of ``sample_palm`` over the same trials, one call per
trial, reading each realization's lines and arcs as the benchmark's traced
replay reads them. They take some ten seconds.

    PYTHONPATH=src python tools/kernel_scan.py [--rows dense|chunk|draw|all]

Point PYTHONPATH at another checkout's ``src`` to scan that one.
"""

import argparse
import sys
import time
import tracemalloc

import numpy as np

from linecox import (ModelParams, TurnPolicy, chunk_lengths, sample_chunk,
                     sample_palm, shortest_path, typical_intersection,
                     typical_point)

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
SCENARIOS = {"point": typical_point(), "intersection": typical_intersection()}


def _cpu_ms(fn):
    start = time.process_time()
    out = fn()
    return out, 1e3 * (time.process_time() - start)


def scan_row(lam, k, lower, trials):
    chunk = sample_chunk(ModelParams(lam, MU), typical_point(), T_MAX, SEED, 0,
                         trials)
    policy = TurnPolicy.k_turn(k, lower)
    reals = [chunk.realization(t) for t in range(trials)]
    batched, kernel_ms = _cpu_ms(lambda: chunk_lengths(chunk, policy, T_MAX))
    per_trial, search_ms = _cpu_ms(lambda: np.array(
        [shortest_path(r, policy, T_MAX).length for r in reals]))
    if batched.tobytes() != per_trial.tobytes():
        sys.exit(f"lam {lam}, k {k}, lower {lower}: chunk_lengths differs "
                 f"from shortest_path on {np.sum(batched != per_trial)} trials")
    tracemalloc.start()
    try:
        chunk_lengths(chunk, policy, T_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (lam, k, lower, trials, chunk.angle.size / trials,
            kernel_ms / trials, search_ms / trials, kernel_ms / search_ms,
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", choices=("dense", "chunk", "draw", "all"),
                    default="all")
    args = ap.parse_args(argv)
    names = [name for name in ROWS if args.rows in (name, "all")]
    if names:
        print("| lam | k | lower | trials | lines/trial | chunk_lengths ms | "
              "shortest_path ms | ratio | kernel peak MiB |")
        print("|---|---|---|---|---|---|---|---|---|")
    for name in names:
        for row in ROWS[name]:
            print("| %g | %d | %s | %d | %.0f | %.2f | %.2f | %.2f | %.2f |"
                  % scan_row(*row), flush=True)
    if args.rows in ("draw", "all"):
        print("| lam | scenario | trials | lines/trial | points/trial | "
              "sample_chunk us/trial | chunk KiB/trial | draw peak KiB | "
              "sample_palm us/trial |")
        print("|---|---|---|---|---|---|---|---|---|")
        for row in DRAW_ROWS:
            print("| %g | %s | %d | %.1f | %.1f | %.1f | %.2f | %.0f | %.1f |"
                  % draw_row(*row), flush=True)


if __name__ == "__main__":
    main()
