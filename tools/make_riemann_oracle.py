#!/usr/bin/env python3
"""Freeze brute-force Riemann reference values for the quadrature tests.

Recomputes the two averaged survival integrals from their raw definitions
with plain midpoint sums (no panel splitting, no Gauss-Legendre, no imports
from the package) and writes the results to tests/data/riemann_oracle.json.
Run once; the committed JSON is what the test suite reads. Expect a few
minutes for the triple integrals (pass "tx" or "ttilde" to redo one part;
the other part is carried over from the existing file).

Both integrands jump across curves in the angle plane, so the midpoint sum
converges only first order: about 2e-4 of its own error at 2000 cells per
axis. The two-turn kernel is therefore frozen at two resolutions, 2000 for
the coarse cross-check and 16000 (feasible because that integral is 2-D)
for a comparison tight enough to see real implementation drift.

Definitions duplicated here on purpose: the test compares two independent
implementations of the same formulas, so this file takes none of them from
linecox. It imports only the label of the recipe the sums follow, so that
the JSON records the name the package gives it.
"""

import json
import math
import pathlib
import sys
import time

import numpy as np

from linecox.analytic import DEFAULT_VARIANT

N = 2000          # cells per axis for the triple integrals
N_TTILDE = 16000  # finer axis for the 2-D kernel
PI = math.pi
GUARD = 1e-9

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE.parent / "tests" / "data" / "riemann_oracle.json"

# (mu, t) points for the one-turn intersection terms (lambda plays no role)
TX_POINTS = [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)]
# (w, u, t, mu) points for the two-turn survival kernel
TTILDE_POINTS = [(0.2, 0.5, 1.0, 1.0), (0.3, 0.7, 1.0, 1.0),
                 (0.1, 0.6, 1.5, 0.5)]


def tx_ty_riemann(mu, t, n=N):
    """Triple/double midpoint sums for (Tx, Ty), by the package's recipe
    (DEFAULT_VARIANT): plus-sign outer lengths, full-angle second-street
    weighting, entry distance in the first window arctan."""
    x = (np.arange(n) + 0.5) * (t / n)          # (n,)
    om1 = (np.arange(n) + 0.5) * (PI / n)       # (n,)
    sin1 = np.sin(om1)[None, :]

    tx_sum = 0.0
    ty_sum = 0.0
    for j in range(n):
        omega = (j + 0.5) * (PI / n)
        sw, cw = math.sin(omega), math.cos(omega)

        # window from the two arctans, sorted; outer thresholds from the
        # arccos pair, collapsing to omega as x -> 0
        win_a = np.arctan2(t * sw, t * cw - x) % PI
        win_b = np.arctan2(t * sw, t * cw + x) % PI
        wlo = np.minimum(win_a, win_b)[:, None]
        whi = np.maximum(win_a, win_b)[:, None]
        rho = (2.0 * t - x) / x
        r2 = rho * rho + 1.0
        olo = np.arccos(np.clip((r2 * cw + 2.0 * rho) / (2.0 * rho * cw + r2),
                                -1.0, 1.0))[:, None]
        ohi = np.arccos(np.clip((r2 * cw - 2.0 * rho) / (r2 - 2.0 * rho * cw),
                                -1.0, 1.0))[:, None]

        s = np.sin(om1 - omega)[None, :]
        xs = x[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            z_outer = np.clip(2.0 * t - xs * ((sw + sin1) / s + 1.0),
                              0.0, 4.0 * t)
            z_trans = np.clip(4.0 * t - 2.0 * xs * (1.0 + 2.0 * sin1 / s),
                              0.0, 4.0 * t)
        z = np.where((om1[None, :] <= olo) | (om1[None, :] >= ohi), z_outer,
                     np.where((wlo <= om1[None, :]) & (om1[None, :] <= whi),
                              2.0 * (t - xs), z_trans))
        g = np.exp(-mu * z)
        g = np.where(np.abs(s) < GUARD, 0.0, g)
        tx_sum += float(g.sum())

        window = np.maximum(whi - wlo, 0.0)[:, 0]
        ty_sum += float((window * np.exp(-2.0 * mu * (t - x))
                         + (PI - window)).sum())

    tx = tx_sum * t / n**3                    # (1/pi^2) * dx * dom * dom1
    ty = ty_sum * t * PI / (n * n) / PI**2    # (1/pi^2) * dx * dom
    return tx, ty


def ttilde_riemann(w, u, t, mu, n, block=512):
    """Double midpoint sum for the normalized two-turn survival kernel,
    evaluated in row blocks so the fine grid stays within memory."""
    q = (u - w) / (t - w)
    ti = (np.arange(n) + 0.5) * (PI / n)
    th1 = (np.arange(n) + 0.5) * (PI / n)
    with np.errstate(divide="ignore"):
        cot1 = (np.cos(th1) / np.sin(th1))[None, :]

    total = 0.0
    for a in range(0, n, block):
        rows = ti[a:a + block]
        cos_i, sin_i = np.cos(rows)[:, None], np.sin(rows)[:, None]
        lower = (rows <= PI / 2.0)[:, None]
        thr = PI / 2.0 - np.arctan(np.where(lower, cos_i - q / sin_i,
                                            (q - cos_i) / sin_i))
        in_region = np.where(lower, th1[None, :] <= thr, th1[None, :] >= thr)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = (u - w) / (cos_i - sin_i * cot1)
        y = np.where(np.isnan(y), 0.0, y)
        z = np.maximum((t - w) - y, 0.0)
        total += float(np.where(in_region, np.exp(-mu * z), 1.0).sum())
    return total / (n * n)


def main(part="all"):
    out = {"cells_per_axis": N, "ttilde_cells": [N, N_TTILDE],
           "tx": [], "ttilde": []}
    if OUT.exists():
        prev = json.loads(OUT.read_text())
        if part == "ttilde":
            out["tx"] = prev.get("tx", [])
        elif part == "tx":
            out["ttilde"] = prev.get("ttilde", [])

    if part in ("all", "tx"):
        for mu, t in TX_POINTS:
            t0 = time.time()
            tx, ty = tx_ty_riemann(mu, t)
            print(f"Tx/Ty(mu={mu}, t={t}) = {tx:.8f}, {ty:.8f}"
                  f"  [{time.time() - t0:.0f}s]")
            out["tx"].append({"mu": mu, "t": t, "tx": tx, "ty": ty,
                              "variant": DEFAULT_VARIANT})
    if part in ("all", "ttilde"):
        for w, u, t, mu in TTILDE_POINTS:
            t0 = time.time()
            vals = {str(n): ttilde_riemann(w, u, t, mu, n)
                    for n in (N, N_TTILDE)}
            print(f"Ttilde(w={w}, u={u}, t={t}, mu={mu}) = "
                  + ", ".join(f"{n}: {v:.8f}" for n, v in vals.items())
                  + f"  [{time.time() - t0:.0f}s]")
            out["ttilde"].append({"w": w, "u": u, "t": t, "mu": mu,
                                  "values": vals})

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "all")
