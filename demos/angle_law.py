"""Which crossing-angle law does the intersection start actually follow?

Conditioning on a crossing at the origin fixes two street directions.
Two natural laws for the angle between them are on offer: draw it
uniformly on (0, pi), or weight it by the sine (crossings of nearly
parallel streets are rarer per unit area, which tilts the law toward
right angles). The analytic intersection curve is derived for a uniform
reading; this script simulates both laws and scores them against the
curve, then prints the sampled angle moments so the difference is
concrete rather than abstract.

At this script's 20k trials (a DKW half width of 0.0096) both laws land
within the simulation band of the curve: its largest gaps to the two
simulations are 0.0036 and 0.0056 (seed 31). That band is too wide to
tell the laws or the curve apart, and it shows no more than that: with
2M trials a law (half width 0.0010, grid 0:0.6:0.01) the curve lies up
to 0.0035 above the uniform-law simulation at rho = lam/mu = 1 and up
to 0.0014 above the sine-law one, both outside the band. The distinction
between the laws is mild because the one-turn distance averages over
the angle anyway. The angle moments are where the two laws visibly
differ.
"""

import time

import numpy as np

from linecox.analytic import cdf_one_turn_intersection
from linecox.experiments import default_grid, dkw_halfwidth, run_mc
from linecox.model import AngleLaw, ModelParams, TurnPolicy, typical_intersection
from linecox.sampler import sample_palm

PARAMS = ModelParams(1.0, 1.0)
TRIALS = 20_000


def sampled_angle_stats(law, n=4000):
    deltas = np.empty(n)
    for s in range(n):
        real = sample_palm(PARAMS, typical_intersection(law), 1.0, seed=(47, s))
        a0, a1 = real.lines[0].angle, real.lines[1].angle
        deltas[s] = abs(a1 - a0) if abs(a1 - a0) <= np.pi / 2 else np.pi - abs(a1 - a0)
    return float(np.mean(deltas)), float(np.quantile(deltas, 0.1))


def main():
    grid = default_grid(3.0, 0.05)
    t0 = time.time()
    curve = cdf_one_turn_intersection(PARAMS, grid)
    print(f"analytic curve in {time.time() - t0:.1f}s")
    hw = dkw_halfwidth(TRIALS)

    print(f"\n{'law':14s} {'KS vs curve':>12s} {'DKW band':>9s} "
          f"{'mean acute angle':>17s} {'10% quantile':>13s}")
    for law in (AngleLaw.UNIFORM, AngleLaw.SIN_WEIGHTED):
        mc = run_mc(PARAMS, typical_intersection(law), TurnPolicy.one_turn(),
                    TRIALS, 3.0, seed=31, grid=grid)
        ks = float(np.max(np.abs(mc.values - curve)))
        mean, q10 = sampled_angle_stats(law)
        name = "uniform" if law is AngleLaw.UNIFORM else "sin-weighted"
        print(f"{name:14s} {ks:12.4f} {hw:9.4f} {mean:17.3f} {q10:13.3f}")

    print("\nthe sine weighting avoids glancing crossings (larger 10% "
          "quantile), but both laws sit inside the simulation band of "
          f"{TRIALS} trials, too wide to tell them apart")


if __name__ == "__main__":
    main()
