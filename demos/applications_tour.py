"""Two quick calculators built on the one-turn distance distribution.

First a corner-mounted reflective surface assisting vehicle-to-vehicle
links: in the near-field regime the received power depends on the summed
street distance d1 + d2, which is exactly the one-turn path length, so
link success is one evaluation of the closed form. The far-field regime
depends on the product d1*d2 instead; the arithmetic-geometric mean
inequality turns a product budget into a guaranteed total-distance
radius, giving a lower bound on success.

Second the reach question for electric vehicles: how far must a driver
be able to travel so that, with probability p, some charging point is
reachable with at most one turn? That is the quantile of the same
distribution, solved by bracketed root finding, from a typical point and
from a typical intersection side by side.
"""

from linecox.applications import (
    RisLinkParams,
    db_to_linear,
    farfield_success_lower_bound,
    farfield_threshold_distance,
    nearfield_success,
    nearfield_threshold_distance,
    reach_quantile,
)
from linecox.model import ModelParams


def main():
    model = ModelParams(1.0, 1.0)
    link = RisLinkParams(
        g_t=db_to_linear(6.0), g_r=db_to_linear(6.0), g=db_to_linear(3.0),
        wavelength=1.0, area=0.4, m=8.0, n=8.0, d_x=0.25, d_y=0.25,
        p_t=1.0, n0=1.0, gamma=db_to_linear(3.0),
    )

    print("surface-assisted link, street units (lambda = mu = 1)")
    d_near = nearfield_threshold_distance(link)
    print(f"  near field: reachable total distance {d_near:.3f}, "
          f"success {nearfield_success(link, model):.4f}")
    d_far = farfield_threshold_distance(link)
    print(f"  far field:  guaranteed radius {d_far:.3f}, "
          f"success >= {farfield_success_lower_bound(link, model):.4f}")

    tough = RisLinkParams(**{**link.__dict__, "gamma": db_to_linear(20.0)})
    print(f"  at a 20 dB threshold the near-field success drops to "
          f"{nearfield_success(tough, model):.4f}")

    print("\ncharging reach radius r(p): F(r) = p for the one-turn distance,")
    print("from a typical point / from a typical intersection")
    models = [ModelParams(1.0, 1.0), ModelParams(1.0, 0.2), ModelParams(0.3, 1.0)]
    print("  p    " + "   ".join(f"{f'lambda={m.lam:g},mu={m.mu:g}':>15s}"
                                 for m in models))
    for p in (0.5, 0.9, 0.95, 0.99):
        row = "   ".join(
            f"{reach_quantile(m, p):6.3f} / {reach_quantile(m, p, 'one-turn-intersection'):6.3f}"
            for m in models)
        print(f"  {p:4.2f} {row}")
    print("  (a crossing offers two streets to search and two to turn onto, so")
    print("  its one-turn radius is the shorter one at every p)")

    r = reach_quantile(models[1], 0.9, "zero-turn-intersection")
    print(f"\n  starting at a crossing and refusing to turn, the 90% radius "
          f"at mu=0.2 is {r:.3f}")
    print("  (sparser charging points stretch every radius roughly like 1/mu "
          "only when streets are sparse too; dense streets soften it)")


if __name__ == "__main__":
    main()
