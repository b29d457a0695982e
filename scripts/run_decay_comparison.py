#!/usr/bin/env python3
"""Compare the fitted decay rate of unforced runs with the decay rate
predicted by the secant abscissa of the gain-operator family, across resolutions."""

import argparse

from kinnet import VelocityGrid, fit_decay, make_scenario, network_bounds, \
    run, spectral_abscissa
from kinnet.presets import heterogeneous_five, single_circle


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", choices=("single", "five"), default="five")
    ap.add_argument("--scale", type=float, default=0.4,
                    help="routing level for the five-circle network")
    args = ap.parse_args()

    spec = heterogeneous_five(args.scale) if args.spec == "five" \
        else single_circle(0.5)

    print(f"{'m_base':>7} {'k':>4} {'a_hat':>10} {'-lambda*':>10} {'rel err':>9}")
    for m_base, k in ((32, 8), (64, 16), (128, 32)):
        grid = VelocityGrid.for_spec(spec, k)
        lam = spectral_abscissa(spec, grid).lambda_star
        b = network_bounds(spec)
        t_end = max(20.0, 12.0 / max(abs(lam), 0.3))
        sc = make_scenario(spec, grid, t_end=t_end, stride=8, m_base=m_base,
                           initial={"kind": "constant", "value": 1.0},
                           history={"kind": "constant", "value": 1.0})
        fit = fit_decay(run(sc))
        rel = abs(fit.a_hat + lam) / abs(lam)
        print(f"{m_base:7d} {k:4d} {fit.a_hat:10.5f} {-lam:10.5f} {rel:9.2e}")


if __name__ == "__main__":
    main()
