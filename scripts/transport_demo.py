#!/usr/bin/env python3
"""Track a collimated single-photon packet and measure its centroid speed.

Synthesizes a Gaussian helicity packet along +z, samples the standard
observable report at a few times and prints the centroid trajectory, the
per-interval group speed and the conserved integrals.  A free packet must
move at the speed of light (1 in natural units) while number, energy,
momentum and helicity stay constant.  The packet carries the helicity
basis's phase vortex, and its small transverse centroid offset is a
lattice artifact of the basis's pole line that shrinks with the mode
spacing, not a property of the photon.

Example
-------
    python3 scripts/transport_demo.py --n 48 --k0z 8 --sigma 0.9 --t-max 2.5
"""

from __future__ import annotations

import argparse

import numpy as np

from photonlab.densities import number_density_at
from photonlab.field_synthesis import SpatialGrid
from photonlab.mode_space import WaveVectorGrid, gaussian_spectrum
from photonlab.observables import expectations, transport_speed


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=48, help="modes per axis")
    parser.add_argument("--delta-k", type=float, default=0.5, help="mode spacing")
    parser.add_argument("--k0z", type=float, default=8.0, help="carrier wave number (z)")
    parser.add_argument("--sigma", type=float, default=0.9, help="spectral width")
    parser.add_argument("--t-max", type=float, default=2.5, help="final sample time")
    parser.add_argument("--samples", type=int, default=6, help="number of time samples")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    kgrid = WaveVectorGrid.centered((args.n,) * 3, (args.delta_k,) * 3)
    sgrid = SpatialGrid.paired(kgrid)
    spectrum = gaussian_spectrum(kgrid, (0.0, 0.0, args.k0z), args.sigma)

    print(f"grid {args.n}^3, delta_k={args.delta_k}, box length="
          f"{min(sgrid.box_lengths):.3f}")
    print(f"packet k0=(0,0,{args.k0z}), sigma={args.sigma}")
    print()
    print(f"{'t':>6} {'x':>8} {'y':>8} {'z':>8} {'number':>10} "
          f"{'energy':>10} {'helicity':>9} {'speed':>8}")

    times = np.linspace(0.0, args.t_max, args.samples)
    for t in times:
        report = expectations(spectrum, sgrid, float(t))
        x, y, z = report.mean_position
        print(f"{t:6.2f} {x:8.3f} {y:8.3f} {z:8.3f} {report.number:10.6f} "
              f"{report.energy:10.5f} {report.helicity:9.5f} "
              f"{report.group_speed:8.4f}")

    overall = transport_speed(
        *(number_density_at(spectrum, sgrid, t) for t in (0.0, args.t_max))
    )
    print()
    print(f"end-to-end centroid speed over [0, {args.t_max}]: {overall:.5f} "
          f"(deviation from c: {abs(overall - 1.0):.2e})")


if __name__ == "__main__":
    main()
