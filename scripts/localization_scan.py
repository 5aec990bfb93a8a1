#!/usr/bin/env python3
"""Scan packet bandwidth and compare localization widths of three densities.

For each spectral width the script reports the 99% containment radius of

  * the photon number density,
  * the energy-normalized wave-field density |F|^2, and
  * the number-normalized wave-field density |psi|^2.

In the narrowband limit all three agree; as the bandwidth grows they can
separate, because the three densities weight the spectrum by different
powers of the frequency and the nonlocal half-power frequency operator
redistributes the spatial tails.  On the default grid that separation is
small: r99 of |psi|^2 exceeds the other two by under 1%.  The column
1/sigma gives the naive reciprocal-bandwidth scale for orientation, and the
next column the negative mass of the number density (the integral of
max(-rho, 0), see ``observables.negative_mass``): rho is not positive
definite, and this is how much of it reads as a negative probability.

A packet whose 5 sigma ball about k0 leaves the sampled k-range on any axis,
or reaches the excluded zero mode (|k0| <= 5 sigma), is flagged
``(clipped)``: the grid cuts its spectrum, and part of the separation of its
widths is that truncation.  On the defaults (72^3 modes, delta_k = 0.6, so
k reaches 21.0 >= 10 + 5 * 2.0) only sigma = 2.0 is flagged: its ball
reaches k = 0, and its negative mass is four orders of magnitude above that
of sigma = 1.5.  The earlier 48^3 grid of the same box cut the grid edge
too, and there r99 of |F|^2 at sigma = 1.5 read 1.1749 against 1.1454 on a
64^3 grid.

Example
-------
    python3 scripts/localization_scan.py --sigmas 0.6 1.0 1.5 2.0
"""

from __future__ import annotations

import argparse
import math

from photonlab.densities import bb_energy_density, lp_number_density, number_density
from photonlab.field_synthesis import SpatialGrid, synthesize
from photonlab.mode_space import WaveVectorGrid, gaussian_spectrum
from photonlab.observables import is_box_limited, localization_widths, negative_mass


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=72, help="modes per axis")
    parser.add_argument("--delta-k", type=float, default=0.6, help="mode spacing")
    parser.add_argument("--k0x", type=float, default=10.0, help="carrier wave number (x)")
    parser.add_argument(
        "--sigmas", type=float, nargs="+", default=[0.6, 1.0, 1.5, 2.0],
        help="spectral widths to scan",
    )
    return parser.parse_args()


def is_clipped(kgrid: WaveVectorGrid, k0, sigma: float) -> bool:
    """True when the 5 sigma ball about ``k0`` leaves the sampled k-range on an
    axis or reaches the excluded zero mode."""
    return math.hypot(*k0) <= 5.0 * sigma or any(
        k - 5.0 * sigma < axis[0] or k + 5.0 * sigma > axis[-1] for k, axis in zip(k0, kgrid.axes))


def main() -> None:
    args = parse_args()
    kgrid = WaveVectorGrid.centered((args.n,) * 3, (args.delta_k,) * 3)
    sgrid = SpatialGrid.paired(kgrid)

    print(f"grid {args.n}^3, delta_k={args.delta_k}, "
          f"box length {min(sgrid.box_lengths):.3f}, carrier k0x={args.k0x}")
    print()
    print(f"{'sigma':>6} {'r99(number)':>12} {'r99(|F|^2)':>11} "
          f"{'r99(|psi|^2)':>13} {'1/sigma':>8} {'neg(number)':>11}")

    k0 = (args.k0x, 0.0, 0.0)
    for sigma in args.sigmas:
        spectrum = gaussian_spectrum(kgrid, k0, sigma)
        snap = synthesize(spectrum, sgrid, 0.0)
        rho = number_density(snap)
        widths = localization_widths((rho, bb_energy_density(snap), lp_number_density(snap)))
        flags = {
            kind: " (box-limited)" if is_box_limited(w, sgrid) else ""
            for kind, w in widths.items()
        }
        print(f"{sigma:6.2f} {widths['number']:12.4f}{flags['number']}"
              f" {widths['bb_energy']:11.4f}{flags['bb_energy']}"
              f" {widths['lp_number']:13.4f}{flags['lp_number']}"
              f" {1.0 / sigma:8.4f} {negative_mass(rho):11.3e}"
              f"{' (clipped)' if is_clipped(kgrid, k0, sigma) else ''}")


if __name__ == "__main__":
    main()
