#!/usr/bin/env python3
"""Scan packet bandwidth and compare localization widths of three densities.

For each spectral width the script reports the 99% containment radius of

  * the photon number density,
  * the energy-normalized wave-field density |F|^2, and
  * the number-normalized wave-field density |psi|^2.

In the narrowband limit all three agree; as the bandwidth grows they
separate, because the three densities weight the spectrum by different
powers of the frequency and the nonlocal half-power frequency operator
redistributes the spatial tails.  The column 1/sigma gives the naive
reciprocal-bandwidth scale for orientation, and the last column the
negative mass of the number density (the integral of max(-rho, 0), see
``observables.negative_mass``): rho is not positive definite, and this is
how much of it reads as a negative probability.

Example
-------
    python3 scripts/localization_scan.py --sigmas 0.6 1.0 1.5 2.0
"""

from __future__ import annotations

import argparse

from photonlab.densities import (
    bb_energy_density,
    lp_number_density,
    number_density,
    photon_wave_fields,
)
from photonlab.field_synthesis import SpatialGrid, synthesize
from photonlab.mode_space import WaveVectorGrid, gaussian_spectrum
from photonlab.observables import is_box_limited, localization_widths, negative_mass


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=48, help="modes per axis")
    parser.add_argument("--delta-k", type=float, default=0.6, help="mode spacing")
    parser.add_argument("--k0x", type=float, default=10.0, help="carrier wave number (x)")
    parser.add_argument(
        "--sigmas", type=float, nargs="+", default=[0.6, 1.0, 1.5, 2.0],
        help="spectral widths to scan",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    kgrid = WaveVectorGrid.centered((args.n,) * 3, (args.delta_k,) * 3)
    sgrid = SpatialGrid.paired(kgrid)

    print(f"grid {args.n}^3, delta_k={args.delta_k}, "
          f"box length {min(sgrid.box_lengths):.3f}, carrier k0x={args.k0x}")
    print()
    print(f"{'sigma':>6} {'r99(number)':>12} {'r99(|F|^2)':>11} "
          f"{'r99(|psi|^2)':>13} {'1/sigma':>8} {'neg(number)':>11}")

    for sigma in args.sigmas:
        spectrum = gaussian_spectrum(kgrid, (args.k0x, 0.0, 0.0), sigma)
        snap = synthesize(spectrum, sgrid, 0.0)
        wave = photon_wave_fields(snap)
        rho = number_density(snap)
        widths = localization_widths((rho, bb_energy_density(wave), lp_number_density(wave)))
        flags = {
            kind: " (box-limited)" if is_box_limited(w, sgrid) else ""
            for kind, w in widths.items()
        }
        print(f"{sigma:6.2f} {widths['number']:12.4f}{flags['number']}"
              f" {widths['bb_energy']:11.4f}{flags['bb_energy']}"
              f" {widths['lp_number']:13.4f}{flags['lp_number']}"
              f" {1.0 / sigma:8.4f} {negative_mass(rho):11.3e}")


if __name__ == "__main__":
    main()
