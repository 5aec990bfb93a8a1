#!/usr/bin/env python3
"""Radiate an oscillating dipole through the retarded-potential quadrature.

Builds a conserved Gaussian dipole source, evaluates the causal potentials
on radial probes aligned with the travel time (t = t_phase + r so every
probe sees the same emission phase) and prints the amplitude falloff, whose
log-log slope must approach -1 in the radiation zone.  It also reports the
discrete charge-conservation residual of the source and the Lorenz-gauge
residual of the potentials on a small space-time stencil, at two stencil
resolutions to show the refinement gain.

Example
-------
    python3 scripts/dipole_radiation.py --radii 8 11 14 17
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from photonlab.registry import _dipole_gauge_residual
from photonlab.retarded_solver import gaussian_dipole_source, retarded_potential


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--omega", type=float, default=1.0, help="dipole frequency")
    parser.add_argument("--width", type=float, default=0.352, help="source width")
    parser.add_argument(
        "--radii", type=float, nargs="+", default=[8.0, 11.0, 14.0, 17.0],
        help="probe radii for the falloff fit",
    )
    parser.add_argument("--t-phase", type=float, default=math.pi / 2,
                        help="emission phase time added to each radius")
    return parser.parse_args()


def probe_amplitude(src, radius: float, t: float) -> float:
    """Mean |A| over the six axis directions at one radius."""
    directions = np.concatenate([np.eye(3), -np.eye(3)])
    points = radius * directions
    pf = retarded_potential(src, points, t)
    return float(np.mean(np.linalg.norm(pf.A[0], axis=-1)))


def main() -> None:
    args = parse_args()
    t_last = max(args.radii) + args.t_phase + 2.0
    n_times = int(math.ceil((t_last + 1.2) / 0.04)) + 1
    src = gaussian_dipole_source(
        (0.0, 0.0, 1.0), args.omega, args.width,
        delta_x=0.08, n_per_axis=37, t0=-1.2, delta_t=0.04, n_times=n_times,
    )
    print(f"source: {src.n_per_axis[0]}^3 cells, {src.n_times} slices, "
          f"conservation residual {src.conservation_residual():.3e}")

    coarse = _dipole_gauge_residual(src, 0.5, 0.2)
    fine = _dipole_gauge_residual(src, 0.25, 0.1)
    print(f"Lorenz gauge residual: coarse {coarse:.3e}, fine {fine:.3e} "
          f"(refinement gain {coarse / fine:.2f}x)")
    print()

    print(f"{'r':>6} {'t':>8} {'mean |A|':>12}")
    amplitudes = []
    for radius in args.radii:
        t = args.t_phase + radius
        amp = probe_amplitude(src, radius, t)
        amplitudes.append(amp)
        print(f"{radius:6.1f} {t:8.3f} {amp:12.5e}")

    slope = np.polyfit(np.log(args.radii), np.log(amplitudes), 1)[0]
    print()
    print(f"log-log falloff slope: {slope:.4f} (radiation zone: -1)")


if __name__ == "__main__":
    main()
