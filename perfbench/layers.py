"""Per-layer metrics and the end-to-end metric each one should move.

The layers are the modules of ``src/photonlab``; ``fock_algebra`` (under
1 ms per check) and ``cli`` (argparse over ``run_scenario``) are not
measured.  Op-phase values are means over the warm ops of a traced run, so
call counts are exact integers whenever every warm op does the same work.
``config.load_scenario`` and ``retarded_solver.gaussian_dipole_source`` run
during set-up and are reported per set-up.
"""

from __future__ import annotations

_DENSITY_FUNCTIONS = (
    "number_density", "photon_current", "energy_density", "momentum_density",
    "four_momentum_density", "angular_momentum_density", "helicity_density",
    "photon_wave_fields", "apply_frequency_operator", "bb_energy_density",
    "lp_number_density",
)

# (metric names, end-to-end metrics they should move, workloads where they
# should move, workloads where they should read zero or stay unchanged)
LAYER_MAP = (
    (("mode_space.build_basis.calls", "mode_space.build_basis.self_s"),
     "op_s_p50, first_op_s", "time_sweep, observables_report", "radiation"),
    (tuple(f"field_synthesis.{f}.{stat}"
           for f in ("synthesize", "spectrum_to_field", "field_to_spectrum", "synthesize_at_points")
           for stat in ("calls", "self_s"))
     + ("fft.ifftn.calls", "fft.fftn.calls", "fft.points", "fft.bytes_computed"),
     "op_s_p50; peak_rss_mb if transforms are batched", "time_sweep, all_densities", "radiation"),
    (tuple(f"densities.{f}.{stat}" for f in _DENSITY_FUNCTIONS for stat in ("calls", "self_s")),
     "op_s_p50", "all_densities", "time_sweep"),
    (tuple(f"observables.{f}.self_s" for f in
           ("expectations", "continuity_residual", "transport_speed", "localization_widths")),
     "op_s_p50", "observables_report only", ""),
    (("retarded_solver.retarded_potential.grid.calls", "retarded_solver.retarded_potential.grid.self_s",
      "retarded_solver.retarded_potential.points.calls", "retarded_solver.retarded_potential.points.self_s",
      "retarded_solver.pairs", "retarded_solver.pairs_per_s"),
     "op_s_p50, peak_rss_mb", "radiation", ""),
    (("retarded_solver.gauge_residual.self_s",), "op_s_p50", "radiation", ""),
    (("retarded_solver.gaussian_dipole_source.self_s",), "setup_s", "radiation", ""),
    (("runner.run_scenario.self_s", "runner.write_array.calls", "runner.write_array.self_s"),
     "op_s_p50", "all_densities", ""),
    (("diskio.atomic_write_bytes.self_s", "diskio.atomic_write_bytes.bytes"),
     "op_s_p50", "all_densities", ""),
    (("config.load_scenario.self_s",), "setup_s", "", ""),
    (("trace.overhead", "trace.errors"), "", "", ""),
    (("desk.fft.ifftn.cold_calls", "desk.fft.ifftn.warm_calls"), "", "", ""),
)

_SETUP_SPANS = ("config.load_scenario", "retarded_solver.gaussian_dipole_source")
_COUNTERS = ("fft.points", "fft.bytes_computed", "retarded_solver.pairs",
             "diskio.atomic_write_bytes.bytes")


def _unit_and_better(name: str) -> tuple[str, str]:
    if name == "retarded_solver.pairs_per_s":
        return "1/s", "higher"
    if name == "trace.overhead":
        return "ratio", "lower"
    if name.endswith(".bytes") or name == "fft.bytes_computed":
        return "B/op", "lower"
    if name.endswith(".self_s"):
        return ("s" if name.rsplit(".", 1)[0] in _SETUP_SPANS else "s/op"), "lower"
    if name.startswith(("desk.", "trace.")):
        return "count", "lower"
    return "count/op", "lower"


METRICS = tuple(name for names, *_ in LAYER_MAP for name in names)


def specs() -> list[dict]:
    """The ``per_layer`` entries of BENCHMARK.json."""
    out = []
    for name in METRICS:
        unit, better = _unit_and_better(name)
        out.append({"name": name, "unit": unit, "better": better})
    return out


def op_metrics(stats, counters, warm_ops) -> dict[str, float]:
    """Per-layer values from a tracer's per-op stats (see module docs)."""
    n = len(warm_ops)

    def warm_mean(table, key, index=None):
        total = 0
        for op in warm_ops:
            value = table[op].get(key)
            if value is not None:
                total += value if index is None else value[index]
        return total / n

    values = {}
    for name in METRICS:
        span, _, stat = name.rpartition(".")
        if name in _COUNTERS:
            values[name] = warm_mean(counters, name)
        elif span in _SETUP_SPANS:
            values[name] = stats["setup"][span][1] if span in stats["setup"] else 0.0
        elif stat in ("calls", "self_s"):
            values[name] = warm_mean(stats, span, 0 if stat == "calls" else 1)
    quadrature_s = sum(warm_mean(stats, f"retarded_solver.retarded_potential.{mode}", 2)
                       for mode in ("grid", "points"))
    pairs = values["retarded_solver.pairs"]
    values["retarded_solver.pairs_per_s"] = pairs / quadrature_s if quadrature_s else 0.0
    values["trace.errors"] = sum(entry[3] for per_op in stats.values() for entry in per_op.values())
    return values
