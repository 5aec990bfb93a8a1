"""Scenario configuration: a flat key-value text format with dotted keys.

A scenario file is line oriented::

    # comment
    grid.n_per_axis = 64
    grid.delta_k = 0.5
    packet.kind = gaussian
    packet.k0 = 0, 0, 10
    packet.sigma = 1.0
    time.t_list = 0.0, 0.5
    outputs.densities = number, energy
    run.seed = 7

Rules: one ``key = value`` pair per line; ``#`` starts a comment; keys are
dotted ``section.field`` names; list values are comma separated.  Parsing is
total — every problem raises ``ValueError`` with the file name, line number
and offending key — and unknown keys are rejected rather than ignored, so a
typo cannot silently fall back to a default.

A ``time.t0/t1/steps`` range may hold at most :data:`MAX_TIME_STEPS` steps;
the bound is checked before the list of times is built, so a huge step count
is a located diagnostic, not an exhausted memory.  ``run.seed`` must be a
non-negative integer (it seeds ``numpy.random.default_rng``).  A grid may
hold at most :data:`MAX_GRID_POINTS` points, checked at the
``grid.n_per_axis`` line before anything is allocated.

Units: internally everything is natural (hbar = c = 1, unit vacuum
permittivity).  Choosing ``units.system = si`` adds conversion factors to
exported summaries based on ``units.length_scale_m`` (metres per natural
length unit); array data stays in natural units either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .densities import DENSITY_KINDS

PACKET_KINDS = ("gaussian", "single_mode", "localized", "collinear")
# Largest time.steps accepted: every time costs one full-grid synthesis
MAX_TIME_STEPS = 10_000
# Largest grid accepted (128^3): at ~0.6 KB per point for all densities, ~1.3 GB
MAX_GRID_POINTS = 128**3
UNIT_SYSTEMS = ("natural", "si")

# Every tolerance a scenario may override, with its documented default.
DEFAULT_TOLERANCES: dict[str, float] = {
    "number_norm": 1e-8,
    "current_match": 1e-8,
    "energy_match": 1e-8,
    "momentum_match": 1e-8,
    "continuity": 1e-5,
    "helicity": 1e-6,
    "spin_match": 1e-6,
    "transport_speed": 1e-2,
    "translation": 1e-10,
    "omega_identity": 1e-10,
    "cancellation": 1e-12,
    "fock_identity": 1e-12,
    "spot_check": 1e-10,
    "coulomb": 1e-3,
    "gauge": 1e-2,
}


@dataclass(frozen=True)
class GridSection:
    n_per_axis: tuple[int, int, int] = (64, 64, 64)
    delta_k: tuple[float, float, float] = (0.5, 0.5, 0.5)
    k_min: tuple[float, float, float] | None = None  # None: centred about 0


@dataclass(frozen=True)
class PacketSection:
    kind: str = "gaussian"
    k0: tuple[float, float, float] = (0.0, 0.0, 10.0)
    sigma: float = 1.0
    helicity_weights: tuple[float, float] = (1.0, 0.0)
    index: tuple[int, int, int] | None = None  # single_mode only
    x0: tuple[float, float, float] = (0.0, 0.0, 0.0)  # localized only


@dataclass(frozen=True)
class TimeSection:
    t_list: tuple[float, ...] = (0.0,)


@dataclass(frozen=True)
class OutputSection:
    densities: tuple[str, ...] = ("number",)
    summary: bool = True


@dataclass(frozen=True)
class UnitSection:
    system: str = "natural"
    length_scale_m: float = 1.0


@dataclass(frozen=True)
class RunSection:
    seed: int = 7


@dataclass(frozen=True)
class ScenarioConfig:
    grid: GridSection = field(default_factory=GridSection)
    packet: PacketSection = field(default_factory=PacketSection)
    time: TimeSection = field(default_factory=TimeSection)
    outputs: OutputSection = field(default_factory=OutputSection)
    units: UnitSection = field(default_factory=UnitSection)
    run: RunSection = field(default_factory=RunSection)
    tolerances: dict[str, float] = field(default_factory=dict)

    def tolerance(self, name: str) -> float:
        if name not in DEFAULT_TOLERANCES:
            raise KeyError(f"unknown tolerance name: {name}")
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


class _ConfigError(ValueError):
    pass


def _fail(source: str, lineno: int, message: str) -> None:
    raise _ConfigError(f"{source}:{lineno}: {message}")


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip() != ""]


def _parse_floats(raw: str, count: int | None, source: str, lineno: int, key: str):
    items = _split_list(raw)
    try:
        values = tuple(float(item) for item in items)
    except ValueError:
        _fail(source, lineno, f"key '{key}': expected numbers, got '{raw.strip()}'")
    if not all(math.isfinite(value) for value in values):
        _fail(source, lineno, f"key '{key}': expected finite numbers, got '{raw.strip()}'")
    if count is not None and len(values) not in (1, count):
        _fail(source, lineno, f"key '{key}': expected 1 or {count} values, got {len(values)}")
    if count is not None and len(values) == 1:
        values = values * count
    return values


def _parse_ints(raw: str, count: int, source: str, lineno: int, key: str):
    values = _parse_floats(raw, count, source, lineno, key)
    out = []
    for value in values:
        if value != int(value):
            _fail(source, lineno, f"key '{key}': expected integers, got '{raw.strip()}'")
        out.append(int(value))
    return tuple(out)


def _parse_bool(raw: str, source: str, lineno: int, key: str) -> bool:
    token = raw.strip().lower()
    if token in ("true", "yes", "on", "1"):
        return True
    if token in ("false", "no", "off", "0"):
        return False
    _fail(source, lineno, f"key '{key}': expected a boolean, got '{raw.strip()}'")
    raise AssertionError  # unreachable


def parse_scenario(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse scenario text; raise ``ValueError`` with line diagnostics."""
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(source, lineno, f"expected 'key = value', got '{line}'")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not key or "." not in key:
            _fail(source, lineno, f"keys must look like 'section.field', got '{key}'")
        if key in values:
            _fail(source, lineno, f"duplicate key '{key}' (first set on line {values[key][0]})")
        values[key] = (lineno, raw_value)

    grid = GridSection()
    packet = PacketSection()
    time = TimeSection()
    outputs = OutputSection()
    units = UnitSection()
    run = RunSection()
    tolerances: dict[str, float] = {}

    t_parts: dict[str, float] = {}

    for key, (lineno, raw) in values.items():
        section, _, name = key.partition(".")
        if section == "grid":
            if name == "n_per_axis":
                n = _parse_ints(raw, 3, source, lineno, key)
                if min(n) > 0 and math.prod(n) > MAX_GRID_POINTS:
                    _fail(source, lineno,
                          f"key '{key}': at most {MAX_GRID_POINTS} grid points, got '{raw.strip()}'")
                grid = _replace(grid, n_per_axis=n)
            elif name == "delta_k":
                grid = _replace(grid, delta_k=_parse_floats(raw, 3, source, lineno, key))
            elif name == "k_min":
                if raw.strip().lower() == "auto":
                    grid = _replace(grid, k_min=None)
                else:
                    grid = _replace(grid, k_min=_parse_floats(raw, 3, source, lineno, key))
            else:
                _fail(source, lineno, f"unknown key '{key}'")
        elif section == "packet":
            if name == "kind":
                kind = raw.strip().lower()
                if kind not in PACKET_KINDS:
                    _fail(
                        source, lineno,
                        f"key '{key}': unknown packet kind '{raw.strip()}' "
                        f"(choose from {', '.join(PACKET_KINDS)})",
                    )
                packet = _replace(packet, kind=kind)
            elif name == "k0":
                packet = _replace(packet, k0=_parse_floats(raw, 3, source, lineno, key))
            elif name == "sigma":
                packet = _replace(packet, sigma=_parse_floats(raw, None, source, lineno, key)[0])
            elif name == "helicity_weights":
                weights = _parse_floats(raw, None, source, lineno, key)
                if len(weights) != 2:
                    _fail(source, lineno, f"key '{key}': expected exactly 2 weights")
                packet = _replace(packet, helicity_weights=weights)
            elif name == "index":
                packet = _replace(packet, index=_parse_ints(raw, 3, source, lineno, key))
            elif name == "x0":
                packet = _replace(packet, x0=_parse_floats(raw, 3, source, lineno, key))
            else:
                _fail(source, lineno, f"unknown key '{key}'")
        elif section == "time":
            if name == "t_list":
                time = _replace(time, t_list=_parse_floats(raw, None, source, lineno, key))
            elif name in ("t0", "t1", "steps"):
                t_parts[name] = _parse_floats(raw, None, source, lineno, key)[0]
            else:
                _fail(source, lineno, f"unknown key '{key}'")
        elif section == "outputs":
            if name == "densities":
                kinds = tuple(item.lower() for item in _split_list(raw))
                for kind in kinds:
                    if kind not in DENSITY_KINDS:
                        _fail(
                            source, lineno,
                            f"key '{key}': unknown density '{kind}' "
                            f"(choose from {', '.join(sorted(DENSITY_KINDS))})",
                        )
                outputs = _replace(outputs, densities=kinds)
            elif name == "summary":
                outputs = _replace(outputs, summary=_parse_bool(raw, source, lineno, key))
            else:
                _fail(source, lineno, f"unknown key '{key}'")
        elif section == "units":
            if name == "system":
                system = raw.strip().lower()
                if system not in UNIT_SYSTEMS:
                    _fail(source, lineno, f"key '{key}': unknown unit system '{raw.strip()}'")
                units = _replace(units, system=system)
            elif name == "length_scale_m":
                scale = _parse_floats(raw, None, source, lineno, key)[0]
                if scale <= 0:
                    _fail(source, lineno, f"key '{key}': length scale must be positive")
                units = _replace(units, length_scale_m=scale)
            else:
                _fail(source, lineno, f"unknown key '{key}'")
        elif section == "run":
            if name == "seed":
                seed = _parse_ints(raw, 1, source, lineno, key)[0]
                if seed < 0:
                    _fail(source, lineno,
                          f"key '{key}': expected a non-negative integer, got '{raw.strip()}'")
                run = _replace(run, seed=seed)
            else:
                _fail(source, lineno, f"unknown key '{key}'")
        elif section == "tolerances":
            if name not in DEFAULT_TOLERANCES:
                _fail(
                    source, lineno,
                    f"key '{key}': unknown tolerance '{name}' "
                    f"(choose from {', '.join(sorted(DEFAULT_TOLERANCES))})",
                )
            tolerances[name] = _parse_floats(raw, None, source, lineno, key)[0]
        else:
            _fail(source, lineno, f"unknown key '{key}'")

    if t_parts:
        if "t_list" in {k.partition(".")[2] for k in values if k.startswith("time.")}:
            lineno = min(ln for k, (ln, _) in values.items() if k.startswith("time."))
            _fail(source, lineno, "give either time.t_list or time.t0/t1/steps, not both")
        missing = {"t0", "t1", "steps"} - set(t_parts)
        if missing:
            lineno = min(ln for k, (ln, _) in values.items() if k.startswith("time."))
            _fail(source, lineno, f"time range needs t0, t1 and steps (missing {', '.join(sorted(missing))})")
        steps = int(t_parts["steps"])
        lineno, raw = values["time.steps"]
        if steps < 1 or t_parts["steps"] != steps:
            _fail(source, lineno, "key 'time.steps': expected a positive integer")
        if steps > MAX_TIME_STEPS:
            _fail(source, lineno, f"key 'time.steps': at most {MAX_TIME_STEPS} steps, got '{raw}'")
        t0, t1 = t_parts["t0"], t_parts["t1"]
        step = (t1 - t0) / steps
        time = TimeSection(tuple(t0 + step * i for i in range(steps + 1)))

    cfg = ScenarioConfig(grid, packet, time, outputs, units, run, tolerances)
    _validate(cfg, source)
    return cfg


def _replace(section, **changes):
    import dataclasses

    return dataclasses.replace(section, **changes)


def _validate(cfg: ScenarioConfig, source: str) -> None:
    if any(n < 1 for n in cfg.grid.n_per_axis):
        raise _ConfigError(f"{source}: grid.n_per_axis entries must be positive")
    if any(d <= 0 for d in cfg.grid.delta_k):
        raise _ConfigError(f"{source}: grid.delta_k entries must be positive")
    if cfg.packet.kind == "single_mode" and cfg.packet.index is None:
        raise _ConfigError(f"{source}: packet.kind = single_mode requires packet.index")
    if cfg.packet.kind in ("gaussian", "collinear") and cfg.packet.sigma <= 0:
        raise _ConfigError(f"{source}: packet.sigma must be positive")
    if cfg.packet.kind == "collinear" and cfg.grid.n_per_axis[:2] != (1, 1):
        raise _ConfigError(
            f"{source}: packet.kind = collinear requires grid.n_per_axis = 1,1,N"
        )
    if not cfg.time.t_list:
        raise _ConfigError(f"{source}: at least one evaluation time is required")


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read(), source=path)
