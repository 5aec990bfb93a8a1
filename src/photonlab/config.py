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
dotted ``section.field`` names; list values are comma separated.  :data:`KEYS`
is the list of keys: each key maps to the parser that reads its value and
checks its range and finiteness.  The two ``tolerances.`` keys override the
thresholds of the two checks a run makes.  Every error is located: an
unknown key, a bad value or a conflict between keys raises ``ValueError``
starting ``<file>:<line>: ``, at the line of the key that is wrong, and the
bounds :data:`MAX_TIME_STEPS` and :data:`MAX_GRID_POINTS` are checked
before anything is built or allocated.  So are the run's own preconditions:
a packet centre outside the grid coverage, and a wave-field density asked
of a packet with both helicities.

Units: internally everything is natural (hbar = c = 1, unit vacuum
permittivity).  Choosing ``units.system = si`` adds conversion factors to
exported summaries based on ``units.length_scale_m`` (metres per natural
length unit); array data stays in natural units either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .densities import DENSITY_KINDS, DENSITY_TABLE
from .mode_space import WaveVectorGrid

PACKET_KINDS = ("gaussian", "single_mode", "localized")
# Largest time.steps accepted: every time costs one full-grid synthesis
MAX_TIME_STEPS = 10_000
# Largest grid accepted (128^3): a cold run of all eight densities at two times
# peaks at 347 B per point (tracemalloc, 64^3 and 96^3), ~0.73 GB
MAX_GRID_POINTS = 128**3
UNIT_SYSTEMS = ("natural", "si")

# Thresholds of the acceptance registry; a scenario file may override the two
# that a run checks, number_norm and spot_check (see KEYS).
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

    def wave_vector_grid(self) -> WaveVectorGrid:
        if self.k_min is None:
            return WaveVectorGrid.centered(self.n_per_axis, self.delta_k)
        return WaveVectorGrid(self.n_per_axis, self.delta_k, self.k_min)


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


def _fail(source: str, lineno: int, message: str) -> None:
    raise ValueError(f"{source}:{lineno}: {message}")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip() != ""]


def _numbers(raw: str, count: int | None = None, integer: bool = False) -> tuple:
    """Finite numbers: any count, exactly one, or ``count`` of them (one broadcasts);
    with ``integer``, non-negative integers."""
    try:
        values = tuple(float(item) for item in _split_list(raw))
    except ValueError:
        raise ValueError(f"expected numbers, got '{raw}'") from None
    _check(all(map(math.isfinite, values)), f"expected finite numbers, got '{raw}'")
    if count == 1:
        _check(len(values) == 1, f"expected 1 value, got {len(values)}")
    elif count is not None:
        _check(len(values) in (1, count), f"expected 1 or {count} values, got {len(values)}")
        if len(values) == 1:
            values *= count
    if integer:
        _check(all(v == int(v) for v in values), f"expected integers, got '{raw}'")
        _check(min(values) >= 0, f"expected a non-negative integer, got '{raw}'")
        values = tuple(int(v) for v in values)
    return values


def _numeric(count: int = 1, integer: bool = False, positive: str = ""):
    """Parser of ``count`` numbers (a scalar if 1), all > 0 if ``positive`` names them."""
    def parse(raw: str):
        values = _numbers(raw, count, integer)
        _check(not positive or min(values) > 0, f"{positive} must be positive, got '{raw}'")
        return values if count > 1 else values[0]
    return parse


def _list(length_ok, message: str):
    """Parser of any number of numbers; ``message`` if their count fails ``length_ok``."""
    def parse(raw: str) -> tuple[float, ...]:
        values = _numbers(raw)
        _check(length_ok(len(values)), message)
        return values
    return parse


def _weights(raw: str) -> tuple[float, float]:
    weights = _list(lambda n: n == 2, "expected exactly 2 weights")(raw)
    _check(any(weights), "helicity_weights must not both vanish")
    return weights


def _bound(raw: str) -> float:
    value = _numbers(raw, 1)[0]
    _check(value >= 0, f"a tolerance must be non-negative, got '{raw}'")
    return value


def _choice(options, what: str):
    def parse(raw: str) -> str:
        _check(raw.lower() in options,
               f"unknown {what} '{raw}' (choose from {', '.join(options)})")
        return raw.lower()
    return parse


def _grid_shape(raw: str) -> tuple[int, int, int]:
    shape = _numeric(3, integer=True, positive="entries")(raw)
    _check(math.prod(shape) <= MAX_GRID_POINTS,
           f"at most {MAX_GRID_POINTS} grid points, got '{raw}'")
    return shape


def _steps(raw: str) -> int:
    steps = _numbers(raw, 1)[0]
    _check(steps >= 1 and steps == int(steps), "expected a positive integer")
    _check(steps <= MAX_TIME_STEPS, f"at most {MAX_TIME_STEPS} steps, got '{raw}'")
    return int(steps)


def _densities(raw: str) -> tuple[str, ...]:
    kinds = tuple(map(_choice(sorted(DENSITY_KINDS), "density"), _split_list(raw)))
    repeated = sorted({kind for kind in kinds if kinds.count(kind) > 1})
    _check(not repeated, f"each density at most once, got {', '.join(repeated)} again")
    return kinds


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _boolean(raw: str) -> bool:
    _check(raw.lower() in _BOOLEANS, f"expected a boolean, got '{raw}'")
    return _BOOLEANS[raw.lower()]


# Each key names a field of its section, except the range parts time.t0/t1/steps,
# which parse_scenario expands into TimeSection.t_list.
KEYS = {
    "grid.n_per_axis": _grid_shape,
    "grid.delta_k": _numeric(3, positive="entries"),
    "grid.k_min": lambda raw: None if raw.lower() == "auto" else _numbers(raw, 3),
    "packet.kind": _choice(PACKET_KINDS, "packet kind"),
    "packet.k0": _numeric(3),
    "packet.sigma": _numeric(positive="packet.sigma"),
    "packet.helicity_weights": _weights,
    "packet.index": _numeric(3, integer=True),
    "packet.x0": _numeric(3),
    "time.t_list": _list(bool, "at least one evaluation time is required"),
    "time.t0": _numeric(),
    "time.t1": _numeric(),
    "time.steps": _steps,
    "outputs.densities": _densities,
    "outputs.summary": _boolean,
    "units.system": _choice(UNIT_SYSTEMS, "unit system"),
    "units.length_scale_m": _numeric(positive="length scale"),
    "run.seed": _numeric(integer=True),
    "tolerances.number_norm": _bound,
    "tolerances.spot_check": _bound,
}
_SECTIONS = {"grid": GridSection, "packet": PacketSection, "time": TimeSection,
             "outputs": OutputSection, "units": UnitSection, "run": RunSection}


def parse_scenario(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse scenario text; every problem raises ``ValueError`` naming ``source:line``."""
    lines: dict[str, int] = {}
    sections: dict[str, dict] = {name: {} for name in (*_SECTIONS, "tolerances")}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(source, lineno, f"expected 'key = value', got '{line}'")
        key, _, raw = (part.strip() for part in line.partition("="))
        if not key or "." not in key:
            _fail(source, lineno, f"keys must look like 'section.field', got '{key}'")
        if key in lines:
            _fail(source, lineno, f"duplicate key '{key}' (first set on line {lines[key]})")
        lines[key] = lineno
        parse = KEYS.get(key)
        if parse is None:
            _fail(source, lineno, f"unknown key '{key}'")
        section, _, name = key.partition(".")
        try:
            sections[section][name] = parse(raw)
        except ValueError as exc:
            _fail(source, lineno, f"key '{key}': {exc}")

    time = sections["time"]
    if time.keys() & {"t0", "t1", "steps"}:
        first = min(ln for key, ln in lines.items() if key.startswith("time."))
        if "t_list" in time:
            _fail(source, first, "give either time.t_list or time.t0/t1/steps, not both")
        missing = {"t0", "t1", "steps"} - time.keys()
        if missing:
            _fail(source, first,
                  f"time range needs t0, t1 and steps (missing {', '.join(sorted(missing))})")
        t0, t1, steps = time.pop("t0"), time.pop("t1"), time.pop("steps")
        step = (t1 - t0) / steps
        time["t_list"] = tuple(t0 + step * i for i in range(steps + 1))

    cfg = ScenarioConfig(**{name: cls(**sections[name]) for name, cls in _SECTIONS.items()},
                         tolerances=sections["tolerances"])
    packet, shape = cfg.packet, cfg.grid.n_per_axis
    if packet.kind == "single_mode" and packet.index is None:
        _fail(source, lines["packet.kind"], "packet.kind = single_mode requires packet.index")
    if packet.index is not None and any(i >= n for i, n in zip(packet.index, shape)):
        _fail(source, lines["packet.index"],
              f"key 'packet.index': {packet.index} lies outside grid.n_per_axis = {shape}")
    kgrid = cfg.grid.wave_vector_grid()
    if packet.index is not None and kgrid.excludes(packet.index):
        _fail(source, lines["packet.index"],
              f"key 'packet.index': {packet.index} is the excluded zero mode (omega = 0)")
    if packet.kind == "gaussian" and not kgrid.coverage_contains(packet.k0):
        # a default k0 that the grid does not cover is reported at the first grid line
        at = lines.get("packet.k0") or min(
            ln for key, ln in lines.items() if key.startswith("grid."))
        _fail(source, at, f"key 'packet.k0': {packet.k0} lies outside the grid coverage")
    wave = [kind for kind in cfg.outputs.densities if DENSITY_TABLE[kind].pure_helicity]
    both = packet.kind == "localized" or (
        packet.kind != "single_mode" and 0 not in packet.helicity_weights)
    if wave and both:
        _fail(source, lines["outputs.densities"],
              f"key 'outputs.densities': {', '.join(wave)} (F and psi) need a pure helicity, "
              f"but this {packet.kind} packet has both")
    return cfg


def load_scenario(path: str) -> ScenarioConfig:
    """Read and parse a scenario file; bytes that are not UTF-8 fail at their line."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not UTF-8 text "
                         f"({exc.reason})") from exc
    return parse_scenario(text, source=path)
