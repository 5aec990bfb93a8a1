"""Scenario file parsing: total success or a located diagnostic."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from photonlab.config import (
    DEFAULT_TOLERANCES,
    KEYS,
    MAX_GRID_POINTS,
    ScenarioConfig,
    load_scenario,
    parse_scenario,
)

GOOD = """\
# demo scenario
grid.n_per_axis = 32
grid.delta_k = 0.75
packet.kind = gaussian
packet.k0 = 0, 0, 10
packet.sigma = 1.0
packet.helicity_weights = 1, 0
time.t_list = 0.0, 0.5
outputs.densities = number, energy
run.seed = 11
tolerances.number_norm = 1e-9
"""


def test_valid_scenario_parses_totally():
    cfg = parse_scenario(GOOD, "demo.cfg")
    assert cfg.grid.n_per_axis == (32, 32, 32)  # scalars broadcast to triples
    assert cfg.grid.delta_k == (0.75, 0.75, 0.75)
    assert cfg.grid.k_min is None
    assert cfg.packet.kind == "gaussian"
    assert cfg.packet.k0 == (0.0, 0.0, 10.0)
    assert cfg.time.t_list == (0.0, 0.5)
    assert cfg.outputs.densities == ("number", "energy")
    assert cfg.run.seed == 11


def test_defaults_apply_when_unset():
    cfg = parse_scenario("packet.sigma = 2.0\n", "d.cfg")
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.grid.n_per_axis == (64, 64, 64)
    assert cfg.units.system == "natural"
    assert cfg.outputs.summary is True


def test_tolerance_overrides_and_defaults():
    cfg = parse_scenario(GOOD, "demo.cfg")
    assert cfg.tolerance("number_norm") == 1e-9
    assert cfg.tolerance("continuity") == DEFAULT_TOLERANCES["continuity"]


def test_time_range_expansion():
    cfg = parse_scenario("time.t0 = 0\ntime.t1 = 1\ntime.steps = 4\n", "r.cfg")
    assert cfg.time.t_list == (0.0, 0.25, 0.5, 0.75, 1.0)


DIAGNOSTICS = [
        ("grid.n_per_axis = 32\npacket.sigma_x = 1.0\n", "bad.cfg:2: unknown key 'packet.sigma_x'"),
        ("mystery.flag = 1\n", "bad.cfg:1: unknown key 'mystery.flag'"),
        ("grid.n_per_axis = 32\ngrid.n_per_axis = 64\n", "duplicate key 'grid.n_per_axis'"),
        ("packet.sigma = frogs\n", "bad.cfg:1: key 'packet.sigma': expected numbers"),
        ("grid.n_per_axis = 1.5\n", "expected integers"),
        ("packet.k0 = 1, 2\n", "expected 1 or 3 values"),
        ("packet.helicity_weights = 1, 0, 0\n", "expected exactly 2 weights"),
        ("packet.kind = banana\n", "unknown packet kind 'banana'"),
        ("outputs.densities = number, banana\n", "unknown density 'banana'"),
        ("outputs.densities = number, number, energy\n",
         "bad.cfg:1: key 'outputs.densities': each density at most once, got number again"),
        ("outputs.summary = maybe\n", "expected a boolean"),
        ("units.system = imperial\n", "unknown unit system 'imperial'"),
        ("units.length_scale_m = -2\n", "length scale must be positive"),
        ("run.guard_fraction = 0.7\n", "bad.cfg:1: unknown key 'run.guard_fraction'"),
        ("packet.sigma = nan\n", "bad.cfg:1: key 'packet.sigma': expected finite numbers"),
        ("time.t_list = 0, inf\n", "bad.cfg:1: key 'time.t_list': expected finite numbers"),
        ("grid.n_per_axis = inf\n", "bad.cfg:1: key 'grid.n_per_axis': expected finite numbers"),
        ("grid.n_per_axis = nan\n", "bad.cfg:1: key 'grid.n_per_axis': expected finite numbers"),
        ("run.seed = 1e400\n", "bad.cfg:1: key 'run.seed': expected finite numbers"),
        ("tolerances.magic = 1e-3\n", "bad.cfg:1: unknown key 'tolerances.magic'"),
        ("just some words\n", "expected 'key = value'"),
        ("toplevel = 3\n", "keys must look like 'section.field'"),
        ("time.t0 = 0\ntime.t1 = 1\n", "time range needs t0, t1 and steps (missing steps)"),
        ("time.t0 = 0\ntime.t1 = 1\ntime.steps = 4\ntime.t_list = 0\n", "not both"),
        ("time.t0 = 0\ntime.t1 = 1\ntime.steps = 0\n", "positive integer"),
        ("time.t0 = 0\ntime.t1 = 1\ntime.steps = 1e300\n",
         "bad.cfg:3: key 'time.steps': at most 10000 steps"),
        ("run.seed = -1\n", "bad.cfg:1: key 'run.seed': expected a non-negative integer"),
        ("packet.kind = single_mode\n", "requires packet.index"),
        ("packet.sigma = -1\n", "packet.sigma must be positive"),
        ("packet.kind = collinear\n",
         "bad.cfg:1: key 'packet.kind': unknown packet kind 'collinear'"),
        ("time.t_list =\n", "at least one evaluation time is required"),
        ("grid.n_per_axis = 0\n", "bad.cfg:1: key 'grid.n_per_axis': entries must be positive"),
        ("grid.delta_k = -1\n", "bad.cfg:1: key 'grid.delta_k': entries must be positive"),
        ("packet.sigma = -1\n", "bad.cfg:1: key 'packet.sigma': packet.sigma must be positive"),
        ("packet.kind = single_mode\npacket.index = 99,0,0\n",
         "bad.cfg:2: key 'packet.index': (99, 0, 0) lies outside grid.n_per_axis"),
        ("packet.kind = single_mode\npacket.index = -1,0,0\n",
         "bad.cfg:2: key 'packet.index': expected a non-negative integer"),
        ("time.t_list =\n", "bad.cfg:1: key 'time.t_list': at least one evaluation time"),
        ("grid.n_per_axis = 8\npacket.kind = single_mode\npacket.index = 0, 8, 0\n",
         "bad.cfg:3: key 'packet.index': (0, 8, 0) lies outside grid.n_per_axis = (8, 8, 8)"),
        ("packet.kind = localized\npacket.sigma = 0\n", "bad.cfg:2: key 'packet.sigma'"),
        ("packet.sigma =\n", "bad.cfg:1: key 'packet.sigma': expected 1 value, got 0"),
        ("time.t0 = 0, 1\ntime.t1 = 2\ntime.steps = 2\n",
         "bad.cfg:1: key 'time.t0': expected 1 value, got 2"),
        ("grid.n_per_axis = 8\npacket.kind = single_mode\npacket.index = 4, 4, 4\n",
         "bad.cfg:3: key 'packet.index': (4, 4, 4) is the excluded zero mode"),
        ("grid.n_per_axis = 8\ngrid.delta_k = 0.5\ngrid.k_min = -1, -0.5, 0\n"
         "packet.kind = single_mode\npacket.index = 2, 1, 0\n",
         "bad.cfg:5: key 'packet.index': (2, 1, 0) is the excluded zero mode"),
        ("tolerances.continuity = 1e-30\n", "bad.cfg:1: unknown key 'tolerances.continuity'"),
        ("tolerances.spot_check = 1e-9\ntolerances.gauge = -5\n",
         "bad.cfg:2: unknown key 'tolerances.gauge'"),
        ("grid.n_per_axis = 16\ngrid.delta_k = 0.5\npacket.k0 = 0, 0, 10\n",
         "bad.cfg:3: key 'packet.k0': (0.0, 0.0, 10.0) lies outside the grid coverage"),
        ("run.seed = 1\ngrid.n_per_axis = 16\n",
         "bad.cfg:2: key 'packet.k0': (0.0, 0.0, 10.0) lies outside the grid coverage"),
        ("grid.n_per_axis = 1, 1, 256\ngrid.delta_k = 1, 1, 0.05\npacket.kind = gaussian\n",
         "bad.cfg:1: key 'packet.k0': (0.0, 0.0, 10.0) lies outside the grid coverage"),
        ("packet.kind = localized\noutputs.densities = number, bb_energy\n",
         "bad.cfg:2: key 'outputs.densities': bb_energy (F and psi) need a pure helicity, "
         "but this localized packet has both"),
        ("outputs.densities = lp_number\npacket.helicity_weights = 0.6, 0.8\n",
         "bad.cfg:1: key 'outputs.densities': lp_number (F and psi) need a pure helicity, "
         "but this gaussian packet has both"),
        ("packet.helicity_weights = 0, 0\n",
         "bad.cfg:1: key 'packet.helicity_weights': helicity_weights must not both vanish"),
        ("tolerances.spot_check = 0\ntolerances.number_norm = -1\n",
         "bad.cfg:2: key 'tolerances.number_norm': a tolerance must be non-negative, got '-1'"),
]


@pytest.mark.parametrize("text, fragment", DIAGNOSTICS)
def test_diagnostics_name_key_and_line(text, fragment):
    with pytest.raises(ValueError) as excinfo:
        parse_scenario(text, "bad.cfg")
    assert fragment in str(excinfo.value)


def test_every_diagnostic_starts_with_file_and_line():
    for text, _ in DIAGNOSTICS:
        with pytest.raises(ValueError) as excinfo:
            parse_scenario(text, "bad.cfg")
        assert re.match(r"bad\.cfg:\d+: ", str(excinfo.value)), text


PARSES = [
    # pure helicity, every density (the all_densities benchmark's kind of packet)
    "grid.n_per_axis = 32\ngrid.delta_k = 0.75\npacket.k0 = 8, 0, 4\n"
    "packet.helicity_weights = 0, 1\noutputs.densities = number, current, energy, "
    "momentum, four_momentum, angular_momentum, bb_energy, lp_number\n",
    # a single mode takes the larger weight's helicity only
    "grid.n_per_axis = 8\npacket.kind = single_mode\npacket.index = 4, 4, 5\n"
    "packet.helicity_weights = 0.6, 0.8\noutputs.densities = bb_energy\n",
    # k0 on the edge of the coverage, half a cell beyond the last mode
    "grid.n_per_axis = 16\npacket.k0 = 0, 0, 3.75\n",
    "tolerances.number_norm = 1e-9\ntolerances.spot_check = 0\n",
    # a zero bound can be met by an exact result; only a negative one never can
    "tolerances.number_norm = 0\ntolerances.spot_check = 1e-12\n",
]


@pytest.mark.parametrize("text", PARSES)
def test_edge_configs_parse(text):
    parse_scenario(text, "ok.cfg")


def test_single_mode_index_on_the_last_grid_plane_parses():
    text = "grid.n_per_axis = 8\npacket.kind = single_mode\npacket.index = 7, 0, 7\n"
    cfg = parse_scenario(text, "edge.cfg")
    assert cfg.packet.index == (7, 0, 7)


def test_readme_configuration_table_lists_the_parser_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration format", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    expanded = []
    for key in rows:
        expanded += ["time.t0", "time.t1", "time.steps"] if key == "time.t0/t1/steps" else [key]
    assert expanded == list(KEYS)


def test_grid_point_bound_is_checked_at_its_line():
    side = round(MAX_GRID_POINTS ** (1 / 3))
    assert side**3 == MAX_GRID_POINTS
    assert parse_scenario(f"grid.n_per_axis = {side}\n", "ok.cfg").grid.n_per_axis == (side,) * 3
    for n in ("1024", f"{side}, {side}, {side + 1}"):
        with pytest.raises(ValueError) as excinfo:
            parse_scenario(f"run.seed = 1\ngrid.n_per_axis = {n}\n", "big.cfg")
        assert str(excinfo.value) == (
            f"big.cfg:2: key 'grid.n_per_axis': at most {MAX_GRID_POINTS} grid points, got '{n}'"
        )


def test_shipped_configs_load():
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        load_scenario(str(path))


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_scenario("\n# note\n\nrun.seed = 5\n   # indented note\n", "c.cfg")
    assert cfg.run.seed == 5


def test_gaussian_packet_with_line_grid():
    text = (
        "grid.n_per_axis = 1, 1, 256\ngrid.delta_k = 1, 1, 0.05\n"
        "packet.kind = gaussian\npacket.k0 = 0, 0, 5\npacket.sigma = 0.7\n"
    )
    cfg = parse_scenario(text, "line.cfg")
    assert cfg.grid.n_per_axis == (1, 1, 256)
    assert cfg.packet.kind == "gaussian"


def test_load_scenario_reads_files(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(GOOD)
    cfg = load_scenario(str(path))
    assert cfg.run.seed == 11
    with pytest.raises(ValueError, match=rf"{path.name}:2: unknown key"):
        path.write_text("# c\npacket.wibble = 1\n")
        load_scenario(str(path))
    with pytest.raises(OSError):
        load_scenario(str(tmp_path / "missing.cfg"))
