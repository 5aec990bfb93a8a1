"""Module boundaries: the registry stands apart from the run pipeline, the
quadrature, the oracle and the slab layer stand apart from the FFT engine,
which alone imports the FFT and applies the spectral multipliers, and the
benchmark finds every name it binds."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import photonlab
import pytest
from photonlab import (densities, field_synthesis, observables, oracle, registry,
                       retarded_solver, runner, slabs)

ROOT = Path(__file__).resolve().parents[1]


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def _imported(module):
    """Every module and name that ``module`` imports, relative imports included."""
    named = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            named.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name for alias in node.names)
    return named


def _named(module):
    """Every import, variable, attribute and argument name in ``module``."""
    named = _imported(module)
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.arg):
            named.add(node.arg)
    return named


def test_registry_imports_nothing_from_runner():
    named = _imported(registry)
    assert {"densities", "config"} <= named  # the scan sees the package's relative imports
    assert not [name for name in named if name.split(".")[-1] == "runner"]


def test_the_quadrature_names_nothing_of_the_fft_engine():
    """retarded_solver takes its grid from mode_space and its threads from slabs."""
    named = _named(retarded_solver)
    assert {"mode_space", "slabs", "SpatialGrid", "_in_slabs"} <= named
    assert not [name for name in named if "field_synthesis" in name]


def test_the_slab_layer_imports_no_package_module():
    relative = [node.module for node in ast.walk(_tree(slabs))
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    named = _imported(slabs)
    assert {"os", "numpy", "concurrent.futures"} <= named
    assert relative == [] and not [name for name in named if name.startswith("photonlab")]


def test_the_oracle_names_nothing_of_the_engine():
    """The direct-quadrature oracle imports only the basis and the slab layer, reads
    no attribute, method or constructor of the spectral engine (its table of
    distinct frequencies included) and calls no FFT, in any of its functions."""
    engine = {"field_synthesis", "SpectralEngine", "spectral_engine", "_sfft", "fftn", "ifftn"}
    spectral = next(node for node in ast.walk(_tree(field_synthesis))
                    if isinstance(node, ast.ClassDef) and node.name == "SpectralEngine")
    engine.update(item.name for item in spectral.body if isinstance(item, ast.FunctionDef))
    engine.update(item.attr for item in ast.walk(spectral) if isinstance(item, ast.Attribute)
                  and isinstance(item.value, ast.Name) and item.value.id == "self")
    assert {"_levels", "_level_index", "time_phase", "phase_k", "mode_factor", "kgrid"} <= engine
    relative = {node.module for node in ast.walk(_tree(oracle))
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert relative == {"mode_space", "slabs"}
    assert not [name for name in _imported(oracle) if name.startswith("scipy")]
    named = _named(oracle)
    assert {"omega", "build_basis", "einsum", "grid"} <= named  # the scan sees the oracle's names
    assert not named & engine, named & engine


# The engine's transforms, its kept amplitude and time phase, the per-mode
# wavevectors and phases, and the component-major layout helpers.
K_SPACE = {"to_field", "to_spectrum", "spectrum_to_field", "field_to_spectrum", "amplitude",
           "a_coeffs", "time_phase", "k_vectors", "phase_k", "phase_x", "leading", "trailing",
           "vector_array", "_multiply"}


@pytest.mark.parametrize("module", [densities, observables], ids=lambda m: m.__name__)
def test_densities_and_observables_name_nothing_of_k_space(module):
    """Every spectral multiplier of A+ is applied in field_synthesis: the
    densities and observables work in real space on a snapshot's fields."""
    named = _named(module)
    assert {"field_synthesis", "sgrid"} <= named  # the scan sees the module's names
    assert not named & K_SPACE, named & K_SPACE


def test_only_the_engine_imports_the_fft():
    """field_synthesis is the one package module that imports any scipy name, in
    any of its functions, and all it imports is ``scipy.fft`` (as ``import
    scipy.fft``, ``from scipy import fft`` or ``from scipy.fft import``)."""
    imported = {}
    for path in Path(photonlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imported.setdefault(path.stem, set()).update(
                name for name in names if name.split(".")[0] == "scipy")
    importers = {stem: names for stem, names in imported.items() if names}
    assert list(importers) == ["field_synthesis"], importers
    assert all(name.split(".")[:2] == ["scipy", "fft"] for name in importers["field_synthesis"])


def test_the_benchmark_reads_the_fft_thread_count_from_field_synthesis():
    """perfbench/worker.py reads the count through getattr with a fallback to
    "unknown"; a renamed binding would blank ``photonlab_fft_workers`` silently."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    read = [node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
            and getattr(node.args[0], "id", None) == "field_synthesis"]
    assert read == ["_workers"]
    assert field_synthesis._workers is slabs._workers


def test_runner_holds_no_registry_name_but_the_result_types():
    own = {name for name, value in vars(registry).items()
           if getattr(value, "__module__", None) == registry.__name__}
    assert {"self_test", "check_transport", "desk_packet"} <= own
    assert own & set(vars(runner)) == {"CheckResult", "Metric"}


BINDINGS = """\
import sys
import photonlab.runner
loaded = dict(sys.modules)
sys.path.insert(0, sys.argv[1])
from tracer import TARGETS
print(len(TARGETS), [(module, name) for module, name, *_ in TARGETS
                     if not callable(getattr(loaded.get(module), name, None))])
"""


def test_every_traced_function_resolves_after_importing_runner():
    """perfbench's tracer imports ``photonlab.runner`` and then binds each of its
    TARGETS by module and name; a fresh interpreter shows that all resolve."""
    src = str(Path(photonlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", BINDINGS, str(ROOT / "perfbench")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    count, missing = done.stdout.split(" ", 1)
    assert int(count) > 20 and missing.strip() == "[]", done.stdout
