"""Module boundaries: the registry stands apart from the run pipeline, the
quadrature and the slab layer stand apart from the FFT engine, and the
benchmark finds every name it binds."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import photonlab
from photonlab import field_synthesis, registry, retarded_solver, runner, slabs

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


def test_registry_imports_nothing_from_runner():
    named = _imported(registry)
    assert {"densities", "config"} <= named  # the scan sees the package's relative imports
    assert not [name for name in named if name.split(".")[-1] == "runner"]


def test_the_quadrature_names_nothing_of_the_fft_engine():
    """retarded_solver takes its grid from mode_space and its threads from slabs."""
    named = _imported(retarded_solver)
    for node in ast.walk(_tree(retarded_solver)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert {"mode_space", "slabs", "SpatialGrid", "_in_slabs"} <= named
    assert not [name for name in named if "field_synthesis" in name]


def test_the_slab_layer_imports_no_package_module():
    relative = [node.module for node in ast.walk(_tree(slabs))
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    named = _imported(slabs)
    assert {"os", "numpy", "concurrent.futures"} <= named
    assert relative == [] and not [name for name in named if name.startswith("photonlab")]


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
