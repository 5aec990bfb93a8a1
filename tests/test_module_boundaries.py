"""Module boundaries: the registry stands apart from the run pipeline, and the
benchmark's tracer finds every function it binds."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import photonlab
from photonlab import registry, runner

ROOT = Path(__file__).resolve().parents[1]


def test_registry_imports_nothing_from_runner():
    named = set()
    for node in ast.walk(ast.parse(Path(registry.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            named.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name for alias in node.names)
    assert {"densities", "config"} <= named  # the scan sees the package's relative imports
    assert not [name for name in named if name.split(".")[-1] == "runner"]


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
