"""The mutation table: every fault a registry check claims to see, applied.

Each entry copies the package under ``tmp_path``, replaces the text ``old``
of one file (it must occur there exactly once, so a moved line fails the
entry by name instead of mutating nothing) by ``new``, and runs the check
``check`` of :mod:`photonlab.registry` on the copy in a fresh interpreter;
its metric ``metric`` must then fail.  The same check run on an unmutated
copy passes every metric, so a failure is the fault's and not the
harness's.  The package itself has no hook for any of this.

``localization`` has no entry: its box spreads snap to lattice distances
and read about 1e-15 whatever the fault (README, "Install and test").

The selected entries run together, on at most ``os.cpu_count()`` workers,
each with ``PHOTONLAB_THREADS=1``.  Entries of one edit (and the unmutated
entries) share one copy and one interpreter, which runs their checks one
after the other.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import photonlab
import pytest

PACKAGE = Path(photonlab.__file__).resolve().parent

# (id, file, old, new, check, metric)
MUTATIONS = (
    ("sigma-flipped", "densities.py", "SIGMA = -1\n", "SIGMA = 1\n",
     "negative-density", "min_err"),
    ("sigma-flipped", "densities.py", "SIGMA = -1\n", "SIGMA = 1\n",
     "number-norm", "norm_drift"),
    ("sigma-flipped", "densities.py", "SIGMA = -1\n", "SIGMA = 1\n",
     "energy-momentum", "momentum_rel_err"),
    ("a-f-unconjugated", "densities.py", "np.conj(f.A_plus), g.E_plus", "f.A_plus, g.E_plus",
     "number-norm", "offdiag_err"),
    ("mode-factor-one-over-omega", "field_synthesis.py", "1.0 / np.sqrt(safe)", "1.0 / safe",
     "negative-density", "min_err"),
    ("orbital-sign-flipped", "densities.py", "r[b] * p[..., c] - r[c] * p[..., b]",
     "r[c] * p[..., b] - r[b] * p[..., c]", "angular-momentum", "jz_err"),
    ("spin-dropped", "densities.py", "+ spin_angular_momentum_density(f).data", "+ 0.0",
     "angular-momentum", "jz_err"),
    ("origin-ignored", "densities.py", "f.sgrid.axes[a] - float(origin[a])",
     "f.sgrid.axes[a] - 0.0", "angular-momentum", "origin_err"),
    ("fraction-zeroed", "retarded_solver.py", "frac = np.subtract(offset, index, out=offset)",
     "frac = np.zeros_like(offset)", "retarded-solver", "refinement_gain"),
    ("second-weight-one-minus-fraction", "retarded_solver.py",
     "np.multiply(kernel, frac, out=weights[:, 1])",
     "np.multiply(kernel, 1.0 - frac, out=weights[:, 1])", "retarded-solver", "gauge_residual"),
)

CHECKS = sorted({entry[4] for entry in MUTATIONS})

RUN = """\
import json, sys
import photonlab
from photonlab import registry
assert photonlab.__file__.startswith(sys.argv[1]), photonlab.__file__
checks = dict(registry.ACCEPTANCE_CHECKS)
print(json.dumps({check: {metric.label: [metric.ok, metric.value] for metric in checks[check]()}
                  for check in sys.argv[2:]}))
"""


def _run(root: Path, mutation, checks) -> dict:
    """{check: {label: [ok, value]}} of ``checks`` on a copy of the package under
    ``root``, with ``mutation`` (file, old, new) applied, or none."""
    shutil.copytree(PACKAGE, root / "photonlab", ignore=shutil.ignore_patterns("__pycache__"))
    if mutation is not None:
        name, old, new = mutation
        path = root / "photonlab" / name
        text = path.read_text()
        assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times in {path.name}"
        path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(root), PHOTONLAB_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUN, str(root), *checks], cwd=root, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _edit_and_check(params):
    """(edit id, or None for the unmutated copy, and check) of one test's parameters."""
    if "entry" in params:
        return params["entry"][0], params["entry"][4]
    return None, params["check"]


@pytest.fixture(scope="module")
def outcomes(request, tmp_path_factory):
    """One future per edit (None for none) that the selected tests of this module
    use, each running the checks those tests name."""
    edits = {}
    for entry in MUTATIONS:
        assert edits.setdefault(entry[0], entry[1:4]) == entry[1:4], f"{entry[0]} names two edits"
    checks = {}
    for item in request.session.items:
        if item.module is request.module and hasattr(item, "callspec"):
            name, check = _edit_and_check(item.callspec.params)
            checks.setdefault(name, set()).add(check)
    # the edits with the most checks to run go first
    order = sorted(checks, key=lambda name: (-len(checks[name]), str(name)))
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        yield {name: pool.submit(_run, tmp_path_factory.mktemp("mutant"), edits.get(name),
                                 sorted(checks[name])) for name in order}


@pytest.mark.parametrize("entry", MUTATIONS, ids=lambda entry: f"{entry[0]}:{entry[4]}")
def test_the_check_sees_the_mutation(entry, outcomes):
    name, _, _, _, check, metric = entry
    ok, value = outcomes[name].result()[check][metric]
    assert not ok, f"{check}:{metric} = {value!r} passes under {name}"


@pytest.mark.parametrize("check", CHECKS)
def test_the_unmutated_check_passes(check, outcomes):
    metrics = outcomes[None].result()[check]
    assert metrics and all(ok for ok, _ in metrics.values()), metrics
