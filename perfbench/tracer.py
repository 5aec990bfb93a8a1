"""Layer spans taken from outside the package.

A :class:`Tracer` wraps each traced function once and installs the wrapper
at every place the function object is bound: the defining module's
attribute, every ``from ... import`` copy in other ``photonlab`` modules
(for example ``runner.synthesize`` or ``field_synthesis.build_basis``), and
values of module-level dicts such as ``runner._DENSITY_BUILDERS``.
``scipy.fft.fftn``/``ifftn`` are wrapped the same way to count transforms.
Nothing inside ``photonlab`` is edited; :meth:`Tracer.uninstall` restores
every binding.

Spans stay in memory with their parent span and the op they belong to.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict

from photonlab.field_synthesis import SpatialGrid


def _fft_work(args, kwargs, result):
    x = args[0]
    return {"fft.points": x.size, "fft.bytes_computed": x.nbytes + result.nbytes}


def _quadrature_pairs(args, kwargs, result):
    src = args[0]
    cells = src.n_per_axis[0] * src.n_per_axis[1] * src.n_per_axis[2]
    points = result.phi_over_c[0].size
    return {"retarded_solver.pairs": points * cells * len(result.times)}


def _written_bytes(args, kwargs, result):
    return {"diskio.atomic_write_bytes.bytes": len(args[1])}


def _quadrature_mode(args, kwargs):
    target = args[1] if len(args) > 1 else kwargs["eval_points"]
    return "grid" if isinstance(target, SpatialGrid) else "points"


# (module, function, extra work counted per call, span-name suffix chooser)
TARGETS = (
    ("photonlab.config", "load_scenario", None, None),
    ("photonlab.mode_space", "build_basis", None, None),
    ("photonlab.field_synthesis", "synthesize", None, None),
    ("photonlab.field_synthesis", "spectrum_to_field", None, None),
    ("photonlab.field_synthesis", "field_to_spectrum", None, None),
    ("photonlab.field_synthesis", "synthesize_at_points", None, None),
    *(
        ("photonlab.densities", name, None, None)
        for name in (
            "number_density", "photon_current", "energy_density", "momentum_density",
            "four_momentum_density", "angular_momentum_density", "helicity_density",
            "photon_wave_fields", "apply_frequency_operator", "bb_energy_density",
            "lp_number_density",
        )
    ),
    ("photonlab.observables", "expectations", None, None),
    ("photonlab.observables", "continuity_residual", None, None),
    ("photonlab.observables", "transport_speed", None, None),
    ("photonlab.observables", "localization_widths", None, None),
    ("photonlab.retarded_solver", "retarded_potential", _quadrature_pairs, _quadrature_mode),
    ("photonlab.retarded_solver", "gauge_residual", None, None),
    ("photonlab.retarded_solver", "gaussian_dipole_source", None, None),
    ("photonlab.runner", "run_scenario", None, None),
    ("photonlab.runner", "write_array", None, None),
    ("photonlab.diskio", "atomic_write_bytes", _written_bytes, None),
    ("scipy.fft", "fftn", _fft_work, None),
    ("scipy.fft", "ifftn", _fft_work, None),
)


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


class Tracer:
    """Record spans and work counters for the traced functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = "setup"
        # op -> span name -> [calls, self_s, total_s, errors]
        self.stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0]))
        # op -> counter name -> summed work
        self.counters = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        import photonlab.runner  # noqa: F401  (loads every traced module)
        import scipy.fft

        wrappers = {}
        for module, function, work, mode in TARGETS:
            original = getattr(sys.modules[module], function)
            wrappers[id(original)] = self._wrap(span_name(module, function), original, work, mode)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "photonlab" or name.startswith("photonlab.")]
        for module in modules + [scipy.fft]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((vars(module), attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._restore.append((value, key, item))
                            value[key] = wrappers[id(item)]
        return self

    def uninstall(self) -> None:
        for container, key, original in reversed(self._restore):
            container[key] = original
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, work, mode):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{mode(args, kwargs)}" if mode else name
            frame = [next(tracer._ids), 0.0]  # [span id, time in child spans]
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append(frame)
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._record(frame, parent, label, start, end, error)
            if work is not None:
                counts = tracer.counters[tracer.op]
                for key, value in work(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def _record(self, frame, parent, name, start, end, error):
        duration = end - start
        self_s = duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        entry = self.stats[self.op][name]
        entry[0] += 1
        entry[1] += self_s
        entry[2] += duration
        entry[3] += int(error)
        self.spans.append({
            "id": frame[0], "parent": parent, "op": self.op, "name": name,
            "start": start, "end": end, "self_s": self_s, "error": error,
        })

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(sorted(self.spans, key=lambda span: span["id"]), handle)
