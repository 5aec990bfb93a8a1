"""No reduction over a grid- or source-sized array goes through BLAS.

OpenBLAS splits a long dot product or matrix-vector product over its own
threads, so the last bits of such a sum follow the BLAS thread count.  This
scan of the package's source finds every call that reaches BLAS
(``np.linalg.norm`` without ``axis=``, ``np.vdot``, ``np.dot``,
``np.inner``, ``np.matmul``, ``np.tensordot``, ``np.vecdot``, a ``.dot``
method, the ``@`` operator and an ``einsum`` with ``optimize``) and fails
on any that the allow-list below does not name.  The subprocess test in
``tests/test_cli.py`` shows the same rule on the outputs, where the machine
has two CPUs.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import photonlab

BLAS_CALLS = {"np.vdot", "np.dot", "np.inner", "np.matmul", "np.tensordot", "np.vecdot",
              "np.linalg.multi_dot"}

# (module, function, construct) -> (occurrences, why BLAS threads cannot change the result)
ALLOWED = {
    ("retarded_solver", "retarded_potential.add_block", "np.matmul"): (
        2, "the quadrature's (points, rank) x (rank, 4) product sums over the rank only; "
           "BLAS partitions its output"),
    ("retarded_solver", "SourceCurrent.table", "@"): (
        1, "(n_times, rank) x (rank, cells) sums over the rank only; BLAS partitions its output"),
    ("mode_space", "localized_spectrum", "np.tensordot"): (
        1, "k . x0 sums three terms per mode; BLAS partitions its output"),
    ("registry", "check_current_integral", "np.linalg.norm"): (
        2, "norms of 3-vectors, which BLAS runs on one thread"),
    ("registry", "check_energy_momentum", "np.linalg.norm"): (
        2, "norms of 3-vectors, which BLAS runs on one thread"),
    ("observables", "transport_speed", "np.linalg.norm"): (
        1, "the norm of a 3-vector, which BLAS runs on one thread"),
}


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return "?"


class _Scan(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str, int]] = []

    def _add(self, construct, node):
        self.found.append((".".join(self.scope) or "<module>", construct, node.lineno))

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._add("@", node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self._add("@", node)
        self.generic_visit(node)

    def visit_Call(self, node):
        name = _dotted(node.func)
        keywords = {k.arg for k in node.keywords}
        if name in BLAS_CALLS:
            self._add(name, node)
        elif name == "np.linalg.norm" and "axis" not in keywords:
            self._add(name, node)
        elif name == "np.einsum" and "optimize" in keywords:
            self._add("np.einsum(optimize=...)", node)
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
            self._add(".dot", node)
        self.generic_visit(node)


def _blas_uses():
    uses = Counter()
    where = {}
    for path in sorted(Path(photonlab.__file__).parent.glob("*.py")):
        scan = _Scan()
        scan.visit(ast.parse(path.read_text(), filename=str(path)))
        for function, construct, line in scan.found:
            key = (path.stem, function, construct)
            uses[key] += 1
            where.setdefault(key, f"{path.name}:{line}")
    return uses, where


def test_no_blas_reduction_outside_the_allow_list():
    uses, where = _blas_uses()
    unlisted = {where[key]: key for key in uses if key not in ALLOWED}
    assert not unlisted, f"BLAS calls outside the allow-list: {unlisted}"
    counts = {key: uses[key] for key in ALLOWED}
    assert counts == {key: count for key, (count, _) in ALLOWED.items()}


def test_the_scan_sees_each_construct():
    source = (
        "def f(a, b):\n"
        "    a @ b\n"
        "    a @= b\n"
        "    np.linalg.norm(a)\n"
        "    np.linalg.norm(a, axis=-1)\n"
        "    np.vdot(a, b)\n"
        "    a.dot(b)\n"
        "    np.einsum('i,i->', a, b, optimize=True)\n"
        "    np.einsum('i,i->', a, b)\n"
    )
    scan = _Scan()
    scan.visit(ast.parse(source))
    assert [(function, construct) for function, construct, _ in scan.found] == [
        ("f", "@"), ("f", "@"), ("f", "np.linalg.norm"), ("f", "np.vdot"), ("f", ".dot"),
        ("f", "np.einsum(optimize=...)"),
    ]
