"""Static checks on the package source, with the standard library only."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "okacert"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    src = "import os\nimport sys\nfrom a import b, c as d\nprint(sys, d)\n"
    assert unused_imports(src) == ["b (line 3)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_functions(sources: dict) -> list:
    """``_``-prefixed (non-dunder) functions and methods that no module of
    ``sources`` (name -> text) names, as a variable or an attribute."""
    defined, used = {}, set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{fn} ({where})" for fn, where in defined.items() if fn not in used)


def test_unreferenced_private_function_detector():
    srcs = {"a.py": "def _dead():\n    pass\n\ndef _used():\n    pass\n\n"
                    "class K:\n    def _gone(self):\n        pass\n\n"
                    "    def __init__(self):\n        self._kept()\n\n"
                    "    def _kept(self):\n        pass\n",
            "b.py": "from a import _used\n_used()\n"}
    assert unreferenced_private_functions(srcs) == ["_dead (a.py:1)", "_gone (a.py:8)"]


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def unread_module_constants(sources: dict) -> list:
    """Module-level UPPER_CASE names (a leading ``_`` allowed) bound by an
    assignment that no module of ``sources`` (name -> text) reads, as a
    variable or an attribute."""
    defined, read = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and t.id.lstrip("_").isupper():
                    defined.setdefault(t.id, f"{name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{c} ({where})" for c, where in defined.items() if c not in read)


def test_unread_module_constant_detector():
    srcs = {"a.py": "SEED = 1\n_CAP: int = 2\nKEPT = 3\nlower = 4\nSHARED = 5\n"
                    "def f():\n    SEED = 6\n    return KEPT\n",
            "b.py": "import a\nprint(a.SHARED)\n"}
    assert unread_module_constants(srcs) == ["SEED (a.py:1)", "_CAP (a.py:2)"]


def test_no_unread_module_constants():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_module_constants(sources) == []


def _strings(node) -> set:
    """The string constants of ``node``, or of its elements when it is a tuple,
    list or set display."""
    elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {e.value for e in elts if isinstance(e, ast.Constant) and isinstance(e.value, str)}


def _witness_kinds(source: str, function: str):
    """(compared, emitted): the witness kinds that ``function`` compares the
    name ``kind`` against, and those ``source`` emits as a ``"kind": "<k>"``
    entry of a dict literal."""
    compared, emitted = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if k is not None and _strings(k) == {"kind"}:
                    emitted |= _strings(v)
        elif isinstance(node, ast.FunctionDef) and node.name == function:
            for cmp in ast.walk(node):
                if isinstance(cmp, ast.Compare) and isinstance(cmp.left, ast.Name) \
                        and cmp.left.id == "kind":
                    for c in cmp.comparators:
                        compared |= _strings(c)
    return compared, emitted


def stale_recheck_kinds(sources: dict, function: str = "recheck_witness") -> list:
    """Witness kinds that ``function`` compares the name ``kind`` against
    but that no module of ``sources`` (name -> text) emits as a
    ``"kind": "<k>"`` entry of a dict literal."""
    compared, emitted = set(), set()
    for source in sources.values():
        c, e = _witness_kinds(source, function)
        compared, emitted = compared | c, emitted | e
    return sorted(compared - emitted)


def test_stale_recheck_kind_detector():
    srcs = {"a.py": "def recheck_witness(w):\n    kind = w['kind']\n"
                    "    if kind == 'kept':\n        return True\n"
                    "    if kind in ('gone', 'also'):\n        return True\n"
                    "    return w['x'] == 'ignored'\n",
            "b.py": "def emit():\n    return [{'kind': 'kept'}, {'kind': 'also', 'x': 1}]\n"}
    assert stale_recheck_kinds(srcs) == ["gone"]


def test_every_rechecked_witness_kind_is_emitted():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert stale_recheck_kinds(sources) == []


def unrechecked_kinds(source: str, function: str = "recheck_witness") -> list:
    """Witness kinds that ``source`` emits as a ``"kind": "<k>"`` entry of a
    dict literal but that its ``function`` never compares ``kind`` against."""
    compared, emitted = _witness_kinds(source, function)
    return sorted(emitted - compared)


def test_unrechecked_kind_detector():
    src = ("def emit():\n    return [{'kind': 'kept'}, {'kind': 'evidence'}, {'x': 'other'}]\n"
           "def recheck_witness(w):\n    kind = w['kind']\n"
           "    if kind in ('kept', 'never-emitted'):\n        return True\n"
           "    return False\n")
    assert unrechecked_kinds(src) == ["evidence"]


def test_refutation_witness_kinds_are_rechecked():
    """The witness kinds ``certify.py`` writes that ``recheck_witness``
    cannot recheck are its evidence of verified checks, plus two refutation
    kinds of the smoothing check that no recheck covers yet (ROADMAP item
    5).  A new refutation kind without a recheck fails here."""
    evidence = {"stable-hyperplane", "compact-chart", "cone-components", "smoothing-evidence"}
    open_debt = {"reducible-family", "smoothing-failure"}
    source = (SRC / "certify.py").read_text(encoding="utf-8")
    assert unrechecked_kinds(source) == sorted(evidence | open_debt)


def test_benchmark_tracer_installs_on_this_source():
    """perfbench's tracer finds every function and method it wraps: a rename
    or deletion in ``src/`` would make it raise. It runs in a child process,
    so its wrappers stay out of this one."""
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "from tracing import Tracer, install; install(Tracer())")
    run = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_benchmark_tracer_reads_what_it_wraps():
    """With perfbench's tracer installed and active, certifying a smooth and a
    polyhedral set, then reading every per-layer metric, runs to the end: a
    hook that can no longer read a wrapped function's return value raises.
    No check calls ``hyperplane_disjoint``, so it is called once directly."""
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "from tracing import Tracer, install\n"
            "tracer = Tracer(); install(tracer); tracer.active = True\n"
            "from okacert.certify import (Hyperplane, SamplingPlan, certify_oka_complement,\n"
            "                             hyperplane_disjoint)\n"
            "from okacert.gallery import build_example\n"
            "for name in ('ball', 'cone-ex14'):\n"
            "    certify_oka_complement(build_example(name), SamplingPlan().scaled(30))\n"
            "hyperplane_disjoint(build_example('ball'), Hyperplane([1.0, 0.0], 3.0))\n"
            "metrics = tracer.metrics(1)\n"
            "assert metrics['certify.hyperplane_disjoint.calls']['value'] > 0, metrics\n")
    run = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def last_axis_reductions(source: str) -> list:
    """Lines of the calls in ``source`` that pass ``axis=-1``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and any(k.arg == "axis" and ast.unparse(k.value) == "-1" for k in node.keywords))


def test_last_axis_reduction_detector():
    src = "a.max(axis=-1)\nnp.linalg.norm(a, axis=1)\nf(axis=- 1)\nb.all(axis=0)\n"
    assert last_axis_reductions(src) == [1, 3]


def test_basin_row_distances_go_through_one_helper():
    """basin.py reduces over no length-2 coordinate axis: each row distance
    is ``_dist`` on the two columns, and each row test is column arithmetic."""
    assert last_axis_reductions((SRC / "basin.py").read_text(encoding="utf-8")) == []


def column_primitive_bypasses(source: str) -> list:
    """Ways ``source`` leaves the column primitive of the automorphisms:
    ``classify_points`` calling ``.apply(``, an ``AutomorphismSpec`` subclass
    (direct or not) defining no ``columns``, or one other than ``Composite``
    defining its own ``apply``."""
    found, specs = [], {"AutomorphismSpec"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "classify_points":
            found += [f"classify_points calls apply (line {c.lineno})" for c in ast.walk(node)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                      and c.func.attr == "apply"]
        elif isinstance(node, ast.ClassDef) and {ast.unparse(b) for b in node.bases} & specs:
            specs.add(node.name)
            methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
            if "columns" not in methods:
                found.append(f"{node.name} defines no columns")
            if "apply" in methods and node.name != "Composite":
                found.append(f"{node.name} defines apply")
    return sorted(found)


def test_column_primitive_bypass_detector():
    src = ("class AutomorphismSpec:\n    def apply(self, z): pass\n"
           "class Kept(AutomorphismSpec):\n    def columns(self, a, b): pass\n"
           "class Old(AutomorphismSpec):\n    def apply(self, z): pass\n"
           "class Sub(Kept):\n    def columns(self, a, b): pass\n    def apply(self, z): pass\n"
           "class Composite(AutomorphismSpec):\n    def columns(self, a, b): pass\n"
           "    def apply(self, z): pass\n"
           "class Other:\n    def apply(self, z): pass\n"
           "def classify_points(psi, z):\n    psi.columns(z, z)\n    return psi.apply(z)\n")
    assert column_primitive_bypasses(src) == ["Old defines apply", "Old defines no columns",
                                              "Sub defines apply",
                                              "classify_points calls apply (line 17)"]


def test_basin_iterates_on_the_column_primitive():
    """A new factor cannot fall back to the interleaved ``(m, 2)`` path."""
    assert column_primitive_bypasses((SRC / "basin.py").read_text(encoding="utf-8")) == []
