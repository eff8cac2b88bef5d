"""pyproject.toml declares only what the package really has and uses."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import galint

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _imports(path):
    """The modules a source file imports from, relative imports resolved;
    ``from m import a`` also gives ``m.a``, in case ``a`` is a module."""
    package = path.relative_to(ROOT / "src").parent.parts
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            keep = len(package) + 1 - node.level if node.level else 0
            module = ".".join([*package[:keep], *filter(None, [node.module])])
            yield module
            yield from (f"{module}.{a.name}" for a in node.names)


def _imported_top_level_modules():
    return {name.split(".")[0]
            for path in (ROOT / "src" / "galint").rglob("*.py")
            for name in _imports(path)}


def test_console_scripts_resolve_to_callables():
    for name, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target} is not callable"


def test_the_check_engine_imports_no_construction_code():
    # galint.integrability's __init__ imports its flows, fields and
    # integrals, so the whole package is out of bounds
    src = ROOT / "src" / "galint"
    banned = [name for name in _imports(src / "check.py")
              if name.startswith(("galint.series", "galint.integrability"))]
    assert banned == []
    tree = ast.parse((src / "integrability" / "certificates.py").read_text())
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_d")] == []


def test_the_flow_check_imports_only_the_standard_library_and_errors():
    # galint.jets evaluates flows on arithmetic of its own, so it imports
    # nothing from galint.algebra, galint.series or galint.integrability
    names = set(_imports(ROOT / "src" / "galint" / "jets.py"))
    assert names
    assert {name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
            and not name.startswith("galint.errors")} == set()


def test_every_runtime_dependency_is_imported():
    imported = _imported_top_level_modules()
    for spec in PROJECT["dependencies"]:
        dist = re.match(r"[A-Za-z0-9_.\-]+", spec).group(0)
        module = dist.lower().replace("-", "_")
        assert module in imported, f"dependency {dist!r} is never imported"


def test_every_exported_name_resolves():
    names = ["galint"] + [info.name for info in
                          pkgutil.walk_packages(galint.__path__, "galint.")]
    for modname in names:
        module = importlib.import_module(modname)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{modname}.__all__ lists {name!r}"


def test_sympy_stays_behind_the_algebra_package():
    # the boundary the ground-field module states: sympy is imported by one
    # module, algebra/bridge.py, and that module only inside the functions
    # of galint/algebra/ that need it (test_no_run_imports_sympy checks
    # that no import of a module reaches it)
    src = ROOT / "src" / "galint"
    imports = {path.relative_to(src).as_posix(): set(_imports(path))
               for path in src.rglob("*.py")}

    def importers(module):
        return {name for name, mods in imports.items()
                if any(m == module or m.startswith(module + ".")
                       for m in mods)}

    assert importers("sympy") == {"algebra/bridge.py"}
    assert importers("galint.algebra.bridge") == {"algebra/packed.py",
                                                  "algebra/scalars.py"}


def _fresh_python(code):
    """The stdout of ``code`` run in a new interpreter on this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}).stdout


def test_importing_the_package_does_not_import_numpy():
    # numpy serves diophantine_eval's several-angle sweep alone, which
    # imports it when it runs
    code = ("import sys, galint, galint.galois, galint.integrability, "
            "galint.reduction; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy'))")
    assert _fresh_python(code).strip() == "[]"


FIRST_FLOW = """
import sys
import galint
from galint.algebra import AlgebraicTower, GroundField
from galint.integrability import formal_flow
from galint.reduction import ReducedSystem

gf = GroundField(params=("alpha", "beta"))
s = gf.s
T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
unit = {(0,): T.one}
table = {(0, (2,)): T.from_ground(gf.gen("beta")),
         (0, (3,)): T.from_ground(s)}
R = ReducedSystem(T, 1, 3, [[T.from_ground(gf.gen("alpha")) / T.gen("w")]],
                  table, unit, unit, time_reduced=True)
before = set(sys.modules)
formal_flow(R, 3)
print(sorted(set(sys.modules) - before))
"""


def test_a_first_flow_imports_nothing():
    # the 1dw system of test_series.one_dw_flow at N = 3: a first flow in a
    # process pays no lazy import (sympy's expression layer pulls in
    # sympy.combinatorics the first time an Add is built)
    assert _fresh_python(FIRST_FLOW).strip() == "[]"


# every case of each benchmark workload at its smallest size, as bench/run.py
# builds, decides and checks it, then one angle far past lattice-towers' own
# horizon
SMALL_WORKLOADS = """
sys.path.insert(0, {bench!r})
import cases

def loaded(package):
    print(sorted(m for m in sys.modules if m.split(".")[0] == package))

for workload in ("flow-deep", "certify-suite", "lattice-towers"):
    for case in cases.cases(workload, 0, small=True):
        case.check(case.decide(case.build(), cases.Clock()))
loaded("sympy")
loaded("numpy")
from galint.galois import diophantine_eval
diophantine_eval(angles=[0.6180339887498949], nu_max=20)
loaded("numpy")
"""


@pytest.fixture(scope="module")
def small_run():
    """The lines a fresh process prints for ``FIRST_FLOW`` and then
    ``SMALL_WORKLOADS``."""
    return _fresh_python(
        FIRST_FLOW + SMALL_WORKLOADS.format(bench=str(ROOT / "bench"))
    ).splitlines()


def test_no_run_imports_sympy(small_run):
    # sympy serves the ground field's fallbacks and views alone, which import
    # it when they run: importing galint, a first flow and the small
    # workloads, inputs and checks included, take none of them
    assert small_run[:2] == ["[]", "[]"]


def test_no_run_imports_numpy(small_run):
    # one angle takes its Diophantine candidates from its continued
    # fraction, so neither lattice-towers' golden angle nor the same angle at
    # nu_max = 20 loads numpy
    assert small_run[2:] == ["[]", "[]"]
