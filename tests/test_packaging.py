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

import galint

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _imported_top_level_modules():
    names = set()
    for path in (ROOT / "src" / "galint").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names


def test_console_scripts_resolve_to_callables():
    for name, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target} is not callable"


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


def test_importing_the_package_does_not_import_numpy():
    # numpy serves diophantine_eval alone, which imports it when it runs
    code = ("import sys, galint, galint.galois, galint.integrability, "
            "galint.reduction; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy'))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
