"""numpy is the package's only runtime dependency: every module of
``src/cambarrier`` imports the standard library, numpy or the package
itself, at any depth, and ``pyproject.toml`` declares numpy alone.  The
lazy name tables of ``__init__`` and ``cli`` load only package modules;
``test_lazy_imports.py`` resolves every name they hold."""

import ast
import sys
from pathlib import Path

import pytest

import cambarrier

PACKAGE = Path(cambarrier.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cambarrier"}


def imported_roots(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports, at any
    depth; a relative import names the package."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("cambarrier" if node.level else node.module.partition(".")[0])
    return roots


def test_every_import_is_the_standard_library_numpy_or_the_package():
    found = {path.name: imported_roots(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: sorted(roots - ALLOWED) for name, roots in found.items() if roots - ALLOWED} == {}
    assert "numpy" in set().union(*found.values())


def test_the_check_sees_a_third_party_import():
    source = (
        "import os.path\nimport numpy as np\nfrom __future__ import annotations\nfrom . import geometry\n"
        "from .geometry import EPS\nfrom cambarrier.full_view import Cameras\n\n\n"
        "def f():\n    import scipy.optimize\n    from orjson import dumps\n"
    )
    assert imported_roots(source) == {"os", "numpy", "__future__", "cambarrier", "scipy", "orjson"}
    assert imported_roots(source) - ALLOWED == {"scipy", "orjson"}


def test_the_declared_runtime_dependency_is_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    assert [spec.partition(">")[0].partition("=")[0].strip() for spec in project["dependencies"]] == ["numpy"]
