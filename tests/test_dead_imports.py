"""The package imports no name it leaves unused, except the shims that
the benchmark's tracer wraps by module attribute, defines no private
module-level helper that nothing in it reads, and exports no name that
nothing in it reads unless the name is kept for a stated reason.  A
module reads a name where it loads it as a bare name: ``obj.name`` reads
``obj``, not ``name``.  The one exception is ``_cli.name``, which reads
``name`` too: the command line's handlers read its names as attributes
of their own module, ``_cli``."""

import ast
import importlib
import sys
from pathlib import Path

import cambarrier

PACKAGE = Path(cambarrier.__file__).parent

#: Names kept only so that ``bench/spans.py`` can wrap them in the module
#: where its targets look them up (ROADMAP item 5): imported and never read
#: in ``simulate.py``.  Listed here, not read from the tracer, so the list
#: stays what ``src`` holds; delete each one from its module and from here
#: once the tracer no longer wraps it.  The tracer's ``cli`` names resolve
#: through the package's exports.
TRACER_SHIMS = {
    "simulate.py": {
        "build_graph",
        "prune_degree_one",
        "run_algorithm1",
        "shortest_barrier",
        "staffed_cells",
    },
}


def unused_imports(source: str) -> set[str]:
    """The names ``source`` binds by an import, at any depth, and never
    reads; a name written as a string in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return imported - read


def reads(tree) -> set[str]:
    """Every name ``tree`` loads as a bare name or as ``_cli.name``; any
    other attribute's name is not one."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and getattr(node.value, "id", None) == "_cli":
            names.add(node.attr)
    return names


def test_unused_imports_are_exactly_the_tracer_shims(monkeypatch):
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        names = unused_imports(source)
        if names:
            found[path.name] = names
    assert found == TRACER_SHIMS
    assert sum(map(len, found.values())) == 5
    assert unused_imports((PACKAGE / "cli.py").read_text()) == set()
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    traced = {(module, name) for module, name, _ in importlib.import_module("spans").TARGETS}
    for path, names in TRACER_SHIMS.items():
        assert {(path.removesuffix(".py"), name) for name in names} <= traced


def test_the_check_sees_a_stray_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n\n\ndef f():\n    import sys\n    return np.pi + tau\n"
    assert unused_imports(source) == {"os", "pi", "sys"}
    assert unused_imports('from math import pi\n__all__ = ["pi"]\n') == set()


def private_definitions(source: str) -> set[str]:
    """The ``_private`` functions, classes and constants ``source`` defines
    at module level; dunder names such as ``__all__`` are not private."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_loaded(source: str) -> set[str]:
    """Every name ``source`` reads (see :func:`reads`)."""
    return reads(ast.parse(source))


def test_every_private_helper_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(names_loaded, sources.values()))
    dead = {name: sorted(private_definitions(source) - read) for name, source in sources.items()}
    assert {name: helpers for name, helpers in dead.items() if helpers} == {}


def test_the_check_sees_a_dead_helper():
    source = (
        "_LIMIT = 3\n_USED: int = 1\n__all__ = []\n\n\n"
        "def _check_radius(r):\n    return r > _USED\n\n\n"
        "class _Spare:\n    pass\n\n\n"
        "def public(x):\n    return x._check_radius(x._LIMIT)\n"
    )
    assert private_definitions(source) == {"_LIMIT", "_USED", "_check_radius", "_Spare"}
    assert private_definitions(source) - names_loaded(source) == {"_LIMIT", "_check_radius", "_Spare"}
    assert "_USED" in names_loaded(source) and "x" in names_loaded(source)


#: Exported names that no package module reads, each with the reason it
#: stays: "tracer", ``bench/spans.py`` wraps it (ROADMAP item 5);
#: "paper", a step or check the paper names, which the tests run;
#: "item 1", the sweep the planned ``count-sweep`` command writes
#: (ROADMAP item 1).  Delete an entry with its name, or once a module
#: reads the name.
KEPT_EXPORTS = {
    "assign_orientations": "paper",
    "assign_to_vertices": "paper",
    "barrier_camera_count_sweep": "item 1",
    "barrier_exists_mobile": "tracer",
    "barrier_exists_static": "tracer",
    "build_graph": "tracer",
    "camera_density": "paper",
    "cell_full_view_verified": "paper",
    "distinct_cameras": "tracer",
    "elect_grid_heads": "paper",
    "full_view_covered_point": "paper",
    "graph_to_dict": "tracer",
    "k_barrier_count": "tracer",
    "partition": "paper",
    "plan_from_dict": "tracer",
    "prune_degree_one": "tracer",
    "random_deploy": "tracer",
    "shortest_barrier": "tracer",
    "staffed_cells": "tracer",
    "validate_params": "paper",
}


def unread_exports(exported, sources: dict) -> set[str]:
    """The names in ``exported`` that no module of ``sources``, a map from
    file name to source text, reads; ``__init__.py`` does not count, as
    it reads every name it re-exports."""
    read = set().union(*(names_loaded(source) for name, source in sources.items() if name != "__init__.py"))
    return set(exported) - read


def test_every_export_is_read_in_the_package_or_kept_for_a_reason(monkeypatch):
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_exports(cambarrier.__all__, sources) == KEPT_EXPORTS.keys()
    assert set(KEPT_EXPORTS.values()) == {"tracer", "paper", "item 1"}
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    traced = {name for _, name, _ in importlib.import_module("spans").TARGETS}
    assert {name for name, reason in KEPT_EXPORTS.items() if reason == "tracer"} <= traced


def test_the_check_sees_a_stray_export():
    sources = {
        "__init__.py": "from .a import stray, used\n\n__all__ = ['stray', 'used']\nstray()\n",
        "a.py": "def used():\n    return 1\n\n\ndef stray():\n    return used()\n",
        "b.py": "def call(obj):\n    return obj.stray()\n",
    }
    assert unread_exports(["stray", "used"], sources) == {"stray"}
    sources["b.py"] = "def call(obj):\n    return obj.stray() + _cli.stray()\n"
    assert unread_exports(["stray", "used"], sources) == set()
