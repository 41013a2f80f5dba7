"""The package imports no name it leaves unused, except the shims that the
benchmark's tracer wraps by module attribute, and defines no private
module-level helper that nothing in it reads."""

import ast
from pathlib import Path

import cambarrier

PACKAGE = Path(cambarrier.__file__).parent

#: Names imported only so that ``bench/spans.py`` can wrap them in the
#: module where its targets look them up (ROADMAP item 5).  Listed here,
#: not read from the tracer, so the list stays what ``src`` holds; delete
#: each one from its module and from here once the tracer no longer wraps it.
TRACER_SHIMS = {
    "cli.py": {
        "build_graph",
        "distinct_cameras",
        "graph_to_dict",
        "k_barrier_count",
        "plan_from_dict",
        "plan_to_dict",
        "prune_degree_one",
        "shortest_barrier",
        "staffed_cells",
    },
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
    reads; a name listed in ``__all__`` counts as read."""
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
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_unused_imports_are_exactly_the_tracer_shims():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = unused_imports(path.read_text())
        if names:
            found[path.name] = names
    assert found == TRACER_SHIMS
    assert sum(map(len, found.values())) == 14


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


def names_read(source: str) -> set[str]:
    """Every name ``source`` reads, as a bare name or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_private_helper_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(names_read, sources.values()))
    dead = {name: sorted(private_definitions(source) - read) for name, source in sources.items()}
    assert {name: helpers for name, helpers in dead.items() if helpers} == {}


def test_the_check_sees_a_dead_helper():
    source = (
        "_LIMIT = 3\n_USED: int = 1\n__all__ = []\n\n\n"
        "def _check_radius(r):\n    return r > _USED\n\n\n"
        "class _Spare:\n    pass\n\n\n"
        "def public(x):\n    return x.attr\n"
    )
    assert private_definitions(source) == {"_LIMIT", "_USED", "_check_radius", "_Spare"}
    assert private_definitions(source) - names_read(source) == {"_LIMIT", "_check_radius", "_Spare"}
    assert "attr" in names_read(source) and "_USED" in names_read(source)
