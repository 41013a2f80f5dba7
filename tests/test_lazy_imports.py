"""Each command loads only the modules it runs.

``import cambarrier.cli`` loads only the standard library, and the
commands that read or write JSON alone (``plan-line``, ``barrier``,
``k-barrier``) never load numpy.  The package's exports and the
command line's names resolve when first read, and a name the benchmark's
tracer replaces on ``cli`` is the one the command calls, whether it is
replaced before or after its module is loaded."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cambarrier
from cambarrier.cli import main
from cambarrier.geometry import CameraParams
from cambarrier.simulate import random_deploy

from helpers import camera_to_dict

SRC = Path(cambarrier.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"

#: Prints, as JSON, the numpy and package modules the interpreter holds.
PRINT_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'cambarrier'))))\n"
)


def fresh(script: str, *args: str) -> str:
    """The standard output of ``script``, run with ``args`` in a fresh
    interpreter on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture()
def inputs(tmp_path):
    """A camera file, a mobile sweep config and the plan ``deploy-grid``
    writes of the cameras in a process of its own."""
    cameras = tmp_path / "cams.json"
    params = CameraParams(r=5.0, phi=2.0, theta=0.8)
    cameras.write_text(json.dumps([camera_to_dict(c) for c in random_deploy(20.0, 10.0, 120, 11, params)]))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"width": 20.0, "height": 10.0, "r": 5.0, "theta": 0.8, "phi": 2.0, "counts": [40, 80], "seed": 3, "trials": 4})
    )
    plan = tmp_path / "plan.json"
    argv = ["deploy-grid", "--cameras", str(cameras), "--width", "20", "--height", "10", "--out", str(plan)]
    fresh("import sys\nfrom cambarrier.cli import main\nsys.exit(main(sys.argv[1:]))\n", *argv)
    return {"cameras": cameras, "config": config, "plan": plan}


def test_importing_the_cli_loads_only_the_standard_library():
    assert json.loads(fresh("import cambarrier.cli\n" + PRINT_LOADED)) == ["cambarrier", "cambarrier.cli"]
    assert json.loads(fresh("import cambarrier\n" + PRINT_LOADED)) == ["cambarrier"]


def test_plan_and_line_commands_never_load_numpy(inputs, tmp_path):
    argvs = [
        ["barrier", "--plan", str(inputs["plan"])],
        ["k-barrier", "--plan", str(inputs["plan"])],
        ["plan-line", "--length", "100", "--r", "5"],
    ]
    script = (
        "import json, sys\n"
        "from cambarrier.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
    ) + PRINT_LOADED
    outs = [[*argv, "--out", str(tmp_path / f"fresh{k}.json")] for k, argv in enumerate(argvs)]
    loaded = json.loads(fresh(script, json.dumps(outs)))
    assert "numpy" not in loaded and "cambarrier.grid_deploy" not in loaded
    for k, argv in enumerate(argvs):
        assert main([*argv, "--out", str(tmp_path / f"here{k}.json")]) == 0
        assert (tmp_path / f"fresh{k}.json").read_bytes() == (tmp_path / f"here{k}.json").read_bytes()


def test_every_export_resolves_to_the_name_in_its_module():
    star = {}
    exec("from cambarrier import *", star)
    assert len(set(cambarrier.__all__)) == len(cambarrier.__all__)
    for name in cambarrier.__all__:
        value = getattr(cambarrier, name)
        assert star[name] is value
        if name != "__version__":
            assert getattr(importlib.import_module(f"cambarrier.{cambarrier._EXPORTS[name]}"), name) is value
    assert set(cambarrier.__all__) <= set(dir(cambarrier))
    with pytest.raises(AttributeError, match="'bogus'"):
        cambarrier.bogus  # noqa: B018


def test_a_star_import_in_a_fresh_interpreter_binds_every_export():
    script = "from cambarrier import *\nimport cambarrier\nprint(sorted(set(cambarrier.__all__) - set(globals())))\n"
    assert fresh(script) == "[]\n"


def test_every_cli_name_is_the_object_in_its_home_module(monkeypatch):
    """Each name the tracer wraps on ``cli`` or a handler reads as
    ``_cli.<name>`` resolves through the package's table."""
    from cambarrier import cli

    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    traced = {name for module, name, _ in importlib.import_module("spans").TARGETS if module == "cli"}
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_cli"
    }
    assert len(read) == 22 and "main" in traced
    for name in (traced | read) - {"main"}:
        home = importlib.import_module(f"cambarrier.{cambarrier._EXPORTS[name]}")
        assert cli.__getattr__(name) is getattr(home, name), name


def name_tables(source: str) -> set[str]:
    """The names of ``__all__`` and ``_LAZY`` that ``source`` assigns, at
    any depth."""
    assigned = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        assigned.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return assigned & {"__all__", "_LAZY"}


def test_the_package_has_one_name_table():
    package = Path(cambarrier.__file__).parent
    tables = {path.name: name_tables(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in tables.items() if found} == {"__init__.py": {"__all__"}}


def test_the_check_sees_a_second_table():
    assert name_tables('_LAZY = {"dumps": "serialize"}\n') == {"_LAZY"}
    assert name_tables("__all__: list = []\n__all__ += ['x']\n") == {"__all__"}
    assert name_tables("def f():\n    global _LAZY\n    _LAZY, y = {}, 1\n") == {"_LAZY"}
    assert name_tables("_LAZY_NAMES = {}\nx = _LAZY\nmodule.__all__ = []\n") == set()


def test_an_unknown_cli_name_imports_nothing():
    script = (
        "from cambarrier import cli\n"
        "try:\n"
        "    cli.cell_index\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    ) + PRINT_LOADED
    refused, _, loaded = fresh(script).partition("\n")
    assert refused == "module 'cambarrier.cli' has no attribute 'cell_index'"
    assert json.loads(loaded) == ["cambarrier", "cambarrier.cli"]


def test_a_handler_runs_without_main_in_a_fresh_interpreter():
    script = (
        "import argparse, math\n"
        "from cambarrier import cli\n"
        "try:\n"
        "    cli._cmd_plan_line(argparse.Namespace(length=0.0, r=5.0, theta=math.pi / 4, out=None))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "assert cli._cmd_plan_line(argparse.Namespace(length=100.0, r=5.0, theta=math.pi / 4, out=None)) == 0\n"
    )
    refused, _, written = fresh(script).partition("\n")
    assert refused == "barrier length must be positive and finite, got 0.0"
    assert json.loads(written)


#: Each ``cli`` name the tracer wraps that a handler calls: its module and
#: the command that calls it once.
TRACED = {
    "coverage_probability_sweep": ("simulate", ["simulate", "--config", "{config}"]),
    "run_algorithm1": ("grid_deploy", ["deploy-grid", "--cameras", "{cameras}", "--width", "20", "--height", "10"]),
    "sweep_csv_text": ("serialize", ["fig3", "--length", "100", "--r-min", "3", "--r-max", "5"]),
}

#: Replaces ``cli.<name>`` with a counting wrapper, before or after the
#: name's module is loaded, runs the command and prints the count.
COUNT_CALLS = """\
import importlib, json, sys
from cambarrier import cli
name, module, when, argv = sys.argv[1], "cambarrier." + sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
if when == "after":
    assert cli.main(argv) == 0
    assert module in sys.modules and name in vars(cli)
else:
    assert module not in sys.modules and name not in vars(cli)
calls = []

def wrapper(*args, **kwargs):
    calls.append(name)
    return getattr(importlib.import_module(module), name)(*args, **kwargs)

setattr(cli, name, wrapper)
assert cli.main(argv) == 0
print(len(calls))
"""


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("name", sorted(TRACED))
def test_main_calls_what_the_cli_name_holds(inputs, tmp_path, name, when):
    module, argv = TRACED[name]
    argv = [arg.format(**inputs) for arg in argv] + ["--out", str(tmp_path / "out")]
    assert fresh(COUNT_CALLS, name, module, when, json.dumps(argv)) == "1\n"


def test_the_benchmark_tracer_sees_every_command_it_wraps(inputs, tmp_path):
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import spans\n"
        "from cambarrier import cli\n"
        "tracer = spans.Tracer()\n"
        "with tracer.installed():\n"
        "    for argv in json.loads(sys.argv[1]):\n"
        "        assert cli.main(argv) == 0\n"
        "print(json.dumps(sorted({s.name for s in tracer.spans})))\n"
    )
    argvs = [[arg.format(**inputs) for arg in argv] + ["--out", str(tmp_path / "out")] for _, argv in TRACED.values()]
    seen = json.loads(fresh(script, json.dumps(argvs)))
    assert {
        "cli.main",
        "simulate.coverage_probability_sweep",
        "grid_deploy.run_algorithm1",
        "serialize.sweep_csv_text",
    } <= set(seen)
