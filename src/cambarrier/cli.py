"""Command-line front end.

Subcommands: plan-line, deploy-grid, barrier, k-barrier, simulate, fig3,
one entry each in :data:`COMMANDS`, which declares each command's flags as
data.  Well-formed argv are parsed straight from that table; argparse, whose
parser is built from the same table, runs only for help, errors, abbreviated
or repeated flags and ``-``-leading values given as a separate token, so
every help, usage and error text is the one it prints.
Exit codes: 0 success, 2 invalid configuration or arguments, 3 infeasible
input (for example cameras outside the region).
"""

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

#: The module of each name a handler reads, or the benchmark's tracer wraps
#: here (``bench/spans.py``, ROADMAP item 5), that the package does not
#: export.  Handlers read every such name as an attribute of this module,
#: ``_cli.<name>``, so :func:`__getattr__` (PEP 562) imports it the first
#: time it is read: a command loads only the modules it runs,
#: ``import cambarrier.cli`` loads none, and a name already set on ``cli``,
#: such as a tracer's wrapper, is the one the command calls.
_LAZY = {
    "check_positive": "geometry",
    "cameras_from_list": "serialize",
    "dumps": "serialize",
    "graph_to_dict": "serialize",
    "line_deployment_json": "serialize",
    "plan_duties": "serialize",
    "plan_from_dict": "serialize",
    "plan_json": "serialize",
    "plan_to_dict": "serialize",
    "sweep_csv_text": "serialize",
    "with_overrides": "simulate",
}


def __getattr__(name):
    """Bind ``name`` to its value: a name of :data:`_LAZY` from its module,
    any other name of the package's ``__all__`` from the package."""
    package = sys.modules[__package__]
    if name in _LAZY:
        value = getattr(importlib.import_module(f"{__package__}.{_LAZY[name]}"), name)
    elif name in package.__all__:
        value = getattr(package, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


#: This module, whose attributes the handlers read.
_cli = sys.modules[__name__]


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to load") from None


def _cmd_plan_line(args) -> int:
    _cli.check_positive("barrier length", args.length)
    barrier = _cli.Segment(_cli.Point2D(0.0, 0.0), _cli.Point2D(args.length, 0.0))
    dep = _cli.place_line_deployment(barrier, args.r, theta=args.theta)
    _emit(_cli.line_deployment_json(dep), args.out)
    return 0


def _cmd_deploy_grid(args) -> int:
    entries = _load_json(args.cameras)
    if not isinstance(entries, list):
        raise ValueError(f"{args.cameras}: the camera file must be a JSON list")
    cameras = _cli.cameras_from_list(entries)
    if args.d is not None:
        d = args.d
    else:
        if not cameras:
            raise ValueError("--d is required when the camera file is empty")
        d = _cli.grid_length_bound(float(cameras.r.min()))
    try:
        plan = _cli.run_algorithm1(args.width, args.height, cameras, d)
    except _cli.CameraOutsideRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(_cli.plan_json(plan), args.out)
    return 0


def _cmd_barrier(args) -> int:
    from dataclasses import replace  # here, with the modules the command loads anyway

    m, n, duties = _cli.plan_duties(_load_json(args.plan))
    mask = _cli.duty_mask(m, n, duties)
    result = _cli.extract_barrier(mask)
    if result.exists:
        result = replace(result, camera_count=_cli.slot_cameras(result.path, duties))
    _emit(_cli.barrier_json(result, mask), args.out)
    return 0


#: The ``k-barrier`` document, indented and sorted as ``serialize.dumps``
#: writes it: the column counts (a grid has at least one column) and k.
_K_BARRIER_DOC = '{\n  "column_counts": [\n    %s\n  ],\n  "k": %d\n}\n'


def _cmd_k_barrier(args) -> int:
    counts = _cli.column_counts(_cli.duty_mask(*_cli.plan_duties(_load_json(args.plan))))
    _emit(_K_BARRIER_DOC % (",\n    ".join(map(str, counts)), min(counts)), args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = _cli.ScenarioConfig.from_dict(_load_json(args.config))
    config = _cli.with_overrides(
        config, seed=args.seed, trials=args.trials, mode=args.mode, samples=args.samples
    )
    result = _cli.coverage_probability_sweep(config)
    _emit(_cli.sweep_csv_text(result), args.out)
    return 0


#: Longest radius list ``fig3`` computes.
MAX_RADII = 100_000


def _cmd_fig3(args) -> int:
    for name, value in (("length", args.length), ("r-min", args.r_min), ("r-max", args.r_max), ("step", args.step)):
        if not math.isfinite(value):
            raise ValueError(f"--{name} must be finite, got {value}")
    if args.step <= 0:
        raise ValueError(f"step must be positive, got {args.step}")
    # Radius k is r_min + k * step, kept while it is at most r_max + EPS,
    # so k runs up to about ``span`` (which may overflow to +-inf).
    top = args.r_max + _cli.EPS
    span = (top - args.r_min) / args.step
    if span >= MAX_RADII:
        raise ValueError(f"the radius range holds more than {MAX_RADII} values")
    radii = (args.r_min + k * args.step for k in range(math.floor(max(span, -1.0)) + 2))
    r_values = [r for r in radii if r <= top]
    if not r_values:
        raise ValueError("empty radius range")
    _emit(_cli.sweep_csv_text(_cli.fig3_sweep(args.length, r_values)), args.out)
    return 0


#: The flags of ``barrier`` and ``k-barrier``.
_PLAN = (("--plan", "plan", str, True, None, None, None),)

#: Every command takes ``--out`` after its own flags.
_OUT = ("--out", "out", str, False, None, None, None)

#: name -> (help, flags, handler), in the order the top-level help lists
#: them.  Each flag is ``(flag, dest, type, required, default, choices,
#: help)``; :func:`build_parser` and :func:`parse_args` both read them.
COMMANDS = {
    "plan-line": (
        "emit the canonical two-row line deployment as JSON",
        (
            ("--length", "length", float, True, None, None, "barrier length in meters"),
            ("--r", "r", float, True, None, None, "sensing radius in meters"),
            ("--theta", "theta", float, False, math.pi / 4, None, "recognition half-window, radians"),
        ),
        _cmd_plan_line,
    ),
    "deploy-grid": (
        "run the grid relocation pipeline on a camera file",
        (
            ("--cameras", "cameras", str, True, None, None, "JSON list of cameras"),
            ("--width", "width", float, True, None, None, None),
            ("--height", "height", float, True, None, None, None),
            ("--d", "d", float, False, None, None, "cell side; defaults to the verifiable bound"),
        ),
        _cmd_deploy_grid,
    ),
    "barrier": ("extract the minimum-camera barrier from a plan JSON", _PLAN, _cmd_barrier),
    "k-barrier": ("column-minimum barrier multiplicity of a plan JSON", _PLAN, _cmd_k_barrier),
    "simulate": (
        "run a coverage-probability sweep from a config JSON",
        (
            ("--config", "config", str, True, None, None, None),
            ("--seed", "seed", int, False, None, None, None),
            ("--trials", "trials", int, False, None, None, None),
            ("--mode", "mode", str, False, None, ("static", "mobile"), None),
            ("--samples", "samples", int, False, None, None, None),
        ),
        _cmd_simulate,
    ),
    "fig3": (
        "camera count vs sensing radius for a fixed barrier length",
        (
            ("--length", "length", float, True, None, None, None),
            ("--r-min", "r_min", float, True, None, None, None),
            ("--r-max", "r_max", float, True, None, None, None),
            ("--step", "step", float, False, 1.0, None, None),
        ),
        _cmd_fig3,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command, built from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="cambarrier",
        description="Plan, verify and simulate full-view camera barriers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, dest, type_, required, default, choices, flag_help in (*flags, _OUT):
            p.add_argument(
                flag, dest=dest, type=type_, required=required, default=default, choices=choices, help=flag_help
            )
        p.set_defaults(func=func)
    return parser


def _parse_well_formed(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace of ``argv`` when it is a command followed by distinct
    exact flags of it, each as ``--flag value`` (the value not starting
    with ``-``) or ``--flag=value``, every value converting and within its
    choices and every required flag given; otherwise None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, flags, func = COMMANDS[argv[0]]
    specs = {spec[0]: spec for spec in (*flags, _OUT)}
    values = {}
    items = iter(argv[1:])
    for item in items:
        flag, eq, value = item.partition("=")
        if not eq:
            value = next(items, "-")
            if value.startswith("-"):
                return None
        spec = specs.get(flag)
        # argparse drops a "--" value, so "--out=--" leaves it an empty list.
        if spec is None or spec[1] in values or value == "--":
            return None
        _, dest, type_, _, _, choices, _ = spec
        try:
            value = type_(value)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if any(spec[3] and spec[1] not in values for spec in specs.values()):
        return None
    namespace = argparse.Namespace(command=argv[0])
    for _, dest, _, _, default, _, _ in specs.values():
        setattr(namespace, dest, values.get(dest, default))
    namespace.func = func
    return namespace


def parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns or raises.  Well-formed
    argv are parsed from :data:`COMMANDS`; help, errors, abbreviated or
    repeated flags and ``-``-leading values given as a separate token go to
    argparse, which prints every help, usage and error text."""
    namespace = _parse_well_formed(argv)
    return build_parser().parse_args(argv) if namespace is None else namespace


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    # argparse drops a "--" value, so "--flag=--" leaves the flag an empty
    # list.  Every str flag without choices names a file, which "" does not.
    for flag, dest, type_, _, _, choices, _ in (*COMMANDS[args.command][1], _OUT):
        value = getattr(args, dest)
        path = type_ is str and choices is None
        if value == [] or (path and value == ""):
            print(f"error: {flag} must {'name a file' if path else 'have a value'}, got {value!r}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
