"""Command-line front end.

Subcommands: plan-line, deploy-grid, barrier, k-barrier, simulate, fig3.
Exit codes: 0 success, 2 invalid configuration or arguments, 3 infeasible
input (for example cameras outside the region).
"""

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .barrier_graph import barrier_json, duty_slots, extract_barrier
from .geometry import EPS, Point2D, Segment
from .grid_deploy import CameraOutsideRegionError, grid_length_bound, plan_staffed_mask, run_algorithm1
from .line_model import place_line_deployment
from .serialize import (
    cameras_from_list,
    dumps,
    line_deployment_to_dict,
    plan_from_dict,
    plan_json,
    sweep_csv_text,
)
from .simulate import (
    ScenarioConfig,
    coverage_probability_sweep,
    fig3_sweep,
    with_overrides,
)

# Not called here; bench/spans.py wraps these names in this module (ROADMAP item 5).
from .barrier_graph import (  # noqa: F401
    build_graph,
    distinct_cameras,
    k_barrier_count,
    prune_degree_one,
    shortest_barrier,
)
from .grid_deploy import staffed_cells  # noqa: F401
from .serialize import graph_to_dict, plan_to_dict  # noqa: F401


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    return json.loads(Path(path).read_text())


def _cmd_plan_line(args) -> int:
    if not args.length > 0:
        raise ValueError(f"barrier length must be positive, got {args.length}")
    barrier = Segment(Point2D(0.0, 0.0), Point2D(args.length, 0.0))
    dep = place_line_deployment(barrier, args.r, theta=args.theta)
    _emit(dumps(line_deployment_to_dict(dep)), args.out)
    return 0


def _cmd_deploy_grid(args) -> int:
    cameras = cameras_from_list(_load_json(args.cameras))
    if args.d is not None:
        d = args.d
    else:
        if not cameras:
            raise ValueError("--d is required when the camera file is empty")
        d = grid_length_bound(min(c.params.r for c in cameras))
    plan = run_algorithm1(args.width, args.height, cameras, d)
    _emit(plan_json(plan), args.out)
    return 0


def _cmd_barrier(args) -> int:
    plan = plan_from_dict(_load_json(args.plan))
    mask = plan_staffed_mask(plan)
    result = extract_barrier(mask)
    if result.exists:
        # The distinct ids at the path's duty slots: a loaded plan may name
        # one camera at two slots.
        down, up = duty_slots(result.path)
        asg = plan.assignments
        result = replace(result, camera_count=len({asg[v].down for v in down} | {asg[v].up for v in up}))
    _emit(barrier_json(result, mask), args.out)
    return 0


def _cmd_k_barrier(args) -> int:
    mask = plan_staffed_mask(plan_from_dict(_load_json(args.plan)))
    # Summed in Python: a first numpy reduction costs ~0.2 MiB of peak RSS.
    counts = [sum(column) for column in zip(*mask.tolist())]
    _emit(dumps({"k": min(counts), "column_counts": counts}), args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = ScenarioConfig.from_dict(_load_json(args.config))
    config = with_overrides(
        config, seed=args.seed, trials=args.trials, mode=args.mode, samples=args.samples
    )
    result = coverage_probability_sweep(config)
    _emit(sweep_csv_text(result), args.out)
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
    span = (args.r_max + EPS - args.r_min) / args.step
    if span >= MAX_RADII:
        raise ValueError(f"the radius range holds more than {MAX_RADII} values")
    radii = (args.r_min + k * args.step for k in range(math.floor(max(span, -1.0)) + 2))
    r_values = [r for r in radii if r <= args.r_max + EPS]
    if not r_values:
        raise ValueError("empty radius range")
    _emit(sweep_csv_text(fig3_sweep(args.length, r_values)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cambarrier",
        description="Plan, verify and simulate full-view camera barriers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan-line", help="emit the canonical two-row line deployment as JSON")
    p.add_argument("--length", type=float, required=True, help="barrier length in meters")
    p.add_argument("--r", type=float, required=True, help="sensing radius in meters")
    p.add_argument("--theta", type=float, default=math.pi / 4, help="recognition half-window, radians")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_plan_line)

    p = sub.add_parser("deploy-grid", help="run the grid relocation pipeline on a camera file")
    p.add_argument("--cameras", required=True, help="JSON list of cameras")
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--d", type=float, default=None, help="cell side; defaults to the verifiable bound")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_deploy_grid)

    p = sub.add_parser("barrier", help="extract the minimum-camera barrier from a plan JSON")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_barrier)

    p = sub.add_parser("k-barrier", help="column-minimum barrier multiplicity of a plan JSON")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_k_barrier)

    p = sub.add_parser("simulate", help="run a coverage-probability sweep from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--mode", choices=("static", "mobile"), default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fig3", help="camera count vs sensing radius for a fixed barrier length")
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--r-min", dest="r_min", type=float, required=True)
    p.add_argument("--r-max", dest="r_max", type=float, required=True)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fig3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CameraOutsideRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
