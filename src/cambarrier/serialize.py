"""JSON and CSV interchange for plans, graphs, barriers and sweeps.

All floats serialize with 9 significant digits.  JSON output is sorted
and indented, CSV rows follow the fixed header
``x,estimate,trials,successes,stderr``; both are byte-stable for
identical inputs.
"""

import json
import sys

from .barrier_graph import BarrierResult, CoverageGraph
from .geometry import CameraParams, CameraPose, Point2D
from .grid_deploy import CameraRecord, DeploymentPlan, GridModel, VertexAssignment
from .line_model import LineDeployment
from .simulate import SweepResult

CSV_HEADER = "x,estimate,trials,successes,stderr"

_FLOAT_MAX = sys.float_info.max


def _round9(value: float) -> float:
    return float(f"{value:.9g}")


def _clean(obj):
    if isinstance(obj, float):
        return _round9(obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Deterministic JSON text: rounded floats, sorted keys, newline at end."""
    return json.dumps(_clean(obj), indent=2, sort_keys=True) + "\n"


def format_number(value) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV representation")
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def sweep_csv_text(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(
            ",".join(
                format_number(v)
                for v in (row.x, row.estimate, row.trials, row.successes, row.stderr)
            )
        )
    return "\n".join(lines) + "\n"


def camera_to_dict(camera: CameraPose) -> dict:
    return {
        "id": camera.id,
        "x": camera.position.x,
        "y": camera.position.y,
        "facing": camera.facing,
        "r": camera.params.r,
        "phi": camera.params.phi,
        "theta": camera.params.theta,
    }


#: Camera-file fields that must be finite numbers.
_CAMERA_NUMBERS = ("x", "y", "facing", "r", "phi", "theta")


def camera_from_dict(data: dict) -> CameraPose:
    """The camera a camera-file entry describes.  Every field but ``id``
    must be a finite JSON number; bools, strings, nulls, NaN and
    infinities are rejected with ``ValueError``, not converted."""
    for key in _CAMERA_NUMBERS:
        value = data[key]
        # Exact types: JSON numbers load as int or float, and bool is
        # neither.  The range test rejects NaN, infinities and ints too
        # large for a float.
        if (type(value) is not float and type(value) is not int) or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise ValueError(f"camera field {key!r} must be a finite number, got {value!r}")
    return CameraPose(
        id=data["id"],
        position=Point2D(float(data["x"]), float(data["y"])),
        facing=float(data["facing"]),
        params=CameraParams(r=float(data["r"]), phi=float(data["phi"]), theta=float(data["theta"])),
    )


def line_deployment_to_dict(dep: LineDeployment) -> dict:
    return {
        "barrier": {
            "ax": dep.barrier.a.x,
            "ay": dep.barrier.a.y,
            "bx": dep.barrier.b.x,
            "by": dep.barrier.b.y,
        },
        "params": {"h": dep.params.h, "delta": dep.params.delta, "alpha": dep.params.alpha},
        "count": len(dep.cameras),
        "cameras": [camera_to_dict(c) for c in dep.cameras],
    }


def plan_to_dict(plan: DeploymentPlan) -> dict:
    g = plan.grid
    return {
        "grid": {"width": g.width, "height": g.height, "d": g.d, "m": g.m, "n": g.n},
        "cells": [
            {"cell": list(cell), "cameras": list(ids)} for cell, ids in sorted(g.cell_members.items())
        ],
        "heads": [{"cell": list(cell), "id": cid} for cell, cid in sorted(plan.heads.items())],
        "assignments": [
            {
                "vertex": list(v),
                "stationed": list(a.stationed),
                "down": a.down,
                "up": a.up,
                "silent": list(a.silent),
            }
            for v, a in sorted(plan.assignments.items())
        ],
        "cameras": [
            {
                "id": rec.camera_id,
                "x": rec.origin.x,
                "y": rec.origin.y,
                "facing": g.poses[rec.camera_id].facing,
                "r": g.poses[rec.camera_id].params.r,
                "phi": g.poses[rec.camera_id].params.phi,
                "theta": g.poses[rec.camera_id].params.theta,
                "vertex": list(rec.vertex),
                "distance": rec.distance,
                "orientation": rec.orientation,
            }
            for rec in (plan.records[k] for k in sorted(plan.records))
        ],
        "deficits": [{"vertex": list(v), "orientation": role} for v, role in plan.deficits],
        "d_within_bound": plan.d_within_bound,
    }


def plan_from_dict(data: dict) -> DeploymentPlan:
    gd = data["grid"]
    poses = {int(c["id"]): camera_from_dict(c) for c in data["cameras"]}
    grid = GridModel(
        width=float(gd["width"]),
        height=float(gd["height"]),
        d=float(gd["d"]),
        m=int(gd["m"]),
        n=int(gd["n"]),
        cell_members={
            tuple(entry["cell"]): tuple(int(i) for i in entry["cameras"]) for entry in data["cells"]
        },
        poses=poses,
    )
    assignments = {}
    for entry in data["assignments"]:
        v = tuple(entry["vertex"])
        assignments[v] = VertexAssignment(
            vertex=v,
            stationed=tuple(int(i) for i in entry["stationed"]),
            down=entry["down"],
            up=entry["up"],
            silent=tuple(int(i) for i in entry["silent"]),
        )
    records = {}
    for c in data["cameras"]:
        cid = int(c["id"])
        origin = Point2D(float(c["x"]), float(c["y"]))
        records[cid] = CameraRecord(
            camera_id=cid,
            origin=origin,
            vertex=tuple(c["vertex"]),
            distance=float(c["distance"]),
            orientation=c["orientation"],
        )
    return DeploymentPlan(
        grid=grid,
        heads={tuple(entry["cell"]): int(entry["id"]) for entry in data["heads"]},
        assignments=assignments,
        records=records,
        deficits=tuple((tuple(entry["vertex"]), entry["orientation"]) for entry in data["deficits"]),
        d_within_bound=bool(data["d_within_bound"]),
    )


def _node_to_json(node):
    return node if isinstance(node, str) else list(node)


def graph_to_dict(g: CoverageGraph) -> dict:
    return {
        "m": g.m,
        "n": g.n,
        "nodes": ["s"] + [list(c) for c in sorted(g.cells)] + ["t"],
        "edges": [
            {"u": _node_to_json(u), "v": _node_to_json(v), "weight": w, "kind": kind}
            for u, v, w, kind in g.edges()
        ],
    }


def barrier_to_dict(result: BarrierResult) -> dict:
    return {
        "exists": result.exists,
        "path": [list(c) for c in result.path],
        "total_weight": result.total_weight,
        "camera_count": result.camera_count,
    }


__all__ = [
    "CSV_HEADER",
    "dumps",
    "format_number",
    "sweep_csv_text",
    "camera_to_dict",
    "camera_from_dict",
    "line_deployment_to_dict",
    "plan_to_dict",
    "plan_from_dict",
    "graph_to_dict",
    "barrier_to_dict",
]
