"""Independent reference implementations used as test oracles.

These deliberately avoid the library's vectorized kernel, graph search,
JSON writers, plan check and array relocation so they can cross-check
them: plain-math full-view evaluation, exhaustive s-t path enumeration,
the standard library's JSON encoder, the dict views of the
line-deployment and barrier documents (and of one camera-file entry),
a frozen copy of the object-building plan loader, and frozen copies of
the object-building relocation and the plan writer that read its dicts.
"""

import json
import math
import sys
from json.encoder import encode_basestring_ascii

from cambarrier.barrier_graph import SINK, SOURCE
from cambarrier.geometry import CameraParams, CameraPose, Point2D
from cambarrier.grid_deploy import assign_orientations, assign_to_vertices, elect_grid_heads, partition
from cambarrier.grid_model import (
    MAX_CELLS,
    ORIENT_DOWN,
    ORIENT_UP,
    CameraRecord,
    DeploymentPlan,
    GridModel,
    VertexAssignment,
    grid_length_bound,
)

TAU = 2.0 * math.pi
EPS = 1e-9


def ref_covers(camera, p):
    dx = p.x - camera.position.x
    dy = p.y - camera.position.y
    d = math.sqrt(dx * dx + dy * dy)
    if d <= EPS:
        return True
    if d >= camera.params.r + EPS:
        return False
    diff = abs(math.fmod(math.atan2(dy, dx) - camera.facing, TAU))
    diff = min(diff, TAU - diff)
    return diff < camera.params.phi / 2.0 + EPS


def ref_gaps(bearings):
    ordered = sorted(b % TAU for b in bearings)
    if len(ordered) == 1:
        return [TAU]
    gaps = [ordered[k + 1] - ordered[k] for k in range(len(ordered) - 1)]
    gaps.append(ordered[0] + TAU - ordered[-1])
    return gaps


def ref_full_view_point(p, cameras, theta, axis=0.0):
    bearings = []
    for cam in cameras:
        if not ref_covers(cam, p):
            continue
        dx = cam.position.x - p.x
        dy = cam.position.y - p.y
        if math.sqrt(dx * dx + dy * dy) <= EPS:
            continue
        bearings.append(math.atan2(dy, dx) % TAU)
    if not bearings:
        return False
    if axis is not None:
        bearings.append(axis % TAU)
        bearings.append((axis + math.pi) % TAU)
    return max(ref_gaps(bearings)) <= 2.0 * theta + EPS


def boundary_margin(p, cameras):
    """Smallest distance of the scene from any ref_covers() decision boundary.

    Used by randomized equivalence tests to skip configurations where a
    single float ulp could legitimately flip the verdict.
    """
    margin = math.inf
    for cam in cameras:
        dx = p.x - cam.position.x
        dy = p.y - cam.position.y
        d = math.sqrt(dx * dx + dy * dy)
        margin = min(margin, abs(d - cam.params.r), d)
        if d > 0:
            diff = abs(math.fmod(math.atan2(dy, dx) - cam.facing, TAU))
            diff = min(diff, TAU - diff)
            margin = min(margin, abs(diff - cam.params.phi / 2.0))
    return margin


def brute_force_min_weight(g):
    """Minimum s-t path weight by exhaustive simple-path enumeration."""
    best = [None]

    def dfs(node, dist, visited):
        if best[0] is not None and dist > best[0]:
            return
        if node == SINK:
            best[0] = dist if best[0] is None else min(best[0], dist)
            return
        for nb, w in g.adj[node].items():
            if nb == SOURCE or nb in visited:
                continue
            dfs(nb, dist + w, visited | {nb})

    dfs(SOURCE, 0, frozenset())
    return best[0]


def brute_force_lex_best_path(g):
    """All minimum-weight s-t paths, lexicographically smallest first."""
    paths = []

    def dfs(node, dist, path, visited):
        if node == SINK:
            paths.append((dist, tuple(path)))
            return
        for nb, w in g.adj[node].items():
            if nb == SOURCE or nb in visited:
                continue
            dfs(nb, dist + w, path + ([nb] if nb != SINK else []), visited | {nb})

    dfs(SOURCE, 0, [], frozenset())
    if not paths:
        return None
    best = min(d for d, _ in paths)
    return min(p for d, p in paths if d == best)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def ref_dumps(obj):
    """The JSON text ``serialize.dumps`` must write: a copy of ``obj``
    with every float rounded to 9 significant digits, through
    ``json.dumps`` with a two-space indent and sorted keys."""
    return json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n"


# The dict views of the line-deployment and barrier documents: what
# ``serialize.line_deployment_json`` and ``barrier_graph.barrier_json``
# must write, byte for byte, as ``serialize.dumps`` of these.  The tests
# also write camera files with ``camera_to_dict``.


def camera_to_dict(camera):
    return {
        "id": camera.id,
        "x": camera.position.x,
        "y": camera.position.y,
        "facing": camera.facing,
        "r": camera.params.r,
        "phi": camera.params.phi,
        "theta": camera.params.theta,
    }


def line_deployment_to_dict(dep):
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


def barrier_to_dict(result):
    """The barrier document without its ``"graph"``, which the tests add
    as ``serialize.graph_to_dict`` of the barrier's graph."""
    return {
        "exists": result.exists,
        "path": [list(c) for c in result.path],
        "total_weight": result.total_weight,
        "camera_count": result.camera_count,
    }


# A frozen copy of ``serialize.plan_from_dict`` and the camera loader it
# calls, as they were before the plan check was split from the object
# building: the reference for which first error each malformed plan gets.

_FLOAT_MAX = sys.float_info.max


def _ref_finite(value):
    return (type(value) is float or type(value) is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _ref_camera(data, params):
    for key in ("x", "y", "facing", "r", "phi", "theta"):
        value = data[key]
        if not _ref_finite(value):
            raise ValueError(f"camera field {key!r} must be a finite number, got {value!r}")
    position = Point2D(float(data["x"]), float(data["y"]))
    triple = (data["r"], data["phi"], data["theta"])
    shared = params.get(triple)
    if shared is None:
        shared = params[triple] = CameraParams(r=float(triple[0]), phi=float(triple[1]), theta=float(triple[2]))
    return CameraPose(id=data["id"], position=position, facing=float(data["facing"]), params=shared)


def _ref_error(key, expected, value):
    return ValueError(f"plan field {key!r} must be {expected}, got {value!r}")


def _ref_number(value, key):
    if not _ref_finite(value):
        raise _ref_error(key, "a finite number", value)
    return float(value)


def _ref_id(value, key):
    if type(value) is not int or value < 0:
        raise _ref_error(key, "a non-negative integer", value)
    return value


def _ref_duty(value, key):
    return None if value is None else _ref_id(value, key)


def _ref_ids(value, key):
    if type(value) is list:
        for cid in value:
            if type(cid) is not int or cid < 0:
                break
        else:
            return tuple(value)
    raise _ref_error(key, "a list of non-negative integers", value)


def _ref_pair(value, key, rows, cols):
    if type(value) is list and len(value) == 2:
        i, j = value
        if type(i) is int and type(j) is int and 0 < i <= rows and 0 < j <= cols:
            return (i, j)
    raise _ref_error(key, f"a pair of integers in [1, {rows}] x [1, {cols}]", value)


def _ref_orientation(value, key):
    if value is not None and value != ORIENT_DOWN and value != ORIENT_UP:
        raise _ref_error(key, f"{ORIENT_DOWN!r}, {ORIENT_UP!r} or null", value)
    return value


def _ref_unknown_camera(cell_members, heads, assignments, poses):
    fields = [("cameras", ids) for ids in cell_members.values()]
    fields.append(("id", heads.values()))
    for a in assignments.values():
        fields += [("stationed", a.stationed), ("down", (a.down,)), ("up", (a.up,)), ("silent", a.silent)]
    key, cid = next((key, cid) for key, ids in fields for cid in ids if cid is not None and cid not in poses)
    return _ref_error(key, "the id of a camera in 'cameras'", cid)


def ref_plan_from_dict(data):
    """The plan a plan JSON describes, or the error it raises, as the
    library loaded plans before it checked them without building them."""
    gd = data["grid"]
    for key in ("m", "n"):
        if type(gd[key]) is not int or gd[key] < 1:
            raise _ref_error(key, "an integer >= 1", gd[key])
    m, n = gd["m"], gd["n"]
    if m * n > MAX_CELLS:
        raise ValueError(f"a {m} x {n} plan grid exceeds {MAX_CELLS} cells")
    params = {}
    poses = {}
    records = {}
    for c in data["cameras"]:
        pose = _ref_camera(c, params)
        poses[pose.id] = pose
        records[pose.id] = CameraRecord(
            camera_id=pose.id,
            origin=pose.position,
            vertex=_ref_pair(c["vertex"], "vertex", m + 1, n + 1),
            distance=_ref_number(c["distance"], "distance"),
            orientation=_ref_orientation(c["orientation"], "orientation"),
        )
    grid = GridModel(
        width=_ref_number(gd["width"], "width"),
        height=_ref_number(gd["height"], "height"),
        d=_ref_number(gd["d"], "d"),
        m=m,
        n=n,
        cell_members={_ref_pair(entry["cell"], "cell", m, n): _ref_ids(entry["cameras"], "cameras") for entry in data["cells"]},
        poses=poses,
    )
    assignments = {}
    for entry in data["assignments"]:
        v = _ref_pair(entry["vertex"], "vertex", m + 1, n + 1)
        assignments[v] = VertexAssignment(
            vertex=v,
            stationed=_ref_ids(entry["stationed"], "stationed"),
            down=_ref_duty(entry["down"], "down"),
            up=_ref_duty(entry["up"], "up"),
            silent=_ref_ids(entry["silent"], "silent"),
        )
    heads = {_ref_pair(entry["cell"], "cell", m, n): _ref_id(entry["id"], "id") for entry in data["heads"]}
    named = set(heads.values())
    named.update(*grid.cell_members.values())
    for a in assignments.values():
        named.update(a.stationed, a.silent, (a.down, a.up))
    named.discard(None)
    if not named.issubset(poses):
        raise _ref_unknown_camera(grid.cell_members, heads, assignments, poses)
    if type(data["d_within_bound"]) is not bool:
        raise _ref_error("d_within_bound", "true or false", data["d_within_bound"])
    return DeploymentPlan(
        grid=grid,
        heads=heads,
        assignments=assignments,
        records=records,
        deficits=tuple(
            (_ref_pair(entry["vertex"], "vertex", m + 1, n + 1), _ref_orientation(entry["orientation"], "orientation"))
            for entry in data["deficits"]
        ),
        d_within_bound=data["d_within_bound"],
    )


# A frozen copy of ``grid_deploy.run_algorithm1`` as it was before it
# relocated on arrays: the paper's named steps over dicts of ids.


def _ref_requirements(i, m):
    if i == 1:
        return (ORIENT_DOWN,)
    if i == m + 1:
        return (ORIENT_UP,)
    return (ORIENT_DOWN, ORIENT_UP)


def ref_run_algorithm1(width, height, cameras, d):
    """The plan the object pipeline made: every field a dict or tuple."""
    grid = partition(width, height, d, cameras)
    heads = elect_grid_heads(grid)
    vertex_sets = {}
    for cell in sorted(grid.cell_members):
        for v, ids in assign_to_vertices(cell, grid.cell_members[cell], grid).items():
            if ids:
                vertex_sets.setdefault(v, []).extend(ids)
    assignments = assign_orientations(grid, vertex_sets)
    records = {}
    for v in sorted(assignments):
        a = assignments[v]
        pos = grid.vertex_position(*v)
        for cid in a.stationed:
            if cid == a.down:
                orientation = ORIENT_DOWN
            elif cid == a.up:
                orientation = ORIENT_UP
            else:
                orientation = None
            origin = grid.poses[cid].position
            records[cid] = CameraRecord(cid, origin, v, origin.distance_to(pos), orientation)
    deficits = []
    for i in range(1, grid.m + 2):
        for j in range(1, grid.n + 2):
            a = assignments.get((i, j))
            for role in _ref_requirements(i, grid.m):
                if a is None or getattr(a, role) is None:
                    deficits.append(((i, j), role))
    d_ok = d <= grid_length_bound(min(c.params.r for c in cameras)) + EPS if cameras else True
    return DeploymentPlan(grid, heads, assignments, records, tuple(deficits), d_ok)


# A frozen copy of ``serialize.plan_json`` as it was before it wrote from
# arrays: one f-string per record, read from the plan's dicts.

_INF = float("inf")


def _writer_number(value):
    text = f"{value:.9g}"
    if "." in text and "e" not in text:
        return text
    if type(value) is int:
        return int.__repr__(value)
    value = float(text)
    if value != value:
        return "NaN"
    if value in (_INF, -_INF):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _writer_ids(ids):
    return "[\n        " + ",\n        ".join(map(int.__repr__, ids)) + "\n      ]" if ids else "[]"


def _writer_duty(cid):
    return "null" if cid is None else int.__repr__(cid)


def _writer_role(role):
    return "null" if role is None else encode_basestring_ascii(role)


def _writer_section(items):
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def ref_plan_json(plan):
    """The plan JSON the dict-reading writer wrote."""
    g = plan.grid
    cells = [
        f'    {{\n      "cameras": {_writer_ids(ids)},\n      "cell": [\n        {i},\n        {j}\n      ]\n    }}'
        for (i, j), ids in sorted(g.cell_members.items())
    ]
    heads = [
        f'    {{\n      "cell": [\n        {i},\n        {j}\n      ],\n      "id": {int.__repr__(cid)}\n    }}'
        for (i, j), cid in sorted(plan.heads.items())
    ]
    assignments = [
        f'    {{\n      "down": {_writer_duty(a.down)},\n      "silent": {_writer_ids(a.silent)},\n'
        f'      "stationed": {_writer_ids(a.stationed)},\n      "up": {_writer_duty(a.up)},\n'
        f'      "vertex": [\n        {i},\n        {j}\n      ]\n    }}'
        for (i, j), a in sorted(plan.assignments.items())
    ]
    cameras = []
    for key in sorted(plan.records):
        rec = plan.records[key]
        pose = g.poses[rec.camera_id]
        p = pose.params
        i, j = rec.vertex
        cameras.append(
            f'    {{\n      "distance": {_writer_number(rec.distance)},\n      "facing": {_writer_number(pose.facing)},\n'
            f'      "id": {int.__repr__(rec.camera_id)},\n      "orientation": {_writer_role(rec.orientation)},\n'
            f'      "phi": {_writer_number(p.phi)},\n      "r": {_writer_number(p.r)},\n      "theta": {_writer_number(p.theta)},\n'
            f'      "vertex": [\n        {i},\n        {j}\n      ],\n'
            f'      "x": {_writer_number(rec.origin.x)},\n      "y": {_writer_number(rec.origin.y)}\n    }}'
        )
    deficits = [
        f'    {{\n      "orientation": {_writer_role(role)},\n      "vertex": [\n        {i},\n        {j}\n      ]\n    }}'
        for (i, j), role in plan.deficits
    ]
    return (
        f'{{\n  "assignments": {_writer_section(assignments)},\n  "cameras": {_writer_section(cameras)},\n'
        f'  "cells": {_writer_section(cells)},\n  "d_within_bound": {"true" if plan.d_within_bound else "false"},\n'
        f'  "deficits": {_writer_section(deficits)},\n  "grid": {{\n    "d": {_writer_number(g.d)},\n'
        f'    "height": {_writer_number(g.height)},\n    "m": {int.__repr__(g.m)},\n    "n": {int.__repr__(g.n)},\n'
        f'    "width": {_writer_number(g.width)}\n  }},\n  "heads": {_writer_section(heads)}\n}}\n'
    )
