"""Independent reference implementations used as test oracles.

These deliberately avoid the library's vectorized kernel, graph search,
JSON writers, plan check and array relocation so they can cross-check
them: plain-math full-view evaluation, exhaustive s-t path enumeration,
the standard library's JSON encoder, the dict views of the
line-deployment and barrier documents (and of one camera-file entry),
a frozen copy of the object-building plan loader, frozen copies of
the object-building relocation and the plan writer that read its dicts,
a frozen copy of the full-view kernel as it stood before its passes
were cut, which the kernel must match bit for bit, and a frozen copy of
the plan and camera-file walk as it stood before an entry could pass one
test, whose results and error texts the loaders must match.
"""

import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from cambarrier.barrier_graph import SINK, SOURCE
from cambarrier.full_view import Cameras, _mod_tau, normalize_bearings
from cambarrier.geometry import CameraParams, CameraPose, Point2D, check_integer, normalize_bearing
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


_SQUARE_BAND = 1e-12
_EPS2_LO = EPS * EPS * (1.0 - _SQUARE_BAND)
_EPS2_HI = EPS * EPS * (1.0 + _SQUARE_BAND)


def _ref_in_range(dx, dy, r):
    """The range test as it stood before its common case was cut to one
    minimum, one maximum and two counts."""
    s = dx * dx
    s += dy * dy
    reach = r + EPS
    square = reach * reach
    lo, hi = square * (1.0 - _SQUARE_BAND), square * (1.0 + _SQUARE_BAND)
    overflow = ~(hi < np.inf)
    if overflow.any():
        lo[overflow] = hi[overflow] = np.nan  # NaN settles nothing
    inside = s < lo[:, None]
    usable = inside & (s > _EPS2_HI)
    outside = s > hi[:, None]
    n_in, n_usable = np.count_nonzero(inside), np.count_nonzero(usable)
    if n_in + np.count_nonzero(outside) == s.size and n_usable == n_in:
        return usable
    unsure = ~(usable | outside | (s < _EPS2_LO))
    dist = np.hypot(dx[unsure], dy[unsure])
    usable[unsure] = (dist > EPS) & (dist < np.broadcast_to(reach[:, None], s.shape)[unsure])
    return usable


def ref_full_view_chunk(xs, ys, cameras, theta, axis):
    """``full_view._full_view_chunk`` as it stood before its passes were
    cut: every unusable bearing filled with its point's smallest one, and
    ``usable.any(axis=0)`` taken on every call."""
    npts = xs.size
    fail = np.zeros(npts, dtype=bool)
    if not len(cameras):
        return fail

    dx = xs[None, :] - cameras.x[:, None]
    dy = ys[None, :] - cameras.y[:, None]
    # Covering cameras that contribute a bearing; co-located ones do not.
    usable = _ref_in_range(dx, dy, cameras.r)
    rows = usable.any(axis=1)
    if not rows.any():
        return fail
    half, fac = cameras.half, cameras.facing
    if not rows.all():
        dx, dy, usable = dx[rows], dy[rows], usable[rows]
        half, fac = half[rows], fac[rows]
    aim = np.arctan2(dy, dx)
    aim -= fac[:, None]
    aim += math.pi
    aim = _mod_tau(aim)
    aim -= math.pi
    np.abs(aim, out=aim)
    usable &= aim < half[:, None] + EPS
    rows = usable.any(axis=1)
    if not rows.any():
        return fail
    if not rows.all():
        dx, dy, usable = dx[rows], dy[rows], usable[rows]

    # Bearings point -> camera, then the two free bearings along the axis.
    free = () if axis is None else (normalize_bearing(axis), normalize_bearing(axis + math.pi))
    k = usable.shape[0]
    bearings = np.empty((k + len(free), npts))
    np.arctan2(np.negative(dy, out=dy), np.negative(dx, out=dx), out=bearings[:k])
    bearings[:k] += np.where(bearings[:k] < 0.0, TAU, 0.0)  # _wrap_negative
    bearings[k:] = np.array(free)[:, None]
    # An unusable bearing becomes a copy of its point's smallest bearing:
    # that adds only zero gaps and keeps the first and last sorted
    # bearings and the largest gap, so no NaN has to be swept around.
    unusable = ~usable
    np.copyto(bearings[:k], np.inf, where=unusable)
    low = bearings.min(axis=0)
    low[low == np.inf] = 0.0  # no bearing at all; the point fails below
    np.copyto(bearings[:k], low, where=unusable)
    bearings.sort(axis=0)
    gap = bearings[0] + TAU - bearings[-1]
    if bearings.shape[0] > 1:
        np.maximum(gap, (bearings[1:] - bearings[:-1]).max(axis=0), out=gap)
    if axis is None:
        gap[np.count_nonzero(usable, axis=0) <= 1] = TAU
    return usable.any(axis=0) & (gap <= 2.0 * theta + EPS)


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


# A frozen copy of ``serialize``'s plan and camera-file walk as it was
# before a well-formed entry could pass one test: every entry takes the
# ordered checks.  The reference for the result, and the error text, of
# each malformed plan or camera file.

_CAMERA_NUMBERS = ("x", "y", "facing", "r", "phi", "theta")
_TAU_TEXT = float(f"{TAU:.9g}")
_BELOW_TAU = math.nextafter(TAU, 0.0)
_HALF_PI_TEXT = float(f"{math.pi / 2:.9g}")


def _walk_non_finite(data, keys):
    for key in keys:
        value = data[key]
        if (type(value) is not float and type(value) is not int) or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return key
    return None


def _walk_params(r, phi, theta):
    return CameraParams(r, TAU if phi == _TAU_TEXT else phi, math.pi / 2 if theta == _HALF_PI_TEXT else theta)


def _walk_not_object(path, value):
    return ValueError(f"{path}: expected a JSON object, got {type(value).__name__}")


def _walk_missing(path, exc):
    return ValueError(f"{path}: missing field {exc.args[0]!r}")


def _walk_camera_params(data, params, k):
    if type(data) is not dict:
        raise _walk_not_object(f"cameras[{k}]", data)
    try:
        key = _walk_non_finite(data, _CAMERA_NUMBERS)
        if key is not None:
            raise ValueError(f"camera field {key!r} must be a finite number, got {data[key]!r}")
        triple = (data["r"], data["phi"], data["theta"])
        shared = params.get(triple)
        if shared is None:
            shared = params[triple] = _walk_params(*map(float, triple))
        check_integer("camera id", data["id"], 0)
    except KeyError as exc:
        raise _walk_missing(f"cameras[{k}]", exc) from None
    return shared


def walk_cameras_from_list(entries):
    """The cameras of a camera file, as the frozen walk read them."""
    entries = list(entries)
    params = {}
    shared = [_walk_camera_params(entry, params, k) for k, entry in enumerate(entries)]
    ids = [entry["id"] for entry in entries]
    x, y, facing = (np.array([entry[key] for entry in entries], dtype=float) for key in ("x", "y", "facing"))
    r = np.array([p.r for p in shared], dtype=float)
    half = np.array([p.phi / 2.0 for p in shared], dtype=float)
    return Cameras(x, y, normalize_bearings(facing), r, half, ids, shared)


def _walk_size(value):
    if value < 10**12:
        return str(value)
    from decimal import Decimal

    return f"{Decimal(value):.3g}"


def _walk_number(data, keys):
    key = _walk_non_finite(data, keys)
    if key is not None:
        raise _ref_error(key, "a finite number", data[key])


def _walk_ids(value, key):
    if type(value) is list:
        for cid in value:
            if type(cid) is not int or cid < 0:
                break
        else:
            return value
    raise _ref_error(key, "a list of non-negative integers", value)


def _walk_unknown_camera(known, *fields):
    key, cid = next((key, cid) for key, ids in fields for cid in ids if cid not in known)
    return _ref_error(key, "the id of a camera in 'cameras'", cid)


def _walk_field(obj, key, path):
    if type(obj) is not dict:
        raise _walk_not_object(path, obj)
    try:
        return obj[key]
    except KeyError as exc:
        raise _walk_missing(path, exc) from None


def _walk_list(data, key):
    entries = _walk_field(data, key, "plan")
    if type(entries) is not list:
        raise ValueError(f"{key}: expected a JSON list, got {type(entries).__name__}")
    return entries


def _walk_plan_sections(data):
    gd = _walk_field(data, "grid", "plan")
    for key in ("m", "n"):
        value = _walk_field(gd, key, "grid")
        if type(value) is not int or value < 1:
            raise _ref_error(key, "an integer >= 1", value)
    m, n = gd["m"], gd["n"]
    if m * n > MAX_CELLS:
        raise ValueError(f"a {_walk_size(m)} x {_walk_size(n)} plan grid exceeds {MAX_CELLS} cells")
    rows, cols = m + 1, n + 1
    params = {}
    known = {None}
    cells, assignments, heads, deficits = {}, {}, {}, []
    k = None
    try:
        for k, e in enumerate(_walk_list(data, section := "cameras")):
            _walk_camera_params(e, params, k)
            known.add(e["id"])
            _ref_pair(e["vertex"], "vertex", rows, cols)
            _walk_number(e, ("distance",))
            _ref_orientation(e["orientation"], "orientation")
        section, k = "grid", None
        _walk_number(gd, ("width", "height", "d"))
        for k, e in enumerate(_walk_list(data, section := "cells")):
            if type(e) is not dict:
                raise _walk_not_object(f"{section}[{k}]", e)
            cell = _ref_pair(e["cell"], "cell", m, n)
            cells[cell] = _walk_ids(e["cameras"], "cameras")
        for k, e in enumerate(_walk_list(data, section := "assignments")):
            if type(e) is not dict:
                raise _walk_not_object(f"{section}[{k}]", e)
            v = _ref_pair(e["vertex"], "vertex", rows, cols)
            assignments[v] = (_walk_ids(e["stationed"], "stationed"), _ref_duty(e["down"], "down"),
                              _ref_duty(e["up"], "up"), _walk_ids(e["silent"], "silent"))
        for k, e in enumerate(_walk_list(data, section := "heads")):
            if type(e) is not dict:
                raise _walk_not_object(f"{section}[{k}]", e)
            cell = _ref_pair(e["cell"], "cell", m, n)
            heads[cell] = _ref_id(e["id"], "id")
        for ids in cells.values():
            if not known.issuperset(ids):
                raise _walk_unknown_camera(known, ("cameras", ids))
        if not known.issuperset(heads.values()):
            raise _walk_unknown_camera(known, ("id", heads.values()))
        for stationed, down, up, silent in assignments.values():
            if not (down in known and up in known and known.issuperset(stationed) and known.issuperset(silent)):
                fields = (("stationed", stationed), ("down", (down,)), ("up", (up,)), ("silent", silent))
                raise _walk_unknown_camera(known, *fields)
        if type(_walk_field(data, "d_within_bound", "plan")) is not bool:
            raise _ref_error("d_within_bound", "true or false", data["d_within_bound"])
        for k, e in enumerate(_walk_list(data, section := "deficits")):
            if type(e) is not dict:
                raise _walk_not_object(f"{section}[{k}]", e)
            v = _ref_pair(e["vertex"], "vertex", rows, cols)
            deficits.append((v, _ref_orientation(e["orientation"], "orientation")))
    except KeyError as exc:
        raise _walk_missing(section if k is None else f"{section}[{k}]", exc) from None
    return m, n, cells, assignments, heads, deficits


def walk_plan_duties(data):
    """The grid size and duties of a plan, as the frozen walk read them."""
    m, n, _, assignments, _, _ = _walk_plan_sections(data)
    return m, n, {v: (down, up) for v, (_, down, up, _) in assignments.items()}


def walk_plan_from_dict(data):
    """The plan a plan JSON describes, as the frozen walk read it."""
    m, n, cells, assignments, heads, deficits = _walk_plan_sections(data)
    shared = {}
    poses = {}
    records = {}
    for c in data["cameras"]:
        triple = (c["r"], c["phi"], c["theta"])
        key = (triple, tuple(map(type, triple)))
        params = shared.get(key)
        if params is None:
            params = shared[key] = _walk_params(*triple)
        facing = _BELOW_TAU if c["facing"] == _TAU_TEXT else c["facing"]
        pose = poses[c["id"]] = CameraPose(id=c["id"], position=Point2D(c["x"], c["y"]), facing=facing, params=params)
        records[pose.id] = CameraRecord(
            camera_id=pose.id, origin=pose.position, vertex=tuple(c["vertex"]), distance=c["distance"],
            orientation=c["orientation"],
        )
    gd = data["grid"]
    grid = GridModel(
        width=gd["width"], height=gd["height"], d=gd["d"], m=m, n=n,
        cell_members={cell: tuple(ids) for cell, ids in cells.items()}, poses=poses,
    )
    return DeploymentPlan(
        grid=grid,
        heads=heads,
        assignments={
            v: VertexAssignment(vertex=v, stationed=tuple(stationed), down=down, up=up, silent=tuple(silent))
            for v, (stationed, down, up, silent) in assignments.items()
        },
        records=records,
        deficits=tuple(deficits),
        d_within_bound=data["d_within_bound"],
    )
