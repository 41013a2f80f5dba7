"""JSON and CSV interchange for plans, graphs, barriers and sweeps.

All floats serialize with 9 significant digits.  JSON output is sorted
and indented, CSV rows follow the fixed header
``x,estimate,trials,successes,stderr``; both are byte-stable for
identical inputs.
"""

import sys
from json.encoder import encode_basestring_ascii as _quote

from .barrier_graph import BarrierResult, CoverageGraph
from .geometry import CameraParams, CameraPose, Point2D
from .grid_deploy import MAX_CELLS, ORIENT_DOWN, ORIENT_UP, CameraRecord, DeploymentPlan, GridModel, VertexAssignment
from .line_model import LineDeployment
from .simulate import SweepResult

CSV_HEADER = "x,estimate,trials,successes,stderr"

_FLOAT_MAX = sys.float_info.max
_INF = float("inf")


def dumps(obj) -> str:
    """Deterministic JSON text: floats rounded to 9 significant digits,
    keys sorted, two-space indent, newline at end.

    One recursive pass writes the text into a list of chunks, joined once.
    The bytes are those of ``json.dumps(tree, indent=2, sort_keys=True)``
    on a copy of ``obj`` with every float (``np.float64`` included)
    replaced by ``float(f"{v:.9g}")``, and the same inputs raise
    ``TypeError``: anything but dicts, lists, tuples, strings, ints,
    floats, bools and None, and dict keys other than strings, ints,
    floats, bools and None.
    """
    chunks = []
    _write(obj, "", "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


#: Types ``dumps`` writes by an exact ``type()`` test.
_JSON_TYPES = frozenset((str, int, float, dict, list, tuple, bool, type(None)))


def _write(value, head: str, newline: str, chunks: list) -> None:
    """Append ``head`` and then the JSON text of ``value`` to ``chunks``;
    ``newline`` is the line break and indent of the line the value ends
    on."""
    kind = type(value)
    if kind not in _JSON_TYPES:
        kind = _json_base(value)
    if kind is str:
        chunks.append(head + _quote(value))
    elif kind is int:
        chunks.append(head + int.__repr__(value))
    elif kind is float:
        chunks.append(head + _number(value))
    elif kind is dict:
        if not value:
            chunks.append(head + "{}")
            return
        inner = newline + "  "
        head += "{" + inner
        for key, item in sorted(value.items()):
            _write(item, head + (_quote(key) if type(key) is str else _key(key)) + ": ", inner, chunks)
            head = "," + inner
        chunks.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            chunks.append(head + "[]")
            return
        inner = newline + "  "
        head += "[" + inner
        for item in value:
            _write(item, head, inner, chunks)
            head = "," + inner
        chunks.append(newline + "]")
    elif value is None:
        chunks.append(head + "null")
    else:
        chunks.append(head + ("true" if value else "false"))


def _json_base(value) -> type:
    """The type a value of a subclass is written as: float first, since
    :func:`dumps` rounds every float, then the order ``json`` tests in."""
    for base in (float, dict, list, tuple, str, int):
        if isinstance(value, base):
            return base
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _number(value) -> str:
    """The JSON text of a float rounded to 9 significant digits, as
    :func:`dumps` and :func:`plan_json` write it.  An exact ``int`` is
    written as :func:`dumps` writes ints, so that a plan built from
    integer coordinates keeps the bytes of its dict view."""
    # The value written is float(text), in float.__repr__'s form.  When
    # text is plain notation with a point (exponents -4 to 8), it is that
    # form already: repr picks the fewest digits that name the double, and
    # no two decimals of at most 15 significant digits name the same
    # normal double, so those are text's own digits.
    text = f"{value:.9g}"
    if "." in text and "e" not in text:
        return text
    return int.__repr__(value) if type(value) is int else _float(float(text))


def _float(value) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _key(key) -> str:
    """A dict key that is not an exact ``str``, as ``json`` writes it:
    floats are not rounded."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


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


def _is_finite_number(value) -> bool:
    # Exact types: JSON numbers load as int or float, and bool is
    # neither.  The range test rejects NaN, infinities and ints too large
    # for a float.
    return (type(value) is float or type(value) is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def camera_from_dict(data: dict, params: dict | None = None) -> CameraPose:
    """The camera a camera-file entry describes.  Every field but ``id``
    must be a finite JSON number; bools, strings, nulls, NaN and
    infinities are rejected with ``ValueError``, not converted.

    ``params`` maps each ``(r, phi, theta)`` triple read so far in one
    load to its :class:`CameraParams`, so the cameras of a file share
    them; a triple's checks do not depend on which camera carries it.
    """
    for key in _CAMERA_NUMBERS:
        value = data[key]
        if not _is_finite_number(value):
            raise ValueError(f"camera field {key!r} must be a finite number, got {value!r}")
    position = Point2D(float(data["x"]), float(data["y"]))
    if params is None:
        params = {}
    triple = (data["r"], data["phi"], data["theta"])
    shared = params.get(triple)
    if shared is None:
        shared = params[triple] = CameraParams(r=float(triple[0]), phi=float(triple[1]), theta=float(triple[2]))
    return CameraPose(id=data["id"], position=position, facing=float(data["facing"]), params=shared)


def cameras_from_list(entries) -> list[CameraPose]:
    """The cameras of a camera file, in file order."""
    params = {}
    return [camera_from_dict(entry, params) for entry in entries]


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


def _id_list(ids) -> str:
    """A list of camera ids at the depth of a plan record's fields."""
    return "[\n        " + ",\n        ".join(map(int.__repr__, ids)) + "\n      ]" if ids else "[]"


def _duty(cid) -> str:
    return "null" if cid is None else int.__repr__(cid)


def _role(role) -> str:
    return "null" if role is None else _quote(role)


def _section(items: list) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def plan_json(plan: DeploymentPlan) -> str:
    """The text :func:`dumps` writes of :func:`plan_to_dict` of ``plan``,
    written in one pass with no dict tree: one f-string per record kind,
    its keys in sorted order.  Floats go through :func:`_number` and ids
    through ``int.__repr__``; the ``phi``, ``r`` and ``theta`` text is
    made once per :class:`CameraParams` of the plan.

    The plan's fields must hold the types :func:`run_algorithm1
    <cambarrier.grid_deploy.run_algorithm1>` and :func:`plan_from_dict`
    give them: ``int`` or ``float`` lengths and coordinates, ``int`` ids
    and pairs, a ``bool`` flag."""
    g = plan.grid
    poses = g.poses
    cells = [
        f'    {{\n      "cameras": {_id_list(ids)},\n      "cell": [\n        {i},\n        {j}\n      ]\n    }}'
        for (i, j), ids in sorted(g.cell_members.items())
    ]
    heads = [
        f'    {{\n      "cell": [\n        {i},\n        {j}\n      ],\n      "id": {int.__repr__(cid)}\n    }}'
        for (i, j), cid in sorted(plan.heads.items())
    ]
    assignments = [
        f'    {{\n      "down": {_duty(a.down)},\n      "silent": {_id_list(a.silent)},\n'
        f'      "stationed": {_id_list(a.stationed)},\n      "up": {_duty(a.up)},\n'
        f'      "vertex": [\n        {i},\n        {j}\n      ]\n    }}'
        for (i, j), a in sorted(plan.assignments.items())
    ]
    hardware = {}  # id(CameraParams) -> its "phi", "r" and "theta" lines
    cameras = []
    for key in sorted(plan.records):
        rec = plan.records[key]
        pose = poses[rec.camera_id]
        params = pose.params
        lines = hardware.get(id(params))
        if lines is None:
            lines = hardware[id(params)] = (
                f'"phi": {_number(params.phi)},\n      "r": {_number(params.r)},\n'
                f'      "theta": {_number(params.theta)}'
            )
        i, j = rec.vertex
        cameras.append(
            f'    {{\n      "distance": {_number(rec.distance)},\n      "facing": {_number(pose.facing)},\n'
            f'      "id": {int.__repr__(rec.camera_id)},\n      "orientation": {_role(rec.orientation)},\n'
            f'      {lines},\n      "vertex": [\n        {i},\n        {j}\n      ],\n'
            f'      "x": {_number(rec.origin.x)},\n      "y": {_number(rec.origin.y)}\n    }}'
        )
    deficits = [
        f'    {{\n      "orientation": {_role(role)},\n      "vertex": [\n        {i},\n        {j}\n      ]\n    }}'
        for (i, j), role in plan.deficits
    ]
    return (
        f'{{\n  "assignments": {_section(assignments)},\n  "cameras": {_section(cameras)},\n'
        f'  "cells": {_section(cells)},\n  "d_within_bound": {"true" if plan.d_within_bound else "false"},\n'
        f'  "deficits": {_section(deficits)},\n  "grid": {{\n    "d": {_number(g.d)},\n'
        f'    "height": {_number(g.height)},\n    "m": {int.__repr__(g.m)},\n    "n": {int.__repr__(g.n)},\n'
        f'    "width": {_number(g.width)}\n  }},\n  "heads": {_section(heads)}\n}}\n'
    )


def _plan_error(key: str, expected: str, value) -> ValueError:
    return ValueError(f"plan field {key!r} must be {expected}, got {value!r}")


def _plan_number(value, key: str) -> float:
    if not _is_finite_number(value):
        raise _plan_error(key, "a finite number", value)
    return float(value)


def _plan_id(value, key: str) -> int:
    if type(value) is not int or value < 0:
        raise _plan_error(key, "a non-negative integer", value)
    return value


def _plan_duty(value, key: str):
    """The camera serving one orientation at a vertex, or None."""
    return None if value is None else _plan_id(value, key)


def _plan_ids(value, key: str) -> tuple[int, ...]:
    if type(value) is list:
        for cid in value:
            if type(cid) is not int or cid < 0:
                break
        else:
            return tuple(value)
    raise _plan_error(key, "a list of non-negative integers", value)


def _plan_pair(value, key: str, rows: int, cols: int) -> tuple[int, int]:
    """A ``[i, j]`` pair with ``1 <= i <= rows`` and ``1 <= j <= cols``."""
    if type(value) is list and len(value) == 2:
        i, j = value
        if type(i) is int and type(j) is int and 0 < i <= rows and 0 < j <= cols:
            return (i, j)
    raise _plan_error(key, f"a pair of integers in [1, {rows}] x [1, {cols}]", value)


def _plan_orientation(value, key: str):
    if value is not None and value != ORIENT_DOWN and value != ORIENT_UP:
        raise _plan_error(key, f"{ORIENT_DOWN!r}, {ORIENT_UP!r} or null", value)
    return value


def _unknown_camera(cell_members, heads, assignments, poses) -> ValueError:
    """The error for the first id, taking cells, heads and assignments in
    turn, that names no camera of the plan; one must exist."""
    fields = [("cameras", ids) for ids in cell_members.values()]
    fields.append(("id", heads.values()))
    for a in assignments.values():
        fields += [("stationed", a.stationed), ("down", (a.down,)), ("up", (a.up,)), ("silent", a.silent)]
    key, cid = next((key, cid) for key, ids in fields for cid in ids if cid is not None and cid not in poses)
    return _plan_error(key, "the id of a camera in 'cameras'", cid)


def plan_from_dict(data: dict) -> DeploymentPlan:
    """The plan a plan JSON describes.  Every field must have its exact
    JSON type, or ``ValueError`` is raised: ``m`` and ``n`` integers
    >= 1 with at most :data:`MAX_CELLS` cells, ``width``, ``height``,
    ``d`` and ``distance`` finite numbers, ids non-negative integers
    (``down`` and ``up`` may be null), ``cell`` pairs of integers in
    [1, m] x [1, n] and ``vertex`` pairs in [1, m+1] x [1, n+1],
    ``orientation`` ``"down"``, ``"up"`` or null, and ``d_within_bound``
    a bool.  Camera fields are checked as in :func:`camera_from_dict`.
    Every id in ``cells``, ``heads`` and ``assignments`` must name a
    camera in ``cameras``."""
    gd = data["grid"]
    for key in ("m", "n"):
        if type(gd[key]) is not int or gd[key] < 1:
            raise _plan_error(key, "an integer >= 1", gd[key])
    m, n = gd["m"], gd["n"]
    if m * n > MAX_CELLS:
        raise ValueError(f"a {m} x {n} plan grid exceeds {MAX_CELLS} cells")
    params = {}
    poses = {}
    records = {}
    for c in data["cameras"]:
        pose = camera_from_dict(c, params)
        poses[pose.id] = pose
        records[pose.id] = CameraRecord(
            camera_id=pose.id,
            origin=pose.position,
            vertex=_plan_pair(c["vertex"], "vertex", m + 1, n + 1),
            distance=_plan_number(c["distance"], "distance"),
            orientation=_plan_orientation(c["orientation"], "orientation"),
        )
    grid = GridModel(
        width=_plan_number(gd["width"], "width"),
        height=_plan_number(gd["height"], "height"),
        d=_plan_number(gd["d"], "d"),
        m=m,
        n=n,
        cell_members={
            _plan_pair(entry["cell"], "cell", m, n): _plan_ids(entry["cameras"], "cameras") for entry in data["cells"]
        },
        poses=poses,
    )
    assignments = {}
    for entry in data["assignments"]:
        v = _plan_pair(entry["vertex"], "vertex", m + 1, n + 1)
        assignments[v] = VertexAssignment(
            vertex=v,
            stationed=_plan_ids(entry["stationed"], "stationed"),
            down=_plan_duty(entry["down"], "down"),
            up=_plan_duty(entry["up"], "up"),
            silent=_plan_ids(entry["silent"], "silent"),
        )
    heads = {_plan_pair(entry["cell"], "cell", m, n): _plan_id(entry["id"], "id") for entry in data["heads"]}
    named = set(heads.values())
    named.update(*grid.cell_members.values())
    for a in assignments.values():
        named.update(a.stationed, a.silent, (a.down, a.up))
    named.discard(None)
    if not named.issubset(poses):
        raise _unknown_camera(grid.cell_members, heads, assignments, poses)
    if type(data["d_within_bound"]) is not bool:
        raise _plan_error("d_within_bound", "true or false", data["d_within_bound"])
    return DeploymentPlan(
        grid=grid,
        heads=heads,
        assignments=assignments,
        records=records,
        deficits=tuple(
            (
                _plan_pair(entry["vertex"], "vertex", m + 1, n + 1),
                _plan_orientation(entry["orientation"], "orientation"),
            )
            for entry in data["deficits"]
        ),
        d_within_bound=data["d_within_bound"],
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
    "cameras_from_list",
    "line_deployment_to_dict",
    "plan_to_dict",
    "plan_json",
    "plan_from_dict",
    "graph_to_dict",
    "barrier_to_dict",
]
