"""JSON and CSV interchange for plans, graphs, barriers and sweeps.

All floats serialize with 9 significant digits.  JSON output is sorted
and indented, CSV rows follow the fixed header
``x,estimate,trials,successes,stderr``; both are byte-stable for
identical inputs.
"""

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .geometry import TAU, CameraParams, CameraPose, Point2D, check_integer, size_text
from .grid_model import (
    MAX_CELLS,
    ORIENT_DOWN,
    ORIENT_UP,
    ORIENTATIONS,
    CameraRecord,
    DeploymentPlan,
    GridModel,
    VertexAssignment,
)
from .line_model import LineDeployment

CSV_HEADER = "x,estimate,trials,successes,stderr"

_FLOAT_MAX = sys.float_info.max
_INF = float("inf")


def dumps(obj) -> str:
    """Deterministic JSON text: ``json.dumps(..., indent=2, sort_keys=True)``
    of a copy of ``obj`` with every float rounded to 9 significant digits,
    and a newline at the end.  It raises what ``json.dumps`` raises."""
    return json.dumps(_rounded(obj), indent=2, sort_keys=True) + "\n"


def _rounded(value):
    """A copy of ``value`` with every float (``np.float64`` included)
    replaced by ``float(f"{v:.9g}")`` and every tuple by a list; dict keys
    are left as they are."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _number(value) -> str:
    """The JSON text of a float rounded to 9 significant digits, as
    :func:`dumps` writes it, for the template writers.  An exact ``int``
    is written as :func:`dumps` writes ints, so that a plan built from
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


def format_number(value) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV representation")
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def sweep_csv_text(result) -> str:
    """The CSV of a :class:`~cambarrier.simulate.SweepResult`: the header
    and one line per row."""
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(
            ",".join(
                format_number(v)
                for v in (row.x, row.estimate, row.trials, row.successes, row.stderr)
            )
        )
    return "\n".join(lines) + "\n"


#: Camera-file fields that must be finite numbers.
_CAMERA_NUMBERS = ("x", "y", "facing", "r", "phi", "theta")

#: The fields of a plan's camera record, read at once: a camera-file
#: entry's seven (``_CAMERA``) and then the relocation's three.
_PLAN_CAMERA = itemgetter(*_CAMERA_NUMBERS, "id", "distance", "vertex", "orientation")
_CAMERA = itemgetter(*_CAMERA_NUMBERS, "id")
_ASSIGNMENT = itemgetter("vertex", "stationed", "down", "up", "silent")


def _non_finite(data: dict, keys) -> str | None:
    """The first of ``keys`` whose value in ``data`` is not a finite JSON
    number, or None; the values are read in the order of ``keys``."""
    for key in keys:
        value = data[key]
        # Exact types: JSON numbers load as int or float, and bool is
        # neither.  The range test rejects NaN, infinities and ints too
        # large for a float.
        if (type(value) is not float and type(value) is not int) or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return key
    return None


def _camera_params(data: dict, params: dict, k: int) -> CameraParams:
    """Check entry ``k`` of a camera list, for :func:`cameras_from_list`
    and :func:`plan_duties` alike: the six numbers, each a finite JSON
    number (bools, strings, nulls, NaN and infinities are rejected, not
    converted), then the ``(r, phi, theta)`` triple (once per distinct
    triple, through ``params``, so the cameras of one load share their
    :class:`CameraParams`), then the id, so that an entry with several
    faults always gets the same error.  An entry that is not an object, or
    lacks a field, is named by its index ``k``.  Returns the triple's
    shared :class:`CameraParams`."""
    if type(data) is not dict:
        raise _not_object(f"cameras[{k}]", data)
    try:
        key = _non_finite(data, _CAMERA_NUMBERS)
        if key is not None:
            raise ValueError(f"camera field {key!r} must be a finite number, got {size_text(data[key], repr)}")
        triple = (data["r"], data["phi"], data["theta"])
        shared = params.get(triple)
        if shared is None:
            shared = params[triple] = _params(*map(float, triple))
        check_integer("camera id", data["id"], 0)
    except KeyError as exc:
        raise _missing(f"cameras[{k}]", exc) from None
    return shared


def _not_object(path: str, value) -> ValueError:
    return ValueError(f"{path}: expected a JSON object, got {type(value).__name__}")


def _missing(path: str, exc: KeyError) -> ValueError:
    return ValueError(f"{path}: missing field {exc.args[0]!r}")


#: A facing just below 2*pi is written as this, which is past 2*pi and
#: would wrap to about 3e-9; it reads back as the largest bearing below
#: 2*pi, which is written the same way.  A field of view of 2*pi is
#: written the same way too, past its bound by more than ``EPS``, and
#: reads back as 2*pi; an effective angle of pi/2 is written as
#: ``_HALF_PI_TEXT`` and reads back as pi/2.
_TAU_TEXT = float(f"{TAU:.9g}")
_BELOW_TAU = math.nextafter(TAU, 0.0)
_HALF_PI = math.pi / 2
_HALF_PI_TEXT = float(f"{_HALF_PI:.9g}")


def _params(r, phi, theta) -> CameraParams:
    """The hardware of a camera entry, its numbers as written but for the
    texts of the bounds 2*pi and pi/2 (see ``_TAU_TEXT``)."""
    return CameraParams(r, TAU if phi == _TAU_TEXT else phi, _HALF_PI if theta == _HALF_PI_TEXT else theta)


def _pose(data: dict, params: CameraParams) -> CameraPose:
    """The pose of a camera-file entry :func:`_camera_params` passed, its
    numbers as written."""
    facing = _BELOW_TAU if data["facing"] == _TAU_TEXT else data["facing"]
    return CameraPose(id=data["id"], position=Point2D(data["x"], data["y"]), facing=facing, params=params)


def cameras_from_list(entries):
    """The cameras of a camera file, in file order, as arrays; no pose is
    built.  An entry whose six numbers are finite floats, whose id is an
    int >= 0 and whose ``(r, phi, theta)`` an earlier entry checked passes
    one test; any other is checked by :func:`_camera_params`, in file
    order, so a file with faults gets the error of the first."""
    # Imported here: the commands that only read a plan never load numpy.
    import numpy as np

    from .full_view import Cameras, normalize_bearings

    entries = list(entries)
    params = {}
    shared = []
    for k, e in enumerate(entries):
        hardware = None
        if type(e) is dict:
            try:
                x, y, facing, r, phi, theta, cid = _CAMERA(e)
            except KeyError:
                pass
            else:
                # Zero times a sum of finite floats is zero; an infinity or
                # a NaN makes it NaN.
                if (
                    type(x) is type(y) is type(facing) is type(r) is type(phi) is type(theta) is float
                    and 0.0 * (x + y + facing + r + phi + theta) == 0.0
                    and type(cid) is int
                    and cid >= 0
                ):
                    hardware = params.get((r, phi, theta))
        shared.append(hardware or _camera_params(e, params, k))
    ids = [entry["id"] for entry in entries]
    x, y, facing = (np.array([entry[key] for entry in entries], dtype=float) for key in ("x", "y", "facing"))
    r = np.array([p.r for p in shared], dtype=float)
    half = np.array([p.phi / 2.0 for p in shared], dtype=float)
    return Cameras(x, y, normalize_bearings(facing), r, half, ids, shared)


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


def _numbers(values: list) -> list[str]:
    """:func:`_number` of every value: the 9-digit texts in one ``%``
    formatting, then :func:`_number` on the few that are not already its
    answer (those with no point or with an exponent)."""
    joined = "%.9g\n" * len(values) % tuple(values)
    texts = joined.split("\n")
    texts.pop()
    # A text holds at most one point, so with as many points as texts and
    # no exponent every text is final.
    if "e" in joined or joined.count(".") != len(texts):
        for k in [k for k, text in enumerate(texts) if "." not in text or "e" in text]:
            texts[k] = _number(values[k])
    return texts


def _id_list(texts) -> str:
    """A list of camera ids, given as their texts, at the depth of a plan
    record's fields."""
    return "[\n        " + ",\n        ".join(texts) + "\n      ]" if texts else "[]"


def _role(role) -> str:
    return "null" if role is None else _quote(role)


#: The text of each duty code of a :class:`~cambarrier.grid_deploy.Relocation`.
_ROLE_TEXT = tuple(_role(role) for role in ORIENTATIONS)


def _section(items: list) -> str:
    if not items:
        return "[]"
    joined = ",\n".join(items)
    return f"[\n{joined}\n  ]"


def _hardware(params: CameraParams, cache: dict) -> str:
    """The ``"phi"``, ``"r"`` and ``"theta"`` lines of a camera record
    whose fields sit at a six-space indent, made once per
    :class:`CameraParams` and kept in ``cache`` by its ``id``."""
    lines = cache.get(id(params))
    if lines is None:
        lines = cache[id(params)] = (
            f'"phi": {_number(params.phi)},\n      "r": {_number(params.r)},\n'
            f'      "theta": {_number(params.theta)}'
        )
    return lines


def line_deployment_json(dep: LineDeployment) -> str:
    """The text :func:`dumps` writes of ``dep`` as a dict: ``"barrier"``
    (``ax``, ``ay``, ``bx``, ``by``), ``"params"`` (``h``, ``delta``,
    ``alpha``), ``"count"`` and ``"cameras"``, each camera's ``id``,
    ``x``, ``y``, ``facing``, ``r``, ``phi`` and ``theta`` (the dict
    ``tests/helpers.line_deployment_to_dict`` builds).  It is written as
    :func:`plan_json` writes a plan: one f-string per camera record, its
    keys in sorted order.

    The deployment's fields must hold the types :func:`place_line_deployment
    <cambarrier.line_model.place_line_deployment>` gives them: ``int`` or
    ``float`` lengths and coordinates and ``int`` ids."""
    a, b = dep.barrier.a, dep.barrier.b
    p = dep.params
    hardware = {}
    cameras = [
        f'    {{\n      "facing": {_number(c.facing)},\n      "id": {int.__repr__(c.id)},\n'
        f'      {_hardware(c.params, hardware)},\n      "x": {_number(c.position.x)},\n'
        f'      "y": {_number(c.position.y)}\n    }}'
        for c in dep.cameras
    ]
    return (
        f'{{\n  "barrier": {{\n    "ax": {_number(a.x)},\n    "ay": {_number(a.y)},\n'
        f'    "bx": {_number(b.x)},\n    "by": {_number(b.y)}\n  }},\n  "cameras": {_section(cameras)},\n'
        f'  "count": {len(dep.cameras)},\n  "params": {{\n    "alpha": {_number(p.alpha)},\n'
        f'    "delta": {_number(p.delta)},\n    "h": {_number(p.h)}\n  }}\n}}\n'
    )


def plan_json(plan: DeploymentPlan) -> str:
    """The text :func:`dumps` writes of :func:`plan_to_dict` of ``plan``.

    A plan :func:`run_algorithm1 <cambarrier.grid_deploy.run_algorithm1>`
    made is written from its :class:`~cambarrier.grid_deploy.Relocation`
    in one pass, with no dict tree and without its dict views: one
    f-string per record kind, its keys in sorted order, each id's text
    made once.  Floats go through :func:`_number` and ids through
    ``int.__repr__``; the ``phi``, ``r`` and ``theta`` text is made once
    per :class:`CameraParams` of the plan.  Any other plan is written as
    ``dumps(plan_to_dict(plan))``."""
    rel = plan.relocation
    if rel is None:
        return dumps(plan_to_dict(plan))
    g, cameras = plan.grid, rel.cameras
    ids = list(map(int.__repr__, cameras.ids))
    occupied = rel.cells(ids)
    cells = [
        f'    {{\n      "cameras": {_id_list(labels)},\n      "cell": [\n        {i},\n        {j}\n      ]\n    }}'
        for (i, j), labels in occupied
    ]
    heads = [
        f'    {{\n      "cell": [\n        {i},\n        {j}\n      ],\n      "id": {labels[0]}\n    }}'
        for (i, j), labels in occupied
    ]
    assignments = [
        f'    {{\n      "down": {down or "null"},\n      "silent": {_id_list(silent)},\n'
        f'      "stationed": {_id_list(stationed)},\n      "up": {up or "null"},\n'
        f'      "vertex": [\n        {i},\n        {j}\n      ]\n    }}'
        for (i, j), stationed, down, up, silent in rel.duties(ids)
    ]
    hardware = {}
    for params in {id(params): params for params in cameras.params}.values():
        _hardware(params, hardware)
    xs, ys = cameras.coordinates()
    records = [
        f'    {{\n      "distance": {distance},\n      "facing": {facing},\n      "id": {cid},\n'
        f'      "orientation": {role},\n      {lines},\n'
        f'      "vertex": [\n        {i},\n        {j}\n      ],\n      "x": {x},\n      "y": {y}\n    }}'
        for distance, facing, cid, role, lines, i, j, x, y in zip(
            _numbers(rel.distance),
            _numbers(cameras.facing.tolist()),
            ids,
            map(_ROLE_TEXT.__getitem__, rel.role.tolist()),
            map(hardware.__getitem__, map(id, cameras.params)),
            rel.vertex_i.tolist(),
            rel.vertex_j.tolist(),
            _numbers(xs),
            _numbers(ys),
        )
    ]
    return (
        f'{{\n  "assignments": {_section(assignments)},\n  "cameras": {_section(records)},\n'
        f'  "cells": {_section(cells)},\n  "d_within_bound": {"true" if plan.d_within_bound else "false"},\n'
        f'  "deficits": {_relocation_deficits(rel)},\n  "grid": {{\n    "d": {_number(g.d)},\n'
        f'    "height": {_number(g.height)},\n    "m": {int.__repr__(g.m)},\n    "n": {int.__repr__(g.n)},\n'
        f'    "width": {_number(g.width)}\n  }},\n  "heads": {_section(heads)}\n}}\n'
    )


def _relocation_deficits(rel) -> str:
    """The deficits section of ``rel``'s plan.  Each record is the text of
    its (row, duty) followed by that of its column, both made once, and
    the section is one join of those pieces."""
    rows, cols, duties = rel.deficit_columns()
    if not rows.size:
        return "[]"
    heads = [_deficit_head(text, i) for i in range(1, rel.m + 2) for text in _ROLE_TEXT]
    tails = [_deficit_tail(j) + ",\n" for j in range(1, rel.n + 2)]
    pieces = [None] * (2 * rows.size + 2)
    pieces[1:-1:2] = map(heads.__getitem__, (len(_ROLE_TEXT) * (rows - 1) + duties).tolist())
    pieces[2:-1:2] = map(tails.__getitem__, (cols - 1).tolist())
    pieces[0], pieces[-2], pieces[-1] = "[\n", _deficit_tail(int(cols[-1])), "\n  ]"
    return "".join(pieces)


def _deficit_head(role: str, i: int) -> str:
    return f'    {{\n      "orientation": {role},\n      "vertex": [\n        {i},\n        '


def _deficit_tail(j: int) -> str:
    return f'{j}\n      ]\n    }}'


def _plan_error(key: str, expected: str, value) -> ValueError:
    return ValueError(f"plan field {key!r} must be {expected}, got {size_text(value, repr)}")


def _plan_numbers(data: dict, keys) -> None:
    key = _non_finite(data, keys)
    if key is not None:
        raise _plan_error(key, "a finite number", data[key])


def _plan_id(value, key: str) -> int:
    if type(value) is not int or value < 0:
        raise _plan_error(key, "a non-negative integer", value)
    return value


def _plan_duty(value, key: str):
    """The camera serving one orientation at a vertex, or None."""
    return None if value is None else _plan_id(value, key)


def _plan_ids(value, key: str) -> list[int]:
    if type(value) is list:
        for cid in value:
            if type(cid) is not int or cid < 0:
                break
        else:
            return value
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


def _unknown_camera(known: set, *fields) -> ValueError:
    """The error for the first id in ``fields``, ``(key, ids)`` pairs,
    that is not in ``known``; one must be."""
    key, cid = next((key, cid) for key, ids in fields for cid in ids if cid not in known)
    return _plan_error(key, "the id of a camera in 'cameras'", cid)


def _plan_field(obj, key: str, path: str):
    """``obj[key]``, where ``obj`` is the value at ``path`` in a plan and
    must be an object holding ``key``."""
    if type(obj) is not dict:
        raise _not_object(path, obj)
    try:
        return obj[key]
    except KeyError as exc:
        raise _missing(path, exc) from None


def _plan_list(data: dict, key: str) -> list:
    """The section ``data[key]`` of a plan, which must be a list."""
    entries = _plan_field(data, key, "plan")
    if type(entries) is not list:
        raise ValueError(f"{key}: expected a JSON list, got {type(entries).__name__}")
    return entries


def _plan_sections(data: dict) -> tuple:
    """Check a plan JSON in one walk, for :func:`plan_duties` and
    :func:`plan_from_dict` alike, and return ``(m, n, cells, assignments,
    heads, deficits)``: each cell's camera ids, each vertex's
    ``(stationed, down, up, silent)``, each cell's head and the list of
    ``(vertex, orientation)`` deficits, keyed by ``(i, j)`` pairs."""
    gd = _plan_field(data, "grid", "plan")
    for key in ("m", "n"):
        value = _plan_field(gd, key, "grid")
        if type(value) is not int or value < 1:
            raise _plan_error(key, "an integer >= 1", value)
    m, n = gd["m"], gd["n"]
    if m * n > MAX_CELLS:
        raise ValueError(f"a {size_text(m)} x {size_text(n)} plan grid exceeds {MAX_CELLS} cells")
    rows, cols = m + 1, n + 1
    params = {}
    # The ids of the plan's cameras, and None, which stands for an
    # unfilled duty.
    known = {None}
    cells, assignments, heads, deficits = {}, {}, {}, []
    # ``section`` and ``k`` name the entry being read, for the error when
    # it lacks the field read next.
    k = None
    try:
        for k, e in enumerate(_plan_list(data, section := "cameras")):
            # One test passes a record whose fields hold their usual types
            # and ranges (as cameras_from_list's) and whose (r, phi, theta)
            # an earlier record checked; the ordered checks below name the
            # first fault of any other.
            if type(e) is dict:
                try:
                    x, y, facing, r, phi, theta, cid, distance, vertex, orientation = _PLAN_CAMERA(e)
                    i, j = vertex
                except (KeyError, TypeError, ValueError):
                    pass
                else:
                    if (
                        type(x) is type(y) is type(facing) is type(r) is type(phi) is type(theta) is float
                        and type(distance) is float
                        and 0.0 * (x + y + facing + r + phi + theta + distance) == 0.0
                        and type(cid) is type(i) is type(j) is int
                        and type(vertex) is list
                        and cid >= 0
                        and 0 < i <= rows
                        and 0 < j <= cols
                        and (orientation is None or orientation == ORIENT_DOWN or orientation == ORIENT_UP)
                        and (r, phi, theta) in params
                    ):
                        known.add(cid)
                        continue
            _camera_params(e, params, k)
            known.add(e["id"])
            _plan_pair(e["vertex"], "vertex", rows, cols)
            _plan_numbers(e, ("distance",))
            _plan_orientation(e["orientation"], "orientation")
        section, k = "grid", None
        _plan_numbers(gd, ("width", "height", "d"))
        for k, e in enumerate(_plan_list(data, section := "cells")):
            if type(e) is not dict:
                raise _not_object(f"{section}[{k}]", e)
            cell = _plan_pair(e["cell"], "cell", m, n)
            cells[cell] = _plan_ids(e["cameras"], "cameras")
        for k, e in enumerate(_plan_list(data, section := "assignments")):
            # One test, as for the cameras, but for the id lists, which
            # _plan_ids checks in the order of the fields.
            if type(e) is dict:
                try:
                    vertex, stationed, down, up, silent = _ASSIGNMENT(e)
                    i, j = vertex
                except (KeyError, TypeError, ValueError):
                    pass
                else:
                    if (
                        type(i) is type(j) is int
                        and type(vertex) is list
                        and 0 < i <= rows
                        and 0 < j <= cols
                        and (down is None or type(down) is int and down >= 0)
                        and (up is None or type(up) is int and up >= 0)
                    ):
                        assignments[i, j] = (_plan_ids(stationed, "stationed"), down, up, _plan_ids(silent, "silent"))
                        continue
            if type(e) is not dict:
                raise _not_object(f"{section}[{k}]", e)
            v = _plan_pair(e["vertex"], "vertex", rows, cols)
            assignments[v] = (_plan_ids(e["stationed"], "stationed"), _plan_duty(e["down"], "down"),
                              _plan_duty(e["up"], "up"), _plan_ids(e["silent"], "silent"))
        for k, e in enumerate(_plan_list(data, section := "heads")):
            if type(e) is not dict:
                raise _not_object(f"{section}[{k}]", e)
            cell = _plan_pair(e["cell"], "cell", m, n)
            heads[cell] = _plan_id(e["id"], "id")
        for ids in cells.values():
            if not known.issuperset(ids):
                raise _unknown_camera(known, ("cameras", ids))
        if not known.issuperset(heads.values()):
            raise _unknown_camera(known, ("id", heads.values()))
        for stationed, down, up, silent in assignments.values():
            if not (down in known and up in known and known.issuperset(stationed) and known.issuperset(silent)):
                fields = (("stationed", stationed), ("down", (down,)), ("up", (up,)), ("silent", silent))
                raise _unknown_camera(known, *fields)
        if type(_plan_field(data, "d_within_bound", "plan")) is not bool:
            raise _plan_error("d_within_bound", "true or false", data["d_within_bound"])
        for k, e in enumerate(_plan_list(data, section := "deficits")):
            if type(e) is not dict:
                raise _not_object(f"{section}[{k}]", e)
            v = _plan_pair(e["vertex"], "vertex", rows, cols)
            deficits.append((v, _plan_orientation(e["orientation"], "orientation")))
    except KeyError as exc:
        raise _missing(section if k is None else f"{section}[{k}]", exc) from None
    return m, n, cells, assignments, heads, deficits


def plan_duties(data: dict) -> tuple[int, int, dict]:
    """Check a plan JSON and return its grid's ``m`` and ``n`` and the
    duties of its lattice: each assigned vertex ``(i, j)`` mapped to its
    ``(down, up)`` camera ids, None for an unfilled duty.  Builds no
    pose, record, assignment, grid or plan object.

    Every field must have its exact JSON type, or ``ValueError`` is
    raised: ``m`` and ``n`` integers >= 1 with at most :data:`MAX_CELLS`
    cells, ``width``, ``height``, ``d`` and ``distance`` finite numbers,
    ids non-negative integers (``down`` and ``up`` may be null), ``cell``
    pairs of integers in [1, m] x [1, n] and ``vertex`` pairs in
    [1, m+1] x [1, n+1], ``orientation`` ``"down"``, ``"up"`` or null, and
    ``d_within_bound`` a bool.  Camera fields are checked as in
    :func:`cameras_from_list`.  The plan must be an object, its sections
    lists and their entries objects, each holding its fields; the error
    names the path of one that is not or does not, as
    ``plan: missing field 'grid'``, ``cells: expected a JSON list, got
    dict`` or ``heads[0]: missing field 'id'``.  A repeated ``cell`` or
    ``vertex`` entry replaces the earlier one, and every id in the
    ``cells``, ``heads`` and ``assignments`` entries that remain must name
    a camera in ``cameras``.  The fields are checked in a fixed order, so
    a plan with several faults always gets the same error."""
    m, n, _, assignments, _, _ = _plan_sections(data)
    return m, n, {v: (down, up) for v, (_, down, up, _) in assignments.items()}


def plan_from_dict(data: dict) -> DeploymentPlan:
    """The plan a plan JSON describes, once :func:`plan_duties`' checks
    have passed; raises what those raise.  Numbers are kept as written, so
    a plan the library wrote reads back to its own bytes; cameras with
    the same ``(r, phi, theta)``, written alike, share their
    :class:`CameraParams`."""
    m, n, cells, assignments, heads, deficits = _plan_sections(data)
    shared = {}
    poses = {}
    records = {}
    for c in data["cameras"]:
        triple = (c["r"], c["phi"], c["theta"])
        # Keyed by type too: 5 == 5.0, but the plan writes them apart.
        key = (triple, tuple(map(type, triple)))
        params = shared.get(key)
        if params is None:
            params = shared[key] = _params(*triple)
        pose = poses[c["id"]] = _pose(c, params)
        records[pose.id] = CameraRecord(
            camera_id=pose.id,
            origin=pose.position,
            vertex=tuple(c["vertex"]),
            distance=c["distance"],
            orientation=c["orientation"],
        )
    gd = data["grid"]
    grid = GridModel(
        width=gd["width"],
        height=gd["height"],
        d=gd["d"],
        m=m,
        n=n,
        cell_members={cell: tuple(ids) for cell, ids in cells.items()},
        poses=poses,
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


def _node_to_json(node):
    return node if isinstance(node, str) else list(node)


def graph_to_dict(g) -> dict:
    """The dict view of a :class:`~cambarrier.barrier_graph.CoverageGraph`."""
    return {
        "m": g.m,
        "n": g.n,
        "nodes": ["s"] + [list(c) for c in sorted(g.cells)] + ["t"],
        "edges": [
            {"u": _node_to_json(u), "v": _node_to_json(v), "weight": w, "kind": kind}
            for u, v, w, kind in g.edges()
        ],
    }

