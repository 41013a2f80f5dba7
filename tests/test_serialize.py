import copy
import itertools
import json
import math
import random
import re
import sys
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambarrier.barrier_graph import barrier_json, build_graph, extract_barrier
from cambarrier.geometry import CameraParams, CameraPose, Point2D, Segment
from cambarrier.grid_deploy import run_algorithm1
from cambarrier.grid_model import duty_mask, staffed_cells
from cambarrier.line_model import LineDeploymentParams, place_line_deployment
from cambarrier.serialize import (
    cameras_from_list,
    dumps,
    graph_to_dict,
    line_deployment_json,
    plan_duties,
    plan_from_dict,
    plan_json,
    plan_to_dict,
)
from cambarrier.simulate import random_deploy

from helpers import (
    barrier_to_dict,
    camera_to_dict,
    line_deployment_to_dict,
    ref_dumps,
    ref_plan_from_dict,
    walk_cameras_from_list,
    walk_plan_duties,
    walk_plan_from_dict,
)


def outcome(write, obj):
    """What a writer does with ``obj``: its text, or the type it raises."""
    try:
        return write(obj)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


# Floats whose 10th significant digit is a 5: the 9-digit rounding edge.
edge_floats = st.builds(
    lambda mantissa, exponent: float(f"{mantissa}5e{exponent}"),
    st.integers(10**8, 10**9 - 1),
    st.integers(-330, 300),
)
floats = st.one_of(
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
    edge_floats,
    edge_floats.map(lambda v: math.nextafter(v, math.inf)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf,
                     1e16, 123456789.0, 1234567890.0, 0.0001, 0.00001, 9999999995.0, 0.99999999995]),
)
leaves = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é \U0001f600", "\ud800"]),
    st.integers(),
    st.integers(-(10**400), 10**400),
    floats,
    floats.map(np.float64),
    st.booleans(),
    st.none(),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=25,
)
keys = st.one_of(st.text(max_size=3), st.integers(), floats, st.booleans(), st.none())


class TestDumps:
    @settings(max_examples=400, deadline=None)
    @given(trees)
    def test_matches_the_standard_encoder_byte_for_byte(self, tree):
        assert dumps(tree) == ref_dumps(tree)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(keys, leaves, max_size=4))
    def test_non_string_keys_match_or_raise_alike(self, tree):
        assert outcome(dumps, tree) == outcome(ref_dumps, tree)

    @pytest.mark.parametrize(
        "tree",
        [{}, [], (), {"a": {}, "b": [], "c": ()}, [[], [{}]], 0, "", None, True, np.float64(-0.0)],
        ids=repr,
    )
    def test_empty_containers_and_bare_leaves(self, tree):
        assert dumps(tree) == ref_dumps(tree)

    @pytest.mark.parametrize(
        "tree",
        [
            np.int64(3),
            {"a": [np.int64(3)]},
            np.float32(1.5),
            np.bool_(True),
            {1, 2},
            b"bytes",
            object(),
            {(1, 2): 0},
            {1: 0, "a": 0},
        ],
        ids=repr,
    )
    def test_unsupported_values_raise_type_error_in_both(self, tree):
        assert outcome(dumps, tree) is TypeError
        assert outcome(ref_dumps, tree) is TypeError

    def test_subclasses_are_written_as_their_json_type(self):
        class Text(str):
            pass

        class Count(int):
            pass

        class Ratio(float):
            pass

        class Table(dict):
            pass

        class Row(list):
            pass

        tree = Table(a=Row([Text("x"), Count(7), Ratio(1 / 3)]), b=(Ratio(2.5),), c=Count(-1))
        assert dumps(tree) == ref_dumps(tree)

    def test_non_finite_floats_use_javascript_names(self):
        assert dumps([math.nan, math.inf, -math.inf]) == "[\n  NaN,\n  Infinity,\n  -Infinity\n]\n"

    def test_plan_round_trip_keeps_its_bytes(self):
        params = CameraParams(r=5.0, phi=2 * math.pi / 3, theta=math.pi / 4)
        plan = run_algorithm1(20.0, 10.0, random_deploy(20.0, 10.0, 60, 3, params), 4.0)
        text = dumps(plan_to_dict(plan))
        assert text == ref_dumps(plan_to_dict(plan))
        assert dumps(plan_to_dict(plan_from_dict(json.loads(text)))) == text


@st.composite
def line_deployments(draw):
    """A two-row deployment: float or integer endpoints (integer ones
    with an integer explicit spacing give integer camera coordinates),
    the barrier at any height, its endpoints in either order, and the
    optimal or an explicit off-optimal parameter triple."""
    if draw(st.booleans()):
        x0, y = draw(st.integers(-(10**12), 10**12)), draw(st.integers(-(10**12), 10**12))
        x1, y1 = x0 + draw(st.integers(1, 300)), y
    else:
        x0 = draw(st.floats(-1e6, 1e6))
        y = draw(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 1e-5, -1e-10, 123456789.0, 1e16])))
        x1 = x0 + draw(st.floats(0.01, 300.0))
        y1 = y + draw(st.sampled_from([0.0, 1e-10]))  # horizontal within EPS
    a, b = Point2D(x0, y), Point2D(x1, y1)
    if draw(st.booleans()):
        a, b = b, a
    params = draw(
        st.one_of(
            st.none(),
            st.builds(
                LineDeploymentParams,
                h=st.one_of(st.integers(1, 50), st.floats(0.1, 50.0)),
                delta=st.one_of(st.integers(1, 20), st.floats(1.0, 50.0)),
                alpha=st.floats(0.01, 6.2),
            ),
        )
    )
    r = draw(st.one_of(st.integers(1, 100), st.floats(0.5, 100.0)))
    theta = draw(st.floats(0.05, math.pi / 2))
    return place_line_deployment(Segment(a, b), r, theta=theta, params=params)


class TestLineDeploymentJson:
    @settings(max_examples=200, deadline=None)
    @given(line_deployments())
    def test_matches_the_dict_view_byte_for_byte(self, dep):
        text = line_deployment_json(dep)
        assert text == dumps(line_deployment_to_dict(dep)) == ref_dumps(line_deployment_to_dict(dep))

    def test_integer_endpoints_are_written_as_ints(self):
        dep = place_line_deployment(Segment(Point2D(0, 0), Point2D(10, 0)), 5, params=LineDeploymentParams(2, 4, 1.0))
        text = line_deployment_json(dep)
        assert '"ax": 0,' in text and '"bx": 10,' in text and '"x": 8,' in text and '"y": -2\n' in text
        assert text == ref_dumps(line_deployment_to_dict(dep))


#: Hardware triples a random plan mixes: integer fields, tiny and huge
#: radii, and a field of view whose text takes the exponent path.
HARDWARE = (
    CameraParams(r=5.0, phi=2 * math.pi / 3, theta=math.pi / 4),
    CameraParams(r=3, phi=2, theta=1),
    CameraParams(r=1e-5, phi=1e-10, theta=0.5),
    CameraParams(r=1e9, phi=math.pi, theta=1e-5),
)

#: Coordinates whose 9-digit text is written in exponent form or as an
#: integer, -1e-10 and 1e-10 lying within EPS of the region's edge.
EDGE_COORDS = (1e-5, -1e-10, -0.0, 0.0, 1e-10)


def random_plan(rng: random.Random, t: int):
    """A run_algorithm1 plan: every 10th with no cameras, every 7th on a
    1 x 1 grid, every 5th with integer lengths and coordinates, every 6th
    over 1e9 m wide; ids up to 10**30, some cameras exactly on a vertex
    and some at EDGE_COORDS or x = 1e9."""
    d = rng.uniform(0.5, 4.0)
    cols, rows = rng.uniform(1.0, 6.0), rng.uniform(1.0, 5.0)
    if t % 7 == 0:
        cols, rows = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
    if t % 5 == 0:
        d, cols, rows = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 5)
    elif t % 6 == 0:
        d, cols = 2.5e8, rng.uniform(4.0, 6.0)
    width, height = cols * d, rows * d
    count = 0 if t % 10 == 0 else rng.randint(1, 40)
    ids = set()
    while len(ids) < count:
        ids.add(rng.randrange(10**30 if t % 2 else 10**3))
    cameras = []
    for cid in ids:
        pick = rng.random()
        if pick < 0.2:  # on a vertex: travel distance 0.0
            x, y = d * rng.randint(0, int(cols)), d * rng.randint(0, int(rows))
        elif pick < 0.35:
            x, y = rng.choice(EDGE_COORDS + (min(1e9, width),)), rng.choice(EDGE_COORDS + (height,))
        elif t % 5 == 0:
            x, y = rng.randint(0, int(width)), rng.randint(0, int(height))
        else:
            x, y = rng.uniform(0.0, width), rng.uniform(0.0, height)
        facing = rng.choice((0.0, -0.0, 1e-5, 4, rng.uniform(0.0, 7.0)))
        cameras.append(CameraPose(cid, Point2D(x, y), facing, rng.choice(HARDWARE)))
    return run_algorithm1(width, height, cameras, d)


def shuffled(data, rng: random.Random):
    """``data`` with every list, and every dict's key order, shuffled."""
    if isinstance(data, dict):
        items = list(data.items())
        rng.shuffle(items)
        return {key: shuffled(value, rng) for key, value in items}
    if isinstance(data, list):
        items = [shuffled(value, rng) for value in data]
        if len(items) != 2 or not all(type(v) is int for v in items):  # keep [i, j] pairs
            rng.shuffle(items)
        return items
    return data


class TestPlanJson:
    def test_matches_the_dict_view_on_random_plans(self):
        rng = random.Random(29)
        seen = dict.fromkeys(
            ("no cameras", "1 x 1", "id > 2**64", "on a vertex", "exponent x", "x = 1e9", "int x",
             "orientation null", "silent empty", "mixed hardware"),
            0,
        )
        for t in range(400):
            plan = random_plan(rng, t)
            text = plan_json(plan)
            assert text == dumps(plan_to_dict(plan))
            if t % 20 == 0:
                assert text == ref_dumps(plan_to_dict(plan))
            records = plan.records.values()
            seen["no cameras"] += not records
            seen["1 x 1"] += plan.grid.m == plan.grid.n == 1
            seen["id > 2**64"] += any(cid > 2**64 for cid in plan.records)
            seen["on a vertex"] += any(rec.distance == 0.0 for rec in records)
            seen["exponent x"] += any("e" in f"{rec.origin.x:.9g}" for rec in records)
            seen["x = 1e9"] += '"x": 1000000000.0,' in text
            seen["int x"] += any(type(rec.origin.x) is int for rec in records)
            seen["orientation null"] += any(rec.orientation is None for rec in records)
            seen["silent empty"] += any(not a.silent for a in plan.assignments.values())
            seen["mixed hardware"] += len({plan.grid.poses[cid].params for cid in plan.records}) > 1
        assert min(seen.values()) >= 20, seen

    def test_loaded_plans_with_lists_out_of_order(self):
        rng = random.Random(31)
        for t in range(150):
            data = plan_to_dict(random_plan(rng, t))
            plan = plan_from_dict(json.loads(json.dumps(shuffled(data, rng))))
            assert plan_json(plan) == dumps(plan_to_dict(plan))

    def test_is_keyed_by_the_params_object_not_its_value(self):
        # Equal triples of different types must not share their text.
        cameras = [
            CameraPose(0, Point2D(1.0, 1.0), 0.0, CameraParams(r=3.0, phi=2.0, theta=1.0)),
            CameraPose(1, Point2D(2.0, 1.0), 0.0, CameraParams(r=3, phi=2, theta=1)),
        ]
        plan = run_algorithm1(4.0, 2.0, cameras, 2.0)
        text = plan_json(plan)
        assert text == dumps(plan_to_dict(plan))
        assert '"r": 3.0,' in text and '"r": 3,' in text

    def test_a_plan_with_a_null_deficit_role(self):
        data = plan_to_dict(run_algorithm1(4.0, 4.0, [], 2.0))
        data["deficits"][0]["orientation"] = None
        plan = plan_from_dict(data)
        assert plan_json(plan) == dumps(plan_to_dict(plan))
        assert '"orientation": null,' in plan_json(plan)


#: Valid plan JSON trees the differential test mutates: ids up to 10**30,
#: mixed hardware, 1 x 1 grids and plans with no cameras among them.
BASE_PLANS = tuple(json.loads(plan_json(random_plan(random.Random(t), t))) for t in range(1, 15))

#: What a mutation puts in place of a field: every JSON type, ints and
#: floats off their ranges, ids no camera has, and malformed pairs.
REPLACEMENTS = (
    True, False, "7", "down", None, 0, -1, 2.0, 10**400, -(10**400), 2**64, math.nan, math.inf, -math.inf,
    999999, [], {}, [999999], [0, 1], [1, 0], [1], [1, 1, 1], [1.0, 1], [True, 1], {"x": 1},
)


def tree_paths(tree, prefix=()):
    """The path of every node of a JSON tree, the root's ``()`` first."""
    yield prefix
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from tree_paths(value, prefix + (key,))
    elif isinstance(tree, list):
        for k, value in enumerate(tree):
            yield from tree_paths(value, prefix + (k,))


def node(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def mutated_plans(draw):
    """A copy of a base plan with one to three faults: a field replaced,
    a key deleted, a pair pushed off the grid, a camera id duplicated, or
    an entry repeated, its other copy naming a camera the plan lacks."""
    data = copy.deepcopy(draw(st.sampled_from(BASE_PLANS)))
    last = None
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(data, dict):
            break
        # The section first, so that the few grid fields are hit about as
        # often as the many camera fields; or the entry the last fault hit,
        # so that one entry gets two faults.
        if last is not None and len(last) >= 2 and draw(st.booleans()):
            prefix = last[:2]
        else:
            prefix = draw(st.sampled_from([(), *((key,) for key in data)]))
        try:
            paths = list(tree_paths(node(data, prefix), prefix)) if prefix else [()]
        except (KeyError, IndexError, TypeError):
            continue
        path = last = draw(st.sampled_from(paths))
        kind = draw(st.sampled_from(("replace", "delete", "off grid", "duplicate id", "repeat")))
        if kind == "delete" and path and isinstance(node(data, path[:-1]), dict):
            del node(data, path[:-1])[path[-1]]
        elif kind == "off grid" and isinstance(data.get("grid"), dict):
            m, n = data["grid"].get("m"), data["grid"].get("n")
            if type(m) is int and type(n) is int and path:
                value = draw(st.sampled_from([[m + 1, 1], [1, n + 1], [m + 2, 1], [1, n + 2], [m + 1, n + 1]]))
                node(data, path[:-1])[path[-1]] = value
        elif kind == "duplicate id" and type(data.get("cameras")) is list and len(data["cameras"]) > 1:
            cams = data["cameras"]
            a, b = draw(st.integers(0, len(cams) - 1)), draw(st.integers(0, len(cams) - 1))
            if isinstance(cams[a], dict) and isinstance(cams[b], dict) and "id" in cams[b]:
                cams[a]["id"] = cams[b]["id"]
        elif kind == "repeat" and len(path) >= 2 and type(data.get(path[0])) is list:
            entries = data[path[0]]
            k = path[1]
            if isinstance(entries[k], dict):
                copied = copy.deepcopy(entries[k])
                for key in ("cameras", "stationed", "silent", "down", "up", "id"):
                    if key in copied:
                        copied[key] = [999999] if isinstance(copied[key], list) else 999999
                        break
                entries.insert(k + draw(st.integers(0, 1)), copied)
        elif path:
            node(data, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        else:
            data = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return data


def load_outcome(load, data):
    """What a plan loader does with ``data``: its result, or the type and
    message of what it raises."""
    try:
        return load(data)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc))


#: The list sections of a plan.
SECTIONS = ("cameras", "cells", "assignments", "heads", "deficits")


class RecordedPlan(dict):
    """A plan object that lists the keys read from it, in order."""

    def __init__(self, data):
        super().__init__(data)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


#: An int of more than 12 digits in an error text, apart from the digits
#: of a float or of a name.
HUGE_INT = re.compile(r"(?<![\w.+-])-?\d{13,}(?![\w.])")


def shortened(outcome):
    """A frozen loader's ``outcome`` as the loaders give it now: each int
    of more than 12 digits that its error text echoed in full is written
    to 3 significant digits, as ``1.00e+400``."""
    if isinstance(outcome, tuple) and isinstance(outcome[0], type):
        return outcome[0], HUGE_INT.sub(lambda match: f"{Decimal(match[0]):.3g}", outcome[1])
    return outcome


def frozen_outcome(data):
    """The frozen loader's outcome on ``data``, and the first section it
    read that is not a list, or None.  It iterated any such section, so
    it took ``{}`` and ``""`` as empty."""
    if type(data) is not dict:
        return load_outcome(ref_plan_from_dict, data), None
    recorded = RecordedPlan(data)
    outcome = load_outcome(ref_plan_from_dict, recorded)
    read = [key for key in recorded.read if key in SECTIONS and key in data and type(data[key]) is not list]
    return outcome, next(iter(read), None)


def fault_node(data, path):
    """The value an error's path names: ``plan``, ``grid``, a section or
    one of its entries, as ``heads[0]``."""
    name, k = re.fullmatch(r"(\w+)(?:\[(\d+)\])?", path).groups()
    value = data if name == "plan" else data[name]
    return value if k is None else value[int(k)]


def assert_names_size(text, size):
    """``text`` names the grid size ``size``: in full up to 12 digits,
    past that to 3 significant digits."""
    if size < 10**12:
        assert text == str(size)
    else:
        assert re.fullmatch(r"\d\.\d\de\+\d+", text) and abs(Decimal(text) - size) * 200 <= size


def assert_same_fault(data, expected, section, got):
    """``got``, what the plan loaders raised on ``data``, is ``expected``,
    the frozen loader's outcome, except where that loader read the
    ``section`` that is not a list, or raised ``KeyError`` or
    ``TypeError``: there ``got`` names the path of the fault.  The frozen
    loader wrote an oversized grid's sizes in full, however long."""
    grid_cap = re.fullmatch(r"a (\S+) x (\S+) (plan grid exceeds \d+ cells)", got[1]) if got[0] is ValueError else None
    if grid_cap is not None:
        m, n = data["grid"]["m"], data["grid"]["n"]
        assert expected == (ValueError, f"a {m} x {n} {grid_cap[3]}")
        assert_names_size(grid_cap[1], m)
        assert_names_size(grid_cap[2], n)
    elif section is not None:
        assert got == (ValueError, f"{section}: expected a JSON list, got {type(data[section]).__name__}")
    elif expected[0] in (KeyError, TypeError):
        assert got[0] is ValueError
        path, fault = got[1].split(": ", 1)
        node = fault_node(data, path)
        if expected[0] is KeyError:
            assert type(node) is dict and expected[1][1:-1] not in node and fault == f"missing field {expected[1]}"
        else:
            assert type(node) is not dict and fault == f"expected a JSON object, got {type(node).__name__}"
    else:
        assert got == shortened(expected)


def floated(data):
    """A copy of a valid plan ``data`` with every int in a number field
    made a float, as the frozen loader read it; the library's loader keeps
    an int as written, so only then are its bytes the frozen loader's."""
    data = copy.deepcopy(data)
    for fields in (data["grid"], *data["cameras"]):
        for key in ("width", "height", "d", "x", "y", "facing", "r", "phi", "theta", "distance"):
            if type(fields.get(key)) is int:
                fields[key] = float(fields[key])
    return data


class TestPlanCheck:
    def test_base_plans_cover_the_edge_cases(self):
        assert any(not plan["cameras"] for plan in BASE_PLANS)
        assert any(plan["grid"]["m"] == plan["grid"]["n"] == 1 for plan in BASE_PLANS)
        assert any(cam["id"] > 2**64 for plan in BASE_PLANS for cam in plan["cameras"])
        assert any(plan["cameras"] and plan["deficits"] for plan in BASE_PLANS)

    @settings(max_examples=400, deadline=None)
    @given(mutated_plans())
    def test_raises_what_the_object_loader_raised(self, data):
        expected, section = frozen_outcome(data)
        duties = load_outcome(plan_duties, data)
        plan = load_outcome(plan_from_dict, data)
        if isinstance(expected, tuple) or section is not None:
            assert plan == duties
            assert_same_fault(data, expected, section, duties)
            return
        m, n, by_vertex = duties
        assert (m, n) == (expected.grid.m, expected.grid.n)
        assert by_vertex == {v: (a.down, a.up) for v, a in expected.assignments.items()}
        assert {(i + 1, j + 1) for i, j in zip(*np.nonzero(duty_mask(m, n, by_vertex)))} == staffed_cells(expected)
        assert plan == expected
        assert plan_json(plan_from_dict(floated(data))) == plan_json(expected)

    def test_every_two_faults_get_the_error_the_object_loader_raised(self):
        # One fault per check step (a wrong type, a value off its range, an
        # id no camera has, a missing key) on the first entry of each
        # section, applied two at a time: swapping any two steps of the
        # check changes which error some pair gets.
        base = min((plan for plan in BASE_PLANS if plan["deficits"] and plan["cameras"]), key=lambda p: len(p["cameras"]))
        sites = [(("grid", key), "1") for key in ("m", "n", "width", "height", "d")]
        sites += [(("cameras", 0, key), "1") for key in base["cameras"][0]]
        sites += [(("cameras", 0, "r"), -1.0), (("cameras", 0, "id"), None)]
        for section in ("cells", "heads", "assignments", "deficits"):
            for key, value in base[section][0].items():
                sites.append(((section, 0, key), "1"))
                if key in ("cameras", "stationed", "silent", "id", "down", "up"):
                    sites.append(((section, 0, key), [999999] if isinstance(value, list) else 999999))
        sites += [(("d_within_bound",), "1"), (("cameras", 0, "id"), KeyError), (("heads", 0, "id"), KeyError)]
        outcomes = set()
        for (path_a, value_a), (path_b, value_b) in itertools.combinations(sites, 2):
            data = copy.deepcopy(base)
            for path, value in ((path_a, value_a), (path_b, value_b)):
                if value is KeyError:
                    node(data, path[:-1]).pop(path[-1], None)
                else:
                    node(data, path[:-1])[path[-1]] = value
            expected, section = frozen_outcome(data)
            assert isinstance(expected, tuple) and section is None
            duties = load_outcome(plan_duties, data)
            assert load_outcome(plan_from_dict, data) == duties
            assert_same_fault(data, expected, section, duties)
            outcomes.add(expected)
        assert len(outcomes) > 30

    def test_a_repeated_vertex_keeps_its_last_entry(self):
        data = copy.deepcopy(next(plan for plan in BASE_PLANS if plan["assignments"]))
        first = data["assignments"][0]
        stale = dict(first, down=999999, up=999999, stationed=[999999], silent=[999999])
        data["assignments"].insert(0, stale)
        m, n, duties = plan_duties(data)
        assert duties[tuple(first["vertex"])] == (first["down"], first["up"])
        assert plan_from_dict(data) == ref_plan_from_dict(data)
        data["assignments"].append(stale)
        with pytest.raises(ValueError, match="plan field 'stationed' must be the id of a camera"):
            plan_duties(data)


#: What a mutation puts in one field of a camera record, a camera-file
#: entry or an assignment: every JSON type, numbers no float holds or
#: only just holds, ints in float fields, pairs of a bad length, type or
#: range, and orientations that are not one.
FIELD_VALUES = (
    True, False, "1", "", None, [], {}, [1, 1], math.nan, math.inf, -math.inf, 10**400, -(10**400),
    int(sys.float_info.max) + 2**970, int(sys.float_info.max), sys.float_info.max, 0, 1, 3, -1, 2**64,
    0.0, -0.0, -1.0, 1e-300, [1], [1, 1, 1], [0, 1], [1, 0], [1.0, 1], [True, 1], [1, None], "11", {"i": 1},
    [10**400, 1], "down", "up", "Down", "left", 0.5, [999999],
)

#: Values just off (or just on) what one field takes, drawn for it as
#: often as the general ones; a pair's range is past the grid's 5 x 5.
NUMBER_VALUES = (math.nan, math.inf, -math.inf, 10**400, int(sys.float_info.max) + 2**970, 3, -1, True, None, "1")
ID_VALUES = (-1, 0, 2**64, True, 1.0, None, "1", [1])
FIELD_EDGES = {
    **dict.fromkeys(("x", "y", "facing", "r", "phi", "theta", "distance"), NUMBER_VALUES),
    "id": ID_VALUES,
    "vertex": ([0, 1], [1, 0], [1, 99], [99, 1], [-1, 1], [1], [1, 1, 1], [1.0, 1], [True, 1], "11", {"1": 1, "2": 2}),
    "orientation": ("left", "Down", "", 0, None, "up", "down", ["down"]),
    "down": ID_VALUES,
    "up": ID_VALUES,
    "stationed": ([-1], [1.0], [True], [0, -1], "1", None, []),
    "silent": ([-1], [1.0], [True], [0, -1], "1", None, []),
}

#: Hardware triples a mutation gives one camera and, often, some later
#: ones: new and valid, off a bound, at a bound's text, or of ints.
TRIPLES = (
    (12.5, 2.0, 1.0), (12, 2, 1), (5.0, 2.0, 1.0), (0.0, 2.0, 1.0), (-1.0, 2.0, 1.0), (5.0, 0.0, 1.0),
    (5.0, math.tau + 2e-9, 1.0), (5.0, 6.28318531, 1.0), (5.0, 7.0, 1.0), (5.0, 2.0, math.pi / 2 + 2e-9),
    (5.0, 2.0, 1.57079633), (5.0, 6.28318531, 1.57079633), (5.0, 2.0, 0.0), (5.0, 2.0, 2.0),
    (math.inf, 2.0, 1.0), (5.0, math.nan, 1.0), (10**400, 2.0, 1.0), (5.0, True, 1.0),
)

#: What an entry becomes when it is not an object.
NOT_OBJECTS = (1, 1.5, "camera", None, True, [], [1, 2], [{"id": 0}])

#: The fields of a camera-file entry.
CAMERA_FIELDS = ("id", "x", "y", "facing", "r", "phi", "theta")

#: Camera files: the cameras of the base plans, as camera-file entries.
BASE_CAMERA_LISTS = tuple(
    [{key: cam[key] for key in CAMERA_FIELDS} for cam in plan["cameras"]] for plan in BASE_PLANS if plan["cameras"]
)


@st.composite
def one_field_mutations(draw, bases, section):
    """A copy of one of ``bases`` (a plan, or a camera list when
    ``section`` is None) with one entry of ``section`` changed: a field
    replaced or deleted, the entry replaced by a value that is not an
    object, or its hardware triple set to a new one that some later
    entries share."""
    data = copy.deepcopy(draw(st.sampled_from(bases)))
    entries = data if section is None else data[section]
    if not entries:
        return data
    k = draw(st.integers(0, len(entries) - 1))
    entry = entries[k]
    kind = draw(st.sampled_from(("replace", "replace", "delete", "not object", "hardware")))
    if kind == "not object":
        entries[k] = copy.deepcopy(draw(st.sampled_from(NOT_OBJECTS)))
    elif kind == "hardware" and "r" in entry:
        triple = draw(st.sampled_from(TRIPLES))
        for later in entries[k:]:
            if later is entry or draw(st.booleans()):
                later.update(zip(("r", "phi", "theta"), triple))
    else:
        key = draw(st.sampled_from(sorted(entry)))
        if kind == "delete":
            del entry[key]
        else:
            values = draw(st.sampled_from((FIELD_VALUES, FIELD_EDGES[key])))
            entry[key] = copy.deepcopy(draw(st.sampled_from(values)))
    return data


def sharing(cameras):
    """Which cameras share their :class:`CameraParams` object: for each,
    the index of the first camera holding the same object."""
    first = {}
    return [first.setdefault(id(p), k) for k, p in enumerate(cameras.params)]


class TestOneTestAccept:
    """A well-formed entry passes one test and any other takes the ordered
    checks, so every loader returns what the frozen walk returned, or
    raises its error text."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(("cameras", "assignments")).flatmap(lambda section: one_field_mutations(BASE_PLANS, section)))
    def test_plan_loaders_match_the_frozen_walk(self, data):
        assert load_outcome(plan_duties, data) == shortened(load_outcome(walk_plan_duties, data))
        assert load_outcome(plan_from_dict, data) == shortened(load_outcome(walk_plan_from_dict, data))

    @settings(max_examples=400, deadline=None)
    @given(one_field_mutations(BASE_CAMERA_LISTS, None))
    def test_the_camera_file_loader_matches_the_frozen_walk(self, entries):
        got, expected = load_outcome(cameras_from_list, entries), shortened(load_outcome(walk_cameras_from_list, entries))
        assert got == expected
        if not isinstance(expected, tuple):
            assert sharing(got) == sharing(expected)

    def test_every_value_in_every_field_of_a_first_and_a_last_entry(self):
        plan = max(BASE_PLANS, key=lambda plan: len({(c["r"], c["phi"], c["theta"]) for c in plan["cameras"]}))
        camera_file = [{key: cam[key] for key in CAMERA_FIELDS} for cam in plan["cameras"]]
        loaders = ((plan_duties, walk_plan_duties), (plan_from_dict, walk_plan_from_dict))
        cases = [(plan, section, loaders) for section in ("cameras", "assignments")]
        cases.append((camera_file, None, ((cameras_from_list, walk_cameras_from_list),)))
        seen = set()
        for base, section, pairs in cases:
            entries = base if section is None else base[section]
            for k in (0, len(entries) - 1):
                changes = [(key, value) for key in entries[k] for value in (KeyError, *FIELD_VALUES, *FIELD_EDGES[key])]
                changes += [(None, value) for value in NOT_OBJECTS]
                changes += [("hardware", triple) for triple in TRIPLES] if section != "assignments" else []
                for key, value in changes:
                    data = copy.deepcopy(base)
                    entry = (data if section is None else data[section])[k]
                    if key is None:
                        (data if section is None else data[section])[k] = copy.deepcopy(value)
                    elif key == "hardware":
                        entry.update(zip(("r", "phi", "theta"), value))
                    elif value is KeyError:
                        del entry[key]
                    else:
                        entry[key] = copy.deepcopy(value)
                    for load, walk in pairs:
                        got = load_outcome(load, data)
                        assert got == shortened(load_outcome(walk, data)), (section, k, key, value)
                        seen.add(got[1] if isinstance(got, tuple) and isinstance(got[0], type) else "loaded")
        assert len(seen) > 60

    def test_valid_files_and_a_shared_new_triple_load_as_the_frozen_walk_loads(self):
        for data in BASE_PLANS:
            assert plan_from_dict(data) == walk_plan_from_dict(data)
        for entries in BASE_CAMERA_LISTS:
            assert cameras_from_list(entries) == walk_cameras_from_list(entries)
        data = copy.deepcopy(next(plan for plan in BASE_PLANS if len(plan["cameras"]) > 2))
        cams = data["cameras"]
        cams[1].update(r=12.5, phi=6.28318531, theta=1.57079633)
        cams[2].update(r=12.5, phi=6.28318531, theta=1.57079633)
        plan = plan_from_dict(data)
        assert plan == walk_plan_from_dict(data)
        assert plan.grid.poses[cams[2]["id"]].params == CameraParams(12.5, math.tau, math.pi / 2)
        for key, value, error in (
            ("x", 10**400, "camera field 'x' must be a finite number, got 1.00e+400"),
            ("distance", math.inf, "plan field 'distance' must be a finite number, got inf"),
            ("vertex", [1.0, 1], "plan field 'vertex' must be a pair of integers in"),
            ("orientation", "left", "plan field 'orientation' must be 'down', 'up' or null, got 'left'"),
            ("theta", math.pi / 2 + 2e-9, "effective angle must be in (0, pi/2]"),
        ):
            bad = copy.deepcopy(data)
            bad["cameras"][2][key] = value
            for load in (plan_duties, plan_from_dict):
                got = load_outcome(load, bad)
                assert got == shortened(load_outcome(walk_plan_from_dict, bad)) and got[1].startswith(error)


def barrier_document(result, mask):
    """The barrier document as the graph objects write it."""
    m, n = mask.shape
    covered = {(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(mask))}
    payload = barrier_to_dict(result)
    payload["graph"] = graph_to_dict(build_graph(covered, m, n))
    return payload


class TestBarrierJson:
    def test_matches_the_graph_objects_byte_for_byte(self):
        rng = np.random.default_rng(73)
        seen = {"empty": 0, "n == 1": 0, "found": 0, "none": 0}
        for t in range(1000):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            mask = rng.random((m, n)) < (0.0 if t % 20 == 0 else rng.uniform(0.2, 1.0))
            result = extract_barrier(mask)
            if result.exists:
                result = replace(result, camera_count=int(rng.integers(4, 200)))
            text = barrier_json(result, mask)
            payload = barrier_document(result, mask)
            assert text == dumps(payload)
            if t % 10 == 0:
                assert text == ref_dumps(payload)
            seen["empty"] += not mask.any()
            seen["n == 1"] += n == 1
            seen["found" if result.exists else "none"] += 1
        assert min(seen.values()) >= 50, seen

    def test_empty_mask_has_no_edges(self):
        text = barrier_json(extract_barrier(np.zeros((2, 3), dtype=bool)), np.zeros((2, 3), dtype=bool))
        doc = json.loads(text)
        assert doc["graph"] == {"edges": [], "m": 2, "n": 3, "nodes": ["s", "t"]}
        assert '"edges": [],' in text and '"path": [],' in text

    def test_a_single_column_cell_has_an_s_and_a_t_edge(self):
        mask = np.array([[False], [True]])
        result = replace(extract_barrier(mask), camera_count=4)
        doc = json.loads(barrier_json(result, mask))
        assert doc["graph"]["edges"] == [
            {"kind": "source", "u": "s", "v": [2, 1], "weight": 4},
            {"kind": "sink", "u": [2, 1], "v": "t", "weight": 0},
        ]
        assert (doc["path"], doc["total_weight"], doc["camera_count"]) == ([[2, 1]], 4, 4)
        assert barrier_json(result, mask) == dumps(barrier_document(result, mask))


def entry(cid, r=5.0, phi=2.0, theta=1.0, **fields):
    return {"id": cid, "x": 1.0, "y": 2.0, "facing": 0.5, "r": r, "phi": phi, "theta": theta, **fields}


class TestCameraLoading:
    def test_cameras_of_one_load_share_their_params(self):
        cams = cameras_from_list(
            [entry(0), entry(1, r=5), entry(2, r=6.0), entry(3), entry(4, phi=3.0), entry(5, theta=0.5)]
        )
        assert cams[0].params is cams[1].params is cams[3].params
        assert cams[1].params == CameraParams(r=5.0, phi=2.0, theta=1.0)
        assert type(cams[1].params.r) is float
        assert [c.params for c in cams[2:]] == [
            CameraParams(r=6.0, phi=2.0, theta=1.0),
            CameraParams(r=5.0, phi=2.0, theta=1.0),
            CameraParams(r=5.0, phi=3.0, theta=1.0),
            CameraParams(r=5.0, phi=2.0, theta=0.5),
        ]

    def test_separate_loads_share_nothing(self):
        first = cameras_from_list([entry(0)])
        second = cameras_from_list([entry(0)])
        assert first == second
        assert first[0].params is not second[0].params

    def test_a_bad_triple_is_rejected_wherever_it_appears(self):
        for entries in ([entry(0, r=-1.0)], [entry(0), entry(1, r=-1.0)], [entry(0, r=-1.0), entry(1)]):
            with pytest.raises(ValueError, match="sensing radius"):
                cameras_from_list(entries)

    def test_the_texts_of_the_hardware_bounds_read_back_as_the_bounds(self):
        assert (f"{math.tau:.9g}", f"{math.pi / 2:.9g}") == ("6.28318531", "1.57079633")
        (cam,) = cameras_from_list([entry(0, phi=6.28318531, theta=1.57079633)])
        assert cam.params == CameraParams(r=5.0, phi=math.tau, theta=math.pi / 2)

    def test_to_dict_and_back(self):
        cams = cameras_from_list([entry(4, x=3.25, facing=1.0)])
        assert cameras_from_list([camera_to_dict(c) for c in cams]) == cams

    def test_plan_records_take_their_origin_from_the_pose(self):
        params = CameraParams(r=5.0, phi=2 * math.pi / 3, theta=math.pi / 4)
        plan = run_algorithm1(20.0, 10.0, random_deploy(20.0, 10.0, 40, 5, params), 4.0)
        loaded = plan_from_dict(json.loads(dumps(plan_to_dict(plan))))
        assert loaded.records.keys() == plan.records.keys()
        for cid, rec in loaded.records.items():
            assert rec.origin is loaded.grid.poses[cid].position
            assert rec.origin.x == pytest.approx(plan.records[cid].origin.x, rel=1e-8)
            assert loaded.grid.poses[cid].params is loaded.grid.poses[0].params
