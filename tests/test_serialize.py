import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambarrier.barrier_graph import barrier_json, build_graph, extract_barrier
from cambarrier.geometry import CameraParams, CameraPose, Point2D
from cambarrier.grid_deploy import run_algorithm1
from cambarrier.serialize import (
    barrier_to_dict,
    camera_from_dict,
    camera_to_dict,
    cameras_from_list,
    dumps,
    graph_to_dict,
    plan_from_dict,
    plan_json,
    plan_to_dict,
)
from cambarrier.simulate import random_deploy

from helpers import ref_dumps


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
        assert camera_from_dict(entry(0)).params is not first[0].params

    def test_a_bad_triple_is_rejected_wherever_it_appears(self):
        for entries in ([entry(0, r=-1.0)], [entry(0), entry(1, r=-1.0)], [entry(0, r=-1.0), entry(1)]):
            with pytest.raises(ValueError, match="sensing radius"):
                cameras_from_list(entries)

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
