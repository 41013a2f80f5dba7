"""The array relocation and plan writer against frozen copies of the
object pipeline and its writer (``tests/helpers.py``)."""

import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambarrier import geometry
from cambarrier.cli import main
from cambarrier.full_view import Cameras, full_view_covered_segment
from cambarrier.geometry import EPS, CameraParams, CameraPose, Point2D, Segment
from cambarrier.grid_deploy import partition, run_algorithm1
from cambarrier.serialize import cameras_from_list, plan_from_dict, plan_json
from cambarrier.simulate import ScenarioConfig, barrier_exists_mobile

from helpers import camera_to_dict, ref_plan_json, ref_run_algorithm1

#: Hardware a scenario mixes: integer fields, tiny and huge radii.
HARDWARE = (
    CameraParams(r=5.0, phi=2 * math.pi / 3, theta=math.pi / 4),
    CameraParams(r=3, phi=2, theta=1),
    CameraParams(r=1e-5, phi=1e-10, theta=0.5),
    CameraParams(r=1e9, phi=math.pi, theta=1e-5),
)


@st.composite
def scenarios(draw):
    """``(width, height, d, cameras)``: a general, 1 x n or m x 1 grid;
    ids up to 10**30; cameras inside, on cell edges and corners, within
    EPS outside the near edges or past the far ones; mixed hardware."""
    d = draw(st.one_of(st.integers(1, 4), st.floats(0.25, 4.0)))
    shape = draw(st.sampled_from(["general", "one row", "one column"]))
    cols = draw(st.floats(0.2, 1.0)) if shape == "one column" else draw(st.floats(1.0, 6.0))
    rows = draw(st.floats(0.2, 1.0)) if shape == "one row" else draw(st.floats(1.0, 5.0))
    width, height = cols * d, rows * d
    ids = draw(st.lists(st.one_of(st.integers(0, 50), st.integers(0, 10**30)), unique=True, max_size=40))

    def coordinate(side):
        return draw(
            st.one_of(
                st.floats(0.0, side),
                st.integers(0, int(side / d)).map(lambda k: k * d),  # on a cell edge
                st.sampled_from([0.0, -0.0, side, -EPS / 2, side + EPS / 2, side + 0.9 * EPS]),
            )
        )

    cameras = [
        CameraPose(
            cid,
            Point2D(coordinate(width), coordinate(height)),
            draw(st.one_of(st.floats(-10.0, 10.0), st.integers(-7, 7))),
            draw(st.sampled_from(HARDWARE)),
        )
        for cid in ids
    ]
    return width, height, d, cameras


def pose_of(entry):
    """The pose a camera-file entry describes, made directly with every
    number a float, as the camera-file loader reads it."""
    params = CameraParams(r=float(entry["r"]), phi=float(entry["phi"]), theta=float(entry["theta"]))
    return CameraPose(entry["id"], Point2D(float(entry["x"]), float(entry["y"])), float(entry["facing"]), params)


def assert_same_plan(plan, ref):
    assert plan.grid.cell_members == ref.grid.cell_members
    assert plan.grid.poses == ref.grid.poses
    assert plan.heads == ref.heads
    assert plan.assignments == ref.assignments
    assert plan.records == ref.records
    assert plan.deficits == ref.deficits
    assert plan.d_within_bound == ref.d_within_bound
    assert plan == ref and ref == plan
    assert plan_json(plan) == ref_plan_json(ref)


class TestAgainstTheObjectPipeline:
    @settings(max_examples=300, deadline=None)
    @given(scenarios(), st.randoms(use_true_random=False))
    def test_same_plan_and_bytes(self, scenario, rng):
        width, height, d, cameras = scenario
        plan = run_algorithm1(width, height, cameras, d)
        assert_same_plan(plan, ref_run_algorithm1(width, height, cameras, d))
        shuffled = list(cameras)
        rng.shuffle(shuffled)
        again = run_algorithm1(width, height, shuffled, d)
        assert again == plan and plan_json(again) == plan_json(plan)

    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_a_loaded_camera_file_writes_the_bytes_of_the_object_loader(self, scenario):
        width, height, d, cameras = scenario
        entries = json.loads(json.dumps([camera_to_dict(c) for c in cameras]))
        table = cameras_from_list(entries)
        loaded = [pose_of(e) for e in entries]
        assert list(table) == loaded
        assert plan_json(run_algorithm1(width, height, table, d)) == ref_plan_json(
            ref_run_algorithm1(width, height, loaded, d)
        )

    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    def test_a_loaded_plan_writes_its_own_bytes(self, scenario):
        # Integer lengths, coordinates and hardware read back as written.
        width, height, d, cameras = scenario
        text = plan_json(run_algorithm1(width, height, cameras, d))
        assert plan_json(plan_from_dict(json.loads(text))) == text

    def test_a_loaded_plan_keeps_ints_apart_and_a_facing_just_below_a_turn(self):
        cameras = [
            CameraPose(0, Point2D(1, 1), -1e-12, HARDWARE[1]),  # facing written as 6.28318531
            CameraPose(1, Point2D(3, 1), 0.5, CameraParams(r=3.0, phi=2.0, theta=1.0)),  # HARDWARE[1] as floats
        ]
        text = plan_json(run_algorithm1(4, 2, cameras, 2))
        assert '"facing": 6.28318531,' in text and '"r": 3,' in text and '"r": 3.0,' in text and '"d": 2,' in text
        assert plan_json(plan_from_dict(json.loads(text))) == text

    def test_unequal_plans_compare_unequal(self):
        cameras = [CameraPose(k, Point2D(0.5 + k, 0.5), 0.0, HARDWARE[0]) for k in range(6)]
        plan = run_algorithm1(8.0, 4.0, cameras, 2.0)
        moved = [CameraPose(0, Point2D(0.25, 0.5), 0.0, HARDWARE[0])] + cameras[1:]
        turned = [CameraPose(0, Point2D(0.5, 0.5), 1.0, HARDWARE[0])] + cameras[1:]
        renamed = [CameraPose(99, Point2D(0.5, 0.5), 0.0, HARDWARE[0])] + cameras[1:]
        for other in (moved, turned, renamed, cameras[1:]):
            assert run_algorithm1(8.0, 4.0, other, 2.0) != plan
            assert ref_run_algorithm1(8.0, 4.0, other, 2.0) != plan
        assert run_algorithm1(8.0, 4.0, cameras, 1.0) != plan
        assert run_algorithm1(8.0, 4.0, list(reversed(cameras)), 2.0) == plan

    @pytest.mark.parametrize(
        "cameras",
        [
            [CameraPose(3, Point2D(11, 5), 0.0, HARDWARE[0]), CameraPose(1, Point2D(5, -2), 0.0, HARDWARE[0])],
            [CameraPose(2, Point2D(1, 1), 0.0, HARDWARE[0]), CameraPose(2, Point2D(2, 2), 0.0, HARDWARE[1])],
            [CameraPose(10**30, Point2D(1, 1), 0.0, HARDWARE[0])] * 3 + [CameraPose(1, Point2D(99, 1), 0.0, HARDWARE[0])],
        ],
    )
    def test_duplicate_and_outside_cameras_raise_what_the_object_pipeline_raised(self, cameras):
        with pytest.raises(ValueError) as expected:
            ref_run_algorithm1(10, 10, cameras, 5)
        for given_as in (cameras, Cameras.of(cameras)):
            with pytest.raises(ValueError) as got:
                run_algorithm1(10, 10, given_as, 5)
            assert type(got.value) is type(expected.value) and str(got.value) == str(expected.value)

    @pytest.mark.parametrize("width, height, d", [(4.0, 2.0, 2.0), (1.0, 7.0, 1.0), (3, 1, 3)])
    def test_an_empty_camera_file_with_d(self, tmp_path, capsys, width, height, d):
        path = tmp_path / "cams.json"
        path.write_text("[]")
        code = main(["deploy-grid", "--cameras", str(path), "--width", str(width), "--height", str(height), "--d", str(d)])
        assert code == 0
        assert capsys.readouterr().out == ref_plan_json(ref_run_algorithm1(float(width), float(height), [], float(d)))
        assert main(["deploy-grid", "--cameras", str(path), "--width", "4", "--height", "2"]) == 2
        assert capsys.readouterr().err == "error: --d is required when the camera file is empty\n"


def test_the_workload_camera_files_write_the_object_pipelines_bytes():
    # The benchmark's two camera files, generated as bench/workloads.py
    # generates them, at seeds 1 and 97.
    for seed in (1, 97):
        for tag, width, height, r, count in ((1, 50.0, 100.0, 30.0, 300), (2, 32.0, 32.0, 5.0, 256)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
            xs, ys, fs = rng.uniform(0, width, count), rng.uniform(0, height, count), rng.uniform(0, 2 * math.pi, count)
            entries = [
                {"id": k, "x": float(xs[k]), "y": float(ys[k]), "facing": float(fs[k]), "r": r,
                 "phi": 2 * math.pi / 3, "theta": math.pi / 3}
                for k in range(count)
            ]
            d = 2 * r / math.sqrt(5)
            loaded = [pose_of(e) for e in entries]
            assert plan_json(run_algorithm1(width, height, cameras_from_list(entries), d)) == ref_plan_json(
                ref_run_algorithm1(width, height, loaded, d)
            )


def camera_file(rng, count):
    """``count`` camera-file entries around the segment (0, 0)-(4, 0):
    integer and float coordinates, facings outside [0, 2*pi), mixed
    hardware, ids in shuffled order."""
    hardware = [(5.0, 2 * math.pi / 3, math.pi / 4), (3, 2, 1), (2.5, math.pi, 0.5), (4.0, 2 * math.pi, math.pi / 2)]
    ids = rng.permutation(3 * count)[:count].tolist()
    entries = []
    for cid in ids:
        r, phi, theta = hardware[int(rng.integers(len(hardware)))]
        x, y = (int(v) if rng.random() < 0.2 else float(v) for v in rng.uniform(-3.0, 7.0, 2))
        facing = float(rng.uniform(-7.0, 14.0))
        entries.append({"id": cid, "x": x, "y": y, "facing": facing, "r": r, "phi": phi, "theta": theta})
    return entries


def assert_aligned(cameras):
    """Each camera's ids, params and pose agree with its array entries."""
    assert len(cameras.ids) == len(cameras.params) == len(cameras)
    for k, pose in enumerate(cameras):
        assert (pose.id, pose.params) == (cameras.ids[k], cameras.params[k])
        assert (pose.position.x, pose.position.y, pose.facing) == (cameras.x[k], cameras.y[k], cameras.facing[k])
        assert (pose.params.r, pose.params.phi / 2.0) == (cameras.r[k], cameras.half[k])


class TestCameras:
    def test_reads_as_the_poses_it_was_made_of(self):
        poses = [CameraPose(k, Point2D(k, 2 * k), 0.5 * k, HARDWARE[k % 4]) for k in range(5)]
        cams = Cameras.of(poses)
        assert len(cams) == 5 and list(cams) == poses and cams[1:3] == poses[1:3]
        assert cams[4] is poses[4] and Cameras.of(cams) is cams
        assert cams.coordinates() == ([0, 1, 2, 3, 4], [0, 2, 4, 6, 8])

    def test_loaded_cameras_make_their_poses_on_demand(self):
        entries = [{"id": 7, "x": 1.5, "y": 2.0, "facing": 7.0, "r": 5.0, "phi": 2.0, "theta": 1.0}]
        cams = cameras_from_list(entries)
        assert cams.poses is None
        assert cams[0] == pose_of(entries[0])
        assert cams[0].facing == geometry.normalize_bearing(7.0)

    def test_entries_may_come_from_a_generator(self):
        entries = [{"id": k, "x": 1.5 * k, "y": 2.0, "facing": 0.5, "r": 5.0, "phi": 2.0, "theta": 1.0} for k in range(4)]
        cams = cameras_from_list(entry for entry in entries)
        assert cams == cameras_from_list(entries) and list(cams) == [pose_of(e) for e in entries]

    def test_loaded_cameras_hold_the_arrays_of_their_poses(self):
        rng = np.random.default_rng(5)
        for count in (0, 1, 40):
            entries = camera_file(rng, count)
            from_poses = Cameras.of([pose_of(e) for e in entries])
            loaded = cameras_from_list(entries)
            for name in ("x", "y", "facing", "r", "half"):
                a, b = getattr(loaded, name), getattr(from_poses, name)
                assert a.dtype == b.dtype == np.float64
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
            assert loaded.ids == from_poses.ids and loaded.params == from_poses.params
            assert loaded == from_poses and loaded.reach == from_poses.reach

    def test_take_within_and_near_keep_ids_params_and_poses_aligned(self):
        rng = np.random.default_rng(6)
        seg = Segment(Point2D(0.0, 0.0), Point2D(4.0, 0.0))
        entries = camera_file(rng, 60)
        poses = [pose_of(e) for e in entries]
        for cams in (cameras_from_list(entries), Cameras.of(poses)):
            order = rng.permutation(len(cams))[:25].tolist()
            for sub, rows in (
                (cams.take(order), order),
                (cams.take(np.array(order)), order),
                (cams.take([]), []),
                (cams.within(0.0, 4.0, 0.0, 0.0), None),
                (cams.near(seg), None),
            ):
                assert_aligned(sub)
                if rows is not None:
                    assert list(sub) == [poses[k] for k in rows]
                else:
                    remaining = iter(poses)
                    assert 0 < len(sub) < len(cams) and all(pose in remaining for pose in sub)  # input order
                if cams.poses is not None:
                    assert all(a is b for a, b in zip(sub, sub.poses))

    def test_loaded_cameras_give_the_verdicts_of_their_poses(self):
        rng = np.random.default_rng(7)
        seg = Segment(Point2D(0.0, 0.0), Point2D(4.0, 0.0))
        outcomes = set()
        for _ in range(40):
            entries = camera_file(rng, int(rng.integers(0, 80)))
            loaded, poses = cameras_from_list(entries), [pose_of(e) for e in entries]
            for theta in (math.pi / 4, math.pi / 2):
                verdict = full_view_covered_segment(seg, poses, theta, samples=21)
                assert full_view_covered_segment(seg, loaded, theta, samples=21) == verdict
                assert full_view_covered_segment(seg, loaded.near(seg), theta, samples=21) == verdict
                outcomes.add(verdict)
        assert outcomes == {True, False}


def test_the_duplicate_id_report_is_not_quadratic(tmp_path, capsys):
    # 200,000 cameras, two ids repeated: one sort or count, not a scan
    # per id, so each caller fails at once with the same report.
    count = 200_000
    ids = list(range(count))
    ids[150_000], ids[199_999] = 7, 1234
    message = "duplicate camera ids: [7, 1234]"
    params = CameraParams(r=5.0, phi=2.0, theta=1.0)
    cameras = [CameraPose(cid, Point2D(1.0, 1.0), 0.0, params) for cid in ids]
    config = ScenarioConfig(width=10.0, height=10.0, r=5.0, theta=1.0, phi=2.0, counts=(0,), seed=1)
    for call in (lambda: partition(10.0, 10.0, 5.0, cameras), lambda: barrier_exists_mobile(cameras, config)):
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message and time.perf_counter() - start < 5
    path = tmp_path / "cams.json"
    path.write_text(json.dumps([camera_to_dict(c) for c in cameras]))
    del cameras
    start = time.perf_counter()
    code = main(["deploy-grid", "--cameras", str(path), "--width", "10", "--height", "10"])
    assert time.perf_counter() - start < 10
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"


def test_deploy_grid_builds_no_pose_per_camera(tmp_path, capsys, monkeypatch):
    rng = random.Random(3)
    entries = [
        {"id": k, "x": rng.uniform(0, 90), "y": rng.uniform(0, 90), "facing": rng.uniform(0, 6), "r": 3.0,
         "phi": 2.0, "theta": 1.0}
        for k in range(10_000)
    ]
    path = tmp_path / "cams.json"
    path.write_text(json.dumps(entries))
    built = []
    for cls in (CameraPose, Point2D):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, original=original: built.append(self) or original(self))
    code = main(["deploy-grid", "--cameras", str(path), "--width", "90", "--height", "90"])
    assert code == 0 and len(json.loads(capsys.readouterr().out)["cameras"]) == 10_000
    assert built == []
