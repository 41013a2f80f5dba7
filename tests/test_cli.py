import argparse
import contextlib
import copy
import hashlib
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambarrier import barrier_graph, cli, geometry, grid_deploy, grid_model, serialize
from cambarrier.cli import main
from cambarrier.grid_model import MAX_CELLS
from cambarrier.simulate import MAX_SAMPLES, WORK_BUDGET, random_deploy
from cambarrier.geometry import CameraParams

from helpers import camera_to_dict

ROOT = Path(__file__).resolve().parents[1]

#: The functions of the graph-object barrier pipeline, which stay as the
#: paper's named steps and as test oracles.
OBJECT_PIPELINE = (
    "staffed_cells",
    "cell_fully_staffed",
    "build_graph",
    "prune_degree_one",
    "shortest_barrier",
    "distinct_cameras",
    "k_barrier_count",
    "graph_to_dict",
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def library_camera_count(plan_text: str, barrier: dict) -> int:
    """:func:`distinct_cameras` of the ``barrier`` document's path on the
    plan the library loads from ``plan_text``."""
    path = tuple(map(tuple, barrier["path"]))
    result = barrier_graph.BarrierResult(barrier["exists"], path, barrier["total_weight"])
    return barrier_graph.distinct_cameras(result, serialize.plan_from_dict(json.loads(plan_text)))


class TestPlanLine:
    def test_emits_deployment_json(self, capsys):
        code, out = run(capsys, "plan-line", "--length", "100", "--r", "5")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 48
        assert data["params"]["delta"] == pytest.approx(4.4721360, abs=1e-6)
        assert len(data["cameras"]) == 48
        assert {"id", "x", "y", "facing", "r", "phi", "theta"} <= set(data["cameras"][0])

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "plan.json"
        code, _ = run(capsys, "plan-line", "--length", "10", "--r", "2", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["count"] > 0

    def test_bad_radius_exits_2(self, capsys):
        code, _ = run(capsys, "plan-line", "--length", "10", "--r", "-1")
        assert code == 2

    @pytest.mark.parametrize("length", ["-5", "0", "-0.0"])
    def test_non_positive_length_exits_2_as_fig3_does(self, capsys, length):
        code = main(["plan-line", f"--length={length}", "--r", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: barrier length must be positive and finite, got {float(length)}\n"
        code = main(["fig3", f"--length={length}", "--r-min", "3", "--r-max", "3"])
        assert (code, capsys.readouterr().err) == (2, captured.err)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, name", [("--length", "barrier length"), ("--r", "sensing radius")])
    def test_non_finite_length_or_radius_exits_2_naming_it(self, capsys, flag, name, value):
        argv = {"--length": "10", "--r": "3", flag: value}
        code = main(["plan-line", *(f"{k}={v}" for k, v in argv.items())])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {name} must be positive and finite, got {float(value)}\n"

    @pytest.mark.parametrize("length, r", [("1e12", "3"), ("100", "1e-12"), ("1e308", "1e-300")])
    def test_deployment_over_the_camera_cap_exits_2_at_once(self, capsys, length, r):
        start = time.perf_counter()
        code = main(["plan-line", "--length", length, "--r", r])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 0.5
        assert code == 2 and captured.out == ""
        assert captured.err == "error: the deployment needs more than 1000000 cameras\n"


#: A well-formed camera-file entry.
CAMERA = {"id": 0, "x": 1.0, "y": 1.0, "facing": 0.0, "r": 5.0, "phi": 2.0, "theta": 1.0}


class TestGridPipeline:
    @pytest.fixture()
    def camera_file(self, tmp_path):
        params = CameraParams(r=5.0, phi=2 * math.pi / 3, theta=math.pi / 4)
        cams = random_deploy(20.0, 10.0, 120, 11, params)
        path = tmp_path / "cams.json"
        path.write_text(json.dumps([camera_to_dict(c) for c in cams]))
        return path

    def test_deploy_then_barrier_then_k(self, tmp_path, capsys, camera_file):
        plan_path = tmp_path / "plan.json"
        code, _ = run(
            capsys,
            "deploy-grid",
            "--cameras",
            str(camera_file),
            "--width",
            "20",
            "--height",
            "10",
            "--out",
            str(plan_path),
        )
        assert code == 0
        plan = json.loads(plan_path.read_text())
        assert plan["grid"]["m"] >= 1 and plan["grid"]["n"] >= 1
        assert len(plan["cameras"]) == 120

        code, out = run(capsys, "barrier", "--plan", str(plan_path))
        assert code == 0
        barrier = json.loads(out)
        assert set(barrier) == {"exists", "path", "total_weight", "camera_count", "graph"}
        if barrier["exists"]:
            assert barrier["total_weight"] >= 4
            assert barrier["camera_count"] >= 4
            assert barrier["path"][0][1] == 1
        assert library_camera_count(plan_path.read_text(), barrier) == (barrier["camera_count"] or 0)

        code, out = run(capsys, "k-barrier", "--plan", str(plan_path))
        assert code == 0
        kdata = json.loads(out)
        assert kdata["k"] == min(kdata["column_counts"])
        assert out == serialize.dumps(kdata)

    @pytest.mark.parametrize("width", [1.0, 20.0, 40.0])
    def test_k_barrier_writes_what_dumps_writes(self, tmp_path, capsys, width):
        # One column, and several; the template is the encoder's layout.
        cams = random_deploy(width, 10.0, 200, 3, CameraParams(r=5.0, phi=2.0, theta=1.0))
        cam_path, plan_path = tmp_path / "cams.json", tmp_path / "plan.json"
        cam_path.write_text(json.dumps([camera_to_dict(c) for c in cams]))
        argv = ("deploy-grid", "--cameras", str(cam_path), "--width", str(width), "--height", "10", "--out", str(plan_path))
        assert run(capsys, *argv) == (0, "")
        m, n, duties = serialize.plan_duties(json.loads(plan_path.read_text()))
        counts = [sum(column) for column in zip(*grid_model.duty_mask(m, n, duties))]
        assert len(counts) == n and (n == 1) == (width == 1.0)
        code, out = run(capsys, "k-barrier", "--plan", str(plan_path))
        assert (code, out) == (0, serialize.dumps({"k": min(counts), "column_counts": counts}))

    @pytest.mark.parametrize("phi, theta", [(math.tau, math.pi / 4), (2.0, math.pi / 2), (math.tau, math.pi / 2)])
    def test_plans_at_the_hardware_bounds_read_back(self, tmp_path, capsys, phi, theta):
        # The plan writes 2*pi as 6.28318531 and pi/2 as 1.57079633, each
        # past its bound by more than EPS.
        cams = random_deploy(8.0, 8.0, 16, 5, CameraParams(r=5.0, phi=phi, theta=theta))
        cam_path, plan_path = tmp_path / "cams.json", tmp_path / "plan.json"
        cam_path.write_text(json.dumps([camera_to_dict(c) for c in cams]))
        argv = ("deploy-grid", "--cameras", str(cam_path), "--width", "8", "--height", "8", "--out", str(plan_path))
        assert run(capsys, *argv) == (0, "")
        text = plan_path.read_text()
        assert ('"phi": 6.28318531,' in text) == (phi == math.tau)
        assert ('"theta": 1.57079633,' in text) == (theta == math.pi / 2)
        for command in ("barrier", "k-barrier"):
            assert run(capsys, command, "--plan", str(plan_path))[0] == 0
        assert serialize.plan_json(serialize.plan_from_dict(json.loads(text))) == text

    def test_the_texts_of_the_hardware_bounds_load_and_are_written_back(self, tmp_path, capsys):
        path = tmp_path / "cams.json"
        path.write_text(json.dumps([{**CAMERA, "phi": 6.28318531, "theta": 1.57079633}]))
        code, out = run(capsys, "deploy-grid", "--cameras", str(path), "--width", "10", "--height", "10")
        assert code == 0
        assert '"phi": 6.28318531,' in out and '"theta": 1.57079633,' in out

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("phi", 6.2831854, "error: field of view must be in (0, 2*pi], got 6.2831854\n"),
            ("theta", 1.5707964, "error: effective angle must be in (0, pi/2], got 1.5707964\n"),
        ],
    )
    def test_a_text_past_the_bound_text_is_refused(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "cams.json"
        path.write_text(json.dumps([{**CAMERA, field: value}]))
        code = main(["deploy-grid", "--cameras", str(path), "--width", "10", "--height", "10"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message)

    @pytest.mark.parametrize("camera_id", [True, 1.7, 2.0, "3"])
    def test_non_integer_camera_id_exits_2(self, tmp_path, capsys, camera_id):
        entry = {"id": camera_id, "x": 1.0, "y": 1.0, "facing": 0.0, "r": 5.0, "phi": 2.0, "theta": 1.0}
        path = tmp_path / "cams.json"
        path.write_text(json.dumps([entry]))
        code = main(["deploy-grid", "--cameras", str(path), "--width", "10", "--height", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: camera id") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("x", True),
            ("r", True),
            ("y", "1.0"),
            ("facing", None),
            ("phi", False),
            ("theta", "0.5"),
            ("facing", math.nan),
            ("x", 10**400),
        ],
    )
    def test_non_numeric_camera_field_exits_2(self, tmp_path, capsys, field, value):
        entry = {"id": 0, "x": 1.0, "y": 1.0, "facing": 0.0, "r": 5.0, "phi": 2.0, "theta": 1.0, field: value}
        path = tmp_path / "cams.json"
        path.write_text(json.dumps([entry]))  # nan becomes NaN
        code = main(["deploy-grid", "--cameras", str(path), "--width", "10", "--height", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: camera field '{field}'") and captured.out == ""

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([1], "cameras[0]: expected a JSON object, got int"),
            (["a"], "cameras[0]: expected a JSON object, got str"),
            ([{}], "cameras[0]: missing field 'x'"),
            ([{"x": 1.0, "y": 1.0, "facing": 0.0}], "cameras[0]: missing field 'r'"),
            ([CAMERA, {**CAMERA, "id": 1}, None], "cameras[2]: expected a JSON object, got NoneType"),
            ([CAMERA, {key: CAMERA[key] for key in ("x", "y", "facing", "r", "phi", "theta")}],
             "cameras[1]: missing field 'id'"),
            # The first fault in file order wins, whatever its kind.
            ([{**CAMERA, "x": "1"}, 1], "camera field 'x' must be a finite number, got '1'"),
            ([{**CAMERA, "y": None}], "camera field 'y' must be a finite number, got None"),
        ],
    )
    def test_camera_entry_of_the_wrong_shape_exits_2_naming_it(self, tmp_path, capsys, entries, message):
        path = tmp_path / "cams.json"
        path.write_text(json.dumps(entries))
        code = main(["deploy-grid", "--cameras", str(path), "--width", "10", "--height", "10"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "size, d",
        [pytest.param("1e5", "1", id="1e5"), pytest.param("inf", "1", id="inf"), pytest.param("32", "1e-300", id="tiny-d")],
    )
    def test_grid_over_the_cell_limit_exits_2(self, capsys, camera_file, size, d):
        code = main(["deploy-grid", "--cameras", str(camera_file), "--width", size, "--height", size, "--d", d])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.out == ""
        # One short line: the region and d, not a row count of hundreds of digits.
        assert captured.err.count("\n") == 1 and len(captured.err) < 200

    @pytest.mark.parametrize("text", ["{}", '""', "null", "3", '{"id": 0}', '"abc"', "true"])
    def test_camera_file_that_is_not_a_list_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cams.json"
        path.write_text(text)
        code = main(["deploy-grid", "--cameras", str(path), "--width", "10", "--height", "10", "--d", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {path}: the camera file must be a JSON list\n"

    # SHA-256 of each command's output on the 120-camera file above, taken
    # before JSON output moved to a one-pass writer.
    PINNED_SHA256 = {
        "plan-line": "001f686995aa1e86fa01bc5f766a0f7e6bf0c07a8a10881198f48f86d1f0f922",
        "deploy-grid": "2e49fd809d8c896c486b8ae1485404c2f1cb9a715225cccb22a77972cf91f0e2",
        "barrier": "390619ee255713e0634e280ca6a1c7b717dbe29875d2e6ab3c347f802e3e1d86",
        "k-barrier": "d9a17777708d324432128db63446cd9bd6c3b83b9ce36f1a5545a9ea61161efd",
    }

    def test_plan_commands_keep_their_bytes(self, tmp_path, capsys, camera_file):
        plan_path = tmp_path / "plan.json"
        argvs = {
            "plan-line": ["plan-line", "--length", "100", "--r", "5"],
            "deploy-grid": ["deploy-grid", "--cameras", str(camera_file), "--width", "20", "--height", "10"],
            "barrier": ["barrier", "--plan", str(plan_path)],
            "k-barrier": ["k-barrier", "--plan", str(plan_path)],
        }
        digests = {}
        for command, argv in argvs.items():
            code, out = run(capsys, *argv)
            assert code == 0
            if command == "deploy-grid":
                plan_path.write_text(out)
            if command == "barrier":
                barrier = json.loads(out)
                assert barrier["exists"]
                assert library_camera_count(plan_path.read_text(), barrier) == barrier["camera_count"]
            digests[command] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == self.PINNED_SHA256

    # SHA-256 of the grid-cap plan below, taken before deploy-grid wrote
    # its plan from per-record templates.
    GRID_CAP_SHA256 = "fc20777fbc6e728134c6a221a69f7e4bf7fe1f74a874d677b2e7900d5907b76f"

    def test_grid_cap_plan_keeps_its_bytes_in_bounded_memory(self, tmp_path):
        # One camera on 500 x 500 cells: a 46 MB plan, almost all of it
        # deficits.  The write took the run to ~486 MiB of peak RSS when it
        # went through the dict view, and ~265 MiB from per-record
        # templates; written from the relocation's arrays it takes ~130
        # MiB.  The bound is half the first.  The child reads its own peak,
        # VmHWM: Linux carries the parent's ru_maxrss across fork and exec,
        # so ru_maxrss would report pytest's peak whenever that is larger.
        cameras = tmp_path / "cams.json"
        cameras.write_text('[{"id": 0, "x": 1.0, "y": 1.0, "facing": 0.0, "r": 5.0, "phi": 2.0, "theta": 0.7}]')
        plan = tmp_path / "plan.json"
        child = (
            "import re, sys\n"
            "from pathlib import Path\n"
            "from cambarrier.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', Path('/proc/self/status').read_text()).group(1))\n"
        )
        argv = ["deploy-grid", "--cameras", str(cameras), "--width", "500", "--height", "500", "--d", "1"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", child, *argv, "--out", str(plan)], capture_output=True, text=True, env=env, check=True
        )
        code, max_rss_kib = map(int, done.stdout.split())
        assert code == 0
        assert hashlib.sha256(plan.read_bytes()).hexdigest() == self.GRID_CAP_SHA256
        assert max_rss_kib < 242 * 1024

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    @pytest.mark.parametrize(
        "path, value",
        [
            (("grid", "m"), True),
            (("grid", "m"), 0),
            (("grid", "n"), 2.0),
            (("grid", "d"), True),
            (("grid", "width"), "20"),
            (("grid", "height"), math.inf),
            (("cells", 0, "cell"), [1]),
            (("cells", 0, "cell"), [1, "1"]),
            (("cells", 0, "cameras"), ["1"]),
            (("heads", 0, "id"), -1),
            (("heads", 0, "id"), None),
            (("assignments", 0, "vertex"), [1.0, 1]),
            (("assignments", 0, "down"), "7"),
            (("assignments", 0, "down"), True),
            (("assignments", 0, "up"), 1.5),
            (("assignments", 0, "stationed"), "12"),
            (("assignments", 0, "silent"), [False]),
            (("cameras", 0, "distance"), True),
            (("cameras", 0, "vertex"), [1.0, 1]),
            (("cameras", 0, "orientation"), "left"),
            (("deficits", 0, "orientation"), 1),
            (("d_within_bound",), "no"),
            (("d_within_bound",), 1),
        ],
        ids=lambda v: json.dumps(v) if not isinstance(v, str) else v,
    )
    def test_mistyped_plan_field_exits_2(self, tmp_path, capsys, camera_file, command, path, value):
        plan_path = tmp_path / "plan.json"
        assert run(capsys, "deploy-grid", "--cameras", str(camera_file), "--width", "20", "--height", "10",
                   "--out", str(plan_path))[0] == 0
        plan = json.loads(plan_path.read_text())
        assert plan["deficits"], "the plan must have a deficit to mistype"
        target = plan
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        plan_path.write_text(json.dumps(plan))  # inf becomes Infinity
        code = main([command, "--plan", str(plan_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: plan field {path[-1]!r}") and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("cells", "cameras"),
            ("heads", "id"),
            ("assignments", "stationed"),
            ("assignments", "down"),
            ("assignments", "up"),
            ("assignments", "silent"),
        ],
    )
    def test_plan_id_naming_no_camera_exits_2(self, tmp_path, capsys, camera_file, command, section, key):
        plan_path = tmp_path / "plan.json"
        assert run(capsys, "deploy-grid", "--cameras", str(camera_file), "--width", "20", "--height", "10",
                   "--out", str(plan_path))[0] == 0
        plan = json.loads(plan_path.read_text())
        entry = next(e for e in plan[section] if e[key] or e[key] == 0)
        entry[key] = [999999] if isinstance(entry[key], list) else 999999
        plan_path.write_text(json.dumps(plan))
        code = main([command, "--plan", str(plan_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: plan field {key!r}") and "999999" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    def test_plan_whose_down_duties_name_no_camera_exits_2(self, tmp_path, capsys, camera_file, command):
        plan_path = tmp_path / "plan.json"
        assert run(capsys, "deploy-grid", "--cameras", str(camera_file), "--width", "20", "--height", "10",
                   "--out", str(plan_path))[0] == 0
        assert json.loads(run(capsys, "barrier", "--plan", str(plan_path))[1])["camera_count"] == 12
        plan = json.loads(plan_path.read_text())
        for entry in plan["assignments"]:
            if entry["down"] is not None:
                entry["down"] = 999999
        plan_path.write_text(json.dumps(plan))
        code = main([command, "--plan", str(plan_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: plan field 'down' must be the id of a camera in 'cameras', got 999999\n"
        assert captured.out == ""

    @pytest.fixture()
    def plan_file(self, tmp_path, capsys, camera_file):
        plan_path = tmp_path / "plan.json"
        assert run(capsys, "deploy-grid", "--cameras", str(camera_file), "--width", "20", "--height", "10",
                   "--out", str(plan_path))[0] == 0
        return plan_path

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    def test_plan_grid_over_the_cell_limit_exits_2(self, capsys, plan_file, command):
        plan = json.loads(plan_file.read_text())
        plan["grid"]["m"] = plan["grid"]["n"] = 100_000
        plan_file.write_text(json.dumps(plan))
        start = time.perf_counter()
        code = main([command, "--plan", str(plan_file)])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert captured.err == f"error: a 100000 x 100000 plan grid exceeds {MAX_CELLS} cells\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    @pytest.mark.parametrize(
        "m, n, sizes",
        [(10**400, 8, "1.00e+400 x 8"), (3, 2**64, "3 x 1.84e+19"), (10**12 - 1, 10**12, "999999999999 x 1.00e+12")],
        ids=["huge m", "huge n", "12 and 13 digits"],
    )
    def test_an_oversized_plan_grid_is_named_in_one_short_line(self, capsys, plan_file, command, m, n, sizes):
        plan = json.loads(plan_file.read_text())
        plan["grid"]["m"], plan["grid"]["n"] = m, n
        plan_file.write_text(json.dumps(plan))
        code = main([command, "--plan", str(plan_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: a {sizes} plan grid exceeds {MAX_CELLS} cells\n"
        assert len(captured.err) < 120
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    @pytest.mark.parametrize(
        "section, key, pair",
        [
            ("cells", "cell", [0, 1]),
            ("cells", "cell", ["m+1", 1]),
            ("heads", "cell", [1, "n+1"]),
            ("heads", "cell", [1, -1]),
            ("assignments", "vertex", [0, 0]),
            ("assignments", "vertex", ["m+2", 1]),
            ("assignments", "vertex", [1, "n+2"]),
            ("cameras", "vertex", [-1, 1]),
            ("cameras", "vertex", ["m+2", "n+1"]),
            ("deficits", "vertex", [1, 0]),
        ],
        ids=lambda v: json.dumps(v) if not isinstance(v, str) else v,
    )
    def test_plan_pair_off_the_grid_exits_2(self, capsys, plan_file, command, section, key, pair):
        plan = json.loads(plan_file.read_text())
        m, n = plan["grid"]["m"], plan["grid"]["n"]
        sizes = {"m+1": m + 1, "m+2": m + 2, "n+1": n + 1, "n+2": n + 2}
        plan[section][0][key] = [sizes.get(v, v) for v in pair]
        plan_file.write_text(json.dumps(plan))
        code = main([command, "--plan", str(plan_file)])
        captured = capsys.readouterr()
        rows, cols = (m, n) if key == "cell" else (m + 1, n + 1)
        assert code == 2
        assert captured.err.startswith(
            f"error: plan field {key!r} must be a pair of integers in [1, {rows}] x [1, {cols}], got "
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    def test_plan_pairs_on_the_grid_edges_load(self, capsys, plan_file, command):
        plan = json.loads(plan_file.read_text())
        m, n = plan["grid"]["m"], plan["grid"]["n"]
        plan["heads"][0]["cell"] = [m, n]
        plan["cameras"][0]["vertex"] = [m + 1, n + 1]
        plan["deficits"][0]["vertex"] = [m + 1, 1]
        plan_file.write_text(json.dumps(plan))
        assert run(capsys, command, "--plan", str(plan_file))[0] == 0

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    @pytest.mark.parametrize(
        "path, value, message",
        [
            ((), [], "plan: expected a JSON object, got list"),
            ((), {}, "plan: missing field 'grid'"),
            ((), {"grid": {}}, "grid: missing field 'm'"),
            (("grid",), 3, "grid: expected a JSON object, got int"),
            (("grid", "width"), KeyError, "grid: missing field 'width'"),
            (("cameras",), KeyError, "plan: missing field 'cameras'"),
            (("cells",), {}, "cells: expected a JSON list, got dict"),
            (("deficits",), "", "deficits: expected a JSON list, got str"),
            (("heads", 0, "id"), KeyError, "heads[0]: missing field 'id'"),
            (("assignments", 1), [], "assignments[1]: expected a JSON object, got list"),
            (("cameras", 2), 7, "cameras[2]: expected a JSON object, got int"),
            (("cameras", 0, "x"), KeyError, "cameras[0]: missing field 'x'"),
            (("cameras", 0, "vertex"), KeyError, "cameras[0]: missing field 'vertex'"),
            (("cameras", 0, "distance"), KeyError, "cameras[0]: missing field 'distance'"),
            (("cameras", 0, "orientation"), KeyError, "cameras[0]: missing field 'orientation'"),
            (("d_within_bound",), KeyError, "plan: missing field 'd_within_bound'"),
        ],
        ids=lambda v: "delete" if v is KeyError else json.dumps(v) if not isinstance(v, str) else v,
    )
    def test_plan_of_the_wrong_shape_exits_2_naming_the_path(self, capsys, plan_file, command, path, value, message):
        plan = json.loads(plan_file.read_text())
        target = plan
        for key in path[:-1]:
            target = target[key]
        if not path:
            plan = value
        elif value is KeyError:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        plan_file.write_text(json.dumps(plan))
        code = main([command, "--plan", str(plan_file)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_camera_count_is_of_distinct_ids_when_a_plan_names_one_twice(self, capsys, plan_file):
        barrier = json.loads(run(capsys, "barrier", "--plan", str(plan_file))[1])
        assert barrier["camera_count"] == 12
        # Give the first path cell's top-right "down" duty to the camera
        # serving its top-left one.
        plan = json.loads(plan_file.read_text())
        i, j = barrier["path"][0]
        duties = {tuple(e["vertex"]): e for e in plan["assignments"]}
        duties[(i, j + 1)]["down"] = duties[(i, j)]["down"]
        plan_file.write_text(json.dumps(plan))
        again = json.loads(run(capsys, "barrier", "--plan", str(plan_file))[1])
        assert again["path"] == barrier["path"]
        assert again["camera_count"] == 11
        assert library_camera_count(plan_file.read_text(), again) == 11

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    def test_plan_commands_build_no_graph_objects(self, monkeypatch, capsys, plan_file, command):
        before = run(capsys, command, "--plan", str(plan_file))
        assert json.loads(before[1])["camera_count" if command == "barrier" else "k"] > 0

        def forbid(name):
            def fail(*args, **kwargs):
                pytest.fail(f"{command} called {name}")

            return fail

        names = OBJECT_PIPELINE + (("dumps",) if command == "barrier" else ())
        # cli first: a name of its lazy table is bound from its module when
        # first read, and must be bound to the function, not to a stand-in.
        for module in (cli, barrier_graph, grid_deploy, grid_model, serialize):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbid(name))
        monkeypatch.setattr(barrier_graph.CoverageGraph, "__init__", forbid("CoverageGraph"))
        assert run(capsys, command, "--plan", str(plan_file)) == before

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    def test_plan_commands_build_no_plan_objects(self, monkeypatch, capsys, plan_file, command):
        before = run(capsys, command, "--plan", str(plan_file))

        def forbid(name):
            def fail(*args, **kwargs):
                pytest.fail(f"{command} called {name}")

            return fail

        for module in (cli, serialize):  # cli first, as above
            for name in ("plan_from_dict", "cameras_from_list"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbid(name))
        for cls in (grid_model.DeploymentPlan, grid_model.CameraRecord, grid_model.VertexAssignment,
                    grid_model.GridModel, geometry.CameraPose):
            monkeypatch.setattr(cls, "__init__", forbid(cls.__name__))
        assert run(capsys, command, "--plan", str(plan_file)) == before

    def test_outside_camera_exits_3(self, tmp_path, capsys, camera_file):
        code, _ = run(
            capsys,
            "deploy-grid",
            "--cameras",
            str(camera_file),
            "--width",
            "5",
            "--height",
            "5",
        )
        assert code == 3


#: The grid-cap error for a region 1e300 wide and 32 high, at the cell
#: side of a 5 m radius: the width comes first, as every command takes it.
WIDE_REGION_ERROR = "error: a 1e+300 x 32.0 region in cells of side 4.47213595499958 exceeds 250000 cells\n"


def test_the_grid_cap_error_names_the_width_first(tmp_path, capsys):
    cameras = tmp_path / "cams.json"
    cameras.write_text(json.dumps([CAMERA]))
    assert main(["deploy-grid", "--cameras", str(cameras), "--width", "1e300", "--height", "32"]) == 2
    assert capsys.readouterr().err == WIDE_REGION_ERROR
    config = tmp_path / "config.json"
    fields = {"width": 1e300, "height": 32.0, "r": 5.0, "theta": 0.8, "phi": 2.0, "counts": [10], "seed": 1}
    config.write_text(json.dumps(fields))
    assert main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == WIDE_REGION_ERROR


#: A JSON int of 401 digits.
HUGE = 10**400

#: (command, input file, path of the field in it, value, error line): a
#: 401-digit int in a camera file, a plan or a config is named to 3
#: significant digits, alone or in a pair.
HUGE_INT_FAULTS = [
    ("deploy-grid", "cameras", (0, "x"), HUGE, "camera field 'x' must be a finite number, got 1.00e+400"),
    ("deploy-grid", "cameras", (0, "id"), -HUGE, "camera id must be an integer >= 0, got -1.00e+400"),
    ("barrier", "plan", ("cameras", 0, "distance"), HUGE, "plan field 'distance' must be a finite number, got 1.00e+400"),
    ("barrier", "plan", ("cameras", 0, "vertex"), [HUGE, 1],
     "plan field 'vertex' must be a pair of integers in [1, 4] x [1, 6], got [1.00e+400, 1]"),
    ("barrier", "plan", ("assignments", 0, "down"), HUGE,
     "plan field 'down' must be the id of a camera in 'cameras', got 1.00e+400"),
    ("k-barrier", "plan", ("grid", "width"), HUGE, "plan field 'width' must be a finite number, got 1.00e+400"),
    ("simulate", "config", ("trials",), -HUGE, "trials must be an integer >= 1, got -1.00e+400"),
    ("simulate", "config", ("trials",), HUGE,
     "the sweep draws 2.10e+401 cameras (1.00e+400 trials per count, a count of 0 taken as 1), more than 100000000"),
    ("simulate", "config", ("counts",), [HUGE], "camera count 1.00e+400 exceeds 1000000"),
    ("simulate", "config", ("width",), HUGE, "region dimensions must be positive and finite, got 1.00e+400 x 30.0"),
    ("simulate", "config", ("phi",), HUGE, "field of view must be in (0, 2*pi], got 1.00e+400"),
    ("simulate", "config", ("samples",), HUGE, "samples 1.00e+400 exceeds 20000"),
    ("simulate", "config", ("mode",), [HUGE], "mode must be one of ('static', 'mobile'), got [1.00e+400]"),
]


@pytest.mark.parametrize(
    "command, kind, path, value, message", HUGE_INT_FAULTS, ids=[f"{fault[0]}-{fault[2][-1]}" for fault in HUGE_INT_FAULTS]
)
def test_a_huge_int_is_named_in_one_short_line(tmp_path, capsys, command, kind, path, value, message):
    cameras = [camera_to_dict(c) for c in random_deploy(20.0, 10.0, 120, 11, CameraParams(5.0, 2.0, 0.8))]
    files = {"cameras": tmp_path / "cams.json", "plan": tmp_path / "plan.json", "config": tmp_path / "config.json"}
    files["cameras"].write_text(json.dumps(cameras))
    assert main(["deploy-grid", "--cameras", str(files["cameras"]), "--width", "20", "--height", "10",
                 "--out", str(files["plan"])]) == 0
    config = {"width": 30.0, "height": 30.0, "r": 20.0, "theta": 1.0, "phi": 2.0, "counts": [0, 20], "seed": 7}
    files["config"].write_text(json.dumps(config))
    data = json.loads(files[kind].read_text())
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    files[kind].write_text(json.dumps(data))
    region = ["--width", "20", "--height", "10"] if kind == "cameras" else []
    capsys.readouterr()
    assert main([command, f"--{kind}", str(files[kind]), *region]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and len(captured.err) < 200
    assert captured.out == ""


class TestSimulate:
    @pytest.fixture()
    def config_file(self, tmp_path):
        cfg = {
            "width": 30.0,
            "height": 30.0,
            "r": 20.0,
            "theta": math.pi / 3,
            "phi": 2 * math.pi / 3,
            "counts": [0, 20, 40],
            "trials": 6,
            "seed": 7,
            "mode": "mobile",
            "samples": 51,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_csv_to_stdout(self, capsys, config_file):
        code, out = run(capsys, "simulate", "--config", str(config_file))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,estimate,trials,successes,stderr"
        assert len(lines) == 4

    def test_byte_identical_reruns(self, tmp_path, capsys, config_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "simulate", "--config", str(config_file), "--out", str(out1))[0] == 0
        assert run(capsys, "simulate", "--config", str(config_file), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides_change_output(self, capsys, config_file):
        _, base = run(capsys, "simulate", "--config", str(config_file))
        _, reseeded = run(capsys, "simulate", "--config", str(config_file), "--seed", "8")
        _, retrialed = run(capsys, "simulate", "--config", str(config_file), "--trials", "3")
        assert base != reseeded
        assert "3,"[::-1] not in base  # trials column change visible
        assert retrialed != base

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"width": -1}))
        assert run(capsys, "simulate", "--config", str(bad))[0] == 2

    def test_missing_file_exits_2(self, capsys):
        assert run(capsys, "simulate", "--config", "/nonexistent.json")[0] == 2

    @pytest.mark.parametrize("text, kind", [("3", "int"), ("[]", "list"), ('"x"', "str"), ("null", "NoneType")])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, text, kind):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main(["simulate", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: config must be a JSON object, got {kind}\n"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", math.inf),
            ("r", math.nan),
            ("seed", True),
            ("counts", [1.7]),
            ("width", 1e300),
            ("counts", [1_000_000_000_000_000]),
            ("height", 10**400),  # an int too large for a float
            ("r", 10**400),
        ],
    )
    def test_bad_value_exits_2_without_traceback(self, tmp_path, capsys, config_file, field, value):
        cfg = json.loads(config_file.read_text())
        cfg[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))  # inf and nan become Infinity and NaN
        code = main(["simulate", "--config", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("r", True, "sensing radius must be a number, got True"),
            ("r", "5", "sensing radius must be a number, got '5'"),
            ("theta", "1", "effective angle must be a number, got '1'"),
            ("phi", True, "field of view must be a number, got True"),
            ("width", "30", "region width must be a number, got '30'"),
        ],
    )
    def test_value_that_is_not_a_number_exits_2_naming_it(self, tmp_path, capsys, config_file, field, value, message):
        cfg = json.loads(config_file.read_text())
        cfg[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["simulate", "--config", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("counts", ["12", {"a": 1}], ids=["string", "object"])
    def test_counts_that_are_not_a_list_exit_2_naming_counts(self, tmp_path, capsys, config_file, counts):
        cfg = json.loads(config_file.read_text())
        cfg["counts"] = counts
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["simulate", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: counts must be a list") and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_trials_over_the_work_budget_exit_2_without_running(self, tmp_path, capsys, config_file, how):
        cfg = json.loads(config_file.read_text())
        cfg["counts"] = [12]
        if how == "config":
            cfg["trials"] = 10**18
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(path)] + (["--trials", str(10**18)] if how == "flag" else [])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert str(WORK_BUDGET) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("how", ["config", "mode flag", "samples flag"])
    def test_static_work_over_the_budget_exits_2_without_running(self, tmp_path, capsys, config_file, how):
        # 100 trials of 100,000 cameras: draws within the budget, and
        # twice that at 2 samples, but not at 101.
        cfg = json.loads(config_file.read_text())
        cfg.update(counts=[100_000], trials=100, mode="mobile" if how == "mode flag" else "static")
        cfg["samples"] = 2 if how == "samples flag" else 101
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(path)]
        argv += {"config": [], "mode flag": ["--mode", "static"], "samples flag": ["--samples", "101"]}[how]
        start = time.perf_counter()
        code = main(argv)
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 5
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the static sweep tests ") and "Traceback" not in captured.err
        assert captured.err.endswith(f"more than {WORK_BUDGET}\n")

    def test_static_coarse_work_over_the_budget_exits_2_without_running(self, tmp_path, capsys, config_file):
        # 400,000 cameras at 2 samples are 8e5 camera samples of full tests,
        # but the coarse check of every column of the 448 x 448 grid tests
        # each camera in every cell of the column.
        cfg = json.loads(config_file.read_text())
        cfg.update(width=400.0, height=400.0, r=1.0, counts=[400_000], trials=1, mode="static", samples=2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code = main(["simulate", "--config", str(path)])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 5
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: the static sweep tests 359200000 camera samples (400000 cameras drawn times 2 samples plus "
            f"448 cells times 2 coarse samples), more than {WORK_BUDGET}\n"
        )

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_samples_over_the_cap_exit_2_without_traceback(self, tmp_path, capsys, config_file, how):
        huge = 1_000_000_000_000_000
        cfg = json.loads(config_file.read_text())
        cfg["mode"] = "static"
        if how == "config":
            cfg["samples"] = huge
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(path)] + (["--samples", str(huge)] if how == "flag" else [])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert str(MAX_SAMPLES) in captured.err
        assert captured.out == ""

    # Outputs taken before the static path was culled and cut short, and
    # before the config checks were tightened.
    PINNED = [
        (
            {"width": 30.0, "height": 30.0, "r": 20.0, "theta": math.pi / 3, "phi": 2 * math.pi / 3,
             "counts": [0, 20, 40, 80], "trials": 6, "seed": 7, "mode": "mobile", "samples": 51},
            "x,estimate,trials,successes,stderr\n0,0,6,0,0\n20,0.833333333,6,5,0.152145155\n"
            "40,1,6,6,0\n80,1,6,6,0\n",
        ),
        (
            {"width": 40.0, "height": 20.0, "r": 8.0, "theta": math.pi / 2, "phi": 2 * math.pi,
             "counts": [0, 10, 20, 30], "trials": 6, "seed": 7, "mode": "static", "samples": 31},
            "x,estimate,trials,successes,stderr\n0,0,6,0,0\n10,0.5,6,3,0.204124145\n"
            "20,1,6,6,0\n30,1,6,6,0\n",
        ),
        # A 7 x 7 grid, taken before mobile trials were decided from
        # per-cell camera counts.
        (
            {"width": 30.0, "height": 27.0, "r": 5.0, "theta": math.pi / 3, "phi": 2 * math.pi / 3,
             "counts": [0, 80, 100, 120, 140, 160, 200], "trials": 8, "seed": 11, "mode": "mobile",
             "samples": 51},
            "x,estimate,trials,successes,stderr\n0,0,8,0,0\n80,0,8,0,0\n100,0,8,0,0\n"
            "120,0.5,8,4,0.176776695\n140,0.5,8,4,0.176776695\n160,1,8,8,0\n200,1,8,8,0\n",
        ),
        # A 3 x 7 static grid, taken before full tests moved into the flood
        # fill.
        (
            {"width": 60.0, "height": 20.0, "r": 10.0, "theta": math.pi / 2, "phi": math.pi,
             "counts": [0, 15, 20, 25, 30, 40], "trials": 6, "seed": 5, "mode": "static", "samples": 101},
            "x,estimate,trials,successes,stderr\n0,0,6,0,0\n15,0.166666667,6,1,0.152145155\n"
            "20,0.5,6,3,0.204124145\n25,0.5,6,3,0.204124145\n30,0.833333333,6,5,0.152145155\n"
            "40,1,6,6,0\n",
        ),
        # Static sweeps where the segment cull drops cameras by facing
        # (phi = pi/3) and by distance to the segment (phi = 2*pi), taken
        # before it did.
        (
            {"width": 40.0, "height": 30.0, "r": 12.0, "theta": math.pi / 2, "phi": math.pi / 3,
             "counts": [0, 50, 75, 100, 200], "trials": 6, "seed": 3, "mode": "static", "samples": 101},
            "x,estimate,trials,successes,stderr\n0,0,6,0,0\n50,0.666666667,6,4,0.19245009\n"
            "75,0.833333333,6,5,0.152145155\n100,0.833333333,6,5,0.152145155\n200,1,6,6,0\n",
        ),
        (
            {"width": 48.0, "height": 24.0, "r": 9.0, "theta": math.pi / 3, "phi": 2 * math.pi,
             "counts": [0, 30, 50, 70, 100], "trials": 5, "seed": 4, "mode": "static", "samples": 101},
            "x,estimate,trials,successes,stderr\n0,0,5,0,0\n30,0,5,0,0\n50,0,5,0,0\n"
            "70,0.2,5,1,0.178885438\n100,0.8,5,4,0.178885438\n",
        ),
    ]

    @pytest.mark.parametrize(
        "cfg, expected",
        PINNED,
        ids=["mobile", "static", "mobile-7x7", "static-3x7", "static-narrow-fov", "static-full-circle"],
    )
    def test_integer_configs_keep_their_bytes(self, tmp_path, capsys, cfg, expected):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(capsys, "simulate", "--config", str(path)) == (0, expected)


class TestFig3:
    def test_table(self, capsys):
        code, out = run(capsys, "fig3", "--length", "100", "--r-min", "2", "--r-max", "10", "--step", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 10
        r5 = lines[4].split(",")
        assert r5[0] == "5" and r5[1] == "48"

    def test_bad_step_exits_2(self, capsys):
        assert run(capsys, "fig3", "--length", "100", "--r-min", "2", "--r-max", "10", "--step", "0")[0] == 2

    def test_r_min_past_r_max_exits_2(self, capsys):
        code = main(["fig3", "--length", "10", "--r-min", "5", "--r-max", "4.5"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: empty radius range\n")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"--r-max": "inf"},
            {"--r-max": "nan"},
            {"--r-min": "nan"},
            {"--r-min": "-inf"},
            {"--length": "inf"},
            {"--step": "inf"},
            {"--step": "1e-9"},  # 8e9 radii
            {"--r-min": "-1e308", "--r-max": "1e308"},  # r_max - r_min overflows to inf
        ],
    )
    def test_unbounded_radius_range_exits_2(self, capsys, overrides):
        argv = {"--length": "100", "--r-min": "2", "--r-max": "10", "--step": "1", **overrides}
        code = main(["fig3", *(f"{k}={v}" for k, v in argv.items())])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("r", ["1e-300", "1"])
    def test_a_count_past_the_largest_float_exits_2(self, capsys, r):
        code = main(["fig3", "--length", "1e308", "--r-min", r, "--r-max", r])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: a barrier of length 1e+308 at radius {float(r)} needs more cameras than a float can hold\n"
        assert captured.out == ""

    def test_a_count_near_the_largest_float_keeps_its_row(self, capsys):
        code, out = run(capsys, "fig3", "--length", "1e307", "--r-min", "1", "--r-max", "1")
        assert code == 0
        assert out.startswith("x,estimate,trials,successes,stderr\n1,2.23606798e+307,1,2236067977499789617")
        assert out.endswith(",0\n") and out.count("\n") == 2
        assert hashlib.sha256(out.encode()).hexdigest() == "f5b067eae23eee7f866ff32858562017623705269f0d532b395ff8d3192e88cd"

    def test_radius_count_worked_out_before_the_loop_keeps_the_table(self, capsys):
        code, out = run(capsys, "fig3", "--length", "100", "--r-min", "2", "--r-max", "3.2", "--step", "0.3")
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == ["2", "2.3", "2.6", "2.9", "3.2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["barrier", "--plan"],
        ["k-barrier", "--plan"],
        ["deploy-grid", "--width", "10", "--height", "10", "--cameras"],
        ["simulate", "--config"],
    ],
    ids=lambda argv: argv[0],
)
def test_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {path}: JSON nested too deeply to load\n"
    assert captured.out == ""


#: Stands in for a 5,000-deep ``[[[...]]]`` in a fuzzed file's text.
DEEP = "deeply nested"

#: What the CLI fuzz test puts in place of a field: every JSON type,
#: huge and non-finite numbers, and shallow nesting.
FUZZ_VALUES = (
    True, "1", "static", None, 0, -1, 2.0, 10**400, -(10**400), 2**64, 1e308, -1e308,
    math.nan, math.inf, [], {}, [[[1]]],
)


def slots(tree):
    """``(parent, key)`` of every value below the root of a JSON tree."""
    parents = [tree] if isinstance(tree, (dict, list)) else []
    k = 0
    while k < len(parents):  # every dict and list of the tree
        children = parents[k].values() if isinstance(parents[k], dict) else parents[k]
        parents += [c for c in children if isinstance(c, (dict, list))]
        k += 1
    return [(p, key) for p in parents for key in (p if isinstance(p, dict) else range(len(p)))]


@st.composite
def fuzzed(draw, tree):
    """``tree`` as JSON text with one to three fields replaced, deleted,
    wrapped in a list or nested 5,000 deep."""
    tree = copy.deepcopy(tree)
    for _ in range(draw(st.integers(1, 3))):
        keyed = slots(tree)
        if not keyed:
            break
        parent, key = draw(st.sampled_from(keyed))
        kind = draw(st.sampled_from(("replace", "delete", "wrap", "nest")))
        if kind == "delete" and isinstance(parent, dict):
            del parent[key]
        elif kind == "wrap":
            parent[key] = [parent[key]]
        elif kind == "nest":
            parent[key] = DEEP
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return json.dumps(tree).replace(json.dumps(DEEP), "[" * 5000 + "]" * 5000)


def _fuzz_inputs():
    poses = random_deploy(10.0, 10.0, 12, 3, CameraParams(r=5.0, phi=2 * math.pi / 3, theta=math.pi / 4))
    cameras = [camera_to_dict(c) for c in poses]
    plan = json.loads(serialize.plan_json(grid_deploy.run_algorithm1(10.0, 10.0, poses, 4.0)))
    config = {"width": 10.0, "height": 10.0, "r": 5.0, "theta": 1.0, "phi": 2.0, "counts": [0, 12], "trials": 2,
              "seed": 7, "mode": "static", "samples": 11}
    return {"plan": plan, "cameras": cameras, "config": config}


FUZZ_INPUTS = _fuzz_inputs()

#: The commands run on each fuzzed file.  ``simulate`` runs 2 trials
#: whatever the file says: its ``trials`` field is still checked, but a
#: valid huge count is a long run by request, not a fault.
FUZZ_COMMANDS = {
    "plan": (["barrier", "--plan"], ["k-barrier", "--plan"]),
    "cameras": (["deploy-grid", "--width", "10", "--height", "10", "--cameras"],),
    "config": (["simulate", "--trials", "2", "--config"],),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", sorted(FUZZ_INPUTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_inputs_exit_2_or_3_without_a_traceback(fuzz_dir, kind, data):
    path = fuzz_dir / f"{kind}.json"
    path.write_text(data.draw(fuzzed(FUZZ_INPUTS[kind])))
    for argv in FUZZ_COMMANDS[kind]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, str(path), "--out", str(fuzz_dir / "out")])
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert code == 0 or err.getvalue().startswith("error: ")


#: What a mutation puts in place of a value, the file's root included:
#: every JSON type, empty and wrong containers, and numbers that are
#: either off their range or at most 1, so that no mutated config asks
#: for a longer sweep than the one it came from.
MUTANTS = (True, False, None, "5", "", [], {}, [1], {"x": 1}, -1, 0, 0.5, math.nan, math.inf, 10**400)

#: Raw Python exception texts that an error message must not hold.
RAW_TEXTS = (
    "object is not", "indices must be", "not supported between", "index out of range", "unhashable",
    "has no attribute", "not iterable", "must be real number", "unsupported operand", "Traceback",
)


@st.composite
def mutated(draw, tree):
    """``tree`` with one to three of its values, the root among them,
    replaced by a :data:`MUTANTS` value, deleted or wrapped in a list."""
    tree = {"root": copy.deepcopy(tree)}
    for _ in range(draw(st.integers(1, 3))):
        parent, key = draw(st.sampled_from(slots(tree)))
        kind = draw(st.sampled_from(("replace", "delete", "wrap")))
        if kind == "delete" and isinstance(parent, dict) and parent is not tree:
            del parent[key]
        elif kind == "wrap":
            parent[key] = [parent[key]]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
    return json.dumps(tree["root"])


@pytest.mark.parametrize("kind", sorted(FUZZ_INPUTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_with_one_line_naming_the_fault(fuzz_dir, kind, data):
    path = fuzz_dir / f"{kind}.json"
    path.write_text(data.draw(mutated(FUZZ_INPUTS[kind])))
    for argv in FUZZ_COMMANDS[kind]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, str(path), "--out", str(fuzz_dir / "out")])
        text = err.getvalue()
        assert code in (0, 2, 3), (argv, text)
        if code:
            assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n"), text
            assert not re.fullmatch(r"error: '[^']*'\n", text), text  # a bare KeyError
            assert not any(raw in text for raw in RAW_TEXTS), text


def test_every_benchmark_trace_target_resolves(monkeypatch):
    # The trace wraps each (module, name) pair; a name missing from its
    # module makes every traced benchmark run fail.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for module, name, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"cambarrier.{module}"), name)), (module, name)


#: argv whose outcome the parser decides: help, usage and error texts.
PARSER_ARGV = [
    [],
    ["--help"],
    ["-h", "barrier"],
    ["bogus"],
    ["bogus", "--plan", "p.json"],
    *([name, "--help"] for name in cli.COMMANDS),
    ["plan-line", "--r", "5"],
    ["deploy-grid", "--cameras", "c.json", "--height", "10"],
    ["barrier"],
    ["k-barrier"],
    ["simulate"],
    ["fig3", "--length", "10", "--r-min", "1"],
    ["simulate", "--config", "c.json", "--mode", "bogus"],
    ["deploy-grid", "--cameras", "c.json", "--width", "abc", "--height", "10"],
    ["plan-line", "--length", "10", "--r", "5", "--bogus"],
    ["deploy-grid", "--cameras", "c.json", "--width", "10", "--height", "10", "extra"],
    ["barrier", "--plan", "p.json", "--bogus", "1"],
    ["k-barrier", "--plan", "p.json", "k-barrier"],
    ["simulate", "--config", "c.json", "-x"],
    ["fig3", "--length", "10", "--r-min", "1", "--r-max", "2", "--bogus"],
]


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
    return exit_info.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
def test_main_prints_what_the_full_parser_prints(monkeypatch, columns, argv):
    # Help, usage and error texts wrap at COLUMNS.
    monkeypatch.setenv("COLUMNS", columns)
    expected = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert expected[0] in (0, 2)
    assert _parse_outcome(main, argv) == expected


@contextlib.contextmanager
def _parsers_built():
    """Yields a list that gains one entry per ArgumentParser constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, "__init__", spy):
        yield built


def _benchmark_argv(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    paths = workloads.Paths.under(Path("run"))
    return [workloads.argv(w, op, paths) for w in workloads.WORKLOADS.values() for op in workloads.OPS]


def _readme_argv():
    text = (ROOT / "README.md").read_text()
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("cambarrier ")]


def test_well_formed_argv_build_no_parser(monkeypatch):
    readme = _readme_argv()
    assert [argv[0] for argv in readme] == list(cli.COMMANDS)
    for argv in _benchmark_argv(monkeypatch) + readme:
        with _parsers_built() as built:
            args = cli.parse_args(argv)
        assert built == [], argv
        assert vars(args) == vars(cli.build_parser().parse_args(argv))
    with _parsers_built() as built:
        assert main(["plan-line", "--length", "10", "--r", "2"]) == 0
    assert built == []


@pytest.mark.parametrize("argv", [["barrier", "--help"], ["barrier", "--plan", "p.json", "--bogus"]])
def test_help_and_unrecognized_arguments_build_the_full_parser(argv):
    with _parsers_built() as built, pytest.raises(SystemExit):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    assert built == ["cambarrier", *(f"cambarrier {name}" for name in cli.COMMANDS)]


#: One argv per command that parses, with inputs that do not exist.
COMMAND_ARGV = {
    "plan-line": ["--length", "10", "--r", "2"],
    "deploy-grid": ["--cameras", "missing.json", "--width", "10", "--height", "10"],
    "barrier": ["--plan", "missing.json"],
    "k-barrier": ["--plan", "missing.json"],
    "simulate": ["--config", "missing.json"],
    "fig3": ["--length", "10", "--r-min", "1", "--r-max", "2"],
}


@pytest.mark.parametrize(
    "out, shown",
    [(["--out", ""], "''"), (["--out="], "''"), (["--out=--"], "[]")],
    ids=["separate", "equals", "dashes"],
)
@pytest.mark.parametrize("command", COMMAND_ARGV)
def test_empty_out_exits_2_before_any_work(capsys, command, out, shown):
    assert list(COMMAND_ARGV) == list(cli.COMMANDS)
    code = main([command, *COMMAND_ARGV[command], *out])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: --out must name a file, got {shown}\n"


#: ``(command, flag, names a file)`` for every flag of every command.
FLAGS = [
    (name, flag, type_ is str and choices is None)
    for name, (_, flags, _) in cli.COMMANDS.items()
    for flag, _, type_, _, _, choices, _ in (*flags, cli._OUT)
]


@pytest.mark.parametrize(
    "command, flag, path, value",
    [(*spec, "--") for spec in FLAGS] + [(*spec, "") for spec in FLAGS if spec[2]],
)
def test_an_empty_value_exits_2_naming_its_flag_before_any_work(capsys, command, flag, path, value):
    # argparse drops the "--" of "--flag=--" and leaves the flag an empty list.
    given = COMMAND_ARGV[command]
    others = [item for pair in zip(given[::2], given[1::2]) if pair[0] != flag for item in pair]
    code = main([command, *others, f"{flag}={value}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    shown = [] if value == "--" else value
    assert captured.err == f"error: {flag} must {'name a file' if path else 'have a value'}, got {shown!r}\n"


ALL_FLAGS = sorted({spec[0] for _, flags, _ in cli.COMMANDS.values() for spec in flags} | {"--out"})
ABBREVIATIONS = ["--con", "--pl", "--wid", "--he", "--r-m", "--len", "--mo", "--o", "--h", "-h"]
VALUES = ["1", "-1", "2.5", "nan", "1e999", "", "-", "--", "abc", "0x10", "1_000", "\u0663", "static", "bogus"]


def good_values(spec):
    """Values that ``spec``'s flag takes."""
    _, _, type_, _, _, choices, _ = spec
    if choices:
        return st.sampled_from(choices)
    if type_ is str:
        return st.sampled_from(["p.json", "a b", "static", "x=y", ""])
    return st.sampled_from(["1", "0", "1_000", "\u0663"] + ["2.5", "1e999"] * (type_ is float))


@st.composite
def cli_argv(draw):
    """A command and, in any order, some of its flags, with values it takes
    or from VALUES, and a few other commands' flags and abbreviations, each
    alone, with a separate value or as ``flag=value``."""
    name = draw(st.sampled_from([*cli.COMMANDS, "bogus"]))
    specs = [*cli.COMMANDS.get(name, ("", ()))[1], cli._OUT]
    parts = []
    for spec in specs:
        if draw(st.sampled_from([True, True, True, False])):
            value = draw(good_values(spec) | st.sampled_from(VALUES))
            parts.append([f"{spec[0]}={value}"] if draw(st.booleans()) else [spec[0], value])
    flag = st.sampled_from([spec[0] for spec in specs] + ALL_FLAGS + ABBREVIATIONS)
    value = st.sampled_from(VALUES)
    item = st.one_of(
        st.tuples(flag, value).map(list),
        st.tuples(flag, value).map(lambda fv: [f"{fv[0]}={fv[1]}"]),
        flag.map(lambda f: [f]),
        value.map(lambda v: [v]),
    )
    parts += draw(st.lists(item, max_size=2))
    return [name, *(item for part in draw(st.permutations(parts)) for item in part)]


@st.composite
def well_formed_argv(draw):
    """Every required flag of a command and some optional ones, once each,
    in any order, with values that it takes."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    argv = [name]
    for spec in draw(st.permutations([*cli.COMMANDS[name][1], cli._OUT])):
        if spec[3] or draw(st.booleans()):
            value = draw(good_values(spec))
            argv += [f"{spec[0]}={value}"] if draw(st.booleans()) else [spec[0], value]
    return argv


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # repr: a "nan" value is not equal to itself.
            result = repr(vars(parse(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_parse_args_matches_the_full_parser(argv):
    assert _outcome(cli.parse_args, argv) == _outcome(lambda a: cli.build_parser().parse_args(a), argv)


@settings(max_examples=100, deadline=None)
@given(argv=well_formed_argv())
def test_well_formed_argv_are_parsed_from_the_table(argv):
    with _parsers_built() as built:
        outcome = _outcome(cli.parse_args, argv)
    assert built == []
    assert outcome == _outcome(lambda a: cli.build_parser().parse_args(a), argv)


def test_the_full_parser_lists_every_command_in_table_order():
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.COMMANDS)
    assert list(cli.COMMANDS) == ["plan-line", "deploy-grid", "barrier", "k-barrier", "simulate", "fig3"]
