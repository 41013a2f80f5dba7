import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cambarrier import barrier_graph, cli, grid_deploy, serialize
from cambarrier.cli import main
from cambarrier.grid_deploy import MAX_CELLS
from cambarrier.serialize import camera_to_dict
from cambarrier.simulate import MAX_SAMPLES, random_deploy
from cambarrier.geometry import CameraParams


#: The functions of the graph-object barrier pipeline, which stay as the
#: paper's named steps and as test oracles.
OBJECT_PIPELINE = (
    "staffed_cells",
    "cell_fully_staffed",
    "build_graph",
    "prune_degree_one",
    "shortest_barrier",
    "distinct_cameras",
    "column_counts",
    "k_barrier_count",
    "graph_to_dict",
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        assert captured.err == f"error: barrier length must be positive, got {float(length)}\n"
        code = main(["fig3", f"--length={length}", "--r-min", "3", "--r-max", "3"])
        assert (code, capsys.readouterr().err) == (2, captured.err)

    @pytest.mark.parametrize("length, r", [("1e12", "3"), ("100", "1e-12"), ("1e308", "1e-300")])
    def test_deployment_over_the_camera_cap_exits_2_at_once(self, capsys, length, r):
        start = time.perf_counter()
        code = main(["plan-line", "--length", length, "--r", r])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 0.5
        assert code == 2 and captured.out == ""
        assert captured.err == "error: the deployment needs more than 1000000 cameras\n"


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

        code, out = run(capsys, "k-barrier", "--plan", str(plan_path))
        assert code == 0
        kdata = json.loads(out)
        assert kdata["k"] == min(kdata["column_counts"])

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

    @pytest.mark.parametrize("size", ["1e5", "inf"])
    def test_grid_over_the_cell_limit_exits_2(self, capsys, camera_file, size):
        code = main(["deploy-grid", "--cameras", str(camera_file), "--width", size, "--height", size, "--d", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.out == ""

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
            digests[command] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == self.PINNED_SHA256

    # SHA-256 of the grid-cap plan below, taken before deploy-grid wrote
    # its plan from per-record templates.
    GRID_CAP_SHA256 = "fc20777fbc6e728134c6a221a69f7e4bf7fe1f74a874d677b2e7900d5907b76f"

    def test_grid_cap_plan_keeps_its_bytes_in_bounded_memory(self, tmp_path):
        # One camera on 500 x 500 cells: a 46 MB plan, almost all of it
        # deficits.  The write took the run to ~486 MiB of peak RSS when it
        # went through the dict view; a fresh process measures only this run.
        cameras = tmp_path / "cams.json"
        cameras.write_text('[{"id": 0, "x": 1.0, "y": 1.0, "facing": 0.0, "r": 5.0, "phi": 2.0, "theta": 0.7}]')
        plan = tmp_path / "plan.json"
        child = (
            "import resource, sys\n"
            "from cambarrier.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        argv = ["deploy-grid", "--cameras", str(cameras), "--width", "500", "--height", "500", "--d", "1"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", child, *argv, "--out", str(plan)], capture_output=True, text=True, env=env, check=True
        )
        code, max_rss_kib = map(int, done.stdout.split())
        assert code == 0
        assert hashlib.sha256(plan.read_bytes()).hexdigest() == self.GRID_CAP_SHA256
        assert max_rss_kib < 400 * 1024

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

    @pytest.mark.parametrize("command", ["barrier", "k-barrier"])
    def test_plan_commands_build_no_graph_objects(self, monkeypatch, capsys, plan_file, command):
        before = run(capsys, command, "--plan", str(plan_file))
        assert json.loads(before[1])["camera_count" if command == "barrier" else "k"] > 0

        def forbid(name):
            def fail(*args, **kwargs):
                pytest.fail(f"{command} called {name}")

            return fail

        names = OBJECT_PIPELINE + (("dumps",) if command == "barrier" else ())
        for module in (barrier_graph, grid_deploy, serialize, cli):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbid(name))
        monkeypatch.setattr(barrier_graph.CoverageGraph, "__init__", forbid("CoverageGraph"))
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", math.inf),
            ("r", math.nan),
            ("seed", True),
            ("counts", [1.7]),
            ("width", 1e300),
            ("counts", [1_000_000_000_000_000]),
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

    def test_radius_count_worked_out_before_the_loop_keeps_the_table(self, capsys):
        code, out = run(capsys, "fig3", "--length", "100", "--r-min", "2", "--r-max", "3.2", "--step", "0.3")
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == ["2", "2.3", "2.6", "2.9", "3.2"]


def test_every_benchmark_trace_target_resolves(monkeypatch):
    # The trace wraps each (module, name) pair; a name missing from its
    # module makes every traced benchmark run fail.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for module, name, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"cambarrier.{module}"), name)), (module, name)
