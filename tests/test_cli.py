import json
import math

import pytest

from cambarrier.cli import main
from cambarrier.serialize import camera_to_dict
from cambarrier.simulate import random_deploy
from cambarrier.geometry import CameraParams


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
    ]

    @pytest.mark.parametrize("cfg, expected", PINNED, ids=["mobile", "static", "mobile-7x7"])
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
