import dataclasses
import math
import time

import numpy as np
import pytest

import cambarrier.barrier_graph as barrier_graph_module
import cambarrier.grid_deploy as grid_deploy_module
import cambarrier.grid_model as grid_model_module
import cambarrier.simulate as simulate_module
from cambarrier.barrier_graph import build_graph, duty_slots, extract_barrier, prune_degree_one, shortest_barrier
from cambarrier.full_view import CULL_MARGIN, Cameras
from cambarrier.geometry import EPS, CameraParams, CameraPose, Point2D
from cambarrier.grid_deploy import cell_counts, run_algorithm1, staffed_mask
from cambarrier.grid_model import FACE_DOWN, FACE_UP, grid_length_bound, grid_shape, staffed_cells
from cambarrier.line_model import SWING_FOV
from cambarrier.serialize import CSV_HEADER, sweep_csv_text
from cambarrier.simulate import (
    MAX_CAMERAS,
    MAX_SAMPLES,
    WORK_BUDGET,
    ScenarioConfig,
    SweepResult,
    SweepRow,
    barrier_camera_count_sweep,
    barrier_exists_mobile,
    barrier_exists_static,
    coverage_probability_sweep,
    draw_cameras,
    fig3_sweep,
    random_deploy,
    trial_seed,
    with_overrides,
)

from helpers import ref_full_view_point

PARAMS = CameraParams(r=20.0, phi=2 * math.pi / 3, theta=math.pi / 3)


def small_config(**overrides):
    base = dict(
        width=30.0,
        height=30.0,
        r=20.0,
        theta=math.pi / 3,
        phi=2 * math.pi / 3,
        counts=(0, 20, 40),
        trials=10,
        seed=7,
        mode="mobile",
        samples=51,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfig:
    def test_round_trip(self):
        cfg = small_config()
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ScenarioConfig.from_dict({**small_config().to_dict(), "bogus": 1})
        with pytest.raises(ValueError, match="missing"):
            ScenarioConfig.from_dict({"width": 10})

    @pytest.mark.parametrize("data, kind", [(3, "int"), ([], "list"), ("x", "str"), (None, "NoneType")])
    def test_rejects_a_value_that_is_not_an_object(self, data, kind):
        with pytest.raises(ValueError, match=f"^config must be a JSON object, got {kind}$"):
            ScenarioConfig.from_dict(data)

    def test_grid_is_the_bound_and_its_shape(self):
        for cfg in (small_config(), small_config(width=95.0, height=12.5, r=7.0), small_config(width=0.5, r=3.0)):
            d = grid_length_bound(cfg.r)
            assert cfg.grid == (d, *grid_shape(cfg.width, cfg.height, d))

    def test_grid_is_not_a_field(self):
        cfg = small_config()
        assert cfg.grid
        names = ["width", "height", "r", "theta", "phi", "counts", "seed", "trials", "mode", "samples"]
        assert [f.name for f in dataclasses.fields(cfg)] == names
        assert sorted(cfg.to_dict()) == sorted(names)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValueError, match=r"^unknown config fields: \['grid'\]$"):
            ScenarioConfig.from_dict({**cfg.to_dict(), "grid": [1.0, 1, 1]})

    def test_a_copy_with_new_values_gets_a_new_grid(self):
        cfg = small_config()
        _, m, n = cfg.grid  # cached on cfg
        for copy in (dataclasses.replace(cfg, r=5.0), with_overrides(cfg, width=95.0, height=12.5)):
            d = grid_length_bound(copy.r)
            assert copy.grid == (d, *grid_shape(copy.width, copy.height, d))
            assert copy.grid[1:] != (m, n)
        assert cfg.grid == (grid_length_bound(cfg.r), m, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(mode="walk")
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(theta=2.0)
        with pytest.raises(ValueError):
            small_config(seed=-1)
        with pytest.raises(ValueError):
            small_config(counts=(-5,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", math.inf),
            ("height", math.nan),
            ("width", True),
            ("r", math.nan),
            ("r", math.inf),
            ("phi", math.nan),
            ("seed", True),
            ("seed", 7.0),
            ("counts", (1.7,)),
            ("counts", (20, False)),
            ("trials", 2.5),
            ("samples", True),
        ],
    )
    def test_rejects_non_finite_bool_and_fractional_values(self, field, value):
        with pytest.raises(ValueError):
            small_config(**{field: value})

    def test_rejects_regions_over_the_cell_limit(self):
        with pytest.raises(ValueError, match="exceeds"):
            small_config(width=1e300)
        with pytest.raises(ValueError, match="exceeds"):
            small_config(width=1e5, height=1e5)

    def test_rejects_counts_over_the_camera_limit(self):
        assert small_config(counts=(MAX_CAMERAS,)).counts == (MAX_CAMERAS,)
        with pytest.raises(ValueError, match="exceeds"):
            small_config(counts=(0, MAX_CAMERAS + 1))

    def test_rejects_samples_over_the_cap(self):
        assert small_config(samples=MAX_SAMPLES).samples == MAX_SAMPLES
        with pytest.raises(ValueError, match="exceeds"):
            small_config(samples=MAX_SAMPLES + 1)

    def test_integer_counts_of_any_integer_type_are_kept_as_int(self):
        cfg = small_config(counts=np.arange(0, 60, 20))
        assert cfg.counts == (0, 20, 40) and all(type(c) is int for c in cfg.counts)

    @pytest.mark.parametrize("counts", ["12", {"a": 1}, 12, np.zeros((2, 2), dtype=int), None])
    def test_counts_that_are_not_a_list_are_named(self, counts):
        with pytest.raises(ValueError, match="^counts must be a list"):
            small_config(counts=counts)

    def test_work_budget_bounds_counts_times_trials(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "WORK_BUDGET", 120)
        # 10 trials of 0 + 5 + 7 cameras, a count of 0 taken as 1.
        assert small_config(counts=(0, 5, 6), trials=10).trials == 10
        with pytest.raises(ValueError, match="draws 130 cameras.*more than 120"):
            small_config(counts=(0, 5, 7), trials=10)
        with pytest.raises(ValueError, match="draws 121 cameras"):
            small_config(counts=(0,), trials=121)
        # Overrides pass the same check.
        cfg = small_config(counts=(0, 5, 6), trials=10)
        with pytest.raises(ValueError, match="more than 120"):
            with_overrides(cfg, trials=11)

    def test_work_budget_admits_the_default_trials_at_the_camera_limit(self):
        assert WORK_BUDGET == 100 * MAX_CAMERAS
        assert small_config(counts=(MAX_CAMERAS,), trials=100).trials == 100
        with pytest.raises(ValueError, match="more than"):
            small_config(counts=(MAX_CAMERAS, 0), trials=100)
        for trials in (10**18, np.int64(10**18)):
            with pytest.raises(ValueError, match="more than"):
                small_config(counts=(12,), trials=trials)

    def test_static_work_budget_also_counts_samples(self, monkeypatch):
        # 10 trials of 0 + 5 + 7 cameras, a count of 0 taken as 1: 130
        # draws, each tested at 10 samples plus 6 coarse samples in each of
        # the 2 cells of a column: 130 * (10 + 2 * 6) = 2860.
        monkeypatch.setattr(simulate_module, "WORK_BUDGET", 2860)
        assert small_config(counts=(0, 5, 7), trials=10, mode="static", samples=10).samples == 10
        with pytest.raises(
            ValueError,
            match=r"tests 2990 camera samples \(130 cameras drawn times 11 samples plus 2 cells times 6 coarse "
            r"samples\), more than 2860",
        ):
            small_config(counts=(0, 5, 7), trials=10, mode="static", samples=11)
        # Mobile mode tests no samples, and overrides pass the same check.
        mobile = small_config(counts=(0, 5, 7), trials=10, mode="mobile", samples=np.int64(MAX_SAMPLES))
        for overrides in ({"mode": "static"}, {"mode": "static", "samples": 11}):
            with pytest.raises(ValueError, match="more than 2860"):
                with_overrides(mobile, **overrides)
        static = small_config(counts=(0, 5, 7), trials=10, mode="static", samples=10)
        with pytest.raises(ValueError, match="more than 2860"):
            with_overrides(static, samples=11)

    def test_static_work_budget_counts_the_coarse_check_of_every_cell(self, monkeypatch):
        # Few samples over many rows: 1 trial of 400,000 cameras at 2
        # samples draws 8e5 cameras, but the coarse check of a 448-row
        # column tests each at 2 samples in every cell.
        fields = dict(width=400.0, height=400.0, r=1.0, counts=(400_000,), trials=1, samples=2)
        assert small_config(**fields, mode="mobile").trials == 1
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"tests 359200000 camera samples .*448 cells times 2 coarse samples"):
            small_config(**fields, mode="static")
        assert time.perf_counter() - start < 1
        # The bound counts 1 + m * min(samples, 6) per drawn camera over
        # samples: with the budget cut to exactly that, 6 samples pass and
        # 7 do not.
        monkeypatch.setattr(simulate_module, "WORK_BUDGET", 130 * (6 + 2 * 6))
        assert small_config(counts=(0, 5, 7), trials=10, mode="static", samples=6).samples == 6
        with pytest.raises(ValueError, match="more than"):
            small_config(counts=(0, 5, 7), trials=10, mode="static", samples=7)

    def test_benchmark_static_sweeps_stay_inside_the_budget(self, monkeypatch):
        # dominance: 3,902 draws tested at 101 + 4 * 6 samples; wide-field:
        # 384 draws at 101 + 8 * 6.
        dominance = dict(width=50.0, height=100.0, r=30.0, counts=tuple(range(0, 301, 25)), trials=2)
        wide_field = dict(width=32.0, height=32.0, r=5.0, counts=(128, 256), trials=1)
        for fields, tested in ((dominance, 3902 * 125), (wide_field, 384 * 149)):
            assert tested < WORK_BUDGET
            monkeypatch.setattr(simulate_module, "WORK_BUDGET", tested)
            assert small_config(**fields, mode="static", samples=101).samples == 101
            monkeypatch.setattr(simulate_module, "WORK_BUDGET", tested - 1)
            with pytest.raises(ValueError, match=f"tests {tested} camera samples"):
                small_config(**fields, mode="static", samples=101)

    def test_static_work_budget_refuses_a_sweep_of_many_minutes(self):
        # 1000 trials of 100,000 cameras on the dominance region: exactly
        # WORK_BUDGET draws, which mobile mode allows, but about 14 minutes
        # of kernel work at 101 samples.
        fields = dict(width=50.0, height=100.0, r=30.0, counts=(100_000,), trials=1000)
        assert small_config(**fields, mode="mobile").trials == 1000
        with pytest.raises(ValueError, match=f"more than {WORK_BUDGET}"):
            small_config(**fields, mode="static", samples=101)
        # The dominance benchmark's static sweep stays well inside the budget.
        dominance = dict(width=50.0, height=100.0, r=30.0, counts=tuple(range(0, 301, 25)), trials=2)
        assert small_config(**dominance, mode="static", samples=101).trials == 2


class TestRandomDeploy:
    def test_zero_count(self):
        assert random_deploy(10, 10, 0, 1, PARAMS) == []

    def test_same_seed_identical(self):
        a = random_deploy(10, 10, 25, 123, PARAMS)
        b = random_deploy(10, 10, 25, 123, PARAMS)
        assert a == b

    def test_different_seed_differs(self):
        a = random_deploy(10, 10, 25, 123, PARAMS)
        b = random_deploy(10, 10, 25, 124, PARAMS)
        assert a != b

    def test_uniform_mean_near_center(self):
        cams = random_deploy(40, 60, 10_000, 99, PARAMS)
        xs = np.array([c.position.x for c in cams])
        ys = np.array([c.position.y for c in cams])
        assert abs(xs.mean() - 20) < 0.02 * 40
        assert abs(ys.mean() - 30) < 0.02 * 60
        facings = np.array([c.facing for c in cams])
        assert 0 <= facings.min() and facings.max() < 2 * math.pi

    def test_ids_are_sequential(self):
        cams = random_deploy(10, 10, 5, 1, PARAMS)
        assert [c.id for c in cams] == [0, 1, 2, 3, 4]

    def test_poses_carry_the_drawn_arrays(self):
        seed = trial_seed(3, 40, 2)
        xs, ys, facings = draw_cameras(20, 30, 40, seed)
        rng = np.random.default_rng(trial_seed(3, 40, 2))
        assert xs.tolist() == rng.uniform(0.0, 20, 40).tolist()
        assert ys.tolist() == rng.uniform(0.0, 30, 40).tolist()
        assert facings.tolist() == rng.uniform(0.0, 2 * math.pi, 40).tolist()
        cams = random_deploy(20, 30, 40, trial_seed(3, 40, 2), PARAMS)
        assert [(c.position.x, c.position.y, c.facing) for c in cams] == list(zip(xs, ys, facings))
        assert all(c.params == PARAMS for c in cams)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            draw_cameras(10, 10, -1, 1)


def unculled_static_oracle(cameras, config):
    """barrier_exists_static without its shortcuts: every cell against
    every camera through the plain-math reference, on the kernel's
    samples, then build, prune and search."""
    d = grid_length_bound(config.r)
    m = max(1, math.ceil(config.height / d - 1e-9))
    n = max(1, math.ceil(config.width / d - 1e-9))
    t = np.linspace(0.0, 1.0, config.samples)
    covered = set()
    for i in range(1, m + 1):
        y = (i - 0.5) * d
        for j in range(1, n + 1):
            a, b = (j - 1) * d, j * d
            if all(ref_full_view_point(Point2D(a + u * (b - a), y), cameras, config.theta) for u in t):
                covered.add((i, j))
    return shortest_barrier(prune_degree_one(build_graph(covered, m, n))).exists


def lattice_watchers(cfg, columns):
    """Swing cameras at the lattice vertices of the given grid columns,
    facing down and up as the relocation pipeline would place them."""
    d = grid_length_bound(cfg.r)
    m = math.ceil(cfg.height / d - 1e-9)
    hardware = CameraParams(r=cfg.r, phi=SWING_FOV, theta=cfg.theta)
    cams = []
    for i in range(1, m + 2):
        for j in sorted({v for c in columns for v in (c, c + 1)}):
            x, y = (j - 1) * d, (i - 1) * d
            if i <= m:  # a downward watcher everywhere but the last row
                cams.append(CameraPose(len(cams), Point2D(x, y), FACE_DOWN, hardware))
            if i >= 2:  # an upward watcher everywhere but the first row
                cams.append(CameraPose(len(cams), Point2D(x, y), FACE_UP, hardware))
    return cams


class TestBarrierExistence:
    def test_zero_cameras_false_both_modes(self):
        cfg = small_config()
        assert not barrier_exists_mobile([], cfg)
        assert not barrier_exists_static([], cfg)

    def test_dense_cells_guarantee_mobile_barrier(self):
        cfg = small_config()
        d = grid_length_bound(cfg.r)
        m = math.ceil(cfg.height / d - 1e-9)
        n = math.ceil(cfg.width / d - 1e-9)
        cams = []
        cid = 0
        for i in range(m):
            for j in range(n):
                # 8 cameras per cell, clipped into the region
                for k in range(8):
                    x = min(j * d + 0.2 + 0.05 * k, cfg.width)
                    y = min(i * d + 0.2 + 0.05 * k, cfg.height)
                    cams.append(CameraPose(cid, Point2D(x, y), 0.0, cfg.camera_params()))
                    cid += 1
        assert barrier_exists_mobile(cams, cfg)

    def test_single_column_crowd_cannot_bar_mobile(self):
        cfg = small_config()
        d = grid_length_bound(cfg.r)
        assert math.ceil(cfg.width / d - 1e-9) >= 2
        cams = [
            CameraPose(k, Point2D(0.1 + 0.01 * k, 0.1 + 0.3 * k), 0.0, cfg.camera_params())
            for k in range(40)
        ]
        assert not barrier_exists_mobile(cams, cfg)

    def test_hand_placed_lattice_poses_pass_static(self):
        cfg = small_config()
        n = math.ceil(cfg.width / grid_length_bound(cfg.r) - 1e-9)
        assert barrier_exists_static(lattice_watchers(cfg, range(1, n + 1)), cfg)

    def test_static_never_beats_mobile_on_shared_draws(self):
        cfg = small_config(counts=(0, 15, 30, 60), trials=15)
        params = cfg.camera_params()
        for count in cfg.counts:
            for t in range(cfg.trials):
                cams = random_deploy(cfg.width, cfg.height, count, trial_seed(cfg.seed, count, t), params)
                if barrier_exists_static(cams, cfg):
                    assert barrier_exists_mobile(cams, cfg)


def relocation_oracle(cameras, config):
    """barrier_exists_mobile the long way: relocate, collect the staffed
    cells, then build, prune and search the graph."""
    plan = run_algorithm1(config.width, config.height, list(cameras), grid_length_bound(config.r))
    covered = staffed_cells(plan)
    return shortest_barrier(prune_degree_one(build_graph(covered, plan.grid.m, plan.grid.n))).exists


class TestMobileMatchesRelocationOracle:
    def test_random_configs(self):
        rng = np.random.default_rng(67)
        outcomes = []
        for _ in range(150):
            r = float(rng.uniform(2.0, 12.0))
            d = grid_length_bound(r)
            cfg = small_config(
                width=float(d * rng.uniform(0.5, 7.0)), height=float(d * rng.uniform(0.5, 7.0)), r=r
            )
            cells = math.ceil(cfg.width / d) * math.ceil(cfg.height / d)
            count = int(rng.integers(0, 10 * cells))
            cams = random_deploy(cfg.width, cfg.height, count, int(rng.integers(0, 10**6)), cfg.camera_params())
            got = barrier_exists_mobile(cams, cfg)
            assert got == relocation_oracle(cams, cfg)
            outcomes.append(got)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize(
        "cams",
        [
            [CameraPose(3, Point2D(31.0, 5.0), 0.0, PARAMS), CameraPose(1, Point2D(5.0, -2.0), 0.0, PARAMS)],
            [CameraPose(1, Point2D(1.0, 1.0), 0.0, PARAMS), CameraPose(1, Point2D(2.0, 2.0), 0.0, PARAMS)],
        ],
        ids=["outside", "duplicate"],
    )
    def test_raises_what_relocation_raises(self, cams):
        cfg = small_config()
        with pytest.raises(ValueError) as expected:
            relocation_oracle(cams, cfg)
        with pytest.raises(ValueError) as got:
            barrier_exists_mobile(cams, cfg)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)


class TestStaticMatchesUnculledOracle:
    def test_random_scenes_with_mixed_radii_and_cull_edge_cameras(self):
        cfg = small_config(width=36.0, height=18.0, r=6.0, theta=math.pi / 2, phi=2 * math.pi, samples=11)
        d = grid_length_bound(cfg.r)
        rng = np.random.default_rng(2024)
        outcomes = []
        for _ in range(30):
            radii = rng.choice([0.6 * cfg.r, cfg.r, 1.4 * cfg.r], size=int(rng.integers(0, 60)))
            cams = [
                CameraPose(
                    k,
                    Point2D(float(rng.uniform(0, cfg.width)), float(rng.uniform(0, cfg.height))),
                    float(rng.uniform(0, 2 * math.pi)),
                    CameraParams(r=float(r), phi=float(rng.choice([math.pi, 2 * math.pi])), theta=cfg.theta),
                )
                for k, r in enumerate(radii)
            ]
            # Cameras within 1e-10 of one cell's cull box, facing it.
            reach = max((c.params.r for c in cams), default=0.0) + CULL_MARGIN
            i, j = int(rng.integers(1, 5)), int(rng.integers(1, 8))
            x0, x1, y = (j - 1) * d, j * d, (i - 0.5) * d
            for off in (-1e-10, 1e-10):
                for x, yy, face in (
                    (x1 + reach + off, y, math.pi),
                    (x0 - reach - off, y, 0.0),
                    (x0, y + reach + off, 1.5 * math.pi),
                    (x1, y - reach - off, 0.5 * math.pi),
                    (x1 + cfg.r + EPS + off, y, math.pi),
                ):
                    cams.append(CameraPose(len(cams), Point2D(x, yy), face, cfg.camera_params()))
            got = barrier_exists_static(cams, cfg)
            assert got == unculled_static_oracle(cams, cfg)
            outcomes.append(got)
        assert True in outcomes and False in outcomes

    def test_drawn_view_is_the_view_of_the_drawn_poses(self):
        cfg = small_config(r=7, phi=2, mode="static")  # integer hardware values
        for count in (0, 1, 50):
            seed = trial_seed(cfg.seed, count, 3)
            got = simulate_module._drawn_view(cfg, count, seed)
            want = Cameras.of(random_deploy(cfg.width, cfg.height, count, seed, cfg.camera_params()))
            for name in ("x", "y", "r", "half", "facing"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype == np.float64 and a.flags.c_contiguous
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
            assert got.reach == want.reach
            assert got.ids is None and got.params is None and got.poses is None

    def test_array_sweep_matches_pose_oracle(self):
        rng = np.random.default_rng(97)
        successes = failures = 0
        for samples in (2, 3, 7):
            for _ in range(8):
                r = float(rng.uniform(3.0, 9.0))
                d = grid_length_bound(r)
                cfg = small_config(
                    width=float(d * rng.uniform(0.5, 3.5)),
                    height=float(d * rng.uniform(0.5, 3.5)),
                    r=r,
                    theta=float(rng.choice([math.pi / 3, math.pi / 2])),
                    phi=float(rng.choice([2 * math.pi / 3, math.pi, 2 * math.pi])),
                    counts=(0, int(rng.integers(5, 25)), int(rng.integers(25, 70))),
                    trials=3,
                    seed=int(rng.integers(0, 1000)),
                    mode="static",
                    samples=samples,
                )
                params = cfg.camera_params()
                for row in coverage_probability_sweep(cfg).rows:
                    expected = sum(
                        unculled_static_oracle(
                            random_deploy(cfg.width, cfg.height, row.x, trial_seed(cfg.seed, row.x, t), params), cfg
                        )
                        for t in range(cfg.trials)
                    )
                    assert row.successes == expected
                    successes += expected
                    failures += cfg.trials - expected
        assert successes > 0 and failures > 0

    @pytest.mark.parametrize(
        "columns, expected",
        [
            (range(1, 6), True),
            (range(3, 6), False),  # covered cells only from column 3 on
            (range(1, 4), False),  # the last columns stay empty
            ((1, 4, 5), False),  # empty columns in the middle
        ],
    )
    def test_columns_covered_in_part(self, columns, expected):
        cfg = small_config(width=80.0)
        assert math.ceil(cfg.width / grid_length_bound(cfg.r) - 1e-9) == 5
        cams = lattice_watchers(cfg, columns)
        assert barrier_exists_static(cams, cfg) == expected
        assert unculled_static_oracle(cams, cfg) == expected

    def test_stops_at_the_first_empty_column_and_culls(self, monkeypatch):
        cfg = small_config(width=80.0)
        d = grid_length_bound(cfg.r)
        cams = lattice_watchers(cfg, range(3, 6))
        coarse, full = [], []
        real_mask = simulate_module._full_view_mask
        real_segment = simulate_module.full_view_covered_segment

        def mask_spy(xs, ys, cameras, *args):
            coarse.append((xs.min(), xs.max(), len(cameras)))
            return real_mask(xs, ys, cameras, *args)

        def segment_spy(seg, cameras, *args, **kwargs):
            full.append((seg.a.x, len(cameras)))
            return real_segment(seg, cameras, *args, **kwargs)

        monkeypatch.setattr(simulate_module, "_full_view_mask", mask_spy)
        monkeypatch.setattr(simulate_module, "full_view_covered_segment", segment_spy)
        assert not barrier_exists_static(cams, cfg)
        # One coarse call, on column 1 only, with the column's cameras.
        assert len(coarse) == 1
        lo, hi, k = coarse[0]
        assert lo == 0.0 and hi == pytest.approx(d) and 0 < k < len(cams)
        assert {x for x, _ in full} <= {0.0}
        assert all(k < len(cams) for _, k in full)

    def test_full_tests_run_only_where_the_fill_reaches(self, monkeypatch):
        cfg = small_config(width=80.0)
        d = grid_length_bound(cfg.r)
        n = math.ceil(cfg.width / d - 1e-9)
        m = math.ceil(cfg.height / d - 1e-9)
        assert m >= 2 and n == 5
        cams = lattice_watchers(cfg, range(1, n + 1))
        full = []
        real_segment = simulate_module.full_view_covered_segment

        def segment_spy(seg, cameras, *args, **kwargs):
            full.append((seg.a.x, seg.a.y))
            return real_segment(seg, cameras, *args, **kwargs)

        monkeypatch.setattr(simulate_module, "full_view_covered_segment", segment_spy)
        assert barrier_exists_static(cams, cfg)
        # Every cell is covered, and the fill crosses along one row: one
        # full test per column, none twice.
        assert sorted(round(x / d) for x, _ in full) == list(range(n))
        assert len(set(full)) == n


    # Taken before sample counts of 6 or fewer skipped the full test.
    FEW_SAMPLES_CSV = (
        "x,estimate,trials,successes,stderr\n0,0,4,0,0\n50,0,4,0,0\n100,0.5,4,2,0.25\n150,1,4,4,0\n300,1,4,4,0\n"
    )

    @pytest.mark.parametrize("samples", [2, 3, 6])
    def test_coarse_check_on_every_sample_is_final(self, monkeypatch, samples):
        cfg = small_config(
            width=50.0, height=100.0, r=30.0, counts=(0, 50, 100, 150, 300), trials=4, seed=1,
            mode="static", samples=samples,
        )
        full = []
        real_segment = simulate_module.full_view_covered_segment

        def segment_spy(*args, **kwargs):
            full.append(1)
            return real_segment(*args, **kwargs)

        monkeypatch.setattr(simulate_module, "full_view_covered_segment", segment_spy)
        assert sweep_csv_text(coverage_probability_sweep(cfg)) == self.FEW_SAMPLES_CSV
        assert full == []

    def test_columns_are_laid_out_once_per_sweep_and_only_when_reached(self, monkeypatch):
        laid = []
        real = simulate_module.cell_mid_segment

        def spy(cell, d):
            laid.append(cell)
            return real(cell, d)

        monkeypatch.setattr(simulate_module, "cell_mid_segment", spy)
        # Few cameras on a wide grid: every trial stops at column 1.
        cfg = small_config(width=80.0, counts=(0, 1, 2), trials=5, mode="static")
        assert all(row.successes == 0 for row in coverage_probability_sweep(cfg).rows)
        m = math.ceil(cfg.height / grid_length_bound(cfg.r) - 1e-9)
        assert sorted(laid) == [(i, 1) for i in range(1, m + 1)]
        # Dense cameras reach every column; each is laid out once.
        laid.clear()
        cfg = small_config(
            width=40.0, height=20.0, r=8.0, theta=math.pi / 2, phi=2 * math.pi, counts=(30,), trials=6,
            mode="static", samples=31,
        )
        assert coverage_probability_sweep(cfg).rows[0].successes == 6
        d = grid_length_bound(cfg.r)
        m, n = math.ceil(cfg.height / d - 1e-9), math.ceil(cfg.width / d - 1e-9)
        assert sorted(laid) == [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]


def per_trial_sweep_csv(cfg, sweep):
    """The CSV of ``sweep`` (``"probability"`` or ``"count"``) on ``cfg``,
    from a plain loop over (count, trial) that decides each trial on its
    own ``trial_seed`` substream: with :func:`barrier_exists_mobile` or
    :func:`barrier_exists_static` on the :func:`random_deploy` cameras, or
    with :func:`extract_barrier` and :func:`duty_slots` on the mobile mask
    of the :func:`draw_cameras` arrays."""
    d = grid_length_bound(cfg.r)
    shape = grid_shape(cfg.width, cfg.height, d)
    check = barrier_exists_mobile if cfg.mode == "mobile" else barrier_exists_static
    rows = []
    for count in cfg.counts:
        outcomes = []
        for t in range(cfg.trials):
            seed = trial_seed(cfg.seed, count, t)
            if sweep == "probability":
                outcomes.append(check(random_deploy(cfg.width, cfg.height, count, seed, cfg.camera_params()), cfg))
                continue
            xs, ys, _ = draw_cameras(cfg.width, cfg.height, count, seed)
            result = extract_barrier(staffed_mask(cell_counts(xs, ys, d, shape)))
            if result.exists:
                down, up = duty_slots(result.path)
                outcomes.append(len(down) + len(up))
        if sweep == "probability":
            p = sum(outcomes) / cfg.trials
            rows.append(SweepRow(count, p, cfg.trials, sum(outcomes), math.sqrt(p * (1.0 - p) / cfg.trials)))
        elif not outcomes:
            rows.append(SweepRow(count, math.nan, cfg.trials, 0, math.nan))
        elif len(outcomes) == 1:
            rows.append(SweepRow(count, float(outcomes[0]), cfg.trials, 1, 0.0))
        else:
            stderr = float(np.std(outcomes, ddof=1) / math.sqrt(len(outcomes)))
            rows.append(SweepRow(count, float(np.mean(outcomes)), cfg.trials, len(outcomes), stderr))
    return sweep_csv_text(SweepResult(rows=tuple(rows)))


def driver_configs(mode):
    """A 1 x 1 grid, a one-row grid (where a bottom vertex serves "up"
    with one camera) and seeded random grids, each with count 0 and a
    repeated count."""
    static = mode == "static"
    # Static scenes see all around, so that some trials find a barrier.
    scene = dict(trials=3, samples=11, theta=math.pi / 2, phi=2 * math.pi) if static else dict(trials=5)
    r = 6.0
    d = grid_length_bound(r)
    configs = [
        small_config(width=0.8 * d, height=0.8 * d, r=r, counts=(0, 4, 8, 4), mode=mode, **scene),
        small_config(width=3.5 * d, height=0.7 * d, r=r, counts=(0, 12, 30, 30), mode=mode, **scene),
    ]
    rng = np.random.default_rng(113 if static else 111)
    for _ in range(3 if static else 10):
        width, height = float(rng.uniform(0.5, 3.0) * d), float(rng.uniform(0.5, 3.0) * d)
        cells = grid_shape(width, height, d)
        top = 6 * cells[0] * cells[1]
        counts = [0, *sorted(int(c) for c in rng.integers(1, top, 3))]
        counts.append(counts[2])
        seed = int(rng.integers(0, 10**6))
        configs.append(
            small_config(width=width, height=height, r=r, counts=tuple(counts), seed=seed, mode=mode, **scene)
        )
    return configs


#: Batch budgets the driver runs under: its own, one trial per batch,
#: three trials of count 0 per batch and two trials of the largest count
#: per batch, which split those counts' trials across batches.
BATCH_BUDGETS = {
    "default": lambda cfg: simulate_module.BATCH_BUDGET,
    "one-trial": lambda cfg: 1,
    "three-empty": lambda cfg: 3 * lattice_vertices(cfg),
    "two-largest": lambda cfg: 2 * (max(cfg.counts) + lattice_vertices(cfg)) + 1,
}


def lattice_vertices(cfg):
    m, n = grid_shape(cfg.width, cfg.height, grid_length_bound(cfg.r))
    return (m + 1) * (n + 1)


class TestTrialDriver:
    @pytest.mark.parametrize("budget", sorted(BATCH_BUDGETS))
    @pytest.mark.parametrize("mode, sweep", [("mobile", "probability"), ("mobile", "count"), ("static", "probability")])
    def test_sweeps_match_a_per_trial_loop(self, monkeypatch, mode, sweep, budget):
        run = coverage_probability_sweep if sweep == "probability" else barrier_camera_count_sweep
        outcomes = set()
        configs = driver_configs(mode)
        shapes = {grid_shape(cfg.width, cfg.height, grid_length_bound(cfg.r)) for cfg in configs}
        assert (1, 1) in shapes and (1, 4) in shapes
        for cfg in configs:
            expected = per_trial_sweep_csv(cfg, sweep)
            monkeypatch.setattr(simulate_module, "BATCH_BUDGET", BATCH_BUDGETS[budget](cfg))
            assert sweep_csv_text(run(cfg)) == expected, cfg
            outcomes.update(line.split(",")[3] != "0" for line in expected.splitlines()[1:])
            monkeypatch.undo()
        assert outcomes == {True, False}

    @pytest.mark.parametrize("budget", [None, 1, 100, 300, 1000])
    def test_batches_are_consecutive_trials_within_the_budget(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(simulate_module, "BATCH_BUDGET", budget)
        cfg = small_config(counts=(0, 100, 40, 250, 7), trials=4)
        vertices = lattice_vertices(cfg)
        batches = []

        def decide(batch):
            batches.append(batch)
            return [seed.entropy for _, seed in batch]

        grouped = simulate_module._run_trials(cfg, decide)
        assert grouped == [[[cfg.seed, count, t] for t in range(4)] for count in cfg.counts]
        for batch in batches:
            assert len(batch) == 1 or sum(count + vertices for count, _ in batch) <= simulate_module.BATCH_BUDGET
        # Each batch is as long as the budget allows.
        for batch, after in zip(batches, batches[1:]):
            assert sum(count + vertices for count, _ in batch) + after[0][0] + vertices > simulate_module.BATCH_BUDGET
        if budget is None:
            assert len(batches) == 1

    @pytest.mark.parametrize("mode, sweep", [("mobile", "probability"), ("mobile", "count"), ("static", "probability")])
    def test_one_trial_seed_per_trial_in_row_order(self, monkeypatch, mode, sweep):
        cfg = small_config(counts=(0, 20, 20, 5), trials=4, mode=mode, samples=11)
        monkeypatch.setattr(simulate_module, "BATCH_BUDGET", 3 * lattice_vertices(cfg) + 40)
        seen = []
        real = simulate_module.trial_seed

        def spy(seed, count, trial):
            seen.append((seed, count, trial))
            return real(seed, count, trial)

        monkeypatch.setattr(simulate_module, "trial_seed", spy)
        (coverage_probability_sweep if sweep == "probability" else barrier_camera_count_sweep)(cfg)
        assert seen == [(cfg.seed, count, t) for count in cfg.counts for t in range(cfg.trials)]


class TestSweeps:
    def test_zero_count_row_estimates_zero(self):
        res = coverage_probability_sweep(small_config(counts=(0,), trials=5))
        row = res.rows[0]
        assert row.estimate == 0.0 and row.successes == 0 and row.trials == 5

    def test_rows_are_exact_ratios_in_unit_interval(self):
        res = coverage_probability_sweep(small_config())
        for row in res.rows:
            assert row.estimate == row.successes / row.trials
            assert 0.0 <= row.estimate <= 1.0
            assert row.stderr == pytest.approx(
                math.sqrt(row.estimate * (1 - row.estimate) / row.trials)
            )

    def test_deterministic_output_bytes(self):
        cfg = small_config()
        a = sweep_csv_text(coverage_probability_sweep(cfg))
        b = sweep_csv_text(coverage_probability_sweep(cfg))
        assert a == b
        assert a.startswith(CSV_HEADER + "\n")

    def test_sweep_matches_manual_paired_loop(self):
        cfg = small_config(counts=(0, 25), trials=8)
        res = coverage_probability_sweep(cfg)
        params = cfg.camera_params()
        for row in res.rows:
            manual = sum(
                barrier_exists_mobile(
                    random_deploy(cfg.width, cfg.height, row.x, trial_seed(cfg.seed, row.x, t), params),
                    cfg,
                )
                for t in range(cfg.trials)
            )
            assert row.successes == manual

    def test_monotone_in_count_within_noise(self):
        cfg = small_config(counts=(0, 10, 20, 40, 60), trials=200)
        res = coverage_probability_sweep(cfg)
        rows = res.rows
        for a, b in zip(rows, rows[1:]):
            slack = 3.0 * math.sqrt(a.stderr**2 + b.stderr**2)
            assert b.estimate >= a.estimate - slack

    def test_mobile_estimates_dominate_static(self):
        counts = (0, 20, 40, 80)
        mob = coverage_probability_sweep(small_config(counts=counts, trials=25, mode="mobile"))
        sta = coverage_probability_sweep(small_config(counts=counts, trials=25, mode="static"))
        for mrow, srow in zip(mob.rows, sta.rows):
            assert mrow.estimate >= srow.estimate

    @staticmethod
    def sweep_building_no_cameras(monkeypatch, cfg):
        built = []
        real = CameraPose.__post_init__

        def spy(self):
            built.append(self.id)
            real(self)

        monkeypatch.setattr(CameraPose, "__post_init__", spy)
        monkeypatch.setattr(simulate_module, "random_deploy", lambda *a: pytest.fail("random_deploy called"))
        res = coverage_probability_sweep(cfg)
        assert sum(row.successes for row in res.rows) > 0
        assert built == []

    def test_mobile_sweep_builds_no_camera_objects(self, monkeypatch):
        self.sweep_building_no_cameras(monkeypatch, small_config(counts=(0, 20, 40), trials=4))

    def test_static_sweep_builds_no_camera_objects(self, monkeypatch):
        cfg = small_config(
            width=40.0, height=20.0, r=8.0, theta=math.pi / 2, phi=2 * math.pi, counts=(0, 20, 30), mode="static"
        )
        self.sweep_building_no_cameras(monkeypatch, cfg)

    def test_metadata_carries_provenance(self):
        res = coverage_probability_sweep(small_config(counts=(0,), trials=1))
        assert res.metadata["generator"] == "pcg64"
        assert res.metadata["scenario"]["seed"] == 7
        assert "version" in res.metadata


class TestCameraCountSweep:
    def test_requires_mobile_mode(self):
        with pytest.raises(ValueError, match="mobile"):
            barrier_camera_count_sweep(small_config(mode="static"))

    def test_infeasible_counts_report_no_barrier(self):
        res = barrier_camera_count_sweep(small_config(counts=(0, 1), trials=6))
        for row in res.rows:
            assert row.successes == 0
            assert math.isnan(row.estimate)

    def test_weight_bound_and_realized_bound(self):
        # the path weight obeys 4 + 3*(len-1); realized heads obey 4*len
        cfg = small_config(counts=(30, 60), trials=10)
        from cambarrier.barrier_graph import build_graph, prune_degree_one, shortest_barrier, distinct_cameras
        from cambarrier.grid_deploy import run_algorithm1
        from cambarrier.grid_model import staffed_cells

        params = cfg.camera_params()
        d = grid_length_bound(cfg.r)
        seen = 0
        for count in cfg.counts:
            for t in range(cfg.trials):
                cams = random_deploy(cfg.width, cfg.height, count, trial_seed(cfg.seed, count, t), params)
                plan = run_algorithm1(cfg.width, cfg.height, cams, d)
                res = shortest_barrier(prune_degree_one(build_graph(staffed_cells(plan), plan.grid.m, plan.grid.n)))
                if not res.exists:
                    continue
                seen += 1
                hops = len(res.path)
                assert res.total_weight <= 4 + 3 * (hops - 1)
                assert distinct_cameras(res, plan) <= 4 * hops
        assert seen > 0

    def test_deterministic(self):
        cfg = small_config(counts=(40,), trials=8)
        assert barrier_camera_count_sweep(cfg) == barrier_camera_count_sweep(cfg)

    def test_builds_no_camera_plan_or_graph_objects(self, monkeypatch):
        cfg = small_config(counts=(0, 20, 40), trials=6)
        before = barrier_camera_count_sweep(cfg)
        assert sum(row.successes for row in before.rows) > 0
        before = sweep_csv_text(before)

        def forbid(name):
            def fail(*args, **kwargs):
                pytest.fail(f"the count sweep called {name}")

            return fail

        names = (
            "random_deploy", "run_algorithm1", "staffed_cells", "cell_fully_staffed", "build_graph",
            "prune_degree_one", "shortest_barrier", "distinct_cameras",
        )
        for module in (barrier_graph_module, grid_deploy_module, grid_model_module, simulate_module):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbid(name))
        monkeypatch.setattr(CameraPose, "__post_init__", forbid("CameraPose"))
        monkeypatch.setattr(barrier_graph_module.CoverageGraph, "__init__", forbid("CoverageGraph"))
        assert sweep_csv_text(barrier_camera_count_sweep(cfg)) == before

    # CSVs taken while the sweep still built a plan and a graph per trial:
    # rows with no barrier (NaN), with one barrier and with several.
    PINNED = [
        (
            dict(counts=(0, 10, 16, 20, 30), trials=6),
            "x,estimate,trials,successes,stderr\n0,nan,6,0,nan\n10,8,6,1,0\n16,8,6,1,0\n"
            "20,6,6,5,0\n30,6,6,6,0\n",
        ),
        (
            dict(width=30.0, height=27.0, r=5.0, counts=(80, 110, 120, 140, 200), trials=8, seed=11),
            "x,estimate,trials,successes,stderr\n80,nan,8,0,nan\n110,18.6666667,8,3,1.33333333\n"
            "120,17,8,4,0.577350269\n140,17.5,8,4,0.957427108\n200,16,8,8,0\n",
        ),
        (
            dict(width=40.0, height=10.0, r=5.0, theta=math.pi / 4, counts=(60, 70, 80, 90, 100, 120), trials=5,
                 seed=3),
            "x,estimate,trials,successes,stderr\n60,nan,5,0,nan\n70,nan,5,0,nan\n80,nan,5,0,nan\n"
            "90,20.6666667,5,3,0.666666667\n100,20,5,3,0\n120,20,5,4,0\n",
        ),
    ]

    @pytest.mark.parametrize("overrides, expected", PINNED, ids=["2x2", "7x7", "3x9"])
    def test_pinned_csvs(self, overrides, expected):
        assert sweep_csv_text(barrier_camera_count_sweep(small_config(**overrides))) == expected


class TestFig3:
    def test_values_and_trend(self):
        res = fig3_sweep(100.0, range(2, 11))
        counts = [row.successes for row in res.rows]
        assert counts[3] == 48  # r = 5
        assert res.rows[3].estimate == 48.0
        assert counts == sorted(counts, reverse=True)
        for row in res.rows:
            assert row.estimate == row.successes / row.trials

    def test_r10_value(self):
        res = fig3_sweep(100.0, [10.0])
        assert res.rows[0].successes == 26


class TestCsvFormat:
    def test_nine_significant_digits(self):
        res = coverage_probability_sweep(small_config(counts=(0,), trials=3))
        text = sweep_csv_text(res)
        lines = text.strip().split("\n")
        assert lines[0] == "x,estimate,trials,successes,stderr"
        assert lines[1] == "0,0,3,0,0"

    def test_float_formatting(self):
        from cambarrier.serialize import format_number

        assert format_number(1 / 3) == "0.333333333"
        assert format_number(48) == "48"
        assert format_number(0.5) == "0.5"
        assert format_number(float("nan")) == "nan"
