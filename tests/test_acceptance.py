"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
go by; a plain ``pytest`` run shows them for failing criteria only.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from cambarrier.barrier_graph import build_graph, k_barrier_count, shortest_barrier
from cambarrier.cli import main
from cambarrier.full_view import full_view_covered_point
from cambarrier.geometry import CameraParams, CameraPose, Point2D, Segment
from cambarrier.grid_deploy import cell_full_view_verified, run_algorithm1
from cambarrier.grid_model import grid_length_bound, staffed_cells
from cambarrier.line_model import optimal_params, place_line_deployment
from cambarrier.simulate import (
    ScenarioConfig,
    barrier_exists_mobile,
    barrier_exists_static,
    fig3_sweep,
    random_deploy,
    trial_seed,
)

from helpers import brute_force_min_weight

#: Fixed seed for the mobility-dominance sweep (criterion 8); chosen once
#: and kept so reruns are reproducible.
DOMINANCE_SEED = 42


def _report(num, name, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:02d} {name}: {verdict} in {elapsed:.2f}s / {budget:.0f}s{suffix}"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget: {line}"


def test_criterion_01_closed_form_identities():
    start = time.perf_counter()
    ok = True
    for r in (0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
        p = optimal_params(r)
        ok &= abs(math.tan(p.alpha / 2) - 2.0) < 1e-9
        ok &= abs(p.delta / p.h - 2.0) < 1e-9
        ok &= abs(p.delta - 2.0 * p.h) < 1e-9
        ok &= abs(p.h**2 + p.delta**2 - r**2) < 1e-9
    _report(1, "closed-form identities", ok, time.perf_counter() - start, 1.0)


def test_criterion_02_line_deployment_full_view_oracle():
    start = time.perf_counter()
    barrier = Segment(Point2D(0.0, 0.0), Point2D(100.0, 0.0))
    theta = math.pi / 4
    failures = 0
    for r in (2.0, 5.0, 10.0):
        cams = list(place_line_deployment(barrier, r, theta=theta).cameras)
        for x in np.linspace(0.0, 100.0, 1001):
            if not full_view_covered_point(Point2D(float(x), 0.0), cams, theta):
                failures += 1
    _report(
        2,
        "line deployment full-view oracle",
        failures == 0,
        time.perf_counter() - start,
        10.0,
        detail=f"{failures} failing samples",
    )


def test_criterion_03_tightness_of_spacing():
    start = time.perf_counter()
    barrier = Segment(Point2D(0.0, 0.0), Point2D(100.0, 0.0))
    theta = math.pi / 4
    ok = True
    for r in (2.0, 5.0, 10.0):
        stretched = replace(optimal_params(r), delta=optimal_params(r).delta * 1.1)
        cams = list(place_line_deployment(barrier, r, theta=theta, params=stretched).cameras)
        failed_somewhere = any(
            not full_view_covered_point(Point2D(float(x), 0.0), cams, theta)
            for x in np.linspace(0.0, 100.0, 1001)
        )
        ok &= failed_somewhere
    _report(3, "stretched spacing loses coverage", ok, time.perf_counter() - start, 10.0)


def test_criterion_04_dijkstra_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    mismatches = 0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        covered = {
            (i, j)
            for i in range(1, m + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.55
        }
        g = build_graph(covered, m, n)
        expected = brute_force_min_weight(g)
        got = shortest_barrier(g)
        if expected is None:
            mismatches += got.exists
        else:
            mismatches += (not got.exists) or got.total_weight != expected
    _report(
        4,
        "shortest barrier equals exhaustive minimum",
        mismatches == 0,
        time.perf_counter() - start,
        30.0,
        detail=f"{mismatches} mismatches over 200 instances",
    )


def test_criterion_05_camera_count_trend():
    start = time.perf_counter()
    res = fig3_sweep(100.0, range(2, 11))
    counts = [row.successes for row in res.rows]
    ok = all(a >= b for a, b in zip(counts, counts[1:]))
    r5 = counts[3]
    ok &= r5 == 48
    ok &= r5 == 2 * (math.ceil(100.0 / optimal_params(5.0).delta) + 1)
    _report(5, "camera count non-increasing in radius, r=5 gives 48", ok, time.perf_counter() - start, 1.0)


def test_criterion_06_relocation_postconditions():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    violations = 0
    for _ in range(100):
        r = float(rng.uniform(3.0, 12.0))
        d = grid_length_bound(r)
        count = int(rng.integers(0, 401))
        params = CameraParams(r=r, phi=2 * math.pi / 3, theta=math.pi / 4)
        cams = [
            CameraPose(i, Point2D(float(rng.uniform(0, 50)), float(rng.uniform(0, 50))), float(rng.uniform(0, 2 * math.pi)), params)
            for i in range(count)
        ]
        plan = run_algorithm1(50.0, 50.0, cams, d)

        # conservation: every camera stationed exactly once
        stationed = sorted(cid for a in plan.assignments.values() for cid in a.stationed)
        if stationed != list(range(count)) or len(plan.records) != count:
            violations += 1
        # own-cell targets and travel accounting
        origin_of = {cid: cell for cell, ids in plan.grid.cell_members.items() for cid in ids}
        for cid, rec in plan.records.items():
            i, j = origin_of[cid]
            if rec.vertex not in {(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)}:
                violations += 1
            if rec.distance > d * math.sqrt(2) + 1e-9:
                violations += 1
        # row orientation rules
        for (i, _), a in plan.assignments.items():
            if i == 1 and (a.up is not None or a.down is None):
                violations += 1
            if i == plan.grid.m + 1 and (a.down is not None or a.up is None):
                violations += 1
            if 1 < i < plan.grid.m + 1:
                if a.down is None or (len(a.stationed) >= 2 and a.up is None):
                    violations += 1
        # determinism under shuffling
        shuffled = list(cams)
        rng.shuffle(shuffled)
        if run_algorithm1(50.0, 50.0, shuffled, d) != plan:
            violations += 1
    _report(
        6,
        "relocation postconditions over 100 scenarios",
        violations == 0,
        time.perf_counter() - start,
        30.0,
        detail=f"{violations} violations",
    )


def test_criterion_07_staffed_implies_verified():
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    counterexamples = 0
    staffed_seen = 0
    for _ in range(200):
        r = float(rng.uniform(3.0, 12.0))
        d = grid_length_bound(r)
        count = int(rng.integers(0, 401))
        params = CameraParams(r=r, phi=2 * math.pi / 3, theta=math.pi / 4)
        cams = [
            CameraPose(i, Point2D(float(rng.uniform(0, 50)), float(rng.uniform(0, 50))), 0.0, params)
            for i in range(count)
        ]
        plan = run_algorithm1(50.0, 50.0, cams, d)
        for cell in staffed_cells(plan):
            staffed_seen += 1
            if not cell_full_view_verified(cell, plan, math.pi / 4, samples=101):
                counterexamples += 1
    _report(
        7,
        "fully staffed cells verify geometrically",
        counterexamples == 0 and staffed_seen > 0,
        time.perf_counter() - start,
        60.0,
        detail=f"{staffed_seen} staffed cells checked, {counterexamples} counterexamples",
    )


def test_criterion_08_mobility_dominance():
    start = time.perf_counter()
    config = ScenarioConfig(
        width=50.0,
        height=100.0,
        r=30.0,
        theta=math.pi / 3,
        phi=2 * math.pi / 3,
        counts=tuple(range(0, 301, 25)),
        trials=100,
        seed=DOMINANCE_SEED,
        mode="mobile",
        samples=101,
    )
    params = config.camera_params()
    dominance_violations = 0
    mobile_est = {}
    static_est = {}
    for count in config.counts:
        mobile_hits = static_hits = 0
        for t in range(config.trials):
            cams = random_deploy(
                config.width, config.height, count, trial_seed(config.seed, count, t), params
            )
            st = barrier_exists_static(cams, config)
            mo = barrier_exists_mobile(cams, config)
            if st and not mo:
                dominance_violations += 1
            mobile_hits += mo
            static_hits += st
        mobile_est[count] = mobile_hits / config.trials
        static_est[count] = static_hits / config.trials

    def first_reaching(estimates, level=0.95):
        for c in sorted(estimates):
            if estimates[c] >= level:
                return c
        return None

    mobile_at = first_reaching(mobile_est)
    static_at = first_reaching(static_est)
    ok = dominance_violations == 0 and mobile_at is not None
    if static_at is not None:
        ok &= mobile_at <= 0.7 * static_at
    _report(
        8,
        "mobility dominates static coverage",
        ok,
        time.perf_counter() - start,
        600.0,
        detail=(
            f"{dominance_violations} dominance violations; mobile>=0.95 at {mobile_at}, "
            f"static>=0.95 at {static_at}"
        ),
    )


def test_criterion_09_k_barrier_rule():
    start = time.perf_counter()
    rng = np.random.default_rng(1009)
    mismatches = 0
    for _ in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        mat = rng.random((m, n)) < 0.5
        covered = {(i + 1, j + 1) for i in range(m) for j in range(n) if mat[i, j]}
        if k_barrier_count(covered, m, n) != int(mat.sum(axis=0).min()):
            mismatches += 1
    _report(9, "column-minimum barrier multiplicity", mismatches == 0, time.perf_counter() - start, 1.0)


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    start = time.perf_counter()
    cfg = {
        "width": 40.0,
        "height": 40.0,
        "r": 25.0,
        "theta": math.pi / 3,
        "phi": 2 * math.pi / 3,
        "counts": [0, 15, 30, 45],
        "trials": 20,
        "seed": 2718,
        "mode": "mobile",
        "samples": 101,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    code1 = main(["simulate", "--config", str(cfg_path), "--out", str(out1)])
    code2 = main(["simulate", "--config", str(cfg_path), "--out", str(out2)])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    _report(10, "simulate reruns are byte-identical", ok, time.perf_counter() - start, 600.0)
