"""Workload definitions, input generation and output checks.

Every workload is one scenario run through the five CLI commands a user
calls on it: ``simulate --mode static``, ``simulate --mode mobile`` (same
config and seed, so both modes see identical camera draws),
``deploy-grid``, then ``barrier`` and ``k-barrier`` on the plan that
``deploy-grid`` wrote.  The scenarios differ in which layer carries the
cost.

The benchmark seed is the only source of randomness.  It becomes the
sweep config's ``seed`` and, through its own PCG64 stream, the camera
file; the program sees only those generated files.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Seed used when none is given, and the seed the reference outputs of
#: every workload were first taken at.
DEFAULT_SEED = 1

#: Seed kept out of tuning.  A later speed claim must also hold on it.
HELD_OUT_SEED = 97

OPS = ("static", "mobile", "deploy-grid", "barrier", "k-barrier")


@dataclass(frozen=True)
class Workload:
    """One scenario.  ``stresses`` names the layers it is meant to load and
    ``unchanged`` the layer whose speed-ups it is predicted not to show."""

    name: str
    reason: str
    stresses: tuple[str, ...]
    unchanged: str
    width: float
    height: float
    r: float
    theta: float
    phi: float
    counts: tuple[int, ...]
    trials: int
    plan_cameras: int
    tag: int

    def sweep_trials(self) -> int:
        return len(self.counts) * self.trials

    def why(self) -> str:
        """The workload's one-line entry in ``BENCHMARK.json``."""
        return (
            f"{self.reason}. Stresses {', '.join(self.stresses)}; predicts {self.unchanged} "
            f"unchanged. Held-out seed {HELD_OUT_SEED}"
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 8's scenario.  The grid is 4x2 and every camera is in
        # range of every cell, so bucketing cannot cut kernel work and the
        # graphs have at most 8 nodes.  Static outcomes are mixed per count.
        Workload(
            name="dominance",
            reason="Paper's headline static-vs-mobile sweep; all cameras see all 8 cells",
            stresses=("geometry", "simulate", "grid_deploy"),
            unchanged="barrier_graph",
            width=50.0,
            height=100.0,
            r=30.0,
            theta=math.pi / 3,
            phi=2 * math.pi / 3,
            counts=tuple(range(0, 301, 25)),
            trials=2,
            plan_cameras=300,
            tag=1,
        ),
        # An 8x8 grid at r=5: a cell's mid-segment has about 12% of the
        # cameras in range.  Static never finds a barrier at these
        # densities; mobile builds graphs over most of the 64 cells.
        Workload(
            name="wide-field",
            reason="Small radius, wide field: each cell sees few cameras, so culling pays",
            stresses=("geometry", "grid_deploy", "barrier_graph"),
            unchanged="simulate",
            width=32.0,
            height=32.0,
            r=5.0,
            theta=math.pi / 3,
            phi=2 * math.pi / 3,
            counts=(128, 256),
            trials=1,
            plan_cameras=256,
            tag=2,
        ),
        # A 36x36 grid with about 1.2k staffed cells; the plan JSON is ~3 MB.
        # The 4-camera static sweep is per-cell overhead, not kernel work.
        # Not listed in BENCHMARK.json: on a shared 2-vCPU host its
        # memory-heavy command times spread by up to 0.23 of their median
        # across eight 35-second runs, against 0.25 allowed.  Run it by
        # name for the serialize and cli numbers at scale.
        Workload(
            name="plan-cli",
            reason="5k-camera plan via deploy-grid, barrier, k-barrier: JSON both ways at scale",
            stresses=("serialize", "cli", "grid_deploy", "barrier_graph"),
            unchanged="geometry",
            width=95.0,
            height=95.0,
            r=3.0,
            theta=math.pi / 3,
            phi=2 * math.pi / 3,
            counts=(4,),
            trials=1,
            plan_cameras=5_000,
            tag=3,
        ),
    )
}


@dataclass(frozen=True)
class Paths:
    config: Path
    cameras: Path
    static: Path
    mobile: Path
    plan: Path
    barrier: Path
    k_barrier: Path

    @classmethod
    def under(cls, workdir: Path) -> "Paths":
        return cls(
            config=workdir / "config.json",
            cameras=workdir / "cameras.json",
            static=workdir / "static.csv",
            mobile=workdir / "mobile.csv",
            plan=workdir / "plan.json",
            barrier=workdir / "barrier.json",
            k_barrier=workdir / "k_barrier.json",
        )

    def output(self, op: str) -> Path:
        return {
            "static": self.static,
            "mobile": self.mobile,
            "deploy-grid": self.plan,
            "barrier": self.barrier,
            "k-barrier": self.k_barrier,
        }[op]


def write_inputs(w: Workload, seed: int, workdir: Path) -> Paths:
    """Write the sweep config and the camera file for ``seed``."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = Paths.under(workdir)
    config = {
        "width": w.width,
        "height": w.height,
        "r": w.r,
        "theta": w.theta,
        "phi": w.phi,
        "counts": list(w.counts),
        "trials": w.trials,
        "seed": seed,
        "samples": 101,
    }
    paths.config.write_text(json.dumps(config))
    rng = np.random.default_rng(np.random.SeedSequence([seed, w.tag]))
    xs = rng.uniform(0.0, w.width, w.plan_cameras)
    ys = rng.uniform(0.0, w.height, w.plan_cameras)
    facings = rng.uniform(0.0, 2 * math.pi, w.plan_cameras)
    cameras = [
        {
            "id": k,
            "x": float(xs[k]),
            "y": float(ys[k]),
            "facing": float(facings[k]),
            "r": w.r,
            "phi": w.phi,
            "theta": w.theta,
        }
        for k in range(w.plan_cameras)
    ]
    paths.cameras.write_text(json.dumps(cameras))
    return paths


def argv(w: Workload, op: str, paths: Paths) -> list[str]:
    """The ``cambarrier`` command line of one operation."""
    if op in ("static", "mobile"):
        return ["simulate", "--config", str(paths.config), "--mode", op, "--out", str(paths.output(op))]
    if op == "deploy-grid":
        return [
            "deploy-grid",
            "--cameras",
            str(paths.cameras),
            "--width",
            repr(w.width),
            "--height",
            repr(w.height),
            "--out",
            str(paths.plan),
        ]
    return [op, "--plan", str(paths.plan), "--out", str(paths.output(op))]


# ---------------------------------------------------------------- checks
#
# Independent of the library: they read the output files only.  Each
# returns a list of problems, empty when the output passes.


def _parse_sweep(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != "x,estimate,trials,successes,stderr":
        raise ValueError("bad CSV header")
    rows = []
    for line in lines[1:]:
        x, _, trials, successes, _ = line.split(",")
        rows.append((int(x), int(trials), int(successes)))
    return rows


def check_sweep(w: Workload, text: str) -> list[str]:
    try:
        rows = _parse_sweep(text)
    except ValueError as exc:
        return [f"sweep CSV unreadable: {exc}"]
    problems = []
    if [r[0] for r in rows] != list(w.counts):
        problems.append(f"sweep rows {[r[0] for r in rows]} != counts {list(w.counts)}")
    for x, trials, successes in rows:
        if trials != w.trials or not 0 <= successes <= trials:
            problems.append(f"count {x}: {successes} successes of {trials} trials")
    return problems


def check_dominance(static_text: str, mobile_text: str) -> list[str]:
    """Per count, the mobile pipeline finds at least as many barriers as
    the static one on the same draws."""
    try:
        static, mobile = _parse_sweep(static_text), _parse_sweep(mobile_text)
    except ValueError as exc:
        return [f"sweep CSV unreadable: {exc}"]
    return [
        f"count {s[0]}: static {s[2]} > mobile {m[2]} successes"
        for s, m in zip(static, mobile)
        if s[2] > m[2]
    ]


@dataclass(frozen=True)
class PlanSummary:
    """What the checks need from a plan JSON, so the parsed plan itself
    is not kept alive between operations."""

    camera_ids: tuple[int, ...]
    n: int
    staffed: frozenset

    @classmethod
    def of(cls, plan: dict) -> "PlanSummary":
        down = {tuple(a["vertex"]) for a in plan["assignments"] if a["down"] is not None}
        up = {tuple(a["vertex"]) for a in plan["assignments"] if a["up"] is not None}
        m, n = plan["grid"]["m"], plan["grid"]["n"]
        staffed = frozenset(
            (i, j)
            for i in range(1, m + 1)
            for j in range(1, n + 1)
            if (i, j) in down and (i, j + 1) in down and (i + 1, j) in up and (i + 1, j + 1) in up
        )
        return cls(tuple(sorted(c["id"] for c in plan["cameras"])), n, staffed)


def check_plan(w: Workload, plan: PlanSummary) -> list[str]:
    if plan.camera_ids != tuple(range(w.plan_cameras)):
        return [f"plan holds {len(plan.camera_ids)} cameras, input had {w.plan_cameras}"]
    return []


def check_barrier(plan: PlanSummary, barrier: dict) -> list[str]:
    """A barrier path runs from column 1 to column n over staffed,
    8-adjacent cells, and its weight is 4 plus 2 per side hop and 3 per
    diagonal hop."""
    path = [tuple(c) for c in barrier["path"]]
    if not barrier["exists"]:
        if path or barrier["total_weight"] is not None:
            return ["no barrier, yet a path or weight is reported"]
        return []
    problems = []
    if not path or path[0][1] != 1 or path[-1][1] != plan.n:
        problems.append(f"path does not run from column 1 to column {plan.n}")
    weight = 4
    for a, b in zip(path, path[1:]):
        di, dj = abs(a[0] - b[0]), abs(a[1] - b[1])
        if max(di, dj) != 1:
            problems.append(f"cells {a} and {b} are not 8-adjacent")
        weight += 2 if di + dj == 1 else 3
    unstaffed = set(path) - plan.staffed
    if unstaffed:
        problems.append(f"path cells not staffed: {sorted(unstaffed)[:5]}")
    if barrier["total_weight"] != weight:
        problems.append(f"total_weight {barrier['total_weight']} != {weight} from the path")
    return problems
