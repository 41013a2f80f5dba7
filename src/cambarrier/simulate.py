"""Seeded Monte Carlo experiments: random deployments, barrier existence
under the static and mobile pipelines, and parameter sweeps.

Randomness comes from one named generator: numpy's PCG64.  Each trial
draws from its own substream seeded by ``SeedSequence([seed, count,
trial])``, so runs are reproducible bit for bit, trials are independent,
and the static and mobile pipelines see identical camera draws for the
same (seed, count, trial).
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .barrier_graph import build_graph, distinct_cameras, prune_degree_one, shortest_barrier
from .geometry import TAU, CameraCull, CameraParams, CameraPose, Point2D, full_view_covered_segment, slack_ceil
from .grid_deploy import cell_mid_segment, grid_length_bound, run_algorithm1, staffed_cells

MODES = ("static", "mobile")


def _check_integer(name: str, value, minimum: int) -> None:
    """Reject anything but an integer >= ``minimum``; bools and integral
    floats are rejected too, so that no value is silently converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: region, hardware, deployment counts and trials.

    ``counts`` lists the deployed camera counts to sweep; ``trials``
    independent draws run per count.  Identical config and seed give
    bit-identical outputs.
    """

    width: float
    height: float
    r: float
    theta: float
    phi: float
    counts: tuple[int, ...]
    seed: int
    trials: int = 100
    mode: str = "mobile"
    samples: int = 101

    def __post_init__(self):
        for side in (self.width, self.height):
            if isinstance(side, bool) or not (math.isfinite(side) and side > 0):
                raise ValueError(
                    f"region dimensions must be positive and finite, got {self.width} x {self.height}"
                )
        self.camera_params()
        for c in self.counts:
            _check_integer("camera count", c, 0)
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        _check_integer("trials", self.trials, 1)
        _check_integer("seed", self.seed, 0)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_integer("samples", self.samples, 2)

    def camera_params(self) -> CameraParams:
        return CameraParams(r=self.r, phi=self.phi, theta=self.theta)

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "r": self.r,
            "theta": self.theta,
            "phi": self.phi,
            "counts": list(self.counts),
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {f for f in known if f not in data and f not in ("trials", "mode", "samples")}
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**data)


@dataclass(frozen=True)
class SweepRow:
    x: float | int
    estimate: float
    trials: int
    successes: int
    stderr: float


@dataclass(frozen=True)
class SweepResult:
    """Rows of (x, estimate, trials, successes, stderr) plus run metadata."""

    rows: tuple[SweepRow, ...]
    metadata: dict = field(default_factory=dict)


def _artifact_version() -> str:
    from . import __version__

    return __version__


def trial_seed(seed: int, count: int, trial: int) -> np.random.SeedSequence:
    """Substream for one trial.  This exact derivation is what the sweeps
    use, so callers can reproduce any individual draw."""
    return np.random.SeedSequence([seed, count, trial])


def random_deploy(width: float, height: float, count: int, seed, params: CameraParams):
    """``count`` cameras with positions uniform over the region and
    facings uniform over [0, 2*pi), drawn from PCG64 seeded by ``seed``
    (an int or a ``SeedSequence``)."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, width, count)
    ys = rng.uniform(0.0, height, count)
    facings = rng.uniform(0.0, TAU, count)
    return [
        CameraPose(k, Point2D(float(xs[k]), float(ys[k])), float(facings[k]), params)
        for k in range(count)
    ]


def barrier_exists_mobile(cameras, config: ScenarioConfig) -> bool:
    """Relocate with the grid pipeline at d equal to the verifiable bound,
    take fully staffed cells as covered, and ask for an s-t path."""
    d = grid_length_bound(config.r)
    plan = run_algorithm1(config.width, config.height, list(cameras), d)
    covered = staffed_cells(plan)
    g = prune_degree_one(build_graph(covered, plan.grid.m, plan.grid.n))
    return shortest_barrier(g).exists


def barrier_exists_static(cameras, config: ScenarioConfig) -> bool:
    """No movement, no rotation: a cell counts as covered iff its
    mid-segment passes the sampled full-view test with the cameras exactly
    as deployed; then ask for an s-t path on the same grid.

    Only work that can change the verdict is done.  Columns are tested
    left to right, and the answer is False at the first column with no
    covered cell: every s-t path over 8-adjacent cells visits every
    column.  Each cell's test sees only the cameras :class:`CameraCull`
    keeps near its mid-segment, a cut that leaves out only cameras too
    far away to cover any point of it.
    """
    d = grid_length_bound(config.r)
    m = max(1, slack_ceil(config.height / d))
    n = max(1, slack_ceil(config.width / d))
    cull = CameraCull(cameras)
    covered = set()
    for j in range(1, n + 1):
        before = len(covered)
        for i in range(1, m + 1):
            seg = cell_mid_segment((i, j), d)
            if full_view_covered_segment(seg, cull.near(seg), config.theta, samples=config.samples):
                covered.add((i, j))
        if len(covered) == before:
            return False
    g = prune_degree_one(build_graph(covered, m, n))
    return shortest_barrier(g).exists


def _base_metadata(config: ScenarioConfig) -> dict:
    return {
        "scenario": config.to_dict(),
        "seed": config.seed,
        "version": _artifact_version(),
        "generator": "pcg64",
        "substream": "SeedSequence([seed, count, trial])",
    }


def coverage_probability_sweep(config: ScenarioConfig) -> SweepResult:
    """Barrier-existence probability per deployed count, for the mode
    selected in the config.  estimate = successes / trials exactly."""
    check = barrier_exists_mobile if config.mode == "mobile" else barrier_exists_static
    params = config.camera_params()
    rows = []
    for count in config.counts:
        successes = 0
        for t in range(config.trials):
            cams = random_deploy(
                config.width, config.height, count, trial_seed(config.seed, count, t), params
            )
            if check(cams, config):
                successes += 1
        p = successes / config.trials
        rows.append(
            SweepRow(
                x=count,
                estimate=p,
                trials=config.trials,
                successes=successes,
                stderr=math.sqrt(p * (1.0 - p) / config.trials),
            )
        )
    return SweepResult(rows=tuple(rows), metadata=_base_metadata(config))


def barrier_camera_count_sweep(config: ScenarioConfig) -> SweepResult:
    """Mean distinct camera count of the extracted barrier per deployed
    count, mobile pipeline only.

    Trials without a barrier are excluded from the mean and show up only
    through ``successes``; estimate is NaN when no trial found a barrier.
    """
    if config.mode != "mobile":
        raise ValueError("camera-count sweep requires mobile mode")
    params = config.camera_params()
    d = grid_length_bound(config.r)
    rows = []
    for count in config.counts:
        found = []
        for t in range(config.trials):
            cams = random_deploy(
                config.width, config.height, count, trial_seed(config.seed, count, t), params
            )
            plan = run_algorithm1(config.width, config.height, cams, d)
            covered = staffed_cells(plan)
            g = prune_degree_one(build_graph(covered, plan.grid.m, plan.grid.n))
            result = shortest_barrier(g)
            if result.exists:
                found.append(distinct_cameras(result, plan))
        successes = len(found)
        if successes == 0:
            estimate = float("nan")
            stderr = float("nan")
        elif successes == 1:
            estimate = float(found[0])
            stderr = 0.0
        else:
            estimate = float(np.mean(found))
            stderr = float(np.std(found, ddof=1) / math.sqrt(successes))
        rows.append(SweepRow(x=count, estimate=estimate, trials=config.trials, successes=successes, stderr=stderr))
    return SweepResult(rows=tuple(rows), metadata=_base_metadata(config))


def fig3_sweep(length: float, r_values) -> SweepResult:
    """Camera count needed for a barrier of ``length``, per sensing
    radius.  Purely deterministic: each row carries the exact count."""
    from .line_model import cameras_for_barrier

    rows = []
    for r in r_values:
        count = cameras_for_barrier(length, r)
        rows.append(SweepRow(x=float(r), estimate=float(count), trials=1, successes=count, stderr=0.0))
    return SweepResult(
        rows=tuple(rows),
        metadata={"length": length, "version": _artifact_version(), "generator": "deterministic"},
    )


def with_overrides(config: ScenarioConfig, **kwargs) -> ScenarioConfig:
    """Config copy with the given fields replaced (None values ignored)."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    return replace(config, **updates) if updates else config
