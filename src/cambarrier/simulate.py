"""Seeded Monte Carlo experiments: random deployments, barrier existence
under the static and mobile pipelines, and parameter sweeps.

Randomness comes from one named generator: numpy's PCG64.  Each trial
draws from its own substream seeded by ``SeedSequence([seed, count,
trial])``, so runs are reproducible bit for bit, trials are independent,
and the static and mobile pipelines see identical camera draws for the
same (seed, count, trial).

Both pipelines end in an (m, n) covered-cell mask and one flood fill,
:func:`~cambarrier.barrier_graph.barrier_exists`.  The static pipeline
covers a cell when its mid-segment passes the full-view test with the
cameras as deployed, and its sweep hands the drawn arrays to the kernel
as a :class:`~cambarrier.geometry.CameraCull`.  The mobile pipeline
covers the cells relocation staffs, which follow from the number of
cameras in each cell alone (:func:`~cambarrier.grid_deploy.staffed_mask`),
so its sweep bins the drawn position arrays.  Neither sweep builds
camera, plan or graph objects.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .barrier_graph import barrier_exists, build_graph, distinct_cameras, prune_degree_one, shortest_barrier
from .geometry import (
    TAU,
    CameraCull,
    CameraParams,
    CameraPose,
    Point2D,
    _full_view_mask,
    check_integer,
    full_view_covered_segment,
    normalize_bearings,
    segment_points,
)
from .grid_deploy import (
    camera_positions,
    cell_counts,
    cell_mid_segment,
    grid_length_bound,
    grid_shape,
    run_algorithm1,
    staffed_cells,
    staffed_mask,
)

MODES = ("static", "mobile")

#: Largest camera count a scenario may sweep.  It is about 20 times the
#: largest count the tests, demos and benchmark use; each trial holds
#: arrays of this length, so a larger count mostly means a run that does
#: not fit in memory.
MAX_CAMERAS = 1_000_000


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
        grid_shape(self.width, self.height, grid_length_bound(self.r))
        for c in self.counts:
            check_integer("camera count", c, 0)
            if c > MAX_CAMERAS:
                raise ValueError(f"camera count {c} exceeds {MAX_CAMERAS}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        check_integer("trials", self.trials, 1)
        check_integer("seed", self.seed, 0)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_integer("samples", self.samples, 2)

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


def draw_cameras(width: float, height: float, count: int, seed):
    """Arrays ``xs, ys, facings`` of ``count`` cameras: positions uniform
    over the region and facings uniform over [0, 2*pi), drawn in that
    order from PCG64 seeded by ``seed`` (an int or a ``SeedSequence``)."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, width, count)
    ys = rng.uniform(0.0, height, count)
    facings = rng.uniform(0.0, TAU, count)
    return xs, ys, facings


def random_deploy(width: float, height: float, count: int, seed, params: CameraParams):
    """The cameras :func:`draw_cameras` draws, as poses with ids 0 to
    ``count - 1`` and hardware ``params``."""
    xs, ys, facings = draw_cameras(width, height, count, seed)
    return [
        CameraPose(k, Point2D(x, y), f, params)
        for k, (x, y, f) in enumerate(zip(xs.tolist(), ys.tolist(), facings.tolist()))
    ]


def _mobile_barrier(xs, ys, d: float, shape: tuple[int, int]) -> bool:
    return barrier_exists(staffed_mask(cell_counts(xs, ys, d, shape)))


def barrier_exists_mobile(cameras, config: ScenarioConfig) -> bool:
    """Relocate with the grid pipeline at d equal to the verifiable bound,
    take fully staffed cells as covered, and ask for an s-t path.

    The verdict is the one :func:`run_algorithm1`, :func:`staffed_cells`
    and a graph search would give, and the same errors are raised for
    duplicate ids and cameras outside the region.  It is computed from the
    per-cell camera counts (:func:`staffed_mask`) and one flood fill
    (:func:`barrier_exists`); no plan or graph is built.
    """
    d = grid_length_bound(config.r)
    shape = grid_shape(config.width, config.height, d)
    xs, ys = camera_positions(config.width, config.height, list(cameras))
    return _mobile_barrier(xs, ys, d, shape)


#: Samples per cell, evenly spaced with both endpoints, that the static
#: check tests first, for a whole column in one kernel call.  Most cells
#: that fail the full test already fail one of these, so the full test
#: runs mostly on cells that pass.  Any subset gives the same verdicts.
#: Fewer lets more failing cells through to the full test, more makes
#: every column's call larger; 4 to 8 ran about equally fast on the
#: benchmark workloads, 11 slower.
_COARSE_SAMPLES = 6


def _drawn_view(config: ScenarioConfig, count: int, seed) -> CameraCull:
    """The cameras :func:`random_deploy` draws for ``config``, as the
    array view :meth:`CameraCull.of` makes of the poses, without them."""
    xs, ys, facings = draw_cameras(config.width, config.height, count, seed)
    r = np.full(count, config.r, dtype=float)
    half = np.full(count, config.phi / 2.0, dtype=float)
    return CameraCull(xs, ys, r, half, normalize_bearings(facings))


def _static_barrier(cameras: CameraCull, config: ScenarioConfig) -> bool:
    d = grid_length_bound(config.r)
    m, n = grid_shape(config.width, config.height, d)
    t = np.linspace(0.0, 1.0, config.samples)
    last = config.samples - 1
    coarse = t[sorted({round(k * last / (_COARSE_SAMPLES - 1)) for k in range(_COARSE_SAMPLES)})]
    covered = np.zeros((m, n), dtype=bool)
    for j in range(n):
        segs = [cell_mid_segment((i + 1, j + 1), d) for i in range(m)]
        column = cameras.within(segs[0].a.x, segs[0].b.x, segs[0].a.y, segs[-1].a.y)
        points = [segment_points(seg, coarse) for seg in segs]
        xs = np.concatenate([x for x, _ in points])
        ys = np.concatenate([y for _, y in points])
        passed = _full_view_mask(xs, ys, column, config.theta, 0.0).reshape(m, coarse.size).all(axis=1)
        for i in np.flatnonzero(passed):
            covered[i, j] = full_view_covered_segment(
                segs[i], column.near(segs[i]), config.theta, samples=config.samples
            )
        if not covered[:, j].any():
            return False
    return barrier_exists(covered)


def barrier_exists_static(cameras, config: ScenarioConfig) -> bool:
    """No movement, no rotation: a cell counts as covered iff its
    mid-segment passes the sampled full-view test with the cameras exactly
    as deployed; then ask for an s-t path on the same grid.

    Only work that can change the verdict is done.  Columns are tested
    left to right, and the answer is False at the first column with no
    covered cell: every s-t path over 8-adjacent cells visits every
    column.  A column's cells are first tested together on a few of
    their samples, in one kernel call that sees the cameras near the
    column; the kernel decides each point on its own, so a cell that
    fails there fails the full test.  Each remaining cell gets the full
    test on the cameras :class:`CameraCull` keeps near its mid-segment.
    Every cut leaves out only cameras too far away to cover a sample.
    The covered-cell mask then goes to one flood fill
    (:func:`barrier_exists`).
    """
    return _static_barrier(CameraCull.of(cameras), config)


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
    selected in the config.  estimate = successes / trials exactly.

    Trials are decided on the drawn arrays, with the verdict
    :func:`barrier_exists_mobile` or :func:`barrier_exists_static` gives
    on the same cameras."""
    if config.mode == "mobile":
        d = grid_length_bound(config.r)
        shape = grid_shape(config.width, config.height, d)

        def check(count, seed):
            xs, ys, _ = draw_cameras(config.width, config.height, count, seed)
            return _mobile_barrier(xs, ys, d, shape)

    else:

        def check(count, seed):
            return _static_barrier(_drawn_view(config, count, seed), config)

    rows = []
    for count in config.counts:
        successes = sum(check(count, trial_seed(config.seed, count, t)) for t in range(config.trials))
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
