"""Seeded Monte Carlo experiments: random deployments, barrier existence
under the static and mobile pipelines, and parameter sweeps.

Randomness comes from one named generator: numpy's PCG64.  Each trial
draws from its own substream seeded by ``SeedSequence([seed, count,
trial])``, so runs are reproducible bit for bit, trials are independent,
and the static and mobile pipelines see identical camera draws for the
same (seed, count, trial).

Both pipelines end in one flood fill on an (m, n) cell mask,
:func:`~cambarrier.barrier_graph.barrier_exists`.  The static pipeline
covers a cell when its mid-segment passes the full-view test with the
cameras as deployed; the fill runs that test on the cells it reaches,
and the sweep hands the drawn arrays to the kernel as a
:class:`~cambarrier.full_view.Cameras`.  The mobile pipeline
covers the cells relocation staffs, which follow from the number of
cameras in each cell alone (:func:`~cambarrier.grid_deploy.staffed_mask`),
so its sweep bins the drawn position arrays.  The camera-count sweep
takes its barrier from the same mobile mask
(:func:`~cambarrier.barrier_graph.extract_barrier`).  No sweep builds
camera, plan or graph objects.

Every sweep runs on one trial driver, :func:`_run_trials`, which walks
(count, trial) in row order and hands the trials to a per-sweep decider
in batches.  The mobile deciders draw, bin and staff a whole batch at
once, on a (T, m, n) stack of masks; the static decider takes its trials
one at a time.
"""

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .barrier_graph import barrier_exists, duty_slots, extract_barrier
from .full_view import (
    Cameras,
    _full_view_mask,
    full_view_covered_segment,
    normalize_bearings,
    sample_fractions,
    segment_points,
)
from .geometry import MAX_CAMERAS, TAU, CameraParams, CameraPose, Point2D, check_integer, check_real, size_text
from .grid_deploy import camera_positions, cell_counts, staffed_mask
from .grid_model import cell_mid_segment, grid_length_bound, grid_shape
from .line_model import cameras_for_barrier

# Not called here; bench/spans.py wraps these names in this module (ROADMAP item 5).
from .barrier_graph import build_graph, prune_degree_one, shortest_barrier  # noqa: F401
from .grid_deploy import run_algorithm1  # noqa: F401
from .grid_model import staffed_cells  # noqa: F401

MODES = ("static", "mobile")

#: Largest number of samples per cell a scenario may test.  It is about
#: 20 times the largest value the tests use (1001); each full test holds
#: arrays of cameras times samples.
MAX_SAMPLES = 20_000

#: Most cameras a scenario may draw over its whole sweep: ``trials``
#: times the sum of ``counts``, with a count of 0 taken as 1, since every
#: trial costs at least a draw.  It is the default 100 trials at
#: :data:`MAX_CAMERAS`, so a one-count mobile sweep at the camera limit
#: stays allowed, while a sweep that would not end in any useful time does
#: not.  A static sweep's draws times the samples each drawn camera may be
#: tested at must stay within it too: ``samples`` of a cell's full test,
#: plus :data:`_COARSE_SAMPLES` (at most ``samples``) in each of the ``m``
#: cells of every column's coarse check.
WORK_BUDGET = 100 * MAX_CAMERAS

#: A batch of trials handed to a decider holds at most this many cameras
#: plus lattice vertices, each trial counted as its cameras plus the
#: ``(m + 1) * (n + 1)`` vertices of its grid; a trial larger than the
#: budget runs alone.  The mobile decider's arrays are about that long,
#: so a batch needs no more memory than one trial at the camera limit,
#: and it holds at most ``2**14`` trials, each with a few Python objects.
#: Batches of a few dozen trials already amortize the per-batch numpy
#: calls; 2**16 and 2**20 ran a 1,300-trial sweep equally fast, and
#: 2**20 took 60 MiB more at 1,000 cameras per trial.
BATCH_BUDGET = 1 << 16


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
        for name, side in (("width", self.width), ("height", self.height)):
            check_real(f"region {name}", side)
            # A range test, as for the radius: an int too large for a
            # float fails it rather than raising OverflowError.
            if not 0.0 < side <= sys.float_info.max:
                w, h = size_text(self.width), size_text(self.height)
                raise ValueError(f"region dimensions must be positive and finite, got {w} x {h}")
        self.camera_params()
        _, m, _ = self.grid
        # A string or a dict would be taken apart into its items.
        counts = self.counts
        if not (isinstance(counts, (list, tuple)) or isinstance(counts, np.ndarray) and counts.ndim == 1):
            raise ValueError(f"counts must be a list of camera counts, got {type(counts).__name__}")
        for c in self.counts:
            check_integer("camera count", c, 0)
            if c > MAX_CAMERAS:
                raise ValueError(f"camera count {size_text(c)} exceeds {MAX_CAMERAS}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        check_integer("trials", self.trials, 1)
        # As a Python int: a numpy integer product could wrap around.
        work = int(self.trials) * sum(max(c, 1) for c in self.counts)
        if work > WORK_BUDGET:
            raise ValueError(
                f"the sweep draws {size_text(work)} cameras ({size_text(self.trials)} trials per count, "
                f"a count of 0 taken as 1), more than {WORK_BUDGET}"
            )
        check_integer("seed", self.seed, 0)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {size_text(self.mode, repr)}")
        check_integer("samples", self.samples, 2)
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples {size_text(self.samples)} exceeds {MAX_SAMPLES}")
        coarse = min(int(self.samples), _COARSE_SAMPLES)
        tested = work * (int(self.samples) + m * coarse)
        if self.mode == "static" and tested > WORK_BUDGET:
            raise ValueError(
                f"the static sweep tests {tested} camera samples ({work} cameras drawn times {self.samples} "
                f"samples plus {m} cells times {coarse} coarse samples), more than {WORK_BUDGET}"
            )

    @cached_property
    def grid(self) -> tuple[float, int, int]:
        """``(d, m, n)``: the cell side :func:`grid_length_bound` of ``r``
        and the :func:`grid_shape` of the region at that side, the grid
        every sweep and check of this config runs on."""
        d = grid_length_bound(self.r)
        return (d, *grid_shape(self.width, self.height, d))

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
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
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
    xs, ys = _draw_positions(rng, width, height, count)
    facings = rng.uniform(0.0, TAU, count)
    return xs, ys, facings


def _draw_positions(rng, width: float, height: float, count: int):
    """The first two draws of :func:`draw_cameras`: ``xs``, ``ys``."""
    return rng.uniform(0.0, width, count), rng.uniform(0.0, height, count)


def random_deploy(width: float, height: float, count: int, seed, params: CameraParams):
    """The cameras :func:`draw_cameras` draws, as poses with ids 0 to
    ``count - 1`` and hardware ``params``."""
    xs, ys, facings = draw_cameras(width, height, count, seed)
    return [
        CameraPose(k, Point2D(x, y), f, params)
        for k, (x, y, f) in enumerate(zip(xs.tolist(), ys.tolist(), facings.tolist()))
    ]


def barrier_exists_mobile(cameras, config: ScenarioConfig) -> bool:
    """Relocate with the grid pipeline at d equal to the verifiable bound,
    take fully staffed cells as covered, and ask for an s-t path.

    The verdict is the one :func:`run_algorithm1`, :func:`staffed_cells`
    and a graph search would give, and the same errors are raised for
    duplicate ids and cameras outside the region.  It is computed from the
    per-cell camera counts (:func:`staffed_mask`) and one flood fill
    (:func:`barrier_exists`); no plan or graph is built.
    """
    d, m, n = config.grid
    xs, ys = camera_positions(config.width, config.height, cameras)
    return barrier_exists(staffed_mask(cell_counts(xs, ys, d, (m, n))))


#: Samples per cell, evenly spaced with both endpoints, that the static
#: check tests first, for a whole column in one kernel call.  Most cells
#: that fail the full test already fail one of these, so the full test
#: runs mostly on cells that pass.  Any subset gives the same verdicts.
#: Fewer lets more failing cells through to the full test, more makes
#: every column's call larger; 4 to 8 ran about equally fast on the
#: benchmark workloads, 11 slower.
_COARSE_SAMPLES = 6


def _drawn_view(config: ScenarioConfig, count: int, seed) -> Cameras:
    """The cameras :func:`random_deploy` draws for ``config``, as the
    arrays :meth:`Cameras.of` makes of the poses, without them."""
    xs, ys, facings = draw_cameras(config.width, config.height, count, seed)
    r = np.full(count, config.r, dtype=float)
    half = np.full(count, config.phi / 2.0, dtype=float)
    return Cameras(xs, ys, normalize_bearings(facings), r, half)


class _StaticLayout:
    """What a static trial reads of ``config``'s grid besides the cameras:
    the grid shape, the coarse fractions and, per column, the cells'
    mid-segments, the column's box and the coarse points of its cells.
    A sweep builds one and shares it across its trials; a column is laid
    out when a trial first reaches it, so a sweep that always stops at the
    first column lays out only that one."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.d, self.m, self.n = config.grid
        last = config.samples - 1
        picks = sorted({round(k * last / (_COARSE_SAMPLES - 1)) for k in range(_COARSE_SAMPLES)})
        self.coarse = sample_fractions(config.samples)[picks]
        # With every sample among the coarse ones the coarse check is the
        # full test.
        self.exhaustive = len(picks) == config.samples
        self._columns = {}

    def column(self, j: int):
        """``(segs, box, xs, ys)`` of 0-based column ``j``."""
        if j not in self._columns:
            segs = [cell_mid_segment((i + 1, j + 1), self.d) for i in range(self.m)]
            box = (segs[0].a.x, segs[0].b.x, segs[0].a.y, segs[-1].a.y)
            points = [segment_points(seg, self.coarse) for seg in segs]
            xs = np.concatenate([x for x, _ in points])
            ys = np.concatenate([y for _, y in points])
            self._columns[j] = (segs, box, xs, ys)
        return self._columns[j]


def _static_barrier(cameras: Cameras, layout: _StaticLayout) -> bool:
    theta, samples = layout.config.theta, layout.config.samples
    candidates = np.zeros((layout.m, layout.n), dtype=bool)
    culls = []
    for j in range(layout.n):
        _, box, xs, ys = layout.column(j)
        column = cameras.within(*box)
        passed = _full_view_mask(xs, ys, column, theta, 0.0).reshape(layout.m, -1).all(axis=1)
        if not passed.any():
            return False
        candidates[:, j] = passed
        culls.append(column)
    if layout.exhaustive:
        return barrier_exists(candidates)

    def covered(i, j):
        seg = layout.column(j)[0][i]
        return full_view_covered_segment(seg, culls[j].near(seg), theta, samples=samples)

    return barrier_exists(candidates, covered)


def barrier_exists_static(cameras, config: ScenarioConfig) -> bool:
    """No movement, no rotation: a cell counts as covered iff its
    mid-segment passes the sampled full-view test with the cameras exactly
    as deployed; then ask for an s-t path on the same grid.

    Only work that can change the verdict is done.  Columns are first
    tested left to right, each in one kernel call on a few samples of
    every cell, with the cameras near the column; the kernel decides each
    point on its own, so a cell that fails there fails the full test.
    The answer is False at the first column where no cell passes: every
    s-t path over 8-adjacent cells visits every column.  The cells that
    pass go to one flood fill (:func:`barrier_exists`), which runs the
    full test on a cell only when it reaches it, on the cameras
    :class:`Cameras` keeps near the cell's mid-segment, and stops at
    the first covered cell of the last column.  When the coarse samples
    are every sample (``samples`` up to 6) the coarse verdicts are final
    and no full test runs.  Every cut leaves out only cameras that cannot
    cover a sample: too far away, or facing away from the segment.
    """
    return _static_barrier(Cameras.of(cameras), _StaticLayout(config))


def _base_metadata(config: ScenarioConfig) -> dict:
    return {
        "scenario": config.to_dict(),
        "seed": config.seed,
        "version": _artifact_version(),
        "generator": "pcg64",
        "substream": "SeedSequence([seed, count, trial])",
    }


def _run_trials(config: ScenarioConfig, decide) -> list[list]:
    """Outcomes of every trial of ``config``: one list per count, in
    ``config.counts`` order, of its trials' outcomes in trial order.

    The one driver of the Monte Carlo sweeps.  It walks (count, trial) in
    row order, derives each trial's substream with :func:`trial_seed`
    once, and hands consecutive ``(count, seed)`` pairs, across count
    boundaries, to ``decide`` in batches within :data:`BATCH_BUDGET`.
    ``decide`` returns one outcome per pair, in order."""
    _, m, n = config.grid
    vertices = (m + 1) * (n + 1)
    outcomes, batch, size = [], [], 0
    for count in config.counts:
        for t in range(config.trials):
            if batch and size + count + vertices > BATCH_BUDGET:
                outcomes += decide(batch)
                batch, size = [], 0
            batch.append((count, trial_seed(config.seed, count, t)))
            size += count + vertices
    if batch:
        outcomes += decide(batch)
    trials = config.trials
    return [outcomes[k * trials : (k + 1) * trials] for k in range(len(config.counts))]


def _mobile_masks(config: ScenarioConfig, batch) -> np.ndarray:
    """The (T, m, n) stack of the staffed masks of the T trials of
    ``batch``, a list of ``(count, seed)`` pairs: each the mask
    :func:`barrier_exists_mobile` takes of the trial's
    :func:`random_deploy` cameras.

    Each trial draws ``xs`` and ``ys`` as :func:`draw_cameras` does,
    without the facings it draws last; then one :func:`cell_counts` bins
    the whole batch and one :func:`staffed_mask` staffs it."""
    d, m, n = config.grid
    sizes = [count for count, _ in batch]
    xs, ys = np.empty(sum(sizes)), np.empty(sum(sizes))
    start = 0
    for count, seed in batch:
        end = start + count
        xs[start:end], ys[start:end] = _draw_positions(np.random.default_rng(seed), config.width, config.height, count)
        start = end
    trial = np.repeat(np.arange(len(batch)), sizes)
    return staffed_mask(cell_counts(xs, ys, d, (len(batch), m, n), trial))


def _sweep(config: ScenarioConfig, decide, row) -> SweepResult:
    """The sweep of ``config``: one row per count, in ``config.counts``
    order, ``row(count, outcomes)`` of the outcomes ``decide`` gives its
    trials on :func:`_run_trials`."""
    grouped = _run_trials(config, decide)
    rows = tuple(row(count, outcomes) for count, outcomes in zip(config.counts, grouped))
    return SweepResult(rows=rows, metadata=_base_metadata(config))


def coverage_probability_sweep(config: ScenarioConfig) -> SweepResult:
    """Barrier-existence probability per deployed count, for the mode
    selected in the config.  estimate = successes / trials exactly.

    Trials are decided on the drawn arrays, with the verdict
    :func:`barrier_exists_mobile` or :func:`barrier_exists_static` gives
    on the same cameras: a batch of mobile trials at once, static trials
    one by one."""
    if config.mode == "mobile":

        def decide(batch):
            return [barrier_exists(mask) for mask in _mobile_masks(config, batch)]

    else:
        layout = _StaticLayout(config)

        def decide(batch):
            return [_static_barrier(_drawn_view(config, count, seed), layout) for count, seed in batch]

    def row(count, verdicts):
        successes = sum(verdicts)
        p = successes / config.trials
        return SweepRow(count, p, config.trials, successes, math.sqrt(p * (1.0 - p) / config.trials))

    return _sweep(config, decide, row)


def barrier_camera_count_sweep(config: ScenarioConfig) -> SweepResult:
    """Mean distinct camera count of the extracted barrier per deployed
    count, mobile pipeline only.

    Trials without a barrier are excluded from the mean and show up only
    through ``successes``; estimate is NaN when no trial found a barrier.

    A trial takes :func:`extract_barrier` of the mobile mask and counts
    the path's :func:`duty_slots`, which is :func:`distinct_cameras` on
    the plan :func:`run_algorithm1` would make.
    """
    if config.mode != "mobile":
        raise ValueError("camera-count sweep requires mobile mode")

    def slots(mask):
        result = extract_barrier(mask)
        if not result.exists:
            return None
        down, up = duty_slots(result.path)
        return len(down) + len(up)

    def decide(batch):
        return [slots(mask) for mask in _mobile_masks(config, batch)]

    def row(count, outcomes):
        found = [k for k in outcomes if k is not None]
        successes = len(found)
        if successes == 0:
            estimate = stderr = float("nan")
        elif successes == 1:
            estimate, stderr = float(found[0]), 0.0
        else:
            estimate = float(np.mean(found))
            stderr = float(np.std(found, ddof=1) / math.sqrt(successes))
        return SweepRow(count, estimate, config.trials, successes, stderr)

    return _sweep(config, decide, row)


def fig3_sweep(length: float, r_values) -> SweepResult:
    """Camera count needed for a barrier of ``length``, per sensing
    radius.  Purely deterministic: each row carries the exact count."""
    rows = []
    for r in r_values:
        count = cameras_for_barrier(length, r)
        rows.append(SweepRow(x=float(r), estimate=float(count), trials=1, successes=count, stderr=0.0))
    return SweepResult(
        rows=tuple(rows),
        metadata={"length": length, "version": _artifact_version(), "generator": "deterministic"},
    )


def with_overrides(config: ScenarioConfig, **kwargs) -> ScenarioConfig:
    """Config copy with the given fields replaced (None values ignored),
    and checked as a new config is.  ``config`` itself when each given
    value is already its field's, of the same type: a copy would repeat
    every check to the same end."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    same = all(
        k in config.__dataclass_fields__ and type(v) is type(getattr(config, k)) and v == getattr(config, k)
        for k, v in updates.items()
    )
    return config if same else replace(config, **updates)
