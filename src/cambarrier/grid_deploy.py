"""Grid partition and the relocation/orientation pipeline for mobile cameras.

The region is cut into square cells of side ``d``.  Grid coordinates use
screen convention: cell (1, 1) is the top-left cell, rows grow downward
(+y) and columns grow rightward (+x).  Vertex (i, j) of the lattice sits
at ``((j - 1) * d, (i - 1) * d)``; boundary cells are clipped by the
region but the lattice keeps its uniform spacing, so vertices of clipped
cells may fall outside the region.

The relocation pipeline is deterministic: wherever a coordinator would
pick "any" camera, the smallest id wins, and remaining ids act as
substitutes in ascending order.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    EPS,
    CameraCull,
    CameraParams,
    CameraPose,
    Point2D,
    Segment,
    full_view_covered_segment,
    slack_ceil,
)
from .line_model import SWING_FOV, optimal_params

ORIENT_DOWN = "down"
ORIENT_UP = "up"

FACE_DOWN = 0.5 * math.pi  # +y: downward on the screen, into the grid
FACE_UP = 1.5 * math.pi


class CameraOutsideRegionError(ValueError):
    """Raised when cameras fall outside the partitioned region."""

    def __init__(self, ids):
        self.ids = tuple(ids)
        super().__init__(f"cameras outside the region: {list(self.ids)}")


def grid_length_bound(r: float) -> float:
    """Largest cell side that keeps a staffed cell verifiable: 2*r/sqrt(5).

    Using d equal to the bound minimizes the camera count.
    """
    return optimal_params(r).delta


@dataclass(frozen=True)
class GridModel:
    """An m x n partition with camera occupancy."""

    width: float
    height: float
    d: float
    m: int
    n: int
    cell_members: dict[tuple[int, int], tuple[int, ...]]
    poses: dict[int, CameraPose]

    def count(self, cell: tuple[int, int]) -> int:
        return len(self.cell_members.get(cell, ()))

    def vertex_position(self, i: int, j: int) -> Point2D:
        return Point2D((j - 1) * self.d, (i - 1) * self.d)

    def cells(self):
        for i in range(1, self.m + 1):
            for j in range(1, self.n + 1):
                yield (i, j)


@dataclass(frozen=True)
class VertexAssignment:
    """Cameras stationed at one lattice vertex and their duties.

    At most one camera serves each orientation.  Row-1 vertices never
    serve "up", row-(m+1) vertices never serve "down".  Cameras neither
    facing down nor up stay silent as substitutes.
    """

    vertex: tuple[int, int]
    stationed: tuple[int, ...]
    down: int | None
    up: int | None
    silent: tuple[int, ...]


@dataclass(frozen=True)
class CameraRecord:
    """Relocation outcome for a single camera."""

    camera_id: int
    origin: Point2D
    vertex: tuple[int, int]
    distance: float
    orientation: str | None


@dataclass(frozen=True)
class DeploymentPlan:
    """Everything the relocation pipeline decided for one scenario."""

    grid: GridModel
    heads: dict[tuple[int, int], int]
    assignments: dict[tuple[int, int], VertexAssignment]
    records: dict[int, CameraRecord]
    deficits: tuple[tuple[tuple[int, int], str], ...]
    d_within_bound: bool

    @cached_property
    def active_cameras(self) -> tuple[CameraPose, ...]:
        """Poses of every oriented camera: at its vertex, facing straight
        down or up, with the swing modeled as a static sector."""
        out = []
        for v in sorted(self.assignments):
            a = self.assignments[v]
            pos = self.grid.vertex_position(*v)
            for cid, face in ((a.down, FACE_DOWN), (a.up, FACE_UP)):
                if cid is None:
                    continue
                src = self.grid.poses[cid].params
                out.append(CameraPose(cid, pos, face, CameraParams(src.r, SWING_FOV, src.theta)))
        return tuple(out)


def cell_mid_segment(cell, d: float) -> Segment:
    """Horizontal segment through the middle of ``cell``, spanning its
    full width: the segment every coverage verdict is taken on."""
    i, j = cell
    y = (i - 0.5) * d
    return Segment(Point2D((j - 1) * d, y), Point2D(j * d, y))


#: Largest grid, in cells, that is partitioned or swept.  It is about 20
#: times the largest grid the tests, demos and benchmark use; relocation
#: visits every lattice vertex, so a larger grid mostly means a run that
#: does not finish or a plan that does not fit in memory.
MAX_CELLS = 250_000


def grid_shape(width: float, height: float, d: float) -> tuple[int, int]:
    """Rows and columns of the partition: ceil(height/d) x ceil(width/d),
    at least 1 x 1.

    Raises ``ValueError`` unless the three lengths are positive and finite
    and the grid has at most :data:`MAX_CELLS` cells.
    """
    if not all(math.isfinite(v) and v > 0 for v in (width, height, d)):
        raise ValueError(f"width, height and d must be positive and finite, got {width}, {height}, {d}")
    rows, cols = height / d, width / d
    if not (math.isfinite(rows) and math.isfinite(cols)):
        raise ValueError(f"a {height} x {width} region in cells of side {d} exceeds {MAX_CELLS} cells")
    m, n = max(1, slack_ceil(rows)), max(1, slack_ceil(cols))
    if m * n > MAX_CELLS:
        raise ValueError(f"a {m} x {n} grid exceeds {MAX_CELLS} cells")
    return m, n


def cell_index(v, d: float, size: int) -> np.ndarray:
    """1-based cell index, along one axis of length ``size`` cells, of the
    coordinates in array ``v``: ``max(1, ceil(v/d - EPS))``, clamped to
    ``size``.

    A point on a shared cell boundary goes to the smaller index.  The
    clamp only moves points within EPS beyond the far edge of the region,
    which would otherwise land in a cell the grid does not have.
    """
    return np.minimum(np.maximum(np.ceil(v / d - EPS), 1), size).astype(np.intp)


def camera_positions(width: float, height: float, cameras) -> tuple[np.ndarray, np.ndarray]:
    """x and y arrays of ``cameras``, in input order.

    Raises ``ValueError`` for duplicate ids and
    :class:`CameraOutsideRegionError`, listing the offending ids, for
    cameras more than EPS outside the region.
    """
    ids = [c.id for c in cameras]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate camera ids: {dupes}")
    xs = np.array([c.position.x for c in cameras], dtype=float)
    ys = np.array([c.position.y for c in cameras], dtype=float)
    outside = (xs < -EPS) | (xs > width + EPS) | (ys < -EPS) | (ys > height + EPS)
    if outside.any():
        raise CameraOutsideRegionError(sorted(ids[k] for k in np.flatnonzero(outside)))
    return xs, ys


def partition(width: float, height: float, d: float, cameras) -> GridModel:
    """Cut the region into :func:`grid_shape` cells and bin each camera
    into the cell :func:`cell_index` gives for its position.

    Cameras outside the region raise :class:`CameraOutsideRegionError`
    listing the offending ids.
    """
    m, n = grid_shape(width, height, d)
    xs, ys = camera_positions(width, height, cameras)
    members: dict[tuple[int, int], list[int]] = {}
    for c, i, j in zip(cameras, cell_index(ys, d, m).tolist(), cell_index(xs, d, n).tolist()):
        members.setdefault((i, j), []).append(c.id)
    return GridModel(
        width=width,
        height=height,
        d=d,
        m=m,
        n=n,
        cell_members={cell: tuple(sorted(v)) for cell, v in members.items()},
        poses={c.id: c for c in cameras},
    )


def cell_counts(xs, ys, d: float, shape: tuple[int, int]) -> np.ndarray:
    """Number of cameras in each cell of the (m, n) grid ``shape``, for
    cameras at ``xs``, ``ys``, binned as :func:`partition` bins them."""
    m, n = shape
    flat = (cell_index(ys, d, m) - 1) * n + (cell_index(xs, d, n) - 1)
    return np.bincount(flat, minlength=m * n).reshape(m, n)


def elect_grid_heads(grid: GridModel) -> dict[tuple[int, int], int]:
    """Per-cell coordinator: the smallest id in each non-empty cell."""
    return {cell: min(ids) for cell, ids in grid.cell_members.items() if ids}


def assign_to_vertices(cell, camera_ids, grid: GridModel) -> dict[tuple[int, int], tuple[int, ...]]:
    """Deal a cell's cameras round-robin onto its four vertices.

    Order is fixed: left-top, right-top, left-bottom, right-bottom, with
    ids sorted ascending first, so earlier vertices receive the extras of
    an uneven split.
    """
    i, j = cell
    order = ((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1))
    buckets: dict[tuple[int, int], list[int]] = {v: [] for v in order}
    for k, cid in enumerate(sorted(camera_ids)):
        buckets[order[k % 4]].append(cid)
    return {v: tuple(b) for v, b in buckets.items()}


def assign_orientations(grid: GridModel, vertex_sets) -> dict[tuple[int, int], VertexAssignment]:
    """Pick the serving cameras at every occupied vertex.

    Row 1 activates one camera facing down, row m+1 one facing up.
    Interior rows activate two (smallest id down, next up) when two or
    more cameras are present, otherwise the lone camera faces down and the
    missing "up" shows up in the plan's deficits.  Everyone else is
    silent.
    """
    out: dict[tuple[int, int], VertexAssignment] = {}
    for v in sorted(vertex_sets):
        ids = sorted(vertex_sets[v])
        if not ids:
            continue
        i, _ = v
        down = up = None
        if i == 1:
            down = ids[0]
        elif i == grid.m + 1:
            up = ids[0]
        else:
            down = ids[0]
            if len(ids) >= 2:
                up = ids[1]
        silent = tuple(x for x in ids if x != down and x != up)
        out[v] = VertexAssignment(vertex=v, stationed=tuple(ids), down=down, up=up, silent=silent)
    return out


def _vertex_requirements(i: int, m: int) -> tuple[str, ...]:
    if i == 1:
        return (ORIENT_DOWN,)
    if i == m + 1:
        return (ORIENT_UP,)
    return (ORIENT_DOWN, ORIENT_UP)


def run_algorithm1(width: float, height: float, cameras, d: float) -> DeploymentPlan:
    """Full relocation pipeline: partition, elect heads, deal cameras to
    vertices, move them there and orient them.

    Deterministic and invariant to the input order of ``cameras``.  Every
    camera ends up at a vertex of its own cell, oriented or silent; travel
    distances and unmet orientation slots are recorded.  ``d`` larger than
    the verifiable bound for the smallest radius only clears the
    ``d_within_bound`` flag, it does not fail the run.
    """
    grid = partition(width, height, d, cameras)
    heads = elect_grid_heads(grid)
    vertex_sets: dict[tuple[int, int], list[int]] = {}
    for cell in sorted(grid.cell_members):
        for v, ids in assign_to_vertices(cell, grid.cell_members[cell], grid).items():
            if ids:
                vertex_sets.setdefault(v, []).extend(ids)
    assignments = assign_orientations(grid, vertex_sets)

    records: dict[int, CameraRecord] = {}
    for v in sorted(assignments):
        a = assignments[v]
        pos = grid.vertex_position(*v)
        for cid in a.stationed:
            if cid == a.down:
                orientation = ORIENT_DOWN
            elif cid == a.up:
                orientation = ORIENT_UP
            else:
                orientation = None
            origin = grid.poses[cid].position
            records[cid] = CameraRecord(
                camera_id=cid,
                origin=origin,
                vertex=v,
                distance=origin.distance_to(pos),
                orientation=orientation,
            )

    deficits = []
    for i in range(1, grid.m + 2):
        for j in range(1, grid.n + 2):
            a = assignments.get((i, j))
            for role in _vertex_requirements(i, grid.m):
                filled = a is not None and getattr(a, role) is not None
                if not filled:
                    deficits.append(((i, j), role))

    if cameras:
        r_min = min(c.params.r for c in cameras)
        d_ok = d <= grid_length_bound(r_min) + EPS
    else:
        d_ok = True
    return DeploymentPlan(
        grid=grid,
        heads=heads,
        assignments=assignments,
        records=records,
        deficits=tuple(deficits),
        d_within_bound=d_ok,
    )


def cell_fully_staffed(cell, plan: DeploymentPlan) -> bool:
    """True iff the cell's two top vertices serve "down" and its two
    bottom vertices serve "up"."""
    i, j = cell
    asg = plan.assignments
    top = (asg.get((i, j)), asg.get((i, j + 1)))
    bottom = (asg.get((i + 1, j)), asg.get((i + 1, j + 1)))
    return all(a is not None and a.down is not None for a in top) and all(
        a is not None and a.up is not None for a in bottom
    )


def staffed_cells(plan: DeploymentPlan) -> set[tuple[int, int]]:
    """All cells that pass :func:`cell_fully_staffed`."""
    return {cell for cell in plan.grid.cells() if cell_fully_staffed(cell, plan)}


def staffed_mask(counts) -> np.ndarray:
    """The cells :func:`run_algorithm1` staffs, from the number of cameras
    in each cell alone: a boolean array shaped like the (m, n) ``counts``.

    Relocation never looks at a camera's position inside its cell, only at
    how many cameras the cell holds, so the verdict follows from counts:

    * :func:`assign_to_vertices` deals a cell's ``c`` cameras round-robin
      onto its slots q = 0..3 (top-left, top-right, bottom-left,
      bottom-right), so slot q gets ``max(c - q + 3, 0) // 4`` of them,
      which is ``(c + 3 - q) // 4`` since ``c >= 0``.
    * A vertex holds the sum of its slots over the up to four cells that
      share it.
    * By :func:`assign_orientations`, a row-1 vertex serves "down" when it
      holds at least 1 camera and a row-(m+1) vertex serves "up" when it
      holds at least 1; an interior vertex serves "down" with at least 1
      and "up" with at least 2.
    * By :func:`cell_fully_staffed`, a cell is staffed when both its top
      vertices serve "down" and both its bottom vertices serve "up".
    """
    c = np.asarray(counts)
    if c.ndim != 2 or 0 in c.shape or (c < 0).any():
        raise ValueError(f"counts must be a non-empty (m, n) array of non-negative integers, got shape {c.shape}")
    m, n = c.shape
    held = np.zeros((m + 1, n + 1), dtype=np.int64)
    held[:-1, :-1] += (c + 3) // 4
    held[:-1, 1:] += (c + 2) // 4
    held[1:, :-1] += (c + 1) // 4
    held[1:, 1:] += c // 4
    down = held[:-1] >= 1  # vertex rows 1..m
    up = held[1:] >= 2  # vertex rows 2..m+1
    up[-1] = held[-1] >= 1
    return down[:, :-1] & down[:, 1:] & up[:, :-1] & up[:, 1:]


def cell_full_view_verified(cell, plan: DeploymentPlan, theta: float, samples: int = 101) -> bool:
    """Geometric ground truth for one cell: the horizontal mid-segment of
    the cell, which sits d/2 from both camera rows, must pass the sampled
    full-view test using the active cameras of the plan (neighbors
    included).  Only the cameras :class:`CameraCull` keeps near the
    segment are passed on; the rest cannot reach it."""
    seg = cell_mid_segment(cell, plan.grid.d)
    return full_view_covered_segment(seg, CameraCull.of(plan.active_cameras).near(seg), theta, samples=samples)
