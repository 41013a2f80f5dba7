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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    EPS,
    CameraParams,
    CameraPose,
    Cameras,
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


class _Views:
    """Base of the plan types :func:`run_algorithm1` makes from a
    :class:`Relocation`.  Such an instance holds the relocation in place of
    the fields named in ``_VIEWS`` and builds each of them, with the
    relocation's method of the same name, the first time it is read.  An
    instance made by its constructor holds every field."""

    relocation = None
    _VIEWS = ()

    def __getattr__(self, name):
        # Reached only for an attribute the instance does not hold.
        if self.relocation is None or name not in self._VIEWS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.__dict__[name] = getattr(self.relocation, name)()
        return value

    @classmethod
    def _of(cls, relocation, **fields):
        obj = object.__new__(cls)
        obj.__dict__.update(fields, relocation=relocation)
        return obj


@dataclass(frozen=True)
class GridModel(_Views):
    """An m x n partition with camera occupancy."""

    _VIEWS = ("cell_members", "poses")

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
class DeploymentPlan(_Views):
    """Everything the relocation pipeline decided for one scenario.

    A plan :func:`run_algorithm1` makes keeps its :class:`Relocation` and
    builds ``heads``, ``assignments``, ``records``, ``deficits`` and the
    grid's ``cell_members`` and ``poses`` the first time they are read,
    which comparing two plans does."""

    _VIEWS = ("heads", "assignments", "records", "deficits")

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
    if math.isfinite(rows) and math.isfinite(cols):
        m, n = max(1, slack_ceil(rows)), max(1, slack_ceil(cols))
        if m * n <= MAX_CELLS:
            return m, n
    # Named by the region, not by the row count, which may run to hundreds of digits.
    raise ValueError(f"a {height} x {width} region in cells of side {d} exceeds {MAX_CELLS} cells")


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
    """x and y arrays of ``cameras``, a :class:`Cameras` or an iterable
    of :class:`CameraPose`, in input order.

    Raises ``ValueError`` for duplicate ids and
    :class:`CameraOutsideRegionError`, listing the offending ids, for
    cameras more than EPS outside the region.
    """
    cameras = Cameras.of(cameras)
    ids = cameras.ids
    if len(ids) != len(set(ids)):
        dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
        raise ValueError(f"duplicate camera ids: {dupes}")
    xs, ys = cameras.x, cameras.y
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


def cell_counts(xs, ys, d: float, shape: tuple, trial=None) -> np.ndarray:
    """Number of cameras in each cell of the (m, n) grid ``shape``, for
    cameras at ``xs``, ``ys``, binned as :func:`partition` bins them.

    With a ``(T, m, n)`` shape the cameras come from T trials, camera k
    from trial ``trial[k]`` (0-based), and the counts are per trial: one
    ``bincount`` over ``trial * m * n + cell``."""
    m, n = shape[-2:]
    flat = (cell_index(ys, d, m) - 1) * n + (cell_index(xs, d, n) - 1)
    if trial is not None:
        flat += trial * (m * n)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


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


#: A camera's duty in :attr:`Relocation.role`.
SILENT, DOWN, UP = 0, 1, 2

#: The orientation of each duty code, as records and plans write it.
ORIENTATIONS = (None, ORIENT_DOWN, ORIENT_UP)


def _group_ranks(keys) -> np.ndarray:
    """The rank of each entry of sorted array ``keys`` among the entries
    equal to it: 0 for the first of a run, 1 for the next, ..."""
    return np.arange(keys.size) - np.searchsorted(keys, keys)


class Relocation:
    """Algorithm 1's decisions on the ``m`` x ``n`` grid of cell side
    ``d``, as arrays over ``cameras``, a :class:`Cameras` in ascending id
    order: camera ``k`` sits in cell
    ``(cell_i[k], cell_j[k])``, moves ``distance[k]`` to vertex
    ``(vertex_i[k], vertex_j[k])`` and serves ``role[k]`` (:data:`SILENT`,
    :data:`DOWN` or :data:`UP`).  ``by_cell`` and ``by_vertex`` list the
    cameras by (cell, id) and by (vertex, id), each group starting at the
    positions ``cell_starts`` and ``vertex_starts`` hold.  ``deficit_codes``
    holds ``2 * v + duty`` for each unfilled duty of the lattice, in
    row-major order of the 0-based vertex number ``v``, with duty 0 for
    "down" before 1 for "up".

    Its methods build the dict views of :class:`DeploymentPlan` and
    :class:`GridModel`."""

    def __init__(self, d, m: int, n: int, cameras: Cameras):
        self.m, self.n = m, n
        self.cameras = cameras
        count = len(cameras)
        ci, cj = cell_index(cameras.y, d, m), cell_index(cameras.x, d, n)
        cell = (ci - 1) * n + cj
        # assign_to_vertices: a cell's k-th smallest id goes to slot k % 4.
        self.by_cell = np.argsort(cell, kind="stable")
        rank = _group_ranks(cell[self.by_cell])
        self.cell_starts = np.flatnonzero(rank == 0)
        slot = np.empty(count, dtype=np.intp)
        slot[self.by_cell] = rank % 4
        vi, vj = ci + slot // 2, cj + slot % 2
        vertex = (vi - 1) * (n + 1) + (vj - 1)
        # assign_orientations: the first id at a vertex serves "down" (or
        # "up" on row m+1), the second "up" on an interior row.
        self.by_vertex = np.argsort(vertex, kind="stable")
        place = _group_ranks(vertex[self.by_vertex])
        self.vertex_starts = np.flatnonzero(place == 0)
        row = vi[self.by_vertex]
        self.role = np.empty(count, dtype=np.int8)
        self.role[self.by_vertex] = np.where(
            place == 0, np.where(row == m + 1, UP, DOWN), np.where((place == 1) & (row > 1) & (row <= m), UP, SILENT)
        )
        filled = np.zeros(((m + 1) * (n + 1), 2), dtype=bool)
        filled[vertex[self.role == DOWN], 0] = True
        filled[vertex[self.role == UP], 1] = True
        filled[-(n + 1) :, 0] = filled[: n + 1, 1] = True  # duties the row does not have
        self.deficit_codes = np.flatnonzero(~filled)
        self.cell_i, self.cell_j, self.vertex_i, self.vertex_j = ci, cj, vi, vj
        # math.hypot, as Point2D.distance_to: np.hypot may differ in the last bit.
        dx, dy = cameras.x - (vj - 1) * d, cameras.y - (vi - 1) * d
        self.distance = list(map(math.hypot, dx.tolist(), dy.tolist()))

    def _groups(self, order, starts, rows, cols, labels) -> list:
        """``((i, j), labels)`` per group of cameras ``order`` lists, each
        group starting at a position in ``starts``, its key read from
        ``rows`` and ``cols`` at its first camera."""
        labels = self.cameras.ids if labels is None else labels
        ranked = np.array(labels, dtype=object)[order].tolist()
        bounds = starts.tolist() + [len(ranked)]
        first = order[starts]
        keys = zip(rows[first].tolist(), cols[first].tolist())
        return [(key, ranked[a:b]) for key, a, b in zip(keys, bounds, bounds[1:])]

    def cells(self, labels=None) -> list:
        """``((i, j), labels)`` of every occupied cell, in cell order, with
        the labels of its cameras (their ids, by default) in id order."""
        return self._groups(self.by_cell, self.cell_starts, self.cell_i, self.cell_j, labels)

    def duties(self, labels=None) -> list:
        """``((i, j), stationed, down, up, silent)`` of every occupied
        vertex, in vertex order, as :meth:`cells` labels cameras; an
        unfilled duty is None."""
        out = []
        groups = self._groups(self.by_vertex, self.vertex_starts, self.vertex_i, self.vertex_j, labels)
        roles = self.role[self.by_vertex].tolist()
        for (key, stationed), a in zip(groups, self.vertex_starts.tolist()):
            # The first camera serves "down" or "up"; a second serves "up"
            # or is silent, as every later one is.
            second = roles[a + 1] if len(stationed) > 1 else SILENT
            down = stationed[0] if roles[a] == DOWN else None
            up = stationed[0] if roles[a] == UP else stationed[1] if second == UP else None
            out.append((key, stationed, down, up, stationed[2:] if second == UP else stationed[1:]))
        return out

    def deficit_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and duty codes (indices into
        :data:`ORIENTATIONS`, as ``role`` holds) of the unfilled duties, in
        order, as arrays."""
        vertex, duty = np.divmod(self.deficit_codes, 2)
        rows, cols = np.divmod(vertex, self.n + 1)
        return rows + 1, cols + 1, duty + DOWN

    @cached_property
    def _poses(self) -> list:
        return list(self.cameras)

    # The views, by the name of the field each fills.

    def cell_members(self) -> dict:
        return {cell: tuple(ids) for cell, ids in self.cells()}

    def poses(self) -> dict:
        return dict(zip(self.cameras.ids, self._poses))

    def heads(self) -> dict:
        return {cell: ids[0] for cell, ids in self.cells()}

    def assignments(self) -> dict:
        return {
            v: VertexAssignment(v, tuple(stationed), down, up, tuple(silent))
            for v, stationed, down, up, silent in self.duties()
        }

    def records(self) -> dict:
        ids, poses = self.cameras.ids, self._poses
        vertices = zip(self.vertex_i.tolist(), self.vertex_j.tolist())
        records = [
            CameraRecord(cid, pose.position, v, dist, ORIENTATIONS[role])
            for cid, pose, v, dist, role in zip(ids, poses, vertices, self.distance, self.role.tolist())
        ]
        return {records[k].camera_id: records[k] for k in self.by_vertex.tolist()}

    def deficits(self) -> tuple:
        rows, cols, duties = (column.tolist() for column in self.deficit_columns())
        return tuple(((i, j), ORIENTATIONS[duty]) for i, j, duty in zip(rows, cols, duties))


def run_algorithm1(width: float, height: float, cameras, d: float) -> DeploymentPlan:
    """Full relocation pipeline: partition, elect heads, deal cameras to
    vertices, move them there and orient them.

    Deterministic and invariant to the input order of ``cameras``, a
    :class:`Cameras` or an iterable of :class:`CameraPose`.  Every
    camera ends up at a vertex of its own cell, oriented or silent; travel
    distances and unmet orientation slots are recorded.  ``d`` larger than
    the verifiable bound for the smallest radius only clears the
    ``d_within_bound`` flag, it does not fail the run.

    The decisions are those of :func:`partition`, :func:`elect_grid_heads`,
    :func:`assign_to_vertices` and :func:`assign_orientations`, taken with
    a few sorts over arrays (:class:`Relocation`); ids are ranked by a
    Python sort, so they may be of any size.
    """
    m, n = grid_shape(width, height, d)
    cameras = Cameras.of(cameras)
    camera_positions(width, height, cameras)
    order = sorted(range(len(cameras)), key=cameras.ids.__getitem__)
    relocation = Relocation(d, m, n, cameras.take(order))
    d_ok = not len(cameras) or d <= grid_length_bound(float(cameras.r.min())) + EPS
    grid = GridModel._of(relocation, width=width, height=height, d=d, m=m, n=n)
    return DeploymentPlan._of(relocation, grid=grid, d_within_bound=d_ok)


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
      vertices serve "down" and both its bottom vertices serve "up"
      (:func:`_staffed`).

    A ``(..., m, n)`` stack of grids gives the stack of their masks.
    """
    c = np.asarray(counts)
    if c.ndim < 2 or 0 in c.shape or (c < 0).any():
        raise ValueError(
            f"counts must be a non-empty (..., m, n) array of non-negative integers, got shape {c.shape}"
        )
    held = np.zeros((*c.shape[:-2], c.shape[-2] + 1, c.shape[-1] + 1), dtype=np.int64)
    held[..., :-1, :-1] += (c + 3) // 4
    held[..., :-1, 1:] += (c + 2) // 4
    held[..., 1:, :-1] += (c + 1) // 4
    held[..., 1:, 1:] += c // 4
    down = held >= 1
    up = held >= 2
    up[..., -1, :] = down[..., -1, :]
    return _staffed(down, up)


def duty_mask(m: int, n: int, duties: dict) -> np.ndarray:
    """The staffed cells of an m x n grid as an (m, n) boolean mask, from
    the duties of its (m+1) x (n+1) lattice: ``duties`` maps a vertex
    ``(i, j)`` to its ``(down, up)`` camera ids, None for an unfilled
    duty, and a vertex it leaves out serves neither."""
    cols = n + 1
    down = np.zeros((m + 1) * cols, dtype=bool)
    up = np.zeros((m + 1) * cols, dtype=bool)
    down[[(i - 1) * cols + j - 1 for (i, j), (d, _) in duties.items() if d is not None]] = True
    up[[(i - 1) * cols + j - 1 for (i, j), (_, u) in duties.items() if u is not None]] = True
    return _staffed(down.reshape(m + 1, cols), up.reshape(m + 1, cols))


def _staffed(down, up) -> np.ndarray:
    """Cells whose two top vertices serve "down" and whose two bottom
    vertices serve "up", from (..., m+1, n+1) boolean arrays of the
    lattice vertices that serve each duty."""
    return down[..., :-1, :-1] & down[..., :-1, 1:] & up[..., 1:, :-1] & up[..., 1:, 1:]


def cell_full_view_verified(cell, plan: DeploymentPlan, theta: float, samples: int = 101) -> bool:
    """Geometric ground truth for one cell: the horizontal mid-segment of
    the cell, which sits d/2 from both camera rows, must pass the sampled
    full-view test using the active cameras of the plan (neighbors
    included).  Only the cameras :meth:`Cameras.near` keeps near the
    segment are passed on; the rest cannot reach it."""
    seg = cell_mid_segment(cell, plan.grid.d)
    return full_view_covered_segment(seg, Cameras.of(plan.active_cameras).near(seg), theta, samples=samples)
