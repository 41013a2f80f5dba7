"""The grid model: the partition of a region into square cells, the
deployment plan the relocation pipeline writes, and the rule that says
which cells a plan staffs.  It imports no numpy, so the commands that
only read a plan (``barrier``, ``k-barrier``) never load it; the
relocation pipeline itself is :mod:`cambarrier.grid_deploy`.

The region is cut into square cells of side ``d``.  Grid coordinates use
screen convention: cell (1, 1) is the top-left cell, rows grow downward
(+y) and columns grow rightward (+x).  Vertex (i, j) of the lattice sits
at ``((j - 1) * d, (i - 1) * d)``; boundary cells are clipped by the
region but the lattice keeps its uniform spacing, so vertices of clipped
cells may fall outside the region.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .geometry import CameraParams, CameraPose, Point2D, Segment, size_text, slack_ceil
from .line_model import SWING_FOV, optimal_params

ORIENT_DOWN = "down"
ORIENT_UP = "up"

FACE_DOWN = 0.5 * math.pi  # +y: downward on the screen, into the grid
FACE_UP = 1.5 * math.pi

#: A camera's duty in :attr:`Relocation.role
#: <cambarrier.grid_deploy.Relocation.role>`.
SILENT, DOWN, UP = 0, 1, 2

#: The orientation of each duty code, as records and plans write it.
ORIENTATIONS = (None, ORIENT_DOWN, ORIENT_UP)


def grid_length_bound(r: float) -> float:
    """Largest cell side that keeps a staffed cell verifiable: 2*r/sqrt(5).

    Using d equal to the bound minimizes the camera count.
    """
    return optimal_params(r).delta


class _Views:
    """Base of the plan types :func:`~cambarrier.grid_deploy.run_algorithm1`
    makes from a :class:`~cambarrier.grid_deploy.Relocation`.  Such an
    instance holds the relocation in place of the fields named in
    ``_VIEWS`` and builds each of them, with the relocation's method of the
    same name, the first time it is read.  An instance made by its
    constructor holds every field."""

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

    A plan :func:`~cambarrier.grid_deploy.run_algorithm1` makes keeps its
    :class:`~cambarrier.grid_deploy.Relocation` and builds ``heads``,
    ``assignments``, ``records``, ``deficits`` and the grid's
    ``cell_members`` and ``poses`` the first time they are read, which
    comparing two plans does."""

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
    if not all(0.0 < v <= sys.float_info.max for v in (width, height, d)):
        w, h, side = map(size_text, (width, height, d))
        raise ValueError(f"width, height and d must be positive and finite, got {w}, {h}, {side}")
    rows, cols = height / d, width / d
    if math.isfinite(rows) and math.isfinite(cols):
        m, n = max(1, slack_ceil(rows)), max(1, slack_ceil(cols))
        if m * n <= MAX_CELLS:
            return m, n
    # Named by the region, not by the row count, which may run to hundreds
    # of digits; a length given as a huge int is cut to 3 digits too.
    w, h, side = map(size_text, (width, height, d))
    raise ValueError(f"a {w} x {h} region in cells of side {side} exceeds {MAX_CELLS} cells")


#: The staffed rule, one entry per corner of a cell: cell (i, j) is
#: staffed when, for every ``(di, dj, k)`` here, vertex ``(i + di, j + dj)``
#: serves duty ``k`` of its ``(down, up)`` pair.  That is, its two top
#: vertices serve "down" and its two bottom vertices serve "up".  The plan
#: path (:func:`duty_mask`, :func:`cell_fully_staffed`) and the count path
#: (:func:`~cambarrier.grid_deploy.staffed_mask`) both read it.
CORNER_DUTIES = ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1))


def cell_fully_staffed(cell, plan: DeploymentPlan) -> bool:
    """True iff the cell's corners serve the duties of
    :data:`CORNER_DUTIES` in ``plan``."""
    i, j = cell
    for di, dj, k in CORNER_DUTIES:
        a = plan.assignments.get((i + di, j + dj))
        if a is None or (a.down, a.up)[k] is None:
            return False
    return True


def staffed_cells(plan: DeploymentPlan) -> set[tuple[int, int]]:
    """All cells that pass :func:`cell_fully_staffed`."""
    return {cell for cell in plan.grid.cells() if cell_fully_staffed(cell, plan)}


def duty_mask(m: int, n: int, duties: dict) -> list[list[bool]]:
    """The staffed cells of an m x n grid as an (m, n) mask, a list of m
    rows of n bools, from the duties of its (m+1) x (n+1) lattice:
    ``duties`` maps a vertex ``(i, j)`` to its ``(down, up)`` camera ids,
    None for an unfilled duty, and a vertex it leaves out serves neither.
    A cell is staffed by :data:`CORNER_DUTIES`.  A vertex outside
    ``[1, m+1] x [1, n+1]`` raises ``ValueError`` naming it: it would
    otherwise set the flag of another vertex."""
    rows, cols = m + 1, n + 1
    serves = ([False] * (rows * cols), [False] * (rows * cols))
    for (i, j), pair in duties.items():
        if not (0 < i <= rows and 0 < j <= cols):
            raise ValueError(f"vertex ({i}, {j}) is outside the lattice [1, {rows}] x [1, {cols}]")
        for flags, cid in zip(serves, pair):
            if cid is not None:
                flags[(i - 1) * cols + j - 1] = True
    # Row i of the mask pairs, for each corner, the n vertices at its offset.
    starts = [(serves[k], di * cols + dj) for di, dj, k in CORNER_DUTIES]
    return [
        list(map(all, zip(*(flags[i * cols + a : i * cols + a + n] for flags, a in starts)))) for i in range(m)
    ]
