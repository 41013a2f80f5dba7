"""Weighted coverage graph over covered cells and minimum-camera barriers.

Covered cells become nodes; cells sharing an edge or a corner are
connected.  Two virtual nodes stand for the region boundaries: ``s`` on
the left, ``t`` on the right.  Edge weights follow the camera-increment
model: entering the first cell costs 4, a side-adjacent hop 2, a diagonal
hop 3 and reaching ``t`` 0.  Path weights are exact integers.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .grid_deploy import DeploymentPlan, cell_fully_staffed

SOURCE = "s"
SINK = "t"

WEIGHT_SOURCE = 4
WEIGHT_SIDE = 2
WEIGHT_DIAGONAL = 3
WEIGHT_SINK = 0


@dataclass(frozen=True)
class CoverageGraph:
    """Immutable adjacency view of the coverage graph."""

    m: int
    n: int
    cells: frozenset
    adj: dict

    def degree(self, node) -> int:
        return len(self.adj.get(node, {}))

    def edge_kind(self, u, v) -> str:
        if SOURCE in (u, v):
            return "source"
        if SINK in (u, v):
            return "sink"
        di = abs(u[0] - v[0])
        dj = abs(u[1] - v[1])
        return "side" if di + dj == 1 else "diagonal"

    def edges(self):
        """Each undirected edge once, as (u, v, weight, kind)."""
        seen = set()
        for u in sorted(self.adj, key=_sort_key):
            for v, w in sorted(self.adj[u].items(), key=lambda kv: _sort_key(kv[0])):
                key = frozenset((u, v))
                if key in seen:
                    continue
                seen.add(key)
                yield u, v, w, self.edge_kind(u, v)


def _sort_key(node):
    if node == SOURCE:
        return (0, 0, 0)
    if node == SINK:
        return (2, 0, 0)
    return (1, node[0], node[1])


def _validate_cells(covered, m, n):
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be positive, got {m} x {n}")
    cells = set()
    for c in covered:
        i, j = c
        if not (1 <= i <= m and 1 <= j <= n):
            raise ValueError(f"cell out of range for {m} x {n} grid: {c}")
        cells.add((int(i), int(j)))
    return cells


def build_graph(covered, m: int, n: int) -> CoverageGraph:
    """Graph over the covered cells of an m x n grid.

    Column-1 cells connect to ``s`` with weight 4, column-n cells to ``t``
    with weight 0 (both, when n == 1).  Side-adjacent covered cells get
    weight 2, diagonal neighbors weight 3.
    """
    cells = _validate_cells(covered, m, n)
    adj = {SOURCE: {}, SINK: {}}
    for c in cells:
        adj[c] = {}
    for (i, j) in cells:
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                nb = (i + di, j + dj)
                if nb in cells:
                    w = WEIGHT_SIDE if di == 0 or dj == 0 else WEIGHT_DIAGONAL
                    adj[(i, j)][nb] = w
        if j == 1:
            adj[SOURCE][(i, j)] = WEIGHT_SOURCE
            adj[(i, j)][SOURCE] = WEIGHT_SOURCE
        if j == n:
            adj[(i, j)][SINK] = WEIGHT_SINK
            adj[SINK][(i, j)] = WEIGHT_SINK
    return CoverageGraph(m=m, n=n, cells=frozenset(cells), adj=adj)


def prune_degree_one(g: CoverageGraph) -> CoverageGraph:
    """Drop cell nodes that cannot sit on any s-t path.

    Nodes of degree <= 1 are removed repeatedly until none remain; each
    removal can expose new ones, so this iterates to a fixpoint.  The
    virtual nodes are never removed.  Minimum s-t path weight is
    unchanged.
    """
    adj = {u: dict(nbrs) for u, nbrs in g.adj.items()}
    changed = True
    while changed:
        changed = False
        for v in [u for u in adj if u not in (SOURCE, SINK)]:
            if len(adj[v]) <= 1:
                for nb in adj[v]:
                    del adj[nb][v]
                del adj[v]
                changed = True
    cells = frozenset(u for u in adj if u not in (SOURCE, SINK))
    return CoverageGraph(m=g.m, n=g.n, cells=cells, adj=adj)


def barrier_exists(mask) -> bool:
    """True iff the covered cells of the (m, n) boolean ``mask`` hold a
    chain of 8-adjacent cells from column 1 to column n.

    This is exactly when :func:`shortest_barrier` finds an s-t path in
    the graph :func:`build_graph` makes of the same cells, pruned or not:
    ``s`` reaches only column-1 cells and ``t`` only column-n cells.  It is
    answered by one depth-first flood fill from the covered cells of
    column 1, which stops at the first column-n cell it reaches.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or 0 in mask.shape:
        raise ValueError(f"mask must be a non-empty (m, n) array, got shape {mask.shape}")
    m, n = mask.shape
    # A border of uncovered cells, so that no step leaves the grid or wraps.
    w = n + 2
    framed = np.zeros((m + 2, w), dtype=bool)
    framed[1:-1, 1:-1] = mask
    free = framed.ravel().tolist()
    stack = [k for k in range(w + 1, (m + 1) * w, w) if free[k]]
    for k in stack:
        free[k] = False
    steps = (-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1)
    while stack:
        k = stack.pop()
        if k % w == n:
            return True
        for step in steps:
            if free[k + step]:
                free[k + step] = False
                stack.append(k + step)
    return False


@dataclass(frozen=True)
class BarrierResult:
    """A minimum-weight barrier: the cell path (virtual nodes excluded),
    its total weight, and optionally the realized distinct active camera
    count along it."""

    exists: bool
    path: tuple
    total_weight: int | None
    camera_count: int | None = None


def shortest_barrier(g: CoverageGraph) -> BarrierResult:
    """Minimum-weight s-t path via Dijkstra.

    Ties break toward the lexicographically smallest cell sequence by
    (row, col), so outputs are reproducible.  Returns ``exists=False``
    when no path reaches ``t``.
    """
    counter = itertools.count()
    best = {SOURCE: (0, ())}
    heap = [(0, (), next(counter), SOURCE)]
    settled = set()
    while heap:
        dist, path, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == SINK:
            return BarrierResult(exists=True, path=path, total_weight=dist)
        for nb, w in g.adj[node].items():
            if nb in settled:
                continue
            npath = path + ((nb,) if isinstance(nb, tuple) else ())
            cand = (dist + w, npath)
            if nb not in best or cand < best[nb]:
                best[nb] = cand
                heapq.heappush(heap, (cand[0], cand[1], next(counter), nb))
    return BarrierResult(exists=False, path=(), total_weight=None)


def distinct_cameras(result: BarrierResult, plan: DeploymentPlan) -> int:
    """Distinct active cameras serving the path cells.

    A cell is served by the down-facing actives at its two top vertices
    and the up-facing actives at its two bottom vertices; the union over
    the path is the realized head count.  It can exceed the weight model's
    increments on vertical or diagonal hops, where a shared vertex serves
    the two cells with different cameras.  Path cells must be fully
    staffed in ``plan``.
    """
    if not result.exists or not result.path:
        return 0
    ids = set()
    for cell in result.path:
        if not cell_fully_staffed(cell, plan):
            raise ValueError(f"barrier cell {cell} is not fully staffed")
        i, j = cell
        for v in ((i, j), (i, j + 1)):
            ids.add(plan.assignments[v].down)
        for v in ((i + 1, j), (i + 1, j + 1)):
            ids.add(plan.assignments[v].up)
    return len(ids)


def column_counts(covered, m: int, n: int) -> list[int]:
    """Number of covered cells in each column of an m x n grid, columns
    1 to n in order."""
    counts = [0] * n
    for _, j in _validate_cells(covered, m, n):
        counts[j - 1] += 1
    return counts


def k_barrier_count(covered, m: int, n: int) -> int:
    """Barrier multiplicity estimate: the minimum, over columns, of the
    number of covered cells in that column."""
    return min(column_counts(covered, m, n))
