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

from .grid_model import DeploymentPlan, cell_fully_staffed

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


def _rows(mask) -> list[list]:
    """The rows of the (m, n) boolean ``mask`` as lists: a numpy array's
    ``tolist()``, or the mask itself when it is a list of m lists of n
    values, as :func:`~cambarrier.grid_model.duty_mask` gives.  Anything
    else raises ``ValueError``."""
    if hasattr(mask, "tolist"):
        if mask.ndim == 2 and mask.size:
            return mask.tolist()
        got = f"shape {mask.shape}"
    else:
        if type(mask) is list and mask and type(mask[0]) is list and mask[0]:
            n = len(mask[0])
            if all(type(row) is list and len(row) == n and list not in map(type, row) for row in mask):
                return mask
        got = f"a {type(mask).__name__} of other than m lists of n values"
    raise ValueError(f"mask must be a non-empty (m, n) array, got {got}")


def _framed(mask):
    """``(free, m, n)`` of the (m, n) boolean ``mask`` (see :func:`_rows`):
    ``free`` lists the cells of the mask with a border of uncovered cells
    around it, row by row, so that cell (i, j) (1-based) is item
    ``i * (n + 2) + j`` and no step to a neighbour leaves the grid or
    wraps."""
    rows = _rows(mask)
    m, n = len(rows), len(rows[0])
    # The top border and the left border of row 1, then each row followed
    # by its right border and the left border of the next row.
    free = [False] * (n + 3)
    for row in rows:
        free += row
        free += (False, False)
    free += [False] * (n + 1)
    return free, m, n


def barrier_exists(mask, covered=None) -> bool:
    """True iff the covered cells of the (m, n) boolean ``mask`` hold a
    chain of 8-adjacent cells from column 1 to column n.

    This is exactly when :func:`shortest_barrier` finds an s-t path in
    the graph :func:`build_graph` makes of the same cells, pruned or not:
    ``s`` reaches only column-1 cells and ``t`` only column-n cells.  It is
    answered by one depth-first flood fill from the covered cells of
    column 1, which stops at the first column-n cell it reaches.  Steps
    to the right are taken first.

    ``covered``, when given, is a predicate ``covered(i, j)`` on 0-based
    cell indices, and a cell counts as covered only if the mask holds it
    and the predicate confirms it: the answer is that of
    ``barrier_exists(mask & truth)``.  The predicate is asked only about
    mask cells the fill reaches, at most once each, so an expensive test
    runs only where it can change the answer.
    """
    free, m, n = _framed(mask)
    w = n + 2
    stack = [k for k in range(w + 1, (m + 1) * w, w) if free[k]]
    for k in stack:
        free[k] = False
    # Left, then vertical, then right: the last pushed is popped first.
    steps = (-w - 1, -1, w - 1, -w, w, -w + 1, w + 1, 1)
    while stack:
        k = stack.pop()
        if covered is not None:
            i, j = divmod(k, w)
            if not covered(i - 1, j - 1):
                continue
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


def extract_barrier(mask) -> BarrierResult:
    """The barrier :func:`shortest_barrier` finds in the graph
    :func:`build_graph` makes of the covered cells of the (m, n) boolean
    ``mask``, pruned or not: the same path and weight, with no graph.

    Distances to ``t`` come from a bucket queue (Dial's algorithm, four
    buckets in a ring, since a step costs at most 3): column-n cells are
    at 0, a side step costs 2 and a diagonal step 3.  The path starts at
    the column-1 cell nearest ``t``, the smallest row on a tie, and then
    steps to the smallest (row, col) neighbour that stays on a shortest
    path, until it reaches distance 0.  Each choice is the smallest that
    can still end at minimum weight, so the path is the lexicographically
    smallest minimum-weight one; no such path is a prefix of another, as
    every extra step costs at least 2.  The search stops at the first
    distance that holds a column-1 cell: the walk reads only smaller ones.
    """
    free, m, n = _framed(mask)
    w = n + 2
    steps = ((-w - 1, 3), (-w, 2), (-w + 1, 3), (-1, 2), (1, 2), (w - 1, 3), (w, 2), (w + 1, 3))
    # Border and uncovered cells at -1 are never relaxed.
    unreached = 3 * len(free)
    dist = [unreached if f else -1 for f in free]
    buckets = [[k for k in range(w + n, (m + 1) * w, w) if free[k]], [], [], []]
    for k in buckets[0]:
        dist[k] = 0
    d = 0
    while any(buckets):
        level = [k for k in buckets[d % 4] if dist[k] == d]
        buckets[d % 4] = []
        starts = [k for k in level if k % w == 1]
        if starts:
            k = min(starts)
            path = [k]
            while dist[k]:
                k = next(k + s for s, c in steps if free[k + s] and dist[k + s] + c == dist[k])
                path.append(k)
            return BarrierResult(exists=True, path=tuple(divmod(k, w) for k in path), total_weight=WEIGHT_SOURCE + d)
        for k in level:
            for s, c in steps:
                if dist[k + s] > d + c:
                    dist[k + s] = d + c
                    buckets[(d + c) % 4].append(k + s)
        d += 1
    return BarrierResult(exists=False, path=(), total_weight=None)


def duty_slots(path) -> tuple[set, set]:
    """The vertices whose "down" duty and whose "up" duty serve the cells
    of ``path``: each cell's two top and its two bottom vertices.

    In a plan :func:`run_algorithm1` makes, a camera serves one duty at
    one vertex, so a staffed path has as many distinct cameras as slots:
    :func:`distinct_cameras` is ``len(down) + len(up)``."""
    down, up = set(), set()
    for i, j in path:
        down.update(((i, j), (i, j + 1)))
        up.update(((i + 1, j), (i + 1, j + 1)))
    return down, up


def slot_cameras(path, duties) -> int:
    """Distinct camera ids at the :func:`duty_slots` of ``path``: the
    ``down`` ids at its down slots and the ``up`` ids at its up slots,
    where ``duties`` maps each slot's vertex to its ``(down, up)`` ids.  A
    loaded plan may name one camera at two slots, so this can be fewer
    than the slots."""
    down, up = duty_slots(path)
    return len({duties[v][0] for v in down} | {duties[v][1] for v in up})


def distinct_cameras(result: BarrierResult, plan: DeploymentPlan) -> int:
    """Distinct active cameras serving the path cells.

    A cell is served by the down-facing actives at its two top vertices
    and the up-facing actives at its two bottom vertices; the union over
    the path (:func:`slot_cameras`) is the realized head count.  It can
    exceed the weight model's increments on vertical or diagonal hops,
    where a shared vertex serves the two cells with different cameras.
    Path cells must be fully staffed in ``plan``.
    """
    if not result.exists or not result.path:
        return 0
    for cell in result.path:
        if not cell_fully_staffed(cell, plan):
            raise ValueError(f"barrier cell {cell} is not fully staffed")
    return slot_cameras(result.path, {v: (a.down, a.up) for v, a in plan.assignments.items()})


def column_counts(mask) -> list[int]:
    """Number of covered cells in each column of an (m, n) boolean mask,
    columns 1 to n in order."""
    return [sum(column) for column in zip(*_rows(mask))]


def k_barrier_count(covered, m: int, n: int) -> int:
    """Barrier multiplicity estimate: the minimum, over columns, of the
    number of covered cells in that column."""
    counts = [0] * n
    for _, j in _validate_cells(covered, m, n):
        counts[j - 1] += 1
    return min(counts)


# Pieces of the barrier document, indented as `serialize.dumps` indents them.
_BARRIER_DOC = (
    '{\n  "camera_count": %s,\n  "exists": %s,\n  "graph": {\n    "edges": %s,\n    "m": %d,\n    "n": %d,\n'
    '    "nodes": [\n      "s",\n%s      "t"\n    ]\n  },\n  "path": %s,\n  "total_weight": %s\n}\n'
)
_NODE = "      [\n        %d,\n        %d\n      ],\n"
_PATH_CELL = "    [\n      %d,\n      %d\n    ]"
_CELL_EDGE = (
    '      {\n        "kind": "%s",\n        "u": [\n          %d,\n          %d\n        ],\n'
    '        "v": [\n          %d,\n          %d\n        ],\n        "weight": %d\n      }'
)
_SOURCE_EDGE = (
    '      {\n        "kind": "source",\n        "u": "s",\n'
    '        "v": [\n          %d,\n          %d\n        ],\n        "weight": %d\n      }'
)
_SINK_EDGE = (
    '      {\n        "kind": "sink",\n        "u": [\n          %d,\n          %d\n        ],\n'
    '        "v": "t",\n        "weight": %d\n      }'
)


def _null_or_int(value) -> str:
    return "null" if value is None else "%d" % value


def barrier_json(result: BarrierResult, mask) -> str:
    """The ``barrier`` command's JSON: the text
    :func:`~cambarrier.serialize.dumps` writes of a dict holding
    ``result``'s ``exists``, ``path`` (a list of ``[i, j]`` cells),
    ``total_weight`` and ``camera_count``, and ``"graph"`` set to
    :func:`~cambarrier.serialize.graph_to_dict` of the graph
    :func:`build_graph` makes of the covered cells of the (m, n) boolean
    ``mask`` (the dict ``tests/helpers.barrier_to_dict`` builds, with its
    graph).  It is written from the mask with no graph and no dict tree.

    Edges come in the order :meth:`CoverageGraph.edges` gives: the ``s``
    edges, then per cell in row-major order its edges to (i, j+1),
    (i+1, j-1), (i+1, j) and (i+1, j+1), then to ``t`` when j == n."""
    free, m, n = _framed(mask)
    w = n + 2
    forward = (
        (1, "side", WEIGHT_SIDE),
        (w - 1, "diagonal", WEIGHT_DIAGONAL),
        (w, "side", WEIGHT_SIDE),
        (w + 1, "diagonal", WEIGHT_DIAGONAL),
    )
    edges = [_SOURCE_EDGE % (i, 1, WEIGHT_SOURCE) for i in range(1, m + 1) if free[i * w + 1]]
    nodes = []
    for k in [k for k, f in enumerate(free) if f]:
        i, j = divmod(k, w)
        nodes.append(_NODE % (i, j))
        for step, kind, weight in forward:
            if free[k + step]:
                edges.append(_CELL_EDGE % ((kind, i, j) + divmod(k + step, w) + (weight,)))
        if j == n:
            edges.append(_SINK_EDGE % (i, j, WEIGHT_SINK))
    path = [_PATH_CELL % cell for cell in result.path]
    return _BARRIER_DOC % (
        _null_or_int(result.camera_count),
        "true" if result.exists else "false",
        "[\n" + ",\n".join(edges) + "\n    ]" if edges else "[]",
        m,
        n,
        "".join(nodes),
        "[\n" + ",\n".join(path) + "\n  ]" if path else "[]",
        _null_or_int(result.total_weight),
    )
