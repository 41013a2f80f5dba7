"""Independent reference implementations used as test oracles.

These deliberately avoid the library's vectorized kernel, graph search
and JSON writer so they can cross-check them: plain-math full-view
evaluation, exhaustive s-t path enumeration and the standard library's
JSON encoder.
"""

import json
import math

from cambarrier.barrier_graph import SINK, SOURCE

TAU = 2.0 * math.pi
EPS = 1e-9


def ref_covers(camera, p):
    dx = p.x - camera.position.x
    dy = p.y - camera.position.y
    d = math.sqrt(dx * dx + dy * dy)
    if d <= EPS:
        return True
    if d >= camera.params.r + EPS:
        return False
    diff = abs(math.fmod(math.atan2(dy, dx) - camera.facing, TAU))
    diff = min(diff, TAU - diff)
    return diff < camera.params.phi / 2.0 + EPS


def ref_gaps(bearings):
    ordered = sorted(b % TAU for b in bearings)
    if len(ordered) == 1:
        return [TAU]
    gaps = [ordered[k + 1] - ordered[k] for k in range(len(ordered) - 1)]
    gaps.append(ordered[0] + TAU - ordered[-1])
    return gaps


def ref_full_view_point(p, cameras, theta, axis=0.0):
    bearings = []
    for cam in cameras:
        if not ref_covers(cam, p):
            continue
        dx = cam.position.x - p.x
        dy = cam.position.y - p.y
        if math.sqrt(dx * dx + dy * dy) <= EPS:
            continue
        bearings.append(math.atan2(dy, dx) % TAU)
    if not bearings:
        return False
    if axis is not None:
        bearings.append(axis % TAU)
        bearings.append((axis + math.pi) % TAU)
    return max(ref_gaps(bearings)) <= 2.0 * theta + EPS


def boundary_margin(p, cameras):
    """Smallest distance of the scene from any covers() decision boundary.

    Used by randomized equivalence tests to skip configurations where a
    single float ulp could legitimately flip the verdict.
    """
    margin = math.inf
    for cam in cameras:
        dx = p.x - cam.position.x
        dy = p.y - cam.position.y
        d = math.sqrt(dx * dx + dy * dy)
        margin = min(margin, abs(d - cam.params.r), d)
        if d > 0:
            diff = abs(math.fmod(math.atan2(dy, dx) - cam.facing, TAU))
            diff = min(diff, TAU - diff)
            margin = min(margin, abs(diff - cam.params.phi / 2.0))
    return margin


def brute_force_min_weight(g):
    """Minimum s-t path weight by exhaustive simple-path enumeration."""
    best = [None]

    def dfs(node, dist, visited):
        if best[0] is not None and dist > best[0]:
            return
        if node == SINK:
            best[0] = dist if best[0] is None else min(best[0], dist)
            return
        for nb, w in g.adj[node].items():
            if nb == SOURCE or nb in visited:
                continue
            dfs(nb, dist + w, visited | {nb})

    dfs(SOURCE, 0, frozenset())
    return best[0]


def brute_force_lex_best_path(g):
    """All minimum-weight s-t paths, lexicographically smallest first."""
    paths = []

    def dfs(node, dist, path, visited):
        if node == SINK:
            paths.append((dist, tuple(path)))
            return
        for nb, w in g.adj[node].items():
            if nb == SOURCE or nb in visited:
                continue
            dfs(nb, dist + w, path + ([nb] if nb != SINK else []), visited | {nb})

    dfs(SOURCE, 0, [], frozenset())
    if not paths:
        return None
    best = min(d for d, _ in paths)
    return min(p for d, p in paths if d == best)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def ref_dumps(obj):
    """The JSON text ``serialize.dumps`` must write: a copy of ``obj``
    with every float rounded to 9 significant digits, through
    ``json.dumps`` with a two-space indent and sorted keys."""
    return json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n"
