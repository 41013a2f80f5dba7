import math

import numpy as np
import pytest

from cambarrier.barrier_graph import (
    SINK,
    SOURCE,
    barrier_exists,
    build_graph,
    column_counts,
    distinct_cameras,
    duty_slots,
    extract_barrier,
    k_barrier_count,
    prune_degree_one,
    shortest_barrier,
)
from cambarrier.geometry import CameraParams, CameraPose, Point2D
from cambarrier.grid_deploy import run_algorithm1
from cambarrier.grid_model import grid_length_bound, staffed_cells

from helpers import brute_force_lex_best_path, brute_force_min_weight

PARAMS = CameraParams(r=5.0, phi=2 * math.pi / 3, theta=math.pi / 4)


def random_covered(rng, m, n, p=0.55):
    return {(i, j) for i in range(1, m + 1) for j in range(1, n + 1) if rng.random() < p}


class TestBuildGraph:
    def test_two_by_two_all_covered(self):
        g = build_graph({(1, 1), (1, 2), (2, 1), (2, 2)}, 2, 2)
        assert len(g.cells) == 4
        assert g.adj[SOURCE] == {(1, 1): 4, (2, 1): 4}
        assert g.adj[SINK] == {(1, 2): 0, (2, 2): 0}
        edges = list(g.edges())
        kinds = {}
        for _, _, w, kind in edges:
            kinds.setdefault(kind, []).append(w)
        assert sorted(kinds["source"]) == [4, 4]
        assert sorted(kinds["sink"]) == [0, 0]
        assert sorted(kinds["side"]) == [2, 2, 2, 2]
        assert sorted(kinds["diagonal"]) == [3, 3]

    def test_single_cell_single_column_hits_both_virtuals(self):
        g = build_graph({(1, 1)}, 1, 1)
        assert g.adj[(1, 1)] == {SOURCE: 4, SINK: 0}

    def test_empty_coverage(self):
        g = build_graph(set(), 3, 3)
        assert g.cells == frozenset()
        assert g.adj[SOURCE] == {} and g.adj[SINK] == {}

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph({(4, 1)}, 3, 3)

    def test_an_empty_grid_is_rejected(self):
        with pytest.raises(ValueError, match=r"^grid dimensions must be positive, got 0 x 3$"):
            build_graph(set(), 0, 3)


class TestPrune:
    def test_chain_off_the_path_collapses(self):
        # (1,1) touches s; (1,2) dead-ends (n=3, nothing reaches column 3)
        g = build_graph({(1, 1), (1, 2)}, 1, 3)
        pruned = prune_degree_one(g)
        assert pruned.cells == frozenset()

    def test_graph_on_a_path_unchanged(self):
        g = build_graph({(1, 1), (1, 2), (1, 3)}, 1, 3)
        pruned = prune_degree_one(g)
        assert pruned.cells == g.cells
        assert pruned.adj == g.adj

    def test_empty_graph_unchanged(self):
        g = build_graph(set(), 2, 2)
        assert prune_degree_one(g).cells == frozenset()

    def test_prune_preserves_min_weight(self):
        rng = np.random.default_rng(17)
        for _ in range(120)         :
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            g = build_graph(random_covered(rng, m, n), m, n)
            before = shortest_barrier(g)
            after = shortest_barrier(prune_degree_one(g))
            assert before.exists == after.exists
            if before.exists:
                assert before.total_weight == after.total_weight


class TestShortestBarrier:
    def test_two_by_two_lexicographic_tie_break(self):
        g = build_graph({(1, 1), (1, 2), (2, 1), (2, 2)}, 2, 2)
        res = shortest_barrier(g)
        assert res.exists
        assert res.total_weight == 6
        assert res.path == ((1, 1), (1, 2))

    def test_single_cell_weight_four(self):
        res = shortest_barrier(build_graph({(1, 1)}, 1, 1))
        assert res.exists and res.total_weight == 4 and res.path == ((1, 1),)

    def test_no_final_column_no_barrier(self):
        res = shortest_barrier(build_graph({(1, 1), (2, 1)}, 2, 2))
        assert not res.exists
        assert res.path == () and res.total_weight is None

    def test_weight_is_four_plus_hops(self):
        g = build_graph({(1, 1), (1, 2), (1, 3)}, 1, 3)
        res = shortest_barrier(g)
        assert res.total_weight == 4 + 2 + 2

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            g = build_graph(random_covered(rng, m, n), m, n)
            expected = brute_force_min_weight(g)
            res = shortest_barrier(g)
            if expected is None:
                assert not res.exists
            else:
                assert res.exists and res.total_weight == expected

    def test_lexicographic_path_matches_enumeration(self):
        rng = np.random.default_rng(29)
        for _ in range(80):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            g = build_graph(random_covered(rng, m, n, p=0.7), m, n)
            expected = brute_force_lex_best_path(g)
            res = shortest_barrier(g)
            if expected is None:
                assert not res.exists
            else:
                assert res.path == expected

    def test_adding_cells_never_increases_weight(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            m, n = 3, 4
            covered = random_covered(rng, m, n)
            g1 = shortest_barrier(build_graph(covered, m, n))
            empty = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1) if (i, j) not in covered]
            if not empty:
                continue
            extra = empty[int(rng.integers(0, len(empty)))]
            g2 = shortest_barrier(build_graph(covered | {extra}, m, n))
            if g1.exists:
                assert g2.exists and g2.total_weight <= g1.total_weight

    def test_path_cells_are_pairwise_adjacent(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            res = shortest_barrier(build_graph(random_covered(rng, m, n, p=0.65), m, n))
            if not res.exists:
                continue
            assert res.path[0][1] == 1 and res.path[-1][1] == n
            for a, b in zip(res.path, res.path[1:]):
                assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1


def as_mask(covered, m, n):
    mask = np.zeros((m, n), dtype=bool)
    for i, j in covered:
        mask[i - 1, j - 1] = True
    return mask


class TestBarrierExists:
    def test_matches_search_and_brute_force_on_random_masks(self):
        rng = np.random.default_rng(53)
        seen = set()
        for _ in range(600):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            covered = random_covered(rng, m, n, p=float(rng.uniform(0.3, 0.8)))
            g = build_graph(covered, m, n)
            got = barrier_exists(as_mask(covered, m, n))
            assert got == shortest_barrier(prune_degree_one(g)).exists
            if m * n <= 12:
                assert got == (brute_force_min_weight(g) is not None)
            seen.add((got, min(m, n) == 1))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("flip", [False, True])
    def test_path_that_turns_back_left(self, flip):
        # The only crossing steps down-left, left, down-left again; flipped
        # upside down, it steps up-left instead.
        rows = ["1111000", "0000100", "0011000", "0100000", "0011111"]
        mask = np.array([[ch == "1" for ch in row] for row in rows])
        if flip:
            mask = mask[::-1]
        assert barrier_exists(mask)
        mask[2, 2] = False
        assert not barrier_exists(mask)

    @pytest.mark.parametrize(
        "mask, expected",
        [
            ([[True]], True),
            ([[False]], False),
            ([[False], [True], [False]], True),  # n = 1: any covered cell
            ([[True, True, False, True]], False),  # m = 1: one gap cuts it
            ([[True, True, True, True]], True),
            ([[True, False], [False, True]], True),  # a diagonal step
        ],
    )
    def test_small_grids(self, mask, expected):
        assert barrier_exists(np.array(mask)) is expected

    @pytest.mark.parametrize("mask", [np.zeros(3, dtype=bool), np.zeros((0, 2), dtype=bool)])
    def test_rejects_masks_that_are_not_a_grid(self, mask):
        with pytest.raises(ValueError, match="mask"):
            barrier_exists(mask)


class TestBarrierExistsOnDemand:
    """``barrier_exists(mask, covered)`` against the fill on the
    confirmed cells alone, ``barrier_exists(mask & truth)``."""

    def test_matches_the_fill_on_confirmed_cells(self):
        rng = np.random.default_rng(59)
        seen = set()
        for _ in range(2500):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            mask = rng.random((m, n)) < rng.uniform(0.3, 1.0)
            truth = rng.random((m, n)) < rng.uniform(0.3, 1.0)
            asked = []

            def covered(i, j):
                assert 0 <= i < m and 0 <= j < n
                asked.append((i, j))
                return bool(truth[i, j])

            got = barrier_exists(mask, covered)
            assert got == barrier_exists(mask & truth)
            assert all(mask[c] for c in asked)
            assert len(asked) == len(set(asked))
            seen.add((got, m == 1, n == 1))
        assert {(True, True, False), (False, True, False), (True, False, True), (False, False, True)} <= seen
        assert {(True, False, False), (False, False, False)} <= seen

    def test_dropped_cell_is_not_a_step(self):
        # The only crossing runs through the middle of the top row; when the
        # predicate rejects that cell, the fill must not step over it.
        mask = np.array([[True, True, True], [True, False, True]])
        assert barrier_exists(mask, lambda i, j: (i, j) != (0, 1)) is False
        assert barrier_exists(mask, lambda i, j: True) is True

    def test_steps_straight_right_first(self):
        # From the top-left cell both the cell to the right and the one
        # below it are open; the fill asks about the one to the right first
        # and is done before it needs the other.
        mask = np.array([[True, True, True], [False, True, False]])
        asked = []

        def covered(i, j):
            asked.append((i, j))
            return True

        assert barrier_exists(mask, covered)
        assert asked == [(0, 0), (0, 1), (0, 2)]

    def test_full_grid_confirms_one_cell_per_column(self):
        # Steps to the right are taken first, so a fully covered grid is
        # crossed along one row with no detour.
        for m, n in ((1, 1), (1, 6), (5, 1), (4, 7)):
            asked = []

            def covered(i, j):
                asked.append((i, j))
                return True

            assert barrier_exists(np.ones((m, n), dtype=bool), covered)
            assert sorted(j for _, j in asked) == list(range(n))


def object_barrier(mask):
    m, n = mask.shape
    covered = {(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(mask))}
    return shortest_barrier(prune_degree_one(build_graph(covered, m, n)))


class TestExtractBarrier:
    def test_matches_the_graph_search_on_random_masks(self):
        rng = np.random.default_rng(61)
        seen = {"found": 0, "none": 0, "1 x n": 0, "m x 1": 0, "empty": 0, "full": 0}
        for t in range(10_000):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            if t % 50 == 0:
                mask = np.full((m, n), t % 100 == 0)
            else:
                mask = rng.random((m, n)) < rng.uniform(0.2, 0.95)
            got = extract_barrier(mask)
            assert got == object_barrier(mask)
            seen["found" if got.exists else "none"] += 1
            seen["1 x n"] += m == 1
            seen["m x 1"] += n == 1
            seen["empty"] += not mask.any()
            seen["full"] += mask.all()
        assert min(seen.values()) >= 100, seen

    def test_ties_between_equal_weights_go_to_the_smallest_cells(self):
        # Every cell covered: each row is a path of the same weight, and
        # row 1 is the smallest.
        assert extract_barrier(np.ones((3, 4), dtype=bool)).path == ((1, 1), (1, 2), (1, 3), (1, 4))
        # From (2, 1), over (1, 2) or over (3, 2), both of weight 10.
        mask = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        res = extract_barrier(mask)
        assert res.path == ((2, 1), (1, 2), (2, 3)) and res.total_weight == 4 + 3 + 3
        assert res == object_barrier(mask)

    def test_a_path_that_turns_back_takes_the_up_left_step(self):
        # From (5, 5), (4, 4) and (4, 5) both stay on a shortest path: the
        # diagonal to the smaller column wins over the vertical step.
        mask = np.array(
            [
                [1, 0, 1, 1, 1, 0],
                [1, 0, 0, 1, 0, 1],
                [1, 0, 0, 1, 0, 0],
                [0, 0, 1, 1, 1, 0],
                [0, 0, 0, 0, 1, 0],
                [1, 1, 1, 1, 0, 0],
            ],
            dtype=bool,
        )
        res = extract_barrier(mask)
        assert res.path == ((6, 1), (6, 2), (6, 3), (6, 4), (5, 5), (4, 4), (3, 4), (2, 4), (1, 5), (2, 6))
        assert res == object_barrier(mask)

    def test_smallest_start_row_among_nearest_column_one_cells(self):
        # (1, 1) reaches t only by a detour; (3, 1) goes straight across.
        mask = np.array([[1, 0, 0], [0, 0, 0], [1, 1, 1]], dtype=bool)
        assert extract_barrier(mask).path == ((3, 1), (3, 2), (3, 3))
        mask[1, :] = True
        assert extract_barrier(mask).path == ((2, 1), (2, 2), (2, 3))

    @pytest.mark.parametrize(
        "mask, path, weight",
        [
            ([[1]], ((1, 1),), 4),
            ([[0]], (), None),
            ([[0], [1], [1]], ((2, 1),), 4),
            ([[1, 1, 1, 1]], ((1, 1), (1, 2), (1, 3), (1, 4)), 10),
            ([[1, 1, 0, 1]], (), None),
            ([[1, 0], [0, 1]], ((1, 1), (2, 2)), 7),
        ],
    )
    def test_small_grids(self, mask, path, weight):
        res = extract_barrier(np.array(mask, dtype=bool))
        assert (res.exists, res.path, res.total_weight, res.camera_count) == (bool(path), path, weight, None)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(67)
        found = 0
        for _ in range(300):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            covered = random_covered(rng, m, n, p=float(rng.uniform(0.4, 0.9)))
            g = build_graph(covered, m, n)
            res = extract_barrier(as_mask(covered, m, n))
            weight = brute_force_min_weight(g)
            assert res.total_weight == weight
            if m * n <= 9:
                assert res.path == (brute_force_lex_best_path(g) or ())
            found += res.exists
        assert found > 50

    @pytest.mark.parametrize("mask", [[1, 0], [[[1]]], np.zeros((0, 3))])
    def test_rejects_masks_that_are_not_a_grid(self, mask):
        with pytest.raises(ValueError, match="mask"):
            extract_barrier(mask)


class TestDutySlots:
    def test_slots_of_one_cell_and_of_a_diagonal_step(self):
        assert duty_slots([(1, 1)]) == ({(1, 1), (1, 2)}, {(2, 1), (2, 2)})
        down, up = duty_slots([(1, 1), (2, 2)])
        assert down == {(1, 1), (1, 2), (2, 2), (2, 3)}
        assert up == {(2, 1), (2, 2), (3, 2), (3, 3)}

    def test_slot_count_is_the_distinct_camera_count_of_relocated_plans(self):
        rng = np.random.default_rng(71)
        d = grid_length_bound(5.0)
        barriers = 0
        for _ in range(500):
            width, height = float(rng.uniform(0.5, 5) * d), float(rng.uniform(0.5, 5) * d)
            count = int(rng.integers(0, 60))
            cams = [
                CameraPose(k, Point2D(float(rng.uniform(0, width)), float(rng.uniform(0, height))), 0.0, PARAMS)
                for k in range(count)
            ]
            plan = run_algorithm1(width, height, cams, d)
            res = shortest_barrier(build_graph(staffed_cells(plan), plan.grid.m, plan.grid.n))
            down, up = duty_slots(res.path)
            assert len(down) + len(up) == distinct_cameras(res, plan)
            barriers += res.exists
        assert barriers > 100


class TestDistinctCameras:
    def _plan(self, width, height, count, d):
        rng = np.random.default_rng(41)
        cams = [
            CameraPose(i, Point2D(float(rng.uniform(0, width)), float(rng.uniform(0, height))), 0.0, PARAMS)
            for i in range(count)
        ]
        return run_algorithm1(width, height, cams, d)

    def test_single_cell_barrier_counts_four(self):
        d = grid_length_bound(5.0)
        cams = [CameraPose(k, Point2D(0.4 + 0.1 * k, 0.4), 0.0, PARAMS) for k in range(4)]
        plan = run_algorithm1(d, d, cams, d)
        res = shortest_barrier(build_graph({(1, 1)}, 1, 1))
        assert distinct_cameras(res, plan) == 4

    def test_two_adjacent_cells_in_one_row_count_six(self):
        d = grid_length_bound(5.0)
        # four cameras per cell so the deal staffs every lattice vertex;
        # the two cells share a vertex column, so 6 distinct actives serve
        cams = [CameraPose(k, Point2D(0.4 + 0.1 * k, 0.4), 0.0, PARAMS) for k in range(4)]
        cams += [CameraPose(4 + k, Point2D(d + 0.4 + 0.1 * k, 0.4), 0.0, PARAMS) for k in range(4)]
        plan = run_algorithm1(2 * d, d, cams, d)
        assert plan.grid.m == 1 and plan.grid.n == 2
        res = shortest_barrier(build_graph({(1, 1), (1, 2)}, 1, 2))
        assert res.path == ((1, 1), (1, 2))
        assert distinct_cameras(res, plan) == 6

    def test_missing_result_counts_zero(self):
        d = grid_length_bound(5.0)
        plan = self._plan(d, d, 0, d)
        res = shortest_barrier(build_graph(set(), 1, 1))
        assert distinct_cameras(res, plan) == 0

    def test_unstaffed_path_cell_is_an_error(self):
        d = grid_length_bound(5.0)
        plan = self._plan(d, d, 1, d)
        res = shortest_barrier(build_graph({(1, 1)}, 1, 1))
        with pytest.raises(ValueError, match="not fully staffed"):
            distinct_cameras(res, plan)


class TestKBarrier:
    def test_stated_rule(self):
        covered = {(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 3), (3, 3)}
        assert k_barrier_count(covered, 3, 3) == 2

    def test_empty_column_gives_zero(self):
        assert k_barrier_count({(1, 1), (2, 1)}, 2, 2) == 0

    def test_an_empty_grid_is_rejected(self):
        with pytest.raises(ValueError, match=r"^grid dimensions must be positive, got 2 x 0$"):
            k_barrier_count(set(), 2, 0)

    def test_full_grid_gives_row_count(self):
        m, n = 4, 3
        covered = {(i, j) for i in range(1, m + 1) for j in range(1, n + 1)}
        assert k_barrier_count(covered, m, n) == m

    def test_matches_independent_column_minimum(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            mat = rng.random((m, n)) < 0.5
            covered = {(i + 1, j + 1) for i in range(m) for j in range(n) if mat[i, j]}
            assert column_counts(mat) == mat.sum(axis=0).tolist()
            assert k_barrier_count(covered, m, n) == int(mat.sum(axis=0).min())

    def test_positive_k_implies_nonempty_columns_and_barrier_on_connected_sets(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            covered = random_covered(rng, m, n)
            k = k_barrier_count(covered, m, n)
            if k >= 1:
                assert all(any((i, j) in covered for i in range(1, m + 1)) for j in range(1, n + 1))
            res = shortest_barrier(build_graph(covered, m, n))
            if res.exists:
                assert k >= 0  # existence does not demand k >= 1 (columns may pinch)
