import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambarrier.geometry import EPS, CameraParams, CameraPose, Point2D
from cambarrier.grid_deploy import (
    CameraOutsideRegionError,
    _staffed,
    assign_orientations,
    assign_to_vertices,
    camera_positions,
    cell_counts,
    cell_full_view_verified,
    elect_grid_heads,
    partition,
    run_algorithm1,
    staffed_mask,
)
from cambarrier.grid_model import (
    MAX_CELLS,
    VertexAssignment,
    cell_fully_staffed,
    duty_mask,
    grid_length_bound,
    grid_shape,
    staffed_cells,
)
from cambarrier.line_model import optimal_params

PARAMS = CameraParams(r=5.0, phi=2 * math.pi / 3, theta=math.pi / 4)


def cam(cid, x, y, params=PARAMS):
    return CameraPose(cid, Point2D(x, y), 0.0, params)


def random_cameras(rng, count, width, height, params=PARAMS):
    return [
        cam(i, float(rng.uniform(0, width)), float(rng.uniform(0, height)), params)
        for i in range(count)
    ]


class TestGridLengthBound:
    def test_closed_form(self):
        assert grid_length_bound(5.0) == pytest.approx(4.4721360, abs=1e-6)
        assert grid_length_bound(math.sqrt(5)) == pytest.approx(2.0, abs=1e-9)

    def test_scale_invariant_ratio(self):
        for r in (0.3, 1.0, 8.0, 42.0):
            assert grid_length_bound(r) / r == pytest.approx(2 / math.sqrt(5), abs=1e-12)


class TestPartition:
    def test_two_by_two_binning(self):
        grid = partition(10, 10, 5, [cam(1, 1, 1), cam(2, 6, 6)])
        assert (grid.m, grid.n) == (2, 2)
        assert grid.cell_members == {(1, 1): (1,), (2, 2): (2,)}

    def test_ceiling_dimensions(self):
        grid = partition(10, 10, 4, [])
        assert (grid.m, grid.n) == (3, 3)

    def test_boundary_point_goes_to_smaller_indices(self):
        grid = partition(10, 10, 5, [cam(0, 5, 5)])
        assert grid.cell_members == {(1, 1): (0,)}

    def test_region_corner_points(self):
        grid = partition(10, 10, 5, [cam(0, 0, 0), cam(1, 10, 10)])
        assert grid.cell_members == {(1, 1): (0,), (2, 2): (1,)}

    def test_outside_camera_error_lists_ids(self):
        with pytest.raises(CameraOutsideRegionError) as exc:
            partition(10, 10, 5, [cam(3, 11, 5), cam(1, 5, -2), cam(2, 5, 5)])
        assert exc.value.ids == (1, 3)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            partition(10, 10, 5, [cam(1, 1, 1), cam(1, 2, 2)])

    def test_float_noise_in_dimensions(self):
        grid = partition(1.0, 1.0, 0.1, [])
        assert (grid.m, grid.n) == (10, 10)

    def test_cameras_just_past_the_far_edges_bin_into_the_last_cells(self):
        grid = partition(0.4, 0.4, 0.1, [cam(0, 0.05, 0.4 + 5e-10), cam(1, 0.4 + 5e-10, 0.05)])
        assert (grid.m, grid.n) == (4, 4)
        assert grid.cell_members == {(4, 1): (0,), (1, 4): (1,)}


class TestGridShape:
    def test_ceiling_with_slack(self):
        assert grid_shape(10, 10, 4) == (3, 3)
        assert grid_shape(1.0, 1.0, 0.1) == (10, 10)
        assert grid_shape(0.5, 3.0, 1.0) == (3, 1)

    def test_cell_limit(self):
        assert grid_shape(500, 500, 1) == (500, 500) and 500 * 500 == MAX_CELLS
        with pytest.raises(ValueError, match="exceeds"):
            grid_shape(501, 500, 1)
        with pytest.raises(ValueError, match="exceeds"):
            grid_shape(1e5, 1e5, 1)
        with pytest.raises(ValueError, match="exceeds"):
            grid_shape(1e300, 1.0, 1e-300)  # width / d overflows to inf
        with pytest.raises(ValueError, match=rf"^a 32 x 32 region in cells of side 1e-300 exceeds {MAX_CELLS} cells$"):
            grid_shape(32, 32, 1e-300)  # finite, but 3.2e301 rows
        with pytest.raises(ValueError, match=rf"^a 1e\+300 x 32.0 region in cells of side 4.0 exceeds {MAX_CELLS} cells$"):
            grid_shape(1e300, 32.0, 4.0)  # width first, as every command takes it

    @pytest.mark.parametrize(
        "width, height, d",
        [
            (0, 1, 1),
            (1, -1, 1),
            (1, 1, 0),
            (math.inf, 1, 1),
            (1, math.nan, 1),
            (1, 1, math.nan),
            # An int too large for a float is refused, not overflowed.
            pytest.param(10**400, 1, 1, id="10**400-1-1"),
            pytest.param(1, 10**400, 1, id="1-10**400-1"),
            pytest.param(1, 1, 10**400, id="1-1-10**400"),
        ],
    )
    def test_rejects_non_positive_and_non_finite_lengths(self, width, height, d):
        # An int of more than 12 digits is named to 3 significant digits.
        w, h, side = ("1.00e+400" if v == 10**400 else v for v in (width, height, d))
        expected = re.escape(f"width, height and d must be positive and finite, got {w}, {h}, {side}")
        with pytest.raises(ValueError, match=f"^{expected}$"):
            grid_shape(width, height, d)

    @pytest.mark.parametrize(
        "lengths, named",
        [
            ((10**400, 1.0, 1.0), "got 1.00e+400, 1.0, 1.0"),
            ((1.0, -(10**309), 1.0), "got 1.0, -1.00e+309, 1.0"),
            ((10**300, 1.0, 1.0), "a 1.00e+300 x 1.0 region in cells of side 1.0 exceeds"),
            ((1.0, 1.0, 1 / 10**300), "a 1.0 x 1.0 region in cells of side 1e-300 exceeds"),
            ((999_999_999_999, 1, 1), "a 999999999999 x 1 region in cells of side 1 exceeds"),
            ((10**12, 1, 1), "a 1.00e+12 x 1 region in cells of side 1 exceeds"),
        ],
    )
    def test_names_a_huge_int_length_to_three_digits(self, lengths, named):
        with pytest.raises(ValueError) as info:
            grid_shape(*lengths)
        assert named in str(info.value) and len(str(info.value)) < 100

    def test_run_algorithm1_applies_it(self):
        with pytest.raises(ValueError, match="^width, height and d must be positive and finite"):
            run_algorithm1(10**400, 10.0, [cam(0, 1, 1)], 2.0)

    def test_partition_applies_it(self):
        with pytest.raises(ValueError, match="exceeds"):
            partition(1e5, 1e5, 1.0, [cam(0, 1, 1)])


def staffed_from_counts(width, height, cams, d):
    xs, ys = camera_positions(width, height, cams)
    return staffed_mask(cell_counts(xs, ys, d, grid_shape(width, height, d)))


def staffed_from_plan(width, height, cams, d):
    plan = run_algorithm1(width, height, cams, d)
    mask = np.zeros((plan.grid.m, plan.grid.n), dtype=bool)
    for i, j in staffed_cells(plan):
        mask[i - 1, j - 1] = True
    return mask


def duty_mask_of(plan):
    """The mask the plan commands compute: :func:`duty_mask` of the duties
    of ``plan``'s assignments."""
    return duty_mask(plan.grid.m, plan.grid.n, {v: (a.down, a.up) for v, a in plan.assignments.items()})


class TestStaffedMask:
    def test_matches_relocation_on_random_deployments(self):
        rng = np.random.default_rng(59)
        d = grid_length_bound(5.0)
        staffed = cells = 0
        for _ in range(150):
            width, height = float(rng.uniform(0.5, 6) * d), float(rng.uniform(0.5, 6) * d)
            m, n = grid_shape(width, height, d)
            cams = random_cameras(rng, int(rng.integers(0, 10 * m * n)), width, height)
            got = staffed_from_counts(width, height, cams, d)
            assert got.shape == (m, n)
            assert (got == staffed_from_plan(width, height, cams, d)).all()
            staffed += int(got.sum())
            cells += m * n
        assert 0 < staffed < cells

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (4, 1), (2, 3)])
    def test_matches_relocation_on_edges_corners_and_just_outside(self, m, n):
        # Lattice points, edge midpoints, the far edges exactly and within
        # EPS beyond every edge, each up to twice.
        d = 5.0
        width, height = n * d, m * d
        xs = sorted({k * d / 2 for k in range(2 * n + 1)} | {-EPS / 2, width + EPS / 2})
        ys = sorted({k * d / 2 for k in range(2 * m + 1)} | {-EPS / 2, height + EPS / 2})
        rng = np.random.default_rng(61 + 10 * m + n)
        outcomes = set()
        for _ in range(40):
            p = rng.uniform(0.05, 0.5)
            cams = []
            for x in xs:
                for y in ys:
                    for _ in range(int(rng.binomial(2, p))):
                        cams.append(cam(len(cams), x, y))
            rng.shuffle(cams)
            got = staffed_from_counts(width, height, cams, d)
            assert (got == staffed_from_plan(width, height, cams, d)).all()
            outcomes.add(bool(got.any()))
        assert outcomes == {True, False}

    def test_plan_mask_matches_staffed_cells(self):
        rng = np.random.default_rng(79)
        d = grid_length_bound(5.0)
        staffed = 0
        for _ in range(150):
            width, height = float(rng.uniform(0.5, 6) * d), float(rng.uniform(0.5, 6) * d)
            m, n = grid_shape(width, height, d)
            cams = random_cameras(rng, int(rng.integers(0, 10 * m * n)), width, height)
            got = np.array(duty_mask_of(run_algorithm1(width, height, cams, d)))
            assert got.shape == (m, n)
            assert (got == staffed_from_plan(width, height, cams, d)).all()
            staffed += int(got.sum())
        assert staffed > 0

    def test_plan_mask_reads_only_the_duties_a_cell_needs(self):
        # One cell staffed by four cameras; a "down" duty on the bottom row
        # and an "up" duty on the top row, as a loaded plan may hold them,
        # staff nothing more.
        d = grid_length_bound(5.0)
        plan = run_algorithm1(2 * d, d, [cam(k, 0.4 + 0.1 * k, 0.4) for k in range(4)], d)
        assert duty_mask_of(plan) == [[True, False]]
        extra = {
            (1, 3): VertexAssignment((1, 3), (9,), None, 9, ()),
            (2, 3): VertexAssignment((2, 3), (8,), 8, None, ()),
        }
        odd = replace(plan, assignments={**plan.assignments, **extra})
        assert duty_mask_of(odd) == [[True, False]]
        assert staffed_cells(odd) == {(1, 1)}

    CORNERS = {(1, 1): (1, None), (1, 2): (2, None), (2, 1): (None, 3)}

    @pytest.mark.parametrize("vertex", [(1, 4), (0, 1), (-1, 2), (1, 0), (3, 1), (2, 3)])
    def test_a_vertex_outside_the_lattice_is_named(self, vertex):
        # (1, 4) of a 1 x 1 grid used to land on vertex (2, 2) and staff
        # the cell; (0, 1) and negative indices wrapped to the list's end.
        with pytest.raises(ValueError, match=re.escape(f"vertex {vertex} is outside the lattice [1, 2] x [1, 2]")):
            duty_mask(1, 1, {**self.CORNERS, vertex: (None, 4)})

    def test_every_lattice_vertex_is_accepted(self):
        assert duty_mask(1, 1, {**self.CORNERS, (2, 2): (None, 4)}) == [[True]]
        assert duty_mask(1, 1, self.CORNERS) == [[False]]

    def test_no_cameras_staff_nothing(self):
        for m, n in ((1, 1), (3, 2)):
            assert not staffed_from_counts(5.0 * n, 5.0 * m, [], 5.0).any()
            assert not staffed_mask(np.zeros((m, n), dtype=int)).any()

    def test_counts_from_the_derivation(self):
        # One cell: four cameras staff it, three leave bottom-right empty.
        assert staffed_mask([[4]]).tolist() == [[True]]
        assert staffed_mask([[3]]).tolist() == [[False]]
        # Two stacked cells: the shared middle vertices must serve up
        # (2 cameras) for the top cell and down (1) for the bottom cell.
        assert staffed_mask([[4], [4]]).tolist() == [[True], [True]]
        assert staffed_mask([[4], [0]]).tolist() == [[False], [False]]
        assert staffed_mask([[6], [4]]).tolist() == [[True], [True]]

    def test_a_stack_of_grids_gives_the_stack_of_their_masks(self):
        rng = np.random.default_rng(83)
        for shape in ((5, 1, 1), (3, 1, 4), (4, 3, 1), (6, 3, 5), (2, 2, 3, 2)):
            counts = rng.integers(0, 9, shape)
            got = staffed_mask(counts)
            assert got.shape == shape and got.dtype == bool
            for index in np.ndindex(shape[:-2]):
                assert np.array_equal(got[index], staffed_mask(counts[index]))

    def test_counts_of_a_batch_of_trials_are_each_trials_counts(self):
        rng = np.random.default_rng(89)
        d, (m, n) = 5.0, (3, 4)
        sizes = [0, 7, 0, 20, 1, 0]
        xs = [rng.uniform(0.0, n * d, k) for k in sizes]
        ys = [rng.uniform(0.0, m * d, k) for k in sizes]
        trial = np.repeat(np.arange(len(sizes)), sizes)
        got = cell_counts(np.concatenate(xs), np.concatenate(ys), d, (len(sizes), m, n), trial)
        assert got.shape == (len(sizes), m, n)
        for t in range(len(sizes)):
            assert np.array_equal(got[t], cell_counts(xs[t], ys[t], d, (m, n)))

    @pytest.mark.parametrize(
        "counts", [[1, 2], [[-1]], np.zeros((0, 3)), np.zeros((2, 0, 3)), np.zeros((0, 2, 3)), [[[1]], [[-1]]], 4]
    )
    def test_rejects_bad_counts(self, counts):
        with pytest.raises(ValueError, match="counts"):
            staffed_mask(counts)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_the_plan_path_and_the_array_path_staff_the_same_cells(self, data):
        # The same duties, as the plan commands read them and as the
        # (T, m, n) numpy path reads them, give the same masks.
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        ids = st.none() | st.integers(0, 40)
        vertex = st.tuples(st.integers(1, m + 1), st.integers(1, n + 1))
        stack = data.draw(st.lists(st.dictionaries(vertex, st.tuples(ids, ids)), min_size=1, max_size=4))
        down = np.zeros((len(stack), m + 1, n + 1), dtype=bool)
        up = np.zeros_like(down)
        for t, duties in enumerate(stack):
            for (i, j), (d, u) in duties.items():
                down[t, i - 1, j - 1], up[t, i - 1, j - 1] = d is not None, u is not None
        assert _staffed(down, up).tolist() == [duty_mask(m, n, duties) for duties in stack]

    def test_positions_raise_what_partition_raises(self):
        for cams in ([cam(3, 11, 5), cam(1, 5, -2)], [cam(1, 1, 1), cam(1, 2, 2)]):
            with pytest.raises(ValueError) as from_partition:
                partition(10, 10, 5, cams)
            with pytest.raises(ValueError) as from_positions:
                camera_positions(10, 10, cams)
            assert type(from_positions.value) is type(from_partition.value)
            assert str(from_positions.value) == str(from_partition.value)


class TestHeads:
    def test_smallest_id_heads_cell(self):
        grid = partition(10, 10, 10, [cam(7, 1, 1), cam(3, 2, 2), cam(9, 3, 3)])
        assert elect_grid_heads(grid) == {(1, 1): 3}

    def test_empty_grid_no_heads(self):
        assert elect_grid_heads(partition(10, 10, 5, [])) == {}

    def test_singletons_head_themselves(self):
        grid = partition(10, 10, 5, [cam(4, 1, 1), cam(6, 8, 8)])
        assert elect_grid_heads(grid) == {(1, 1): 4, (2, 2): 6}


class TestVertexDeal:
    def test_exact_division(self):
        out = assign_to_vertices((1, 1), list(range(8)), None)
        assert all(len(ids) == 2 for ids in out.values())

    def test_remainder_feeds_earlier_vertices(self):
        out = assign_to_vertices((2, 3), [10, 11, 12, 13, 14], None)
        assert out[(2, 3)] == (10, 14)  # left-top
        assert out[(2, 4)] == (11,)  # right-top
        assert out[(3, 3)] == (12,)  # left-bottom
        assert out[(3, 4)] == (13,)  # right-bottom

    def test_empty_cell(self):
        out = assign_to_vertices((1, 1), [], None)
        assert all(ids == () for ids in out.values())

    def test_ids_sorted_before_dealing(self):
        out = assign_to_vertices((1, 1), [9, 1, 5], None)
        assert out[(1, 1)] == (1,)
        assert out[(1, 2)] == (5,)
        assert out[(2, 1)] == (9,)


class TestOrientations:
    def grid(self, m=3, n=3, d=5.0):
        return partition(n * d, m * d, d, [])

    def test_interior_vertex_smallest_down_next_up(self):
        out = assign_orientations(self.grid(), {(2, 2): [4, 8, 2]})
        a = out[(2, 2)]
        assert a.down == 2 and a.up == 4 and a.silent == (8,)

    def test_row_one_single_down(self):
        out = assign_orientations(self.grid(), {(1, 2): [5, 3]})
        a = out[(1, 2)]
        assert a.down == 3 and a.up is None and a.silent == (5,)

    def test_last_row_single_up(self):
        out = assign_orientations(self.grid(m=3), {(4, 1): [6, 2]})
        a = out[(4, 1)]
        assert a.up == 2 and a.down is None and a.silent == (6,)

    def test_interior_lone_camera_faces_down(self):
        out = assign_orientations(self.grid(), {(2, 2): [7]})
        a = out[(2, 2)]
        assert a.down == 7 and a.up is None and a.silent == ()


class TestAlgorithm1:
    def test_single_cell_four_cameras_hand_trace(self):
        d = grid_length_bound(5.0)
        cams = [cam(k, 0.5 + 0.1 * k, 0.7) for k in range(4)]
        plan = run_algorithm1(d, d, cams, d)
        assert plan.assignments[(1, 1)].down == 0
        assert plan.assignments[(1, 2)].down == 1
        assert plan.assignments[(2, 1)].up == 2
        assert plan.assignments[(2, 2)].up == 3
        assert cell_fully_staffed((1, 1), plan)
        assert plan.deficits == ()
        assert plan.d_within_bound

    def test_single_cell_three_cameras_deficit(self):
        d = grid_length_bound(5.0)
        plan = run_algorithm1(d, d, [cam(k, 0.5, 0.5 + 0.1 * k) for k in range(3)], d)
        assert (2, 2) not in plan.assignments
        assert plan.deficits == (((2, 2), "up"),)
        assert not cell_fully_staffed((1, 1), plan)

    def test_no_cameras_every_slot_deficient(self):
        plan = run_algorithm1(10, 10, [], 5.0)
        assert plan.records == {}
        # 3x3 lattice: 3 down slots in row 1, 3 up in row 3, 3+3 interior
        assert len(plan.deficits) == 3 + 3 + 6
        assert staffed_cells(plan) == set()

    def test_conservation_and_own_cell_targets(self):
        rng = np.random.default_rng(5)
        cams = random_cameras(rng, 120, 30, 30)
        d = grid_length_bound(5.0)
        plan = run_algorithm1(30, 30, cams, d)
        assert len(plan.records) == 120
        stationed = [cid for a in plan.assignments.values() for cid in a.stationed]
        assert sorted(stationed) == list(range(120))
        for cid, rec in plan.records.items():
            origin_cell = None
            for cell, ids in plan.grid.cell_members.items():
                if cid in ids:
                    origin_cell = cell
            i, j = origin_cell
            assert rec.vertex in {(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)}
            assert rec.distance <= d * math.sqrt(2) + 1e-9
            vpos = plan.grid.vertex_position(*rec.vertex)
            assert rec.distance == pytest.approx(rec.origin.distance_to(vpos))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        cams = random_cameras(rng, 60, 25, 25)
        d = grid_length_bound(5.0)
        plan = run_algorithm1(25, 25, cams, d)
        shuffled = list(cams)
        rng.shuffle(shuffled)
        assert run_algorithm1(25, 25, shuffled, d) == plan

    def test_orientation_row_rules(self):
        rng = np.random.default_rng(8)
        cams = random_cameras(rng, 200, 40, 40)
        d = grid_length_bound(5.0)
        plan = run_algorithm1(40, 40, cams, d)
        m = plan.grid.m
        for v, a in plan.assignments.items():
            i, _ = v
            if i == 1:
                assert a.up is None and a.down is not None
            elif i == m + 1:
                assert a.down is None and a.up is not None
            else:
                assert a.down is not None
                if len(a.stationed) >= 2:
                    assert a.up is not None
            active = {a.down, a.up} - {None}
            assert active <= set(a.stationed)
            assert set(a.silent) == set(a.stationed) - active

    def test_bound_flag_cleared_when_d_too_large(self):
        d = grid_length_bound(5.0)
        plan = run_algorithm1(10, 10, [cam(0, 1, 1)], d * 1.5)
        assert not plan.d_within_bound


class TestCellVerification:
    def test_staffed_cell_at_bound_verifies(self):
        d = grid_length_bound(5.0)
        cams = [cam(k, 0.5 + 0.1 * k, 0.7) for k in range(4)]
        plan = run_algorithm1(d, d, cams, d)
        assert cell_full_view_verified((1, 1), plan, math.pi / 4, samples=101)

    def test_oversized_cell_fails_verification(self):
        d = grid_length_bound(5.0) * 1.2
        cams = [cam(k, 0.5 + 0.1 * k, 0.7) for k in range(4)]
        plan = run_algorithm1(d, d, cams, d)
        assert cell_fully_staffed((1, 1), plan)
        assert not cell_full_view_verified((1, 1), plan, math.pi / 4, samples=101)

    def test_unstaffed_cell_fails(self):
        d = grid_length_bound(5.0)
        plan = run_algorithm1(d, d, [cam(0, 0.5, 0.5)], d)
        assert not cell_full_view_verified((1, 1), plan, math.pi / 4, samples=101)

    def test_staffed_implies_verified_randomized(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(20):
            r = float(rng.uniform(3, 10))
            params = CameraParams(r=r, phi=2 * math.pi / 3, theta=math.pi / 4)
            d = grid_length_bound(r)
            count = int(rng.integers(0, 300))
            cams = random_cameras(rng, count, 50, 50, params)
            plan = run_algorithm1(50, 50, cams, d)
            for cell in staffed_cells(plan):
                checked += 1
                assert cell_full_view_verified(cell, plan, math.pi / 4, samples=101), (cell, r, count)
        assert checked > 50


class TestActivePoses:
    def test_active_cameras_use_swing_fov_and_vertex_positions(self):
        d = grid_length_bound(5.0)
        cams = [cam(k, 0.5 + 0.1 * k, 0.7) for k in range(4)]
        plan = run_algorithm1(d, d, cams, d)
        actives = plan.active_cameras
        assert len(actives) == 4
        alpha = optimal_params(5.0).alpha
        for a in actives:
            assert a.params.phi == pytest.approx(alpha)
            assert a.params.r == 5.0
        facings = {a.id: a.facing for a in actives}
        assert facings[0] == pytest.approx(math.pi / 2)  # top row faces down the screen
        assert facings[2] == pytest.approx(1.5 * math.pi)
