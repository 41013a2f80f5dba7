import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cambarrier.geometry import (
    CULL_MARGIN,
    EPS,
    TAU,
    CameraCull,
    CameraParams,
    CameraPose,
    Point2D,
    Segment,
    _full_view_mask,
    _mod_tau,
    _wrap_negative,
    bearing_between,
    circular_gaps,
    covers,
    full_view_covered_point,
    full_view_covered_segment,
    max_angular_gap,
    midpoint_shortcut_covered,
    normalize_bearing,
    normalize_bearings,
)
from cambarrier.line_model import place_line_deployment

from helpers import boundary_margin, ref_covers, ref_full_view_point

NORTH = math.pi / 2
DEG = math.pi / 180.0


def cam(x, y, facing, r=1.0, phi=math.pi / 3, theta=math.pi / 4, cid=0):
    return CameraPose(cid, Point2D(x, y), facing, CameraParams(r=r, phi=phi, theta=theta))


class TestTypes:
    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point2D(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Point2D(0.0, float("inf"))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CameraParams(r=0.0, phi=1.0, theta=0.5)
        with pytest.raises(ValueError):
            CameraParams(r=1.0, phi=0.0, theta=0.5)
        with pytest.raises(ValueError):
            CameraParams(r=1.0, phi=1.0, theta=math.pi)

    def test_comm_range_is_twice_radius(self):
        assert CameraParams(r=7.5, phi=1.0, theta=0.5).comm_range == 15.0

    def test_pose_normalizes_facing(self):
        assert cam(0, 0, -math.pi / 2).facing == pytest.approx(1.5 * math.pi)

    def test_segment_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Segment(Point2D(1, 2), Point2D(1, 2))

    def test_normalize_bearing_range(self):
        for a in (-10.0, -1e-18, 0.0, 1.0, TAU, TAU + 0.5, 100.0):
            b = normalize_bearing(a)
            assert 0.0 <= b < TAU

    def test_bearing_between_wraps(self):
        assert bearing_between(350 * DEG, 10 * DEG) == pytest.approx(20 * DEG)


class TestCovers:
    def test_on_axis_inside_radius(self):
        assert covers(cam(0, 0, NORTH), Point2D(0, 0.5))

    def test_outside_radius(self):
        assert not covers(cam(0, 0, NORTH), Point2D(0, 1.5))

    def test_off_axis_angle(self):
        # 45 degrees off a 60-degree field of view
        assert not covers(cam(0, 0, NORTH), Point2D(0.5, 0.5))

    def test_coincident_point_is_covered(self):
        assert covers(cam(2, 3, 0.1), Point2D(2, 3))

    def test_boundary_gets_epsilon_slack(self):
        # exactly on the circle counts, clearly beyond it does not
        assert covers(cam(0, 0, NORTH, r=1.0), Point2D(0, 1.0))
        assert not covers(cam(0, 0, NORTH, r=1.0), Point2D(0, 1.0 + 1e-6))
        # same for the angular edge: the half-FoV ray itself is in
        edge = cam(0, 0, NORTH, phi=math.pi / 2)
        on_ray = Point2D(math.sin(math.pi / 4) * 0.5, math.cos(math.pi / 4) * 0.5)
        assert covers(edge, on_ray)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            cx, cy, px, py = rng.uniform(-10, 10, 4)
            facing = rng.uniform(0, TAU)
            r = rng.uniform(0.1, 5.0)
            phi = rng.uniform(0.1, TAU)
            c = cam(cx, cy, facing, r=r, phi=phi)
            p = Point2D(px, py)
            tx, ty = rng.uniform(-20, 20, 2)
            rot = rng.uniform(0, TAU)
            cosr, sinr = math.cos(rot), math.sin(rot)

            def move(x, y):
                return (x * cosr - y * sinr + tx, x * sinr + y * cosr + ty)

            c2 = cam(*move(cx, cy), facing + rot, r=r, phi=phi)
            p2 = Point2D(*move(px, py))
            assert covers(c, p) == covers(c2, p2)


class TestMaxAngularGap:
    def test_symmetric_square(self):
        assert max_angular_gap([0, 90 * DEG, 180 * DEG, 270 * DEG]) == pytest.approx(90 * DEG)

    def test_single_bearing_full_circle(self):
        assert max_angular_gap([0.0]) == pytest.approx(TAU)

    def test_wraparound(self):
        assert max_angular_gap([350 * DEG, 10 * DEG]) == pytest.approx(340 * DEG)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no bearings"):
            max_angular_gap([])

    @given(st.lists(st.floats(0, TAU - 1e-12), min_size=1, max_size=24))
    def test_gaps_sum_to_full_circle(self, bearings):
        gaps = circular_gaps(bearings)
        assert sum(gaps) == pytest.approx(TAU, abs=1e-9)
        g = max_angular_gap(bearings)
        assert 0.0 < g <= TAU + 1e-12
        assert g >= TAU / len(bearings) - 1e-12


class TestFullViewPoint:
    def test_four_compass_cameras(self):
        p = Point2D(0, 0)
        cams = [
            cam(0, 0.5, 1.5 * math.pi, cid=0),
            cam(0.5, 0, math.pi, cid=1),
            cam(0, -0.5, NORTH, cid=2),
            cam(-0.5, 0, 0.0, cid=3),
        ]
        assert full_view_covered_point(p, cams, math.pi / 4)

    def test_three_bearings_with_hole(self):
        p = Point2D(0, 0)
        cams = [
            cam(0.5, 0, math.pi, cid=0),
            cam(0, 0.5, 1.5 * math.pi, cid=1),
            cam(-0.5, 0, 0.0, cid=2),
        ]
        # bearings 0, 90, 180: the southern half is a 180-degree hole
        assert not full_view_covered_point(p, cams, math.pi / 4)

    def test_no_covering_camera(self):
        assert not full_view_covered_point(Point2D(0, 0), [cam(10, 10, 0.0)], math.pi / 4)

    def test_coincident_camera_contributes_no_bearing(self):
        assert not full_view_covered_point(Point2D(1, 1), [cam(1, 1, 0.0)], math.pi / 4)

    def test_axis_exemption_pins_behavior(self):
        # One camera north, one south, nothing east or west: passes only
        # because the crossing-line directions are exempt.
        p = Point2D(0, 0)
        cams = [cam(0, 0.5, 1.5 * math.pi, cid=0), cam(0, -0.5, NORTH, cid=1)]
        assert full_view_covered_point(p, cams, math.pi / 4, axis=0.0)
        assert not full_view_covered_point(p, cams, math.pi / 4, axis=None)
        # rotating the exempt axis to north/south removes the help
        assert not full_view_covered_point(p, cams, math.pi / 4, axis=NORTH)

    def test_monotone_in_theta_and_cameras(self):
        rng = np.random.default_rng(11)
        p = Point2D(0, 0)
        for _ in range(300):
            k = rng.integers(1, 7)
            cams = [
                cam(*rng.uniform(-2, 2, 2), rng.uniform(0, TAU), r=rng.uniform(0.5, 4), phi=rng.uniform(0.5, TAU), cid=i)
                for i in range(k)
            ]
            t1, t2 = sorted(rng.uniform(0.05, math.pi / 2, 2))
            if full_view_covered_point(p, cams, t1):
                assert full_view_covered_point(p, cams, t2)
            extra = cams + [cam(*rng.uniform(-2, 2, 2), rng.uniform(0, TAU), r=3.0, phi=TAU, cid=99)]
            if full_view_covered_point(p, cams, t1):
                assert full_view_covered_point(p, extra, t1)

    def test_scaling_toward_point_preserves_coverage(self):
        p = Point2D(3, -2)
        rng = np.random.default_rng(13)
        theta = math.pi / 4
        for _ in range(100):
            k = int(rng.integers(4, 9))
            bearings = np.sort(rng.uniform(0, TAU, k))
            if max(np.diff(bearings, append=bearings[0] + TAU)) > 2 * theta:
                continue
            for c in (1.0, 0.7, 0.2):
                cams = []
                for i, b in enumerate(bearings):
                    d = 0.8 * c
                    pos = Point2D(p.x + d * math.cos(b), p.y + d * math.sin(b))
                    cams.append(CameraPose(i, pos, normalize_bearing(b + math.pi), CameraParams(1.0, math.pi / 2, theta)))
                assert full_view_covered_point(p, cams, theta, axis=None)

    def test_theta_out_of_range_raises(self):
        with pytest.raises(ValueError):
            full_view_covered_point(Point2D(0, 0), [], 0.0)
        with pytest.raises(ValueError):
            full_view_covered_point(Point2D(0, 0), [], 2.0)


@st.composite
def scenes(draw):
    k = draw(st.integers(0, 6))
    coord = st.floats(-8, 8)
    cams = []
    for i in range(k):
        cams.append(
            CameraPose(
                i,
                Point2D(draw(coord), draw(coord)),
                draw(st.floats(0, TAU - 1e-9)),
                CameraParams(
                    r=draw(st.floats(0.2, 10.0)),
                    phi=draw(st.floats(0.2, TAU)),
                    theta=math.pi / 4,
                ),
            )
        )
    p = Point2D(draw(coord), draw(coord))
    theta = draw(st.floats(0.05, math.pi / 2))
    axis = draw(st.sampled_from([None, 0.0, 1.2345]))
    return p, cams, theta, axis


class TestVectorizedAgreement:
    @settings(max_examples=150, deadline=None)
    @given(scenes())
    def test_library_matches_plain_math_reference(self, scene):
        p, cams, theta, axis = scene
        assume(boundary_margin(p, cams) > 1e-6)
        assert full_view_covered_point(p, cams, theta, axis=axis) == ref_full_view_point(
            p, cams, theta, axis=axis
        )

    @settings(max_examples=60, deadline=None)
    @given(scenes())
    def test_segment_equals_pointwise_conjunction(self, scene):
        _, cams, theta, axis = scene
        seg = Segment(Point2D(-3, 0.5), Point2D(3, -0.5))
        samples = 13
        t = np.linspace(0, 1, samples)
        pts = [Point2D(seg.a.x + u * (seg.b.x - seg.a.x), seg.a.y + u * (seg.b.y - seg.a.y)) for u in t]
        assume(all(boundary_margin(q, cams) > 1e-6 for q in pts))
        expected = all(ref_full_view_point(q, cams, theta, axis=axis) for q in pts)
        assert full_view_covered_segment(seg, cams, theta, samples=samples, axis=axis) == expected


class TestRowDropping:
    def test_in_range_but_out_of_sector_or_colocated_gives_all_false(self):
        xs = np.linspace(0.0, 1.0, 11)
        ys = np.zeros(11)
        cams = [
            cam(0.5, 2.0, NORTH, r=5.0, phi=math.pi / 2, cid=0),  # above, looking away
            cam(0.0, 0.0, math.pi, r=5.0, phi=math.pi / 3, cid=1),  # on sample 0, looking left
            cam(1.0, 0.0, 0.0, r=5.0, phi=math.pi / 3, cid=2),  # on the last sample, looking right
        ]
        assert all(math.hypot(x - c.position.x, c.position.y) < c.params.r for c in cams for x in xs)
        for axis in (0.0, None):
            mask = _full_view_mask(xs, ys, CameraCull.of(cams), math.pi / 2, axis)
            assert mask.shape == (11,) and not mask.any()
            assert not any(ref_full_view_point(Point2D(x, 0.0), cams, math.pi / 2, axis=axis) for x in xs)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def awkward_angles():
    """Signed zeros, multiples of pi and their float neighbours,
    subnormals, and random values over several turns."""
    base = [0.0, math.pi, TAU, 2 * TAU, 3 * TAU, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-17, 7.0]
    near = [np.nextafter(v, w) for v in base for w in (-np.inf, np.inf)]
    values = np.array(base + near + [-v for v in base + near])
    rng = np.random.default_rng(5)
    return np.concatenate([values, rng.uniform(-4 * TAU, 4 * TAU, 4000), rng.uniform(-1e-12, 1e-12, 200)])


class TestAngleWraps:
    def test_mod_tau_is_np_mod_bit_for_bit(self):
        v = awkward_angles()
        assert np.array_equal(bits(_mod_tau(v)), bits(np.mod(v, TAU)))
        grid = v[:3000].reshape(30, 100)  # the kernel's 2-D shape
        assert np.array_equal(bits(_mod_tau(grid)), bits(np.mod(grid, TAU)))

    def test_wrap_negative_is_np_mod_on_arctan2_results(self):
        v = awkward_angles()
        v = v[np.abs(v) <= math.pi]
        rng = np.random.default_rng(6)
        dy, dx = rng.normal(size=(2, 20, 200))
        signed = np.array([0.0, -0.0, 1.0, -1.0])
        atan = np.concatenate(
            [v, np.arctan2(dy, dx).ravel(), np.arctan2(signed[:, None], signed[None, :]).ravel()]
        )
        assert {-math.pi, math.pi, 0.0} <= set(atan.tolist())
        assert np.array_equal(bits(_wrap_negative(atan)), bits(np.mod(atan, TAU)))

    def test_normalize_bearings_matches_the_scalar_rule(self):
        v = np.concatenate([awkward_angles(), [TAU, np.nextafter(TAU, 0.0), -1e-300, -5e-324]])
        expected = [normalize_bearing(a) for a in v.tolist()]
        assert np.array_equal(bits(normalize_bearings(v)), bits(expected))
        assert normalize_bearings(np.array([TAU]))[0] == 0.0
        assert bits(normalize_bearings(np.array([-0.0])))[0] == bits([normalize_bearing(-0.0)])[0]

    def test_view_of_poses_holds_their_normalized_facings(self):
        cams = [cam(float(k), 0.0, f, cid=k) for k, f in enumerate((TAU, -1e-300, 7.0, -0.5))]
        view = CameraCull.of(cams)
        assert np.array_equal(bits(view.facing), bits(normalize_bearings([TAU, -1e-300, 7.0, -0.5])))
        assert CameraCull.of(view) is view


class TestBatchIndependence:
    def test_each_point_alone_matches_the_batch(self):
        rng = np.random.default_rng(19)
        outcomes = set()
        for _ in range(60):
            k = int(rng.integers(0, 30))
            cams = [
                cam(
                    float(rng.uniform(-3, 3)),
                    float(rng.uniform(-3, 3)),
                    float(rng.uniform(0, TAU)),
                    r=float(rng.choice([1.0, 2.5, 4.0])),
                    phi=float(rng.choice([math.pi / 2, math.pi, TAU])),
                    cid=j,
                )
                for j in range(k)
            ]
            view = CameraCull.of(cams)
            npts = int(rng.integers(1, 40))
            xs, ys = rng.uniform(-2, 2, npts), rng.uniform(-2, 2, npts)
            if cams and rng.random() < 0.3:  # a point on a camera
                xs[0], ys[0] = cams[0].position.x, cams[0].position.y
            theta = float(rng.choice([math.pi / 4, math.pi / 3, math.pi / 2]))
            for axis in (0.0, None):
                batch = _full_view_mask(xs, ys, view, theta, axis)
                alone = [_full_view_mask(xs[p : p + 1], ys[p : p + 1], view, theta, axis)[0] for p in range(npts)]
                assert batch.tolist() == alone
                outcomes.update(alone)
        assert outcomes == {True, False}


def camera_rows(view):
    """One (x, y, r, half, facing) tuple per camera of a CameraCull."""
    return list(zip(*(a.tolist() for a in (view.x, view.y, view.r, view.half, view.facing))))


class TestCameraCull:
    SEG = Segment(Point2D(2.0, 3.0), Point2D(4.0, 3.0))

    def boundary_cameras(self, radii):
        """Cameras within 1e-10 of the cull box edge and of each radius's
        r + EPS range boundary, all facing the segment."""
        reach = max(radii) + CULL_MARGIN
        out = []
        for r in radii:
            for off in (-1e-10, 0.0, 1e-10):
                for x, face in ((4.0 + reach + off, math.pi), (2.0 - reach - off, 0.0)):
                    out.append((x, 3.0, face, r))
                for y, face in ((3.0 + reach + off, 1.5 * math.pi), (3.0 - reach - off, NORTH)):
                    out.append((3.0, y, face, r))
                for dist in (r, r + EPS):
                    out.append((4.0 + dist + off, 3.0, math.pi, r))
                    out.append((3.0, 3.0 - dist - off, NORTH, r))
        return [cam(x, y, f, r=r, phi=math.pi, cid=k) for k, (x, y, f, r) in enumerate(out)]

    def test_keeps_every_camera_that_covers_a_sample(self):
        cams = self.boundary_cameras((1.0, 2.5))
        everyone = CameraCull.of(cams)
        kept = everyone.near(self.SEG)
        rows, kept_rows = camera_rows(everyone), camera_rows(kept)
        assert rows == [(c.position.x, c.position.y, c.params.r, c.params.phi / 2, c.facing) for c in cams]
        remaining = iter(rows)
        assert all(row in remaining for row in kept_rows)  # input order
        samples = [Point2D(x, 3.0) for x in np.linspace(2.0, 4.0, 101)]
        reaching = [row for c, row in zip(cams, rows) if any(ref_covers(c, q) for q in samples)]
        assert reaching and set(reaching) <= set(kept_rows)
        assert len(kept) < len(cams)

    def test_culled_verdict_matches_all_cameras(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(150):
            cams = [
                cam(
                    float(rng.uniform(-2.0, 8.0)),
                    float(rng.uniform(-1.0, 7.0)),
                    float(rng.uniform(0.0, TAU)),
                    r=float(rng.choice([1.0, 2.0, 3.0])),
                    phi=float(rng.choice([math.pi, TAU])),
                    cid=k,
                )
                for k in range(int(rng.integers(0, 40)))
            ]
            cams += self.boundary_cameras((1.0, 3.0))
            kept = CameraCull.of(cams).near(self.SEG)
            for theta in (math.pi / 4, math.pi / 2):
                verdict = full_view_covered_segment(self.SEG, cams, theta, samples=21)
                assert full_view_covered_segment(self.SEG, kept, theta, samples=21) == verdict
                outcomes.add(verdict)
        assert outcomes == {True, False}

    def test_no_cameras(self):
        assert len(CameraCull.of([]).near(self.SEG)) == 0


class TestSegment:
    def test_empty_cameras_false(self):
        seg = Segment(Point2D(0, 0), Point2D(1, 0))
        assert not full_view_covered_segment(seg, [], math.pi / 4)

    def test_samples_validation(self):
        seg = Segment(Point2D(0, 0), Point2D(1, 0))
        with pytest.raises(ValueError):
            full_view_covered_segment(seg, [], math.pi / 4, samples=1)

    def test_canonical_subline_passes_and_halved_radius_fails(self):
        r = 5.0
        barrier = Segment(Point2D(0, 0), Point2D(100, 0))
        dep = place_line_deployment(barrier, r)
        sub = Segment(Point2D(0, 0), Point2D(dep.params.delta, 0))
        assert full_view_covered_segment(sub, list(dep.cameras), math.pi / 4, samples=101)
        # cross-check every sample against the plain-math reference
        for u in np.linspace(0, 1, 101):
            q = Point2D(u * dep.params.delta, 0.0)
            assert ref_full_view_point(q, dep.cameras, math.pi / 4)
        halved = [
            CameraPose(c.id, c.position, c.facing, CameraParams(c.params.r / 2, c.params.phi, c.params.theta))
            for c in dep.cameras
        ]
        assert not full_view_covered_segment(sub, halved, math.pi / 4, samples=101)


class TestMidpointShortcut:
    def test_canonical_sublines_pass(self):
        dep = place_line_deployment(Segment(Point2D(0, 0), Point2D(100, 0)), 5.0)
        delta = dep.params.delta
        for k in range(5):
            sub = Segment(Point2D(k * delta, 0), Point2D((k + 1) * delta, 0))
            assert midpoint_shortcut_covered(sub, list(dep.cameras), math.pi / 4)
            # agreement with the sampling check under canonical geometry
            assert full_view_covered_segment(sub, list(dep.cameras), math.pi / 4, samples=1001)

    def test_empty_cameras_false(self):
        assert not midpoint_shortcut_covered(Segment(Point2D(0, 0), Point2D(1, 0)), [], math.pi / 4)

    def test_single_camera_above_midpoint_false(self):
        seg = Segment(Point2D(0, 0), Point2D(2, 0))
        lone = cam(1.0, 0.5, 1.5 * math.pi, r=2.0, phi=math.pi)
        assert not midpoint_shortcut_covered(seg, [lone], math.pi / 4)
