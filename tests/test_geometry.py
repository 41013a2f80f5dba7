import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cambarrier.full_view as full_view_module
from cambarrier.full_view import (
    CULL_ANGLE,
    CULL_LINE,
    CULL_MARGIN,
    CULL_SCALE,
    Cameras,
    _full_view_chunk,
    _full_view_mask,
    _in_range,
    _mod_tau,
    _wrap_negative,
    full_view_covered_point,
    full_view_covered_segment,
    normalize_bearings,
    sample_fractions,
    segment_points,
)
from cambarrier.geometry import (
    EPS,
    TAU,
    CameraParams,
    CameraPose,
    Point2D,
    Segment,
    check_integer,
    check_positive,
    check_real,
    normalize_bearing,
    size_text,
)
from cambarrier.line_model import place_line_deployment
from cambarrier.simulate import ScenarioConfig, coverage_probability_sweep

from helpers import boundary_margin, ref_covers, ref_full_view_chunk, ref_full_view_point

NORTH = math.pi / 2


def cam(x, y, facing, r=1.0, phi=math.pi / 3, theta=math.pi / 4, cid=0):
    return CameraPose(cid, Point2D(x, y), facing, CameraParams(r=r, phi=phi, theta=theta))


class TestTypes:
    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point2D(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Point2D(0.0, float("inf"))

    @pytest.mark.parametrize(
        "x, y, named",
        [(10**400, 0.0, "(1.00e+400, 0.0)"), (0.0, -(10**309), "(0.0, -1.00e+309)"), (1, 2**1024, "(1, 1.80e+308)")],
    )
    def test_point_rejects_an_int_no_float_holds(self, x, y, named):
        with pytest.raises(ValueError) as info:
            Point2D(x, y)
        assert str(info.value) == f"coordinates must be finite, got {named}"

    def test_point_keeps_the_largest_floats_and_ints(self):
        big = int(sys.float_info.max)
        assert Point2D(big, -big) == Point2D(big, -big)
        assert Point2D(sys.float_info.max, -sys.float_info.max).x == sys.float_info.max

    def test_size_text_names_a_huge_int_inside_a_list_or_dict(self):
        assert size_text([10**400, 1]) == "[1.00e+400, 1]"
        assert size_text({"a": [-(10**13), "x", True, 1.5, None]}) == "{'a': [-1.00e+13, 'x', True, 1.5, None]}"
        assert size_text("x", repr) == "'x'" and size_text("x") == "x" and size_text(10**12 - 1) == "999999999999"
        deep = [1]
        for _ in range(600):  # deeper than the walk follows: written as repr writes it
            deep = [deep]
        assert size_text(deep) == repr(deep)

    @pytest.mark.parametrize(
        "facing, message",
        [
            (math.nan, "facing must be finite, got nan"),
            (math.inf, "facing must be finite, got inf"),
            (-math.inf, "facing must be finite, got -inf"),
            (10**400, "facing must be finite, got 1.00e+400"),
            (True, "facing must be a number, got True"),
            ("0", "facing must be a number, got '0'"),
        ],
        ids=["nan", "inf", "-inf", "10**400", "True", "str"],
    )
    def test_pose_rejects_a_facing_that_is_not_a_finite_number(self, facing, message):
        params = CameraParams(r=1.0, phi=1.0, theta=0.5)
        with pytest.raises(ValueError) as info:
            CameraPose(0, Point2D(0, 0), facing, params)
        assert str(info.value) == message
        assert CameraPose(0, Point2D(0, 0), int(sys.float_info.max), params).facing < TAU

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CameraParams(r=0.0, phi=1.0, theta=0.5)
        with pytest.raises(ValueError):
            CameraParams(r=1.0, phi=0.0, theta=0.5)
        with pytest.raises(ValueError):
            CameraParams(r=1.0, phi=1.0, theta=math.pi)

    @pytest.mark.parametrize("r", [math.inf, math.nan, 10**400, -(10**400)])
    def test_params_reject_a_radius_no_float_holds(self, r):
        with pytest.raises(ValueError, match="sensing radius must be positive and finite"):
            CameraParams(r=r, phi=1.0, theta=0.5)

    @pytest.mark.parametrize(
        "field, name", [("r", "sensing radius"), ("phi", "field of view"), ("theta", "effective angle")]
    )
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", None, [1.0]], ids=repr)
    def test_params_reject_a_value_that_is_not_a_number(self, field, name, value):
        fields = {"r": 1.0, "phi": 1.0, "theta": 0.5, field: value}
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {re.escape(repr(value))}$"):
            CameraParams(**fields)

    def test_theta_is_checked_as_the_full_view_tests_check_it(self):
        for theta in (0.0, math.pi, math.nan, "1"):
            with pytest.raises(ValueError) as params_error:
                CameraParams(r=1.0, phi=1.0, theta=theta)
            with pytest.raises(ValueError) as test_error:
                full_view_covered_point(Point2D(0.0, 0.0), [], theta)
            assert str(params_error.value) == str(test_error.value)

    def test_pose_normalizes_facing(self):
        assert cam(0, 0, -math.pi / 2).facing == pytest.approx(1.5 * math.pi)

    def test_segment_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Segment(Point2D(1, 2), Point2D(1, 2))

    def test_normalize_bearing_range(self):
        for a in (-10.0, -1e-18, 0.0, 1.0, TAU, TAU + 0.5, 100.0):
            b = normalize_bearing(a)
            assert 0.0 <= b < TAU

    @pytest.mark.parametrize("value", [0, 3, 10**30, np.int64(3), np.uint8(0)], ids=repr)
    def test_check_integer_accepts_integers_at_or_above_the_minimum(self, value):
        check_integer("count", value, 0)

    @pytest.mark.parametrize(
        "value, minimum",
        [(True, 0), (False, 0), (2.0, 0), ("3", 0), (None, 0), (-1, 0), (1, 2), (np.int64(-1), 0),
         (np.bool_(True), 0), (-(10**30), 0)],
        ids=repr,
    )
    def test_check_integer_rejects_everything_else(self, value, minimum):
        with pytest.raises(ValueError, match="must be an integer >= "):
            check_integer("count", value, minimum)

    @pytest.mark.parametrize("value", [5e-324, 1, 2.5, 10**308, 1.7976931348623157e308, np.float64(3.0)], ids=repr)
    def test_check_positive_accepts_positive_finite_numbers(self, value):
        check_positive("length", value)

    @pytest.mark.parametrize(
        "value, text",
        [(0, "0"), (0.0, "0.0"), (-0.0, "-0.0"), (-1, "-1"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
         (10**400, "1.00e+400"), (-(10**400), "-1.00e+400"), (np.float64(math.nan), "nan")],
        ids=["0", "0.0", "-0.0", "-1", "nan", "inf", "-inf", "10**400", "-10**400", "np.nan"],
    )
    def test_check_positive_rejects_everything_else(self, value, text):
        # An int too large for a float is refused, not an OverflowError,
        # and written to 3 significant digits.
        with pytest.raises(ValueError, match=f"^length must be positive and finite, got {re.escape(text)}$"):
            check_positive("length", value)

    @pytest.mark.parametrize("value", [True, False, np.bool_(False), "5", None, [1], {}], ids=repr)
    def test_check_positive_rejects_a_bool_or_a_non_number_by_type(self, value):
        with pytest.raises(ValueError, match=f"^length must be a number, got {re.escape(repr(value))}$"):
            check_positive("length", value)
        with pytest.raises(ValueError, match=f"^length must be a number, got {re.escape(repr(value))}$"):
            check_real("length", value)

    @pytest.mark.parametrize("value", [0, -1.5, 2.5, math.nan, -math.inf, 10**400, np.float64(1.0), np.int8(-3)], ids=repr)
    def test_check_real_accepts_every_number(self, value):
        check_real("length", value)


def usable(c, p):
    """Whether ``c`` gives ``p`` a bearing: with theta = pi/2 and the axis
    exempt, one camera away from ``p`` passes the full-view test exactly
    when ``p`` lies in its sector."""
    return full_view_covered_point(p, [c], math.pi / 2, axis=0.0)


class TestSector:
    def test_on_axis_inside_radius(self):
        assert usable(cam(0, 0, NORTH), Point2D(0, 0.5))

    def test_outside_radius(self):
        assert not usable(cam(0, 0, NORTH), Point2D(0, 1.5))

    def test_off_axis_angle(self):
        # 45 degrees off a 60-degree field of view
        assert not usable(cam(0, 0, NORTH), Point2D(0.5, 0.5))

    def test_boundary_gets_epsilon_slack(self):
        # exactly on the circle counts, clearly beyond it does not
        assert usable(cam(0, 0, NORTH, r=1.0), Point2D(0, 1.0))
        assert not usable(cam(0, 0, NORTH, r=1.0), Point2D(0, 1.0 + 1e-6))
        # same for the angular edge: the half-FoV ray itself is in
        edge = cam(0, 0, NORTH, phi=math.pi / 2)
        for off, inside in ((0.0, True), (1e-6, False)):
            ray = math.pi / 4 + off
            assert usable(edge, Point2D(math.sin(ray) * 0.5, math.cos(ray) * 0.5)) is inside

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
            assert usable(c, p) == usable(c2, p2)


def ring(p, bearings_deg):
    """Cameras 0.5 from ``p`` at the given bearings (degrees), each facing
    ``p``: each covers ``p`` and gives it exactly that bearing."""
    cams = []
    for i, deg in enumerate(bearings_deg):
        b = math.radians(deg)
        pos = Point2D(p.x + 0.5 * math.cos(b), p.y + 0.5 * math.sin(b))
        cams.append(CameraPose(i, pos, normalize_bearing(b + math.pi), CameraParams(1.0, math.pi / 2, math.pi / 4)))
    return cams


def widest_gap(bearings):
    """The widest circular gap between ``bearings`` (radians), plain math:
    a full turn for a single bearing."""
    b = sorted(bearings)
    return max([b[0] + TAU - b[-1]] + [hi - lo for lo, hi in zip(b, b[1:])])


class TestWidestGap:
    def test_a_gap_of_exactly_two_theta_passes_and_a_wider_one_fails(self):
        cams = ring(Point2D(0, 0), [0, 90, 180, 270])
        assert full_view_covered_point(Point2D(0, 0), cams, math.pi / 4, axis=None)
        assert not full_view_covered_point(Point2D(0, 0), cams, math.pi / 4 - 1e-6, axis=None)

    def test_a_single_bearing_leaves_the_full_circle_open(self):
        cams = ring(Point2D(0, 0), [90])
        assert not full_view_covered_point(Point2D(0, 0), cams, math.pi / 2, axis=None)
        # the exempt axis is what lets the same camera pass
        assert full_view_covered_point(Point2D(0, 0), cams, math.pi / 2, axis=0.0)

    @pytest.mark.parametrize("turn", [0, -60], ids=["across-zero", "interior"])
    def test_the_gap_across_zero_counts_like_any_other(self, turn):
        # gaps 90, 90, 75, 105: the 105-degree one is across bearing 0 or
        # inside the sorted bearings, depending on the turn
        p = Point2D(2, -1)
        cams = ring(p, [deg + turn for deg in (45, 135, 225, 300)])
        assert not full_view_covered_point(p, cams, math.radians(52), axis=None)
        assert full_view_covered_point(p, cams, math.radians(53), axis=None)

    @given(
        st.lists(st.floats(0, 359.999), min_size=1, max_size=12),
        st.floats(0.05, math.pi / 2),
    )
    def test_passes_exactly_when_the_widest_gap_is_at_most_two_theta(self, bearings_deg, theta):
        gap = TAU if len(bearings_deg) == 1 else widest_gap([math.radians(deg) for deg in bearings_deg])
        assume(abs(gap - 2 * theta) > 1e-6)
        p = Point2D(0.25, 0.75)
        assert full_view_covered_point(p, ring(p, bearings_deg), theta, axis=None) == (gap <= 2 * theta)


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
            mask = _full_view_mask(xs, ys, Cameras.of(cams), math.pi / 2, axis)
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

    def test_mod_tau_on_values_at_and_beyond_a_turn(self):
        # fmod is skipped only where |v| < TAU; at TAU itself, beyond it and
        # on NaN and infinities it must still run.
        turns = [k * TAU for k in (1, 2, 3, 7, 1e6)]
        edges = [np.nextafter(t, w) for t in (TAU, -TAU) for w in (0.0, np.inf, -np.inf)]
        special = [np.inf, np.nan, 1e300, 1.7976931348623157e308, *turns, *edges]
        v = np.array(special + [-x for x in special])
        with np.errstate(invalid="ignore"):
            assert np.array_equal(bits(_mod_tau(v)), bits(np.mod(v, TAU)))
            for x in v:  # one at a time too, so no entry hides behind another
                assert np.array_equal(bits(_mod_tau(np.array([x]))), bits(np.mod(np.array([x]), TAU)))
        assert _mod_tau(np.array([TAU]))[0] == 0.0

    def test_mod_tau_leaves_its_argument_alone(self):
        v = np.array([0.5, 3 * TAU, -TAU, np.inf])
        before = bits(v).copy()
        with np.errstate(invalid="ignore"):
            _mod_tau(v)
        assert np.array_equal(bits(v), before)

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
        view = Cameras.of(cams)
        assert np.array_equal(bits(view.facing), bits(normalize_bearings([TAU, -1e-300, 7.0, -0.5])))
        assert Cameras.of(view) is view


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
            view = Cameras.of(cams)
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
    """One (x, y, r, half, facing) tuple per camera of ``view``."""
    return list(zip(*(a.tolist() for a in (view.x, view.y, view.r, view.half, view.facing))))


class TestCamerasWithin:
    def test_a_box_that_keeps_every_camera_returns_the_cameras_themselves(self):
        view = Cameras.of([cam(float(k), 2.0 * k, k / 3.0, r=1.0 + k, cid=k) for k in range(5)])
        assert view.within(0.0, 4.0, 0.0, 8.0) is view
        # The box grown by the largest radius plus CULL_MARGIN reaches the
        # last camera, or falls short of it by a nanometre.
        assert view.within(0.0, 4.0, 0.0, 8.0 - view.reach) is view
        part = view.within(0.0, 4.0, 0.0, 8.0 - view.reach - 1e-9)
        assert part is not view and part == view.take([0, 1, 2, 3])
        assert len(view.within(100.0, 101.0, 100.0, 101.0)) == 0
        empty = Cameras.of([])
        assert empty.within(0.0, 1.0, 0.0, 1.0) is empty


class TestCamerasNear:
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
        everyone = Cameras.of(cams)
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
            kept = Cameras.of(cams).near(self.SEG)
            for theta in (math.pi / 4, math.pi / 2):
                verdict = full_view_covered_segment(self.SEG, cams, theta, samples=21)
                assert full_view_covered_segment(self.SEG, kept, theta, samples=21) == verdict
                outcomes.add(verdict)
        assert outcomes == {True, False}

    def test_no_cameras(self):
        assert len(Cameras.of([]).near(self.SEG)) == 0


def hypot_in_range(dx, dy, r):
    """The range test as the kernel first wrote it, on ``np.hypot``."""
    dist = np.hypot(dx, dy)
    return (dist > EPS) & (dist < r[:, None] + EPS)


def around(v, steps=3):
    """``v`` and its ``steps`` float neighbours on either side."""
    out, lo, hi = [v], v, v
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


class TestInRange:
    RADII = (1e-300, 1e-9, 0.5, 1.0, 30.0, 1e6, 1e150, 1e154, 1.3407807929942596e154, 1.4e154, 1e300)

    def offsets(self, r, rng):
        """Offsets for one row of radius ``r``: at and next to both
        thresholds along an axis and at random angles, offsets where
        ``dx*dx + dy*dy`` overflows or underflows, and random ones."""
        reach = r + EPS
        along = around(reach, 4) + around(EPS, 4) + [0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
        along += [1e150, 1e154, 1.3407807929942596e154, 1.35e154, 1e200, 1.7976931348623157e308]
        pairs = [(v, 0.0) for v in along] + [(0.0, -v) for v in along]
        for target in (reach, EPS):
            for a in rng.uniform(0.0, TAU, 6):
                x, y = target * math.cos(a), target * math.sin(a)
                pairs += [(xx, yy) for xx in around(x, 2) for yy in around(y, 2)]
        pairs += [(5e-324, 1e-310), (1e-310, -1e-320), (1e150, 1e150), (-1e154, 1e154), (1e300, -1e300)]
        pairs += list(zip(rng.normal(scale=reach, size=40), rng.normal(scale=reach, size=40)))
        return pairs

    def test_matches_hypot_bit_for_bit_on_adversarial_pairs(self):
        rng = np.random.default_rng(3)
        rows = [self.offsets(r, rng) for r in self.RADII]
        width = max(len(p) for p in rows)
        # Each row also gets the other rows' offsets, so radii mix per row.
        everyone = [pair for p in rows for pair in p]
        picks = [p + [everyone[k] for k in rng.integers(0, len(everyone), width - len(p) + 200)] for p in rows]
        dx = np.array([[x for x, _ in p] for p in picks])
        dy = np.array([[y for _, y in p] for p in picks])
        r = np.array(self.RADII)
        with np.errstate(over="ignore"):
            got = _in_range(dx, dy, r)
        want = hypot_in_range(dx, dy, r)
        assert np.array_equal(got, want)
        assert want.any() and not want.all()
        # And one row at a time, each row with its own radius.
        for k in range(len(r)):
            with np.errstate(over="ignore"):
                assert np.array_equal(_in_range(dx[k : k + 1], dy[k : k + 1], r[k : k + 1]), want[k : k + 1])

    def test_random_scenes_match_hypot(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k, npts = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            scale = 10.0 ** rng.uniform(-10, 6)
            dx, dy = rng.normal(scale=scale, size=(2, k, npts))
            r = scale * rng.choice([0.5, 1.0, 2.0], k)
            assert np.array_equal(_in_range(dx, dy, r), hypot_in_range(dx, dy, r))


class TestChunking:
    def scene(self, rng, k=70, npts=120):
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
        return Cameras.of(cams), rng.uniform(-2, 2, npts), rng.uniform(-2, 2, npts)

    def test_chunks_stay_within_the_budget_and_match_one_pass(self, monkeypatch):
        rng = np.random.default_rng(8)
        view, xs, ys = self.scene(rng)
        whole = {axis: _full_view_mask(xs, ys, view, math.pi / 3, axis) for axis in (0.0, None)}
        assert whole[0.0].any() and not whole[0.0].all()
        sizes = []
        real = full_view_module._full_view_chunk

        def spy(cx, cy, cameras, *args):
            sizes.append(len(cameras) * cx.size)
            return real(cx, cy, cameras, *args)

        monkeypatch.setattr(full_view_module, "_full_view_chunk", spy)
        for budget in (1, 69, 70, 71, 500, 70 * 119):
            monkeypatch.setattr(full_view_module, "KERNEL_BUDGET", budget)
            for axis in (0.0, None):
                sizes.clear()
                assert np.array_equal(_full_view_mask(xs, ys, view, math.pi / 3, axis), whole[axis])
                assert len(sizes) > 1
                assert all(size <= max(budget, 70) for size in sizes)
                assert sum(sizes) == 70 * 120

    def test_benchmark_sized_calls_run_in_one_pass(self, monkeypatch):
        rng = np.random.default_rng(9)
        view, xs, ys = self.scene(rng, k=300, npts=101)
        calls = []
        real = full_view_module._full_view_chunk
        monkeypatch.setattr(full_view_module, "_full_view_chunk", lambda *a: calls.append(1) or real(*a))
        _full_view_mask(xs, ys, view, math.pi / 3, 0.0)
        assert calls == [1]


#: Unit directions along which a camera's offset from a point is exact or
#: nearly so: the axes and a 3-4-5 triangle.
DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6), (0.8, -0.6))


@st.composite
def kernel_scenes(draw):
    """Points on a lattice and cameras placed against them: anywhere, on a
    lattice point (possibly a sampled one), at ``r + EPS`` and its
    neighbours from a point, or within ``EPS`` of one; each facing
    anywhere, at a multiple of pi/4, or on an edge of the arc that holds
    its bearing to the point.  Zero cameras included."""
    step = draw(st.sampled_from((1.0, 0.5, 0.1, 2.5)))
    lattice = st.integers(-4, 4).map(lambda k: k * step)
    npts = draw(st.integers(1, 8))
    xs = np.array(draw(st.lists(lattice, min_size=npts, max_size=npts)))
    ys = np.array(draw(st.lists(lattice, min_size=npts, max_size=npts)))
    columns = []
    for _ in range(draw(st.integers(0, 10))):
        r = draw(st.sampled_from((0.5, 1.0, 2.5, 5.0)))
        half = draw(st.sampled_from((math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, math.pi)))
        j = draw(st.integers(0, npts - 1))
        px, py = float(xs[j]), float(ys[j])
        place = draw(st.sampled_from(("anywhere", "lattice", "range edge", "co-located")))
        if place == "anywhere":
            x, y = draw(st.floats(-12.0, 12.0)), draw(st.floats(-12.0, 12.0))
        elif place == "lattice":
            x, y = draw(lattice), draw(lattice)
        else:
            if place == "range edge":
                dist = r + draw(st.sampled_from((-EPS, 0.0, EPS, EPS * (1.0 - 1e-12), EPS * (1.0 + 1e-12))))
            else:
                dist = draw(st.sampled_from((0.0, EPS, EPS * (1.0 - 1e-12), EPS * (1.0 + 1e-12), 2 * EPS)))
            ux, uy = draw(st.sampled_from(DIRECTIONS))
            x, y = px + dist * ux, py + dist * uy
        aim = draw(st.sampled_from(("anywhere", "pi/4", "arc edge")))
        if aim == "anywhere":
            facing = draw(st.floats(0.0, TAU, exclude_max=True))
        elif aim == "pi/4":
            facing = draw(st.integers(0, 7)) * math.pi / 4
        else:
            side = draw(st.sampled_from((-1.0, 1.0)))
            slack = draw(st.sampled_from((-EPS, -1e-15, 0.0, 1e-15, EPS)))
            facing = math.atan2(py - y, px - x) + side * (half + slack)
        columns.append((x, y, normalize_bearing(facing), r, half))
    x, y, facing, r, half = (np.array(c, dtype=float) for c in zip(*columns)) if columns else [np.empty(0)] * 5
    return xs, ys, Cameras(x, y, facing, r, half)


class TestKernelMatchesFrozenKernel:
    """The kernel against ``helpers.ref_full_view_chunk``, a copy of it
    taken before its passes were cut: the verdicts must match bit for bit.
    At theta = pi/2 the two free bearings pass the gap test alone, so the
    kernel asks which points have a usable camera; at pi/6 and pi/3 it
    need not, and does not."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_scenes())
    def test_adversarial_scenes(self, scene):
        xs, ys, view = scene
        for axis in (0.0, 1.0, None):
            for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
                want = ref_full_view_chunk(xs, ys, view, theta, axis)
                assert np.array_equal(_full_view_chunk(xs, ys, view, theta, axis), want)

    def test_a_point_that_no_camera_sees_fails_when_the_free_bearings_pass(self):
        # A camera at (0.5, 0) looking back at the origin gives the origin
        # bearing 0; with the free bearings 0 and pi every gap is pi, which
        # passes at theta = pi/2.  The point at (10, 0) has only the free
        # bearings, whose gaps also pass: it fails for want of a camera.
        xs, ys = np.array([0.0, 10.0]), np.array([0.0, 0.0])
        view = Cameras.of([cam(0.5, 0.0, math.pi, r=1.0, phi=math.pi / 2)])
        for theta, want in ((math.pi / 2, [True, False]), (math.pi / 3, [False, False])):
            assert _full_view_chunk(xs, ys, view, theta, 0.0).tolist() == want
            assert ref_full_view_chunk(xs, ys, view, theta, 0.0).tolist() == want

    def test_captured_sweep_calls(self, monkeypatch):
        # Every call a small static sweep makes, through the real caller.
        calls = []
        real = full_view_module._full_view_chunk

        def spy(xs, ys, cameras, theta, axis):
            got = real(xs, ys, cameras, theta, axis)
            calls.append(np.array_equal(got, ref_full_view_chunk(xs, ys, cameras, theta, axis)))
            return got

        monkeypatch.setattr(full_view_module, "_full_view_chunk", spy)
        config = ScenarioConfig(
            width=50.0, height=100.0, r=30.0, theta=math.pi / 3, phi=2 * math.pi / 3,
            counts=(50, 150, 300), trials=3, seed=5, mode="static", samples=101,
        )
        coverage_probability_sweep(config)
        assert len(calls) > 10 and all(calls)


def kernel_usable(xs, ys, view):
    """The (camera, point) pairs the kernel counts as usable, in its own
    arithmetic: :func:`_in_range`, then the aim angle within half the
    field of view.  The kernel drops rows between the two, which leaves
    every surviving value as it is."""
    dx = xs[None, :] - view.x[:, None]
    dy = ys[None, :] - view.y[:, None]
    aim = np.arctan2(dy, dx)
    aim -= view.facing[:, None]
    aim += math.pi
    aim = np.abs(_mod_tau(aim) - math.pi)
    return _in_range(dx, dy, view.r) & (aim < view.half[:, None] + EPS)


def dropped(view, kept):
    """Rows of ``view`` that ``kept``, a subset in input order, leaves out."""
    rows = camera_rows(kept)
    mask, at = [], 0
    for row in camera_rows(view):
        hit = at < len(rows) and rows[at] == row
        mask.append(not hit)
        at += hit
    assert at == len(rows)
    return np.array(mask, dtype=bool)


def box_near(view, seg):
    """The cull :meth:`Cameras.near` used before it looked at facings:
    every camera within the segment's bounding box grown by the largest
    radius plus CULL_MARGIN."""
    x0, x1 = sorted((seg.a.x, seg.b.x))
    y0, y1 = sorted((seg.a.y, seg.b.y))
    return view.within(x0, x1, y0, y1)


class TestSectorCull:
    SEGMENTS = (
        Segment(Point2D(2.0, 3.0), Point2D(4.0, 3.0)),
        Segment(Point2D(-1.0, 0.5), Point2D(2.5, 4.0)),
        Segment(Point2D(0.3, 5.0), Point2D(0.3, 1.0)),
        Segment(Point2D(26.832815729997478, 93.91485505499116), Point2D(53.665631459994955, 93.91485505499116)),
    )

    def check(self, seg, cams, samples=(2, 7, 101)):
        """Every camera ``near`` drops has no usable pair on the segment's
        samples, and the verdicts match all cameras and the box cull.
        Returns how many cameras were dropped."""
        view = Cameras.of(cams)
        kept = view.near(seg)
        gone = dropped(view, kept)
        for n in samples:
            xs, ys = segment_points(seg, np.linspace(0.0, 1.0, n))
            assert not kernel_usable(xs, ys, view)[gone].any()
            for theta in (math.pi / 4, math.pi / 2):
                verdict = full_view_covered_segment(seg, kept, theta, samples=n)
                assert verdict == full_view_covered_segment(seg, view, theta, samples=n)
                assert verdict == full_view_covered_segment(seg, box_near(view, seg), theta, samples=n)
        return int(gone.sum())

    def edge_cameras(self, seg, r=3.0, phi=math.pi / 2, heights=(0.2, 1.0, 2.5, -0.7, -2.0), nudges=()):
        """Cameras around the segment facing the edges of their arc of
        bearings to it, give or take half the field of view and 1e-12 (with
        and without EPS), and some just past the cull's angle margin and
        well past it."""
        ax, ay, bx, by = seg.a.x, seg.a.y, seg.b.x, seg.b.y
        ux, uy = bx - ax, by - ay
        length = math.hypot(ux, uy)
        nx, ny = -uy / length, ux / length
        nudges = (-1e-12, 0.0, 1e-12, EPS - 1e-12, EPS, EPS + 1e-12, 2 * CULL_ANGLE, 0.3) + nudges
        out = []
        for t in (-0.4, 0.0, 0.3, 0.5, 1.0, 1.3):
            for h in heights:
                cx, cy = ax + t * ux + h * nx, ay + t * uy + h * ny
                to_a, to_b = math.atan2(ay - cy, ax - cx), math.atan2(by - cy, bx - cx)
                for edge in (to_a, to_b):
                    for side in (-1.0, 1.0):
                        for nudge in nudges:
                            out.append((cx, cy, edge + side * (phi / 2 + nudge)))
        return [cam(x, y, f, r=r, phi=phi, cid=k) for k, (x, y, f) in enumerate(out)]

    def test_facings_at_the_arc_edges(self):
        for seg in self.SEGMENTS[:3]:
            cams = self.edge_cameras(seg)
            assert self.check(seg, cams) > 0

    def test_facings_at_the_arc_edges_at_the_coordinate_scale(self):
        # Offsets round to about 1e-10 here, so a bearing from a camera
        # just past CULL_LINE can be off by 1e-7.
        big = CULL_SCALE - 10.0
        seg = Segment(Point2D(big - 3.0, big - 2.0), Point2D(big, big))
        lines = (1.1 * CULL_LINE, 2 * CULL_LINE, -1.5 * CULL_LINE, 0.01, -0.5)
        nudges = tuple(EPS + k * 1e-7 for k in (-20, -5, -1, 1, 5, 20))
        cams = self.edge_cameras(seg, heights=lines, nudges=nudges)
        assert self.check(seg, cams) > 0

    def test_cameras_on_and_near_the_line(self):
        for seg in self.SEGMENTS[:3]:
            ax, ay, bx, by = seg.a.x, seg.a.y, seg.b.x, seg.b.y
            ux, uy = bx - ax, by - ay
            length = math.hypot(ux, uy)
            nx, ny = -uy / length, ux / length
            cams, on_line = [], []
            for t in (0.0, 0.25, 0.5, 1.0, -0.3, 1.2, 1.9):  # on the segment and beyond its ends
                for h in (0.0, 1e-12, -1e-12, CULL_LINE / 2, 2 * CULL_LINE):
                    for f in np.linspace(0.0, TAU, 12, endpoint=False):
                        cams.append(cam(ax + t * ux + h * nx, ay + t * uy + h * ny, float(f), r=2.5, cid=len(cams)))
                        on_line.append(abs(h) < CULL_LINE and min(abs(t), abs(t - 1)) * length < 2.4)
            view = Cameras.of(cams)
            gone = dropped(view, view.near(seg))
            assert not gone[np.array(on_line)].any()  # kept whatever their facing
            assert gone.any()
            self.check(seg, cams)

    def test_cameras_at_the_range_boundary_of_an_endpoint(self):
        for seg in self.SEGMENTS[:3]:
            cams = []
            for end, away in ((seg.a, -1.0), (seg.b, 1.0)):
                ux, uy = (seg.b.x - seg.a.x) * away, (seg.b.y - seg.a.y) * away
                length = math.hypot(ux, uy)
                for r in (1.0, 2.0):
                    for dist in around(r + EPS, 2) + [r, r + CULL_MARGIN, r + 2 * CULL_MARGIN]:
                        x, y = end.x + dist * ux / length, end.y + dist * uy / length
                        facing = math.atan2(-uy, -ux)
                        for phi in (math.pi / 3, TAU):
                            cams.append(cam(x, y, facing, r=r, phi=phi, cid=len(cams)))
            assert self.check(seg, cams) > 0

    def test_a_full_circle_of_view_keeps_every_camera_in_range(self):
        rng = np.random.default_rng(12)
        seg = self.SEGMENTS[1]
        cams = [
            cam(float(rng.uniform(-4, 6)), float(rng.uniform(-3, 7)), float(rng.uniform(0, TAU)), r=2.0, phi=TAU, cid=k)
            for k in range(300)
        ]
        view = Cameras.of(cams)
        kept = view.near(seg)
        xs, ys = segment_points(seg, np.linspace(0.0, 1.0, 2001))
        reaches = (np.hypot(xs[None, :] - view.x[:, None], ys[None, :] - view.y[:, None]) < 2.0 - 1e-3).any(axis=1)
        assert reaches.sum() > 20
        assert set(camera_rows(kept)) >= {row for row, hit in zip(camera_rows(view), reaches) if hit}
        assert len(kept) < len(view)
        self.check(seg, cams)

    def test_random_scenes(self):
        rng = np.random.default_rng(13)
        outcomes, gone = set(), 0
        for trial in range(120):
            seg = self.SEGMENTS[trial % len(self.SEGMENTS)]
            cx, cy = (seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2
            span = max(abs(seg.b.x - seg.a.x), abs(seg.b.y - seg.a.y))
            r = span * float(rng.choice([0.5, 1.0, 1.5]))
            cams = [
                cam(
                    float(cx + rng.uniform(-1.5, 1.5) * (span + r)),
                    float(cy + rng.uniform(-1.5, 1.5) * (span + r)),
                    float(rng.uniform(0, TAU)),
                    r=r * float(rng.choice([0.7, 1.0])),
                    phi=float(rng.choice([math.pi / 3, 2 * math.pi / 3, math.pi, TAU])),
                    cid=k,
                )
                for k in range(int(rng.integers(0, 80)))
            ]
            gone += self.check(seg, cams, samples=(11,))
            outcomes.add(full_view_covered_segment(seg, cams, math.pi / 2, samples=11))
        assert outcomes == {True, False} and gone > 0

    def test_keeps_every_camera_past_the_coordinate_scale(self):
        far = CULL_SCALE * 2
        cams = [cam(far + 5.0, 3.0, 0.0, cid=0), cam(0.0, 3.0, 0.0, cid=1)]  # far from both segments
        assert len(Cameras.of(cams).near(Segment(Point2D(far, 0.0), Point2D(far + 1.0, 0.0)))) == 2
        seg = Segment(Point2D(0.0, 0.0), Point2D(1.0, 0.0))
        assert len(Cameras.of(cams).near(seg)) == 0
        cams.append(cam(-far, 0.0, math.pi, r=far, cid=2))  # a radius past the scale, facing away
        assert len(Cameras.of(cams).near(seg)) == 3


class TestSegment:
    def test_empty_cameras_false(self):
        seg = Segment(Point2D(0, 0), Point2D(1, 0))
        assert not full_view_covered_segment(seg, [], math.pi / 4)

    def test_samples_validation(self):
        seg = Segment(Point2D(0, 0), Point2D(1, 0))
        with pytest.raises(ValueError):
            full_view_covered_segment(seg, [], math.pi / 4, samples=1)

    @pytest.mark.parametrize("samples", [2, 6, 101, 1001])
    def test_fractions_are_made_once_read_only_and_equal_linspace(self, samples):
        t = sample_fractions(samples)
        assert sample_fractions(samples) is t and not t.flags.writeable
        assert np.array_equal(t, np.linspace(0.0, 1.0, samples))
        with pytest.raises(ValueError):
            t[0] = 0.5

    def test_every_canonical_subline_passes(self):
        dep = place_line_deployment(Segment(Point2D(0, 0), Point2D(100, 0)), 5.0)
        delta = dep.params.delta
        for k in range(5):
            sub = Segment(Point2D(k * delta, 0), Point2D((k + 1) * delta, 0))
            assert full_view_covered_segment(sub, list(dep.cameras), math.pi / 4, samples=1001)

    def test_single_camera_above_the_midpoint_fails(self):
        # one bearing (north) and the two exempt ones leave the south open
        seg = Segment(Point2D(0, 0), Point2D(2, 0))
        lone = cam(1.0, 0.5, 1.5 * math.pi, r=2.0, phi=math.pi)
        assert not full_view_covered_segment(seg, [lone], math.pi / 4)

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
