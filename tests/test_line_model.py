import argparse
import math
from dataclasses import replace

import numpy as np
import pytest

from cambarrier import cli, line_model
from cambarrier.geometry import MAX_CAMERAS, CameraParams, Point2D, Segment, full_view_covered_segment
from cambarrier.line_model import (
    SWING_FOV,
    LineDeploymentParams,
    camera_density,
    cameras_for_barrier,
    optimal_params,
    place_line_deployment,
    validate_params,
)


class TestOptimalParams:
    def test_frozen_values_r5(self):
        p = optimal_params(5.0)
        assert p.h == pytest.approx(2.2360680, abs=1e-6)
        assert p.delta == pytest.approx(4.4721360, abs=1e-6)
        assert p.alpha == pytest.approx(2.2142974, abs=1e-6)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0, 10.0, 30.0, math.sqrt(5)])
    def test_closed_form_identities(self, r):
        p = optimal_params(r)
        assert math.tan(p.alpha / 2) == pytest.approx(2.0, abs=1e-9)
        assert p.delta / p.h == pytest.approx(2.0, abs=1e-9)
        assert p.delta == pytest.approx(2.0 * p.h, abs=1e-9)
        assert p.h**2 + p.delta**2 == pytest.approx(r**2, abs=1e-9)

    def test_r_sqrt5_gives_unit_h(self):
        p = optimal_params(math.sqrt(5))
        assert p.h == pytest.approx(1.0, abs=1e-9)
        assert p.delta == pytest.approx(2.0, abs=1e-9)

    def test_alpha_equals_arcsin_form(self):
        p = optimal_params(1.0)
        assert p.alpha == pytest.approx(2.0 * math.asin(2.0 / math.sqrt(5.0)), abs=1e-12)
        assert p.alpha == SWING_FOV

    def test_nonpositive_radius_raises(self):
        with pytest.raises(ValueError):
            optimal_params(0.0)
        with pytest.raises(ValueError):
            optimal_params(-2.0)

    def test_scaling_radius_scales_lengths_only(self):
        base = optimal_params(3.0)
        for c in (0.25, 2.0, 7.5):
            scaled = optimal_params(3.0 * c)
            assert scaled.h == pytest.approx(base.h * c, rel=1e-12)
            assert scaled.delta == pytest.approx(base.delta * c, rel=1e-12)
            assert scaled.alpha == base.alpha


class TestValidateParams:
    def test_optimal_passes_all_four(self):
        report = validate_params(optimal_params(5.0), 5.0, math.pi / 4)
        assert report.all_ok
        assert report.failed() == ()

    def test_spacing_bound_is_tight_at_quarter_pi(self):
        p = optimal_params(5.0)
        assert p.delta == pytest.approx(2.0 * p.h * math.tan(math.pi / 4), abs=1e-9)

    def test_excessive_offset_fails_range_condition(self):
        r = 3.0
        p = LineDeploymentParams(h=r, delta=r / 10, alpha=math.pi / 2)
        report = validate_params(p, r, math.pi / 4)
        assert not report.offset_within_range

    def test_stretched_spacing_fails_recognition_and_reach(self):
        p = optimal_params(5.0)
        stretched = replace(p, delta=p.delta * 1.1)
        report = validate_params(stretched, 5.0, math.pi / 4)
        assert not report.spacing_within_recognition
        assert not report.reach_within_range
        assert report.swing_within_spacing  # tan(alpha/2)=2 <= 2.2

    def test_theta_sweep_over_supported_band(self):
        p = optimal_params(7.0)
        for theta in np.linspace(math.pi / 4, math.pi / 2, 50):
            report = validate_params(p, 7.0, float(theta))
            assert report.all_ok, theta

    def test_theta_outside_band_raises(self):
        with pytest.raises(ValueError):
            validate_params(optimal_params(1.0), 1.0, math.pi / 8)

    def test_nonpositive_parameters_raise(self):
        with pytest.raises(ValueError):
            LineDeploymentParams(h=0.0, delta=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            validate_params(optimal_params(1.0), -1.0, math.pi / 4)


class TestCameraCounts:
    def test_density_examples(self):
        assert camera_density(optimal_params(5.0)) == pytest.approx(0.2236068, abs=1e-6)
        assert camera_density(LineDeploymentParams(h=0.5, delta=1.0, alpha=1.0)) == 1.0
        assert camera_density(optimal_params(10.0)) == pytest.approx(0.1118034, abs=1e-6)

    def test_barrier_count_examples(self):
        assert cameras_for_barrier(100.0, 5.0) == 48
        assert cameras_for_barrier(100.0, 10.0) == 26

    @pytest.mark.parametrize("r", [0.5, 1.7, 4.0, 12.0])
    def test_single_span_needs_four(self, r):
        delta = optimal_params(r).delta
        assert cameras_for_barrier(delta, r) == 4

    def test_count_matches_placement_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            length = float(rng.uniform(0.5, 300.0))
            r = float(rng.uniform(0.3, 25.0))
            dep = place_line_deployment(Segment(Point2D(0, 0), Point2D(length, 0)), r)
            assert len(dep.cameras) == cameras_for_barrier(length, r)

    def test_count_non_increasing_in_radius(self):
        counts = [cameras_for_barrier(100.0, r) for r in range(2, 11)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize(
        "length, r",
        [
            (1e308, 1e-300),  # length / delta overflows to inf
            (1e308, 1.0),  # a finite span, but a count past the largest float
        ],
    )
    def test_a_count_no_float_can_hold_is_refused(self, length, r):
        with pytest.raises(ValueError, match="more cameras than a float can hold"):
            cameras_for_barrier(length, r)

    def test_a_count_near_the_float_limit_still_counts(self):
        count = cameras_for_barrier(1e307, 1.0)
        assert count == 2 * (math.ceil(1e307 / optimal_params(1.0).delta) + 1)
        assert float(count) == pytest.approx(2e307 * math.sqrt(5) / 2)


class TestPlacement:
    def test_hundred_meter_barrier_at_r5(self):
        dep = place_line_deployment(Segment(Point2D(0, 0), Point2D(100, 0)), 5.0)
        upper = [c for c in dep.cameras if c.position.y > 0]
        lower = [c for c in dep.cameras if c.position.y < 0]
        assert len(upper) == 24 and len(lower) == 24
        assert all(c.position.y == pytest.approx(2.2360680, abs=1e-6) for c in upper)
        assert all(c.position.y == pytest.approx(-2.2360680, abs=1e-6) for c in lower)
        assert all(c.facing == pytest.approx(1.5 * math.pi) for c in upper)
        assert all(c.facing == pytest.approx(0.5 * math.pi) for c in lower)
        assert all(c.params.phi == dep.params.alpha for c in dep.cameras)
        xs = sorted(c.position.x for c in upper)
        assert xs[0] == 0.0
        assert xs[-1] >= 100.0 - 1e-9
        assert np.allclose(np.diff(xs), dep.params.delta)

    def test_single_span_two_spots_per_row(self):
        r = 5.0
        delta = optimal_params(r).delta
        dep = place_line_deployment(Segment(Point2D(0, 0), Point2D(delta, 0)), r)
        assert len(dep.cameras) == 4
        xs = sorted({round(c.position.x, 9) for c in dep.cameras})
        assert xs == [0.0, pytest.approx(delta)]

    def test_non_horizontal_barrier_rejected(self):
        with pytest.raises(ValueError, match="horizontal"):
            place_line_deployment(Segment(Point2D(0, 0), Point2D(1, 1)), 5.0)

    def test_ids_unique(self):
        dep = place_line_deployment(Segment(Point2D(0, 0), Point2D(50, 0)), 3.0)
        ids = [c.id for c in dep.cameras]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("r", [2.0, 5.0, 10.0])
    def test_full_barrier_full_view_at_dense_sampling(self, r):
        barrier = Segment(Point2D(0, 0), Point2D(100, 0))
        dep = place_line_deployment(barrier, r)
        assert full_view_covered_segment(barrier, list(dep.cameras), math.pi / 4, samples=1001)

    def test_a_barrier_just_over_the_camera_cap_places_nothing(self, monkeypatch):
        def fail(*args):
            pytest.fail("a camera was placed")

        monkeypatch.setattr(line_model, "CameraPose", fail)
        # 500,000 spans: two rows of 500,001 spots, two cameras over the cap.
        length = (MAX_CAMERAS // 2) * optimal_params(5.0).delta
        for barrier, r in (
            (Segment(Point2D(0, 0), Point2D(length, 0)), 5.0),
            (Segment(Point2D(0, 0), Point2D(100, 0)), 1e-12),
            (Segment(Point2D(-1e308, 0), Point2D(1e308, 0)), 1.0),  # the span overflows to inf
        ):
            with pytest.raises(ValueError, match=f"more than {MAX_CAMERAS} cameras"):
                place_line_deployment(barrier, r)

    def test_the_cap_admits_exactly_its_count(self, monkeypatch):
        monkeypatch.setattr(line_model, "MAX_CAMERAS", 10)
        delta = optimal_params(5.0).delta
        dep = place_line_deployment(Segment(Point2D(0, 0), Point2D(4 * delta, 0)), 5.0)
        assert len(dep.cameras) == 10
        with pytest.raises(ValueError, match="more than 10 cameras"):
            place_line_deployment(Segment(Point2D(0, 0), Point2D(4 * delta + 1e-6, 0)), 5.0)


#: NaN passes a ``<= 0`` test, and an int too large for a float raises
#: OverflowError in a float conversion; each must raise ValueError.
OUT_OF_RANGE = [math.nan, math.inf, -math.inf, 10**400, -(10**400), 0]
OUT_OF_RANGE_IDS = ["nan", "inf", "-inf", "10**400", "-10**400", "0"]


class TestNonFiniteInputs:
    """Every length and radius is range tested by ``check_positive``, as
    CameraParams tests its radius."""

    @pytest.mark.parametrize("value", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_radius_is_refused_everywhere(self, value):
        barrier = Segment(Point2D(0, 0), Point2D(10, 0))
        for call in (
            lambda: CameraParams(r=value, phi=1.0, theta=1.0),
            lambda: optimal_params(value),
            lambda: validate_params(optimal_params(1.0), value, math.pi / 4),
            lambda: cameras_for_barrier(10.0, value),
            lambda: place_line_deployment(barrier, value),
            lambda: place_line_deployment(barrier, value, params=optimal_params(1.0)),
        ):
            with pytest.raises(ValueError, match=f"^sensing radius must be positive and finite, got {value}$"):
                call()

    @pytest.mark.parametrize("value", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_barrier_length_is_refused(self, value):
        with pytest.raises(ValueError, match=f"^barrier length must be positive and finite, got {value}$"):
            cameras_for_barrier(value, 5.0)
        with pytest.raises(ValueError, match=f"^barrier length must be positive and finite, got {value}$"):
            cli._cmd_plan_line(argparse.Namespace(length=value, r=5.0, theta=math.pi / 4, out=None))

    @pytest.mark.parametrize("value", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_row_offset_and_spacing_are_refused(self, value):
        with pytest.raises(ValueError, match=f"^row offset h must be positive and finite, got {value}$"):
            LineDeploymentParams(h=value, delta=1.0, alpha=1.0)
        with pytest.raises(ValueError, match=f"^spot spacing delta must be positive and finite, got {value}$"):
            LineDeploymentParams(h=1.0, delta=value, alpha=1.0)

    def test_the_largest_float_is_still_accepted(self):
        big = 1.7976931348623157e308
        assert LineDeploymentParams(h=big, delta=big, alpha=1.0).h == big
        assert optimal_params(big).h == big / math.sqrt(5.0)
