"""Two-row line deployment: closed-form parameters and camera placement.

The deployment protects a horizontal barrier with one row of cameras at
height ``h`` above it and a mirror row at ``h`` below, spots every
``delta`` along each row.  Cameras aim straight at the barrier and sweep
their mount through ``alpha``; the sweep is modeled as a static sector of
field-of-view ``alpha`` (no time dimension).

This module uses the y-up convention: the upper row sits at ``y0 + h``
and faces bearing 3*pi/2 (toward -y).  Non-horizontal barriers are out of
scope; transform inputs instead of generalizing the placement.
"""

import math
import sys
from dataclasses import dataclass

from .geometry import (
    EPS,
    MAX_CAMERAS,
    TAU,
    CameraParams,
    CameraPose,
    Point2D,
    Segment,
    check_positive,
    slack_ceil,
)

ROW_FACING_DOWN = 1.5 * math.pi  # upper row, toward -y
ROW_FACING_UP = 0.5 * math.pi  # lower row, toward +y

#: Effective field of view of a camera sweeping through the optimal angle,
#: 2*arctan(2).  Equal to 2*arcsin(2/sqrt(5)); independent of the radius.
SWING_FOV = 2.0 * math.atan(2.0)


@dataclass(frozen=True)
class LineDeploymentParams:
    """The (h, delta, alpha) triple governing a two-row deployment."""

    h: float
    delta: float
    alpha: float

    def __post_init__(self):
        check_positive("row offset h", self.h)
        check_positive("spot spacing delta", self.delta)
        if not 0.0 < self.alpha < TAU:
            raise ValueError(f"swing angle alpha must be in (0, 2*pi), got {self.alpha}")


@dataclass(frozen=True)
class LineDeployment:
    """A placed two-row deployment over a horizontal barrier."""

    barrier: Segment
    params: LineDeploymentParams
    cameras: tuple[CameraPose, ...]


@dataclass(frozen=True)
class DeploymentCheck:
    """Independent pass/fail verdicts for the deployment conditions.

    swing_within_spacing       tan(alpha/2) <= delta/h
    spacing_within_recognition delta <= 2*h*tan(theta)
    offset_within_range        h <= r*sin(theta)
    reach_within_range         sqrt(h^2 + delta^2) <= r, i.e. the farthest
                               point of an adjacent span is in sensing range
    """

    swing_within_spacing: bool
    spacing_within_recognition: bool
    offset_within_range: bool
    reach_within_range: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.swing_within_spacing
            and self.spacing_within_recognition
            and self.offset_within_range
            and self.reach_within_range
        )

    def failed(self) -> tuple[str, ...]:
        return tuple(
            name
            for name in (
                "swing_within_spacing",
                "spacing_within_recognition",
                "offset_within_range",
                "reach_within_range",
            )
            if not getattr(self, name)
        )


def optimal_params(r: float) -> LineDeploymentParams:
    """Spacing-maximizing parameters for sensing radius ``r``.

    h = r/sqrt(5), delta = 2*h and alpha = 2*arctan(2), which pin
    tan(alpha/2) = delta/h = 2 and h^2 + delta^2 = r^2: the farthest point
    a camera must see sits exactly on its sensing circle.
    """
    check_positive("sensing radius", r)
    h = r / math.sqrt(5.0)
    return LineDeploymentParams(h=h, delta=2.0 * h, alpha=SWING_FOV)


def validate_params(params: LineDeploymentParams, r: float, theta: float) -> DeploymentCheck:
    """Check a parameter triple against radius ``r`` and recognition
    half-window ``theta``.

    Supported band is theta in [pi/4, pi/2].  Each condition is reported
    independently; see :class:`DeploymentCheck`.
    """
    check_positive("sensing radius", r)
    if not math.pi / 4 - EPS <= theta <= math.pi / 2 + EPS:
        raise ValueError(f"theta outside the supported band [pi/4, pi/2]: {theta}")
    return DeploymentCheck(
        swing_within_spacing=math.tan(params.alpha / 2.0) <= params.delta / params.h + EPS,
        spacing_within_recognition=params.delta <= 2.0 * params.h * math.tan(theta) + EPS,
        offset_within_range=params.h <= r * math.sin(theta) + EPS,
        reach_within_range=math.hypot(params.h, params.delta) <= r + EPS,
    )


def camera_density(params: LineDeploymentParams) -> float:
    """Cameras needed per meter of barrier, per row: 1/delta."""
    return 1.0 / params.delta


def cameras_for_barrier(length: float, r: float) -> int:
    """Total camera count for a barrier of ``length`` at radius ``r``.

    Spots sit at 0, delta, 2*delta, ... with one spot at or beyond the far
    endpoint, so each row needs ceil(length/delta) + 1 cameras; two rows
    double that.  Endpoints get spots so the whole segment, ends included,
    verifies geometrically.  A count larger than a float can hold raises
    ``ValueError``, so that every count can be reported as a float.
    """
    check_positive("barrier length", length)
    span = length / optimal_params(r).delta
    if math.isfinite(span):
        count = 2 * (slack_ceil(span) + 1)
        if count <= sys.float_info.max:
            return count
    raise ValueError(f"a barrier of length {length} at radius {r} needs more cameras than a float can hold")


def place_line_deployment(
    barrier: Segment,
    r: float,
    theta: float = math.pi / 4,
    params: LineDeploymentParams | None = None,
) -> LineDeployment:
    """Place the two camera rows over a horizontal barrier.

    Spots start at the left endpoint, advance by delta and include one
    final spot at or beyond the right endpoint.  Upper-row cameras face
    straight down, lower-row straight up, each with field of view alpha.
    ``params`` defaults to :func:`optimal_params`; pass explicit values to
    study off-optimal spacings.  ``theta`` is carried onto the cameras for
    later verification.  More than :data:`MAX_CAMERAS` cameras raise
    ``ValueError`` before any is placed.
    """
    if abs(barrier.a.y - barrier.b.y) > EPS:
        raise ValueError("canonical model requires horizontal barrier")
    check_positive("sensing radius", r)
    p = params if params is not None else optimal_params(r)
    left = min(barrier.a.x, barrier.b.x)
    right = max(barrier.a.x, barrier.b.x)
    y0 = barrier.a.y
    # 2 * (slack_ceil(span) + 1) cameras, counted on the float span so
    # that an infinite one is refused too.
    span = (right - left) / p.delta
    if span - EPS > MAX_CAMERAS // 2 - 1:
        raise ValueError(f"the deployment needs more than {MAX_CAMERAS} cameras")
    spots = slack_ceil(span) + 1
    hardware = CameraParams(r=r, phi=p.alpha, theta=theta)
    cameras = []
    for k in range(spots):
        cameras.append(
            CameraPose(k, Point2D(left + k * p.delta, y0 + p.h), ROW_FACING_DOWN, hardware)
        )
    for k in range(spots):
        cameras.append(
            CameraPose(spots + k, Point2D(left + k * p.delta, y0 - p.h), ROW_FACING_UP, hardware)
        )
    return LineDeployment(barrier=barrier, params=p, cameras=tuple(cameras))
