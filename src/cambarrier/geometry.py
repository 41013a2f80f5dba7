"""Planar sector coverage and full-view coverage tests.

Conventions used across the package:

* Positions are cartesian coordinates in meters.
* Bearings are plain floats in radians normalized to [0, 2*pi); 0 points
  along +x and angles grow toward +y (``math.atan2`` argument order).
* Every distance/angle comparison carries an absolute slack ``EPS = 1e-9``
  so that designs that are tight by construction (a point exactly on a
  sensing circle, a gap exactly equal to the recognition window) evaluate
  the way they were designed.  All quantities here are O(1)-O(100), so an
  absolute epsilon is appropriate.

Everything in this module is a pure function of its inputs and safe to
call concurrently.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi
EPS = 1e-9


def normalize_bearing(angle: float) -> float:
    """Wrap an angle in radians to [0, 2*pi)."""
    a = math.fmod(angle, TAU)
    if a < 0.0:
        a += TAU
    if a >= TAU:  # fmod of a tiny negative can round back up to 2*pi
        a = 0.0
    return a


def normalize_bearings(angles) -> np.ndarray:
    """:func:`normalize_bearing` on every entry of an array, bit for bit."""
    a = np.fmod(np.asarray(angles, dtype=float), TAU)
    a = np.where(a < 0.0, a + TAU, a)
    a[a >= TAU] = 0.0
    return a


def bearing_between(a: float, b: float) -> float:
    """Smallest circular separation between two bearings, in [0, pi]."""
    d = abs(math.fmod(a - b, TAU))
    return min(d, TAU - d)


def slack_ceil(x: float) -> int:
    """Ceiling that forgives float noise just below an integer."""
    return math.ceil(x - EPS)


def check_integer(name: str, value, minimum: int) -> None:
    """Reject anything but an integer >= ``minimum``; bools and integral
    floats are rejected too, so that no value is silently converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class Point2D:
    """A point in the plane, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def bearing_to(self, other: "Point2D") -> float:
        """Bearing from this point to ``other``."""
        return normalize_bearing(math.atan2(other.y - self.y, other.x - self.x))


@dataclass(frozen=True)
class CameraParams:
    """Hardware envelope of a camera sensor.

    r is the sensing radius in meters, phi the field-of-view angle and
    theta the recognition half-window, both in radians.  A subject facing
    within theta of the bearing toward a covering camera is recognized.
    Communication range is fixed at twice the sensing radius.
    """

    r: float
    phi: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"sensing radius must be positive and finite, got {self.r}")
        if not 0.0 < self.phi <= TAU + EPS:
            raise ValueError(f"field of view must be in (0, 2*pi], got {self.phi}")
        if not 0.0 < self.theta <= math.pi / 2 + EPS:
            raise ValueError(f"effective angle must be in (0, pi/2], got {self.theta}")

    @property
    def comm_range(self) -> float:
        return 2.0 * self.r


@dataclass(frozen=True)
class CameraPose:
    """A camera with an identity, a position and a facing bearing."""

    id: int
    position: Point2D
    facing: float
    params: CameraParams

    def __post_init__(self):
        check_integer("camera id", self.id, 0)
        object.__setattr__(self, "facing", normalize_bearing(self.facing))


@dataclass(frozen=True)
class Segment:
    """A non-degenerate line segment."""

    a: Point2D
    b: Point2D

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("segment endpoints must differ")

    def length(self) -> float:
        return self.a.distance_to(self.b)

    def midpoint(self) -> Point2D:
        return Point2D((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)


#: Slack added to the largest sensing radius when culling cameras by
#: position.  It must exceed EPS, because the kernel counts a camera as in
#: range while ``dist < r + EPS``; the rest absorbs rounding of
#: coordinates up to about 1e6 m.
CULL_MARGIN = 1e-6


class CameraCull:
    """A set of cameras as arrays, one entry per camera in input order:
    position ``x`` and ``y``, sensing radius ``r``, half the field of view
    ``half`` and normalized ``facing``.  This is what the full-view kernel
    reads.

    Build it once per set of cameras (:meth:`of` converts poses); each
    segment can then be handed only the cameras that can reach it, with
    :meth:`near`, at the cost of one vectorized box test.
    """

    def __init__(self, x, y, r, half, facing):
        self.x, self.y, self.r, self.half, self.facing = x, y, r, half, facing
        self.reach = (float(r.max()) if r.size else 0.0) + CULL_MARGIN

    @classmethod
    def of(cls, cameras) -> "CameraCull":
        """The array view of ``cameras``, a list of :class:`CameraPose`;
        a view is returned as it is."""
        if isinstance(cameras, cls):
            return cameras
        cameras = list(cameras)
        return cls(
            np.array([c.position.x for c in cameras], dtype=float),
            np.array([c.position.y for c in cameras], dtype=float),
            np.array([c.params.r for c in cameras], dtype=float),
            np.array([c.params.phi / 2.0 for c in cameras], dtype=float),
            np.array([c.facing for c in cameras], dtype=float),
        )

    def __len__(self) -> int:
        return self.x.size

    def within(self, x0: float, x1: float, y0: float, y1: float) -> "CameraCull":
        """Cameras inside the box [x0, x1] x [y0, y1] grown by the largest
        sensing radius plus :data:`CULL_MARGIN`, in input order.

        Conservative: every camera left out is farther than ``r + EPS``
        from every point of the box, so the full-view test of any point
        in it gives the same verdict on the result as on all cameras.
        """
        keep = (
            (self.x >= x0 - self.reach)
            & (self.x <= x1 + self.reach)
            & (self.y >= y0 - self.reach)
            & (self.y <= y1 + self.reach)
        )
        return CameraCull(self.x[keep], self.y[keep], self.r[keep], self.half[keep], self.facing[keep])

    def near(self, seg: Segment) -> "CameraCull":
        """The cameras :meth:`within` the bounding box of ``seg``."""
        x0, x1 = sorted((seg.a.x, seg.b.x))
        y0, y1 = sorted((seg.a.y, seg.b.y))
        return self.within(x0, x1, y0, y1)


def covers(camera: CameraPose, p: Point2D) -> bool:
    """True if ``p`` lies inside the camera's sensing sector.

    The point must be closer than the sensing radius and the bearing from
    the camera to the point must deviate from the facing by less than half
    the field of view.  Both comparisons carry the EPS slack, so a point
    exactly on the boundary counts as covered.  A point coincident with
    the camera is covered (the deviation is undefined there).
    """
    dx = p.x - camera.position.x
    dy = p.y - camera.position.y
    d = math.hypot(dx, dy)
    if d <= EPS:
        return True
    if d >= camera.params.r + EPS:
        return False
    aim = bearing_between(camera.facing, math.atan2(dy, dx))
    return aim < camera.params.phi / 2.0 + EPS


def circular_gaps(bearings) -> list[float]:
    """Gaps between consecutive bearings on the circle, wrap included.

    A single bearing leaves one gap of 2*pi.  The gaps of any list sum
    to 2*pi.
    """
    if not bearings:
        raise ValueError("no bearings")
    ordered = sorted(normalize_bearing(b) for b in bearings)
    if len(ordered) == 1:
        return [TAU]
    gaps = [ordered[k + 1] - ordered[k] for k in range(len(ordered) - 1)]
    gaps.append(ordered[0] + TAU - ordered[-1])
    return gaps


def max_angular_gap(bearings) -> float:
    """Largest circular gap between consecutive bearings, in (0, 2*pi]."""
    return max(circular_gaps(bearings))


def _check_theta(theta: float) -> None:
    if not 0.0 < theta <= math.pi / 2 + EPS:
        raise ValueError(f"effective angle must be in (0, pi/2], got {theta}")


def _mod_tau(v):
    """``np.mod(v, TAU)``, bit for bit, in the steps numpy's float
    remainder performs (``fmod``, then :func:`_wrap_negative`), without
    its division."""
    return _wrap_negative(np.fmod(v, TAU))


def _wrap_negative(v):
    """``np.mod(v, TAU)``, bit for bit, for ``v`` in (-TAU, TAU), such as
    an ``arctan2`` result: ``TAU`` is added to the negative values.
    Adding ``0.0`` to the rest turns ``-0.0`` into ``+0.0``, as ``np.mod``
    does."""
    return v + np.where(v < 0.0, TAU, 0.0)


def _full_view_mask(xs, ys, cameras: CameraCull, theta, axis):
    """Vectorized full-view test for many points at once.

    Returns a boolean array, one entry per point.  This is the single
    implementation behind the point and segment predicates.  Each point's
    verdict depends on that point and the cameras alone, not on the other
    points of the batch.

    Camera rows that cannot contribute are dropped as soon as that is
    known: rows with no point in range before the aim angle is computed,
    then rows with no usable point before the bearing toward the camera
    is computed and the bearings are sorted.  Dropping a row is plain
    subsetting, so every surviving value, and therefore the verdict, is
    bit-identical to evaluating every row.  When no row survives every
    point fails.
    """
    npts = xs.size
    if not len(cameras):
        return np.zeros(npts, dtype=bool)

    dx = xs[None, :] - cameras.x[:, None]
    dy = ys[None, :] - cameras.y[:, None]
    dist = np.hypot(dx, dy)
    # Covering cameras that contribute a bearing; co-located ones do not.
    usable = (dist > EPS) & (dist < cameras.r[:, None] + EPS)
    rows = usable.any(axis=1)
    dx, dy, usable = dx[rows], dy[rows], usable[rows]
    half, fac = cameras.half[rows], cameras.facing[rows]
    aim = np.abs(_mod_tau(np.arctan2(dy, dx) - fac[:, None] + math.pi) - math.pi)
    usable &= aim < half[:, None] + EPS
    rows = usable.any(axis=1)
    if not rows.any():
        return np.zeros(npts, dtype=bool)
    dx, dy, usable = dx[rows], dy[rows], usable[rows]

    toward = _wrap_negative(np.arctan2(-dy, -dx))  # bearing point -> camera
    stack = [np.where(usable, toward, np.nan)]
    if axis is not None:
        a0 = normalize_bearing(axis)
        a1 = normalize_bearing(axis + math.pi)
        stack.append(np.full((1, npts), a0))
        stack.append(np.full((1, npts), a1))
    bearings = np.vstack(stack)

    counts = np.count_nonzero(~np.isnan(bearings), axis=0)
    ordered = np.sort(bearings, axis=0)  # NaNs sort to the end
    diffs = np.diff(ordered, axis=0)
    if diffs.shape[0]:
        inner = np.where(np.isnan(diffs), -np.inf, diffs).max(axis=0)
    else:
        inner = np.full(npts, -np.inf)
    last = np.take_along_axis(ordered, np.maximum(counts - 1, 0)[None, :], axis=0)[0]
    wrap = ordered[0] + TAU - last
    gap = np.maximum(inner, wrap)
    gap = np.where(counts <= 1, TAU, gap)
    return usable.any(axis=0) & (gap <= 2.0 * theta + EPS)


def full_view_covered_point(p: Point2D, cameras, theta: float, axis: float | None = 0.0) -> bool:
    """Decide whether every relevant facing direction at ``p`` is watched.

    A camera watches a facing direction if it covers ``p`` and the bearing
    from ``p`` to the camera lies within ``theta`` of that direction.  The
    point passes when the covering cameras' bearings leave no circular gap
    wider than ``2 * theta``.

    ``axis`` names the direction of the protected line through ``p``.  A
    crossing is transversal, so the two directions along the line itself
    are not required to be watched; they join the sweep as free bearings.
    Pass ``axis=None`` to require every direction to be watched.

    Cameras co-located with ``p`` cover it but contribute no bearing; a
    point with no usable bearing is never full-view covered.

    ``cameras`` is a list of :class:`CameraPose` or a :class:`CameraCull`.
    """
    _check_theta(theta)
    xs = np.array([p.x])
    ys = np.array([p.y])
    return bool(_full_view_mask(xs, ys, CameraCull.of(cameras), theta, axis)[0])


def segment_points(seg: Segment, t) -> tuple[np.ndarray, np.ndarray]:
    """x and y arrays of the points of ``seg`` at fractions ``t`` (an
    array) of the way from ``a`` to ``b``.  Every sampled test computes
    its points here, so equal fractions give bit-identical points."""
    return seg.a.x + t * (seg.b.x - seg.a.x), seg.a.y + t * (seg.b.y - seg.a.y)


def full_view_covered_segment(
    seg: Segment, cameras, theta: float, samples: int = 101, axis: float | None = 0.0
) -> bool:
    """True iff the full-view test passes on ``samples`` evenly spaced
    points of ``seg``, endpoints included.

    Sampling density is the caller's knob; the default of 101 matches the
    rest of the package.  ``cameras`` is a list of :class:`CameraPose` or
    a :class:`CameraCull`.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    _check_theta(theta)
    xs, ys = segment_points(seg, np.linspace(0.0, 1.0, samples))
    return bool(_full_view_mask(xs, ys, CameraCull.of(cameras), theta, axis).all())


def midpoint_shortcut_covered(seg: Segment, cameras, theta: float, axis: float | None = 0.0) -> bool:
    """Full-view test at the midpoint of ``seg`` only.

    Valid as a stand-in for whole-segment coverage only under the
    canonical two-row deployment geometry; elsewhere use
    :func:`full_view_covered_segment`.
    """
    return full_view_covered_point(seg.midpoint(), cameras, theta, axis=axis)
