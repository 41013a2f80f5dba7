"""Planar points, segments and camera poses, and the range checks.

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
call concurrently.  It imports no numpy; the full-view test over arrays
of cameras is :mod:`cambarrier.full_view`.
"""

import math
import numbers
import sys
from dataclasses import dataclass

TAU = 2.0 * math.pi
EPS = 1e-9

_FLOAT_MAX = sys.float_info.max


def normalize_bearing(angle: float) -> float:
    """Wrap an angle in radians to [0, 2*pi)."""
    a = math.fmod(angle, TAU)
    if a < 0.0:
        a += TAU
    if a >= TAU:  # fmod of a tiny negative can round back up to 2*pi
        a = 0.0
    return a


def slack_ceil(x: float) -> int:
    """Ceiling that forgives float noise just below an integer."""
    return math.ceil(x - EPS)


def check_real(name: str, value) -> None:
    """Reject a bool and anything that is not a real number (numpy's
    included), before a range test compares it."""
    if type(value) is not float and type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ValueError(f"{name} must be a number, got {size_text(value, repr)}")


def check_positive(name: str, value) -> None:
    """Reject anything but a number in (0, largest float]: a bool or a
    non-number by :func:`check_real`, the rest by a range test, not
    :func:`math.isfinite`: NaN fails it, and an int too large for a
    float fails it rather than raising ``OverflowError``."""
    check_real(name, value)
    if not 0.0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be positive and finite, got {size_text(value)}")


def size_text(value, text=str) -> str:
    """``value`` for an error message: as ``text`` (``str`` or ``repr``)
    writes it, but an int of more than 12 digits to 3 significant digits,
    as ``1.00e+400``, so that the message stays one short line.  A list or
    dict is written as ``repr`` writes it, each item by the same rule."""
    if type(value) is list or type(value) is dict:
        try:
            return _items_text(value)
        except RecursionError:  # nested deeper than the walk can follow
            return repr(value)
    if not isinstance(value, int) or -(10**12) < value < 10**12:
        return text(value)
    from decimal import Decimal  # imported here, off the start-up path

    return f"{Decimal(value):.3g}"


def _items_text(value) -> str:
    """:func:`size_text` of ``value`` as ``repr`` would write it."""
    if type(value) is list:
        return f"[{', '.join([_items_text(item) for item in value])}]"
    if type(value) is dict:
        return "{" + ", ".join([f"{_items_text(key)}: {_items_text(item)}" for key, item in value.items()]) + "}"
    return size_text(value, repr)


def check_integer(name: str, value, minimum: int) -> None:
    """Reject anything but an integer >= ``minimum``; bools and integral
    floats are rejected too, so that no value is silently converted."""
    if type(value) is int:  # the common case, without the ABC check below
        if value >= minimum:
            return
    elif not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= minimum:
        return
    raise ValueError(f"{name} must be an integer >= {minimum}, got {size_text(value, repr)}")


@dataclass(frozen=True)
class Point2D:
    """A point in the plane, meters."""

    x: float
    y: float

    def __post_init__(self):
        # A range test, not math.isfinite: an int too large for a float
        # fails it rather than raising OverflowError.
        if not (-_FLOAT_MAX <= self.x <= _FLOAT_MAX and -_FLOAT_MAX <= self.y <= _FLOAT_MAX):
            raise ValueError(f"coordinates must be finite, got ({size_text(self.x)}, {size_text(self.y)})")

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class CameraParams:
    """Hardware envelope of a camera sensor.

    r is the sensing radius in meters, phi the field-of-view angle and
    theta the recognition half-window, both in radians.  A subject facing
    within theta of the bearing toward a covering camera is recognized.
    """

    r: float
    phi: float
    theta: float

    def __post_init__(self):
        check_positive("sensing radius", self.r)
        check_real("field of view", self.phi)
        if not 0.0 < self.phi <= TAU + EPS:
            raise ValueError(f"field of view must be in (0, 2*pi], got {size_text(self.phi)}")
        _check_theta(self.theta)


@dataclass(frozen=True)
class CameraPose:
    """A camera with an identity, a position and a facing bearing."""

    id: int
    position: Point2D
    facing: float
    params: CameraParams

    def __post_init__(self):
        check_integer("camera id", self.id, 0)
        check_real("facing", self.facing)
        # The range test of Point2D: NaN fails it, and an int too large
        # for a float fails it rather than raising OverflowError.
        if not -_FLOAT_MAX <= self.facing <= _FLOAT_MAX:
            raise ValueError(f"facing must be finite, got {size_text(self.facing)}")
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


def _check_theta(theta: float) -> None:
    check_real("effective angle", theta)
    if not 0.0 < theta <= math.pi / 2 + EPS:
        raise ValueError(f"effective angle must be in (0, pi/2], got {size_text(theta)}")


#: Most cameras a scenario may sweep or a line deployment may place.  It
#: is about 20 times the largest count the tests, demos and benchmark use;
#: each trial holds arrays of this length, so a larger count mostly means
#: a run that does not fit in memory.
MAX_CAMERAS = 1_000_000
