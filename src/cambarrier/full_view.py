"""The full-view kernel: the full-view test of many points against an
array of cameras, and the point and segment predicates built on it.

Conventions are those of :mod:`cambarrier.geometry`: bearings in [0,
2*pi), and an absolute slack ``EPS`` on every distance and angle
comparison.  The planar types live there, without numpy; this module
is the one that evaluates coverage on arrays.
"""

import functools
import math

import numpy as np

from .geometry import EPS, TAU, CameraPose, Point2D, Segment, _check_theta, normalize_bearing


def normalize_bearings(angles) -> np.ndarray:
    """:func:`normalize_bearing` on every entry of an array, bit for bit."""
    a = np.fmod(np.asarray(angles, dtype=float), TAU)
    a = np.where(a < 0.0, a + TAU, a)
    a[a >= TAU] = 0.0
    return a


#: Slack added to the sensing radius when culling cameras by position.
#: It must exceed EPS, because the kernel counts a camera as in range
#: while ``dist < r + EPS``; the rest absorbs rounding of coordinates up
#: to :data:`CULL_SCALE`.
CULL_MARGIN = 1e-6

#: Largest coordinate magnitude, in meters, for which :meth:`Cameras.near`
#: drops cameras; past it every camera is kept.
CULL_SCALE = 1e6

#: Distance from a segment's line, in meters, within which
#: :meth:`Cameras.near` keeps a camera whatever its facing: the bearings
#: from such a camera to the segment are ill-conditioned.
CULL_LINE = 1e-3

#: Slack, in radians, added to half the field of view when culling
#: cameras by facing.  The bound is worked out in :meth:`Cameras.near`.
CULL_ANGLE = 1e-5


class Cameras:
    """A set of cameras as arrays, one entry per camera in input order:
    position ``x`` and ``y``, normalized ``facing``, sensing radius ``r``
    and half the field of view ``half``.  The full-view kernel reads these.
    Cameras with an identity also hold ``ids``, a list of ints, and
    ``params``, a list of :class:`CameraParams` that cameras with the same
    hardware share; relocation reads those.  Drawn cameras have neither,
    and their ``ids``, ``params`` and ``poses`` are None.

    Build it once per set of cameras (:meth:`of` converts poses); each
    region can then be handed only the cameras that can reach it: a box
    with :meth:`within`, a segment with :meth:`near`.

    Cameras with ids read as a sequence of :class:`CameraPose`, each made
    when it is read; cameras made by :meth:`of` keep their poses and hand
    those back, so their coordinates stay as given (an ``int`` stays an
    ``int``).
    """

    def __init__(self, x, y, facing, r, half, ids=None, params=None, poses=None):
        self.x, self.y, self.facing, self.r, self.half = x, y, facing, r, half
        self.ids, self.params, self.poses = ids, params, poses
        self.reach = (float(r.max()) if r.size else 0.0) + CULL_MARGIN

    @classmethod
    def of(cls, cameras) -> "Cameras":
        """The cameras of ``cameras``, an iterable of :class:`CameraPose`;
        a :class:`Cameras` is returned as it is."""
        if isinstance(cameras, cls):
            return cameras
        poses = list(cameras)
        params = [c.params for c in poses]
        return cls(
            np.array([c.position.x for c in poses], dtype=float),
            np.array([c.position.y for c in poses], dtype=float),
            np.array([c.facing for c in poses], dtype=float),
            np.array([p.r for p in params], dtype=float),
            np.array([p.phi / 2.0 for p in params], dtype=float),
            [c.id for c in poses],
            params,
            poses,
        )

    def __len__(self) -> int:
        return self.x.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        if self.poses is not None:
            return self.poses[k]
        return CameraPose(self.ids[k], Point2D(float(self.x[k]), float(self.y[k])), float(self.facing[k]), self.params[k])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Cameras):
            return NotImplemented
        return (
            all(np.array_equal(getattr(self, a), getattr(other, a)) for a in ("x", "y", "facing", "r", "half"))
            and self.ids == other.ids
            and self.params == other.params
        )

    def take(self, rows) -> "Cameras":
        """The cameras at the indices ``rows`` (an integer array or list),
        in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        columns = [a[rows] for a in (self.x, self.y, self.facing, self.r, self.half)]
        if self.ids is not None:
            listed = rows.tolist()
            for items in (self.ids, self.params, self.poses):
                columns.append(None if items is None else [items[k] for k in listed])
        return Cameras(*columns)

    def coordinates(self) -> tuple[list, list]:
        """The x and y of every camera as given: the poses' own numbers,
        or the values of the arrays."""
        if self.poses is None:
            return self.x.tolist(), self.y.tolist()
        return [c.position.x for c in self.poses], [c.position.y for c in self.poses]

    def within(self, x0: float, x1: float, y0: float, y1: float) -> "Cameras":
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
        # One index array is cheaper to apply five times than a mask.
        return self.take(np.flatnonzero(keep))

    def near(self, seg: Segment) -> "Cameras":
        """The cameras whose sensing sector can reach ``seg``, in input
        order.  A camera is kept when both hold:

        * its distance to the segment is below ``r +`` :data:`CULL_MARGIN`;
        * its facing is within ``half + EPS +`` :data:`CULL_ANGLE` of the
          arc of bearings from it to the segment, taken as the short arc
          between the bearings to the endpoints (it holds every point of
          the segment, by convexity); or it lies within :data:`CULL_LINE`
          of the segment's line, where that arc is ill-conditioned.

        Conservative: every camera left out has no usable (point, camera)
        pair in the kernel's arithmetic for any point
        :func:`segment_points` samples on ``seg``, so the full-view test
        of those points gives the same verdict on the result as on all
        cameras.  Take the segment's coordinates and the radii of at most
        :data:`CULL_SCALE` (1e6) in magnitude; every camera the range test
        can keep then lies within 2e6 of the origin, where an ulp is
        2.3e-10.  A sampled point lies within about 5e-10 of the segment,
        and the kernel's offsets to a camera are off by at most 1.5e-9.
        Distances are then off by far less than the ``CULL_MARGIN - EPS``
        of slack.  A camera at distance ``h >= CULL_LINE`` from the line
        sees every point at least ``h`` away, so the kernel's bearing to a
        sample is off by at most ``1.5e-9 / h <= 1.5e-6`` from the bearing
        to a point of the arc, and this test's endpoint bearings by less;
        ``CULL_ANGLE`` covers both several times over.  Past
        ``CULL_SCALE`` every camera is kept.
        """
        ax, ay, bx, by = seg.a.x, seg.a.y, seg.b.x, seg.b.y
        if not len(self) or max(abs(ax), abs(ay), abs(bx), abs(by), self.reach) > CULL_SCALE:
            return self
        ux, uy = bx - ax, by - ay
        length = math.hypot(ux, uy)
        px, py = self.x - ax, self.y - ay
        # Offset from the nearest point of the segment.
        t = np.minimum(np.maximum((px * ux + py * uy) / (length * length), 0.0), 1.0)
        qx, qy = px - t * ux, py - t * uy
        keep = qx * qx + qy * qy < (self.r + CULL_MARGIN) ** 2
        if self.half.min() + EPS + CULL_ANGLE < math.pi:
            to_a = np.arctan2(ay - self.y, ax - self.x)
            turn = np.arctan2(by - self.y, bx - self.x) - to_a
            turn -= TAU * np.rint(turn / TAU)  # the short arc, in [-pi, pi]
            off = self.facing - (to_a + turn / 2.0)
            off -= TAU * np.rint(off / TAU)
            sees = np.abs(off) <= np.abs(turn) / 2.0 + self.half + (EPS + CULL_ANGLE)
            sees |= np.abs(ux * py - uy * px) < CULL_LINE * length
            keep &= sees
        return self.take(np.flatnonzero(keep))


def _mod_tau(v):
    """``np.mod(v, TAU)``, bit for bit, in the steps numpy's float
    remainder performs (``fmod``, then :func:`_wrap_negative`), without
    its division.  ``v`` itself is left alone.

    ``fmod`` runs only where it can change a value: IEEE ``fmod(v, TAU)``
    is ``v`` itself when ``|v| < TAU``.  NaN and infinities fail that
    test, so they go through ``fmod`` too; one maximum tells whether any
    value needs it."""
    if v.size and not np.abs(v).max() < TAU:
        far = ~(np.abs(v) < TAU)
        v = v.copy()
        v[far] = np.fmod(v[far], TAU)
    return _wrap_negative(v)


def _wrap_negative(v):
    """``np.mod(v, TAU)``, bit for bit, for ``v`` in (-TAU, TAU), such as
    an ``arctan2`` result: ``TAU`` is added to the negative values.
    Adding ``0.0`` to the rest turns ``-0.0`` into ``+0.0``, as ``np.mod``
    does."""
    return v + np.where(v < 0.0, TAU, 0.0)


#: Relative half-width of the band around a squared threshold inside
#: which :func:`_in_range` asks ``np.hypot``.  Far wider than the few ulps
#: by which ``dx*dx + dy*dy`` can differ from the square of ``np.hypot``.
_SQUARE_BAND = 1e-12
_EPS2_LO = EPS * EPS * (1.0 - _SQUARE_BAND)
_EPS2_HI = EPS * EPS * (1.0 + _SQUARE_BAND)


def _in_range(dx, dy, r):
    """``(dist > EPS) & (dist < r + EPS)`` with ``dist = np.hypot(dx, dy)``,
    bit for bit, for offsets ``dx, dy`` of shape (cameras, points) and one
    radius per camera row.

    Each pair is decided from ``s = dx*dx + dy*dy`` against the squared
    thresholds; ``np.hypot``, the referee, runs only on the pairs squaring
    cannot settle: ``s`` within a relative ``_SQUARE_BAND`` of either
    squared threshold, ``s`` not finite, and every pair of a row whose
    squared threshold overflows.  An ``s`` that overflows past a finite
    band is settled: the pair is out of range."""
    s = dx * dx
    s += dy * dy
    reach = r + EPS
    square = reach * reach
    lo, hi = square * (1.0 - _SQUARE_BAND), square * (1.0 + _SQUARE_BAND)
    overflow = ~(hi < np.inf)
    if overflow.any():
        lo[overflow] = hi[overflow] = np.nan  # NaN settles nothing
    inside = s < lo[:, None]
    usable = inside & (s > _EPS2_HI)
    outside = s > hi[:, None]
    n_in, n_usable = np.count_nonzero(inside), np.count_nonzero(usable)
    if n_in + np.count_nonzero(outside) == s.size and n_usable == n_in:
        return usable
    unsure = ~(usable | outside | (s < _EPS2_LO))
    dist = np.hypot(dx[unsure], dy[unsure])
    usable[unsure] = (dist > EPS) & (dist < np.broadcast_to(reach[:, None], s.shape)[unsure])
    return usable


#: Most camera rows times points one kernel pass evaluates at a time:
#: larger batches are split by points.  One point of ``MAX_CAMERAS``
#: cameras fits, and the benchmark's calls are far below it.
KERNEL_BUDGET = 1 << 20


def _full_view_mask(xs, ys, cameras: Cameras, theta, axis):
    """Vectorized full-view test for many points at once.

    Returns a boolean array, one entry per point.  This is the single
    implementation behind the point and segment predicates.  Each point's
    verdict depends on that point and the cameras alone, not on the other
    points of the batch, so the points are evaluated in chunks of at most
    :data:`KERNEL_BUDGET` (camera, point) pairs.
    """
    step = max(1, KERNEL_BUDGET // max(len(cameras), 1))
    if xs.size <= step:
        return _full_view_chunk(xs, ys, cameras, theta, axis)
    return np.concatenate(
        [_full_view_chunk(xs[k : k + step], ys[k : k + step], cameras, theta, axis) for k in range(0, xs.size, step)]
    )


def _full_view_chunk(xs, ys, cameras: Cameras, theta, axis):
    """:func:`_full_view_mask` on one batch of points.

    Camera rows that cannot contribute are dropped as soon as that is
    known: rows with no point in range before the aim angle is computed,
    then rows with no usable point before the bearing toward the camera
    is computed and the bearings are sorted (no copy is made when every
    row stays).  Dropping a row is plain subsetting, so every surviving
    value, and therefore the verdict, is bit-identical to evaluating
    every row.  When no row survives every point fails.
    """
    npts = xs.size
    fail = np.zeros(npts, dtype=bool)
    if not len(cameras):
        return fail

    dx = xs[None, :] - cameras.x[:, None]
    dy = ys[None, :] - cameras.y[:, None]
    # Covering cameras that contribute a bearing; co-located ones do not.
    usable = _in_range(dx, dy, cameras.r)
    rows = usable.any(axis=1)
    if not rows.any():
        return fail
    half, fac = cameras.half, cameras.facing
    if not rows.all():
        dx, dy, usable = dx[rows], dy[rows], usable[rows]
        half, fac = half[rows], fac[rows]
    aim = np.arctan2(dy, dx)
    aim -= fac[:, None]
    aim += math.pi
    aim = _mod_tau(aim)
    aim -= math.pi
    np.abs(aim, out=aim)
    usable &= aim < half[:, None] + EPS
    rows = usable.any(axis=1)
    if not rows.any():
        return fail
    if not rows.all():
        dx, dy, usable = dx[rows], dy[rows], usable[rows]

    # Bearings point -> camera, then the two free bearings along the axis.
    free = () if axis is None else (normalize_bearing(axis), normalize_bearing(axis + math.pi))
    k = usable.shape[0]
    bearings = np.empty((k + len(free), npts))
    np.arctan2(np.negative(dy, out=dy), np.negative(dx, out=dx), out=bearings[:k])
    bearings[:k] += np.where(bearings[:k] < 0.0, TAU, 0.0)  # _wrap_negative
    bearings[k:] = np.array(free)[:, None]
    # An unusable bearing becomes a copy of its point's smallest bearing:
    # that adds only zero gaps and keeps the first and last sorted
    # bearings and the largest gap, so no NaN has to be swept around.
    unusable = ~usable
    np.copyto(bearings[:k], np.inf, where=unusable)
    low = bearings.min(axis=0)
    low[low == np.inf] = 0.0  # no bearing at all; the point fails below
    np.copyto(bearings[:k], low, where=unusable)
    bearings.sort(axis=0)
    gap = bearings[0] + TAU - bearings[-1]
    if bearings.shape[0] > 1:
        np.maximum(gap, (bearings[1:] - bearings[:-1]).max(axis=0), out=gap)
    if axis is None:
        gap[np.count_nonzero(usable, axis=0) <= 1] = TAU
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

    ``cameras`` is a list of :class:`CameraPose` or a :class:`Cameras`.
    """
    _check_theta(theta)
    xs = np.array([p.x])
    ys = np.array([p.y])
    return bool(_full_view_mask(xs, ys, Cameras.of(cameras), theta, axis)[0])


@functools.lru_cache(maxsize=16, typed=True)
def sample_fractions(samples: int) -> np.ndarray:
    """``np.linspace(0, 1, samples)``, made once per ``samples`` and kept
    read-only: the fractions of a segment the sampled tests read."""
    t = np.linspace(0.0, 1.0, samples)
    t.flags.writeable = False
    return t


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
    a :class:`Cameras`.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    _check_theta(theta)
    xs, ys = segment_points(seg, sample_fractions(samples))
    return bool(_full_view_mask(xs, ys, Cameras.of(cameras), theta, axis).all())
