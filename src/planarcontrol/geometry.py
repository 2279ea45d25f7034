"""Spiral-bounded regions, exact membership and distance to a boundary polyline.

A spiral region is bounded by the chord line through its centre c and the
half-turn arc from its other point.  Membership is read in the region's
complex frame w = (z - c)/delta of canonical points z (``CanonicalForm.frame``;
delta runs from c to the arc start): the chord line is the real axis, and the
arc, a logarithmic spiral, is e^{(k + i) phi} for phi in [0, pi] with
k = eig_real/eig_imag, also for clockwise systems and skewed bases.  A point
with Im w >= 0 has the closed-form arc margin

    margin = |delta| (e^{k phi} - |w|) * eig_imag / |lam|,   phi = arg w,

zero on the arc, positive inside, negative outside.  A log spiral meets every
ray from its centre at the constant angle arg lam, so the margin equals the
canonical-frame distance to the arc to first order.

The region enclosed by the periodic orbit is read in its system's unit frame
(``LinearControlSystem.unit``: v(u_min) = -1, v(u_max) = +1), where it has
one shape whatever the units: corners ±corner, and the symmetry w -> -w that
swaps its two halves across the real axis.  So a point with Im w < 0 is
reflected first, and the margin is that of the u_min arc, radius
(1 + corner) e^{k phi} about -1.  Points on the open chord come out interior.
"""

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import TraceZero
from .planar import CanonicalForm, UnitFrame, as_vector, line_coordinate
from .system import LinearControlSystem, equilibrium
from .controlset import BoundaryOrbit, half_turn_fixed_points, is_trace_zero, periodic_orbit

__all__ = [
    "Membership",
    "MembershipVerdict",
    "OrbitRegion",
    "SpiralRegion",
    "build_orbit_region",
    "polyline_distance",
]


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class MembershipVerdict:
    """Classification of a query point with its signed margin.

    ``OrbitRegion.contains`` builds it from the polar arc margin of the
    module docstring, which no chord line caps; boundary means |margin| is
    within the tolerance band.
    """

    verdict: Membership
    margin: float

    @property
    def is_exterior(self) -> bool:
        return self.verdict is Membership.EXTERIOR


@dataclass(frozen=True)
class SpiralRegion:
    """Region bounded by the chord line through v2 and the half-turn arc from v1.

    The arc runs half a turn about the centre v2 from v1 (see the module
    docstring); the region is the part of the arc's side of the chord line
    within the arc's radius at each polar angle.  ``frame`` puts v2 at 0 and
    v1 at 1; ``scale`` is the canonical distance between them.
    """

    v1: np.ndarray
    v2: np.ndarray
    canonical: CanonicalForm
    frame: UnitFrame = field(init=False, repr=False)
    scale: float = field(init=False, repr=False)

    def __post_init__(self):
        v1 = as_vector(self.v1)
        v2 = as_vector(self.v2)
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)
        frame = self.canonical.frame(v2, v1)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "scale", frame.length)

    def margins(self, points) -> np.ndarray:
        """Full region margin (chord and arc constraints) per point (n,)."""
        w = np.atleast_1d(self.frame.to_unit(points))
        return np.minimum(_arc_margins(w, 1.0, self.frame.k, self.scale), self.scale * w.imag)


def _arc_margins(rel: np.ndarray, radius: float, k: float, length: float) -> np.ndarray:
    """Margin length (radius e^{k phi} - |rel|)/hypot(1, k), phi = arg rel, of
    complex offsets ``rel`` (n,) from a spiral's centre; chord side ignored."""
    phi = np.angle(rel)
    # Fold onto [0, pi]: a point on the chord line can round to a negative
    # angle, -0.0 beside the arc start or -pi beside its end.
    phi = np.where(phi < -0.5 * math.pi, math.pi, np.maximum(phi, 0.0))
    return (length / math.hypot(1.0, k)) * (radius * np.exp(k * phi) - np.abs(rel))


@dataclass(frozen=True)
class OrbitRegion:
    """Closed region enclosed by the periodic boundary orbit.

    For a positive trace everything is built on the time-reversed system
    (same orbit as a set, arcs traversed the other way); ``work_system`` is
    the system actually used and always has a negative trace.  ``p_plus`` and
    ``p_minus`` are ordered so that on the line through the equilibria,
    in the signed coordinate along -A^-1 eta,
    p_minus < v(u_min) < v(u_max) < p_plus.  The region is closed-form data,
    read in ``work_system.unit`` (module docstring); ``orbit`` and
    ``boundary`` sample it on first read.
    """

    system: LinearControlSystem
    work_system: LinearControlSystem
    p_plus: np.ndarray
    p_minus: np.ndarray
    time_reversed: bool
    scale: float

    @functools.cached_property
    def orbit(self) -> BoundaryOrbit:
        """The periodic orbit of ``work_system``, 1,024 samples per arc."""
        return periodic_orbit(self.work_system, 1024)

    @functools.cached_property
    def boundary(self) -> np.ndarray:
        """Closed polyline of ``orbit``."""
        return self.orbit.polyline()

    def margins_many(self, points) -> np.ndarray:
        """Exact margin per point: the u_min arc margin about -1 in the unit
        frame, after reflecting points with Im w < 0 by w -> -w."""
        unit = self.work_system.unit
        w = np.atleast_1d(unit.to_unit(points))
        w = np.where(w.imag < 0.0, -w, w)
        return _arc_margins(w + 1.0, 1.0 + unit.corner, unit.k, unit.length)

    def margin(self, v) -> float:
        return float(self.margins_many(as_vector(v))[0])

    def contains(self, v) -> MembershipVerdict:
        """Membership in the closed enclosed region, with signed margin;
        boundary within 1e-6 * scale."""
        tol = 1e-6 * self.scale
        margin = self.margin(v)
        if margin > tol:
            return MembershipVerdict(Membership.INTERIOR, margin)
        if margin < -tol:
            return MembershipVerdict(Membership.EXTERIOR, margin)
        return MembershipVerdict(Membership.BOUNDARY, margin)

    def exterior_distance(self, v) -> float:
        """Euclidean distance to the region: 0 unless the point is exterior.

        Exterior distances are measured to ``boundary``, the polyline of
        1,024 samples per arc, and converge to the true distance as the
        sampling grows.  ``polyline_distance`` projects the point only onto
        the blocks of 32 boundary segments whose bounding box can hold the
        nearest one.
        """
        if self.contains(v).is_exterior:
            return float(polyline_distance(as_vector(v), self.boundary)[0])
        return 0.0


def build_orbit_region(sys: LinearControlSystem) -> OrbitRegion:
    """Construct the enclosed region of the periodic orbit of ``sys``.

    Raises
    ------
    TraceZero
        Inside the zero-trace band (no bounded enclosed region exists).
    """
    if is_trace_zero(sys):
        raise TraceZero("the enclosed region needs a nonzero trace")
    reversed_ = sys.trace > 0.0
    work = sys.time_reversed() if reversed_ else sys
    p_plus, p_minus = half_turn_fixed_points(work)
    # The corners are ±corner in the unit frame.
    scale = 2.0 * work.unit.length * work.unit.corner
    return OrbitRegion(
        system=sys,
        work_system=work,
        p_plus=p_plus,
        p_minus=p_minus,
        time_reversed=reversed_,
        scale=scale,
    )


def line_order_coordinates(region: OrbitRegion) -> dict[str, float]:
    """Signed coordinates along -A^-1 eta of the four line points.

    In this coordinate p_minus < v(u_min) < v(u_max) < p_plus.
    """
    work = region.work_system
    direction = -work.inv_a_eta
    return {
        "p_minus": line_coordinate(region.p_minus, direction),
        "v_u_min": line_coordinate(equilibrium(work, work.u_min), direction),
        "v_u_max": line_coordinate(equilibrium(work, work.u_max), direction),
        "p_plus": line_coordinate(region.p_plus, direction),
    }


# Segments per block of ``polyline_distance``'s pruned search, and elements
# per temporary array (16,384 float64 values, about 128 KB, stay in cache).
_BLOCK = 32
_CHUNK = 16384
# Relative widening of the block test.  A computed squared distance to a
# segment is within a few tens of ulps of (distance + longest segment)^2,
# and 256 ulps of the upper bound and of the longest squared segment length
# cover that with room to spare.
_SLACK = 256.0 * np.finfo(float).eps


def polyline_distance(points, polyline: np.ndarray) -> np.ndarray:
    """Euclidean distance from each query point to a polyline of m segments.

    ``points`` is (2,) or (n, 2); ``polyline`` is (m + 1, 2) with m >= 1.

    An exact two-stage search, branch-and-bound nearest-neighbour pruning
    (Fukunaga and Narendra, 1975) applied to runs of consecutive segments:

    1. The segments fall into blocks of 32 (fewer if m < 32), each with the
       axis-aligned box of its vertices.  For each point, the squared gap to
       a block's box is a lower bound on the squared distance to the block's
       segments, and the smallest squared distance to a block's first vertex
       is an upper bound on the answer.
    2. Only the blocks whose lower bound does not exceed the upper bound go
       through the clamped projection onto each of their segments.

    The upper bound is widened by ``_SLACK`` for rounding, so no block that
    holds the nearest segment is dropped, and the result is bit-for-bit that
    of projecting every point onto every segment.  Around a sampled orbit
    boundary an exterior point keeps about 3 of 64 blocks.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(polyline, dtype=float)
    m = len(poly) - 1
    if m < 1:
        raise ValueError("a polyline needs at least two vertices")
    ax, ay = poly[:-1, 0], poly[:-1, 1]
    dx, dy = poly[1:, 0] - ax, poly[1:, 1] - ay
    len2 = dx * dx + dy * dy
    inv_len2 = 1.0 / np.maximum(len2, 1e-300)
    block = min(_BLOCK, m)
    firsts = np.arange(0, m, block)
    nb = len(firsts)
    # Segment data per block, (5, nb, block); the last block repeats the
    # last segment, which leaves every minimum unchanged.
    segs = np.empty((5, nb * block))
    segs[:, :m] = ax, ay, dx, dy, inv_len2
    segs[:, m:] = segs[:, m - 1 : m]
    segs = segs.reshape(5, nb, block)
    # Box of each block's vertices: its own, then the next block's first.
    heads = poly[firsts]
    box_lo = np.minimum.reduceat(poly, firsts)
    box_hi = np.maximum.reduceat(poly, firsts)
    np.minimum(box_lo[:-1], heads[1:], out=box_lo[:-1])
    np.maximum(box_hi[:-1], heads[1:], out=box_hi[:-1])
    widen = _SLACK * len2.max()
    out = np.empty(len(pts))
    rows_per_chunk = max(1, _CHUNK // nb)
    pairs_per_chunk = max(1, _CHUNK // block)
    for lo in range(0, len(pts), rows_per_chunk):
        px = pts[lo : lo + rows_per_chunk, 0:1]  # (c, 1)
        py = pts[lo : lo + rows_per_chunk, 1:2]
        gx = np.maximum(np.maximum(box_lo[:, 0] - px, px - box_hi[:, 0]), 0.0)  # (c, nb)
        gy = np.maximum(np.maximum(box_lo[:, 1] - py, py - box_hi[:, 1]), 0.0)
        lower = gx * gx + gy * gy
        vx = px - heads[:, 0]
        vy = py - heads[:, 1]
        upper = (vx * vx + vy * vy).min(axis=1)
        bound = upper * (1.0 + _SLACK) + widen
        # "Not above" rather than "at most", so a NaN keeps every block.
        rows, blocks = np.nonzero(~(lower > bound[:, None]))
        best = np.empty(len(rows))  # per (point, block) pair
        for k in range(0, len(rows), pairs_per_chunk):
            r = rows[k : k + pairs_per_chunk]
            sx, sy, sdx, sdy, sinv = segs[:, blocks[k : k + pairs_per_chunk]]  # (K, block)
            rx = px[r] - sx
            ry = py[r] - sy
            t = rx * sdx
            t += ry * sdy
            t *= sinv
            np.clip(t, 0.0, 1.0, out=t)
            rx -= t * sdx
            ry -= t * sdy
            rx *= rx
            ry *= ry
            rx += ry
            pair_starts = np.arange(0, rx.size, block)
            best[k : k + pairs_per_chunk] = np.minimum.reduceat(rx.ravel(), pair_starts)
        # Every row keeps at least the block of its nearest first vertex.
        first = np.searchsorted(rows, np.arange(len(px)))
        out[lo : lo + rows_per_chunk] = np.sqrt(np.minimum.reduceat(best, first))
    return out
