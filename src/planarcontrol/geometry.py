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
        sampling grows.
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


def polyline_distance(points, polyline: np.ndarray) -> np.ndarray:
    """Euclidean distance from each query point to a polyline (segments).

    ``points`` is (2,) or (n, 2); ``polyline`` is (m, 2) with m >= 2.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(polyline, dtype=float)
    ax, ay = poly[:-1, 0], poly[:-1, 1]
    dx, dy = poly[1:, 0] - ax, poly[1:, 1] - ay
    inv_len2 = 1.0 / np.maximum(dx * dx + dy * dy, 1e-300)
    out = np.empty(len(pts))
    # Rows per chunk keep each (chunk, m) temporary near 128 KB, in cache.
    chunk = max(1, 16384 // max(1, len(ax)))
    for lo in range(0, len(pts), chunk):
        rx = pts[lo : lo + chunk, 0:1] - ax  # (c, m)
        ry = pts[lo : lo + chunk, 1:2] - ay
        t = rx * dx
        t += ry * dy
        t *= inv_len2
        np.clip(t, 0.0, 1.0, out=t)
        rx -= t * dx
        ry -= t * dy
        rx *= rx
        ry *= ry
        rx += ry
        out[lo : lo + chunk] = np.sqrt(rx.min(axis=1))
    return out
