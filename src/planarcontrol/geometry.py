"""Spiral-bounded regions, membership tests, and the invariance margin function.

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

The region enclosed by the periodic orbit is symmetric under the reflection
v -> v(u_min) + v(u_max) - v, which swaps its two half regions across their
shared chord line (through p_minus, v(u_min), v(u_max) and p_plus).  So only
the half about v(u_min) is kept: a point below its chord line is reflected
first, and points on the open chord come out interior.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    OutOfDomain,
    PreconditionViolated,
    TraceZero,
    ZeroVector,
)
from .planar import (
    QUARTER_TURN,
    CanonicalForm,
    UnitFrame,
    as_vector,
    line_coordinate,
    spiral_arc,
)
from .system import LinearControlSystem, equilibrium
from .controlset import BoundaryOrbit, is_trace_zero, periodic_orbit

__all__ = [
    "InvarianceReport",
    "Membership",
    "MembershipVerdict",
    "OrbitRegion",
    "SpiralRegion",
    "angle_between",
    "build_orbit_region",
    "check_region_invariance",
    "polyline_distance",
    "region_contains",
    "tangent_margin",
    "tangent_margin_grid",
]


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class MembershipVerdict:
    """Classification of a query point with its signed margin.

    The margin is the polar margin of the module docstring (for a spiral
    region, capped by the signed distance to the chord line); boundary means
    |margin| is within the tolerance band.
    """

    verdict: Membership
    margin: float

    @property
    def is_exterior(self) -> bool:
        return self.verdict is Membership.EXTERIOR


def _verdict(margin: float, tol: float) -> MembershipVerdict:
    if margin > tol:
        return MembershipVerdict(Membership.INTERIOR, margin)
    if margin < -tol:
        return MembershipVerdict(Membership.EXTERIOR, margin)
    return MembershipVerdict(Membership.BOUNDARY, margin)


def angle_between(a, b) -> float:
    """Angle in [0, pi] between two nonzero vectors.

    Raises
    ------
    ZeroVector
        If either argument has zero norm.
    """
    a = as_vector(a)
    b = as_vector(b)
    na = math.hypot(a[0], a[1])
    nb = math.hypot(b[0], b[1])
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("angle requires nonzero vectors")
    c = float(a @ b) / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))


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

    def _arc_margins(self, w: np.ndarray) -> np.ndarray:
        """Polar arc margin of frame coordinates w (complex, (n,)), chord
        side ignored."""
        phi = np.angle(w)
        # Fold onto [0, pi]: a point on the chord line can round to a
        # negative angle, -0.0 beside the arc start or -pi beside its end.
        phi = np.where(phi < -0.5 * math.pi, math.pi, np.maximum(phi, 0.0))
        k = self.frame.k
        return (self.scale / math.hypot(1.0, k)) * (np.exp(k * phi) - np.abs(w))

    def margins(self, points) -> np.ndarray:
        """Full region margin (chord and arc constraints) per point (n,)."""
        w = np.atleast_1d(self.frame.to_unit(points))
        return np.minimum(self._arc_margins(w), self.scale * w.imag)


def region_contains(region: SpiralRegion, v, tol: float | None = None) -> MembershipVerdict:
    """Membership of a point in a spiral region, with signed margin."""
    if tol is None:
        tol = 1e-6 * region.scale
    margin = float(region.margins(as_vector(v))[0])
    return _verdict(margin, tol)


def tangent_margin(cf: CanonicalForm, s: float, tau: float, w1, w2, v1) -> float:
    """Signed offset of the moving spiral point against one arc tangent.

    All point arguments are canonical-frame vectors with the region base point
    at the origin: the region is spanned by ``v1`` and 0, ``w2`` lies on the
    segment (0, v1), and ``w1`` starts the moving spiral.  The value is

        < exp(s Ac)(w1 - w2) + w2 - exp(tau Ac) v1 ,  perp(Ac exp(tau Ac) v1) >

    which is nonnegative on its whole parameter domain when eig_real < 0;
    that nonnegativity is what the invariance check exercises.

    The domain is ``0 <= s <= (pi - sigma)/eig_imag`` and
    ``0 <= tau <= pi/eig_imag``, where sigma is the angle between v1 and
    w1 - w2.

    Raises
    ------
    OutOfDomain
        If (s, tau) falls outside the domain rectangle.
    PreconditionViolated
        If w2 is not on the segment (0, v1) or w1 - w2 vanishes.
    """
    g = tangent_margin_grid(cf, w1, w2, v1, s_values=[s], tau_values=[tau])
    return float(g[0, 0])


def _check_margin_config(cf: CanonicalForm, w1, w2, v1) -> float:
    """Validate the (w1, w2, v1) configuration; return sigma."""
    v1 = as_vector(v1)
    w1 = as_vector(w1)
    w2 = as_vector(w2)
    nv1 = math.hypot(v1[0], v1[1])
    if nv1 == 0.0:
        raise PreconditionViolated("v1 must be nonzero")
    diff = w1 - w2
    if math.hypot(diff[0], diff[1]) <= 1e-12 * nv1:
        raise PreconditionViolated("w1 - w2 is numerically zero")
    coord = float(w2 @ v1) / (nv1 * nv1)
    off = w2 - coord * v1
    if math.hypot(off[0], off[1]) > 1e-9 * (1.0 + nv1):
        raise PreconditionViolated("w2 must lie on the segment (0, v1)")
    if not -1e-9 <= coord <= 1.0 + 1e-9:
        raise PreconditionViolated("w2 must lie between 0 and v1")
    return angle_between(v1, diff)


def tangent_margin_grid(
    cf: CanonicalForm,
    w1,
    w2,
    v1,
    s_values=None,
    tau_values=None,
    s_count: int = 64,
    tau_count: int = 64,
) -> np.ndarray:
    """Tangent margins on a grid of (s, tau); rows index s, columns tau.

    With ``s_values``/``tau_values`` omitted, uses uniform grids over the full
    domain rectangle; explicit values are validated against it.
    """
    v1 = as_vector(v1)
    w1 = as_vector(w1)
    w2 = as_vector(w2)
    sigma = _check_margin_config(cf, w1, w2, v1)
    s_max = (math.pi - sigma) / cf.eig_imag
    tau_max = math.pi / cf.eig_imag
    if s_values is None:
        s_values = np.linspace(0.0, s_max, s_count)
    else:
        s_values = np.asarray(s_values, dtype=float)
        slack = 1e-9 * (1.0 + tau_max)
        if np.any(s_values < -slack) or np.any(s_values > s_max + slack):
            raise OutOfDomain(
                f"s must lie in [0, {s_max:.6g}] (sigma = {sigma:.6g})"
            )
    if tau_values is None:
        tau_values = np.linspace(0.0, tau_max, tau_count)
    else:
        tau_values = np.asarray(tau_values, dtype=float)
        slack = 1e-9 * (1.0 + tau_max)
        if np.any(tau_values < -slack) or np.any(tau_values > tau_max + slack):
            raise OutOfDomain(f"tau must lie in [0, {tau_max:.6g}]")
    diff = w1 - w2
    moving = spiral_arc(cf.lam, s_values, diff, diff @ QUARTER_TURN.T) + w2
    ref = spiral_arc(cf.lam, tau_values, v1, v1 @ QUARTER_TURN.T)  # (nt, 2)
    tangents = cf.eig_real * ref + cf.eig_imag * (ref @ QUARTER_TURN.T)
    normals = tangents @ QUARTER_TURN.T  # (nt, 2)
    return moving @ normals.T - np.sum(ref * normals, axis=1)


@dataclass(frozen=True)
class InvarianceReport:
    """Worst membership margin of a moving spiral sampled over its time span."""

    worst_margin: float
    worst_s: float
    sigma: float
    samples: int


def check_region_invariance(
    region: SpiralRegion, w1, w2, s_samples: int = 128
) -> InvarianceReport:
    """Check that a spiral started inside the region stays inside it.

    The spiral around ``w2`` (on the chord) through ``w1`` (in the region) is
    sampled at ``s_samples`` times spanning ``[0, (pi - sigma)/eig_imag]``,
    where sigma is the canonical-frame angle between the chord direction and
    ``w1 - w2``; the report carries the worst membership margin over the
    samples.

    Raises
    ------
    PreconditionViolated
        If eig_real >= 0, w2 is off the chord segment, w1 - w2 is numerically
        zero, or w1 lies outside the region.
    """
    cf = region.canonical
    if cf.eig_real >= 0.0:
        raise PreconditionViolated("invariance requires eig_real < 0")
    # Frame coordinates: the chord segment is [0, 1] and lengths are in
    # units of region.scale.
    a = region.frame.to_unit(as_vector(w1))
    b = region.frame.to_unit(as_vector(w2))
    if abs(b.imag) * region.scale > 1e-9 * (1.0 + region.scale):
        raise PreconditionViolated("w2 must lie on the chord segment")
    if not -1e-9 <= b.real <= 1.0 + 1e-9:
        raise PreconditionViolated("w2 must lie between v1 and v2")
    diff = a - b
    if abs(diff) < 1e-12:
        raise PreconditionViolated("w1 - w2 is numerically zero")
    start = float(region.margins(w1)[0])
    if start < -1e-6 * region.scale:
        raise PreconditionViolated("w1 must lie in the region")
    sigma = abs(math.atan2(diff.imag, diff.real))
    s = np.linspace(0.0, (math.pi - sigma) / cf.eig_imag, s_samples)
    moving = b + spiral_arc(cf.lam, s, diff, 1j * diff).ravel()
    margins = region.margins(region.frame.from_unit(moving))
    worst = int(np.argmin(margins))
    return InvarianceReport(
        worst_margin=float(margins[worst]),
        worst_s=float(s[worst]),
        sigma=sigma,
        samples=s_samples,
    )


@dataclass(frozen=True)
class OrbitRegion:
    """Closed region enclosed by the periodic boundary orbit.

    For a positive trace everything is built on the time-reversed system
    (same orbit as a set, arcs traversed the other way); ``work_system`` is
    the system actually used and always has a negative trace.  ``p_plus`` and
    ``p_minus`` are ordered so that on the line through the equilibria,
    in the signed coordinate along -A^-1 eta,
    p_minus < v(u_min) < v(u_max) < p_plus.
    """

    system: LinearControlSystem
    work_system: LinearControlSystem
    orbit: BoundaryOrbit
    half_plus: SpiralRegion
    boundary: np.ndarray
    time_reversed: bool
    scale: float

    @property
    def p_plus(self) -> np.ndarray:
        return self.orbit.p_plus

    @property
    def p_minus(self) -> np.ndarray:
        return self.orbit.p_minus

    def margins_many(self, points) -> np.ndarray:
        """Exact margin per point: the arc margin of ``half_plus``, after
        reflecting points below its chord line through the midpoint of the
        equilibria."""
        half = self.half_plus
        w = np.atleast_1d(half.frame.to_unit(points))
        # In half_plus's frame v(u_min) is 0, v(u_max) is 1 - q and p_plus
        # is 1, so the reflection through the midpoint of the equilibria is
        # w -> 1 - q - w.
        mirror = half.frame.one_minus_q
        return half._arc_margins(np.where(w.imag < 0.0, mirror - w, w))

    def margin(self, v) -> float:
        return float(self.margins_many(as_vector(v))[0])

    def contains(self, v, tol: float | None = None) -> MembershipVerdict:
        """Membership in the closed enclosed region, with signed margin."""
        if tol is None:
            tol = 1e-6 * self.scale
        return _verdict(self.margin(v), tol)

    def exterior_distance(self, v) -> float:
        """Euclidean distance to the region: 0 unless the point is exterior.

        Exterior distances are measured to the sampled boundary polyline and
        converge to the true distance as the sampling grows.
        """
        if self.contains(v).is_exterior:
            return float(polyline_distance(as_vector(v), self.boundary)[0])
        return 0.0


def build_orbit_region(sys: LinearControlSystem, samples_per_arc: int = 1024) -> OrbitRegion:
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
    orbit = periodic_orbit(work, samples_per_arc)
    v_min = equilibrium(work, work.u_min)
    half_plus = SpiralRegion(orbit.p_plus, v_min, work.canonical)
    # The corners are ±corner in the unit frame.
    scale = 2.0 * work.unit.length * work.unit.corner
    return OrbitRegion(
        system=sys,
        work_system=work,
        orbit=orbit,
        half_plus=half_plus,
        boundary=orbit.polyline(),
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
