"""Half-turn fixed points, the periodic boundary orbit, and classification.

For nonzero trace, alternating the extreme controls for one half period each
defines an affine bounce map on the equilibrium line; its fixed points are the
two outermost points of a periodic orbit that bounds the (unique) control set
with nonempty interior.  Zero trace makes the whole plane controllable.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TraceZero
from .planar import line_coordinate
from .system import LinearControlSystem, flow_many

__all__ = [
    "BoundaryOrbit",
    "Classification",
    "SweepPoint",
    "TRACE_ZERO_BAND",
    "classify",
    "half_turn_fixed_points",
    "is_trace_zero",
    "periodic_orbit",
    "sweep_control_ranges",
]

# |tr A| <= TRACE_ZERO_BAND * ||A||_F counts as zero trace: the orbit data
# blows up like 1/(1 - e^{pi*tr/(2*eig_imag)}) there, so a hard band beats
# any interpolation.
TRACE_ZERO_BAND = 1e-10


def is_trace_zero(sys: LinearControlSystem) -> bool:
    # hypot gives ||A||_F without overflow or underflow at any scale.
    return abs(sys.trace) <= TRACE_ZERO_BAND * math.hypot(*sys.a.ravel().tolist())


class Classification(Enum):
    """Shape of the control set(s), decided by the sign of the trace."""

    CONTROLLABLE_TRACE_ZERO = "controllable"
    CLOSED_CONTROL_SET = "closed"
    OPEN_CONTROL_SET_WITH_BOUNDARY_ORBIT = "open"


def classify(sys: LinearControlSystem) -> Classification:
    """Classify the system by trace sign (complex spectrum is guaranteed)."""
    if is_trace_zero(sys):
        return Classification.CONTROLLABLE_TRACE_ZERO
    if sys.trace < 0.0:
        return Classification.CLOSED_CONTROL_SET
    return Classification.OPEN_CONTROL_SET_WITH_BOUNDARY_ORBIT


def half_turn_fixed_points(sys: LinearControlSystem) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form fixed points (p_plus, p_minus) of the composed half-turn maps.

    They are the orbit corners ±(1 + q)/(1 - q) of the half-turn algebra
    (:mod:`planarcontrol.planar`), in original coordinates and for either
    sign of the trace: one half turn under u_min maps p_plus to p_minus, and
    one under u_max maps it back.

    Raises
    ------
    TraceZero
        Inside the zero-trace band, where the formulas degenerate.
    """
    if is_trace_zero(sys):
        raise TraceZero("half-turn fixed points need a nonzero trace")
    c = (sys.u_max - sys.u_min) / sys.unit.one_minus_q
    return -(c + sys.u_min) * sys.inv_a_eta, (c - sys.u_max) * sys.inv_a_eta


@dataclass(frozen=True)
class BoundaryOrbit:
    """Sampled periodic orbit through the half-turn fixed points.

    ``arc_minus`` runs from p_plus under u_min for one half period,
    ``arc_plus`` returns from p_minus under u_max; each is a polyline of
    ``samples_per_arc + 1`` points.
    """

    p_plus: np.ndarray
    p_minus: np.ndarray
    half_period: float
    arc_minus: np.ndarray
    arc_plus: np.ndarray

    def polyline(self) -> np.ndarray:
        """Closed boundary polyline (first point repeated at the end)."""
        return np.vstack([self.arc_minus, self.arc_plus[1:]])

    def bounding_box(self) -> tuple[float, float, float, float]:
        pts = self.polyline()
        return (
            float(pts[:, 0].min()),
            float(pts[:, 0].max()),
            float(pts[:, 1].min()),
            float(pts[:, 1].max()),
        )


def periodic_orbit(sys: LinearControlSystem, samples_per_arc: int = 256) -> BoundaryOrbit:
    """Sample the periodic orbit formed by the two extreme-control half turns.

    Raises
    ------
    TraceZero
        Inside the zero-trace band (every constant-control solution is already
        periodic there; there is no distinguished orbit).
    """
    if samples_per_arc < 16:
        raise ValueError("samples_per_arc must be at least 16")
    p_plus, p_minus = half_turn_fixed_points(sys)
    half = sys.half_period
    s = np.linspace(0.0, half, samples_per_arc + 1)
    arc_minus = flow_many(sys, s, p_plus, sys.u_min)
    arc_plus = flow_many(sys, s, p_minus, sys.u_max)
    return BoundaryOrbit(p_plus, p_minus, half, arc_minus, arc_plus)


@dataclass(frozen=True)
class SweepPoint:
    """Orbit data for one control range [alpha, rho] of the sweep family."""

    alpha: float
    rho: float
    p_plus: np.ndarray
    p_minus: np.ndarray
    p_plus_coordinate: float
    hausdorff_prev: float


def sweep_control_ranges(
    a,
    eta,
    pivot: float,
    grid,
    samples_per_arc: int = 256,
) -> list[SweepPoint]:
    """Evaluate the orbit family over control ranges [alpha, rho] around a pivot.

    Every (alpha, rho) must straddle the pivot.  Each point carries the
    half-turn fixed points, the signed line coordinate of p_plus along
    -A^-1 eta (which grows without bound as the range grows), and the
    Hausdorff distance between its boundary, sampled at ``samples_per_arc``,
    and the previous grid point's (NaN for the first).  Only the previous
    boundary is kept, so memory does not grow with the grid.

    Requires a negative trace; errors from system construction propagate.
    """
    points: list[SweepPoint] = []
    prev_boundary = None
    for alpha, rho in grid:
        alpha = float(alpha)
        rho = float(rho)
        if not alpha < pivot < rho:
            raise ValueError(
                f"sweep range [{alpha}, {rho}] must straddle pivot {pivot}"
            )
        sys = LinearControlSystem(a, eta, alpha, rho)
        if sys.trace >= 0.0 or is_trace_zero(sys):
            raise TraceZero("sweep family requires a negative trace")
        orbit = periodic_orbit(sys, samples_per_arc)
        boundary = orbit.polyline()
        coord = line_coordinate(orbit.p_plus, -sys.inv_a_eta)
        if prev_boundary is None:
            dist = float("nan")
        else:
            from .oracle import hausdorff  # deferred: oracle imports controlset

            dist = hausdorff(boundary, prev_boundary)
        points.append(
            SweepPoint(
                alpha=alpha,
                rho=rho,
                p_plus=orbit.p_plus,
                p_minus=orbit.p_minus,
                p_plus_coordinate=coord,
                hausdorff_prev=dist,
            )
        )
        prev_boundary = boundary
    return points
