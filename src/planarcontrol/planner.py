"""Constructive trajectory synthesis for the controllability results.

Zero trace: every constant-control solution is a circle in the canonical
frame, all circle centers (the equilibria) sit on one line through the origin,
and any circle centered on a line meets it in two diametrically opposite
points.  Hopping between half circles therefore walks a point along the line
by a fixed stride per hop until one final arc can finish on the goal
equilibrium exactly.

Negative trace: the region enclosed by the periodic orbit is reached from the
u_min equilibrium by alternating extreme half turns whose iterates converge
geometrically to the orbit corners.  The first of these half turns that the
target's backward u_min flow crosses, followed by that flow forward, ends on
the target exactly, up to rounding.

All constructions run in the system's unit frame (``LinearControlSystem.unit``:
canonical points as complex numbers, v(u_min) at -1 and v(u_max) at +1, the
flow about c being w -> c + e^{lam s}(w - c)) and emit exact-arc schedules;
tolerances scale with the system's own sizes, never with the user's units.
Every plan is certified by exact segment endpoints: the schedule is run from
its start with closed-form flows, at machine precision.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EpsilonTooSmall,
    InvalidControl,
    NoIntersectionFound,
    PreconditionViolated,
    TargetNotInterior,
    TraceNotZero,
)
from .geometry import build_orbit_region
from .planar import as_vector, spiral_arc
from .system import LinearControlSystem, equilibrium, segment_endpoints
from .controlset import is_trace_zero

__all__ = [
    "PlanResult",
    "hop_plan",
    "loop_plan",
    "reach_plan",
    "spiral_crossing",
]


@dataclass(frozen=True)
class PlanResult:
    """A schedule with its exact endpoint and certification data.

    ``endpoint`` is the exact endpoint of ``schedule`` run from ``start``;
    ``endpoint_error`` is its Euclidean distance to ``goal``.  ``hops`` counts
    schedule segments.  ``time_reversed`` marks plans computed on the
    time-reversed system (positive-trace reach planning).
    """

    schedule: tuple
    start: np.ndarray
    goal: np.ndarray
    endpoint: np.ndarray
    endpoint_error: float
    hops: int
    time_reversed: bool = False


def _certified(sys, start, goal, schedule, time_reversed=False) -> PlanResult:
    # Every caller passes validated float (2,) arrays for start and goal.
    _, _, states = segment_endpoints(sys, start, schedule)
    endpoint = states[-1]
    return PlanResult(
        schedule=tuple(schedule),
        start=start,
        goal=goal,
        endpoint=endpoint,
        endpoint_error=float(np.linalg.norm(endpoint - goal)),
        hops=len(schedule),
        time_reversed=time_reversed,
    )


# Farthest start hop_plan accepts, in strides (2 in the unit frame): the
# march takes one schedule entry per stride.
_MAX_STRIDES = 1 << 20


def _unit_centre(sys: LinearControlSystem, u: float) -> float:
    """The equilibrium of ``u`` in the unit frame, a real number."""
    return (2.0 * u - sys.u_min - sys.u_max) / (sys.u_max - sys.u_min)


def hop_plan(sys: LinearControlSystem, start, u_goal: float) -> PlanResult:
    """Drive a zero-trace system from ``start`` onto the equilibrium of ``u_goal``.

    The plan hops along half circles between the extreme-control equilibria:
    an optional first arc brings an off-line start onto the equilibrium line,
    half-turn reflections then march the point by one control-range stride per
    hop, and a single solved-control arc finishes exactly on the goal.  The
    final arc is taken as soon as the line point enters the feasibility window
    where the solved control lies in the admissible range.

    Raises
    ------
    TraceNotZero
        If the trace is outside the zero band.
    InvalidControl
        If ``u_goal`` is outside the control range.
    PreconditionViolated
        If the start is more than 2^20 strides from the goal, so that the
        schedule would outgrow about 2^20 entries.
    """
    if not is_trace_zero(sys):
        raise TraceNotZero("hop planning applies to zero-trace systems")
    if not sys.control_in_range(u_goal):
        raise InvalidControl(f"goal control {u_goal} outside range")
    start = as_vector(start)
    # In the unit frame the equilibrium line is the real axis, the extreme
    # equilibria are -1 and +1 and a reflection marches by the stride 2.
    unit = sys.unit
    half = sys.half_period
    goal_point = equilibrium(sys, u_goal)
    x0 = unit.to_unit(start)
    t_goal = _unit_centre(sys, u_goal)
    # Tolerances are fractions of the stride, a unit-frame length, and not of
    # the coordinates' magnitude: the control range may sit far from zero.
    # Below the coordinates' rounding both stay correct: reflections about
    # -1 and +1 are exact in floating point, and a start off the line by
    # rounding only gets one more arc.
    line_tol = 1e-9
    point_tol = 1e-12

    if abs(x0 - t_goal) <= point_tol:
        return _certified(sys, start, goal_point, ())
    if abs(x0 - t_goal) > 2.0 * _MAX_STRIDES:
        raise PreconditionViolated(
            f"start is more than {_MAX_STRIDES} strides from the goal"
        )

    window = (-2.0 - t_goal, 2.0 - t_goal)

    def march(t: float) -> tuple[list, float]:
        """Half turns about -1 or +1 that bring line point t into the window."""
        hops = []
        cap = int(math.ceil((abs(t - t_goal) + 2.0) / 2.0)) + 4
        while not window[0] - line_tol <= t <= window[1] + line_tol:
            u_c, center = (sys.u_max, 1.0) if t > window[1] else (sys.u_min, -1.0)
            t = 2.0 * center - t
            hops.append((u_c, half))
            if len(hops) > cap:  # pragma: no cover - march provably terminates
                raise RuntimeError("hop march failed to terminate")
        return hops, t

    schedule = []
    t = x0.real
    if abs(x0.imag) > line_tol:
        # Off-line start: pick the landing among both circles and both line
        # sides needing the fewest reflections before the window (exact
        # count; the far-side u_min landing alone already meets the
        # documented hop bound, so the minimum does too).
        best = None
        for u_c, side in (
            (sys.u_max, -1.0),
            (sys.u_min, 1.0),
            (sys.u_max, 1.0),
            (sys.u_min, -1.0),
        ):
            center = _unit_centre(sys, u_c)
            t_land = center + side * abs(x0 - center)
            marches = len(march(t_land)[0])
            if best is None or marches < best[0]:
                best = (marches, u_c, center, t_land)
        _, u_c, center, t = best
        # Counter-clockwise angle in (0, 2 pi] from x0 to the landing.
        ang = cmath.phase((t - center) / (x0 - center)) % (2.0 * math.pi)
        if ang == 0.0:
            ang = 2.0 * math.pi
        schedule.append((u_c, ang / sys.canonical.eig_imag))
    hops, t = march(t)
    schedule += hops

    if abs(t - t_goal) > point_tol:
        u_n = sys.u_min + 0.5 * (0.5 * (t + t_goal) + 1.0) * (sys.u_max - sys.u_min)
        u_n = min(max(u_n, sys.u_min), sys.u_max)
        schedule.append((u_n, half))
    return _certified(sys, start, goal_point, schedule)


def loop_plan(sys: LinearControlSystem, start, u_goal: float) -> PlanResult:
    """Return path from the goal equilibrium back to ``start`` (zero trace).

    Each circle of the hop plan is traversed along its complementary arc, in
    reverse order and in forward time; concatenating the hop plan with this
    one closes a periodic trajectory through both points.
    """
    hop = hop_plan(sys, start, u_goal)
    full = 2.0 * math.pi / sys.canonical.eig_imag
    schedule = tuple((u, full - dt) for u, dt in reversed(hop.schedule))
    return _certified(sys, hop.goal, as_vector(start), schedule)


# Crossing-scan steps: the largest change of the level function over one
# step, in radians (its levels are 2 pi apart), and the longest and shortest
# step, in half periods.
_STEP_G = 0.5
_STEP_MAX = 0.25
_STEP_FLOOR = 1.0 / 128


def _crossing_search(
    sys: LinearControlSystem,
    x_base: complex,
    s_max: float,
    y_center: complex,
    y_base: complex,
    t_max: float,
):
    """Find (s, t) where two spirals meet, as a root of one level-set function.

    Points are Python complex numbers in the unit frame (``sys.unit``).  The
    x-curve is the backward u_min flow ``-1 + e^{-lam s}(x_base + 1)``, s in
    [0, s_max], with x_base != -1.  The y-curve, run forward around
    ``y_center`` from ``y_base``, is the level set g in 2 pi Z of
    g = phi - ang0 - ln(rho/r0)/k (phi, rho: polar angle and radius about
    y_center; ang0, r0: those of y_base; k = eig_real/eig_imag), reached at
    time t = ln(rho/r0)/eig_real.
    Inside g, t is clamped to the window [0, t_max] plus a slack, so g stays
    finite at rho = 0.

    The scan follows g along the x-curve, unwrapping phi (never g, which
    moves by more than pi per step when |k| is small).  Along the x-curve
    |x'| = |lam| |x + 1| and |dg/ds| <= c |x'|/rho, c = sqrt(1 + 1/k^2),
    so a step on which the x-curve travels L < rho(s_a) moves g by at most
    V = c L/(rho(s_a) - L).  Each step is the longest with V <= 0.5 rad, but
    no shorter than 1/128 of a half period and no longer than 1/4 of one.
    The cap keeps turns of g apart: dg/ds vanishes where the x-curve crosses
    one of two fixed circles through y_center, as a rule twice per turn
    about -1, and a step spans at most an eighth of a turn.  Where
    dg/ds changes sign over a step, g passes the step's ends by at most
    (V - |g_b - g_a|)/2; if a level lies within that, the step is split at
    the turn, the root of dg/ds, so no piece holds two roots of one level.
    A step is searched only if its t, which moves by at most
    V/(c |eig_real|) over it, can reach the window.

    Where t at a step's start lies outside the window, the step may skip
    instead.  rho moves by at most the x-curve's travel, so t stays outside
    over the longest step on which the x-curve travels at most
    |rho_edge - rho(s_a)|, rho_edge = r0 e^{eig_real t_edge} being the
    radius of the window's nearer end t_edge.  Where that step is the
    longer, it is taken unsearched and uncapped (to s_max if rho_edge
    overflows).  It may end on another branch of phi: only the levels
    inside a searched step depend on the branch.

    Each multiple of 2 pi that g passes in a piece is a root.  Its solve
    tries a Newton step from the bracket's end with the smaller residual,
    with the dg/ds that level returns, and takes it only if it lands inside
    the bracket, no longer than half the bracket nor than half the previous
    Newton step.  Otherwise it takes an Illinois regula falsi step held
    within ITP's distance of the bracket's midpoint (Oliveira and
    Takahashi, 2020).  The held steps narrow the bracket as bisection
    would, up to rounding, and Newton steps never widen it.  Newton steps
    halve and none is below the spacing of floats, so there are no more of
    them than bisection steps: a solve takes at most twice bisection's
    evaluations.  (A Newton step need not narrow the bracket, so holding
    Newton steps too would make them rare.)  The turn of g is solved by held
    steps alone.  A solve stops once the Newton step or the bracket is below
    the spacing of floats at the bracket's upper end, and returns the end
    whose residual is smaller.  Returns (s, t, residual) of the first root
    in scan order whose t lies in the window, or None; the residual is in
    frame units.
    """
    cf = sys.canonical
    lam = cf.lam
    lam_x = -lam  # the x-curve is -1 + e^{lam_x s} x_rel
    x_rel = x_base + 1.0
    rel = y_base - y_center
    r0 = abs(rel)
    ang0 = math.atan2(rel.imag, rel.real)
    # Python floats: numpy scalars would slow every step of the scan.
    rate = float(cf.eig_real)  # d ln(rho)/dt on the y-curve
    turn = float(cf.eig_imag)  # d phi/dt on the y-curve
    inv_k = turn / rate
    two_pi = 2.0 * math.pi
    slack = 1e-9 * t_max
    t_lo, t_hi = -slack, t_max + slack

    def level(s, phi_near):
        # The x-curve's polar angle about y_center (on the branch nearest
        # phi_near), its y-curve time, g, dg/ds and rho.
        rot = cmath.exp(lam_x * s) * x_rel
        d = -1.0 + rot - y_center
        rho = abs(d)
        phi = phi_near + (math.atan2(d.imag, d.real) - phi_near + math.pi) % two_pi - math.pi
        t = math.log(max(rho, 1e-300) / r0) / rate
        w = lam_x * rot / d if rho else 0j  # d ln(d)/ds = dln(rho)/ds + i dphi/ds
        if t_lo <= t <= t_hi:
            return phi, t, phi - ang0 - turn * t, w.imag - inv_k * w.real, rho
        return phi, t, phi - ang0 - turn * min(max(t, t_lo), t_hi), w.imag, rho

    def solve(a, b, col, target):
        # The end (s, level(s)) with the smaller |level(s)[col] - target| of
        # the sign-change bracket [a, b].  Bisection needs n steps to narrow
        # it to tol; each held step lands within r of the midpoint, which
        # keeps the bracket within tol 2^n as n counts down.  Newton steps
        # (on g only) never widen it, and each is at most half the last.
        (s_a, st_a), (s_b, st_b) = a, b
        f_a, f_b = st_a[col] - target, st_b[col] - target
        w_a, w_b, side = f_a, f_b, 0  # Illinois weights
        tol = math.ulp(s_b)
        n = math.ceil(math.log2((s_b - s_a) / tol)) if s_b - s_a > tol else 0
        newton = math.inf if col == 2 else 0.0  # the longest Newton step allowed
        while f_a and f_b and s_b - s_a > tol:
            half_width = 0.5 * (s_b - s_a)
            s_e, f_e, df_e = (s_a, f_a, st_a[3]) if abs(f_a) <= abs(f_b) else (s_b, f_b, st_b[3])
            step = f_e / df_e if newton and df_e else math.inf
            if abs(step) < tol:
                break
            if abs(step) <= min(half_width, newton) and s_a < s_e - step < s_b:
                s, newton = s_e - step, 0.5 * abs(step)
            else:
                mid = s_a + half_width
                r = math.ldexp(tol, n) - half_width
                n -= 1
                s = min(max((s_a * w_b - s_b * w_a) / (w_b - w_a), mid - r), mid + r)
                if not s_a < s < s_b:
                    s = mid
            st = level(s, st_a[0])
            f = st[col] - target
            if (f < 0.0) == (f_a < 0.0):
                s_a, st_a, f_a, w_a = s, st, f, f
                if side < 0:
                    w_b *= 0.5
                side = -1
            else:
                s_b, st_b, f_b, w_b = s, st, f, f
                if side > 0:
                    w_a *= 0.5
                side = 1
        return (s_a, st_a) if abs(f_a) <= abs(f_b) else (s_b, st_b)

    half = math.pi / cf.eig_imag
    h_floor, h_cap = _STEP_FLOOR * half, _STEP_MAX * half
    mu = -rate  # d ln|x + 1|/ds
    speed = abs(lam) * abs(x_rel)  # |x'| at s = 0
    c = abs(lam) / abs(float(cf.eig_real))
    travel = _STEP_G / (c + _STEP_G)  # L/rho(s_a) at which V = _STEP_G
    t_spread = 0.5 / (c * abs(rate))  # t's overshoot per unit of V

    def longest(v, length):
        # The longest step from a point where |x'| = v on which the x-curve
        # travels, v (e^{mu h} - 1)/mu, at most length.
        return math.log1p(mu * length / v) / mu if mu * length > -v else math.inf

    def radius(t):
        # rho at y-curve time t, or inf where that overflows.
        try:
            return r0 * math.exp(rate * t)
        except OverflowError:
            return math.inf

    rho_lo, rho_hi = radius(t_lo), radius(t_hi)
    s_a, st_a = 0.0, level(0.0, 0.0)
    while True:
        phi_a, t_a, g_a, dg_a, rho_a = st_a
        v = speed * math.exp(mu * s_a)  # |x'| at s_a
        h = min(longest(v, travel * rho_a), h_cap)
        var = _STEP_G  # bounds g's total variation over the step
        if h < h_floor:
            h = h_floor
            moved = v * math.expm1(mu * h) / mu
            var = c * moved / (rho_a - moved) if moved < rho_a else math.inf
        search = True
        if not t_lo <= t_a <= t_hi:
            h_skip = longest(v, abs((rho_lo if t_a < t_lo else rho_hi) - rho_a))
            if h_skip > h:
                h, search = h_skip, False
        s_b = min(s_a + h, s_max)
        st_b = level(s_b, phi_a)
        t_b, g_b, dg_b = st_b[1], st_b[2], st_b[3]
        t_mid, t_ext = 0.5 * (t_a + t_b), t_spread * var
        if search and t_mid - t_ext <= t_hi and t_mid + t_ext >= t_lo:
            pieces = [(s_a, st_a), (s_b, st_b)]
            if dg_a * dg_b < 0.0:
                # g turns inside the step; split it at the turn if a level
                # lies between the turn's bound and the step's ends.
                sign = math.copysign(1.0, dg_a)
                edge = max(sign * g_a, sign * g_b)
                if two_pi * (math.floor(edge / two_pi) + 1.0) <= 0.5 * (sign * (g_a + g_b) + var):
                    pieces.insert(1, solve(pieces[0], pieces[1], 3, 0.0))
            for (s_p, st_p), (s_q, st_q) in zip(pieces, pieces[1:]):
                # Multiples of 2 pi between g at the piece's ends, in scan order.
                g_p, g_q = st_p[2], st_q[2]
                if g_p <= g_q:
                    levels = range(math.ceil(g_p / two_pi), math.floor(g_q / two_pi) + 1)
                else:
                    levels = range(math.floor(g_p / two_pi), math.ceil(g_q / two_pi) - 1, -1)
                for m in levels:
                    s_root, st_root = solve((s_p, st_p), (s_q, st_q), 2, two_pi * m)
                    t_root = st_root[1]
                    if t_lo <= t_root <= t_hi:
                        t_root = min(max(t_root, 0.0), t_max)
                        x = -1.0 + cmath.exp(lam_x * s_root) * x_rel
                        y = y_center + spiral_arc(lam, t_root, rel, 1j * rel)
                        return s_root, t_root, abs(x - y)
        if s_b >= s_max:
            return None
        s_a, st_a = s_b, st_b


def spiral_crossing(sys: LinearControlSystem, v, u: float) -> tuple[float, float]:
    """Times (s0, t0) with flow(s0, v, u_min) == flow(-t0, v(u_min), u).

    Realizes reaching the u_min equilibrium from ``v``: the forward u_min
    spiral from ``v`` meets the backward u-spiral emanating from that
    equilibrium.  On the time-reversed system these are the backward u_min
    flow and a forward arc, the crossing problem ``reach_plan`` poses.  The
    search covers a window, in both time variables, that grows with the
    contraction time until the backward u-spiral has passed ``v``.

    Raises
    ------
    PreconditionViolated
        If the trace is not negative or u equals u_min.
    InvalidControl
        If ``u`` is outside the control range.
    NoIntersectionFound
        If no crossing with residual below tolerance exists in the window.
    """
    if is_trace_zero(sys) or sys.trace > 0.0:
        raise PreconditionViolated("spiral crossing requires a negative trace")
    if not sys.control_in_range(u):
        raise InvalidControl(f"control {u} outside range")
    if u - sys.u_min <= 1e-12 * (sys.u_max - sys.u_min):
        raise PreconditionViolated("u must differ from u_min")
    # Unit frame: v(u_min) is -1 and v(u_max) is +1, so its lengths are
    # relative to the system; tolerances are relative to the start's
    # distance from v(u_min) plus that unit.
    unit = sys.unit
    v_w = unit.to_unit(as_vector(v))
    size = 1.0 + abs(v_w + 1.0)
    if abs(v_w + 1.0) <= 1e-12 * size:
        return 0.0, 0.0
    e_u = _unit_centre(sys, u)
    # The u-spiral is at least r0 (e^{-er t} - 1) from e_min, beyond the
    # whole forward spiral once t > ln(1 + |v - e_min|/r0)/(-er); two more
    # turns leave room to match the polar angles.
    growth = math.log1p(abs(v_w + 1.0) / abs(e_u + 1.0))
    window = growth / (-math.pi * unit.k) + 4.0
    t_max = window * sys.half_period
    # Forward time on the reversed system is backward time on this one, and
    # its unit frame is this one's complex conjugate; the equilibria are real.
    found = _crossing_search(sys.time_reversed(), v_w.conjugate(), t_max, e_u, -1.0, t_max)
    if found is None or found[2] > 1e-9 * size:
        residual = "n/a" if found is None else f"{found[2] * unit.length:.3g}"
        raise NoIntersectionFound(
            f"no spiral crossing within {window:.6g} half-periods (residual {residual})"
        )
    return found[0], found[1]


def reach_plan(
    sys: LinearControlSystem,
    target,
    epsilon: float,
    pairs: int | None = None,
) -> PlanResult:
    """Schedule from the u_min equilibrium that ends on ``target``.

    The target must be interior to the region enclosed by the periodic orbit.
    From the u_min equilibrium, k >= 0 pairs of extreme half turns (u_max,
    then u_min) take it to the pair iterate x_k of :mod:`planarcontrol.planar`.
    The first k whose u_max half turn from x_k meets the target's backward
    u_min flow (at arc time t and flow time s) gives the schedule: k pairs,
    (u_max, t), (u_min, s), exact up to rounding.  Controls never leave
    {u_min, u_max}.

    For a positive trace the plan is computed on the time-reversed system
    (``time_reversed`` is set); a zero trace is rejected.

    Parameters
    ----------
    epsilon : float
        Largest accepted ``endpoint_error``.
    pairs : int, optional
        Measurement mode: exactly ``pairs`` pairs, then the exit arc of the
        limit orbit, so the error decays like q^(2 pairs); no epsilon check.

    Raises
    ------
    TargetNotInterior
        If the target's margin is not above 1e-12 * scale (boundary points
        round to within that band).
    EpsilonTooSmall
        If ``epsilon`` is below the certified error, i.e. below rounding.
    NoIntersectionFound
        If no half turn meets the backward flow before x_k stops changing in
        floating point (that half turn is the boundary arc, which every
        interior target's flow crosses).
    TraceZero
        Inside the zero-trace band (from ``build_orbit_region``).
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if pairs is not None and pairs < 0:
        raise ValueError("pairs must be nonnegative")
    region = build_orbit_region(sys)
    work = region.work_system
    target = as_vector(target)
    scale = region.scale
    if region.margin(target) <= 1e-12 * scale:
        raise TargetNotInterior("reach target must be interior to the region")

    # Unit frame: v(u_min) is -1 and v(u_max) is +1; tolerances are
    # canonical-frame lengths relative to the region's scale.
    unit = work.unit
    er = work.canonical.eig_real
    half = work.half_period
    e_min = equilibrium(work, work.u_min)
    target_w = unit.to_unit(target)
    r_target = abs(target_w + 1.0)

    if r_target * unit.length <= 1e-12 * scale:
        return _certified(work, e_min, target, (), region.time_reversed)

    def exit_through(x):
        # The target's backward u_min flow against the u_max half turn from
        # x.  The flow is r_target e^{-er s} from -1 and the half turn stays
        # within |x - 1| + 2 of it, so the scan ends where the first exceeds
        # the second.
        s_cap = math.log(max((abs(x - 1.0) + 2.0) / r_target, 1.0)) / -er
        return _crossing_search(work, target_w, s_cap, 1.0, x, half * (1.0 + 1e-12))

    if pairs is not None:
        k, found = pairs, exit_through(-unit.corner)
    else:
        k, x_prev, found = -1, None, None
        while found is None:
            k += 1
            x = unit.pair_iterate(k)
            if x == x_prev:
                break
            found = exit_through(x)
            x_prev = x
    if found is None or found[2] * unit.length > 1e-9 * scale:
        raise NoIntersectionFound("backward exit through a half turn not found")
    s0, t_b, _ = found

    schedule = [(work.u_max, half), (work.u_min, half)] * k + [(work.u_max, t_b), (work.u_min, s0)]
    plan = _certified(work, e_min, target, schedule, region.time_reversed)
    if pairs is None and plan.endpoint_error > epsilon:
        raise EpsilonTooSmall(
            f"error {plan.endpoint_error:.3g} above epsilon after {k} pairs"
        )
    return plan
