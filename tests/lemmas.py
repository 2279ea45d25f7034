"""Numerical checks of the proof's lemmas, used as test oracles.

The package decides membership with the closed-form log-spiral margin; these
helpers check the steps behind it on samples: the tangent margin of a moving
spiral is nonnegative, a spiral region is invariant, and the distance to the
enclosed region contracts (or expands) at the rate e^{s eig_real}.  The
all-pairs polyline distance is the reference of the package's pruned one, the
all-pairs Hausdorff distance that of its output-sensitive one, and the
fixed-step crossing scan with bisected roots that of its crossing search.
"""

import contextlib
import math

import numpy as np

from planarcontrol import planner
from planarcontrol.controlset import periodic_orbit
from planarcontrol.errors import PreconditionViolated, ZeroVector
from planarcontrol.geometry import Membership, build_orbit_region, polyline_distance
from planarcontrol.planar import QUARTER_TURN, as_vector, spiral_arc
from planarcontrol.system import LinearControlSystem, flow


def from_unit(frame, w) -> np.ndarray:
    """Original coordinates (..., 2) of complex coordinates w of a
    ``UnitFrame``: the inverse of ``frame.to_unit``."""
    d = np.asarray(w, dtype=complex) - frame.gamma
    det = (frame.alpha * frame.beta.conjugate()).imag
    x = (d * frame.beta.conjugate()).imag / det
    y = -(d * frame.alpha.conjugate()).imag / det
    return np.stack([x, y], axis=-1)


class OutOfDomain(ValueError):
    """(s, tau) falls outside the tangent margin's domain rectangle."""


def angle_between(a, b) -> float:
    """Angle in [0, pi] between two nonzero vectors; ZeroVector otherwise."""
    a = as_vector(a)
    b = as_vector(b)
    na = math.hypot(a[0], a[1])
    nb = math.hypot(b[0], b[1])
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("angle requires nonzero vectors")
    c = float(a @ b) / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))


def spiral_membership(region, v) -> Membership:
    """Membership of a point in a SpiralRegion, boundary within 1e-6 * scale."""
    margin = float(region.margins(as_vector(v))[0])
    tol = 1e-6 * region.scale
    if margin > tol:
        return Membership.INTERIOR
    if margin < -tol:
        return Membership.EXTERIOR
    return Membership.BOUNDARY


def tangent_margin_grid(cf, w1, w2, v1, s_values=None, tau_values=None, s_count=64, tau_count=64):
    """Tangent margins on a grid of (s, tau); rows index s, columns tau.

    All points are canonical-frame vectors with the region base point at the
    origin: the region is spanned by ``v1`` and 0, ``w2`` lies on the segment
    (0, v1), and ``w1`` starts the moving spiral.  The value is

        < exp(s Ac)(w1 - w2) + w2 - exp(tau Ac) v1 ,  perp(Ac exp(tau Ac) v1) >,

    nonnegative on its domain when eig_real < 0.  The domain is
    0 <= s <= (pi - sigma)/eig_imag, sigma the angle between v1 and w1 - w2,
    and 0 <= tau <= pi/eig_imag; omitted values span it uniformly.  Raises
    PreconditionViolated for a bad (w1, w2, v1) and OutOfDomain for values
    outside the domain.
    """
    v1, w1, w2 = as_vector(v1), as_vector(w1), as_vector(w2)
    nv1 = math.hypot(v1[0], v1[1])
    if nv1 == 0.0:
        raise PreconditionViolated("v1 must be nonzero")
    diff = w1 - w2
    if math.hypot(diff[0], diff[1]) <= 1e-12 * nv1:
        raise PreconditionViolated("w1 - w2 is numerically zero")
    coord = float(w2 @ v1) / (nv1 * nv1)
    off = w2 - coord * v1
    if math.hypot(off[0], off[1]) > 1e-9 * (1.0 + nv1) or not -1e-9 <= coord <= 1.0 + 1e-9:
        raise PreconditionViolated("w2 must lie on the segment (0, v1)")
    tau_max = math.pi / cf.eig_imag
    slack = 1e-9 * (1.0 + tau_max)
    axes = []
    for values, count, top in (
        (s_values, s_count, (math.pi - angle_between(v1, diff)) / cf.eig_imag),
        (tau_values, tau_count, tau_max),
    ):
        if values is None:
            values = np.linspace(0.0, top, count)
        values = np.asarray(values, dtype=float)
        if np.any(values < -slack) or np.any(values > top + slack):
            raise OutOfDomain(f"value outside [0, {top:.6g}]")
        axes.append(values)
    moving = spiral_arc(cf.lam, axes[0], diff, diff @ QUARTER_TURN.T) + w2
    ref = spiral_arc(cf.lam, axes[1], v1, v1 @ QUARTER_TURN.T)  # (nt, 2)
    tangents = cf.eig_real * ref + cf.eig_imag * (ref @ QUARTER_TURN.T)
    normals = tangents @ QUARTER_TURN.T  # (nt, 2)
    return moving @ normals.T - np.sum(ref * normals, axis=1)


def tangent_margin(cf, s, tau, w1, w2, v1) -> float:
    """One value of :func:`tangent_margin_grid`."""
    return float(tangent_margin_grid(cf, w1, w2, v1, [s], [tau])[0, 0])


def worst_invariance_margin(region, w1, w2, s_samples: int = 128) -> float:
    """Worst region margin of the spiral about ``w2`` through ``w1``.

    ``w2`` lies on the chord and ``w1`` in the region; the spiral is sampled
    at ``s_samples`` times over [0, (pi - sigma)/eig_imag], sigma the angle
    between the chord and w1 - w2.  Raises PreconditionViolated if
    eig_real >= 0, w2 is off the chord segment, w1 - w2 is numerically zero
    or w1 is outside the region.
    """
    cf = region.canonical
    if cf.eig_real >= 0.0:
        raise PreconditionViolated("invariance requires eig_real < 0")
    # Frame coordinates: the chord segment is [0, 1], lengths in units of scale.
    a = region.frame.to_unit(as_vector(w1))
    b = region.frame.to_unit(as_vector(w2))
    if abs(b.imag) * region.scale > 1e-9 * (1.0 + region.scale) or not -1e-9 <= b.real <= 1.0 + 1e-9:
        raise PreconditionViolated("w2 must lie on the chord segment")
    diff = a - b
    if abs(diff) < 1e-12:
        raise PreconditionViolated("w1 - w2 is numerically zero")
    if region.margins(w1)[0] < -1e-6 * region.scale:
        raise PreconditionViolated("w1 must lie in the region")
    sigma = abs(math.atan2(diff.imag, diff.real))
    s = np.linspace(0.0, (math.pi - sigma) / cf.eig_imag, s_samples)
    moving = b + spiral_arc(cf.lam, s, diff, 1j * diff).ravel()
    return float(region.margins(from_unit(region.frame, moving)).min())


def distance_bound_slack(sys, samples, rng, samples_per_arc: int = 4096):
    """Randomized check of the exterior-distance flow bounds.

    For random exterior points v, controls u and times s of both signs, with
    r = eig_real and dist the distance to the enclosed region,

        dist(flow(s, v, u)) <= e^{s r} dist(v) + tol   when s * r < 0,
        dist(flow(s, v, u)) >= e^{s r} dist(v) - tol   when s * r > 0,

    where tol is 1e-6 * scale plus the polyline's sag bound.  Exact for a
    normal drift.  Returns (violations, worst_contraction, worst_expansion),
    the worsts being the largest (measured - allowed) of each inequality.
    """
    region = build_orbit_region(sys)
    work = region.work_system
    orbit = periodic_orbit(work, samples_per_arc)
    boundary = orbit.polyline()
    # Sag bound of the boundary polyline: seg^2 / (8 * smallest radius).
    sag = 0.0
    for arc, u in ((orbit.arc_minus, work.u_min), (orbit.arc_plus, work.u_max)):
        radii = np.linalg.norm(arc + u * work.inv_a_eta, axis=1)
        seg = np.linalg.norm(np.diff(arc, axis=0), axis=1).max()
        sag = max(sag, seg * seg / (8.0 * float(radii.min())))
    lo, hi = boundary.min(axis=0), boundary.max(axis=0)
    centre, half = 0.5 * (lo + hi), 1.5 * (hi - lo)
    er = sys.canonical.eig_real
    scale = max(1.0, region.scale)

    pts = []
    while len(pts) < samples:
        cand = np.stack(
            [rng.uniform(centre[i] - half[i], centre[i] + half[i], size=4 * samples) for i in (0, 1)],
            axis=1,
        )
        pts.extend(cand[region.margins_many(cand) < -1e-9 * scale])
    pts = np.array(pts[:samples])
    us = rng.uniform(sys.u_min, sys.u_max, size=samples)
    mags = rng.uniform(0.0, 2.0 * math.pi / sys.canonical.eig_imag, size=samples)
    d0 = polyline_distance(pts, boundary)

    worst_contraction = worst_expansion = -math.inf
    violations = 0
    for s in (mags, -mags):
        moved = flow(sys, s, pts, us)
        inside = region.margins_many(moved) >= 0.0
        d1 = np.where(inside, 0.0, polyline_distance(moved, boundary))
        factor = np.exp(s * er)
        tol = 1e-6 * scale + sag * (1.0 + factor)
        if (s is mags) == (er < 0.0):  # s * er < 0: contraction bound
            slack = d1 - (factor * d0 + tol)
            worst_contraction = max(worst_contraction, float(slack.max()))
        else:  # s * er > 0: expansion bound
            slack = (factor * d0 - tol) - d1
            worst_expansion = max(worst_expansion, float(slack.max()))
        violations += int((slack > 0.0).sum())
    return violations, worst_contraction, worst_expansion


def all_pairs_distance(points, polyline: np.ndarray) -> np.ndarray:
    """Distance from each point to a polyline, projecting onto every segment.

    The same clamped projection, in the same floating-point operations, as
    ``polyline_distance`` runs on the blocks it keeps, so the two agree bit
    for bit.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(polyline, dtype=float)
    ax, ay = poly[:-1, 0], poly[:-1, 1]
    dx, dy = poly[1:, 0] - ax, poly[1:, 1] - ay
    inv_len2 = 1.0 / np.maximum(dx * dx + dy * dy, 1e-300)
    out = np.empty(len(pts))
    chunk = max(1, 16384 // len(ax))
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


def all_pairs_hausdorff(set_a, set_b) -> float:
    """Hausdorff distance of two finite point sets over every pair of points.

    The package's former ``oracle.hausdorff``, kept as the reference of the
    output-sensitive one: the same squared terms in the same floating-point
    operations, so the two agree bit for bit.
    """
    a = np.atleast_2d(np.asarray(set_a, dtype=float))
    b = np.atleast_2d(np.asarray(set_b, dtype=float))
    # Squared distances, (chunk, m) per chunk of a to stay in cache: row
    # minima measure a to b, column minima over all chunks b to a.
    worst = 0.0
    col_min = np.full(len(b), np.inf)
    chunk = max(1, 16384 // len(b))
    for lo in range(0, len(a), chunk):
        d2 = a[lo : lo + chunk, 0:1] - b[:, 0]
        dy = a[lo : lo + chunk, 1:2] - b[:, 1]
        d2 *= d2
        d2 += dy * dy
        worst = max(worst, float(d2.min(axis=1).max()))
        np.minimum(col_min, d2.min(axis=0), out=col_min)
    return math.sqrt(max(worst, float(col_min.max())))


def scan_bisect_crossing_search(
    sys: LinearControlSystem,
    x_base: complex,
    s_max: float,
    y_center: complex,
    y_base: complex,
    t_max: float,
):
    """``planner._crossing_search`` as a fixed scan and bisection.

    The scan takes 128 steps per half period and bisects each root for 80
    steps; a turn of g is located by 80 golden-section steps and the scan is
    redone with it as a scan point.  It takes the same arguments and returns
    the same (s, t, residual) or None, and is the reference of the package's
    bound-sized scan and superlinear roots.
    """
    cf = sys.canonical
    lam = cf.lam
    x_rel = x_base + 1.0
    rel = y_base - y_center
    r0 = abs(rel)
    ang0 = math.atan2(rel.imag, rel.real)
    # Python floats: numpy scalars would slow every step of the scan.
    rate = float(cf.eig_real)  # d ln(rho)/dt on the y-curve
    turn = float(cf.eig_imag)  # d phi/dt on the y-curve
    two_pi = 2.0 * math.pi
    slack = 1e-9 * t_max
    t_lo, t_hi = -slack, t_max + slack

    def x_of(s):
        return -1.0 + spiral_arc(lam, -s, x_rel, 1j * x_rel)

    def level(s, phi_near):
        # The x-curve's polar angle about y_center (on the branch nearest
        # phi_near), its y-curve time and the level function g.
        d = x_of(s) - y_center
        phi = phi_near + (math.atan2(d.imag, d.real) - phi_near + math.pi) % two_pi - math.pi
        t = math.log(max(abs(d), 1e-300) / r0) / rate
        return phi, t, phi - ang0 - turn * min(max(t, t_lo), t_hi)

    half = math.pi / cf.eig_imag
    n = max(2, int(math.ceil(s_max / half * 128)))
    s_grid = np.linspace(0.0, s_max, n + 1).tolist()

    s_a = 0.0
    phi_a, t_a, g_a = level(s_a, 0.0)
    dg_a = 0.0  # g_a minus g at the scan point before s_a
    i, split_to = 1, 0  # steps i <= split_to are already split at a turn
    while i < len(s_grid):
        s_b = s_grid[i]
        phi_b, t_b, g_b = level(s_b, phi_a)
        dg_b = g_b - g_a
        if dg_a * dg_b < 0.0 and i > split_to:
            # g turned back between s_grid[i - 2] and s_b, and passes g_a by
            # less than |dg_a| + |dg_b| (8 times a parabola's overshoot).  If
            # a level lies within that, locate the turn by golden section
            # and rescan from s_grid[i - 2] with it as a scan point.
            reach = g_a + math.copysign(abs(dg_a) + abs(dg_b), dg_a)
            if math.floor(reach / two_pi) != math.floor(g_a / two_pi):
                sign, lo, hi = math.copysign(1.0, dg_a), s_grid[i - 2], s_b
                for _ in range(80):
                    m1 = hi - 0.6180339887498949 * (hi - lo)
                    m2 = lo + 0.6180339887498949 * (hi - lo)
                    if sign * level(m1, phi_a)[2] < sign * level(m2, phi_a)[2]:
                        lo = m1
                    else:
                        hi = m2
                s_grid.insert(i - 1 if lo + hi < 2.0 * s_a else i, 0.5 * (lo + hi))
                split_to, i = i + 1, i - 1
                s_a = s_grid[i - 1]
                phi_a, t_a, g_a = level(s_a, phi_a)
                continue
        if not (max(t_a, t_b) < t_lo or min(t_a, t_b) > t_hi):
            # Multiples of 2 pi between g_a and g_b, in scan order.
            if g_a <= g_b:
                levels = range(math.ceil(g_a / two_pi), math.floor(g_b / two_pi) + 1)
            else:
                levels = range(math.floor(g_a / two_pi), math.ceil(g_b / two_pi) - 1, -1)
            for m in levels:
                lo, hi = s_a, s_b
                phi_lo, f_lo = phi_a, g_a - two_pi * m
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    phi_m, _, g_m = level(mid, phi_lo)
                    f_m = g_m - two_pi * m
                    if f_lo * f_m <= 0.0:
                        hi = mid
                    else:
                        lo, phi_lo, f_lo = mid, phi_m, f_m
                s_root = 0.5 * (lo + hi)
                t_root = level(s_root, phi_lo)[1]
                if t_lo <= t_root <= t_hi:
                    t_root = min(max(t_root, 0.0), t_max)
                    y = y_center + spiral_arc(lam, t_root, rel, 1j * rel)
                    return s_root, t_root, abs(x_of(s_root) - y)
        s_a, phi_a, t_a, g_a, dg_a = s_b, phi_b, t_b, g_b, dg_b
        i += 1
    return None


@contextlib.contextmanager
def reference_crossing_search():
    """Run ``reach_plan`` and ``spiral_crossing`` on the reference search."""
    saved = planner._crossing_search
    planner._crossing_search = scan_bisect_crossing_search
    try:
        yield
    finally:
        planner._crossing_search = saved
