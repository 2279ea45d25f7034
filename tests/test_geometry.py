"""Spiral regions, the tangent-margin function, invariance, and distances."""

import math

import numpy as np
import pytest

from planarcontrol.controlset import periodic_orbit
from planarcontrol.errors import PreconditionViolated, TraceZero, ZeroVector
from planarcontrol.geometry import (
    Membership,
    SpiralRegion,
    build_orbit_region,
    polyline_distance,
)
from planarcontrol.planar import (
    QUARTER_TURN,
    canonicalize,
    line_coordinate,
    spiral_arc,
)
from planarcontrol.planner import reach_plan
from planarcontrol.system import LinearControlSystem, equilibrium, flow

from conftest import (
    converged_fixed_points,
    random_complex_matrix,
    random_control_data,
    random_normal_system,
    random_system,
    series_expm,
)
from lemmas import (
    OutOfDomain,
    all_pairs_distance,
    angle_between,
    spiral_membership,
    tangent_margin,
    tangent_margin_grid,
    worst_invariance_margin,
)


@pytest.fixture
def canonical_cf():
    return canonicalize([[-1.0, -1.0], [1.0, -1.0]])  # eig -1 +/- 1i, basis I


@pytest.fixture
def unit_region(canonical_cf):
    return SpiralRegion(np.array([1.0, 0.0]), np.zeros(2), canonical_cf)


def _random_region(rng):
    """Random spiral region with eig_real < 0 in a random (skewed) basis."""
    sys = random_system(rng, trace_sign=-1)
    cf = sys.canonical
    v2 = rng.normal(0.0, 1.0, 2)
    while True:
        delta = rng.normal(0.0, 1.0, 2)
        if np.linalg.norm(delta) > 0.3:
            break
    return SpiralRegion(v2 + delta, v2, cf)


def _sample_inside(rng, region, margin_floor=0.0):
    """Rejection-sample a point of the region (canonical-frame bounding box)."""
    cf = region.canonical
    z1 = cf.to_canonical(region.v1)
    z2 = cf.to_canonical(region.v2)
    lo = np.minimum(z1, z2) - 2.0 * region.scale
    hi = np.maximum(z1, z2) + 2.0 * region.scale
    while True:
        zc = rng.uniform(lo, hi)
        v = zc @ cf.basis.T
        if region.margins(v)[0] > margin_floor:
            return v


def test_region_contains_examples(unit_region):
    v1 = unit_region.v1
    mid = 0.5 * (unit_region.v1 + unit_region.v2)
    reflected = unit_region.v2 - np.array([0.0, 1.0])  # across the chord line
    assert spiral_membership(unit_region, v1) is Membership.BOUNDARY
    assert spiral_membership(unit_region, mid) is Membership.BOUNDARY
    assert spiral_membership(unit_region, reflected) is Membership.EXTERIOR


def test_region_contains_interior_point(unit_region):
    assert spiral_membership(unit_region, [0.4, 0.1]) is Membership.INTERIOR


def test_angle_between_examples():
    assert angle_between([2.0, 0.0], [3.0, 0.0]) == 0.0
    assert angle_between([1.0, 0.0], [0.0, 2.0]) == pytest.approx(math.pi / 2)
    assert angle_between([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(math.pi)
    with pytest.raises(ZeroVector):
        angle_between([0.0, 0.0], [1.0, 0.0])


def test_tangent_margin_zero_at_origin_corner(canonical_cf):
    v1 = np.array([1.0, 0.0])
    # w1 = v1 with w2 shrunk toward the center: the difference against the
    # tau = 0 tangent base point vanishes at s = 0.
    val = tangent_margin(canonical_cf, 0.0, 0.0, v1, np.array([1e-9, 0.0]), v1)
    assert abs(val) < 1e-8


def test_tangent_margin_grid_nonnegative_for_admissible_data(canonical_cf):
    # The spec example's w1=(0.5, 0.3) lies just outside the region (see the
    # membership test below), so the nonnegativity claim applies to an
    # admissible w1 instead.
    v1 = np.array([1.0, 0.0])
    w2 = np.array([0.5, 0.0])
    w1 = np.array([0.5, 0.25])
    grid = tangent_margin_grid(canonical_cf, w1, w2, v1, s_count=64, tau_count=64)
    assert grid.min() >= -1e-9


def test_spec_example_point_is_not_admissible(unit_region):
    # Radius sqrt(0.34) ~ 0.58310 exceeds the boundary radius ~ 0.58248 at
    # its polar angle, so the proposition's precondition rejects it.
    assert spiral_membership(unit_region, [0.5, 0.3]) is Membership.EXTERIOR
    with pytest.raises(PreconditionViolated):
        worst_invariance_margin(unit_region, [0.5, 0.3], [0.5, 0.0])


def test_tangent_margin_regression_value(canonical_cf):
    # Frozen reference value at the center node of the 64x64 domain grid.
    v1 = np.array([1.0, 0.0])
    w2 = np.array([0.5, 0.0])
    w1 = np.array([0.5, 0.25])
    grid = tangent_margin_grid(canonical_cf, w1, w2, v1, s_count=64, tau_count=64)
    assert grid[32, 32] == pytest.approx(0.11271083424677937, rel=1e-12)


def test_tangent_margin_domain_and_preconditions(canonical_cf):
    v1 = np.array([1.0, 0.0])
    w2 = np.array([0.5, 0.0])
    w1 = np.array([0.5, 0.25])
    sigma = angle_between(v1, w1 - w2)
    with pytest.raises(OutOfDomain):
        tangent_margin(canonical_cf, (math.pi - sigma) + 1e-3, 0.0, w1, w2, v1)
    with pytest.raises(OutOfDomain):
        tangent_margin(canonical_cf, 0.0, math.pi + 1e-3, w1, w2, v1)
    with pytest.raises(PreconditionViolated):
        tangent_margin(canonical_cf, 0.0, 0.0, w1, np.array([0.5, 0.2]), v1)
    with pytest.raises(PreconditionViolated):
        tangent_margin(canonical_cf, 0.0, 0.0, w1, np.array([1.5, 0.0]), v1)


def test_tangent_margin_nonnegative_random_configurations():
    rng = np.random.default_rng(17)
    for _ in range(60):
        ei = rng.uniform(0.3, 2.0)
        er = -rng.uniform(0.05, 2.5) * ei
        cf = canonicalize([[er, -ei], [ei, er]])
        v1 = rng.normal(0.0, 1.5, 2)
        if np.linalg.norm(v1) < 0.3:
            continue
        region = SpiralRegion(v1, np.zeros(2), cf)
        w2 = rng.uniform(0.05, 1.0) * v1
        w1 = _sample_inside(rng, region)
        if np.linalg.norm(w1 - w2) < 1e-6:
            continue
        grid = tangent_margin_grid(cf, w1, w2, v1, s_count=48, tau_count=48)
        assert grid.min() >= -1e-9


def test_invariance_boundary_spiral(unit_region):
    # w1 = v1, w2 = v2: the moving spiral IS the region boundary arc.
    worst = worst_invariance_margin(unit_region, unit_region.v1, unit_region.v2)
    assert worst == pytest.approx(0.0, abs=1e-9)


def test_invariance_random_regions():
    rng = np.random.default_rng(23)
    for _ in range(60):
        region = _random_region(rng)
        t = rng.uniform(0.0, 1.0)
        w2 = region.v2 + t * (region.v1 - region.v2)
        w1 = _sample_inside(rng, region)
        if np.linalg.norm(
            region.canonical.to_canonical(w1) - region.canonical.to_canonical(w2)
        ) < 1e-9 * region.scale:
            continue
        assert worst_invariance_margin(region, w1, w2, s_samples=96) >= -1e-9


def test_invariance_endpoint_lands_on_chord_interval(unit_region):
    # After time (pi - sigma)/eig_imag the moving point reaches the chord
    # line, between the arc's far endpoint and v1.
    rng = np.random.default_rng(29)
    cf = unit_region.canonical
    v1 = unit_region.v1
    far_end = np.array([-math.exp(-math.pi), 0.0])
    for _ in range(40):
        w2 = np.array([rng.uniform(0.05, 1.0), 0.0])
        w1 = _sample_inside(rng, unit_region)
        diff = w1 - w2
        if np.linalg.norm(diff) < 1e-6:
            continue
        sigma = angle_between(v1, diff)
        s_end = (math.pi - sigma) / cf.eig_imag
        # evaluate the spiral exp(s Ac)(w1 - w2) + w2 in the canonical frame
        end = spiral_arc(cf.lam, s_end, diff, diff @ QUARTER_TURN.T) + w2
        coord = line_coordinate(end, np.array([1.0, 0.0]))
        assert far_end[0] - 1e-7 <= coord <= v1[0] + 1e-7


def test_invariance_precondition_checks(unit_region):
    with pytest.raises(PreconditionViolated):
        worst_invariance_margin(unit_region, [0.4, 0.1], [0.5, 0.2])  # w2 off chord
    with pytest.raises(PreconditionViolated):
        worst_invariance_margin(unit_region, [0.5, 0.0], [0.5, 0.0])  # zero diff
    grow = SpiralRegion(
        np.array([1.0, 0.0]), np.zeros(2), canonicalize([[0.5, -1.0], [1.0, 0.5]])
    )
    with pytest.raises(PreconditionViolated):
        worst_invariance_margin(grow, [0.2, 0.1], [0.5, 0.0])  # eig_real > 0


def test_build_orbit_region_worked_values(s0):
    region = build_orbit_region(s0)
    np.testing.assert_allclose(
        region.p_plus, [0.5451657, 0.5451657], atol=5e-8
    )
    np.testing.assert_allclose(region.p_minus, -region.p_plus, atol=1e-15)
    # Cross-check against the iterate-convergence oracle.
    pp, _ = converged_fixed_points(s0)
    assert np.linalg.norm(region.p_plus - pp) < 1e-12


def test_region_samples_its_orbit_on_first_read(s0, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return periodic_orbit(*args)

    monkeypatch.setattr("planarcontrol.geometry.periodic_orbit", counted)
    region = build_orbit_region(s0)
    reach_plan(s0, [0.1, -0.2], 1e-9)
    assert calls == []
    boundary = region.boundary
    assert region.boundary is boundary and region.orbit.polyline().shape == boundary.shape
    assert len(calls) == 1 and len(boundary) == 2 * 1024 + 1


def test_build_orbit_region_line_order(s0):
    from planarcontrol.geometry import line_order_coordinates

    coords = line_order_coordinates(build_orbit_region(s0))
    assert (
        coords["p_minus"]
        < coords["v_u_min"]
        < coords["v_u_max"]
        < coords["p_plus"]
    )


def test_build_orbit_region_rejects_trace_zero(t0):
    with pytest.raises(TraceZero):
        build_orbit_region(t0)


def test_region_boundary_closed_random():
    rng = np.random.default_rng(37)
    for _ in range(25):
        sys = random_system(rng, trace_sign=rng.choice([-1, 1]))
        region = build_orbit_region(sys)
        poly = region.boundary
        assert np.linalg.norm(poly[0] - poly[-1]) < 1e-9 * max(1.0, region.scale)
        for point in (region.p_plus, region.p_minus):
            line_coordinate(point, sys.inv_a_eta)  # no OffLine


def test_time_reversed_region_is_same_set(s0):
    fwd = build_orbit_region(s0)
    rev = build_orbit_region(s0.time_reversed())
    assert rev.time_reversed
    # Same corners (roles swapped come back to the same coordinates).
    np.testing.assert_allclose(rev.p_plus, fwd.p_plus, atol=1e-12)
    rng = np.random.default_rng(43)
    pts = rng.uniform(-1.0, 1.0, (200, 2))
    m1 = fwd.margins_many(pts) > 0
    m2 = rev.margins_many(pts) > 0
    assert np.array_equal(m1, m2)


def test_contains_region_examples(s0):
    region = build_orbit_region(s0)
    assert region.contains(region.p_plus).verdict is Membership.BOUNDARY
    assert region.contains([0.0, 0.0]).verdict is Membership.INTERIOR
    assert region.contains([100.0, 100.0]).verdict is Membership.EXTERIOR


def test_margin_is_first_order_canonical_distance(unit_region):
    # Canonical basis I: the arc is e^{-phi}(cos phi, sin phi).  Moving a
    # distance d off the arc along its normal changes the margin by -d, up to
    # curvature terms of order d^2.
    d = 1e-6
    for phi in np.linspace(0.1, 3.0, 12):
        arc = math.exp(-phi) * np.array([math.cos(phi), math.sin(phi)])
        tangent = np.array([[-1.0, -1.0], [1.0, -1.0]]) @ arc
        outward = np.array([tangent[1], -tangent[0]]) / np.linalg.norm(tangent)
        for side in (1.0, -1.0):
            margin = unit_region.margins(arc + side * d * outward)[0]
            assert margin == pytest.approx(-side * d, rel=1e-3)
    # The same holds on both arcs of the orbit region of random skewed
    # systems of either trace sign, in the work system's canonical frame.
    # Each arc turns counter-clockwise there, so the outward normal is its
    # tangent turned a quarter turn clockwise.
    rng = np.random.default_rng(71)
    for i in range(20):
        region = build_orbit_region(random_system(rng, trace_sign=1 if i % 2 else -1))
        work = region.work_system
        cf = work.canonical
        d = 1e-6 * region.scale
        s = work.half_period * np.linspace(0.05, 0.95, 7)
        for start, u in ((region.p_plus, work.u_min), (region.p_minus, work.u_max)):
            arc = flow(work, s, start, u)
            tangent = cf.to_canonical((arc - equilibrium(work, u)) @ work.a.T)
            outward = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
            outward /= np.linalg.norm(outward, axis=1, keepdims=True)
            for side in (1.0, -1.0):
                margins = region.margins_many(arc + side * d * outward @ cf.basis.T)
                np.testing.assert_allclose(margins, -side * d, rtol=1e-3)


def test_exterior_distance_examples(s0):
    region = build_orbit_region(s0)
    assert region.exterior_distance([0.0, 0.0]) == 0.0
    # p_plus is the smooth point where the two arcs meet with tangents
    # parallel to eta.  Just outside it, along the outward boundary normal,
    # the nearest boundary point is p_plus itself.
    work = region.work_system
    tangent = work.a @ (region.p_plus - equilibrium(work, work.u_min))
    inward = np.array([-tangent[1], tangent[0]])
    outward = -inward / np.linalg.norm(inward)
    probe = region.p_plus + 0.01 * outward
    assert region.exterior_distance(probe) == pytest.approx(0.01, abs=2e-4)


def test_exterior_distance_pinned_value(s0):
    # Value frozen from a refinement study (change < 1e-6 from 1024 samples on).
    fine, coarse = (
        polyline_distance([2.0, 2.0], periodic_orbit(s0, n).polyline())[0]
        for n in (4096, 512)
    )
    assert fine == pytest.approx(2.024470886186, abs=1e-6)
    # Refinement decreases the polyline distance monotonically to within 1e-6.
    assert coarse >= fine - 1e-12
    assert abs(coarse - fine) < 1e-6


def test_forward_invariance_random_systems():
    rng = np.random.default_rng(47)
    for _ in range(30):
        sys = random_system(rng, trace_sign=-1)
        region = build_orbit_region(sys)
        work = region.work_system
        half_plus = SpiralRegion(
            region.p_plus, equilibrium(work, work.u_min), work.canonical
        )
        pts = np.array([_sample_inside(rng, half_plus) for _ in range(5)])
        # also sample from the other half
        half_minus = SpiralRegion(
            region.p_minus, equilibrium(work, work.u_max), work.canonical
        )
        pts2 = np.array([_sample_inside(rng, half_minus) for _ in range(5)])
        for v in np.vstack([pts, pts2]):
            u = rng.uniform(sys.u_min, sys.u_max)
            s = rng.uniform(0.0, 3.0 * sys.half_period)
            moved = flow(sys, s, v, u)
            assert region.margin(moved) >= -1e-6 * max(1.0, region.scale)


def test_margins_symmetric_under_equilibrium_midpoint_reflection():
    # The paper's symmetry v -> 2m - v, u -> u_min + u_max - u, with m the
    # midpoint of the extreme equilibria, maps the region onto itself.
    rng = np.random.default_rng(61)
    for k in range(40):
        sign = 1 if k % 2 else -1
        sys = random_system(rng, sign) if k % 4 < 2 else random_normal_system(rng, sign)
        region = build_orbit_region(sys)
        two_m = equilibrium(sys, sys.u_min) + equilibrium(sys, sys.u_max)
        lo, hi = region.boundary.min(axis=0), region.boundary.max(axis=0)
        pts = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (500, 2))
        np.testing.assert_allclose(
            region.margins_many(two_m - pts),
            region.margins_many(pts),
            rtol=0,
            atol=1e-12 * region.scale,
        )


def test_backward_invariance_positive_trace():
    # Positive trace: flows with s * trace < 0 (backward time) stay inside.
    rng = np.random.default_rng(53)
    for _ in range(15):
        sys = random_system(rng, trace_sign=1)
        region = build_orbit_region(sys)
        work = region.work_system
        half_plus = SpiralRegion(
            region.p_plus, equilibrium(work, work.u_min), work.canonical
        )
        v = _sample_inside(rng, half_plus)
        u = rng.uniform(sys.u_min, sys.u_max)
        s = rng.uniform(0.0, 3.0 * sys.half_period)
        moved = flow(sys, -s, v, u)
        assert region.margin(moved) >= -1e-6 * max(1.0, region.scale)


def test_membership_equivariance_rotation_translation():
    rng = np.random.default_rng(59)
    for _ in range(25):
        region = _random_region(rng)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        shift = rng.normal(0.0, 2.0, 2)
        cf = region.canonical
        normal = [[cf.eig_real, -cf.eig_imag], [cf.eig_imag, cf.eig_real]]
        a_old = cf.basis @ normal @ cf.basis_inv
        cf_new = canonicalize(rot @ a_old @ rot.T)
        moved = SpiralRegion(
            rot @ region.v1 + shift, rot @ region.v2 + shift, cf_new
        )
        for _ in range(5):
            probe = rng.normal(0.0, 1.5, 2)
            m_old = region.margins(probe)[0]
            m_new = moved.margins(rot @ probe + shift)[0]
            assert m_new == pytest.approx(m_old, abs=1e-9 * (1.0 + abs(m_old)))


def test_polyline_distance_basics():
    poly = np.array([[0.0, 0.0], [1.0, 0.0]])
    d = polyline_distance(np.array([[0.5, 0.7], [2.0, 0.0], [-1.0, 0.0]]), poly)
    np.testing.assert_allclose(d, [0.7, 1.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError):
        polyline_distance([0.5, 0.7], poly[:1])


def _series_boundary(a, eta, u_min, u_max, per_arc=2**17):
    """Closed boundary polygon of the enclosed region from series_expm alone.

    Returns the polygon (both arcs, 2 * per_arc + 1 vertices), p_plus and
    p_minus.  A positive trace is handled on (-A, -eta), the same orbit
    traversed backwards.
    """
    a = np.asarray(a, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if np.trace(a) > 0.0:
        a, eta = -a, -eta
    v_min = np.linalg.solve(a, -u_min * eta)
    v_max = np.linalg.solve(a, -u_max * eta)
    half = math.pi / math.sqrt(np.linalg.det(a) - 0.25 * np.trace(a) ** 2)
    m = series_expm(a, half)
    m2 = m @ m
    # p_plus is fixed by the u_min half turn followed by the u_max half turn.
    p_plus = np.linalg.solve(
        np.eye(2) - m2, v_max + m @ (v_min - v_max) - m2 @ v_min
    )
    p_minus = v_min + m @ (p_plus - v_min)
    # exp(k h A) for k = 512 i + j, from two short tables of powers.
    step = series_expm(a, half / per_arc)
    low = [np.eye(2)]
    for _ in range(511):
        low.append(low[-1] @ step)
    big = low[-1] @ step
    high = [np.eye(2)]
    for _ in range(per_arc // 512):
        high.append(high[-1] @ big)
    powers = np.einsum("iab,jbc->ijac", np.array(high), np.array(low))
    powers = powers.reshape(-1, 2, 2)[: per_arc + 1]
    arc_minus = v_min + powers @ (p_plus - v_min)
    arc_plus = v_max + powers @ (p_minus - v_max)
    return np.vstack([arc_minus, arc_plus[1:]]), p_plus, p_minus


def _even_odd(points, poly):
    """Even-odd rule on a closed polygon: inside when a ray towards +x crosses
    an odd number of edges (each edge spans the half-open y interval)."""
    a, b = poly[:-1], poly[1:]
    lo = np.minimum(a[:, 1], b[:, 1])
    hi = np.maximum(a[:, 1], b[:, 1])
    order = np.argsort(points[:, 1])
    ys = points[order, 1]
    first = np.searchsorted(ys, lo)
    count = np.searchsorted(ys, hi) - first
    edge = np.repeat(np.arange(len(a)), count)
    rank = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    q = order[first[edge] + rank]
    ea, eb, p = a[edge], b[edge], points[q]
    x_cross = ea[:, 0] + (p[:, 1] - ea[:, 1]) * (eb[:, 0] - ea[:, 0]) / (
        eb[:, 1] - ea[:, 1]
    )
    hits = np.bincount(q[x_cross > p[:, 0]], minlength=len(points))
    return hits % 2 == 1


def _brute_distance(p, poly):
    d = poly[1:] - poly[:-1]
    t = np.clip(np.sum((p - poly[:-1]) * d, axis=1) / np.sum(d * d, axis=1), 0, 1)
    return float(np.min(np.linalg.norm(p - poly[:-1] - t[:, None] * d, axis=1)))


@pytest.mark.parametrize(
    "ratio, clockwise, skewed",
    [
        (-0.05, False, True),
        (-3.0, False, True),
        (-0.3, True, False),
        (-0.3, True, True),
        (0.3, False, True),
        (0.05, True, True),
        (3.0, True, False),
    ],
)
def test_exact_membership_regimes(ratio, clockwise, skewed):
    # eig_real/eig_imag = ratio (its sign is the trace sign).
    ei = 1.3
    spin = -1.0 if clockwise else 1.0
    drift = np.array([[ratio * ei, -spin * ei], [spin * ei, ratio * ei]])
    basis = np.array([[1.2, 0.45], [-0.3, 0.8]]) if skewed else np.eye(2)
    a = basis @ drift @ np.linalg.inv(basis)
    sys = LinearControlSystem(a, [0.7, -0.4], -0.8, 1.1)
    region = build_orbit_region(sys)
    poly, p_plus, p_minus = _series_boundary(a, sys.eta, sys.u_min, sys.u_max)
    size = float(np.linalg.norm(p_plus - p_minus))
    np.testing.assert_allclose(region.p_plus, p_plus, rtol=0, atol=1e-9 * size)
    np.testing.assert_allclose(region.p_minus, p_minus, rtol=0, atol=1e-9 * size)

    def verdict(v):
        return region.contains(v).verdict

    # The open chord is interior, between the equilibria and beyond them.
    work = region.work_system
    v_min, v_max = equilibrium(work, work.u_min), equilibrium(work, work.u_max)
    for lo, hi in ((v_min, v_max), (p_minus, v_min), (v_max, p_plus)):
        for s in (0.0, 0.25, 0.5, 0.75, 1.0) if lo is v_min else (0.25, 0.5, 0.75):
            assert verdict(lo + s * (hi - lo)) is Membership.INTERIOR
    # Just past the corners on the same line is exterior.
    chord = p_plus - p_minus
    assert verdict(p_plus + 1e-3 * chord) is Membership.EXTERIOR
    assert verdict(p_minus - 1e-3 * chord) is Membership.EXTERIOR
    # The arc endpoints, and samples of either arc, are on the boundary.
    assert verdict(region.p_plus) is Membership.BOUNDARY
    assert verdict(region.p_minus) is Membership.BOUNDARY
    for v in poly[:: len(poly) // 16]:
        assert verdict(v) is Membership.BOUNDARY

    # Verdicts agree with the even-odd rule away from a 1e-9 * size band:
    # random points, and boundary samples pushed 1e-8 * size along the
    # outward normal (the region is convex and v_min is interior).
    rng = np.random.default_rng(73)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    pad = 0.2 * (hi - lo)
    pts = [rng.uniform(lo - pad, hi + pad, (2000, 2))]
    idx = rng.integers(1, len(poly) - 1, 200)
    tangent = poly[idx + 1] - poly[idx - 1]
    normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    normal *= np.sign(np.sum(normal * (poly[idx] - v_min), axis=1))[:, None]
    for side in (1.0, -1.0):
        pts.append(poly[idx] + side * 1e-8 * size * normal)
    pts = np.vstack(pts)
    inside = _even_odd(pts, poly)
    assert inside[2000:2200].sum() == 0 and inside[2200:].all()
    disagree = pts[(region.margins_many(pts) > 0.0) != inside]
    assert all(_brute_distance(p, poly) <= 1e-9 * size for p in disagree)


def _segment_loop_distance(p, poly):
    best = math.inf
    for a, b in zip(poly[:-1], poly[1:]):
        d = b - a
        len2 = float(d @ d)
        t = 0.0 if len2 == 0.0 else min(1.0, max(0.0, float((p - a) @ d) / len2))
        best = min(best, math.hypot(*(p - a - t * d)))
    return best


@pytest.mark.parametrize("segments", [3, 2048])
def test_polyline_distance_matches_segment_loop(segments):
    rng = np.random.default_rng(67 + segments)
    poly = np.cumsum(rng.normal(0.0, 1.0, (segments + 1, 2)), axis=0)
    poly[2] = poly[1]  # a zero-length segment
    # With 3 segments (one block) the queries span three of the pruned
    # search's chunks of 16,384 // 3 (point, block) pairs.
    n = 2 * (16384 // segments) + 3
    pts = rng.uniform(poly.min(axis=0) - 1.0, poly.max(axis=0) + 1.0, (n, 2))
    pts[0] = poly[1]  # on the vertex of the zero-length segment
    pts[-1] = poly[0]  # on the first vertex
    d = polyline_distance(pts, poly)
    want = [_segment_loop_distance(p, poly) for p in pts]
    np.testing.assert_allclose(d, want, rtol=0.0, atol=1e-14 * np.abs(poly).max())
    assert d[0] == 0.0 and d[-1] == 0.0


@pytest.mark.parametrize("trace_sign", [-1, 1])
@pytest.mark.parametrize("clockwise", [False, True])
def test_polyline_distance_equals_all_pairs_on_orbit_boundaries(trace_sign, clockwise):
    rng = np.random.default_rng([73, trace_sign + 1, clockwise])
    a = random_complex_matrix(rng, trace_sign)  # skewed basis
    if (a[1, 0] < 0.0) != clockwise:
        flip = np.diag([1.0, -1.0])
        a = flip @ a @ flip  # same trace, other rotation sense
    region = build_orbit_region(LinearControlSystem(a, *random_control_data(rng)))
    poly = region.boundary
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    pad = 0.25 * (hi - lo)
    # More points than one 256-row chunk, inside and outside the orbit.
    pts = np.vstack([rng.uniform(lo - pad, hi + pad, (600, 2)), poly[::97]])
    assert (region.margins_many(pts) < 0.0).any() and (region.margins_many(pts) > 0.0).any()
    assert np.array_equal(polyline_distance(pts, poly), all_pairs_distance(pts, poly))


@pytest.mark.parametrize("segments", [1, 3, 31, 33, 2048])
@pytest.mark.parametrize("size, offset", [(1.0, 0.0), (1e-12, 0.0), (1e12, 0.0), (1.0, 1e9)])
def test_polyline_distance_equals_all_pairs_on_random_walks(segments, size, offset):
    rng = np.random.default_rng(79 + segments)
    poly = np.cumsum(rng.normal(0.0, 1.0, (segments + 1, 2)), axis=0)
    if segments >= 3:
        poly[2] = poly[1]  # zero-length segments, one inside a block
        poly[-1] = poly[-2]  # and the last one
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    mids = 0.5 * (poly[:-1] + poly[1:])
    far = np.array([[1e6, 0.0], [-3e5, 7e5], [0.0, -1e6]])
    pts = np.vstack([rng.uniform(lo - 1.0, hi + 1.0, (300, 2)), poly, mids[::3], far])
    poly, pts = offset + size * poly, offset + size * pts
    # Points near the origin; with an offset they lie nearer the origin than
    # the polyline does, so a last block padded with segments at the origin
    # would report |p|.
    pts = np.vstack([pts, size * rng.uniform(-1.0, 1.0, (20, 2))])
    got = polyline_distance(pts, poly)
    assert np.array_equal(got, all_pairs_distance(pts, poly))
    if offset == 0.0:
        assert (got[300 : 300 + len(poly)] == 0.0).all()  # on the vertices


@pytest.mark.parametrize(
    "first, last_but_one, point",
    [
        # ``first`` 1 ulp nearer than the origin.
        ((0.4185717192571917, 0.32904306351775003), (-711.929, -182.481),
         (0.12202639193164433, 0.2755232499683522)),
        # ``first`` about 4,000 ulps nearer than the origin, beyond the 256
        # relative ulps; the slack's term in the longest segment covers it.
        ((0.014138425527918, 0.034004466482552), (-610.6, -35.9), (0.006988, 0.017036)),
    ],
)
def test_polyline_distance_keeps_a_block_tied_with_the_upper_bound(first, last_but_one, point):
    # 33 segments: block 0 runs from ``first`` straight away from ``point``,
    # block 1 is one long segment ending at the origin.  ``point`` lies
    # about as far from ``first`` (block 0's head) as from the origin (block
    # 1's box corner), and projecting onto the long segment rounds below the
    # box gap; a block test without slack drops block 1 and misses that value.
    first, pt = np.array(first), np.array([point])
    poly = np.vstack(
        [first, first + np.outer(np.arange(1, 32), first - pt[0]), last_but_one, [0.0, 0.0]]
    )
    assert np.array_equal(polyline_distance(pt, poly), all_pairs_distance(pt, poly))
