"""Half-turn pair iterates and fixed points, the periodic orbit, classification, sweep."""

import math
import tracemalloc

import numpy as np
import pytest

from planarcontrol.controlset import (
    Classification,
    classify,
    half_turn_fixed_points,
    periodic_orbit,
    sweep_control_ranges,
)
from planarcontrol.errors import TraceZero
from planarcontrol.geometry import build_orbit_region
from planarcontrol.planar import line_coordinate
from planarcontrol.system import LinearControlSystem, equilibrium, flow

from conftest import converged_fixed_points, random_system, random_trace_zero_system
from lemmas import from_unit


def _geometric_sum_oracle(sys, n):
    """Corrected closed-form iterates, written out independently."""
    q = math.exp(math.pi * sys.canonical.eig_real / sys.canonical.eig_imag)
    v_min = equilibrium(sys, sys.u_min)
    v_max = equilibrium(sys, sys.u_max)
    out = [v_max]
    for k in range(1, n + 1):
        if k % 2 == 0:
            s1 = sum(q**j for j in range(k))  # j = 0 .. k-1
            s2 = sum(q**j for j in range(k + 1))  # j = 0 .. k
            out.append(-q * s1 * v_min + s2 * v_max)
        else:
            s1 = sum(q**j for j in range(k + 1))
            s2 = sum(q**j for j in range(k))
            out.append(s1 * v_min - q * s2 * v_max)
    return out


def _pair_iterate(sys, n):
    """The unit frame's pair iterate x_n in original coordinates."""
    return from_unit(sys.unit, sys.unit.pair_iterate(n))


def _pair_replay(sys, n):
    """2n half turns from v(u_min), alternately under u_max and u_min."""
    half = sys.half_period
    v = equilibrium(sys, sys.u_min)
    for _ in range(n):
        v = flow(sys, half, flow(sys, half, v, sys.u_max), sys.u_min)
    return v


def test_iterates_start_and_recurrence(s0):
    assert s0.unit.pair_iterate(0) == -1.0
    np.testing.assert_allclose(_pair_iterate(s0, 0), [-0.5, -0.5], atol=1e-15)
    for n in range(1, 5):
        assert np.linalg.norm(_pair_iterate(s0, n) - _pair_replay(s0, n)) < 1e-12


def test_iterates_match_geometric_sums_random():
    # The oracle's P_2n start at v(u_max) and turn under u_min first: the
    # mirror w -> -w of the unit frame, which swaps the two controls, takes
    # them to the pair iterates.
    rng = np.random.default_rng(61)
    for _ in range(200):
        sys = random_system(rng, trace_sign=-1)
        expect = _geometric_sum_oracle(sys, 10)
        for n in range(6):
            got = from_unit(sys.unit, -sys.unit.pair_iterate(n))
            e = expect[2 * n]
            assert np.linalg.norm(got - e) < 1e-9 * (1.0 + np.linalg.norm(e))


def test_iterates_contract_geometrically(s0):
    _, pm = half_turn_fixed_points(s0)
    base = np.linalg.norm(_pair_iterate(s0, 0) - pm)
    q2 = math.exp(2.0 * math.pi * s0.canonical.eig_real / s0.canonical.eig_imag)
    # From n = 4 on the gap is below 1e-12, so rounding of the iterate's
    # coordinates (a few ulps of |p_minus|) counts too.
    rounding = 8.0 * np.finfo(float).eps * np.linalg.norm(pm)
    for n in range(1, 6):
        gap = np.linalg.norm(_pair_iterate(s0, n) - pm)
        assert gap <= q2**n * base * (1 + 1e-6) + rounding


def test_iterates_positive_trace_run_time_reversed(s0):
    # Forward in time a positive-trace system's pair iterates replay its
    # half turns and run away from the orbit; on its time reversal they
    # converge to its corner p_plus.
    pos = s0.time_reversed()
    for n in range(1, 4):
        want = _pair_replay(pos, n)
        assert np.linalg.norm(_pair_iterate(pos, n) - want) < 1e-12 * np.linalg.norm(want)
    work = pos.time_reversed()
    pp, _ = half_turn_fixed_points(pos)
    gaps = [np.linalg.norm(_pair_iterate(work, n) - pp) for n in range(4)]
    q2 = math.exp(-2.0 * math.pi * pos.canonical.eig_real / pos.canonical.eig_imag)
    for a, b in zip(gaps, gaps[1:]):
        assert b == pytest.approx(q2 * a, rel=1e-6, abs=0.0)


def test_fixed_points_worked_values(s0):
    pp, pm = half_turn_fixed_points(s0)
    np.testing.assert_allclose(pp, [0.5451657, 0.5451657], atol=5e-8)
    np.testing.assert_allclose(pm, -pp, atol=1e-15)
    oracle_pp, _ = converged_fixed_points(s0)
    assert np.linalg.norm(pp - oracle_pp) < 1e-12


def test_fixed_points_half_turn_closure_random():
    rng = np.random.default_rng(67)
    for _ in range(200):
        sys = random_system(rng, trace_sign=rng.choice([-1, 1]))
        pp, pm = half_turn_fixed_points(sys)
        half = sys.half_period
        scale = 1.0 + max(np.linalg.norm(pp), np.linalg.norm(pm))
        assert np.linalg.norm(flow(sys, half, pp, sys.u_min) - pm) < 1e-9 * scale
        assert np.linalg.norm(flow(sys, half, pm, sys.u_max) - pp) < 1e-9 * scale


def test_fixed_points_displacement_identity():
    # P+ - v(u_max) = ((u_max - u_min) q / (u_max (1 - q))) v(u_max), u_max != 0.
    rng = np.random.default_rng(71)
    count = 0
    while count < 100:
        sys = random_system(rng, trace_sign=-1)
        if abs(sys.u_max) < 0.05 or abs(sys.u_min) < 0.05:
            continue
        count += 1
        q = math.exp(math.pi * sys.canonical.eig_real / sys.canonical.eig_imag)
        pp, pm = half_turn_fixed_points(sys)
        v_max = equilibrium(sys, sys.u_max)
        v_min = equilibrium(sys, sys.u_min)
        lhs = pp - v_max
        rhs = ((sys.u_max - sys.u_min) * q / (sys.u_max * (1 - q))) * v_max
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1 + np.abs(rhs).max()))
        lhs2 = pm - v_min
        rhs2 = -((sys.u_max - sys.u_min) * q / (sys.u_min * (1 - q))) * v_min
        np.testing.assert_allclose(lhs2, rhs2, atol=1e-10 * (1 + np.abs(rhs2).max()))


def test_fixed_points_reject_trace_zero(t0):
    with pytest.raises(TraceZero):
        half_turn_fixed_points(t0)


def test_periodic_orbit_closure_and_radii(s0):
    orbit = periodic_orbit(s0, samples_per_arc=64)
    # Closure through both half turns.
    back = flow(s0, orbit.half_period, flow(s0, orbit.half_period, orbit.p_plus, s0.u_min), s0.u_max)
    assert np.linalg.norm(back - orbit.p_plus) < 1e-9
    # Arc radius identity with respect to the arc's own equilibrium.
    v_min = equilibrium(s0, s0.u_min)
    r0 = np.linalg.norm(orbit.p_plus - v_min)
    er = s0.canonical.eig_real
    for i, pt in enumerate(orbit.arc_minus):
        s = orbit.half_period * i / 64
        assert np.linalg.norm(pt - v_min) == pytest.approx(
            math.exp(s * er) * r0, rel=1e-9
        )
    # Symmetric control range: the orbit is symmetric under v -> -v.
    np.testing.assert_allclose(
        orbit.arc_plus, -orbit.arc_minus, atol=1e-12
    )


def test_periodic_orbit_rejects_small_sampling(s0):
    with pytest.raises(ValueError):
        periodic_orbit(s0, samples_per_arc=8)


def test_classify_examples(s0, t0):
    assert classify(s0) is Classification.CLOSED_CONTROL_SET
    assert classify(t0) is Classification.CONTROLLABLE_TRACE_ZERO
    assert (
        classify(s0.time_reversed())
        is Classification.OPEN_CONTROL_SET_WITH_BOUNDARY_ORBIT
    )


def test_classify_invariant_under_conjugation_and_scaling():
    rng = np.random.default_rng(73)
    for _ in range(50):
        sys = random_system(rng, trace_sign=rng.choice([-1, 1]))
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        c = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
        # Scaling eta by c with the range scaled by 1/c leaves u*eta ranges
        # identical up to relabeling (order flips when c < 0).
        lo, hi = sorted((sys.u_min / c, sys.u_max / c))
        conj = LinearControlSystem(rot @ sys.a @ rot.T, c * sys.eta, lo, hi)
        assert classify(conj) is classify(sys)


def test_control_sets_descriptor_table(s0, t0):
    # Negative trace: one closed control set, the enclosed region.
    assert classify(s0) is Classification.CLOSED_CONTROL_SET
    assert build_orbit_region(s0).boundary is not None

    # Positive trace: the open region and the periodic orbit, one boundary.
    rev = s0.time_reversed()
    assert classify(rev) is Classification.OPEN_CONTROL_SET_WITH_BOUNDARY_ORBIT
    region = build_orbit_region(rev)
    np.testing.assert_allclose(region.boundary, region.orbit.polyline(), atol=0)

    # Zero trace: the whole plane, with no enclosed region.
    assert classify(t0) is Classification.CONTROLLABLE_TRACE_ZERO
    with pytest.raises(TraceZero):
        build_orbit_region(t0)


def test_line_order_random_negative_trace():
    rng = np.random.default_rng(79)
    for _ in range(100):
        sys = random_system(rng, trace_sign=-1)
        pp, pm = half_turn_fixed_points(sys)
        direction = -sys.inv_a_eta
        coords = [
            line_coordinate(pm, direction),
            line_coordinate(equilibrium(sys, sys.u_min), direction),
            line_coordinate(equilibrium(sys, sys.u_max), direction),
            line_coordinate(pp, direction),
        ]
        assert coords[0] < coords[1] < coords[2] < coords[3]


def test_sweep_affine_and_growth(s0):
    grid = [(-1.0, 1.0), (-1.0, 2.0), (-2.0, 1.0), (-2.0, 2.0)]
    pts = sweep_control_ranges(s0.a, s0.eta, 0.0, grid, samples_per_arc=64)
    # Rectangle identity of an affine map: f(a,r) + f(a',r') = f(a,r') + f(a',r).
    lhs = pts[0].p_plus + pts[3].p_plus
    rhs = pts[1].p_plus + pts[2].p_plus
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # Growing rho pushes the line coordinate of p_plus up without bound.
    rhos = [1.0, 5.0, 25.0, 125.0]
    family = sweep_control_ranges(
        s0.a, s0.eta, 0.0, [(-1.0, r) for r in rhos], samples_per_arc=64
    )
    coords = [p.p_plus_coordinate for p in family]
    assert all(b > a for a, b in zip(coords, coords[1:]))
    assert coords[-1] > 50.0


def test_sweep_hausdorff_decreases_with_delta(s0):
    deltas = [1e-1, 1e-2, 1e-3]
    values = []
    for d in deltas:
        pts = sweep_control_ranges(
            s0.a, s0.eta, 0.0, [(-1.0, 1.0), (-1.0, 1.0 + d)], samples_per_arc=512
        )
        values.append(pts[1].hausdorff_prev)
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-2


def test_sweep_holds_no_boundary_once_it_returns(s0):
    # 64 ranges at 4,096 samples per arc, where one boundary takes 8,193
    # points (131 kB).  The sweep keeps only the previous boundary for its
    # Hausdorff distance; keeping every range's would hold 64 of them.
    samples = 4096
    grid = [(-1.0 - 0.01 * k, 1.0 + 0.01 * k) for k in range(64)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        points = sweep_control_ranges(s0.a, s0.eta, 0.0, grid, samples_per_arc=samples)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(points) == 64
    assert held <= 3 * periodic_orbit(s0, samples).polyline().nbytes


def test_sweep_validates_pivot(s0):
    with pytest.raises(ValueError):
        sweep_control_ranges(s0.a, s0.eta, 0.0, [(0.5, 1.0)])
    with pytest.raises(TraceZero):
        sweep_control_ranges([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0], 0.0, [(-1.0, 1.0)])


def test_trace_zero_band_uses_matrix_scale():
    # Exactly representable tiny trace within the band classifies as zero.
    a = np.array([[1e-12, -1.0], [1.0, 0.0]])
    sys = LinearControlSystem(a, [1.0, 0.0], -1.0, 1.0)
    assert classify(sys) is Classification.CONTROLLABLE_TRACE_ZERO


def test_random_trace_zero_sampler_classifies_zero():
    rng = np.random.default_rng(83)
    for _ in range(20):
        sys = random_trace_zero_system(rng, normal=bool(rng.integers(0, 2)))
        assert classify(sys) is Classification.CONTROLLABLE_TRACE_ZERO


@pytest.mark.parametrize("c", [1e160, 1e200, 1e300, 1e-160, 1e-200, 1e-300])
def test_extreme_drift_scale_is_closed_or_rejected(c):
    # Naively, ||c A||_F and the discriminant overflow (or underflow) here.
    a = c * np.array([[-1.0, -1.0], [1.0, -1.0]])
    try:
        sys = LinearControlSystem(a, [1.0, 0.0], -1.0, 1.0)
    except ValueError:
        return
    assert classify(sys) is Classification.CLOSED_CONTROL_SET


def test_trace_zero_band_is_scale_free():
    # ||A||_F overflows, det A does not: a closed set, not a zero trace.
    sys = LinearControlSystem([[-1e150, -1e155], [1e150, -1e150]], [1.0, 0.0], -1.0, 1.0)
    assert classify(sys) is Classification.CLOSED_CONTROL_SET
