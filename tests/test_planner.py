"""Hop planning (zero trace), reach planning, and spiral crossings."""

import cmath
import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planarcontrol import planner
from planarcontrol.errors import (
    EpsilonTooSmall,
    InvalidControl,
    NoIntersectionFound,
    PreconditionViolated,
    TargetNotInterior,
    TraceNotZero,
    TraceZero,
)
from planarcontrol.geometry import build_orbit_region
from planarcontrol.planner import _crossing_search, hop_plan, loop_plan, reach_plan, spiral_crossing
from planarcontrol.system import LinearControlSystem, equilibrium, flow, flow_many, simulate

from conftest import random_system, random_trace_zero_system, scaled_expm, systems
from lemmas import from_unit, reference_crossing_search, scan_bisect_crossing_search

EPS = np.finfo(float).eps


def test_hop_plan_worked_example(t0):
    plan = hop_plan(t0, [0.0, 5.0], 0.0)
    assert plan.schedule == (
        (1.0, math.pi),
        (-1.0, math.pi),
        (0.5, math.pi),
    )
    assert plan.hops == 3
    assert plan.endpoint_error < 1e-9
    np.testing.assert_allclose(plan.goal, [0.0, 0.0], atol=0)


def test_hop_plan_trivial_and_single_arc(t0):
    empty = hop_plan(t0, [0.0, 0.0], 0.0)
    assert empty.schedule == ()
    assert empty.endpoint_error == 0.0
    single = hop_plan(t0, [0.0, 1.0], 0.0)
    assert len(single.schedule) == 1
    u_n, dt = single.schedule[0]
    assert u_n == pytest.approx(0.5, abs=1e-12)
    assert dt == pytest.approx(math.pi, abs=0)
    assert single.endpoint_error < 1e-9


def test_hop_plan_requires_zero_trace(s0):
    with pytest.raises(TraceNotZero):
        hop_plan(s0, [0.0, 1.0], 0.0)


def test_hop_plan_rejects_goal_outside_range(t0):
    with pytest.raises(InvalidControl):
        hop_plan(t0, [0.0, 1.0], 3.0)


def test_hop_plan_control_pad_is_relative_to_the_range():
    # Rounding pads the range by 1e-9 of its bounds, not by 1e-9 absolute:
    # 5e-10 lies 500 half-widths from the centre of [-1e-12, 1e-12].
    sys = LinearControlSystem([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0], -1e-12, 1e-12)
    with pytest.raises(InvalidControl):
        hop_plan(sys, [0.0, 1e-11], 5e-10)


@pytest.mark.parametrize("lo", [1e6, 1e9])
def test_hop_plan_accuracy_does_not_depend_on_where_the_range_sits(lo):
    # The equilibrium of u is (0, u) and the stride is 2, wherever the range
    # sits; the answers may lose only the rounding of coordinates near lo.
    sys = LinearControlSystem([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0], lo, lo + 2.0)
    off_line = [-0.5, lo]
    past_window = [0.0, lo + 3.0 + 5e-10 * lo]  # just past the final arc's reach
    for start in (off_line, past_window):
        plan = hop_plan(sys, start, lo + 1.0)
        assert plan.endpoint_error <= 1e-9 + 1e-15 * lo, start


def test_hop_plan_random_systems_accuracy_and_bound():
    rng = np.random.default_rng(97)
    for _ in range(60):
        sys = random_trace_zero_system(rng)
        gap_vec = equilibrium(sys, sys.u_max) - equilibrium(sys, sys.u_min)
        gap = np.linalg.norm(gap_vec)
        radius = rng.uniform(0.0, 50.0) * gap
        ang = rng.uniform(0.0, 2.0 * math.pi)
        v = radius * np.array([math.cos(ang), math.sin(ang)])
        u0 = rng.uniform(sys.u_min, sys.u_max)
        plan = hop_plan(sys, v, u0)
        assert plan.endpoint_error < 1e-9
        bound = math.ceil(np.linalg.norm(v - equilibrium(sys, sys.u_min)) / gap) + 1
        assert plan.hops <= bound


def test_hop_plan_march_radii_shrink_by_stride():
    # Consecutive marching circles lose exactly one control-range stride of
    # radius per hop (canonical-frame measurement; systems here are normal).
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        sys = random_trace_zero_system(rng)
        gap = np.linalg.norm(
            equilibrium(sys, sys.u_max) - equilibrium(sys, sys.u_min)
        )
        # Start on the equilibrium line, beyond the range, so every arc
        # except the last is a marching half turn.
        direction = -sys.inv_a_eta / np.linalg.norm(sys.inv_a_eta)
        v = equilibrium(sys, sys.u_max) + rng.uniform(2.0, 30.0) * gap * direction
        plan = hop_plan(sys, v, rng.uniform(sys.u_min, sys.u_max))
        if len(plan.schedule) < 3:
            continue
        checked += 1
        traj = simulate(sys, v, plan.schedule)
        pts = traj.states
        radii = []
        for k, (u, _) in enumerate(plan.schedule[:-1]):  # marching arcs only
            center = equilibrium(sys, u)
            radii.append(np.linalg.norm(pts[k] - center))
        for r0, r1 in zip(radii, radii[1:]):
            assert r0 - r1 == pytest.approx(gap, abs=1e-9 * (1 + r0))


def test_hop_plan_off_line_meets_bound(t0):
    # Off-line start whose best first landing needs the window finish.
    v = np.array([1.0, -2.6747])
    plan = hop_plan(t0, v, 0.0)
    gap = 2.0
    bound = math.ceil(np.linalg.norm(v - np.array([0.0, -1.0])) / gap) + 1
    assert plan.hops <= bound
    assert plan.endpoint_error < 1e-9


def test_hop_plan_refuses_starts_beyond_two_to_the_twenty_strides(t0):
    # A start at 1e9 would need 5e8 hops; it is refused before any march.
    for plan in (hop_plan, loop_plan):
        with pytest.raises(PreconditionViolated):
            plan(t0, [0.0, 1e9], 0.0)
    # One at 1e4 still plans: 5,000 hops, one rounding of its size per hop.
    plan = hop_plan(t0, [0.0, 1e4], 0.0)
    assert plan.hops == 5000
    assert plan.endpoint_error <= plan.hops * EPS * 1e4


def test_loop_plan_closes_periodic_orbit(t0):
    start = np.array([0.0, 5.0])
    hop = hop_plan(t0, start, 0.0)
    loop = loop_plan(t0, start, 0.0)
    assert loop.endpoint_error < 1e-9
    total = sum(dt for _, dt in hop.schedule) + sum(dt for _, dt in loop.schedule)
    assert total == pytest.approx(2.0 * hop.hops * math.pi, rel=1e-12)
    # Concatenation returns to the start.
    traj = simulate(t0, start, hop.schedule + loop.schedule)
    assert np.linalg.norm(traj.endpoint - start) < 1e-9


def test_loop_plan_empty_for_goal_start(t0):
    loop = loop_plan(t0, equilibrium(t0, 0.5), 0.5)
    assert loop.schedule == ()


def test_reach_plan_to_equilibrium_target(s0):
    plan = reach_plan(s0, equilibrium(s0, s0.u_max), 1e-4)
    assert plan.endpoint_error < 1e-4
    np.testing.assert_allclose(plan.start, equilibrium(s0, s0.u_min), atol=1e-15)
    # Self-certification: replaying the schedule reproduces the endpoint.
    again = simulate(s0, plan.start, plan.schedule).endpoint
    assert np.linalg.norm(again - plan.endpoint) < 1e-9


def test_reach_plan_trivial_target(s0):
    plan = reach_plan(s0, equilibrium(s0, s0.u_min), 1e-6)
    assert plan.schedule == ()
    assert plan.endpoint_error < 1e-12


def test_reach_plan_controls_are_extreme_only(s0):
    region = build_orbit_region(s0)
    rng = np.random.default_rng(103)
    for _ in range(5):
        target = _interior_point(rng, region)
        plan = reach_plan(s0, target, 1e-4)
        for u, _ in plan.schedule:
            assert u in (s0.u_min, s0.u_max)


def test_reach_plan_error_decays_per_pair(s0):
    target = np.array([0.1, -0.2])
    q2 = math.exp(2.0 * math.pi * s0.canonical.eig_real / s0.canonical.eig_imag)
    errors = [reach_plan(s0, target, 1.0, pairs=k).endpoint_error for k in range(1, 6)]
    assert all(b <= a * 1.05 for a, b in zip(errors, errors[1:]))
    for a, b in zip(errors[:3], errors[1:4]):
        assert 0.25 * q2 <= b / a <= 4.0 * q2


def test_reach_plan_starts_from_zero_pairs(s0):
    # The u_max half turn from v(u_min) itself (k = 0) already meets this
    # target's backward u_min flow.
    plan = reach_plan(s0, [0.1, -0.2], 1e-9)
    assert len(plan.schedule) == 2
    assert [u for u, _ in plan.schedule] == [s0.u_max, s0.u_min]
    assert plan.endpoint_error <= 1e-14 * build_orbit_region(s0).scale


def test_reach_plan_stays_inside_region(s0):
    region = build_orbit_region(s0)
    rng = np.random.default_rng(107)
    for _ in range(5):
        target = _interior_point(rng, region)
        plan = reach_plan(s0, target, 1e-4)
        traj = simulate(s0, plan.start, plan.schedule)
        margins = region.margins_many(traj.dense_states)
        assert margins.min() >= -1e-6 * max(1.0, region.scale)


def test_reach_plan_rejects_exterior_target(s0):
    with pytest.raises(TargetNotInterior):
        reach_plan(s0, [5.0, 5.0], 1e-4)
    with pytest.raises(TargetNotInterior):
        # Boundary point is not interior.
        region = build_orbit_region(s0)
        reach_plan(s0, region.p_plus, 1e-4)


def test_reach_plan_rejects_negative_pairs(s0):
    with pytest.raises(ValueError):
        reach_plan(s0, [0.1, -0.2], 1.0, pairs=-3)


def test_reach_plan_typed_errors(s0, t0):
    with pytest.raises(ValueError):
        reach_plan(s0, [0.1, -0.2], 0.0)
    with pytest.raises(TraceZero):
        reach_plan(t0, [0.1, -0.2], 1e-9)
    with pytest.raises(EpsilonTooSmall):
        reach_plan(s0, [0.1, -0.2], 1e-300)


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, math.nan])
def test_reach_plan_rejects_an_epsilon_that_is_not_positive(epsilon):
    # A NaN epsilon used to pass both the guard and the closing error check.
    sys = LinearControlSystem([[-0.3, -1.0], [1.0, -0.3]], [1.0, 0.0], -1.0, 1.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        reach_plan(sys, [0.1, 0.0], epsilon)


def _pulled_targets(sys, region, depth, per_arc=39):
    """Orbit points, per_arc per arc, each pulled towards the midpoint of the
    corners until its margin is depth * scale."""
    s = sys.half_period * np.arange(1, per_arc + 1) / (per_arc + 1)
    ends = np.vstack([
        flow_many(sys, s, region.p_plus, sys.u_min),
        flow_many(sys, s, region.p_minus, sys.u_max),
    ])
    centre = 0.5 * (region.p_plus + region.p_minus)
    lo, hi = np.zeros(len(ends)), np.ones(len(ends))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        deep = region.margins_many(centre + mid[:, None] * (ends - centre)) > depth * region.scale
        lo, hi = np.where(deep, mid, lo), np.where(deep, hi, mid)
    return centre + lo[:, None] * (ends - centre)


def test_reach_plan_crossing_turns_within_one_scan_step(s0):
    # Near the orbit's corner this target's backward u_min flow crosses the
    # u_max half turn twice within one scan step, once inside the arc window
    # and once just past it, so the level function is on one side of the
    # level at both ends of the step.
    target = np.array([0.38979474104685985, 0.5376880567450966])
    region = build_orbit_region(s0)
    assert region.margin(target) == pytest.approx(1e-3 * region.scale, rel=0.05)
    plan = reach_plan(s0, target, 1e-9)
    assert plan.endpoint_error <= 1e-14 * region.scale


def test_reach_plan_depth_sweep_towards_the_boundary(s0):
    region = build_orbit_region(s0)
    for depth in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        for target in _pulled_targets(s0, region, depth):
            plan = reach_plan(s0, target, 1e-9 * region.scale)
            assert plan.endpoint_error <= 1e-14 * region.scale


def test_reach_plan_accepts_targets_near_the_boundary(s0):
    # Only the rounding band of boundary points (1e-12 * scale) is rejected.
    for sys in (s0, _slow_system(-0.3, True)):
        region = build_orbit_region(sys)
        for depth in (5e-7, 1e-9, 1e-11):
            for target in _pulled_targets(sys, region, depth, per_arc=3):
                plan = reach_plan(sys, target, 1e-9 * region.scale)
                assert plan.endpoint_error <= 1e-14 * region.scale


def test_reach_plan_positive_trace_runs_reversed(s0):
    rev = s0.time_reversed()
    plan = reach_plan(rev, [0.1, 0.1], 1e-4)
    assert plan.time_reversed
    assert plan.endpoint_error < 1e-4
    # The schedule drives the time-reversed dynamics.
    traj = simulate(rev.time_reversed(), plan.start, plan.schedule)
    assert np.linalg.norm(traj.endpoint - plan.endpoint) < 1e-9


def _slow_system(ratio, skewed):
    """eig_real/eig_imag = ratio; normal and counter-clockwise, or clockwise
    in a skewed basis."""
    drift = np.array([[ratio, -1.0], [1.0, ratio]])
    if skewed:
        basis = np.array([[1.2, 0.3], [-0.2, 0.9]])
        drift = basis @ drift.T @ np.linalg.inv(basis)
    return LinearControlSystem(drift, [0.6, -0.8], -1.0, 0.5)


@pytest.mark.parametrize("skewed", [False, True])
@pytest.mark.parametrize("ratio", [-0.03, -0.01])
def test_reach_plan_exact_at_slow_contraction(ratio, skewed):
    # q^2 = e^{2 pi ratio} is 0.83 and 0.94 here, so a plan that only
    # approaches the limit orbit would need hundreds of pairs for this
    # epsilon.
    sys = _slow_system(ratio, skewed)
    region = build_orbit_region(sys)
    scale = max(1.0, region.scale)
    rng = np.random.default_rng(113)
    for _ in range(6):
        target = _interior_point(rng, region)
        plan = reach_plan(sys, target, 1e-9 * scale)
        assert plan.endpoint_error <= 1e-12 * scale
        assert all(u in (sys.u_min, sys.u_max) for u, _ in plan.schedule)
        traj = simulate(sys, plan.start, plan.schedule)
        assert region.margins_many(traj.dense_states).min() >= -1e-12 * scale


# The bounds are about three times the worst of 20,000 random systems of this
# family, in units of EPS and of the scale: 4.2 for the certified endpoint
# error and 4.9 for the replay, whose rounding also grows with the phase.
@given(systems(), st.floats(0.05, 0.9), st.integers(0, 2**16))
def test_reach_plan_replays_onto_target(sys, depth, vertex):
    work = sys.time_reversed() if sys.trace > 0.0 else sys
    region = build_orbit_region(work)
    poly = region.boundary[:-1]
    centroid = poly.mean(axis=0)
    # The region is convex, so this point is interior.
    target = centroid + depth * (poly[vertex % len(poly)] - centroid)
    plan = reach_plan(sys, target, 1e-9 * region.scale)
    e_min = equilibrium(work, work.u_min)
    e_max = equilibrium(work, work.u_max)
    cond = np.linalg.cond(sys.canonical.basis)
    ref = cond * (np.linalg.norm(e_min) + np.linalg.norm(e_max) + region.scale)
    assert plan.endpoint_error <= 16.0 * EPS * ref
    v = plan.start
    for u, dt in plan.schedule:
        center = -u * np.linalg.solve(work.a, work.eta)
        v = scaled_expm(work.a, dt) @ (v - center) + center
    phase = abs(work.canonical.lam) * sum(dt for _, dt in plan.schedule)
    assert np.linalg.norm(v - target) <= 16.0 * EPS * ref * (1.0 + phase)


def _assert_matches_reference(sys, target):
    """reach_plan against the fixed-step scan with bisected roots: the same
    pair count, and the same (t, s) within 1e-12, relative to each time or
    (near 0) to the half period."""
    work = sys.time_reversed() if sys.trace > 0.0 else sys
    scale = build_orbit_region(work).scale
    plan = reach_plan(sys, target, 1e-9 * scale)
    with reference_crossing_search():
        ref = reach_plan(sys, target, 1e-9 * scale)
    assert len(plan.schedule) == len(ref.schedule)
    got = [dt for _, dt in plan.schedule[-2:]]
    want = [dt for _, dt in ref.schedule[-2:]]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * work.half_period)
    return plan


@given(systems(), st.floats(0.05, 0.9), st.integers(0, 2**16))
def test_reach_plan_matches_the_reference_search(sys, depth, vertex):
    work = sys.time_reversed() if sys.trace > 0.0 else sys
    poly = build_orbit_region(work).boundary[:-1]
    centroid = poly.mean(axis=0)
    _assert_matches_reference(sys, centroid + depth * (poly[vertex % len(poly)] - centroid))


@pytest.mark.parametrize("ratio", [-0.03, -0.01])
def test_reach_plan_matches_the_reference_search_at_slow_contraction(ratio):
    sys = _slow_system(ratio, skewed=True)
    region = build_orbit_region(sys)
    rng = np.random.default_rng(149)
    for _ in range(6):
        _assert_matches_reference(sys, _interior_point(rng, region))


def test_reach_plan_crossing_turns_within_one_bound_sized_step():
    # Near the boundary the backward flow meets the half turn twice within
    # one step longer than the shortest: g turns between the step's ends, on
    # the same side of the level.  Without the split at the turn the search
    # finds no crossing.
    sys = _slow_system(-0.3, skewed=True)
    region = build_orbit_region(sys)
    target = np.array([-1.5277635360721393, -0.31429024859885146])
    assert region.margin(target) == pytest.approx(1e-4 * region.scale, rel=1e-6)
    plan = _assert_matches_reference(sys, target)
    assert plan.endpoint_error <= 1e-14 * region.scale


def test_reference_search_takes_the_package_search_arguments():
    # reference_crossing_search() swaps the reference in for the package's
    # search, so both must pose the same problem.
    assert inspect.signature(_crossing_search) == inspect.signature(scan_bisect_crossing_search)


@pytest.mark.parametrize("ratio", [-1.0, -0.3, -0.03])
@pytest.mark.parametrize("edge", ["scan point", "t = 0", "t = half"])
def test_crossing_search_edges_match_the_reference(edge, ratio):
    # reach_plan's crossing, the flow about -1 run backwards against the half
    # turn about +1 from y_base, with the flow through the half turn's start
    # (t = 0) or end (t = half) at s = 0.37 half, or through its start at
    # s = 0, a scan point where g is exactly 0.
    sys = _slow_system(ratio, skewed=True)
    lam, half = sys.canonical.lam, sys.half_period
    y_base = 0.2 - 0.5j
    point, s_at = {
        "scan point": (y_base, 0.0),
        "t = 0": (y_base, 0.37 * half),
        "t = half": (1.0 + cmath.exp(lam * half) * (y_base - 1.0), 0.37 * half),
    }[edge]
    x_base = -1.0 + cmath.exp(lam * s_at) * (point + 1.0)
    args = (sys, x_base, 3.0 * half, 1.0, y_base, half)
    got = _crossing_search(*args)
    ref = scan_bisect_crossing_search(*args)
    assert abs(got[0] - s_at) <= 1e-14 * half
    assert abs(got[1] - (half if edge == "t = half" else 0.0)) <= 1e-15 * half
    assert got[2] <= 1e-14
    assert abs(got[0] - ref[0]) <= 1e-12 * half and abs(got[1] - ref[1]) <= 1e-12 * half
    if edge == "scan point":
        assert got[:2] == (0.0, 0.0)


@pytest.fixture
def search_starts(monkeypatch):
    """The y-curve time at the start (s = 0) of each crossing search that
    reach_plan runs on the package's search, in half periods."""
    starts = []
    search = planner._crossing_search

    def recording(sys, x_base, s_max, y_center, y_base, t_max):
        rate = sys.canonical.eig_real
        t = math.log(abs(x_base - y_center) / abs(y_base - y_center)) / rate
        starts.append(t / sys.half_period)
        return search(sys, x_base, s_max, y_center, y_base, t_max)

    monkeypatch.setattr(planner, "_crossing_search", recording)
    return starts


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize(
    "ratio, where",
    [
        # Fast contraction: the region is a thin lens between the corners,
        # near +-1 in the unit frame, and the window's t is reached only
        # near v(u_max) = +1, so targets close to it start past the window.
        (2.0, "near v(u_max)"),
        (2.0, "next to v(u_max)"),
        (3.0, "near v(u_max)"),
        (3.0, "next to v(u_max)"),
        # Slow contraction: the deep middle starts tens of half periods
        # past the window, and points 30% of the way to a corner more than
        # two half periods before or past it.
        (0.003, "middle"),
        (0.003, "towards p_minus"),
        (0.003, "towards p_plus"),
        (0.001, "middle"),
        (0.001, "towards p_minus"),
        (0.001, "towards p_plus"),
    ],
)
def test_reach_plan_matches_the_reference_from_far_outside_the_window(ratio, where, sign, search_starts):
    # The backward flow from these targets starts with its y-curve time far
    # outside the half turn's window, where the search takes skip steps.
    sys = _slow_system(sign * -ratio, skewed=True)
    region = build_orbit_region(sys)
    unit = region.work_system.unit
    p_minus, p_plus = unit.to_unit(region.p_minus), unit.to_unit(region.p_plus)
    w = {
        "near v(u_max)": 1.0 + 1e-3 * (p_plus - 1.0),
        "next to v(u_max)": 1.0 + 1e-4 * (p_plus - 1.0),
        "middle": 0.0,
        "towards p_minus": 0.3 * p_minus,
        "towards p_plus": 0.3 * p_plus,
    }[where]
    target = from_unit(unit, w)
    assert region.margin(target) > 0.0
    _assert_matches_reference(sys, target)
    last = search_starts[-1]
    assert last < -0.5 or last > 1.5, last


@pytest.mark.parametrize("ratio", [-3.0, -0.3, -0.03])
@pytest.mark.parametrize("side", ["before", "past"])
def test_crossing_search_root_at_the_end_of_a_skip_step(ratio, side):
    # reach_plan's geometry: the flow about -1 run backwards (x-curve)
    # against the half turn about +1 (y-curve, radius r0 at t = 0, window
    # [0, half]).  The x-curve starts with t before the window (rho above
    # r0) or past it (rho below r0 q), so the first step skips: it is the
    # longest on which the x-curve travels at most |rho_edge - rho(0)|,
    # here longer than the quarter half period that caps a searched step.
    # The y-curve is then turned to cross the x-curve at the skip's end.
    # There t is still outside the window, so the search must pass over
    # that crossing and find the one the reference finds.
    sys = _slow_system(ratio, skewed=True)
    cf, half = sys.canonical, sys.half_period
    lam, er = cf.lam, cf.eig_real
    slack = 1e-9 * half
    x_base = {"before": -1.0 + 0.02j, "past": 1.0 + 0.01j}[side]
    rho_0 = abs(x_base - 1.0)
    mu, speed = -er, abs(lam) * abs(x_base + 1.0)
    cap_travel = speed * math.expm1(mu * 0.25 * half) / mu
    if side == "before":
        r0 = 0.5 * rho_0
        rho_edge = r0 * math.exp(-er * slack)
    else:
        r0 = 4.0 * cap_travel * math.exp(-er * (half + slack))
        rho_edge = r0 * math.exp(er * (half + slack))
    s_skip = math.log1p(mu * abs(rho_edge - rho_0) / speed) / mu
    assert s_skip > 0.25 * half
    x_skip = -1.0 + cmath.exp(-lam * s_skip) * (x_base + 1.0)
    t_skip = math.log(abs(x_skip - 1.0) / r0) / er
    assert not -slack <= t_skip <= half + slack
    y_base = 1.0 + cmath.exp(-lam * t_skip) * (x_skip - 1.0)
    args = (sys, x_base, s_skip + 4.0 * half, 1.0, y_base, half)
    got = _crossing_search(*args)
    ref = scan_bisect_crossing_search(*args)
    assert (got is None) == (ref is None)
    if got is not None:
        assert got[0] > s_skip and 0.0 <= got[1] <= half and got[2] <= 1e-14
        assert abs(got[0] - ref[0]) <= 1e-12 * half and abs(got[1] - ref[1]) <= 1e-12 * half


@pytest.mark.parametrize("ratio", [-100.0, -1000.0])
def test_crossing_search_where_the_window_radius_overflows(ratio):
    # spiral_crossing's geometry, posed on the time-reversed system, at
    # extreme |k|: the window's far radius r0 e^{-eig_real t_max} is beyond
    # the floats, so a skip step from before the window runs to s_max.  The
    # search ends in a result or None, and spiral_crossing in a crossing or
    # a typed error.
    sys = _slow_system(ratio, skewed=True)
    half, er = sys.half_period, sys.canonical.eig_real
    t_max = 10.0 * half
    with pytest.raises(OverflowError):
        math.exp(-er * t_max)
    found = _crossing_search(sys.time_reversed(), 0.3 - 0.4j, t_max, 1.0, -1.0, t_max)
    assert found is None or (0.0 <= found[1] <= t_max and found[2] <= 1e-9)
    e_min = equilibrium(sys, sys.u_min)
    v = e_min + 0.1 * (equilibrium(sys, sys.u_max) - e_min) + [0.0, 0.01]
    try:
        s_at, t_at = spiral_crossing(sys, v, sys.u_max)
    except NoIntersectionFound:
        return
    gap = flow(sys, s_at, v, sys.u_min) - flow(sys, -t_at, e_min, sys.u_max)
    assert np.linalg.norm(gap) < 1e-9 * (1.0 + np.linalg.norm(v - e_min))


class _CountingMath:
    """``planner``'s ``math`` module, counting calls of atan2: ``level`` makes
    one per evaluation, and each crossing search one more."""

    def __init__(self):
        self.atan2_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def atan2(self, y, x):
        self.atan2_calls += 1
        return math.atan2(y, x)


def _count_batch():
    """A fixed batch of 144 reach requests: |eig_real|/eig_imag log-spaced
    over [0.05, 3], both trace signs, and three targets per system, on rays
    from the boundary's vertex centroid at stratified fractions of the way
    to a vertex (as perfbench draws them)."""
    rng = np.random.default_rng(157)
    batch = []
    for ratio in np.geomspace(0.05, 3.0, 24):
        for sign in (-1.0, 1.0):
            sys = _slow_system(sign * ratio, skewed=bool(rng.integers(2)))
            region = build_orbit_region(sys)
            poly = region.boundary[:-1]
            centroid = poly.mean(axis=0)
            for stratum in (np.arange(3) + rng.uniform(0.0, 1.0, 3)) / 3:
                vertex = poly[rng.integers(len(poly))]
                target = centroid + (0.05 + 0.8 * stratum) * (vertex - centroid)
                batch.append((sys, target, 1e-9 * region.scale))
    return batch


def test_reach_plan_level_evaluations_stay_pinned(monkeypatch):
    # The scan that searched every step t could reach from its start, with
    # ITP-held Illinois roots, took 47.17 level evaluations per request on
    # this batch; skip steps and Newton roots take 22.83.  The pin allows at
    # most 60% of the former.
    batch = _count_batch()
    counting, searches = _CountingMath(), []
    search = planner._crossing_search

    def counted_search(*args, **kwargs):
        searches.append(None)
        return search(*args, **kwargs)

    monkeypatch.setattr(planner, "math", counting)
    monkeypatch.setattr(planner, "_crossing_search", counted_search)
    for sys, target, epsilon in batch:
        reach_plan(sys, target, epsilon)
    assert (counting.atan2_calls - len(searches)) / len(batch) <= 0.6 * 47.17


def test_spiral_crossing_examples(s0):
    s_at, t_at = spiral_crossing(s0, equilibrium(s0, s0.u_min), s0.u_max)
    assert (s_at, t_at) == (0.0, 0.0)
    s_at, t_at = spiral_crossing(s0, [0.2, 0.0], s0.u_max)
    lhs = flow(s0, s_at, [0.2, 0.0], s0.u_min)
    rhs = flow(s0, -t_at, equilibrium(s0, s0.u_min), s0.u_max)
    assert np.linalg.norm(lhs - rhs) < 1e-9
    assert s_at >= 0.0 and t_at >= 0.0


def test_spiral_crossing_random_batch():
    rng = np.random.default_rng(109)
    solved = 0
    for _ in range(200):
        sys = random_system(rng, trace_sign=-1)
        region = build_orbit_region(sys)
        v = _interior_point(rng, region)
        u = rng.uniform(sys.u_min, sys.u_max)
        if abs(u - sys.u_min) < 1e-3:
            u = sys.u_max
        s_at, t_at = spiral_crossing(sys, v, u)
        lhs = flow(sys, s_at, v, sys.u_min)
        rhs = flow(sys, -t_at, equilibrium(sys, sys.u_min), u)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * (1 + np.linalg.norm(lhs))
        solved += 1
    assert solved == 200


def test_spiral_crossing_at_a_tiny_length_scale(s0):
    # eta (1e-12, 0) shrinks the plane by 1e-12: a start 5e-13 from v(u_min)
    # is half the distance between the equilibria away, not a trivial start.
    sys = LinearControlSystem(s0.a, [1e-12, 0.0], s0.u_min, s0.u_max)
    e_min = equilibrium(sys, sys.u_min)
    v = e_min + [0.0, 5e-13]
    s_at, t_at = spiral_crossing(sys, v, sys.u_max)
    assert s_at > 0.0 and t_at > 0.0
    gap = flow(sys, s_at, v, sys.u_min) - flow(sys, -t_at, e_min, sys.u_max)
    size = np.linalg.norm(equilibrium(sys, sys.u_max) - e_min)
    assert np.linalg.norm(gap) < 1e-9 * size


def test_spiral_crossing_control_range_far_from_zero(s0):
    # The u = u_min test is relative to the range's width, not |u|.
    sys = LinearControlSystem(s0.a, s0.eta, 1e9, 1e9 + 2.0)
    e_min = equilibrium(sys, sys.u_min)
    v = e_min + [0.2, 0.1]
    u = sys.u_min + 1e-4  # 5e-5 of the width
    s_at, t_at = spiral_crossing(sys, v, u)
    gap = flow(sys, s_at, v, sys.u_min) - flow(sys, -t_at, e_min, u)
    assert np.linalg.norm(gap) < 1e-9 * np.linalg.norm(e_min)
    with pytest.raises(PreconditionViolated):
        spiral_crossing(sys, v, sys.u_min)


def test_spiral_crossing_preconditions(s0, t0):
    with pytest.raises(PreconditionViolated):
        spiral_crossing(s0, [0.1, 0.0], s0.u_min)
    with pytest.raises(PreconditionViolated):
        spiral_crossing(t0, [0.1, 0.0], 1.0)
    with pytest.raises(PreconditionViolated):
        spiral_crossing(s0.time_reversed(), [0.1, 0.0], 1.0)
    with pytest.raises(InvalidControl):
        spiral_crossing(s0, [0.1, 0.0], 3.0)


@pytest.mark.parametrize("ratio", [-0.03, -0.3, -3.0])
def test_spiral_crossing_replays_with_an_independent_exponential(ratio):
    # The crossing is found on the time-reversed system; both arcs are
    # replayed on this one with the power-series exponential.
    sys = _slow_system(ratio, skewed=True)
    region = build_orbit_region(sys)
    rng = np.random.default_rng(163)
    e_min = -sys.u_min * np.linalg.solve(sys.a, sys.eta)
    for _ in range(4):
        v = _interior_point(rng, region)
        u = rng.uniform(sys.u_min + 0.05 * (sys.u_max - sys.u_min), sys.u_max)
        e_u = -u * np.linalg.solve(sys.a, sys.eta)
        s_at, t_at = spiral_crossing(sys, v, u)
        assert s_at >= 0.0 and t_at >= 0.0
        x = scaled_expm(sys.a, s_at) @ (v - e_min) + e_min
        y = scaled_expm(-sys.a, t_at) @ (e_min - e_u) + e_u
        assert np.linalg.norm(x - y) <= 1e-9 * (1.0 + np.linalg.norm(v - e_min))


def _reversed_search(sys, v, u, window):
    """spiral_crossing's search on the reversed system over a given window,
    and the residual spiral_crossing accepts."""
    v_w = sys.unit.to_unit(np.asarray(v, dtype=float))
    t_max = window * sys.half_period
    e_u = planner._unit_centre(sys, u)
    found = _crossing_search(sys.time_reversed(), v_w.conjugate(), t_max, e_u, -1.0, t_max)
    return found, 1e-9 * (1.0 + abs(v_w + 1.0))


def test_spiral_crossing_reports_no_crossing(s0, monkeypatch):
    # Half a half period is too short a window for the two spirals to meet.
    found, _ = _reversed_search(s0, [0.3, 0.2], 1.0, 0.5)
    assert found is None
    monkeypatch.setattr(planner, "_crossing_search", lambda *args: None)
    with pytest.raises(NoIntersectionFound, match="residual n/a"):
        spiral_crossing(s0, [0.3, 0.2], 1.0)


def test_spiral_crossing_default_window_follows_slow_contraction():
    # eig_real/eig_imag = -0.03 in a skewed clockwise basis.  The backward
    # u-spiral needs more than 8 half periods (the old fixed window) to reach
    # these interior points; the default window grows with 1/|ratio|.
    drift = np.array([[-0.03, 1.0], [-1.0, -0.03]])
    basis = np.array([[1.2, 0.3], [-0.2, 0.9]])
    sys = LinearControlSystem(
        basis @ drift @ np.linalg.inv(basis), [0.6, -0.8], -1.0, 0.5
    )
    region = build_orbit_region(sys)
    rng = np.random.default_rng(71)
    e_min = equilibrium(sys, sys.u_min)
    for _ in range(6):
        v = _interior_point(rng, region)
        u = rng.uniform(sys.u_min, sys.u_max)
        found, tol = _reversed_search(sys, v, u, 8.0)
        assert found is None or found[2] > tol
        s_at, t_at = spiral_crossing(sys, v, u)
        gap = flow(sys, s_at, v, sys.u_min) - flow(sys, -t_at, e_min, u)
        assert np.linalg.norm(gap) < 1e-9 * (1.0 + region.scale)


def test_spiral_crossing_at_very_slow_contraction():
    # eig_real/eig_imag = -0.005, and u near u_min: the backward u-spiral
    # meets the u_min spiral after about a thousand time units, hundreds of
    # half periods into the window.
    sys = _slow_system(-0.005, skewed=True)
    region = build_orbit_region(sys)
    rng = np.random.default_rng(127)
    e_min = equilibrium(sys, sys.u_min)
    for _ in range(3):
        v = _interior_point(rng, region)
        u = sys.u_min + rng.uniform(0.02, 0.1) * (sys.u_max - sys.u_min)
        s_at, t_at = spiral_crossing(sys, v, u)
        gap = flow(sys, s_at, v, sys.u_min) - flow(sys, -t_at, e_min, u)
        assert np.linalg.norm(gap) < 1e-9 * region.scale


def _interior_point(rng, region, shrink=0.8):
    """Rejection-sample a point strictly inside the region."""
    poly = region.boundary
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    while True:
        v = rng.uniform(lo, hi)
        if region.margin(v) > (1 - shrink) * 0.05 * region.scale:
            return v


# Length units the answers must not depend on: eta -> c eta scales every
# point of the plane by c and leaves times and controls as they are.
_RESCALES = (1e-12, 1e-6, 1e6, 1e12)


def _rescaled(sys, c):
    return LinearControlSystem(sys.a, c * sys.eta, sys.u_min, sys.u_max)


@pytest.mark.parametrize("c", _RESCALES)
def test_region_and_reach_plan_do_not_depend_on_the_length_unit(c):
    rng = np.random.default_rng(131)
    for i in range(40):
        sys = random_system(rng, trace_sign=1 if i % 2 else -1)
        region = build_orbit_region(sys)
        scaled = build_orbit_region(_rescaled(sys, c))
        tol = 1e-12 * c * region.scale
        np.testing.assert_allclose(scaled.p_plus, c * region.p_plus, rtol=0, atol=tol)
        np.testing.assert_allclose(scaled.p_minus, c * region.p_minus, rtol=0, atol=tol)
        lo, hi = region.boundary.min(axis=0), region.boundary.max(axis=0)
        pts = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (200, 2))
        np.testing.assert_allclose(
            scaled.margins_many(c * pts), c * region.margins_many(pts), rtol=0, atol=tol
        )
        assert [scaled.contains(c * p).verdict for p in pts] == [
            region.contains(p).verdict for p in pts
        ]
        target = _interior_point(rng, region)
        plan = reach_plan(sys, target, 1e-9 * region.scale)
        again = reach_plan(scaled.system, c * target, 1e-9 * scaled.scale)
        assert [u for u, _ in again.schedule] == [u for u, _ in plan.schedule]
        np.testing.assert_allclose(
            [dt for _, dt in again.schedule], [dt for _, dt in plan.schedule], rtol=1e-9
        )
        assert again.endpoint_error <= 1e-13 * scaled.scale


@pytest.mark.parametrize("c", _RESCALES)
def test_hop_plan_does_not_depend_on_the_length_unit(c):
    rng = np.random.default_rng(137)
    for i in range(40):
        sys = random_trace_zero_system(rng, normal=i % 2 == 0)
        start = rng.normal(0.0, 5.0, 2)
        u_goal = rng.uniform(sys.u_min, sys.u_max)
        plan = hop_plan(sys, start, u_goal)
        again = hop_plan(_rescaled(sys, c), c * start, u_goal)
        assert again.hops == plan.hops
        bound = 1e-12 * c * np.linalg.norm(start) * (1 + again.hops)
        assert again.endpoint_error <= bound


@pytest.mark.parametrize("c", [1e9, 1e12])
def test_reach_plan_does_not_depend_on_the_time_unit(c):
    # A -> c A with eta -> c eta keeps every point and divides times by c.
    rng = np.random.default_rng(139)
    for i in range(40):
        sys = random_system(rng, trace_sign=1 if i % 2 else -1)
        region = build_orbit_region(sys)
        target = _interior_point(rng, region)
        plan = reach_plan(sys, target, 1e-9 * region.scale)
        fast = LinearControlSystem(c * sys.a, c * sys.eta, sys.u_min, sys.u_max)
        again = reach_plan(fast, target, 1e-9 * region.scale)
        assert [u for u, _ in again.schedule] == [u for u, _ in plan.schedule]
        np.testing.assert_allclose(
            [c * dt for _, dt in again.schedule], [dt for _, dt in plan.schedule], rtol=1e-9
        )
        assert again.endpoint_error <= 1e-13 * region.scale
