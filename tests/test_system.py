"""Equilibria, exact flows (spirals about the equilibria), the broadcasting
flow kernel, and piecewise-constant simulation."""

import math

import numpy as np
import pytest

from planarcontrol.errors import DegenerateSpiral, InvalidControl
from planarcontrol.geometry import SpiralRegion
from planarcontrol.planar import canonicalize
from planarcontrol.system import (
    ControlRangeWarning,
    LinearControlSystem,
    equilibrium,
    flow,
    flow_many,
    segment_endpoints,
    simulate,
)
from planarcontrol.controlset import half_turn_fixed_points

from conftest import converged_fixed_points, random_system, series_expm


def test_system_validation():
    with pytest.raises(ValueError):
        LinearControlSystem([[-1, -1], [1, -1]], [1, 0], 1.0, 1.0)
    with pytest.raises(ValueError):
        LinearControlSystem([[-1, -1], [1, -1]], [0, 0], -1.0, 1.0)


@pytest.mark.parametrize(
    "a, eta, omega",
    [
        ([[-1, -1], [1, -1]], [5e-324, 0], (-1.0, 1.0)),  # equilibria round to 0
        ([[-1, -1], [1, -1]], [1, 0], (0.0, 5e-324)),
        ([[-1, -1], [1, -1]], [1e-310, 0], (-1.0, 1.0)),  # the unit frame overflows
        ([[-1, -1], [1, -1]], [1, 0], (-1e308, 1e308)),  # u_max - u_min overflows
        ([[-1, -1], [1, -1]], [1, 0], (1e308, 1.7e308)),  # the midpoint overflows
        ([[-1e160, -1e160], [1e160, -1e160]], [1, 0], (-1.0, 1.0)),  # det A overflows
        ([[-1e-160, -1e-160], [1e-160, -1e-160]], [1, 0], (-1.0, 1.0)),  # subnormal det
        ([[-1, -1], [1, -1]], [1e308, 1e308], (-1.0, 1.0)),  # A^-1 eta overflows
        ([[-1e-150, -1e-150], [1e-150, -1e-150]], [1e200, 0], (-1.0, 1.0)),  # ... in the division
    ],
)
def test_system_rejects_unrepresentable_data(a, eta, omega):
    with pytest.raises(ValueError):
        LinearControlSystem(a, eta, *omega)


def test_systems_compare_and_hash_by_identity(s0):
    twin = LinearControlSystem(s0.a, s0.eta, s0.u_min, s0.u_max)
    assert s0 == s0 and s0 != twin
    assert hash(s0) == hash(s0)
    cache = {s0: "s0", twin: "twin"}
    assert cache[s0] == "s0" and cache[twin] == "twin"


def test_equilibrium_examples(s0):
    np.testing.assert_allclose(equilibrium(s0, 0.0), [0.0, 0.0], atol=0)
    # Independent oracle: solve A v = -u eta directly.
    for u, expect in ((1.0, [0.5, 0.5]), (-1.0, [-0.5, -0.5])):
        oracle = np.linalg.solve(np.asarray(s0.a), -u * np.asarray(s0.eta))
        got = equilibrium(s0, u)
        np.testing.assert_allclose(got, expect, atol=1e-15)
        np.testing.assert_allclose(got, oracle, atol=1e-14)
        residual = s0.a @ got + u * s0.eta
        assert np.linalg.norm(residual) < 1e-12


def test_equilibrium_is_affine_in_u():
    rng = np.random.default_rng(21)
    for _ in range(50):
        sys = random_system(rng)
        u = rng.uniform(-3, 3)
        with pytest.warns(ControlRangeWarning) if not sys.control_in_range(u) else _nullcontext():
            vu = equilibrium(sys, u)
        with pytest.warns(ControlRangeWarning) if not sys.control_in_range(1.0) else _nullcontext():
            v1 = equilibrium(sys, 1.0)
        np.testing.assert_allclose(vu, u * v1, atol=1e-12 * (1 + abs(u)))


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def test_equilibrium_warns_outside_range(s0):
    with pytest.warns(ControlRangeWarning):
        equilibrium(s0, 5.0)


def test_flow_identity_and_fixed_point(s0):
    v = np.array([0.3, -0.2])
    np.testing.assert_allclose(flow(s0, 0.0, v, 0.5), v, atol=0)
    eq = equilibrium(s0, 0.7)
    for s in (0.1, 2.0, -3.5):
        np.testing.assert_allclose(flow(s0, s, eq, 0.7), eq, atol=1e-12)


def test_flow_half_turn_maps_between_fixed_points(s0):
    # Oracle: fixed points obtained by iterating to convergence, not closed form.
    p_plus, p_minus = converged_fixed_points(s0)
    got = flow(s0, s0.half_period, p_plus, s0.u_min)
    assert np.linalg.norm(got - p_minus) < 1e-9


def test_flow_reverse_consistency():
    rng = np.random.default_rng(31)
    for _ in range(100):
        sys = random_system(rng)
        v = rng.normal(0, 2, 2)
        u = rng.uniform(sys.u_min, sys.u_max)
        s = rng.uniform(-10, 10)
        back = flow(sys, -s, flow(sys, s, v, u), u)
        assert np.linalg.norm(back - v) < 1e-9 * (1 + np.linalg.norm(v))


def test_spiral_examples(s0):
    # The u = 0 solution is the spiral about the origin.
    v1 = np.array([1.0, 0.0])
    np.testing.assert_allclose(flow(s0, 0.0, v1, 0.0), v1, atol=0)
    got = flow(s0, math.pi, v1, 0.0)
    ref = series_expm(s0.a, math.pi) @ v1
    np.testing.assert_allclose(got, [-math.exp(-math.pi), 0.0], atol=1e-12)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_spiral_radius_identity(s0):
    # The moving point stays on the circle of shrinking radius about v(0).
    v1 = np.array([1.0, 0.0])
    for tau in np.linspace(0.0, math.pi, 17):
        r = np.linalg.norm(flow(s0, tau, v1, 0.0))
        assert r == pytest.approx(math.exp(-tau), rel=1e-9)


def test_spiral_translation_identity():
    # The spiral about v(u) is the spiral about the origin, translated.
    rng = np.random.default_rng(41)
    for _ in range(50):
        sys = random_system(rng)
        v, u = rng.normal(0, 2, 2), rng.uniform(-3, 3)
        center = -u * sys.inv_a_eta
        tau = rng.uniform(-2, 2)
        lhs = flow(sys, tau, v, u)
        rhs = flow(sys, tau, v - center, 0.0) + center
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + np.abs(rhs).max()))


def test_spiral_rejects_diagonal():
    # A spiral region whose arc would start on its own center is degenerate.
    with pytest.raises(DegenerateSpiral):
        SpiralRegion([1.0, 2.0], [1.0, 2.0], canonicalize([[-1, -1], [1, -1]]))


def test_flow_kernel_broadcasts_like_scalar_calls():
    # A batch may take another BLAS path for N w than one state does, so
    # batches agree with scalar calls to rounding, not bitwise.
    def close(a, b):
        b = np.asarray(b)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14 * (1 + np.abs(b).max()))

    rng = np.random.default_rng(61)
    for _ in range(20):
        sys = random_system(rng)
        n = 7
        s = rng.uniform(-5.0, 5.0, n)
        v = rng.normal(0.0, 2.0, (n, 2))
        u = rng.uniform(sys.u_min, sys.u_max, n)
        # Times, states and controls all broadcast, alone or together.
        close(flow(sys, s, v, u), [flow(sys, s[i], v[i], u[i]) for i in range(n)])
        close(flow(sys, s, v[0], u[0]), [flow(sys, t, v[0], u[0]) for t in s])
        close(flow(sys, s[0], v, u[0]), [flow(sys, s[0], x, u[0]) for x in v])
        close(flow(sys, s[0], v[0], u), [flow(sys, s[0], v[0], c) for c in u])
        np.testing.assert_array_equal(
            flow_many(sys, s, v[0], u[0]), flow(sys, s, v[0], u[0])
        )
        grid = flow(sys, s[:, None], v[None, :3], u[0])
        assert grid.shape == (n, 3, 2)
        close(grid[:, 1], flow(sys, s, v[1], u[0]))
        # The propagator is the independent series exp(tA), and flow is its
        # affine conjugate about the equilibrium.
        t = float(s[0])
        ref = series_expm(sys.a, t)
        assert np.abs(sys.propagator(t) - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())
        center = -u[0] * sys.inv_a_eta
        expect = center + ref @ (v[0] - center)
        scale = 1.0 + np.abs(ref).max() * (1.0 + np.abs(v[0] - center).max())
        assert np.abs(flow(sys, t, v[0], u[0]) - expect).max() < 1e-9 * scale


def test_flow_rejects_bad_states(s0):
    with pytest.raises(ValueError):
        flow(s0, 1.0, [1.0, 2.0, 3.0], 0.0)
    with pytest.raises(ValueError):
        flow(s0, 1.0, [math.nan, 0.0], 0.0)


def test_simulate_empty_schedule(s0):
    traj = simulate(s0, [0.4, 0.1], [])
    assert len(traj.times) == 1
    np.testing.assert_allclose(traj.endpoint, [0.4, 0.1], atol=0)


def test_simulate_segment_merge_semigroup(s0):
    v0 = np.array([0.2, -0.4])
    split = simulate(s0, v0, [(0.5, 0.8), (0.5, 1.3)])
    direct = flow(s0, 2.1, v0, 0.5)
    assert np.linalg.norm(split.endpoint - direct) < 1e-12


def test_simulate_periodic_return(s0):
    p_plus, _ = half_turn_fixed_points(s0)
    traj = simulate(s0, p_plus, [(-1.0, math.pi), (1.0, math.pi)])
    assert np.linalg.norm(traj.endpoint - p_plus) < 1e-9


def test_simulate_cocycle():
    rng = np.random.default_rng(51)
    for _ in range(50):
        sys = random_system(rng)
        v0 = rng.normal(0, 1, 2)
        sched1 = [(rng.uniform(sys.u_min, sys.u_max), rng.uniform(0, 2)) for _ in range(3)]
        sched2 = [(rng.uniform(sys.u_min, sys.u_max), rng.uniform(0, 2)) for _ in range(2)]
        joint = simulate(sys, v0, sched1 + sched2).endpoint
        staged = simulate(sys, simulate(sys, v0, sched1).endpoint, sched2).endpoint
        assert np.linalg.norm(joint - staged) < 1e-9 * (1 + np.linalg.norm(joint))


def test_simulate_rejects_bad_segments(s0):
    with pytest.raises(InvalidControl):
        simulate(s0, [0.0, 0.0], [(7.0, 1.0)])
    with pytest.raises(ValueError):
        simulate(s0, [0.0, 0.0], [(0.5, -1.0)])


def test_simulate_backward_inverts_forward(s0):
    v0 = np.array([0.3, 0.3])
    sched = [(0.25, 0.9), (-0.75, 1.4)]
    fwd = simulate(s0, v0, sched)
    back = simulate(s0.time_reversed(), fwd.endpoint, list(reversed(sched)))
    assert np.linalg.norm(back.endpoint - v0) < 1e-12
    assert np.all(np.diff(back.times) > 0)


def test_trajectory_timestamps_strictly_increase(s0):
    traj = simulate(s0, [0.1, 0.2], [(0.5, 1.0), (0.5, 0.0), (-0.5, 0.5)])
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(np.diff(traj.dense_times) > 0)


def test_dense_samples_end_on_exact_endpoints():
    rng = np.random.default_rng(71)
    for _ in range(20):
        sys = random_system(rng)
        v0 = rng.normal(0, 1, 2)
        sched = [(rng.uniform(sys.u_min, sys.u_max), rng.uniform(0, 2)) for _ in range(4)]
        sched.insert(2, (sys.u_min, 0.0))
        for run_sys in (sys, sys.time_reversed()):
            _, times, states = segment_endpoints(run_sys, v0, sched)
            traj = simulate(run_sys, v0, sched)
            at = np.searchsorted(traj.dense_times, times)
            np.testing.assert_array_equal(traj.dense_times[at], times)
            np.testing.assert_array_equal(traj.dense_states[at], states)


def test_time_reversed_system_shares_equilibria(s0):
    rev = s0.time_reversed()
    np.testing.assert_allclose(
        equilibrium(rev, 0.8), equilibrium(s0, 0.8), atol=1e-15
    )
    v = np.array([0.2, 0.1])
    np.testing.assert_allclose(
        flow(rev, 1.3, v, 0.8), flow(s0, -1.3, v, 0.8), atol=1e-12
    )
    # Reversal is exact: backward runs are forward runs of the reversed system.
    rng = np.random.default_rng(81)
    for _ in range(50):
        sys = random_system(rng)
        t = rng.uniform(-5.0, 5.0, 4)
        pts = rng.normal(0.0, 2.0, (4, 2))
        u = rng.uniform(sys.u_min, sys.u_max, 4)
        rev = sys.time_reversed()
        np.testing.assert_array_equal(flow(rev, t, pts, u), flow(sys, -t, pts, u))
        np.testing.assert_array_equal(rev.propagator(t[0]), sys.propagator(-t[0]))
