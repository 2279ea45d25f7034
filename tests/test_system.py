"""Equilibria, exact flows (spirals about the equilibria), the broadcasting
flow kernel, and piecewise-constant simulation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import planarcontrol.planar
import planarcontrol.system
from planarcontrol.controlset import TRACE_ZERO_BAND
from planarcontrol.errors import DegenerateSpiral, InvalidControl
from planarcontrol.geometry import SpiralRegion, build_orbit_region
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

from conftest import converged_fixed_points, random_system, scaled_expm, series_expm, systems

EPS = np.finfo(float).eps


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
    # One state takes the single-state path, a batch the array path.
    for bad in (
        [1.0, 2.0, 3.0],
        [math.nan, 0.0],
        [0.0, math.inf],
        np.array([-math.inf, 1.0]),
        [[0.0, 0.0], [math.nan, 1.0]],
    ):
        with pytest.raises(ValueError, match="finite states"):
            flow(s0, 1.0, bad, 0.0)


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


def _assert_same_fields(got, want):
    # Every field, and every field of a cached dataclass, compares with ==
    # (so zeros may differ only in sign); arrays keep their read-only flags.
    for f in dataclasses.fields(want):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if dataclasses.is_dataclass(y):
            _assert_same_fields(x, y)
            continue
        assert type(x) is type(y), f.name
        assert np.array_equal(x, y), f.name
        if isinstance(y, np.ndarray):
            assert x.flags.writeable == y.flags.writeable, f.name


@st.composite
def _reversal_systems(draw):
    """Drifts of either spin on sheared and stretched bases, at scales over
    sixty decades, with |k| up to 3, at the edge of the zero-trace band
    (|tr A| from half to twice TRACE_ZERO_BAND ||A||_F) or at exactly zero
    trace; eta and the control range over 1e-12 to 1e12."""
    ei = 10.0 ** draw(st.floats(-30.0, 30.0))
    spin = draw(st.sampled_from([-1.0, 1.0]))
    trace = draw(st.sampled_from(["free", "band edge", "zero"]))
    k = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.0, 3.0)) if trace == "free" else 0.0
    drift = np.array([[k * ei, -spin * ei], [spin * ei, k * ei]])
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    c, s = math.cos(theta), math.sin(theta)
    shear = draw(st.floats(-3.0, 3.0))
    stretch = 10.0 ** draw(st.floats(-1.0, 1.0))
    basis = np.array([[1.0, shear], [0.0, stretch]]) @ np.array([[c, -s], [s, c]])
    a = basis @ drift @ np.linalg.inv(basis)
    if trace != "free":
        # Set the trace of the (rounded) zero-trace drift exactly.
        edge = TRACE_ZERO_BAND * math.hypot(*a.ravel().tolist())
        t = 0.0
        if trace == "band edge":
            t = draw(st.sampled_from([-1.0, 1.0])) * edge * draw(st.floats(0.5, 2.0))
        a[1, 1] = t - a[0, 0]
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    eta = 10.0 ** draw(st.floats(-12.0, 12.0)) * np.array([math.cos(phi), math.sin(phi)])
    width = 10.0 ** draw(st.floats(-12.0, 12.0))
    centre = width * draw(st.floats(-5.0, 5.0))
    return LinearControlSystem(a, eta, centre - 0.5 * width, centre + 0.5 * width)


@given(_reversal_systems())
def test_time_reversed_fields_equal_a_validated_reversed_system(sys):
    rev = sys.time_reversed()
    _assert_same_fields(rev, LinearControlSystem(-sys.a, -sys.eta, sys.u_min, sys.u_max))
    _assert_same_fields(rev.time_reversed(), sys)


def test_time_reversed_does_not_canonicalize(s0, monkeypatch):
    def forbidden(a):
        raise AssertionError("time_reversed called canonicalize")

    monkeypatch.setattr(planarcontrol.planar, "canonicalize", forbidden)
    monkeypatch.setattr(planarcontrol.system, "canonicalize", forbidden)
    rev = s0.time_reversed()
    assert rev.trace == -s0.trace
    # A positive-trace region works on the reversed system.
    region = build_orbit_region(rev)
    assert region.time_reversed and region.work_system.trace == s0.trace


def _single_flow_scale(sys, s, v, u):
    # |center| + e^{as}|w|(1 + sum |N|): the size of the terms of one flow.
    center = -u * sys.inv_a_eta
    grow = math.exp(sys.canonical.eig_real * s)
    return float(
        np.abs(center).max()
        + grow * np.abs(v - center).max() * (1.0 + np.abs(sys.canonical.generator).sum())
    )


@given(
    systems(),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_single_state_flow_matches_batch_and_series(sys, halves, frac, x, y):
    # Worst of 3,000 examples: 1.0 ulp of the scale from the batch (93% bit
    # for bit) and 12.7 units of the series bound below.
    s = halves * sys.half_period
    u = sys.u_min + frac * (sys.u_max - sys.u_min)
    center = -u * sys.inv_a_eta
    v = center + np.abs(center).max() * np.array([x, y]) + sys.inv_a_eta * (sys.u_max - sys.u_min)
    one = flow(sys, s, v, u)
    assert one.shape == (2,)
    ulp = math.ulp(_single_flow_scale(sys, s, v, u))
    batch = flow(sys, np.array([s, -s, 0.5 * s]), np.stack([v, v + 1.0, v]), np.array([u, u, u]))
    assert np.abs(one - batch[0]).max() <= 4.0 * ulp
    # A 0-d time or control takes the batch path and agrees the same way.
    assert np.abs(one - flow(sys, np.array(s), v, np.array(u))).max() <= 4.0 * ulp
    # The power series, scaled and squared, replays the same arc.
    m = scaled_expm(sys.a, s) if s >= 0.0 else scaled_expm(-sys.a, -s)
    want = center + m @ (v - center)
    cond = np.linalg.cond(sys.canonical.basis)
    size = _single_flow_scale(sys, s, v, u)
    bound = 32.0 * EPS * cond * size * (1.0 + abs(sys.canonical.lam * s))
    assert np.abs(one - want).max() <= bound


def test_single_state_flow_takes_numpy_scalars(s0):
    v = np.array([0.3, -0.2])
    want = flow(s0, 1.25, v, 0.5)
    for s, u in (
        (np.float64(1.25), np.float64(0.5)),
        (np.float32(1.25), np.float32(0.5)),
        (np.float64(1.25), np.int64(0)),
        (1.25, 0),
        (np.int64(2), 0.5),
    ):
        got = flow(s0, s, v, u)
        assert got.shape == (2,) and got.dtype == np.float64
        np.testing.assert_array_equal(got, flow(s0, float(s), v, float(u)))
    np.testing.assert_array_equal(flow(s0, np.float64(1.25), v, 0.5), want)
    np.testing.assert_array_equal(flow(s0, 1.25, list(v), 0.5), want)


@given(systems(), st.floats(-4.0, 4.0), st.floats(0.0, 1.0))
def test_single_state_flow_fixes_the_equilibrium(sys, halves, frac):
    u = sys.u_min + frac * (sys.u_max - sys.u_min)
    eq = equilibrium(sys, u)
    np.testing.assert_array_equal(flow(sys, halves * sys.half_period, eq, u), eq)


# A slow spiral and its positive-trace mirror (the same system in reverse time).
_SLOW = LinearControlSystem([[-0.1, -1.0], [1.0, -0.1]], [1.0, 0.0], -1.0, 1.0)


@pytest.mark.parametrize("run", [segment_endpoints, simulate])
@pytest.mark.parametrize("sys", [_SLOW, _SLOW.time_reversed()], ids=["negative", "positive"])
@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_non_finite_durations_are_rejected_before_any_flow(run, sys, dt, monkeypatch):
    def forbidden(*args):
        raise AssertionError("flow ran before the schedule was checked")

    monkeypatch.setattr(planarcontrol.system, "flow", forbidden)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        run(sys, [0.3, 0.2], [(0.5, 1.0), (-0.5, dt)])


@pytest.mark.parametrize("run", [segment_endpoints, simulate])
@pytest.mark.parametrize(
    "sys, v0, dt",
    [
        # e^{0.1 dt} overflows inside the exponential.
        (_SLOW.time_reversed(), [0.3, 0.2], 1e308),
        # e^{0.1 dt} is finite, its product with |v0 - center| is not.
        (_SLOW.time_reversed(), [1e5, 0.0], 7040.0),
        # A contracting turn still carries a coordinate past the largest float.
        (_SLOW, [1.7e308, 1.7e308], 1.0),
    ],
    ids=["positive-exp", "positive-product", "negative-turn"],
)
def test_endpoint_outside_float_range_names_its_segment(run, sys, v0, dt):
    with pytest.raises(ValueError, match=r"segment 2 \(-0\.5, .*floating-point range"):
        run(sys, v0, [(0.5, 0.0), (0.5, 0.0), (-0.5, dt)])


def test_long_contracting_segment_ends_on_the_equilibrium():
    # e^{lam dt} underflows to 0: the endpoint is the equilibrium, at a finite time.
    _, times, states = segment_endpoints(_SLOW, [0.3, 0.2], [(0.5, 1e308)])
    np.testing.assert_array_equal(times, [0.0, 1e308])
    np.testing.assert_array_equal(states[-1], equilibrium(_SLOW, 0.5))


@pytest.mark.parametrize("sys", [_SLOW, _SLOW.time_reversed()], ids=["negative", "positive"])
def test_unbounded_dense_sampling_is_refused(sys):
    # Negative trace: the endpoint is the equilibrium, but 1e308 / (pi / 256)
    # dense points overflow; positive trace: the endpoint itself overflows.
    with pytest.raises(ValueError):
        simulate(sys, [0.3, 0.2], [(0.5, 1e308)])


def test_dense_sampling_cap_is_exact():
    cap = planarcontrol.system._MAX_DENSE_POINTS
    step = _SLOW.half_period / 256.0
    # One arc of ceil(dt / step) + 1 points: cap - 1 steps fill the cap exactly.
    traj = simulate(_SLOW, [0.3, 0.2], [(0.5, (cap - 1.5) * step)])
    assert len(traj.dense_times) == len(traj.dense_states) == cap
    with pytest.raises(ValueError, match=f"{cap + 1} points"):
        simulate(_SLOW, [0.3, 0.2], [(0.5, (cap - 0.5) * step)])
    # The count covers all arcs together.
    half = (cap // 2) * step
    with pytest.raises(ValueError, match="more than"):
        simulate(_SLOW, [0.3, 0.2], [(0.5, half), (-0.5, half)])


def test_float32_times_flow_as_float64(s0):
    times = np.array([1.25, 2.5])
    want = flow(s0, times, (0.3, 0.2), 0.5)
    assert np.array_equal(flow(s0, times.astype(np.float32), (0.3, 0.2), 0.5), want)
    states = np.array([[0.3, 0.2], [-0.4, 0.1]])
    want = flow(s0, 1.25, states, 0.5)
    assert np.array_equal(flow(s0, np.float32(1.25), states, 0.5), want)
