"""The unit frame (``LinearControlSystem.unit``): property tests of its
closed forms over the regimes of eig_real/eig_imag, spin, basis skew, and the
scales of eta and the control range."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planarcontrol.controlset import half_turn_fixed_points
from planarcontrol.system import LinearControlSystem, equilibrium, flow

from conftest import scaled_expm, systems
from lemmas import from_unit

EPS = np.finfo(float).eps


def _offset(sys):
    # 1 + |image of the original origin|: the cancellation scale of the map.
    return 1.0 + abs(sys.unit.gamma)


# Each bound is two to three times the worst error, in units of EPS and of
# the scale written next to it, seen on 20,000 random systems of this family
# and 40,000 examples drawn by hypothesis: 7.7 for the equilibria, 17.7 for
# the fixed points, 2.6 for the flow and 1.7 for the round trip.


@given(systems())
def test_extreme_equilibria_map_to_minus_and_plus_one(sys):
    unit = sys.unit
    bound = 16.0 * EPS * _offset(sys)
    assert abs(unit.to_unit(equilibrium(sys, sys.u_min)) + 1.0) <= bound
    assert abs(unit.to_unit(equilibrium(sys, sys.u_max)) - 1.0) <= bound


@given(systems())
def test_fixed_points_map_to_plus_minus_p(sys):
    q = math.exp(math.pi * sys.unit.k)
    p = (1.0 + q) / (1.0 - q)
    p_plus, p_minus = half_turn_fixed_points(sys)
    bound = 48.0 * EPS * (abs(p) + _offset(sys))
    assert abs(sys.unit.to_unit(p_plus) - p) <= bound
    assert abs(sys.unit.to_unit(p_minus) + p) <= bound


@given(
    systems(),
    st.complex_numbers(max_magnitude=3.0),
    st.floats(0.0, 1.0),
    st.floats(-2.0, 2.0),
)
def test_flow_is_affine_spiral_in_unit_frame(sys, w, frac, halves):
    # flow(s, v, u) maps to c + e^{lam s}(w - c), c = (2u - u_min - u_max)/width.
    unit = sys.unit
    u = sys.u_min + frac * (sys.u_max - sys.u_min)
    c = (2.0 * u - sys.u_min - sys.u_max) / (sys.u_max - sys.u_min)
    s = halves * sys.half_period
    lam_s = sys.canonical.lam * s
    want = c + np.exp(lam_s) * (w - c)
    got = unit.to_unit(flow(sys, s, from_unit(unit, w), u))
    # Rounding of the start grows with the flow, and the phase error with |lam s|.
    cond = np.linalg.cond(sys.canonical.basis)
    size = (_offset(sys) + abs(w)) * max(1.0, abs(np.exp(lam_s)))
    assert abs(got - want) <= 8.0 * EPS * cond * size * (1.0 + abs(lam_s))


@given(
    systems(),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.floats(-3.0, 3.0),
)
def test_from_unit_inverts_to_unit(sys, direction, decade):
    v = 10.0**decade * np.array(direction)
    back = from_unit(sys.unit, sys.unit.to_unit(v))
    mid = np.linalg.norm(0.5 * (sys.u_min + sys.u_max) * sys.inv_a_eta)
    cond = np.linalg.cond(sys.canonical.basis)
    assert np.linalg.norm(back - v) <= 4.0 * EPS * cond * (np.linalg.norm(v) + mid)
    # Batches map pointwise, one Python complex for a single point.
    batch = np.stack([v, 2.0 * v, -v])
    assert isinstance(sys.unit.to_unit(v), complex)
    np.testing.assert_array_equal(
        sys.unit.to_unit(batch), [sys.unit.to_unit(p) for p in batch]
    )


@given(systems(), st.integers(0, 4))
def test_pair_iterate_and_corners_replay_half_turns(sys, n):
    # The closed forms against exp(half A) from the power series alone.  A
    # corner is replayed in the time direction that contracts, since the
    # other one magnifies its rounding by q.  Bounds are about three times
    # the worst of 20,000 examples (15.4 and 2.8), in units of EPS, of the
    # scale and of the replay's |A|_1 t, by which its rounding grows.
    half = sys.half_period
    inv_a_eta = np.linalg.solve(sys.a, sys.eta)
    forward = scaled_expm(sys.a, half)

    def turn(m, v, u):
        return m @ (v + u * inv_a_eta) - u * inv_a_eta

    v_min, v_max = -sys.u_min * inv_a_eta, -sys.u_max * inv_a_eta
    v = v_min
    for _ in range(n):
        v = turn(forward, turn(forward, v, sys.u_max), sys.u_min)
    cond = np.linalg.cond(sys.canonical.basis)
    norm_a = np.abs(sys.a).sum()
    ref = cond * (np.linalg.norm(v_min) + np.linalg.norm(v_max))
    got = from_unit(sys.unit, sys.unit.pair_iterate(n))
    bound = 48.0 * EPS * (ref + cond * np.linalg.norm(v)) * (1.0 + 2 * n * norm_a * half)
    assert np.linalg.norm(got - v) <= bound

    p_plus, p_minus = half_turn_fixed_points(sys)
    bound = 8.0 * EPS * (ref + cond * (np.linalg.norm(p_plus) + np.linalg.norm(p_minus)))
    bound *= 1.0 + norm_a * half
    if sys.trace < 0.0:
        assert np.linalg.norm(turn(forward, p_plus, sys.u_min) - p_minus) <= bound
        assert np.linalg.norm(turn(forward, p_minus, sys.u_max) - p_plus) <= bound
    else:
        backward = scaled_expm(-sys.a, half)
        assert np.linalg.norm(turn(backward, p_minus, sys.u_min) - p_plus) <= bound
        assert np.linalg.norm(turn(backward, p_plus, sys.u_max) - p_minus) <= bound


# pi to 60 digits, for the 50-digit reference below.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("spin", [-1.0, 1.0])
@pytest.mark.parametrize("k", [1e-3, 1e-5, 1e-7, 1e-9])
def test_algebra_keeps_its_digits_near_zero_trace(k, spin, sign):
    # 1 - q cancels as q -> 1; the algebra takes it from expm1.  The
    # reference evaluates the same closed forms in 60-digit decimals from
    # the same float inputs (k, the control range and A^-1 eta).
    sys = LinearControlSystem(
        [[sign * k, -spin], [spin, sign * k]], [0.6, -0.8], -1.0, 0.5
    )
    unit = sys.unit
    with localcontext() as ctx:
        ctx.prec = 60
        q = (_PI * Decimal(unit.k)).exp()
        one_minus_q = 1 - q
        c = (Decimal(sys.u_max) - Decimal(sys.u_min)) / one_minus_q
        inv = [Decimal(x) for x in sys.inv_a_eta]
        want_plus = [float(-(c + Decimal(sys.u_min)) * x) for x in inv]
        want_minus = [float((c - Decimal(sys.u_max)) * x) for x in inv]
        want_iterates = {
            n: float(-1 - 2 * q * (1 - q ** (2 * n)) / one_minus_q) for n in (1, 7, 1000)
        }
        want_one_minus_q = float(one_minus_q)

    def rel(got, want):
        return np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want)

    p_plus, p_minus = half_turn_fixed_points(sys)
    assert rel(p_plus, want_plus) <= 8.0 * EPS
    assert rel(p_minus, want_minus) <= 8.0 * EPS
    assert rel(unit.one_minus_q, want_one_minus_q) <= 8.0 * EPS
    for n, want in want_iterates.items():
        assert rel(unit.pair_iterate(n), want) <= 8.0 * EPS
