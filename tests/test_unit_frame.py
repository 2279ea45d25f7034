"""The unit frame (``LinearControlSystem.unit``): property tests of its
closed forms over the regimes of eig_real/eig_imag, spin, basis skew, and the
scales of eta and the control range."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from planarcontrol.controlset import half_turn_fixed_points
from planarcontrol.system import equilibrium, flow

from conftest import systems

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
    got = unit.to_unit(flow(sys, s, unit.from_unit(w), u))
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
    back = sys.unit.from_unit(sys.unit.to_unit(v))
    mid = np.linalg.norm(0.5 * (sys.u_min + sys.u_max) * sys.inv_a_eta)
    cond = np.linalg.cond(sys.canonical.basis)
    assert np.linalg.norm(back - v) <= 4.0 * EPS * cond * (np.linalg.norm(v) + mid)
    # Batches map pointwise, one Python complex for a single point.
    batch = np.stack([v, 2.0 * v, -v])
    assert isinstance(sys.unit.to_unit(v), complex)
    np.testing.assert_array_equal(
        sys.unit.to_unit(batch), [sys.unit.to_unit(p) for p in batch]
    )
