"""Shared fixtures, random system samplers, and independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from planarcontrol.system import LinearControlSystem

# On a failing property test, hypothesis's pytest plugin imports its patching
# module, whose libcst import raises a DeprecationWarning; with warnings as
# errors that ends the run in INTERNALERROR.  Import it once, warning ignored,
# so a failure reports like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")


@pytest.fixture
def s0() -> LinearControlSystem:
    """Reference negative-trace system used throughout the worked examples."""
    return LinearControlSystem([[-1.0, -1.0], [1.0, -1.0]], [1.0, 0.0], -1.0, 1.0)


@pytest.fixture
def t0() -> LinearControlSystem:
    """Reference zero-trace system (pure quarter-turn drift)."""
    return LinearControlSystem([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0], -1.0, 1.0)


def random_complex_matrix(rng: np.random.Generator, trace_sign: int | None = None) -> np.ndarray:
    """Random 2x2 matrix with a comfortably complex spectrum.

    The discriminant is kept below -0.05 * ||A||_F^2 and, when a trace sign is
    requested, |eig_real| / eig_imag is kept in [0.05, 3] so the half-turn
    contraction stays away from both 0-trace degeneracy and underflow.
    """
    while True:
        a = rng.normal(0.0, 1.0, (2, 2))
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = tr * tr - 4.0 * det
        scale2 = float(np.sum(a * a))
        if disc >= -0.05 * scale2:
            continue
        if trace_sign is None:
            return a
        er = 0.5 * tr
        ei = 0.5 * math.sqrt(-disc)
        if not 0.05 <= abs(er) / ei <= 3.0:
            continue
        # Negating the matrix flips the trace sign and keeps the discriminant.
        return a if trace_sign * tr > 0.0 else -a


def random_control_data(rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    """Nonzero control vector and a control interval of width at least 0.2."""
    while True:
        eta = rng.normal(0.0, 1.0, 2)
        if np.linalg.norm(eta) >= 0.3:
            break
    u_min, u_max = np.sort(rng.uniform(-2.0, 2.0, 2))
    if u_max - u_min < 0.2:
        u_max = u_min + rng.uniform(0.2, 1.0)
    return eta, float(u_min), float(u_max)


def random_system(rng: np.random.Generator, trace_sign: int | None = None) -> LinearControlSystem:
    """Random system with a general (typically skewed) basis."""
    a = random_complex_matrix(rng, trace_sign)
    eta, u_min, u_max = random_control_data(rng)
    return LinearControlSystem(a, eta, u_min, u_max)


def random_normal_system(rng: np.random.Generator, trace_sign: int) -> LinearControlSystem:
    """Random system whose drift is normal (rotation-scaling, maybe clockwise).

    These are the systems for which the ambient Euclidean metric coincides
    with the adapted-frame metric, i.e. the setting of the metric statements.
    """
    ei = rng.uniform(0.3, 2.0)
    er = trace_sign * rng.uniform(0.05, 2.0) * ei
    spin = rng.choice([-1.0, 1.0])
    a = np.array([[er, -spin * ei], [spin * ei, er]])
    eta, u_min, u_max = random_control_data(rng)
    return LinearControlSystem(a, eta, u_min, u_max)


def random_trace_zero_system(
    rng: np.random.Generator, normal: bool = True
) -> LinearControlSystem:
    """Random zero-trace system; normal=False conjugates by a skewed basis."""
    ei = rng.uniform(0.3, 2.0)
    spin = rng.choice([-1.0, 1.0])
    a = np.array([[0.0, -spin * ei], [spin * ei, 0.0]])
    if not normal:
        while True:
            s = np.eye(2) + rng.normal(0.0, 0.3, (2, 2))
            if abs(np.linalg.det(s)) > 0.3:
                break
        a = s @ a @ np.linalg.inv(s)
        a = a - 0.5 * np.trace(a) * np.eye(2)  # kill the float residue exactly
    eta, u_min, u_max = random_control_data(rng)
    return LinearControlSystem(a, eta, u_min, u_max)


def spiral_drift(ratio: float, skewed: bool) -> np.ndarray:
    """A drift with eigenvalues 1.3 (ratio ± i), in a basis of condition
    number about 100 when ``skewed``; at ratio 0 its trace is exactly zero."""
    c = 1.3 * np.array([[ratio, -1.0], [1.0, ratio]])
    if not skewed:
        return c
    s = np.array([[10.0, 0.0], [3.0, 0.1]])
    a = s @ c @ np.linalg.inv(s)
    return a - 0.5 * np.trace(a) * np.eye(2) if ratio == 0.0 else a


def series_expm(a, t: float, terms: int = 80) -> np.ndarray:
    """Truncated power series for exp(t a); independent of the closed form."""
    a = np.asarray(a, dtype=float)
    acc = np.eye(2)
    term = np.eye(2)
    for k in range(1, terms):
        term = term @ (t * a) / k
        acc = acc + term
        if np.abs(term).max() < 1e-18 * max(1.0, np.abs(acc).max()):
            break
    return acc


def scaled_expm(a, t: float) -> np.ndarray:
    """exp(t a) for t >= 0 by the power series, scaled and squared."""
    j = max(0, math.ceil(math.log2(max(np.abs(a).sum() * t, 1e-300) / 0.25)))
    m = series_expm(a, t / 2.0**j)
    for _ in range(j):
        m = m @ m
    return m


def converged_fixed_points(sys: LinearControlSystem, tol: float = 1e-12):
    """Fixed points via iterate convergence; independent of the closed form."""
    from planarcontrol.system import flow

    half = sys.half_period
    v = -sys.u_max * sys.inv_a_eta
    prev = None
    odd = None
    for _ in range(500):
        odd = flow(sys, half, v, sys.u_min)
        v = flow(sys, half, odd, sys.u_max)
        if prev is not None and np.linalg.norm(v - prev) < tol:
            break
        prev = v
    return v, odd


@st.composite
def systems(draw):
    """|k| = |eig_real|/eig_imag in [0.05, 3] of either sign, either spin, a
    sheared and stretched basis, and eta and the control range (width and
    offset) over six decades."""
    ei = 10.0 ** draw(st.floats(-1.0, 1.0))
    k = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 3.0))
    spin = draw(st.sampled_from([-1.0, 1.0]))
    drift = np.array([[k * ei, -spin * ei], [spin * ei, k * ei]])
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    shear = draw(st.floats(-3.0, 3.0))
    stretch = 10.0 ** draw(st.floats(-1.0, 1.0))
    basis = np.array([[1.0, shear], [0.0, stretch]]) @ rot
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    eta = 10.0 ** draw(st.floats(-3.0, 3.0)) * np.array([math.cos(phi), math.sin(phi)])
    width = 10.0 ** draw(st.floats(-3.0, 3.0))
    centre = width * draw(st.floats(-5.0, 5.0))
    a = basis @ drift @ np.linalg.inv(basis)
    return LinearControlSystem(a, eta, centre - 0.5 * width, centre + 0.5 * width)
