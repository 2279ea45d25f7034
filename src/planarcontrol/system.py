"""The planar linear control system and its exact piecewise-constant solutions.

The system is ``v' = A v + u eta`` with ``u`` confined to a compact interval.
Because the drift has complex eigenvalues, every constant-control solution is
a closed-form spiral around the corresponding equilibrium, so trajectories for
piecewise-constant controls are concatenations of exact arcs: no ODE
integration happens anywhere in this package.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpiral, InvalidControl
from .planar import CanonicalForm, UnitFrame, as_matrix, as_vector, canonicalize, spiral_arc

__all__ = [
    "ControlRangeWarning",
    "LinearControlSystem",
    "Trajectory",
    "equilibrium",
    "flow",
    "flow_many",
    "segment_endpoints",
    "simulate",
]


# Smallest normal float: a subnormal det A has lost the digits of A^-1 eta.
_TINY = float(np.finfo(float).tiny)
# Most dense samples one simulate call records: 2^20 states, 16 MB.
_MAX_DENSE_POINTS = 1 << 20


class ControlRangeWarning(UserWarning):
    """A control value outside the admissible range was accepted."""


@dataclass(frozen=True, eq=False)
class LinearControlSystem:
    """Planar linear control system ``v' = A v + u eta``, u in [u_min, u_max].

    The drift must have a complex eigenvalue pair (hence det A > 0 and A is
    invertible).  A ValueError rejects data that floats cannot carry: a
    control range, det A, A^-1 eta, equilibria or unit frame that overflows,
    a subnormal det A, or extreme equilibria that round to one point.
    Canonical data, A^-1 eta and the unit frame (the canonical complex frame
    with v(u_min) at -1 and v(u_max) at +1) are computed once and cached;
    ``time_reversed`` derives the reversed system's fields from these by
    sign changes instead of computing them again.  Instances are immutable
    and safe to share across threads.
    Equality and hashing are by identity (the fields are arrays), so a
    system can key a dict or a cache.
    """

    a: np.ndarray
    eta: np.ndarray
    u_min: float
    u_max: float
    canonical: CanonicalForm = field(init=False, repr=False)
    inv_a_eta: np.ndarray = field(init=False, repr=False)
    unit: UnitFrame = field(init=False, repr=False)

    def __post_init__(self):
        a = as_matrix(self.a)
        eta = as_vector(self.eta)
        a.setflags(write=False)
        eta.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "u_min", float(self.u_min))
        object.__setattr__(self, "u_max", float(self.u_max))
        if not self.u_min < self.u_max:
            raise ValueError("control range requires u_min < u_max")
        if not math.isfinite(self.u_max - self.u_min) or not math.isfinite(self.u_max + self.u_min):
            raise ValueError("control range out of floating-point range")
        if eta[0] == 0.0 and eta[1] == 0.0:
            raise ValueError("control vector eta must be nonzero")
        cf = canonicalize(a)  # raises NotComplexSpectrum otherwise
        (a00, a01), (a10, a11) = a.tolist()
        det = a00 * a11 - a01 * a10
        if not _TINY <= abs(det) < math.inf:
            raise ValueError("det A out of floating-point range")
        adj = np.array([[a11, -a01], [-a10, a00]])
        try:
            with np.errstate(over="raise"):
                inv_a_eta = (adj @ eta) / det
        except FloatingPointError as exc:
            raise ValueError("A^-1 eta out of floating-point range") from exc
        inv_a_eta.setflags(write=False)
        if not math.isfinite(max(abs(self.u_min), abs(self.u_max)) * float(np.abs(inv_a_eta).max())):
            raise ValueError("extreme equilibria out of floating-point range")
        object.__setattr__(self, "canonical", cf)
        object.__setattr__(self, "inv_a_eta", inv_a_eta)
        mid = -0.5 * (self.u_min + self.u_max) * inv_a_eta
        try:
            unit = cf.frame(mid, -self.u_max * inv_a_eta)
        except DegenerateSpiral as exc:
            raise ValueError("extreme equilibria coincide") from exc
        if not all(map(cmath.isfinite, (unit.alpha, unit.beta, unit.gamma, unit.length))):
            raise ValueError("unit frame out of floating-point range")
        object.__setattr__(self, "unit", unit)

    @property
    def trace(self) -> float:
        return float(self.a[0, 0] + self.a[1, 1])

    @property
    def half_period(self) -> float:
        """Time of a half rotation in the canonical frame, pi / eig_imag."""
        return math.pi / self.canonical.eig_imag

    def time_reversed(self) -> "LinearControlSystem":
        """The system whose forward flow is this system's backward flow.

        Reversing time negates the whole right-hand side, so the reversed
        system is (-A, -eta) with the same control range and the same
        equilibria.  Its cached fields follow from this system's by a sign,
        exactly as ``canonicalize`` and ``__post_init__`` would compute them
        for (-A, -eta): eig_real and the generator N change sign, the basis
        loses the sign of its second column, A^-1 eta is unchanged and the
        unit frame is conjugated with k negated.  Negation keeps every
        quantity the validation tests, so none of it runs again.
        """
        cf, unit = self.canonical, self.unit
        a, eta, gen = -self.a, -self.eta, -cf.generator
        for arr in (a, eta, gen):
            arr.setflags(write=False)
        rev = object.__new__(LinearControlSystem)
        vars(rev).update(
            a=a,
            eta=eta,
            u_min=self.u_min,
            u_max=self.u_max,
            canonical=CanonicalForm(-cf.eig_real, cf.eig_imag, cf.basis * (1.0, -1.0), gen),
            inv_a_eta=self.inv_a_eta,
            unit=UnitFrame(
                unit.alpha.conjugate(),
                unit.beta.conjugate(),
                unit.gamma.conjugate(),
                -unit.k,
                unit.length,
            ),
        )
        return rev

    def control_in_range(self, u: float) -> bool:
        """Whether u is in [u_min, u_max], padded by 1e-9 max(|u_min|, |u_max|)."""
        pad = 1e-9 * max(abs(self.u_min), abs(self.u_max))
        return self.u_min - pad <= u <= self.u_max + pad

    def propagator(self, t: float) -> np.ndarray:
        """exp(t A) via the closed form."""
        cf = self.canonical
        return spiral_arc(cf.lam, t, np.eye(2), cf.generator)


def equilibrium(sys: LinearControlSystem, u: float) -> np.ndarray:
    """Equilibrium -u A^-1 eta of the constant-control vector field.

    Any real ``u`` is accepted; values outside the control range are flagged
    with a ControlRangeWarning.
    """
    if not sys.control_in_range(u):
        warnings.warn(
            f"control {u} outside range [{sys.u_min}, {sys.u_max}]",
            ControlRangeWarning,
            stacklevel=2,
        )
    return -u * sys.inv_a_eta


def flow(sys: LinearControlSystem, s, v, u) -> np.ndarray:
    """Exact constant-control solution ``exp(sA)(v - v(u)) + v(u)``.

    ``s`` may have either sign.  ``flow(0, v, u) = v`` and the equilibrium is
    a fixed point for every ``s``.  Times (a float or an array), states
    (shape (..., 2)) and controls broadcast: one state under an array of
    times gives the arc through it, and arrays of all three flow each state
    for its own time under its own control.

    One (2,) state with a scalar time and control (Python or numpy numbers,
    taken as floats) is computed in Python floats: ``w = v - center`` and
    ``N w`` are read as complex numbers, so ``spiral_arc`` takes one
    ``cmath.exp``.  It agrees with the same state flowed inside a batch to a
    few ulps of |center| + e^{s eig_real}|w|(1 + sum |N|).  A state that is
    not finite raises ValueError on both paths.
    """
    v = np.asarray(v, dtype=float)
    cf = sys.canonical
    scalar = (int, float, np.number)
    if v.shape == (2,) and isinstance(s, scalar) and isinstance(u, scalar):
        x, y = v.tolist()
        if math.isfinite(x) and math.isfinite(y):
            u = float(u)
            (ix, iy), ((n00, n01), (n10, n11)) = sys.inv_a_eta.tolist(), cf.generator.tolist()
            cx, cy = -u * ix, -u * iy
            wx, wy = x - cx, y - cy
            nw = complex(n00 * wx + n01 * wy, n10 * wx + n11 * wy)
            z = spiral_arc(cf.lam, float(s), complex(wx, wy), nw)
            return np.array((cx + z.real, cy + z.imag))
    elif v.shape[-1:] == (2,) and np.isfinite(v).all():
        if not isinstance(s, (int, float)):  # float32 times would exponentiate in complex64
            s = np.asarray(s, dtype=float)
        if np.ndim(u):
            u = np.asarray(u, dtype=float)[..., None]
        center = -u * sys.inv_a_eta
        w = v - center
        return center + spiral_arc(cf.lam, s, w, w @ cf.generator.T)
    raise ValueError(f"expected finite states of shape (..., 2), got {v.shape}")


def flow_many(sys: LinearControlSystem, s, v, u: float) -> np.ndarray:
    """``flow`` of one state ``v`` over an array of times ``s``; returns (n, 2)."""
    return flow(sys, np.asarray(s, dtype=float), v, u)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-exact solution for a piecewise-constant control.

    ``times``/``states`` hold the exact segment endpoints (strictly increasing
    time stamps; zero-duration segments contribute no stamp).  ``dense_times``
    and ``dense_states`` sample each arc at half_period / 256 for plotting.
    To run backward in time, simulate on ``LinearControlSystem.time_reversed()``.
    """

    times: np.ndarray
    states: np.ndarray
    schedule: tuple
    dense_times: np.ndarray
    dense_states: np.ndarray

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def segment_endpoints(
    sys: LinearControlSystem, v0, schedule
) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Validated ``(u, dt)`` segments, endpoint times and exact endpoint states.

    Each segment endpoint is ``flow(dt, previous endpoint, u)``; a
    zero-duration segment contributes no endpoint.  Durations must be finite
    and nonnegative, and every endpoint must be a finite state.

    Raises
    ------
    InvalidControl
        If some segment control is outside the admissible range.
    ValueError
        If some segment duration is negative, infinite or NaN (checked before
        any flow), or if a segment's endpoint leaves the floating-point range.
    """
    v = as_vector(v0)
    segs = tuple((float(u), float(dt)) for u, dt in schedule)
    for u, dt in segs:
        if not sys.control_in_range(u):
            raise InvalidControl(
                f"control {u} outside range [{sys.u_min}, {sys.u_max}]"
            )
        if not 0.0 <= dt < math.inf:
            raise ValueError(f"segment durations must be finite and nonnegative, got {dt}")
    times = [0.0]
    states = [v]
    for i, (u, dt) in enumerate(segs):
        if dt == 0.0:
            continue
        try:
            v = flow(sys, dt, v, u)
            finite = math.isfinite(v[0]) and math.isfinite(v[1])
        except (OverflowError, ValueError):  # cmath.exp out of range
            finite = False
        if not finite:
            raise ValueError(f"segment {i} ({u}, {dt}) ends outside the floating-point range")
        times.append(times[-1] + dt)
        states.append(v)
    return segs, np.array(times), np.array(states)


def simulate(sys: LinearControlSystem, v0, schedule) -> Trajectory:
    """Run a schedule of ``(u, dt)`` segments from ``v0`` with exact arcs.

    The segment endpoints are those of :func:`segment_endpoints`; dense
    samples at half_period / 256 are recorded alongside, each arc ending on
    its exact endpoint.

    Raises
    ------
    InvalidControl
        If some segment control is outside the admissible range.
    ValueError
        As :func:`segment_endpoints`: a negative, infinite or NaN duration,
        or an endpoint outside the floating-point range.  Also if the dense
        samples would number more than 2^20, checked before any is taken.
    """
    segs, times, states = segment_endpoints(sys, v0, schedule)
    sample_step = sys.half_period / 256.0
    dense_times = [times[:1]]
    dense_states = [states[:1]]
    arcs = [(u, dt) for u, dt in segs if dt != 0.0]
    # Points per arc, counted in floats: a long arc's count may be infinite.
    counts = [max(2.0, float(np.ceil(dt / sample_step)) + 1.0) for _, dt in arcs]
    total = 1.0 + sum(counts) - len(counts)
    if total > _MAX_DENSE_POINTS:
        raise ValueError(f"dense sampling needs {total:.17g} points, more than {_MAX_DENSE_POINTS}")
    for i, ((u, dt), n) in enumerate(zip(arcs, counts)):
        local = np.linspace(0.0, dt, int(n))[1:-1]
        dense_times += [times[i] + local, times[i + 1 : i + 2]]
        dense_states += [flow(sys, local, states[i], u), states[i + 1 : i + 2]]
    return Trajectory(
        times=times,
        states=states,
        schedule=segs,
        dense_times=np.concatenate(dense_times),
        dense_states=np.vstack(dense_states),
    )
