"""Canonical forms, the complex unit frame and exact exponentials for 2x2 matrices.

A real 2x2 matrix whose discriminant (tr A)^2 - 4 det A is negative has
eigenvalues ``a ± ib`` with ``b > 0``.  Such a matrix is similar to the
rotation-scaling matrix ``[[a, -b], [b, a]]``; in the adapted coordinates its
flow is a genuine logarithmic spiral, which is what the rest of the package
builds on.  This module constructs that change of basis deterministically and
holds the one closed-form evaluation of ``exp(tA)``, :func:`spiral_arc`.

Read as a complex number, a canonical point moves under the drift by
multiplication with lam = a + ib, which commutes with complex-affine maps.
So in every frame w = (z - origin)/unit (:class:`UnitFrame`) the flow about
an equilibrium c is w -> c + e^{lam s}(w - c).  A system's unit frame puts
v(u_min) at -1 and v(u_max) at +1; there the equilibrium of u is the real
(2u - u_min - u_max)/(u_max - u_min).

The half-turn algebra is defined once, on :class:`UnitFrame`.  Half a
period about the real equilibrium c is, with q = e^{pi k} and k = a/b,

    H_c(w) = c - q (w - c),

the reflection w -> 2c - w at zero trace (q = 1).  A pair of half turns
about +1, then -1, has the fixed point p_minus = -(1 + q)/(1 - q), the other
order p_plus = (1 + q)/(1 - q): the orbit corners.  n pairs take -1 to

    x_n = -1 - 2q (1 - q^(2n))/(1 - q),

with 1 - q and 1 - q^(2n) from expm1, so they keep their digits as q -> 1.

Vectors are numpy arrays of shape (2,), matrices of shape (2, 2); both are
referred to as ``Vec2`` / ``Mat2`` in docstrings.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpiral, NotComplexSpectrum, OffLine, ZeroVector

__all__ = [
    "CanonicalForm",
    "QUARTER_TURN",
    "UnitFrame",
    "as_matrix",
    "as_vector",
    "canonicalize",
    "line_coordinate",
    "spiral_arc",
]

# The generator N of the normal form: the quarter turn (x, y) -> (-y, x).
QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
QUARTER_TURN.setflags(write=False)


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite float (2, 2) array."""
    m = np.asarray(a, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce to a finite float (2,) array."""
    w = np.asarray(v, dtype=float)
    if w.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {w.shape}")
    x, y = w.tolist()
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("vector entries must be finite")
    return w


@dataclass(frozen=True)
class CanonicalForm:
    """Rotation-scaling normal form of a 2x2 matrix with complex spectrum.

    Built by :func:`canonicalize`.  ``basis`` is the (generally
    non-orthogonal) change of coordinates ``Q`` with
    ``Q^-1 A Q = [[eig_real, -eig_imag], [eig_imag, eig_real]]``, normalized
    to ``|det Q| = 1`` and first column along +x; det Q < 0 exactly when the
    original flow rotates clockwise.

    Attributes
    ----------
    eig_real : float
        Real part of the eigenvalues, tr A / 2.
    eig_imag : float
        Imaginary part, sqrt(|discriminant|) / 2, always positive.
    basis : Mat2
        Change-of-basis matrix Q (canonical frame -> original frame).
    generator : Mat2
        N = (A - eig_real I) / eig_imag in the original frame, so that
        exp(tA) = e^{t eig_real} (cos(t eig_imag) I + sin(t eig_imag) N);
        it is Q QUARTER_TURN Q^-1.
    basis_inv : Mat2
        Q^-1 (original frame -> canonical frame).
    lam : complex
        The eigenvalue eig_real + i eig_imag.
    """

    eig_real: float
    eig_imag: float
    basis: np.ndarray
    generator: np.ndarray = field(repr=False)
    basis_inv: np.ndarray = field(init=False, repr=False)
    lam: complex = field(init=False, repr=False)

    def __post_init__(self):
        q = self.basis
        det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
        inv = np.array([[q[1, 1], -q[0, 1]], [-q[1, 0], q[0, 0]]]) / det
        object.__setattr__(self, "basis_inv", inv)
        object.__setattr__(self, "lam", complex(self.eig_real, self.eig_imag))

    def to_canonical(self, points: np.ndarray) -> np.ndarray:
        """Map points (..., 2) from original to canonical coordinates."""
        return _apply(self.basis_inv, points)

    def frame(self, centre, one) -> "UnitFrame":
        """The frame of canonical points putting ``centre`` at 0 and ``one``
        at 1 (original coordinates); DegenerateSpiral if they coincide."""
        (a, b), (c, d) = self.basis_inv
        ex, ey = complex(a, c), complex(b, d)  # canonical images of the axes
        x0, y0 = float(centre[0]), float(centre[1])
        origin = ex * x0 + ey * y0
        unit = ex * (float(one[0]) - x0) + ey * (float(one[1]) - y0)
        if unit == 0.0:
            raise DegenerateSpiral("frame points coincide")
        k = float(self.eig_real / self.eig_imag)
        return UnitFrame(ex / unit, ey / unit, -origin / unit, k, abs(unit))


def _apply(m: np.ndarray, points) -> np.ndarray:
    """The linear map m on points (..., 2), as four multiply-adds."""
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    out = np.empty(p.shape)
    out[..., 0] = m[0, 0] * x + m[0, 1] * y
    out[..., 1] = m[1, 0] * x + m[1, 1] * y
    return out


@dataclass(frozen=True)
class UnitFrame:
    """Complex coordinate ``w = (z - origin)/unit`` of canonical points z.

    On original coordinates it is the real-affine map
    ``w = alpha x + beta y + gamma``; ``gamma`` is the image of the original
    origin.  ``k`` is eig_real/eig_imag and ``length`` is |unit|, so a
    canonical distance is ``length`` times the distance of the images.
    """

    alpha: complex
    beta: complex
    gamma: complex
    k: float
    length: float

    @property
    def q(self) -> float:
        """e^{pi k}, the radial factor of a half turn (module docstring)."""
        return math.exp(math.pi * self.k)

    @property
    def one_minus_q(self) -> float:
        """1 - q, without cancellation near k = 0."""
        return -math.expm1(math.pi * self.k)

    @property
    def corner(self) -> float:
        """(1 + q)/(1 - q), p_plus in a system's unit frame; p_minus is -corner."""
        return (1.0 + self.q) / self.one_minus_q

    def pair_iterate(self, n: int) -> float:
        """x_n, the image of -1 after n pairs of half turns (module docstring)."""
        return -1.0 + 2.0 * self.q * math.expm1(2.0 * math.pi * self.k * n) / self.one_minus_q

    def to_unit(self, points):
        """Images of points (..., 2); one point (2,) gives a Python complex."""
        p = np.asarray(points, dtype=float)
        w = self.alpha * p[..., 0] + self.beta * p[..., 1] + self.gamma
        return complex(w) if p.ndim == 1 else w


def canonicalize(a) -> CanonicalForm:
    """Compute the rotation-scaling normal form of ``a``.

    Requires discriminant < -1e-12 * ||a||_F^2; matrices inside that band are
    rejected rather than guessed.  The test and the eigenvalues are computed
    on ``a / 2^e`` with its largest entry in [1, 2): the scaling is exact, so
    nothing overflows or underflows at any scale and every bit is kept.

    The basis is built from the generator ``N = (A - eig_real I) / eig_imag``
    (which satisfies N^2 = -I): columns ``(e, N e)`` with ``e = (1, 0)``
    conjugate N to the quarter-turn, and the result is scaled to unit
    determinant magnitude.  The choice is deterministic; for normal matrices
    it is orthogonal, and for an input already in clockwise canonical form it
    is exactly diag(1, -1).

    Raises
    ------
    NotComplexSpectrum
        If the discriminant is not below the rejection band.
    """
    m = as_matrix(a)
    big = float(np.abs(m).max())
    s = math.ldexp(1.0, math.frexp(big)[1] - 1) if big > 0.0 else 1.0
    (p, q), (r, t) = (m / s).tolist()
    disc = (p + t) * (p + t) - 4.0 * (p * t - q * r)
    if disc >= -1e-12 * (p * p + q * q + r * r + t * t):
        raise NotComplexSpectrum(
            f"discriminant {disc * s * s:.6g} is not negative beyond tolerance; "
            "complex eigenvalue pair required"
        )
    eig_real = 0.5 * (p + t) * s
    eig_imag = 0.5 * math.sqrt(-disc) * s
    gen = (m - eig_real * np.eye(2)) / eig_imag
    col2 = gen[:, 0]  # N @ (1, 0)
    det = col2[1]  # cross((1,0), col2)
    basis = np.array([[1.0, col2[0]], [0.0, col2[1]]]) / math.sqrt(abs(det))
    gen.setflags(write=False)
    return CanonicalForm(eig_real, eig_imag, basis, gen)


def spiral_arc(lam: complex, s, w, nw) -> np.ndarray:
    """The closed form ``e^{s Re lam}(cos(s Im lam) w + sin(s Im lam) nw)``.

    With ``lam = eig_real + i eig_imag`` and ``nw = N w`` for the generator N
    of a matrix A (``CanonicalForm.generator``; QUARTER_TURN in the canonical
    frame) this is ``exp(sA) w``, the one evaluation of the exponential in the
    package.  ``w`` and ``nw`` have shape (..., 2) and the times ``s`` (a
    float or an array) broadcast against their leading axes, so one time, an
    array of times, or one time per state all work; with a scalar ``s``,
    ``w = I`` and ``nw = N`` it is the matrix ``exp(sA)``, and with a
    canonical point as a complex number ``z`` and ``nw = 1j * z`` it is that
    point's image as a complex number.  Likewise a 2-vector w and N w read
    as complex numbers x + iy give the image as x + iy (``system.flow``'s
    single-state path).  The time-reversed system
    (``-lam.real``, ``-nw``) at ``-s`` gives bitwise the same result.
    """
    z = lam * s
    if isinstance(z, complex):
        # One time: cmath returns a Python complex, whose parts multiply
        # several times faster than numpy scalars (same libm values).
        c = cmath.exp(z)
    else:
        c = np.exp(z)[..., None]
    return c.real * w + c.imag * nw


def line_coordinate(v, direction) -> float:
    """Signed coordinate of ``v`` on the line through 0 spanned by ``direction``.

    Returns ``c`` with ``v = c * direction / |direction|``.  All interval and
    order statements along a line in this package are phrased in this
    coordinate.

    Raises
    ------
    ZeroVector
        If ``direction`` is zero.
    OffLine
        If ``v`` is farther than ``1e-9 * |v|`` from the line.
    """
    w = as_vector(v)
    d = as_vector(direction)
    norm_d = math.hypot(d[0], d[1])
    if norm_d == 0.0:
        raise ZeroVector("line direction must be nonzero")
    unit = d / norm_d
    c = float(w @ unit)
    off = w - c * unit
    dist = math.hypot(off[0], off[1])
    if dist > 1e-9 * math.hypot(w[0], w[1]):
        raise OffLine(
            f"point {w.tolist()} is {dist:.3g} away from the line "
            f"spanned by {d.tolist()}"
        )
    return c
