"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``planarcontrol``: flows come from ``scipy.linalg.expm``
on the raw matrix, fixed points from iterating exact half turns, and the
geometric predicates from brute force over a dense reference boundary.  The
checks compare the program's outputs against these, never against a stored
copy of earlier output.

Temporaries are chunked to about a megabyte so that the benchmark's peak
resident memory stays the program's, not the checker's.
"""

import math

import numpy as np
from scipy.linalg import expm

CHUNK_ELEMS = 1 << 17  # float64 elements per temporary, 1 MiB


class System:
    """v' = A v + u eta with u in [u_min, u_max], held as plain arrays."""

    def __init__(self, a, eta, u_min, u_max):
        self.a = np.array(a, dtype=float)
        self.eta = np.array(eta, dtype=float)
        self.u_min = float(u_min)
        self.u_max = float(u_max)
        self.trace = float(np.trace(self.a))
        self.a_inv_eta = np.linalg.solve(self.a, self.eta)
        eig = np.linalg.eigvals(self.a)
        self.eig_real = float(eig.real.mean())
        self.eig_imag = float(abs(eig.imag[0]))
        self.half_period = math.pi / self.eig_imag

    def reversed(self):
        return System(-self.a, -self.eta, self.u_min, self.u_max)

    def work(self):
        """The negative-trace system with the same orbit (reversed if trace > 0)."""
        return self.reversed() if self.trace > 0.0 else self

    def center(self, u):
        return -u * self.a_inv_eta

    def flow(self, t, v, u):
        """exp(t A)(v - v(u)) + v(u) for each time in the array t; returns (n, 2)."""
        c = self.center(u)
        props = expm(np.asarray(t, dtype=float)[:, None, None] * self.a)
        return props @ (np.asarray(v, dtype=float) - c) + c

    def run(self, v0, schedule):
        """Endpoint of a piecewise-constant schedule of (u, dt) segments."""
        v = np.asarray(v0, dtype=float)
        if len(schedule) == 0:
            return v
        props = expm(np.array([dt for _, dt in schedule])[:, None, None] * self.a)
        for (u, _), m in zip(schedule, props):
            c = self.center(u)
            v = m @ (v - c) + c
        return v


def fixed_points(sys, tol=1e-14, max_iter=20000):
    """(p_plus, p_minus) by iterating exact half turns until they converge.

    ``sys`` must have a negative trace.  Starting from the u_max equilibrium,
    each pair of iterations applies a u_min half turn then a u_max half turn;
    the even iterates converge to p_plus and the odd ones to p_minus.
    """
    if sys.trace >= 0.0:
        raise ValueError("fixed_points needs a negative trace")
    m = expm(sys.half_period * sys.a)
    c_min, c_max = sys.center(sys.u_min), sys.center(sys.u_max)
    v = c_max.copy()
    scale = 1.0 + float(np.linalg.norm(c_max - c_min))
    for _ in range(max_iter):
        odd = m @ (v - c_min) + c_min
        nxt = m @ (odd - c_max) + c_max
        if np.linalg.norm(nxt - v) <= tol * scale:
            return nxt, odd
        v = nxt
    raise RuntimeError("half-turn iteration did not converge")


def boundary(sys, samples_per_arc):
    """Closed boundary polyline of the periodic orbit, exact at every vertex.

    Same parametrisation as the program's: the u_min arc from p_plus, then
    the u_max arc from p_minus, each over one half period of the negative-
    trace system.
    """
    work = sys.work()
    p_plus, p_minus = fixed_points(work)
    s = np.linspace(0.0, work.half_period, samples_per_arc + 1)
    arc_minus = work.flow(s, p_plus, work.u_min)
    arc_plus = work.flow(s, p_minus, work.u_max)
    return np.vstack([arc_minus, arc_plus[1:]])


def sag(poly):
    """Upper bound on the gap between a smooth convex curve and its inscribed polyline.

    Uses chord^2 / (8 r) with r the smallest local radius of curvature,
    estimated from consecutive vertices (circumradius of each vertex triple).
    """
    a, b, c = poly[:-2], poly[1:-1], poly[2:]
    ab = np.linalg.norm(b - a, axis=1)
    bc = np.linalg.norm(c - b, axis=1)
    ca = np.linalg.norm(a - c, axis=1)
    cross = np.abs((b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0])
    radius = ab * bc * ca / np.maximum(2.0 * cross, 1e-300)
    seg = np.maximum(ab, bc)
    return float(np.max(seg * seg / (8.0 * radius)))


def _chunks(n_rows, width):
    step = max(1, CHUNK_ELEMS // max(1, width))
    for lo in range(0, n_rows, step):
        yield lo, min(n_rows, lo + step)


def inside_even_odd(points, poly):
    """Even-odd rule: True where a rightward ray crosses the polygon an odd number of times."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a = poly[:-1]
    b = poly[1:]
    out = np.empty(len(pts), dtype=bool)
    for lo, hi in _chunks(len(pts), len(a)):
        x = pts[lo:hi, 0:1]
        y = pts[lo:hi, 1:2]
        straddle = (a[:, 1] > y) != (b[:, 1] > y)
        dy = np.where(straddle, b[:, 1] - a[:, 1], 1.0)
        x_cross = a[:, 0] + (y - a[:, 1]) * (b[:, 0] - a[:, 0]) / dy
        out[lo:hi] = (np.count_nonzero(straddle & (x < x_cross), axis=1) % 2) == 1
    return out


def distance_to_polyline(points, poly):
    """Brute-force Euclidean distance from each point to the polyline's segments."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ax, ay = poly[:-1, 0], poly[:-1, 1]
    dx, dy = poly[1:, 0] - ax, poly[1:, 1] - ay
    len2 = np.maximum(dx * dx + dy * dy, 1e-300)
    out = np.empty(len(pts))
    for lo, hi in _chunks(len(pts), len(ax)):
        rx = pts[lo:hi, 0:1] - ax
        ry = pts[lo:hi, 1:2] - ay
        t = np.clip((rx * dx + ry * dy) / len2, 0.0, 1.0)
        gx = rx - t * dx
        gy = ry - t * dy
        out[lo:hi] = np.sqrt(np.min(gx * gx + gy * gy, axis=1))
    return out


def hausdorff(x, y):
    """Brute-force Hausdorff distance between two finite point sets, one point at a time."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def directed(p, q):
        worst = 0.0
        for pt in p:
            diff = q - pt
            worst = max(worst, float(np.min(np.einsum("ij,ij->i", diff, diff))))
        return math.sqrt(worst)

    return max(directed(x, y), directed(y, x))
