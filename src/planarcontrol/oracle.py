"""Brute-force verification: grid reachability and Hausdorff distances.

These are the independent checks against the closed-form constructions: a
breadth-first occupancy sweep built from exact one-step flows (so dx, dt and
control sampling are the only error sources), and finite-set Hausdorff
distances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet
from .controlset import is_trace_zero, periodic_orbit
from .system import LinearControlSystem, equilibrium

__all__ = [
    "GridSpec",
    "ReachSet",
    "default_grid_spec",
    "grid_reachable_set",
    "hausdorff",
]

# Largest grid the occupancy sweep accepts: 2^24 cells, 285 MB of marks.
_MAX_CELLS = 1 << 24


@dataclass(frozen=True)
class GridSpec:
    """Discretization for the occupancy sweep.

    ``bounds`` is (xmin, xmax, ymin, ymax).  ``control_samples`` of None means
    the default {u_min, midpoint, u_max}; an explicit tuple is used verbatim
    (collapsing it to a single value deliberately freezes the control).  A
    grid of more than 2^24 cells is rejected: the sweep's marks take 17 bytes
    per cell (16 subcell marks and the occupancy flag), and its other scratch
    arrays scale with the frontier, not the grid.
    """

    bounds: tuple[float, float, float, float]
    dx: float
    dt: float
    horizon: float
    control_samples: tuple | None = None

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.bounds
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("bounds must satisfy xmin < xmax and ymin < ymax")
        # horizon / dt is the sweep's step count, so it must be finite too.
        steps_ok = 0.0 < self.dt <= self.horizon and self.horizon / self.dt < math.inf
        if self.dx <= 0.0 or not steps_ok:
            raise ValueError("dx and dt must be positive, and horizon / dt finite and at least 1")
        if self.control_samples is not None and not np.isfinite(self.control_samples).all():
            raise ValueError("control samples must be finite")
        # The area in cells first: it may be infinite, which shape cannot take.
        area = (xmax - xmin) / self.dx * ((ymax - ymin) / self.dx)
        if not area <= _MAX_CELLS or math.prod(self.shape) > _MAX_CELLS:
            raise ValueError(f"grid of about {area:.3g} cells exceeds {_MAX_CELLS}")

    @property
    def shape(self) -> tuple[int, int]:
        xmin, xmax, ymin, ymax = self.bounds
        nx = int(math.ceil((xmax - xmin) / self.dx))
        ny = int(math.ceil((ymax - ymin) / self.dx))
        return ny, nx

    def cell_of(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) indices of points (n, 2); may fall outside the grid."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xmin, _, ymin, _ = self.bounds
        col = np.floor((pts[:, 0] - xmin) / self.dx).astype(np.int64)
        row = np.floor((pts[:, 1] - ymin) / self.dx).astype(np.int64)
        return row, col

    def centers_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        xmin, _, ymin, _ = self.bounds
        x = xmin + (cols + 0.5) * self.dx
        y = ymin + (rows + 0.5) * self.dx
        return np.stack([x, y], axis=1)


def default_grid_spec(
    sys: LinearControlSystem,
    start,
    dx: float | None = None,
    dt: float | None = None,
    horizon: float | None = None,
    bounds: tuple | None = None,
) -> GridSpec:
    """The grid for a sweep of ``sys`` from ``start``, at any trace.

    Without ``bounds`` the box is the periodic orbit's bounding box inflated
    3 times about its center or, at zero trace, the square about the mean of
    the extreme equilibria and ``start`` with half side 3 times their largest
    offset from it (at least 10 dx); it grows to hold ``start`` 2 dx inside.
    Given ``bounds`` are used as they are, and only they are checked against
    the grid's cell limit.  Steps not given are shares of the system's own
    sizes, so a default grid has the same shape in any unit: dx is 1/64 of
    the box's longer side (at zero trace, of the equilibria's spacing), dt
    1/64 of a half period and the horizon 10 half periods.
    """
    start = np.asarray(start, dtype=float)
    half = sys.half_period
    dt = half / 64.0 if dt is None else dt
    horizon = 10.0 * half if horizon is None else horizon
    if is_trace_zero(sys):
        e_min, e_max = equilibrium(sys, sys.u_min), equilibrium(sys, sys.u_max)
        dx = float(np.linalg.norm(e_max - e_min)) / 64.0 if dx is None else dx
        anchors = np.vstack([e_min, e_max, start])
        c = anchors.mean(axis=0)
        hx = hy = max(float(np.abs(anchors - c).max()) * 3.0, 10.0 * dx)
        cx, cy = c
    else:
        xmin, xmax, ymin, ymax = periodic_orbit(sys).bounding_box()
        dx = max(xmax - xmin, ymax - ymin) / 64.0 if dx is None else dx
        cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        hx, hy = 1.5 * (xmax - xmin), 1.5 * (ymax - ymin)
    if bounds is None:
        pad = 2.0 * dx
        bounds = (min(cx - hx, start[0] - pad), max(cx + hx, start[0] + pad),
                  min(cy - hy, start[1] - pad), max(cy + hy, start[1] + pad))
    return GridSpec(bounds=tuple(bounds), dx=dx, dt=dt, horizon=horizon)


@dataclass(frozen=True)
class ReachSet:
    """Occupancy of the discretized forward orbit of a point; sweep
    ``LinearControlSystem.time_reversed()`` for the backward orbit."""

    occupancy: np.ndarray
    source: np.ndarray
    spec: GridSpec
    spill_count: int
    steps_run: int

    def occupied_points(self) -> np.ndarray:
        """Centers of occupied cells, row-major (deterministic order)."""
        rows, cols = np.nonzero(self.occupancy)
        return self.spec.centers_of(rows, cols)

    def occupied_count(self) -> int:
        return int(self.occupancy.sum())

    def contains(self, points) -> np.ndarray:
        """Whether each point's cell is occupied (False if out of bounds)."""
        rows, cols = self.spec.cell_of(points)
        ny, nx = self.occupancy.shape
        ok = (rows >= 0) & (rows < ny) & (cols >= 0) & (cols < nx)
        out = np.zeros(len(rows), dtype=bool)
        out[ok] = self.occupancy[rows[ok], cols[ok]]
        return out


def grid_reachable_set(sys: LinearControlSystem, v0, spec: GridSpec) -> ReachSet:
    """Breadth-first occupancy closure under exact one-step flows.

    The frontier carries exact states, starting from ``v0``, which must lie
    in the grid's half-open box [xmin, xmin + nx dx) x [ymin, ymin + ny dx).
    Each layer flows every frontier state for dt under every control sample,
    so every occupied cell contains a genuinely reachable point and the only
    error sources are dx, dt and the control sampling.  States are
    deduplicated on a subgrid of dx/4 (one lexicographic representative per
    subcell, which keeps occupancy independent of frontier processing order);
    the sweep stops at the horizon or at a fixpoint, and out-of-bounds
    landings are dropped and counted.  A ValueError rejects a step dt whose
    flow map or offsets leave the floating-point range.

    A step is x' = m00 x + m01 y + b_x(u), and y' likewise, with b = c - M c,
    in separate numpy multiplies and adds: these round alike on every
    machine, while a BLAS product's last bit depends on its kernel and the
    operands' layout.  One integer sort of a layer's fresh flat indices
    groups its landings by subcell, and two scatter minima (of x, then of y
    among the landings that attain it) pick the representatives, so scratch
    is sized by the frontier, not the grid.  Occupancy is read off the
    subcell marks after the last layer.
    """
    v0 = np.asarray(v0, dtype=float)
    samples = spec.control_samples
    if samples is None:
        samples = (sys.u_min, 0.5 * (sys.u_min + sys.u_max), sys.u_max)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            (m00, m01), (m10, m11) = sys.propagator(spec.dt).tolist()
            # Per control sample (one row each), the offset c - M c of its centre c.
            u = np.array(samples, dtype=float)[:, None]
            cx, cy = -u * sys.inv_a_eta[0], -u * sys.inv_a_eta[1]
            bx, by = cx - (m00 * cx + m01 * cy), cy - (m10 * cx + m11 * cy)
        finite = all(map(math.isfinite, (m00, m01, m10, m11))) and np.isfinite([bx, by]).all()
    except OverflowError:  # cmath.exp out of range
        finite = False
    if not finite:
        raise ValueError(f"one step of dt = {spec.dt} leaves the floating-point range")

    refine = 4
    ny, nx = spec.shape
    fy, fx = ny * refine, nx * refine
    xmin, _, ymin, _ = spec.bounds
    q = spec.dx / refine  # exact: x / q equals x / dx * refine bit for bit

    def subcell(x, y):
        """Flat row-major subcell indices of points, and which lie in the grid."""
        col = np.floor((x - xmin) / q).astype(np.int64)
        row = np.floor((y - ymin) / q).astype(np.int64)
        # A negative index read as unsigned is huge: one compare per axis.
        inside = (col.view(np.uint64) < fx) & (row.view(np.uint64) < fy)
        return row * fx + col, inside

    xs, ys = v0[0:1], v0[1:2]
    with np.errstate(invalid="ignore"):  # a non-finite source lies outside
        flat, inside = subcell(xs, ys)
    if not inside[0]:
        raise ValueError("source point must lie in the grid's half-open box")
    visited = np.zeros(fy * fx, dtype=bool)  # subcells, flat row-major
    visited[flat] = True
    spill = 0
    steps = int(math.floor(spec.horizon / spec.dt + 1e-9))
    steps_run = 0
    for _ in range(steps):
        x = (m00 * xs + m01 * ys + bx).ravel()
        y = (m10 * xs + m11 * ys + by).ravel()
        flat, inside = subcell(x, y)
        keep = np.flatnonzero(inside)
        spill += len(inside) - len(keep)
        keep = keep[~visited[flat[keep]]]
        steps_run += 1
        if not len(keep):
            break
        keep = keep[np.argsort(flat[keep])]
        flat, x, y = flat[keep], x[keep], y[keep]
        head = np.concatenate(([True], flat[1:] != flat[:-1]))  # first per subcell
        group = np.cumsum(head) - 1
        flat = flat[head]
        # One representative per new subcell: the lexicographic (x, y) minimum.
        xs = np.full(len(flat), np.inf)
        np.minimum.at(xs, group, x)
        on_min = x == xs[group]
        ys = np.full(len(flat), np.inf)
        np.minimum.at(ys, group[on_min], y[on_min])
        visited[flat] = True
    # The refine = 4 subcells of one cell in one subcell row are one 4-byte word.
    occupancy = visited.view(np.uint32).reshape(ny, refine, nx).any(axis=1)
    return ReachSet(
        occupancy=occupancy,
        source=v0,
        spec=spec,
        spill_count=spill,
        steps_run=steps_run,
    )


def _min_sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from each point of ``a`` to its nearest point of ``b``.

    Computed (chunk, m) rows at a time to stay in cache; each term is
    (ax - bx)^2 + (ay - by)^2 in that order of operations.
    """
    out = np.empty(len(a))
    chunk = max(1, 16384 // len(b))
    for lo in range(0, len(a), chunk):
        d2 = a[lo : lo + chunk, 0:1] - b[:, 0]
        dy = a[lo : lo + chunk, 1:2] - b[:, 1]
        d2 *= d2
        d2 += dy * dy
        d2.min(axis=1, out=out[lo : lo + chunk])
    return out


def _directed_sq(a: np.ndarray, b: np.ndarray) -> float:
    """max over ``a`` of the squared distance to ``b``; see :func:`hausdorff`."""
    n, m = len(a), len(b)
    # Each point's bound: its own term against b's point at the same relative
    # index, in the operations of _min_sq_distances.
    j = np.arange(n) * (m - 1) // max(n - 1, 1)
    bound = a[:, 0] - b[j, 0]
    dy = a[:, 1] - b[j, 1]
    bound *= bound
    bound += dy * dy
    order = np.argsort(bound)[::-1]
    worst, lo, size = 0.0, 0, 8
    while lo < n and bound[order[lo]] > worst:
        rows = order[lo : lo + size]
        worst = max(worst, float(_min_sq_distances(a[rows], b).max()))
        lo, size = lo + size, 2 * size
    return worst


def hausdorff(set_a, set_b) -> float:
    """Hausdorff distance between two finite point sets (n, 2) and (m, 2).

    Each direction is output-sensitive and exact.  A point's squared distance
    to its nearest point of the other set is at most its squared distance to
    the other set's point at the same relative index (i (m - 1) // (n - 1)).
    Points are visited in decreasing order of that bound, in batches of 8,
    16, 32, ..., and each visited point's exact minimum is taken over the
    whole other set; the search stops once the next bound is not above the
    largest exact minimum found.  Every bound is one of that point's own
    exact terms, computed with the same operations, so the result is bit for
    bit the all-pairs value.  Two sets sampled alike along nearby curves
    whose points correspond by index (the CLI sweep's boundaries, scaled
    about one centre) take exact minima for 8 points per direction; where
    the same index is far from the nearest point (unrelated sets, strongly
    skewed bases), most points need one, about two all-pairs passes in all
    (one per direction).

    Raises
    ------
    EmptySet
        If either set is empty.
    ValueError
        If some coordinate is not finite: a NaN term would order no bound.
    """
    a = np.atleast_2d(np.asarray(set_a, dtype=float))
    b = np.atleast_2d(np.asarray(set_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySet("hausdorff distance needs nonempty sets")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("hausdorff distance needs finite points")
    return math.sqrt(max(_directed_sq(a, b), _directed_sq(b, a)))
