"""Brute-force verification: grid reachability, Hausdorff distance, bounds checks.

These are the independent checks against the closed-form constructions: a
breadth-first occupancy sweep built from exact one-step flows (so dx, dt and
control sampling are the only error sources), finite-set Hausdorff distances,
and a randomized check of the exponential distance contraction/expansion
bounds for exterior points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet
from .geometry import OrbitRegion, build_orbit_region, polyline_distance
from .system import LinearControlSystem, flow
from .controlset import periodic_orbit

__all__ = [
    "DistanceBoundReport",
    "GridSpec",
    "ReachSet",
    "check_distance_contraction",
    "default_grid_spec",
    "grid_reachable_set",
    "hausdorff",
]


@dataclass(frozen=True)
class GridSpec:
    """Discretization for the occupancy sweep.

    ``bounds`` is (xmin, xmax, ymin, ymax).  ``control_samples`` of None means
    the default {u_min, midpoint, u_max}; an explicit tuple is used verbatim
    (collapsing it to a single value deliberately freezes the control).
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
        if self.dx <= 0.0 or self.dt <= 0.0:
            raise ValueError("dx and dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least dt")

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
    dx: float = 0.02,
    dt: float = 0.05,
    horizon: float = 30.0,
    inflate: float = 3.0,
) -> GridSpec:
    """Grid bounds from the periodic orbit's bounding box inflated about its center."""
    xmin, xmax, ymin, ymax = periodic_orbit(sys).bounding_box()
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    hx, hy = 0.5 * (xmax - xmin) * inflate, 0.5 * (ymax - ymin) * inflate
    return GridSpec(bounds=(cx - hx, cx + hx, cy - hy, cy + hy), dx=dx, dt=dt, horizon=horizon)


@dataclass(frozen=True)
class ReachSet:
    """Occupancy of the discretized positive or negative orbit of a point."""

    occupancy: np.ndarray
    direction: str
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


def grid_reachable_set(
    sys: LinearControlSystem,
    v0,
    spec: GridSpec,
    direction: str = "forward",
) -> ReachSet:
    """Breadth-first occupancy closure under exact one-step flows.

    The frontier carries exact states (starting from ``v0`` itself); each
    layer flows every frontier state for dt under every control sample and
    marks the landed cells, so every occupied cell contains a genuinely
    reachable point and the only error sources are dx, dt and the control
    sampling.  States are deduplicated on a subgrid of dx/4 (one lexicographic
    representative per subcell, which keeps occupancy independent of frontier
    processing order); the sweep stops at the horizon or at a fixpoint, and
    out-of-bounds landings are dropped and counted.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    v0 = np.asarray(v0, dtype=float)
    xmin, xmax, ymin, ymax = spec.bounds
    if not (xmin <= v0[0] <= xmax and ymin <= v0[1] <= ymax):
        raise ValueError("source point must lie within the grid bounds")
    samples = spec.control_samples
    if samples is None:
        samples = (sys.u_min, 0.5 * (sys.u_min + sys.u_max), sys.u_max)
    sign = 1.0 if direction == "forward" else -1.0
    m = sys.propagator(sign * spec.dt)
    maps = []
    for u in samples:
        center = -u * sys.inv_a_eta
        b = center - m @ center
        maps.append((m.T.copy(), b))

    refine = 4
    ny, nx = spec.shape
    fx = nx * refine
    occupancy = np.zeros((ny, nx), dtype=bool)
    visited = np.zeros((ny * refine, fx), dtype=bool)

    def subcell(points):
        col = np.floor((points[:, 0] - xmin) / spec.dx * refine).astype(np.int64)
        row = np.floor((points[:, 1] - ymin) / spec.dx * refine).astype(np.int64)
        return row, col

    row0, col0 = spec.cell_of(v0)
    occupancy[row0[0], col0[0]] = True
    srow0, scol0 = subcell(v0[None, :])
    visited[srow0[0], scol0[0]] = True
    frontier = v0[None, :]
    spill = 0
    steps = int(math.floor(spec.horizon / spec.dt + 1e-9))
    steps_run = 0
    for _ in range(steps):
        landed_all = []
        for mt, b in maps:
            landed = frontier @ mt + b
            srows, scols = subcell(landed)
            ok = (srows >= 0) & (srows < ny * refine) & (scols >= 0) & (scols < fx)
            spill += int((~ok).sum())
            fresh = ok.copy()
            fresh[ok] = ~visited[srows[ok], scols[ok]]
            if fresh.any():
                landed_all.append(
                    np.column_stack([srows[fresh] * fx + scols[fresh], landed[fresh]])
                )
        steps_run += 1
        if not landed_all:
            break
        stacked = np.vstack(landed_all)
        # One representative per new subcell: lexicographic (x, y) minimum.
        order = np.lexsort((stacked[:, 2], stacked[:, 1], stacked[:, 0]))
        stacked = stacked[order]
        flat = stacked[:, 0].astype(np.int64)
        first = np.concatenate([[True], flat[1:] != flat[:-1]])
        flat = flat[first]
        frontier = stacked[first, 1:]
        visited[flat // fx, flat % fx] = True
        occupancy[flat // fx // refine, flat % fx // refine] = True
    return ReachSet(
        occupancy=occupancy,
        direction=direction,
        source=v0,
        spec=spec,
        spill_count=spill,
        steps_run=steps_run,
    )


def hausdorff(set_a, set_b) -> float:
    """Hausdorff distance between two finite point sets (n, 2) and (m, 2).

    Raises
    ------
    EmptySet
        If either set is empty.
    """
    a = np.atleast_2d(np.asarray(set_a, dtype=float))
    b = np.atleast_2d(np.asarray(set_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySet("hausdorff distance needs nonempty sets")

    # Squared distances, (chunk, m) per chunk of a to stay in cache: row
    # minima measure a to b, column minima over all chunks b to a.
    worst = 0.0
    col_min = np.full(len(b), np.inf)
    chunk = max(1, 16384 // len(b))
    for lo in range(0, len(a), chunk):
        d2 = a[lo : lo + chunk, 0:1] - b[:, 0]
        dy = a[lo : lo + chunk, 1:2] - b[:, 1]
        d2 *= d2
        d2 += dy * dy
        worst = max(worst, float(d2.min(axis=1).max()))
        np.minimum(col_min, d2.min(axis=0), out=col_min)
    return math.sqrt(max(worst, float(col_min.max())))


@dataclass(frozen=True)
class DistanceBoundReport:
    """Worst slack of the exterior-distance bounds over random samples.

    ``worst_contraction`` / ``worst_expansion`` are the most positive values
    of (measured - allowed) for the contraction (s * eig_real < 0) and
    expansion (s * eig_real > 0) inequalities; nonpositive means no violation
    beyond tolerance.
    """

    samples: int
    worst_contraction: float
    worst_expansion: float
    violations: int
    tolerance_base: float
    polyline_sag: float


def _polyline_sag(region: OrbitRegion) -> float:
    """Upper bound on the gap between the true boundary and its polyline."""
    orbit = region.orbit
    work = region.work_system
    sag = 0.0
    for arc, u in ((orbit.arc_minus, work.u_min), (orbit.arc_plus, work.u_max)):
        center = -u * work.inv_a_eta
        radii = np.linalg.norm(arc - center, axis=1)
        seg = np.linalg.norm(np.diff(arc, axis=0), axis=1).max()
        sag = max(sag, seg * seg / (8.0 * float(radii.min())))
    return sag


def check_distance_contraction(
    sys: LinearControlSystem,
    samples: int = 1000,
    rng: np.random.Generator | None = None,
    region: OrbitRegion | None = None,
    samples_per_arc: int = 4096,
) -> DistanceBoundReport:
    """Randomized check of the exterior-distance flow bounds.

    For random exterior points v, admissible controls u and times s of both
    signs, verifies (with r = eig_real)

        dist(flow(s, v, u)) <= e^{s r} dist(v) + tol   when s * r < 0,
        dist(flow(s, v, u)) >= e^{s r} dist(v) - tol   when s * r > 0,

    where dist is the Euclidean distance to the enclosed region and tol is
    1e-6 plus the polyline resolution bound.  Exact when the drift is normal
    (the adapted frame's metric is then the ambient one).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if region is None:
        region = build_orbit_region(sys, samples_per_arc=samples_per_arc)
    boundary = region.boundary
    sag = _polyline_sag(region)
    xmin, xmax = boundary[:, 0].min(), boundary[:, 0].max()
    ymin, ymax = boundary[:, 1].min(), boundary[:, 1].max()
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    hx, hy = 1.5 * (xmax - xmin), 1.5 * (ymax - ymin)
    er = sys.canonical.eig_real
    ei = sys.canonical.eig_imag
    scale = max(1.0, region.scale)
    tol_base = 1e-6 * scale

    pts = []
    while len(pts) < samples:
        cand = np.stack(
            [
                rng.uniform(cx - hx, cx + hx, size=4 * samples),
                rng.uniform(cy - hy, cy + hy, size=4 * samples),
            ],
            axis=1,
        )
        ext = region.margins_many(cand) < -1e-9 * scale
        pts.extend(cand[ext])
    pts = np.array(pts[:samples])
    us = rng.uniform(sys.u_min, sys.u_max, size=samples)
    mags = rng.uniform(0.0, 2.0 * math.pi / ei, size=samples)
    d0 = polyline_distance(pts, boundary)

    worst = {"contract": -math.inf, "expand": -math.inf}
    violations = 0
    for s_signed, kind in ((mags, "pos"), (-mags, "neg")):
        moved = flow(sys, s_signed, pts, us)
        inside = region.margins_many(moved) >= 0.0
        d1 = np.where(inside, 0.0, polyline_distance(moved, boundary))
        factor = np.exp(s_signed * er)
        tol = tol_base + sag * (1.0 + factor)
        if (kind == "pos") == (er < 0.0):  # s * er < 0: contraction bound
            slack = d1 - (factor * d0 + tol)
            worst["contract"] = max(worst["contract"], float(slack.max()))
        else:  # s * er > 0: expansion bound
            slack = (factor * d0 - tol) - d1
            worst["expand"] = max(worst["expand"], float(slack.max()))
        violations += int((slack > 0.0).sum())
    return DistanceBoundReport(
        samples=samples,
        worst_contraction=worst["contract"],
        worst_expansion=worst["expand"],
        violations=violations,
        tolerance_base=tol_base,
        polyline_sag=sag,
    )

