"""Grid reachability, Hausdorff distances, and the distance-bound check."""

import math

import numpy as np
import pytest

from planarcontrol.errors import EmptySet
from planarcontrol.geometry import build_orbit_region, polyline_distance
from planarcontrol.oracle import (
    GridSpec,
    check_distance_contraction,
    default_grid_spec,
    grid_reachable_set,
    hausdorff,
)
from planarcontrol.system import LinearControlSystem, equilibrium, flow

from conftest import (
    random_normal_system,
    random_system,
    random_trace_zero_system,
)


def test_singleton_control_at_equilibrium_occupies_only_source(s0):
    eq = equilibrium(s0, 0.5)
    spec = GridSpec(
        bounds=(eq[0] - 1.0, eq[0] + 1.0, eq[1] - 1.0, eq[1] + 1.0),
        dx=0.05,
        dt=0.1,
        horizon=5.0,
        control_samples=(0.5,),
    )
    reach = grid_reachable_set(s0, eq, spec)
    assert reach.occupied_count() == 1
    assert reach.contains(eq[None, :])[0]


def test_forward_reach_stays_in_dilated_region(s0):
    spec = default_grid_spec(s0, dx=0.04, dt=0.1, horizon=12.0)
    reach = grid_reachable_set(s0, [0.0, 0.0], spec)
    region = build_orbit_region(s0)
    pts = reach.occupied_points()
    margins = region.margins_many(pts)
    outside = pts[margins < 0.0]
    if len(outside):
        dist = polyline_distance(outside, region.boundary)
        assert dist.max() <= 2.0 * spec.dx
    assert reach.occupied_count() > 100


def test_positive_trace_exterior_point_stays_outside(s0):
    rev = s0.time_reversed()
    region = build_orbit_region(rev)
    # Put the source at a known exterior distance.  p_plus lies on the line
    # through the equilibria, where A v + u eta is parallel to eta, so both
    # arcs meet there with tangents parallel to eta.  The region is convex, so
    # a step along the outward normal at p_plus keeps p_plus as the nearest
    # boundary point.
    work = region.work_system
    tangent = work.a @ (region.p_plus - equilibrium(work, work.u_min))
    cross = tangent[0] * work.eta[1] - tangent[1] * work.eta[0]
    assert abs(cross) <= 1e-9 * np.linalg.norm(tangent) * np.linalg.norm(work.eta)
    normal = np.array([-tangent[1], tangent[0]]) / np.linalg.norm(tangent)
    if normal @ (region.p_plus - region.p_minus) < 0.0:
        normal = -normal
    v0 = region.p_plus + 0.3 * normal
    eps = region.exterior_distance(v0)
    assert eps == pytest.approx(0.3, abs=1e-9)
    spec = default_grid_spec(rev, dx=0.02, dt=0.05, horizon=6.0, inflate=4.0)
    reach = grid_reachable_set(rev, v0, spec)
    pts = reach.occupied_points()
    margins = region.margins_many(pts)
    dist = np.zeros(len(pts))
    ext = margins < 0.0
    dist[ext] = polyline_distance(pts[ext], region.boundary)
    # Everything reachable forward stays at least eps (minus one cell) away.
    assert dist.min() >= eps - 2.0 * spec.dx
    assert reach.spill_count > 0  # expanding flow must spill eventually


def test_hausdorff_examples():
    assert hausdorff([[0.0, 0.0]], [[0.0, 0.0]]) == 0.0
    assert hausdorff([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0
    with pytest.raises(EmptySet):
        hausdorff(np.zeros((0, 2)), [[0.0, 0.0]])


def test_hausdorff_is_symmetric_and_detects_outliers():
    rng = np.random.default_rng(113)
    a = rng.normal(0.0, 1.0, (40, 2))
    b = np.vstack([a, [[10.0, 10.0]]])
    assert hausdorff(a, b) == hausdorff(b, a)
    assert hausdorff(a, b) >= np.linalg.norm([10.0, 10.0]) - 3.0


def test_hausdorff_equals_scalar_double_loop():
    def directed(x, y):
        return max(
            min(math.sqrt((p[0] - r[0]) ** 2 + (p[1] - r[1]) ** 2) for r in y)
            for p in x
        )

    rng = np.random.default_rng(131)
    # 16384 // m rows per chunk: 12,000 x 3 spans three chunks, 40 x 700
    # two, 700 x 40 two, and 3 x 9,000 three of one row.
    for n, m in ((12000, 3), (40, 700), (700, 40), (3, 9000), (1, 1)):
        a = rng.normal(0.0, 1.0, (n, 2))
        b = rng.normal(0.3, 2.0, (m, 2))
        assert hausdorff(a, b) == max(directed(a, b), directed(b, a))


def _lexsort_reachable_set(sys, v0, spec, direction):
    """The sweep with one matmul per control sample and a 3-key lexsort per
    layer; kept as the reference for the one-pass step.

    Returns (occupancy, spill_count, steps_run).
    """
    xmin, _, ymin, _ = spec.bounds
    samples = spec.control_samples
    if samples is None:
        samples = (sys.u_min, 0.5 * (sys.u_min + sys.u_max), sys.u_max)
    sign = 1.0 if direction == "forward" else -1.0
    m = sys.propagator(sign * spec.dt)
    maps = []
    for u in samples:
        center = -u * sys.inv_a_eta
        maps.append((m.T.copy(), center - m @ center))
    refine = 4
    ny, nx = spec.shape
    fx = nx * refine
    occupancy = np.zeros((ny, nx), dtype=bool)
    visited = np.zeros((ny * refine, fx), dtype=bool)

    def subcell(points):
        col = np.floor((points[:, 0] - xmin) / spec.dx * refine).astype(np.int64)
        row = np.floor((points[:, 1] - ymin) / spec.dx * refine).astype(np.int64)
        return row, col

    v0 = np.asarray(v0, dtype=float)
    row0, col0 = spec.cell_of(v0)
    occupancy[row0[0], col0[0]] = True
    srow0, scol0 = subcell(v0[None, :])
    visited[srow0[0], scol0[0]] = True
    frontier = v0[None, :]
    spill = 0
    steps_run = 0
    for _ in range(int(math.floor(spec.horizon / spec.dt + 1e-9))):
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
        order = np.lexsort((stacked[:, 2], stacked[:, 1], stacked[:, 0]))
        stacked = stacked[order]
        flat = stacked[:, 0].astype(np.int64)
        first = np.concatenate([[True], flat[1:] != flat[:-1]])
        flat = flat[first]
        frontier = stacked[first, 1:]
        visited[flat // fx, flat % fx] = True
        occupancy[flat // fx // refine, flat % fx // refine] = True
    return occupancy, spill, steps_run


def test_one_pass_step_matches_lexsort_reference():
    rng = np.random.default_rng(1109)
    spilled = set()
    for trace_sign in (-1, 0, 1):
        for direction in ("forward", "backward"):
            for kind in ("default", "tie", "five"):
                for box in (4.0, 0.8):  # wide, then tight enough to spill
                    if trace_sign:
                        sys = random_system(rng, trace_sign)
                    else:
                        sys = random_trace_zero_system(rng, normal=False)
                    samples = {
                        "default": None,
                        "tie": (sys.u_min, sys.u_min, sys.u_max),
                        "five": tuple(np.linspace(sys.u_min, sys.u_max, 5)),
                    }[kind]
                    e_min = equilibrium(sys, sys.u_min)
                    e_max = equilibrium(sys, sys.u_max)
                    c = 0.5 * (e_min + e_max)
                    half = box * float(np.linalg.norm(e_max - e_min))
                    spec = GridSpec(
                        (c[0] - half, c[0] + half, c[1] - half, c[1] + half),
                        dx=half / rng.uniform(15.0, 25.0),
                        dt=sys.half_period / rng.uniform(6.0, 12.0),
                        horizon=3.0 * sys.half_period,
                        control_samples=samples,
                    )
                    v0 = c + rng.uniform(-0.1, 0.1, 2) * half
                    got = grid_reachable_set(sys, v0, spec, direction)
                    occupancy, spill, steps = _lexsort_reachable_set(
                        sys, v0, spec, direction
                    )
                    case = (trace_sign, direction, kind, box)
                    assert np.array_equal(got.occupancy, occupancy), case
                    assert got.spill_count == spill, case
                    assert got.steps_run == steps, case
                    spilled.add(spill > 0)
    assert spilled == {True, False}


def test_grid_refinement_keeps_cells_within_one_dilation(s0):
    coarse_spec = default_grid_spec(s0, dx=0.08, dt=0.1, horizon=8.0)
    fine_spec = GridSpec(
        bounds=coarse_spec.bounds, dx=0.04, dt=0.05, horizon=8.0
    )
    coarse = grid_reachable_set(s0, [0.0, 0.0], coarse_spec)
    fine = grid_reachable_set(s0, [0.0, 0.0], fine_spec)
    cpts = coarse.occupied_points()
    fpts = fine.occupied_points()
    # Every coarse cell has a fine occupied cell within one coarse cell.
    d = np.array(
        [np.min(np.linalg.norm(fpts - c, axis=1)) for c in cpts]
    )
    assert d.max() <= coarse_spec.dx * math.sqrt(2.0)


def test_occupancy_independent_of_control_order(s0):
    spec = default_grid_spec(s0, dx=0.05, dt=0.1, horizon=6.0)
    a = grid_reachable_set(
        s0,
        [0.0, 0.0],
        GridSpec(spec.bounds, spec.dx, spec.dt, spec.horizon, (-1.0, 0.0, 1.0)),
    )
    b = grid_reachable_set(
        s0,
        [0.0, 0.0],
        GridSpec(spec.bounds, spec.dx, spec.dt, spec.horizon, (1.0, -1.0, 0.0)),
    )
    assert np.array_equal(a.occupancy, b.occupancy)


def test_occupancy_monotone_in_horizon(s0):
    spec_short = default_grid_spec(s0, dx=0.05, dt=0.1, horizon=3.0)
    spec_long = GridSpec(spec_short.bounds, 0.05, 0.1, 6.0)
    short = grid_reachable_set(s0, [0.0, 0.0], spec_short)
    long_ = grid_reachable_set(s0, [0.0, 0.0], spec_long)
    assert np.all(long_.occupancy[short.occupancy])


def test_backward_reach_mirrors_time_reversed_forward(s0):
    spec = default_grid_spec(s0, dx=0.05, dt=0.1, horizon=4.0)
    backward = grid_reachable_set(s0, [0.1, 0.1], spec, direction="backward")
    forward_rev = grid_reachable_set(
        s0.time_reversed(), [0.1, 0.1], spec, direction="forward"
    )
    assert np.array_equal(backward.occupancy, forward_rev.occupancy)


def test_grid_spec_validation(s0):
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 1.0, 0.0), 0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0.0, 1.0), -0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0.0, 1.0), 0.1, 0.1, 0.05)
    spec = GridSpec((-1.0, 1.0, -1.0, 1.0), 0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        grid_reachable_set(s0, [5.0, 5.0], spec)
    with pytest.raises(ValueError):
        grid_reachable_set(s0, [0.0, 0.0], spec, direction="sideways")


def test_distance_bound_direct_case(s0):
    # A single concrete contraction instance, checked directly.
    region = build_orbit_region(s0, samples_per_arc=4096)
    v = np.array([2.0, 2.0])
    d0 = region.exterior_distance(v)
    moved = flow(s0, 1.0, v, 0.0)
    d1 = region.exterior_distance(moved)
    assert d1 <= math.exp(-1.0) * d0 + 1e-6


def test_distance_bound_interior_point_trivial(s0):
    region = build_orbit_region(s0)
    assert region.exterior_distance([0.0, 0.0]) == 0.0


def test_distance_bound_report_no_violations(s0):
    report = check_distance_contraction(s0, samples=400, rng=np.random.default_rng(5))
    assert report.violations == 0
    assert report.worst_contraction <= 0.0
    assert report.worst_expansion <= 0.0


def test_distance_bound_random_normal_systems():
    rng = np.random.default_rng(127)
    for _ in range(5):
        sys = random_normal_system(rng, trace_sign=int(rng.choice([-1, 1])))
        report = check_distance_contraction(
            sys, samples=150, rng=rng, samples_per_arc=2048
        )
        assert report.violations == 0
