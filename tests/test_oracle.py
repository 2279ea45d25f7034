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

from conftest import random_normal_system


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
