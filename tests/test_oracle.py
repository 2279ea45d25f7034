"""Grid reachability, Hausdorff distances, and the distance-bound check."""

import math
import tracemalloc

import numpy as np
import pytest

from planarcontrol import oracle
from planarcontrol.controlset import periodic_orbit
from planarcontrol.errors import EmptySet
from planarcontrol.geometry import build_orbit_region, polyline_distance
from planarcontrol.oracle import (
    GridSpec,
    default_grid_spec,
    grid_reachable_set,
    hausdorff,
)
from planarcontrol.system import LinearControlSystem, equilibrium, flow

from conftest import (
    random_normal_system,
    random_system,
    random_trace_zero_system,
    spiral_drift,
)
from lemmas import all_pairs_hausdorff, distance_bound_slack


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
    spec = default_grid_spec(s0, [0.0, 0.0], dx=0.04, dt=0.1, horizon=12.0)
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
    # The orbit's bounding box inflated 4 times about its centre.
    xmin, xmax, ymin, ymax = periodic_orbit(rev).bounding_box()
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    hx, hy = 2.0 * (xmax - xmin), 2.0 * (ymax - ymin)
    spec = GridSpec((cx - hx, cx + hx, cy - hy, cy + hy), dx=0.02, dt=0.05, horizon=6.0)
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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite points"):
            hausdorff([[0.0, 0.0], [1.0, 2.0]], [[0.5, bad]])
        with pytest.raises(ValueError, match="finite points"):
            hausdorff([[bad, 0.0]], [[0.0, 0.0]])


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


def _family(a, eta, grid, samples):
    """The boundary of each control range of ``grid``, as the sweep samples it."""
    return [periodic_orbit(LinearControlSystem(a, eta, alpha, rho), samples).polyline()
            for alpha, rho in grid]


def _homothetic_family(ratio, skewed, samples, count=4):
    """Boundaries of the first ``count`` ranges nu ± f w / 2, f = 0.5, 1,
    1.5, 2: each is the previous one scaled about v(nu)."""
    grid = [(0.3 - 0.6 * f, 0.3 + 0.6 * f) for f in (0.5, 1.0, 1.5, 2.0)][:count]
    return _family(spiral_drift(ratio, skewed), [0.4, -0.7], grid, samples)


def _shifted_family(samples, count=4):
    """Boundaries of the first ``count`` of four ranges with moving midpoints
    on the reference system; the middle two cross."""
    grid = [(-1.0, 1.0), (-1.5, 1.5), (-0.5, 2.0), (-3.0, 0.25)][:count]
    return _family([[-1.0, -1.0], [1.0, -1.0]], [1.0, 0.0], grid, samples)


@pytest.mark.parametrize("samples", [16, 64, 256, 1024])
def test_hausdorff_equals_all_pairs_on_sweep_families(samples):
    families = [_shifted_family(samples)] + [
        _homothetic_family(ratio, skewed, samples)
        for ratio in (-0.05, -0.4, -1.0, -3.0)
        for skewed in (False, True)
    ]
    for family in families:
        for prev, cur in zip(family, family[1:]):
            assert hausdorff(cur, prev) == all_pairs_hausdorff(cur, prev)


def test_hausdorff_equals_all_pairs_at_4096_samples_per_arc():
    # The skewed pair is the bound's worst case: most points need an exact
    # minimum in one direction.
    for family in (_shifted_family(4096, 2), _homothetic_family(-0.4, True, 4096, 2)):
        for prev, cur in zip(family, family[1:]):
            assert hausdorff(cur, prev) == all_pairs_hausdorff(cur, prev)


def test_hausdorff_equals_all_pairs_on_awkward_sets():
    rng = np.random.default_rng(29)
    curve = np.stack([np.cos(np.linspace(0, 6, 700)), np.sin(np.linspace(0, 6, 700))], axis=1)
    one = np.array([[0.25, -2.0]])
    cases = [
        (one, one),
        (one, curve),
        (curve, one),
        (curve[:1], curve[-1:]),
        (curve[::3], curve[1::2] * 1.01),  # n != m along one curve
        (curve[:50], curve[::-1] + 0.02),  # one set traversed the other way
        (np.repeat(curve[::10], 4, axis=0), curve[::7]),  # duplicate points
        (np.zeros((40, 2)), np.zeros((9, 2))),  # every distance zero
        # Unrelated random sets: the bound's worst case.
        (rng.normal(0.0, 1.0, (600, 2)), rng.normal(0.5, 3.0, (900, 2))),
        (rng.uniform(-1.0, 1.0, (2000, 2)), rng.uniform(-1.0, 1.0, (1500, 2))),
        (rng.normal(0.0, 1.0, (300, 2)), rng.normal(0.0, 1.0, (3, 2))),
    ]
    for a, b in cases:
        assert hausdorff(a, b) == all_pairs_hausdorff(a, b)
        assert hausdorff(b, a) == all_pairs_hausdorff(b, a)


def test_hausdorff_takes_few_exact_rows_on_sampled_alike_boundaries(monkeypatch):
    # Consecutive boundaries of a family scaled about v(nu), as in the CLI's
    # sweep, at 4,096 samples per arc (8,193 points each): one batch of 8
    # exact rows per direction, against 8,193 for all pairs.
    family = _homothetic_family(-0.4, False, 4096)
    rows = []
    directed, minima = oracle._directed_sq, oracle._min_sq_distances

    def one_direction(a, b):
        rows.append(0)
        return directed(a, b)

    def counted(a, b):
        rows[-1] += len(a)
        return minima(a, b)

    monkeypatch.setattr(oracle, "_directed_sq", one_direction)
    monkeypatch.setattr(oracle, "_min_sq_distances", counted)
    for prev, cur in zip(family, family[1:]):
        hausdorff(cur, prev)
    assert rows == [8] * 6


def _lexsort_reachable_set(sys, v0, spec):
    """The sweep with one matmul per control sample and a 3-key lexsort per
    layer; kept as the reference for the one-pass step.

    Returns (occupancy, spill_count, steps_run).
    """
    xmin, _, ymin, _ = spec.bounds
    samples = spec.control_samples
    if samples is None:
        samples = (sys.u_min, 0.5 * (sys.u_min + sys.u_max), sys.u_max)
    m = sys.propagator(spec.dt)
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
    cases = []
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
                    if direction == "backward":
                        sys = sys.time_reversed()
                    cases.append(((trace_sign, direction, kind, box), sys, v0, spec))
    # An expanding flow on a fine grid: the largest of its 10 layers holds
    # 24,993 fresh landings, three times perfbench's largest cli layer.
    sys = LinearControlSystem([[0.2, -1.0], [1.0, 0.2]], [0.0, 1.0], -1.0, 1.0)
    c = 0.5 * (equilibrium(sys, -1.0) + equilibrium(sys, 1.0))
    box = (c[0] - 3.0, c[0] + 3.0, c[1] - 3.0, c[1] + 3.0)
    half = sys.half_period
    cases.append(("large layer", sys, c, GridSpec(box, 6.0 / 128, half / 10.0, half)))
    # A source exactly on a subcell edge in x (37 quarter cells in) and on a
    # cell edge in y: it belongs to the subcell above each edge.
    sys = LinearControlSystem([[-0.2, -1.0], [1.0, -0.2]], [0.0, 1.0], -1.0, 1.0)
    half = sys.half_period
    spec = GridSpec((-2.0, 2.0, -2.0, 2.0), 0.125, half / 8.0, 4.0 * half)
    v0 = np.array([-2.0 + 37 * 0.125 / 4, 0.0])
    first = grid_reachable_set(sys, v0, GridSpec(spec.bounds, 0.125, 1.0, 1.0, (0.0,)))
    assert first.occupancy[15:17, 9].tolist() == [False, True]
    cases.append(("subcell edge", sys, v0, spec))

    spilled = set()
    for case, sys, v0, spec in cases:
        got = grid_reachable_set(sys, v0, spec)
        occupancy, spill, steps = _lexsort_reachable_set(sys, v0, spec)
        assert np.array_equal(got.occupancy, occupancy), case
        assert got.spill_count == spill, case
        assert got.steps_run == steps, case
        spilled.add(spill > 0)
    assert spilled == {True, False}


def test_grid_refinement_keeps_cells_within_one_dilation(s0):
    coarse_spec = default_grid_spec(s0, [0.0, 0.0], dx=0.08, dt=0.1, horizon=8.0)
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
    spec = default_grid_spec(s0, [0.0, 0.0], dx=0.05, dt=0.1, horizon=6.0)
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
    spec_short = default_grid_spec(s0, [0.0, 0.0], dx=0.05, dt=0.1, horizon=3.0)
    spec_long = GridSpec(spec_short.bounds, 0.05, 0.1, 6.0)
    short = grid_reachable_set(s0, [0.0, 0.0], spec_short)
    long_ = grid_reachable_set(s0, [0.0, 0.0], spec_long)
    assert np.all(long_.occupancy[short.occupancy])


def test_zero_trace_default_grid_is_the_square_about_equilibria_and_start():
    sys = LinearControlSystem([[0.0, -2.0], [0.5, 0.0]], [0.3, -0.7], -0.4, 1.1)
    start = np.array([0.9, -0.2])
    e_min, e_max = equilibrium(sys, sys.u_min), equilibrium(sys, sys.u_max)
    dx = float(np.linalg.norm(e_max - e_min)) / 64.0
    anchors = np.vstack([e_min, e_max, start])
    c = anchors.mean(axis=0)
    hs = max(float(np.abs(anchors - c).max()) * 3.0, 10.0 * dx)
    spec = default_grid_spec(sys, start)
    assert spec.bounds == (c[0] - hs, c[0] + hs, c[1] - hs, c[1] + hs)
    assert (spec.dx, spec.dt, spec.horizon) == (dx, sys.half_period / 64.0, 10.0 * sys.half_period)
    # A start next to the equilibria leaves 10 dx around their mean.
    near = default_grid_spec(sys, 0.5 * (e_min + e_max), dx=0.5)
    assert near.bounds[1] - near.bounds[0] >= 10.0


@pytest.mark.parametrize(
    "a", [[[-1.0, -1.0], [1.0, -1.0]], [[0.0, -1.0], [1.0, 0.0]]], ids=["negative", "zero"]
)
def test_default_grid_grows_to_hold_a_far_start(a):
    sys = LinearControlSystem(a, [1.0, 0.0], -1.0, 1.0)
    inside = default_grid_spec(sys, [0.0, 0.0], dx=0.05)
    xmin, xmax, ymin, ymax = inside.bounds
    assert xmin < -0.1 and xmax > 0.1 and ymin < -0.1 and ymax > 0.1
    far = default_grid_spec(sys, [xmax + 3.0, ymin - 4.0], dx=0.05)
    if sys.trace:  # the orbit's box grows on the start's sides only
        assert far.bounds == (xmin, (xmax + 3.0) + 0.1, (ymin - 4.0) - 0.1, ymax)
    for lo, hi, x in ((far.bounds[0], far.bounds[1], xmax + 3.0), (far.bounds[2], far.bounds[3], ymin - 4.0)):
        assert lo + 0.1 <= x <= hi - 0.1


def test_grid_spec_validation(s0):
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 1.0, 0.0), 0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0.0, 1.0), -0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0.0, 1.0), 0.1, 0.1, 0.05)
    # Non-finite steps, horizons, step counts and control samples.
    for dt, horizon in ((0.1, math.inf), (0.1, math.nan), (math.nan, 1.0),
                        (math.inf, math.inf), (1e-300, 1e10)):
        with pytest.raises(ValueError):
            GridSpec((0.0, 1.0, 0.0, 1.0), 0.1, dt, horizon)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0.0, 1.0), 0.1, 0.1, 1.0, (0.0, math.nan))
    spec = GridSpec((-1.0, 1.0, -1.0, 1.0), 0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        grid_reachable_set(s0, [5.0, 5.0], spec)
    with pytest.raises(ValueError):
        grid_reachable_set(s0, [math.nan, 0.0], spec)
    # More than 2^24 cells, or a width in cells that overflows.
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0.0, 1.0), 1e-4, 0.1, 1.0)
    with pytest.raises(ValueError):
        GridSpec((-1e308, 1e308, 0.0, 1.0), 1.0, 0.1, 1.0)


@pytest.mark.parametrize("start", [(1.0, 0.5), (0.5, 1.0), (1.0, 1.0)], ids=["x", "y", "corner"])
def test_source_on_the_upper_edge_is_outside_the_half_open_box(start):
    sys = LinearControlSystem([[-0.1, -1.0], [1.0, -0.1]], [0.0, 1.0], -1.0, 1.0)
    spec = GridSpec((0.0, 1.0, 0.0, 1.0), 0.25, 0.1, 0.5)
    assert spec.shape == (4, 4)
    with pytest.raises(ValueError, match="half-open"):
        grid_reachable_set(sys, start, spec)
    # The lower edges and the last float below each upper edge are inside.
    below = np.nextafter(1.0, 0.0)
    for inside in ((0.0, 0.0), (below, 0.5), (0.5, below), (below, below)):
        reach = grid_reachable_set(sys, inside, spec)
        assert reach.contains([inside])[0]


def test_sweep_memory_is_the_marks_and_frontier_sized_scratch():
    # 256 x 256 cells, about a sixth of them reached in three half periods.
    # The subcell marks and the occupancy take 17 bytes per cell; the rest
    # of the traced peak is scratch that grows with the frontier.  Scratch
    # sized by the grid (float arrays per subcell) would read several
    # hundred bytes per cell.
    sys = LinearControlSystem([[-0.2, -1.0], [1.0, -0.2]], [0.0, 1.0], -1.0, 1.0)
    half = sys.half_period
    spec = GridSpec((-6.0, 6.0, -6.0, 6.0), 12.0 / 256, half / 16.0, 3.0 * half)
    tracemalloc.start()
    try:
        reach = grid_reachable_set(sys, [0.0, 0.0], spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reach.occupied_count() > 10_000
    assert peak <= 64 * 256 * 256


def test_distance_bound_direct_case(s0):
    # A single concrete contraction instance, checked directly.
    boundary = periodic_orbit(s0, 4096).polyline()
    v = np.array([2.0, 2.0])
    moved = flow(s0, 1.0, v, 0.0)
    d0, d1 = polyline_distance([v, moved], boundary)
    assert d1 <= math.exp(-1.0) * d0 + 1e-6


def test_distance_bound_interior_point_trivial(s0):
    region = build_orbit_region(s0)
    assert region.exterior_distance([0.0, 0.0]) == 0.0


def test_distance_bound_report_no_violations(s0):
    violations, worst_contraction, worst_expansion = distance_bound_slack(
        s0, samples=400, rng=np.random.default_rng(5)
    )
    assert violations == 0
    assert worst_contraction <= 0.0
    assert worst_expansion <= 0.0


def test_distance_bound_random_normal_systems():
    rng = np.random.default_rng(127)
    for _ in range(5):
        sys = random_normal_system(rng, trace_sign=int(rng.choice([-1, 1])))
        violations, _, _ = distance_bound_slack(
            sys, samples=150, rng=rng, samples_per_arc=2048
        )
        assert violations == 0
