"""SVG rendering: byte-identical to a per-point formatter, and exact arcs
drawn as cubic pieces within their stated bound."""

import math

import numpy as np
import pytest

from planarcontrol import svg
from planarcontrol.controlset import periodic_orbit
from planarcontrol.geometry import build_orbit_region
from planarcontrol.oracle import default_grid_spec, grid_reachable_set
from planarcontrol.planner import reach_plan
from planarcontrol.svg import _COLORS, BezierPath, bezier_path, render_svg
from planarcontrol.system import LinearControlSystem, equilibrium, flow, segment_endpoints, simulate

from conftest import spiral_drift


def _render_svg_per_point(layers, markers=(), size=640):
    """Reference renderer: each coordinate transformed and formatted one
    numpy scalar at a time."""

    def fmt(x):
        return f"{x:.6g}"

    paths = [isinstance(p, BezierPath) for p in layers]
    polys = [np.atleast_2d(np.asarray(p.points if c else p, dtype=float)) for p, c in zip(layers, paths)]
    fit = polys[0]
    xmin, xmax = float(fit[:, 0].min()), float(fit[:, 0].max())
    ymin, ymax = float(fit[:, 1].min()), float(fit[:, 1].max())
    pad_x = 0.1 * max(xmax - xmin, 1e-9)
    pad_y = 0.1 * max(ymax - ymin, 1e-9)
    xmin, xmax = xmin - pad_x, xmax + pad_x
    ymin, ymax = ymin - pad_y, ymax + pad_y
    scale = size / max(xmax - xmin, ymax - ymin)

    def sx(x):
        return (x - xmin) * scale

    def sy(y):
        return (ymax - y) * scale

    w = (xmax - xmin) * scale
    h = (ymax - ymin) * scale
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(w)}" '
        f'height="{fmt(h)}" viewBox="0 0 {fmt(w)} {fmt(h)}">',
        f'<rect width="{fmt(w)}" height="{fmt(h)}" fill="white"/>',
    ]
    stroke_w = fmt(size / 320.0)
    for i, (poly, is_path) in enumerate(zip(polys, paths)):
        pts = [f"{fmt(sx(p[0]))},{fmt(sy(p[1]))}" for p in poly]
        if is_path:
            head = f'<path d="M{pts[0]}' + (" C" + " ".join(pts[1:]) if len(pts) > 1 else "") + '"'
        else:
            head = f'<polyline points="{" ".join(pts)}"'
        lines.append(
            f'{head} fill="none" stroke="{_COLORS[i % len(_COLORS)]}" '
            f'stroke-width="{stroke_w}"/>'
        )
    radius = fmt(size / 160.0)
    for j, pt in enumerate(markers):
        color = _COLORS[(len(polys) + j) % len(_COLORS)]
        lines.append(
            f'<circle cx="{fmt(sx(float(pt[0])))}" cy="{fmt(sy(float(pt[1])))}" '
            f'r="{radius}" fill="{color}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _layers():
    """Boundary, trajectory and occupancy layers of a system whose geometry
    straddles both axes, so coordinates of both signs are formatted."""
    sys = LinearControlSystem([[-0.4, -1.3], [0.9, -0.2]], [0.7, -1.1], -2.3, 0.6)
    region = build_orbit_region(sys)
    target = 0.6 * region.p_plus + 0.4 * region.p_minus
    plan = reach_plan(sys, target, 1e-9)
    traj = simulate(sys, plan.start, plan.schedule).dense_states
    start = equilibrium(sys, 0.5 * (sys.u_min + sys.u_max))
    spec = default_grid_spec(sys, start, dx=0.15, dt=0.2, horizon=4.0)
    cells = grid_reachable_set(sys, start, spec).occupied_points()
    markers = [region.p_plus, region.p_minus, equilibrium(sys, sys.u_min), target]
    return periodic_orbit(sys, 64).polyline(), traj, cells, markers


def test_render_svg_matches_per_point_reference():
    boundary, traj, cells, markers = _layers()
    assert (boundary < 0.0).any() and (boundary > 0.0).any()
    sys = LinearControlSystem([[-0.4, -1.3], [0.9, -0.2]], [0.7, -1.1], -2.3, 0.6)
    region = build_orbit_region(sys)
    half = sys.half_period
    arcs = bezier_path(sys, region.p_plus, ((sys.u_min, half), (sys.u_max, half)))
    start = BezierPath(arcs.points[:1])  # no piece: a bare moveto
    for layers, marks in (
        ([boundary], ()),
        ([boundary, traj], markers),
        ([cells], list(cells[::7])),
        ([boundary, traj, cells], markers + list(cells[:3])),
        ([traj[:1]], markers[:1]),  # one-point viewport: the 1e-9 pad
        ([[[-3.25, 1e-7], [2.5e6, -0.0]]], [np.array([-1e-12, 7.0])]),
        ([arcs, traj, cells], markers + list(cells[::5])),  # colours cycle 6 times
        ([boundary, arcs, start], markers),
        ([start], ()),
    ):
        assert render_svg(layers, marks) == _render_svg_per_point(layers, marks)


def test_render_svg_needs_a_polyline():
    with pytest.raises(ValueError):
        render_svg([])


def _awkward_values():
    """Signed zeros, infinities, NaN, subnormals, the largest and smallest
    normals, values at the 6-digit rounding edge, and random floats over
    every decade."""
    special = [
        0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
        -2.225073858507201e-308, 1.7976931348623157e308, 999999.5, 9999995.0, 0.00012345650,
        1e-5, 123456.5, -1e16, 640.0, 0.1,
    ]
    rng = np.random.default_rng(5)
    decades = rng.uniform(-320.0, 308.0, 400)
    randoms = (rng.choice([-1.0, 1.0], 400) * 10.0**decades).tolist()
    return special + randoms


def test_one_format_call_matches_the_per_point_format():
    vals = _awkward_values()
    pairs = list(zip(vals, vals[1:] + vals[:1]))
    flat = tuple(x for pair in pairs for x in pair)
    joined = " ".join(["%.6g,%.6g"] * len(pairs)) % flat
    assert joined == " ".join(f"{x:.6g},{y:.6g}" for x, y in pairs)


def test_render_svg_formats_awkward_coordinates_like_the_reference():
    # The first polyline fixes a finite viewport; the overlay and the markers
    # carry the awkward values through the screen transform (finite ones
    # below 1e300, so the transform itself does not overflow).
    vals = [x for x in _awkward_values() if not abs(x) > 1e300 or math.isinf(x)]
    overlay = np.array(list(zip(vals, vals[::-1])))
    box = [[-1.0, -2.0], [3.0, 0.5], [0.0, 4.0]]
    markers = [overlay[i] for i in range(0, 18, 2)]
    assert render_svg([box, overlay], markers) == _render_svg_per_point([box, overlay], markers)


def _bezier(points, t):
    """Cubic Bézier pieces (3n + 1, 2) at parameters t in [0, 1]: (n, len(t), 2)."""
    p0, p1, p2, p3 = points[:-1:3], points[1::3], points[2::3], points[3::3]
    t = t[:, None]
    r = 1.0 - t
    return (r**3 * p0[:, None] + 3.0 * r * r * t * p1[:, None]
            + 3.0 * r * t * t * p2[:, None] + t**3 * p3[:, None])


@pytest.mark.parametrize("skewed", [False, True], ids=["normal", "skewed"])
@pytest.mark.parametrize("ratio", [0.0, 0.05, 0.4, 3.0, -0.05, -0.4, -3.0])
def test_bezier_path_stays_within_the_stated_bound(ratio, skewed):
    sys = LinearControlSystem(spiral_drift(ratio, skewed), [0.4, -0.7], -1.2, 0.9)
    if skewed:
        assert np.linalg.cond(sys.canonical.basis) > 50.0
    half = sys.half_period
    # Both extreme half turns, an arc under an interior control, a
    # zero-duration segment, a short arc and two and a half turns.
    schedule = [(sys.u_min, half), (sys.u_max, half), (0.0, 0.37 * half),
                (sys.u_max, 0.0), (sys.u_max, 1e-3 * half), (sys.u_min, 2.5 * half)]
    points = bezier_path(sys, [0.3, 0.2], schedule).points
    segs, _, states = segment_endpoints(sys, [0.3, 0.2], schedule)
    lam = sys.canonical.lam
    t = np.linspace(0.0, 1.0, 65)
    first = 0
    for i, (u, dt) in enumerate((u, dt) for u, dt in segs if dt != 0.0):
        n = max(1, math.ceil(dt * abs(lam) / svg._TURN))
        arc = points[3 * first : 3 * (first + n) + 1]
        first += n
        # The dense exact flow at the pieces' parameters s = s0 + t h.
        h = dt / n
        s = (np.arange(n)[:, None] + t) * h
        exact = flow(sys, s.ravel(), states[i], u).reshape(n, len(t), 2)
        # Each coordinate's largest amplitude about v(u) on the arc.
        w = states[i] + u * sys.inv_a_eta
        amplitude = np.hypot(w, sys.canonical.generator @ w) * max(1.0, math.exp(lam.real * dt))
        deviation = np.abs(_bezier(arc, t) - exact).max(axis=(0, 1))
        rounding = 1e-13 * (np.abs(exact).max(axis=(0, 1)) + amplitude)
        assert np.all(deviation <= svg._TOL * amplitude + rounding), (i, deviation / amplitude)
        assert np.array_equal(arc[0], states[i]) and np.array_equal(arc[-1], states[i + 1])
    assert len(points) == 3 * first + 1


def test_bezier_path_piece_count_in_the_svg_path():
    # A zero-trace half turn takes 16 pieces, and so does a ratio-k turn of
    # rotation pi / sqrt(1 + k^2); each piece adds three points after M.
    assert svg._TURN * 16 >= math.pi > svg._TURN * 15
    for ratio, turns, pieces in ((0.0, 1.0, 16), (0.0, 2.5, 40), (0.4, 1.0, 18), (-3.0, 1.0, 51)):
        sys = LinearControlSystem(spiral_drift(ratio, False), [0.4, -0.7], -1.2, 0.9)
        path = bezier_path(sys, [0.3, 0.2], [(sys.u_min, turns * sys.half_period)])
        assert math.ceil(turns * math.pi * math.hypot(1.0, ratio) / svg._TURN) == pieces
        text = render_svg([path])
        d = text.split('<path d="')[1].split('"')[0]
        head, tail = d.split(" C")
        assert head.startswith("M") and len(tail.split()) == 3 * pieces
    # 4,096 zero-trace half turns, each its own arc, take the most pieces a
    # path may take.
    sys = LinearControlSystem(spiral_drift(0.0, False), [0.4, -0.7], -1.2, 0.9)
    schedule = [((sys.u_min, sys.u_max)[i % 2], sys.half_period) for i in range(4096)]
    assert bezier_path(sys, [0.3, 0.2], schedule).points.shape == (3 * 65536 + 1, 2)


@pytest.mark.parametrize("arcs, turns", [(4097, 1.0), (1, 1e300)], ids=["many-arcs", "one-huge-arc"])
def test_bezier_path_refuses_an_unbounded_drawing_before_any_piece(monkeypatch, arcs, turns):
    # 4,097 zero-trace half turns take 65,552 pieces; a contracting arc of
    # 1e300 turns ends on its equilibrium, but would take about 1.6e301.
    sys = LinearControlSystem(spiral_drift(0.0 if arcs > 1 else -0.4, False), [0.4, -0.7], -1.2, 0.9)
    schedule = [((sys.u_min, sys.u_max)[i % 2], turns * sys.half_period) for i in range(arcs)]

    def no_piece(*args, **kwargs):
        raise AssertionError("a piece was computed")

    monkeypatch.setattr(svg, "flow", no_piece)
    with pytest.raises(ValueError, match="cubic pieces, more than 65536"):
        bezier_path(sys, [0.3, 0.2], schedule)
