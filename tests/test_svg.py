"""SVG rendering: byte-identical to the per-point formatter it replaced."""

import numpy as np

from planarcontrol.geometry import build_orbit_region
from planarcontrol.oracle import default_grid_spec, grid_reachable_set
from planarcontrol.planner import reach_plan
from planarcontrol.svg import _COLORS, render_svg
from planarcontrol.system import LinearControlSystem, equilibrium, simulate


def _render_svg_per_point(polylines, markers=(), size=640):
    """Reference renderer: each coordinate transformed and formatted one
    numpy scalar at a time."""

    def fmt(x):
        return f"{x:.6g}"

    polys = [np.atleast_2d(np.asarray(p, dtype=float)) for p in polylines]
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
    for i, poly in enumerate(polys):
        pts = " ".join(f"{fmt(sx(p[0]))},{fmt(sy(p[1]))}" for p in poly)
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{_COLORS[i % len(_COLORS)]}" '
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
    region = build_orbit_region(sys, samples_per_arc=64)
    target = 0.6 * region.p_plus + 0.4 * region.p_minus
    plan = reach_plan(sys, target, 1e-9, region=region)
    traj = simulate(sys, plan.start, plan.schedule).dense_states
    spec = default_grid_spec(sys, dx=0.15, dt=0.2, horizon=4.0)
    start = equilibrium(sys, 0.5 * (sys.u_min + sys.u_max))
    cells = grid_reachable_set(sys, start, spec).occupied_points()
    markers = [region.p_plus, region.p_minus, equilibrium(sys, sys.u_min), target]
    return region.boundary, traj, cells, markers


def test_render_svg_matches_per_point_reference():
    boundary, traj, cells, markers = _layers()
    assert (boundary < 0.0).any() and (boundary > 0.0).any()
    for polylines, marks in (
        ([boundary], ()),
        ([boundary, traj], markers),
        ([cells], list(cells[::7])),
        ([boundary, traj, cells], markers + list(cells[:3])),
        ([traj[:1]], markers[:1]),  # one-point viewport: the 1e-9 pad
        ([[[-3.25, 1e-7], [2.5e6, -0.0]]], [np.array([-1e-12, 7.0])]),
    ):
        assert render_svg(polylines, marks) == _render_svg_per_point(polylines, marks)

