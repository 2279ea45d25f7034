"""Minimal SVG rendering of polylines and markers, no external renderer.

The viewport is fitted to the first polyline's bounding box plus a 10% pad;
overlays (trajectories, occupancy dots) may extend past it.  Output is a pure
function of the inputs, so identical geometry yields identical bytes.
"""

import numpy as np

__all__ = ["render_svg"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_svg(polylines, markers=(), size: int = 640) -> str:
    """Render polylines (iterable of (n, 2) arrays) and marker points to SVG.

    The first polyline defines the fitted viewport.  Markers are (2,) points
    drawn as small circles.
    """
    polys = [np.atleast_2d(np.asarray(p, dtype=float)) for p in polylines]
    if not polys:
        raise ValueError("render_svg needs at least one polyline")
    fit = polys[0]
    xmin, xmax = float(fit[:, 0].min()), float(fit[:, 0].max())
    ymin, ymax = float(fit[:, 1].min()), float(fit[:, 1].max())
    pad_x = 0.1 * max(xmax - xmin, 1e-9)
    pad_y = 0.1 * max(ymax - ymin, 1e-9)
    xmin, xmax = xmin - pad_x, xmax + pad_x
    ymin, ymax = ymin - pad_y, ymax + pad_y
    span = max(xmax - xmin, ymax - ymin)
    scale = size / span

    def screen(points):
        """Points (n, 2) in SVG coordinates, as Python floats, row by row."""
        x = (points[:, 0] - xmin) * scale
        y = (ymax - points[:, 1]) * scale  # flip: SVG y axis points down
        return np.column_stack([x, y]).tolist()

    w = (xmax - xmin) * scale
    h = (ymax - ymin) * scale
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<rect width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>',
    ]
    stroke_w = _fmt(size / 320.0)
    for i, poly in enumerate(polys):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{x:.6g},{y:.6g}" for x, y in screen(poly))
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke_w}"/>'
        )
    radius = _fmt(size / 160.0)
    centres = screen(np.asarray(markers, dtype=float).reshape(-1, 2))
    for j, (cx, cy) in enumerate(centres):
        color = _COLORS[(len(polys) + j) % len(_COLORS)]
        lines.append(
            f'<circle cx="{cx:.6g}" cy="{cy:.6g}" r="{radius}" fill="{color}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
