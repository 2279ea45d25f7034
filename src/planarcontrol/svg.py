"""Minimal SVG rendering of polylines, exact arcs and markers, no external renderer.

A layer is a polyline, an (n, 2) array drawn as one ``<polyline>``, or a
:class:`BezierPath`, drawn as one ``<path d="M… C…">``.  The viewport is
fitted to the bounding box of the first layer's points (a path's control
points) plus a 10% pad.  A cubic piece lies in the convex hull of its four
control points, so the first layer is never clipped; overlays (trajectories,
occupancy dots) may extend past it.  Output is a pure function of the inputs,
so identical geometry yields identical bytes.

:func:`bezier_path` draws the exact arcs of a piecewise-constant schedule.
On one arc x(s) = v(u) + e^{sA}(x0 - v(u)), so x' = A(x - v(u)) and
x'''' = A^4(x - v(u)).  Each piece of duration h is the cubic Hermite
interpolant of x and x' at its ends s0 and s1 = s0 + h, with control points

    P0 = x(s0),  P1 = P0 + h/3 x'(s0),  P2 = P3 - h/3 x'(s1),  P3 = x(s1),

and the Bézier parameter t in [0, 1] read as s = s0 + t h.  Per coordinate
the Hermite remainder is at most h^4/384 sup |x_i''''| on the piece.  Writing
w = x0 - v(u), N the drift's generator and lam = a + ib its eigenvalue,
x_i(s) - v_i(u) = e^{as} r_i cos(bs - phi_i) with amplitude r_i =
hypot(w_i, (N w)_i), and A^4 = Re(lam^4) I + Im(lam^4) N turns that pair by a
fixed angle, so |x_i''''(s)| <= |lam|^4 e^{as} r_i.  Pieces of equal duration
with h |lam| <= (384 tol)^(1/4) therefore keep every coordinate within
tol = 4e-6 of R_i = max(1, e^{aT}) r_i, its largest amplitude on the arc of
duration T.  A zero-trace half turn takes 16 pieces.
"""

import math
from dataclasses import dataclass

import numpy as np

from .system import LinearControlSystem, flow, segment_endpoints

__all__ = ["BezierPath", "bezier_path", "render_svg"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Deviation of a drawn arc per coordinate, as a share of its amplitude, and
# the rotation h |lam| of one piece that the Hermite remainder allows for it.
_TOL = 4e-6
_TURN = (384.0 * _TOL) ** 0.25
# Most cubic pieces one path may take: 4,096 zero-trace half turns, 3 MB of
# SVG text.
_MAX_PIECES = 1 << 16


def _fmt(x: float) -> str:
    return f"{x:.6g}"


@dataclass(frozen=True)
class BezierPath:
    """A chain of cubic Bézier pieces: ``points`` (3n + 1, 2) holds P0, then
    P1, P2 and P3 of each piece in turn (a piece's P3 is the next one's P0)."""

    points: np.ndarray


def bezier_path(sys: LinearControlSystem, v0, schedule) -> BezierPath:
    """The exact arcs of a ``(u, dt)`` schedule from ``v0`` as cubic pieces.

    Every arc of nonzero duration T takes max(1, ceil(T |lam| / (384 tol)^(1/4)))
    pieces of equal duration (module docstring); the piece ends are flowed
    from the arc's start in one vectorised closed-form call, and each arc
    starts and ends on the exact endpoints of :func:`segment_endpoints`.

    Raises
    ------
    InvalidControl, ValueError
        As :func:`segment_endpoints`.  Also ValueError if the path would take
        more than 2^16 pieces, checked before any piece is computed.
    """
    segs, _, states = segment_endpoints(sys, v0, schedule)
    arcs = [(u, dt) for u, dt in segs if dt != 0.0]
    dts = np.array([dt for _, dt in arcs])
    # Pieces per arc, counted in floats: a long arc's count may be infinite.
    with np.errstate(over="ignore"):
        counts = np.maximum(1.0, np.ceil(dts * (abs(sys.canonical.lam) / _TURN)))
    total = float(counts.sum())
    if total > _MAX_PIECES:
        raise ValueError(f"drawing needs {total:.17g} cubic pieces, more than {_MAX_PIECES}")
    if not arcs:
        return BezierPath(states.copy())
    counts = counts.astype(np.int64)
    n = int(counts.sum())
    arc = np.repeat(np.arange(len(arcs)), counts)  # the arc of each piece
    first = np.cumsum(counts) - counts  # each arc's first piece
    h = (dts / counts)[arc]
    u = np.array([u for u, _ in arcs])[arc]
    knots = np.empty((n + 1, 2))
    knots[:-1] = flow(sys, (np.arange(n) - first[arc]) * h, states[arc], u)
    knots[first] = states[:-1]
    knots[-1] = states[-1]
    # Slopes x' = A (x - v(u)) at both ends of each piece, under its control.
    (a00, a01), (a10, a11) = sys.a.tolist()
    ix, iy = sys.inv_a_eta.tolist()
    third = h / 3.0
    points = np.empty((3 * n + 1, 2))
    points[0::3] = knots
    for at, end, sign in ((1, knots[:-1], 1.0), (2, knots[1:], -1.0)):
        wx, wy = end[:, 0] + u * ix, end[:, 1] + u * iy
        points[at::3, 0] = end[:, 0] + sign * third * (a00 * wx + a01 * wy)
        points[at::3, 1] = end[:, 1] + sign * third * (a10 * wx + a11 * wy)
    return BezierPath(points)


def render_svg(layers, markers=()) -> str:
    """Render layers and marker points to SVG.

    Each layer is an (n, 2) array-like, drawn as a polyline, or a
    :class:`BezierPath`.  The first layer defines the fitted viewport, 640
    units across.  Markers are (2,) points drawn as small circles.
    """
    layers = [
        layer if isinstance(layer, BezierPath) else np.atleast_2d(np.asarray(layer, dtype=float))
        for layer in layers
    ]
    if not layers:
        raise ValueError("render_svg needs at least one layer")
    fit = layers[0].points if isinstance(layers[0], BezierPath) else layers[0]
    xmin, xmax = float(fit[:, 0].min()), float(fit[:, 0].max())
    ymin, ymax = float(fit[:, 1].min()), float(fit[:, 1].max())
    pad_x = 0.1 * max(xmax - xmin, 1e-9)
    pad_y = 0.1 * max(ymax - ymin, 1e-9)
    xmin, xmax = xmin - pad_x, xmax + pad_x
    ymin, ymax = ymin - pad_y, ymax + pad_y
    size = 640
    scale = size / max(xmax - xmin, ymax - ymin)

    def screen(points):
        """Points (n, 2) in SVG coordinates, as one flat tuple of floats."""
        x = (points[:, 0] - xmin) * scale
        y = (ymax - points[:, 1]) * scale  # flip: SVG y axis points down
        return tuple(np.column_stack([x, y]).ravel().tolist())

    w = (xmax - xmin) * scale
    h = (ymax - ymin) * scale
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<rect width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>',
    ]
    stroke = f'fill="none" stroke="%s" stroke-width="{_fmt(size / 320.0)}"/>'
    # One % operation per layer and one for all markers; "%.6g" % x is
    # f"{x:.6g}" for floats.
    for i, layer in enumerate(layers):
        color = _COLORS[i % len(_COLORS)]
        if isinstance(layer, BezierPath):
            n = len(layer.points)
            d = "M%.6g,%.6g" + (" C" + " ".join(["%.6g,%.6g"] * (n - 1)) if n > 1 else "")
            lines.append(f'<path d="{d % screen(layer.points)}" {stroke % color}')
        else:
            pts = " ".join(["%.6g,%.6g"] * len(layer)) % screen(layer)
            lines.append(f'<polyline points="{pts}" {stroke % color}')
    centres = np.asarray(markers, dtype=float).reshape(-1, 2)
    if len(centres):
        radius = _fmt(size / 160.0)
        # Marker j takes colour (number of layers + j) modulo the palette.
        shift = len(layers) % len(_COLORS)
        palette = _COLORS[shift:] + _COLORS[:shift]
        circles = [f'<circle cx="%.6g" cy="%.6g" r="{radius}" fill="{c}"/>' for c in palette]
        rows = (circles * (len(centres) // len(circles) + 1))[: len(centres)]
        lines.append("\n".join(rows) % screen(centres))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
