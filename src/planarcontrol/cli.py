"""Command-line frontend: parse a system config, run analyses, emit artifacts.

Subcommands: analyze, orbit, member, plan, reach, sweep, one entry each in
``_COMMANDS`` (help text and function).  The config, a single JSON document,
is the only input of a run: the command line adds just the output directory
(``--out``) and an optional SVG path (``--svg``), and no environment variable
is read.  Each config field is described once, in ``_FIELDS``: its path, its
:class:`SystemConfig` attribute, its shape and its range.  Outputs are
JSON/CSV files written atomically plus the optional SVG; floats are written
as the shortest round-trip decimal so reruns are byte-identical, and no JSON
text holds ``Infinity`` or ``NaN``.

A command reads only what it needs.  The region is built once for a nonzero
trace; analyze (whose checks read it) and orbit (whose CSV writes it) each
sample one orbit at ``samples`` points per arc, and no other command samples
any.  The report's ``orbit_samples`` is the length of that polyline, 0 if
none.  The SVG draws every arc (the boundary's half turns, each plan
segment) as exact cubic pieces (:func:`planarcontrol.svg.bezier_path`).

:func:`run` is the one place where a ``ValueError`` (data that floats cannot
carry) or :class:`~planarcontrol.errors.NotComplexSpectrum` becomes a
:class:`~planarcontrol.errors.ValidationError`; no file is written before
it has built every output.  Exit codes: 0 success; 2 config or system
validation failure; 3 planner failure; 4 I/O failure.
"""

import argparse
import functools
import json
import math
import os
import sys as _sys
from dataclasses import dataclass

import numpy as np

from .controlset import (
    BoundaryOrbit,
    Classification,
    classify,
    periodic_orbit,
    sweep_control_ranges,
)
from .errors import (
    EpsilonTooSmall,
    InvalidControl,
    NoIntersectionFound,
    NotComplexSpectrum,
    ParseError,
    PreconditionViolated,
    TargetNotInterior,
    TraceNotZero,
    TraceZero,
    ValidationError,
)
from .geometry import build_orbit_region, line_order_coordinates
from .oracle import ReachSet, default_grid_spec, grid_reachable_set
from .planner import hop_plan, reach_plan
from .svg import bezier_path, render_svg
from .system import LinearControlSystem, equilibrium, flow

__all__ = ["SystemConfig", "main", "parse_config", "run"]

_PLANNER_ERRORS = (
    TargetNotInterior,
    EpsilonTooSmall,
    NoIntersectionFound,
    TraceNotZero,
    InvalidControl,
    PreconditionViolated,
)


@dataclass
class SystemConfig:
    """Validated contents of a config document."""

    a: np.ndarray
    eta: np.ndarray
    u_min: float
    u_max: float
    samples: int = 256
    epsilon: float = 1e-4
    seed: int = 0
    # None: a share of the system's own sizes (oracle.default_grid_spec).
    dx: float | None = None
    dt: float | None = None
    horizon: float | None = None
    bounds: tuple | None = None
    point: np.ndarray | None = None
    start: np.ndarray | None = None
    u0: float | None = None
    target: np.ndarray | None = None
    sweep_nu: float | None = None
    sweep_grid: list | None = None


# Each shape a field may take, named as an error names it: the array shape
# it needs (None: any length but 0) and how its value is stored.
_SHAPES = {
    "a number": ((), float),
    "an integer": ((), int),
    "a pair of numbers": ((2,), np.asarray),
    "a 2x2 matrix": ((2, 2), np.asarray),
    "[xmin, xmax, ymin, ymax]": ((4,), lambda x: tuple(x.tolist())),
    "a list of [alpha, rho]": ((None, 2), lambda x: [tuple(p) for p in x.tolist()]),
}

_POSITIVE = ("positive", lambda v: v > 0.0)

# Every config field: its path ("grid.dx" is key "dx" of the object "grid"),
# its SystemConfig attribute (None: read by a rule after the loop), its
# shape and its range rule (None: any finite value).
_FIELDS = {
    "a": ("a", "a 2x2 matrix", None),
    "eta": ("eta", "a pair of numbers", None),
    "omega": (None, "a pair of numbers", None),
    "samples": ("samples", "an integer", ("from 16 to 2^20", lambda v: 16 <= v <= 1 << 20)),
    "epsilon": ("epsilon", "a number", _POSITIVE),
    "seed": ("seed", "an integer", ("nonnegative", lambda v: v >= 0)),
    "u0": ("u0", "a number", None),
    "grid.dx": ("dx", "a number", _POSITIVE),
    "grid.dt": ("dt", "a number", _POSITIVE),
    "grid.horizon": ("horizon", "a number", _POSITIVE),
    "grid.bounds": ("bounds", "[xmin, xmax, ymin, ymax]", None),
    "point": ("point", "a pair of numbers", None),
    "start": ("start", "a pair of numbers", None),
    "target": ("target", "a pair of numbers", None),
    "sweep.nu": ("sweep_nu", "a number", None),
    "sweep.grid": ("sweep_grid", "a list of [alpha, rho]", None),
}
_GROUPS = {path.split(".")[0] for path in _FIELDS if "." in path}


def _field(path: str, value):
    """``value`` checked against the row of ``path`` in ``_FIELDS`` and stored
    as its shape says.  Only JSON numbers are numbers here: not strings or
    booleans, nor the ``Infinity`` and ``NaN`` literals that ``json`` reads.
    The value is walked one level per dimension of the shape, so any
    nesting deeper than that is rejected without recursion."""
    if path not in _FIELDS:  # a misspelled key would leave its field at the default
        raise ValidationError(f"unknown field '{path}'")
    _, shape, rule = _FIELDS[path]
    dims, store = _SHAPES[shape]
    items = [value]
    for n in dims:
        if not all(isinstance(x, list) and (len(x) == n if n else bool(x)) for x in items):
            raise ValidationError(f"field '{path}' must be {shape}")
        items = [y for x in items for y in x]
    if not all(type(x) in (int, float) for x in items):  # bool is a subclass of int
        raise ValidationError(f"field '{path}' must be {shape}")
    if not all(abs(x) <= _sys.float_info.max for x in items):  # also an int no float holds
        raise ValidationError(f"field '{path}' must hold finite numbers")
    x = np.asarray(value, dtype=float)
    if shape == "an integer" and not float(x).is_integer():
        raise ValidationError(f"field '{path}' must be {shape}")
    value = store(x)
    if rule is not None and not rule[1](value):
        raise ValidationError(f"field '{path}' must be {rule[0]}")
    return value


def parse_config(text: str | bytes) -> SystemConfig:
    """Parse and validate a config document, text or its UTF-8 bytes: each
    field against its row of ``_FIELDS``, then the rules that relate fields.

    Raises
    ------
    ParseError
        If the bytes are not UTF-8, or the text is not well-formed JSON or
        nests too deep for ``json`` to read.
    ValidationError
        Naming the first violated invariant otherwise.
    """
    try:
        doc = json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    if "tau_grid" in doc:
        raise ValidationError("field 'tau_grid' was removed: membership is exact")
    if "a" in doc and "A" in doc:
        raise ValidationError("fields 'a' and 'A' name the same matrix: give one")
    values = {}
    for key, value in doc.items():
        if key in _GROUPS:
            if not isinstance(value, dict):
                raise ValidationError(f"field '{key}' must be an object")
            for sub, v in value.items():
                values[f"{key}.{sub}"] = _field(f"{key}.{sub}", v)
        elif "." in key:  # a path names a field only inside its object
            raise ValidationError(f"unknown field '{key}'")
        else:
            key = "a" if key == "A" else key  # "A" is an alias of "a"
            values[key] = _field(key, value)
    for key in ("a", "eta", "omega"):
        if key not in values:
            raise ValidationError(f"missing required field '{key}'")
    if not values["eta"].any():
        raise ValidationError("eta must be nonzero")
    u_min, u_max = values.pop("omega").tolist()
    if not u_min < u_max:
        raise ValidationError("u- < u+ required")
    if "sweep" in doc and not {"sweep.nu", "sweep.grid"} <= values.keys():
        raise ValidationError("field 'sweep' must carry 'nu' and 'grid'")
    return SystemConfig(
        u_min=u_min, u_max=u_max, **{_FIELDS[path][0]: v for path, v in values.items()}
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_default(obj):
    """numpy arrays and scalars, which ``json`` cannot encode, as Python values."""
    return obj.tolist()


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _json_text(payload: dict) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
    return text + "\n"


def _csv_text(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(cells) for cells in rows)
    return "\n".join(lines) + "\n"


def _cell_rows(reach: ReachSet):
    """CSV fields (x, y) of each occupied cell centre, in ``occupied_points`` order.

    A centre's x depends only on its column and its y only on its row, so
    each of the nx column and ny row centres is formatted once.
    """
    ny, nx = reach.spec.shape
    index = np.arange(max(nx, ny))
    centres = reach.spec.centers_of(index, index)
    xs = [_fmt(x) for x in centres[:nx, 0].tolist()]
    ys = [_fmt(y) for y in centres[:ny, 1].tolist()]
    rows, cols = np.nonzero(reach.occupancy)
    return ((xs[c], ys[r]) for r, c in zip(rows.tolist(), cols.tolist()))


def _check(name: str, passed: bool, margin: float) -> dict:
    return {"name": name, "passed": bool(passed), "margin": float(margin)}


def _analysis_checks(region, poly: np.ndarray, seed: int) -> list[dict]:
    """Checks of ``region`` and ``poly``, its sampled boundary polyline."""
    work = region.work_system
    half = work.half_period
    scale = region.scale
    # Rounding in original coordinates grows with their magnitude, which a
    # control range far from zero makes large next to the scale.  The
    # residuals stay within about 2 ulps of that magnitude; the second term
    # allows 45.  Norms are hypot, not a sum of squares, which overflows for
    # coordinates near the float limit.
    magnitude = max(math.hypot(*region.p_plus), math.hypot(*region.p_minus))
    closure_tol = 1e-9 * scale + 1e-14 * magnitude
    res_minus = math.hypot(*(flow(work, half, region.p_plus, work.u_min) - region.p_minus))
    res_plus = math.hypot(*(flow(work, half, region.p_minus, work.u_max) - region.p_plus))
    closure = math.hypot(*(poly[0] - poly[-1]))
    coords = line_order_coordinates(region)
    order_vals = [coords["p_minus"], coords["v_u_min"], coords["v_u_max"], coords["p_plus"]]
    order_margin = min(b - a for a, b in zip(order_vals, order_vals[1:]))
    rng = np.random.default_rng(seed)
    xmin, xmax = poly[:, 0].min(), poly[:, 0].max()
    ymin, ymax = poly[:, 1].min(), poly[:, 1].max()
    pts = np.stack(
        [rng.uniform(xmin, xmax, 800), rng.uniform(ymin, ymax, 800)], axis=1
    )
    inside = pts[region.margins_many(pts) > 0.0][:200]
    worst = 0.0
    if len(inside):
        us = rng.uniform(work.u_min, work.u_max, len(inside))
        ss = rng.uniform(0.0, 3.0 * half, len(inside))
        worst = float(region.margins_many(flow(work, ss, inside, us)).min())
    return [
        _check("half_turn_closure_to_p_minus", res_minus < closure_tol, res_minus),
        _check("half_turn_closure_to_p_plus", res_plus < closure_tol, res_plus),
        _check("boundary_polyline_closed", closure < closure_tol, closure),
        _check("equilibrium_line_order", order_margin > 0.0, order_margin),
        _check("forward_invariance_sample", worst >= -1e-6 * scale, worst),
    ]


class _Run:
    """One run: the system and its region (built once, None at zero trace).
    A command samples at most one orbit, through :meth:`sample`, and adds to
    ``report``, ``outputs`` (name, path, text) and, under ``--svg``, to the
    SVG's ``layers`` (polylines and :class:`~planarcontrol.svg.BezierPath`)
    and ``markers``."""

    def __init__(self, command: str, cfg: SystemConfig, args):
        self.cfg, self.args = cfg, args
        self.sys = LinearControlSystem(cfg.a, cfg.eta, cfg.u_min, cfg.u_max)
        kind = classify(self.sys)
        zero = kind is Classification.CONTROLLABLE_TRACE_ZERO
        self.region = region = None if zero else build_orbit_region(self.sys)
        self.report: dict = {
            "command": command,
            "classification": kind.value,
            "p_plus": getattr(region, "p_plus", None),
            "p_minus": getattr(region, "p_minus", None),
            "orbit_samples": 0,
            "checks": [],
        }
        self.outputs: list[tuple[str, str, str]] = []
        self.layers: list = []
        self.markers: list[np.ndarray] = []

    def sample(self, system: LinearControlSystem) -> BoundaryOrbit:
        """``system``'s orbit at ``samples``; the run's only sampling, and
        the only writer of ``orbit_samples``."""
        orbit = periodic_orbit(system, self.cfg.samples)
        self.report["orbit_samples"] = len(orbit.polyline())
        return orbit

    def emit(self, name: str, text: str) -> None:
        self.outputs.append((name, os.path.join(self.args.out, name), text))


def _orbit_schedule(system: LinearControlSystem) -> tuple:
    """The boundary orbit from p_plus: one half turn under each extreme control."""
    half = system.half_period
    return ((system.u_min, half), (system.u_max, half))


def _analyze(ctx: _Run) -> None:
    if ctx.region is not None:
        orbit = ctx.sample(ctx.region.work_system)
        ctx.report["checks"] = _analysis_checks(ctx.region, orbit.polyline(), ctx.cfg.seed)
    ctx.emit("analyze.json", _json_text({**ctx.report, "files": ["analyze.json"]}))


def _orbit(ctx: _Run) -> None:
    if ctx.region is None:
        raise TraceZero("orbit subcommand needs a nonzero trace")
    sys_ = ctx.sys
    orbit = ctx.sample(sys_)
    half, n = orbit.half_period, len(orbit.arc_minus) - 1
    rows = [(_fmt(half * i / n), _fmt(x), _fmt(y), _fmt(sys_.u_min))
            for i, (x, y) in enumerate(orbit.arc_minus.tolist())]
    rows += [(_fmt(half + half * i / n), _fmt(x), _fmt(y), _fmt(sys_.u_max))
             for i, (x, y) in enumerate(orbit.arc_plus[1:].tolist(), start=1)]
    ctx.emit("orbit.csv", _csv_text("t,x,y,u", rows))


def _member(ctx: _Run) -> None:
    point = ctx.cfg.point
    if point is None:
        raise ValidationError("member subcommand needs a 'point' in the config")
    if ctx.region is None:
        verdict = {"verdict": "interior", "margin": None}
    else:
        v = ctx.region.contains(point)
        verdict = {"verdict": v.verdict.value, "margin": v.margin}
    ctx.report["member"] = verdict
    ctx.emit("member.json", _json_text({"point": point, **verdict}))
    ctx.markers.append(np.asarray(point, dtype=float))


def _plan(ctx: _Run) -> None:
    sys_, cfg = ctx.sys, ctx.cfg
    if ctx.region is None:
        if cfg.start is None:
            raise ValidationError("plan subcommand needs a 'start' in the config")
        u0 = cfg.u0 if cfg.u0 is not None else 0.5 * (sys_.u_min + sys_.u_max)
        plan = hop_plan(sys_, cfg.start, u0)
    else:
        if cfg.target is None:
            raise ValidationError("plan subcommand needs a 'target' in the config")
        plan = reach_plan(sys_, cfg.target, cfg.epsilon)
    rows = [(str(i), _fmt(u), _fmt(dt)) for i, (u, dt) in enumerate(plan.schedule)]
    ctx.emit("plan.csv", _csv_text("index,u,dt", rows))
    ctx.report["plan"] = {
        "start": plan.start,
        "goal": plan.goal,
        "endpoint": plan.endpoint,
        "endpoint_error": plan.endpoint_error,
        "hops": plan.hops,
        "time_reversed": plan.time_reversed,
    }
    ctx.emit("plan.json", _json_text(ctx.report["plan"]))
    if ctx.args.svg is not None:  # the trajectory is drawn, never written
        work = ctx.region.work_system if plan.time_reversed else sys_
        ctx.layers.append(bezier_path(work, plan.start, plan.schedule))
    ctx.markers.extend([plan.start, plan.goal])


def _reach(ctx: _Run) -> None:
    sys_, cfg = ctx.sys, ctx.cfg
    start = cfg.start
    if start is None:
        start = equilibrium(sys_, 0.5 * (sys_.u_min + sys_.u_max))
    spec = default_grid_spec(sys_, start, cfg.dx, cfg.dt, cfg.horizon, cfg.bounds)
    reach = grid_reachable_set(sys_, start, spec)
    pts = reach.occupied_points()
    ctx.emit("reach.csv", _csv_text("x,y", _cell_rows(reach)))
    ctx.report["reach"] = {
        "occupied": reach.occupied_count(),
        "spill": reach.spill_count,
        "steps": reach.steps_run,
        "bounds": list(spec.bounds),
    }
    ctx.emit("reach.json", _json_text(ctx.report["reach"]))
    if ctx.region is None:  # otherwise the boundary is the base layer
        ny, nx = spec.shape
        xmin, _, ymin, _ = spec.bounds
        xmax, ymax = xmin + nx * spec.dx, ymin + ny * spec.dx  # the grid's whole box
        ctx.layers.append([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax], [xmin, ymin]])
    ctx.markers.extend(pts[:: max(1, len(pts) // 400)])


def _sweep(ctx: _Run) -> None:
    cfg = ctx.cfg
    if cfg.sweep_nu is None:  # parse_config reads nu and the grid together
        raise ValidationError("sweep subcommand needs 'sweep.nu' and 'sweep.grid'")
    points = sweep_control_ranges(
        ctx.sys.a, ctx.sys.eta, cfg.sweep_nu, cfg.sweep_grid, samples_per_arc=cfg.samples
    )
    rows = [
        [_fmt(x) for x in (p.alpha, p.rho, *p.p_plus, *p.p_minus, p.hausdorff_prev)]
        for p in points
    ]
    header = "alpha,rho,p_plus_x,p_plus_y,p_minus_x,p_minus_y,hausdorff_prev"
    ctx.emit("sweep.csv", _csv_text(header, rows))
    ctx.report["sweep"] = {
        "points": len(points),
        "p_plus_coordinates": [p.p_plus_coordinate for p in points],
    }
    if ctx.args.svg is not None:
        for p in points[-3:]:
            system = LinearControlSystem(ctx.sys.a, ctx.sys.eta, p.alpha, p.rho)
            ctx.layers.append(bezier_path(system, p.p_plus, _orbit_schedule(system)))


# Each subcommand: its help text and the function that runs it.
_COMMANDS = {
    "analyze": ("classification, fixed points, orbit and region checks", _analyze),
    "orbit": ("CSV polyline of the periodic boundary orbit", _orbit),
    "member": ("membership verdict for a configured point", _member),
    "plan": ("trajectory plan (hop plan or reach plan by trace sign)", _plan),
    "reach": ("brute-force reachable-set occupancy CSV", _reach),
    "sweep": ("control-range sweep of the orbit family", _sweep),
}


def run(command: str, cfg: SystemConfig, args) -> dict:
    """Execute one subcommand: write its artifacts, print the run report to
    standard output and return it.

    With ``--svg`` the region's boundary and its four points (p+, p-,
    v(u_min), v(u_max)) are drawn under the command's layers and markers.
    A ValueError or NotComplexSpectrum raised before the first write (by the
    system, the command, the SVG or the report's text) becomes a
    ValidationError, so a failing run leaves no files.
    """
    try:
        ctx = _Run(command, cfg, args)
        _COMMANDS[command][1](ctx)
        if args.svg is not None:
            region, sys_ = ctx.region, ctx.sys
            if region is not None:
                work = region.work_system
                ctx.layers.insert(0, bezier_path(work, region.p_plus, _orbit_schedule(work)))
                ctx.markers[:0] = [region.p_plus, region.p_minus,
                                   equilibrium(sys_, sys_.u_min), equilibrium(sys_, sys_.u_max)]
            if not ctx.layers:
                raise ValidationError("nothing to render for this command")
            ctx.outputs.append((args.svg, args.svg, render_svg(ctx.layers, ctx.markers)))
        ctx.report["files"] = [name for name, _, _ in ctx.outputs]
        report = _json_text(ctx.report)
    except (ValueError, NotComplexSpectrum) as exc:
        raise ValidationError(str(exc)) from exc

    os.makedirs(args.out, exist_ok=True)
    for _, path, text in ctx.outputs:
        _write_text(path, text)
    print(report, end="")
    return ctx.report


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call
    (``parse_args`` leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="planarcontrol",
        description=(
            "Control sets and trajectory synthesis for planar linear control "
            "systems with complex-eigenvalue drift."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to the JSON config document")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--svg", default=None, help="also render an SVG to this path")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=_sys.stderr)
        return 4
    try:
        run(args.command, parse_config(text), args)
    except (ParseError, ValidationError, TraceZero) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except _PLANNER_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
