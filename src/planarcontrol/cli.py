"""Command-line frontend: parse a system config, run analyses, emit artifacts.

Subcommands: analyze, orbit, member, plan, reach, sweep.  The config is a
single JSON document (no environment variables), outputs are JSON/CSV files
written atomically plus an optional SVG, and float serialization uses the
shortest round-trip decimal so reruns are byte-identical.

Exit codes: 0 success; 2 config or system validation failure; 3 planner
failure; 4 I/O failure.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys as _sys
from dataclasses import dataclass

import numpy as np

from .controlset import (
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
from .oracle import GridSpec, ReachSet, default_grid_spec, grid_reachable_set
from .planner import hop_plan, reach_plan
from .svg import render_svg
from .system import LinearControlSystem, equilibrium, flow, simulate

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
    dx: float = 0.02
    dt: float = 0.05
    horizon: float = 30.0
    bounds: tuple | None = None
    point: np.ndarray | None = None
    start: np.ndarray | None = None
    u0: float | None = None
    target: np.ndarray | None = None
    sweep_nu: float | None = None
    sweep_grid: list | None = None


def _has_bool(value) -> bool:
    if isinstance(value, list):
        return any(_has_bool(x) for x in value)
    return isinstance(value, bool)


def _floats(value, key: str) -> np.ndarray:
    """``value`` as a float array; JSON booleans are not numbers here."""
    if _has_bool(value):
        raise ValidationError(f"field '{key}' must hold numbers, not booleans")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"field '{key}' must hold numbers") from exc


def _scalar(value, key: str, integral: bool = False) -> float:
    """One number; with ``integral``, one with an integer value."""
    x = _floats(value, key)
    if x.ndim != 0 or (integral and not float(x).is_integer()):
        kind = "an integer" if integral else "a number"
        raise ValidationError(f"field '{key}' must be {kind}")
    return float(x)


def _vector(doc, key, required=False):
    if key not in doc:
        if required:
            raise ValidationError(f"missing required field '{key}'")
        return None
    v = _floats(doc[key], key)
    if v.shape != (2,) or not np.all(np.isfinite(v)):
        raise ValidationError(f"field '{key}' must be a pair of finite numbers")
    return v


# Every top-level key of a config; "A" is an alias of "a".
_KEYS = ("a", "A", "eta", "omega", "samples", "epsilon", "seed", "u0", "grid",
         "point", "start", "target", "sweep")


def _reject_unknown(doc: dict, known: tuple, prefix: str = "") -> None:
    """A misspelled key would silently leave its field at the default."""
    for key in doc:
        if key not in known:
            raise ValidationError(f"unknown field '{prefix}{key}'")


def parse_config(text: str) -> SystemConfig:
    """Parse and validate a config document.

    Raises
    ------
    ParseError
        If the text is not well-formed JSON.
    ValidationError
        Naming the first violated invariant otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    if "tau_grid" in doc:
        raise ValidationError("field 'tau_grid' was removed: membership is exact")
    _reject_unknown(doc, _KEYS)
    raw_a = doc.get("a", doc.get("A"))
    if raw_a is None:
        raise ValidationError("missing required field 'a'")
    a = _floats(raw_a, "a")
    if a.shape != (2, 2) or not np.all(np.isfinite(a)):
        raise ValidationError("field 'a' must be a 2x2 matrix of finite numbers")
    eta = _vector(doc, "eta", required=True)
    if eta[0] == 0.0 and eta[1] == 0.0:
        raise ValidationError("eta must be nonzero")
    u_min, u_max = (float(x) for x in _vector(doc, "omega", required=True))
    if not u_min < u_max:
        raise ValidationError("u- < u+ required")
    cfg = SystemConfig(a=a, eta=eta, u_min=u_min, u_max=u_max)
    grid = doc.get("grid", {})
    if not isinstance(grid, dict):
        raise ValidationError("field 'grid' must be an object")
    _reject_unknown(grid, ("dx", "dt", "horizon", "bounds"), "grid.")
    for where, key, integral in (
        (doc, "samples", True),
        (doc, "epsilon", False),
        (doc, "seed", True),
        (doc, "u0", False),
        (grid, "dx", False),
        (grid, "dt", False),
        (grid, "horizon", False),
    ):
        if key in where:
            value = _scalar(where[key], key, integral)
            setattr(cfg, key, int(value) if integral else value)
    if cfg.u0 is not None and not math.isfinite(cfg.u0):
        raise ValidationError("field 'u0' must be finite")
    _check_ranges(cfg)
    if "bounds" in grid:
        b = _floats(grid["bounds"], "grid.bounds")
        if b.shape != (4,):
            raise ValidationError("grid.bounds must be [xmin, xmax, ymin, ymax]")
        cfg.bounds = tuple(float(x) for x in b)
    cfg.point = _vector(doc, "point")
    cfg.start = _vector(doc, "start")
    cfg.target = _vector(doc, "target")
    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict) or "nu" not in sweep or "grid" not in sweep:
            raise ValidationError("field 'sweep' must carry 'nu' and 'grid'")
        _reject_unknown(sweep, ("nu", "grid"), "sweep.")
        try:
            pairs = [(p[0], p[1]) for p in sweep["grid"]]
        except (TypeError, IndexError, KeyError) as exc:
            raise ValidationError("sweep.grid must be a list of [alpha, rho]") from exc
        cfg.sweep_nu = _scalar(sweep["nu"], "sweep.nu")
        cfg.sweep_grid = [
            (_scalar(a, "sweep.grid"), _scalar(b, "sweep.grid")) for a, b in pairs
        ]
    return cfg


# Range of each tunable field, checked after the config is read and again
# after command-line overrides.
_RANGES = (
    ("samples", lambda v: v >= 16, "at least 16"),
    ("epsilon", lambda v: v > 0.0, "positive"),
    ("seed", lambda v: v >= 0, "nonnegative"),
    ("dx", lambda v: v > 0.0, "positive"),
    ("dt", lambda v: v > 0.0, "positive"),
    ("horizon", lambda v: v > 0.0, "positive"),
)


def _check_ranges(cfg: SystemConfig) -> None:
    for key, ok, rule in _RANGES:
        value = getattr(cfg, key)
        if not (math.isfinite(value) and ok(value)):
            raise ValidationError(f"field '{key}' must be finite and {rule}")


def build_system(cfg: SystemConfig) -> LinearControlSystem:
    try:
        return LinearControlSystem(cfg.a, cfg.eta, cfg.u_min, cfg.u_max)
    except (ValueError, NotComplexSpectrum) as exc:
        raise ValidationError(str(exc)) from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _json_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


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


def _analysis_checks(sys_: LinearControlSystem, region, seed: int) -> list[dict]:
    work = region.work_system
    half = work.half_period
    scale = max(1.0, region.scale)
    res_minus = float(
        np.linalg.norm(flow(work, half, region.p_plus, work.u_min) - region.p_minus)
    )
    res_plus = float(
        np.linalg.norm(flow(work, half, region.p_minus, work.u_max) - region.p_plus)
    )
    poly = region.boundary
    closure = float(np.linalg.norm(poly[0] - poly[-1]))
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
        _check("half_turn_closure_to_p_minus", res_minus < 1e-9 * scale, res_minus),
        _check("half_turn_closure_to_p_plus", res_plus < 1e-9 * scale, res_plus),
        _check("boundary_polyline_closed", closure < 1e-9 * scale, closure),
        _check("equilibrium_line_order", order_margin > 0.0, order_margin),
        _check("forward_invariance_sample", worst >= -1e-6 * scale, worst),
    ]


def run(command: str, cfg: SystemConfig, args) -> dict:
    """Execute one subcommand; returns the run report (also written to disk).

    The artifacts are written only after the command, and the SVG if one is
    asked for, succeeded, so a failing run leaves no files.
    """
    sys_ = build_system(cfg)
    overrides = {
        "samples": args.samples,
        "epsilon": args.epsilon,
        "dx": args.grid_dx,
        "dt": args.grid_dt,
        "horizon": args.horizon,
    }
    cfg = dataclasses.replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None}
    )
    _check_ranges(cfg)
    samples, epsilon = cfg.samples, cfg.epsilon
    dx, dt, horizon = cfg.dx, cfg.dt, cfg.horizon
    kind = classify(sys_)
    report: dict = {
        "command": command,
        "classification": kind.value,
        "p_plus": None,
        "p_minus": None,
        "orbit_samples": 0,
        "checks": [],
        "files": [],
    }
    outputs: list[tuple[str, str, str]] = []  # (name, path, text)

    def emit(name: str, text: str) -> None:
        outputs.append((name, os.path.join(args.out, name), text))

    svg_layers: list[np.ndarray] = []
    svg_markers: list[np.ndarray] = []

    region = None
    if kind is not Classification.CONTROLLABLE_TRACE_ZERO:
        region = build_orbit_region(sys_, samples_per_arc=samples)
        report["p_plus"] = region.p_plus
        report["p_minus"] = region.p_minus
        report["orbit_samples"] = len(region.boundary)
        svg_layers.append(region.boundary)
        svg_markers.extend(
            [
                region.p_plus,
                region.p_minus,
                equilibrium(sys_, sys_.u_min),
                equilibrium(sys_, sys_.u_max),
            ]
        )

    if command == "analyze":
        if region is not None:
            report["checks"] = _analysis_checks(sys_, region, cfg.seed)
        emit("analyze.json", _json_text({**report, "files": ["analyze.json"]}))

    elif command == "orbit":
        if region is None:
            raise TraceZero("orbit subcommand needs a nonzero trace")
        orbit = periodic_orbit(sys_, samples)
        rows = []
        half = orbit.half_period
        n = len(orbit.arc_minus) - 1
        for i, pt in enumerate(orbit.arc_minus):
            rows.append(
                (_fmt(half * i / n), _fmt(pt[0]), _fmt(pt[1]), _fmt(sys_.u_min))
            )
        for i, pt in enumerate(orbit.arc_plus[1:], start=1):
            rows.append(
                (_fmt(half + half * i / n), _fmt(pt[0]), _fmt(pt[1]), _fmt(sys_.u_max))
            )
        emit("orbit.csv", _csv_text("t,x,y,u", rows))

    elif command == "member":
        if cfg.point is None:
            raise ValidationError("member subcommand needs a 'point' in the config")
        if region is None:
            verdict = {"verdict": "interior", "margin": None}
        else:
            v = region.contains(cfg.point)
            verdict = {"verdict": v.verdict.value, "margin": v.margin}
        report["member"] = verdict
        emit("member.json", _json_text({"point": cfg.point, **verdict}))
        svg_markers.append(np.asarray(cfg.point, dtype=float))

    elif command == "plan":
        if kind is Classification.CONTROLLABLE_TRACE_ZERO:
            if cfg.start is None:
                raise ValidationError("plan subcommand needs a 'start' in the config")
            u0 = cfg.u0 if cfg.u0 is not None else 0.5 * (sys_.u_min + sys_.u_max)
            plan = hop_plan(sys_, cfg.start, u0)
        else:
            if cfg.target is None:
                raise ValidationError("plan subcommand needs a 'target' in the config")
            plan = reach_plan(sys_, cfg.target, epsilon, region=region)
        rows = [
            (str(i), _fmt(u), _fmt(dtt))
            for i, (u, dtt) in enumerate(plan.schedule)
        ]
        emit("plan.csv", _csv_text("index,u,dt", rows))
        report["plan"] = {
            "start": plan.start,
            "goal": plan.goal,
            "endpoint": plan.endpoint,
            "endpoint_error": plan.endpoint_error,
            "hops": plan.hops,
            "time_reversed": plan.time_reversed,
        }
        emit("plan.json", _json_text(report["plan"]))
        if args.svg is not None:  # the dense trajectory is drawn, never written
            sim_sys = sys_.time_reversed() if plan.time_reversed else sys_
            traj = simulate(sim_sys, plan.start, plan.schedule)
            svg_layers.append(traj.dense_states)
        svg_markers.extend([plan.start, plan.goal])

    elif command == "reach":
        start = cfg.start
        if start is None:
            start = equilibrium(sys_, 0.5 * (sys_.u_min + sys_.u_max))
        start = np.asarray(start, dtype=float)
        try:
            if cfg.bounds is not None:
                spec = GridSpec(bounds=cfg.bounds, dx=dx, dt=dt, horizon=horizon)
            else:
                if region is not None:
                    base = default_grid_spec(sys_, dx=dx, dt=dt, horizon=horizon)
                    bounds = list(base.bounds)
                else:
                    anchors = np.vstack(
                        [
                            equilibrium(sys_, sys_.u_min),
                            equilibrium(sys_, sys_.u_max),
                            start,
                        ]
                    )
                    c = anchors.mean(axis=0)
                    hs = max(float(np.abs(anchors - c).max()) * 3.0, 10.0 * dx)
                    bounds = [c[0] - hs, c[0] + hs, c[1] - hs, c[1] + hs]
                # Grow the default box if the start sits outside it.
                pad = 2.0 * dx
                bounds[0] = min(bounds[0], start[0] - pad)
                bounds[1] = max(bounds[1], start[0] + pad)
                bounds[2] = min(bounds[2], start[1] - pad)
                bounds[3] = max(bounds[3], start[1] + pad)
                spec = GridSpec(bounds=tuple(bounds), dx=dx, dt=dt, horizon=horizon)
            reach = grid_reachable_set(sys_, start, spec)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        pts = reach.occupied_points()
        emit("reach.csv", _csv_text("x,y", _cell_rows(reach)))
        report["reach"] = {
            "occupied": reach.occupied_count(),
            "spill": reach.spill_count,
            "steps": reach.steps_run,
            "bounds": list(spec.bounds),
        }
        emit("reach.json", _json_text(report["reach"]))
        if not svg_layers:
            svg_layers.append(pts)
        svg_markers.extend(pts[:: max(1, len(pts) // 400)])

    elif command == "sweep":
        if cfg.sweep_nu is None or not cfg.sweep_grid:
            raise ValidationError("sweep subcommand needs 'sweep.nu' and 'sweep.grid'")
        try:
            points = sweep_control_ranges(
                sys_.a, sys_.eta, cfg.sweep_nu, cfg.sweep_grid, samples_per_arc=samples
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        rows = [
            (
                _fmt(p.alpha),
                _fmt(p.rho),
                _fmt(p.p_plus[0]),
                _fmt(p.p_plus[1]),
                _fmt(p.p_minus[0]),
                _fmt(p.p_minus[1]),
                _fmt(p.hausdorff_prev),
            )
            for p in points
        ]
        emit(
            "sweep.csv",
            _csv_text(
                "alpha,rho,p_plus_x,p_plus_y,p_minus_x,p_minus_y,hausdorff_prev",
                rows,
            ),
        )
        report["sweep"] = {
            "points": len(points),
            "p_plus_coordinates": [p.p_plus_coordinate for p in points],
        }
        for p in points[-3:]:
            svg_layers.append(p.boundary)

    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown command {command}")

    if args.svg is not None:
        if not svg_layers:
            raise ValidationError("nothing to render for this command")
        outputs.append((args.svg, args.svg, render_svg(svg_layers, svg_markers)))

    os.makedirs(args.out, exist_ok=True)
    for _, path, text in outputs:
        _write_text(path, text)
    report["files"] = [name for name, _, _ in outputs]
    return report


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
    for name, help_ in (
        ("analyze", "classification, fixed points, orbit and region checks"),
        ("orbit", "CSV polyline of the periodic boundary orbit"),
        ("member", "membership verdict for a configured point"),
        ("plan", "trajectory plan (hop plan or reach plan by trace sign)"),
        ("reach", "brute-force reachable-set occupancy CSV"),
        ("sweep", "control-range sweep of the orbit family"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to the JSON config document")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--svg", default=None, help="also render an SVG to this path")
        p.add_argument("--samples", type=int, default=None, help="samples per orbit arc")
        p.add_argument("--grid-dx", type=float, default=None, help="occupancy cell size")
        p.add_argument("--grid-dt", type=float, default=None, help="occupancy time step")
        p.add_argument("--horizon", type=float, default=None, help="occupancy horizon")
        p.add_argument("--epsilon", type=float, default=None, help="plan accuracy")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=_sys.stderr)
        return 4
    try:
        cfg = parse_config(text)
        report = run(args.command, cfg, args)
    except (ParseError, ValidationError, TraceZero) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except _PLANNER_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 4
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
