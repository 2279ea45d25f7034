"""Command-line contract: exit codes for malformed configs, no partial
artifacts on failure, byte-identical reruns, and the artifact schemas."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from planarcontrol.cli import (
    _COMMANDS,
    _FIELDS,
    SystemConfig,
    _analysis_checks,
    _parser,
    main,
    parse_config,
)
from planarcontrol.controlset import periodic_orbit
from planarcontrol.errors import NotComplexSpectrum
from planarcontrol.geometry import build_orbit_region
from planarcontrol.oracle import default_grid_spec, grid_reachable_set
from planarcontrol.system import LinearControlSystem

BASE = {
    "a": [[-1.0, -1.0], [1.0, -1.0]],
    "eta": [1.0, 0.0],
    "omega": [-1.0, 1.0],
    "point": [0.1, 0.1],
    "target": [0.1, 0.1],
}
ZERO_TRACE = {**BASE, "a": [[0.0, -1.0], [1.0, 0.0]]}
# A change that maps a field to MISSING drops it from BASE.
MISSING = object()


def _run(tmp_path, command, doc, *extra):
    """Run ``command`` on ``doc``, a config object or the raw config text or bytes."""
    cfg = tmp_path / "config.json"
    if isinstance(doc, bytes):
        cfg.write_bytes(doc)
    else:
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "out"
    return main([command, str(cfg), "--out", str(out), *extra]), out


def _nested_a(depth):
    """Config text whose field 'a' is empty lists nested ``depth`` deep."""
    return '{"a": ' + "[" * depth + "]" * depth + ', "eta": [1, 0], "omega": [-1, 1]}'


@pytest.mark.parametrize(
    "command, change",
    [
        ("analyze", {"omega": ["x", 1]}),
        ("analyze", {"omega": [1.0, -1.0]}),
        ("reach", {"grid": {"dx": "abc"}}),
        ("reach", {"grid": {"dt": "abc"}}),
        ("reach", {"grid": {"horizon": "abc"}}),
        ("reach", {"grid": {"dx": -0.1}}),
        ("reach", {"grid": {"bounds": ["a", 1, 0, 1]}}),
        ("plan", {"samples": 4}),
        ("plan", {"tau_grid": 8}),
        ("plan", {"epsilon": 0.0}),
        ("plan", {"epsilon": -1e-3}),
        ("analyze", {"seed": -1}),
        ("analyze", {"a": [[1.0, 2.0], [3.0, 4.0]]}),
        ("sweep", {"sweep": {"nu": "x", "grid": [[-1, 1]]}}),
        ("sweep", {"sweep": {"nu": 0.0, "grid": [[0.5, 1.0]]}}),
        ("plan", {"tau_grid": 512}),
        ("plan", {"samples": 256.9}),
        ("analyze", {"seed": 2.7}),
        ("plan", {"epsilon": True}),
        ("reach", {"grid": {"dx": True}}),
        ("analyze", {"omega": [False, True]}),
        ("analyze", {"eta": [True, 0.0]}),
        ("analyze", {"a": [[-1.0, -1.0], [True, -1.0]]}),
        ("reach", {"grid": {"bounds": [-1, 1, -1, True]}}),
        ("sweep", {"sweep": {"nu": 0.0, "grid": [[-1.0, True]]}}),
        ("sweep", {"sweep": {"nu": 0.0, "grid": [{"alpha": -1.0}]}}),
        ("plan", {"epsilom": 1e-9}),
        ("reach", {"grid": {"dtt": 0.5}}),
        ("sweep", {"sweep": {"nu": 0.0, "grid": [[-1.0, 1.0]], "steps": 4}}),
        # json reads the Infinity literal; non-finite numbers are rejected.
        ("reach", {"grid": {"bounds": [-1, float("inf"), -1, 1]}}),
        ("sweep", {"sweep": {"nu": float("inf"), "grid": [[-1.0, 1.0]]}}),
        ("sweep", {"sweep": {"nu": 0.0, "grid": [[-1.0, float("inf")]]}}),
        # Finite fields whose system is degenerate or not representable.
        ("analyze", {"eta": [5e-324, 0.0]}),
        ("analyze", {"omega": [0.0, 5e-324]}),
        ("analyze", {"omega": [-1e308, 1e308]}),
        ("plan", {"omega": [1e308, 1.7e308]}),
        # Allocations of TiB and PiB: rejected before any array is made.
        ("analyze", {"samples": 1000000000000}),
        ("reach", {"grid": {"dx": 1e-7}}),
        # Documents that are not a config object, and the fields each needs.
        pytest.param("analyze", "{not json", id="analyze-invalid-json"),
        pytest.param("analyze", "[1, 2]", id="analyze-not-an-object"),
        ("analyze", {"a": MISSING}),
        ("analyze", {"eta": MISSING}),
        ("analyze", {"omega": MISSING}),
        ("analyze", {"a": [[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]]}),
        ("analyze", {"eta": [1.0, 0.0, 0.0]}),
        ("reach", {"grid": [0.1, 0.1]}),
        ("reach", {"grid": {"bounds": [-1, 1, -1]}}),
        ("sweep", {"sweep": {"grid": [[-1.0, 1.0]]}}),
        ("sweep", {"sweep": {"nu": 0.0}}),
        ("orbit", {"a": ZERO_TRACE["a"]}),
        ("member", {"point": MISSING}),
        ("plan", {"target": MISSING}),
        ("plan", {"a": ZERO_TRACE["a"]}),
        ("sweep", {}),
        ("sweep", {"sweep": {"nu": 0.0, "grid": [[-1.0, 1.0, 2.0]]}}),
        # A start on the upper edge of the grid's half-open box.
        ("reach", {"start": [1.0, 0.5], "grid": {"dx": 0.25, "dt": 0.1, "horizon": 0.5,
                                                  "bounds": [0.0, 1.0, 0.0, 1.0]}}),
        ("reach", {"start": [1.0, 1.0], "grid": {"dx": 0.25, "dt": 0.1, "horizon": 0.5,
                                                  "bounds": [0.0, 1.0, 0.0, 1.0]}}),
        # One step of an expanding flow whose map overflows.
        ("reach", {"a": [[1.0, -1.0], [1.0, 1.0]], "eta": [0.0, 1.0], "start": [0.5, 0.5],
                   "grid": {"dx": 0.1, "dt": 800.0, "horizon": 800.0, "bounds": [0, 1, 0, 1]}}),
        # "A" is an alias of "a": giving both leaves one unread.
        ("analyze", {"A": BASE["a"]}),
        # A sweep with no ranges, and a null one, read by any command.
        ("analyze", {"sweep": {"nu": 0.0, "grid": []}}),
        ("analyze", {"sweep": None}),
        # A path is not a key: "grid.dx" names a field only inside "grid".
        ("reach", {"grid.dx": 0.1}),
        # Strings are not numbers, even where they spell one.
        ("analyze", {"a": [["-1", "-1"], ["1", "-1"]], "eta": ["1", "0"], "omega": ["-1", "1"],
                     "samples": "64"}),
        # A field nested far deeper than its shape, within and beyond what json reads.
        pytest.param("analyze", _nested_a(500), id="analyze-nested-500"),
        pytest.param("analyze", _nested_a(100_000), id="analyze-nested-100000"),
        # Bytes that are not UTF-8.
        pytest.param("analyze", b"\xff\xfe{}", id="analyze-not-utf-8"),
    ],
)
def test_malformed_field_exits_2_without_artifacts(tmp_path, capsys, command, change):
    if isinstance(change, dict):
        change = {k: v for k, v in {**BASE, **change}.items() if v is not MISSING}
    code, out = _run(tmp_path, command, change)
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _raising(error):
    def command(ctx):
        ctx.emit("staged.json", "{}\n")
        raise error("raised by the command")

    return command


def _non_finite(ctx):
    ctx.emit("staged.json", "{}\n")
    ctx.report["margin"] = float("inf")  # only the report, on stdout, holds it


@pytest.mark.parametrize(
    "command, failing, message",
    [
        ("plan", _raising(ValueError), "raised by the command"),
        ("sweep", _raising(NotComplexSpectrum), "raised by the command"),
        ("member", _non_finite, "not JSON compliant"),
    ],
    ids=["value-error", "not-complex-spectrum", "non-finite-report"],
)
def test_command_error_exits_2_without_artifacts(tmp_path, monkeypatch, capsys, command,
                                                 failing, message):
    # run maps each to a validation failure before writing anything.
    monkeypatch.setitem(_COMMANDS, command, (_COMMANDS[command][0], failing))
    svg = tmp_path / "plot.svg"
    code, out = _run(tmp_path, command, BASE, "--svg", str(svg))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not svg.exists()


# One valid value of each shape, inside the range of every field of that shape.
_VALID = {
    "a number": 0.5,
    "an integer": 64,
    "a pair of numbers": [0.25, 0.75],
    "a 2x2 matrix": [[-1.0, -1.0], [1.0, -1.0]],
    "[xmin, xmax, ymin, ymax]": [-1.0, 1.0, -2.0, 2.0],
    "a list of [alpha, rho]": [[-1.0, 1.0], [-2.0, 2.0]],
}


def test_every_field_lands_on_its_attribute():
    doc = {}
    for path, (_, shape, _) in _FIELDS.items():
        group, _, key = path.rpartition(".")
        (doc.setdefault(group, {}) if group else doc)[key] = _VALID[shape]
    for alias in ("a", "A"):
        cfg = parse_config(json.dumps({alias if k == "a" else k: v for k, v in doc.items()}))
        for path, (attr, shape, _) in _FIELDS.items():
            want = _VALID[shape]
            got = [cfg.u_min, cfg.u_max] if attr is None else getattr(cfg, attr)  # omega
            assert np.array_equal(got, want), path
            if not isinstance(want, list):
                assert type(got) is type(want), path
    attrs = [attr for attr, _, _ in _FIELDS.values() if attr is not None]
    fields = [f.name for f in dataclasses.fields(SystemConfig)]
    assert sorted(attrs + ["u_min", "u_max"]) == sorted(fields)


def test_analyze_near_the_float_limit_has_finite_margins(tmp_path, capsys):
    # p± lie near 6e307, where a sum of squares of their coordinates overflows.
    doc = {"a": [[-1e-8, -1.0], [1.0, -1e-8]], "eta": [1.0, 0.0], "omega": [-1e300, 1e300]}
    code, out = _run(tmp_path, "analyze", doc)
    assert code == 0

    def finite_only(literal):
        raise ValueError(f"non-finite number {literal}")

    checks = json.loads((out / "analyze.json").read_text(), parse_constant=finite_only)["checks"]
    assert len(checks) == 5 and all(check["passed"] for check in checks), checks
    json.loads(capsys.readouterr().out, parse_constant=finite_only)


@pytest.mark.parametrize(
    "change",
    [
        {"target": [5.0, 5.0]},  # exterior target
        {"epsilon": 1e-300},  # below the certified rounding error
        {"a": ZERO_TRACE["a"], "start": [0.0, 1e9]},  # 5e8 hops
    ],
)
def test_planner_failure_exits_3_without_artifacts(tmp_path, capsys, change):
    code, out = _run(tmp_path, "plan", {**BASE, **change})
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_io_failure_exits_4(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["analyze", str(missing), "--out", str(tmp_path / "out")]) == 4
    assert "cannot read config" in capsys.readouterr().err
    # --out names an existing file, not a directory.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(BASE))
    assert main(["analyze", str(cfg), "--out", str(blocker)]) == 4
    assert "error:" in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_removed_tau_grid_is_named(tmp_path, capsys):
    code, _ = _run(tmp_path, "analyze", {**BASE, "tau_grid": 512})
    assert code == 2
    assert "'tau_grid' was removed" in capsys.readouterr().err


def test_plan_draws_only_for_svg(tmp_path, monkeypatch):
    runs = {}
    for name, extra in (("plain", ()), ("svg", ("--svg", str(tmp_path / "p.svg")))):
        sub = tmp_path / name
        sub.mkdir()
        code, out = _run(sub, "plan", BASE, *extra)
        assert code == 0
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    # The trajectory is drawn as exact arcs, not as a dense polyline.
    svg = (tmp_path / "p.svg").read_text()
    assert svg.count("<path d=") == 2 and "<polyline" not in svg
    assert runs["plain"] == runs["svg"]
    # Without --svg no arc is drawn.
    def no_drawing(*args, **kwargs):
        raise AssertionError("bezier_path called without --svg")

    monkeypatch.setattr("planarcontrol.cli.bezier_path", no_drawing)
    sub = tmp_path / "patched"
    sub.mkdir()
    code, out = _run(sub, "plan", BASE)
    assert code == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == runs["plain"]


@pytest.mark.parametrize("c", [1e-12, 1e12])
def test_extreme_length_scales(tmp_path, capsys, c):
    # eta -> c eta scales the plane by c; the answers scale with it.
    doc = {**BASE, "eta": [c, 0.0], "point": [0.1 * c, 0.1 * c],
           "target": [0.1 * c, 0.1 * c], "epsilon": 1e-4 * c}
    scale = build_orbit_region(LinearControlSystem(doc["a"], doc["eta"], -1.0, 1.0)).scale
    code, out = _run(tmp_path, "analyze", doc)
    assert code == 0
    checks = json.loads((out / "analyze.json").read_text())["checks"]
    assert all(check["passed"] for check in checks)
    # The CLI's closure bound also grows with |p±|; hold the residuals to
    # the region's own scale.
    closures = [check for check in checks if "clos" in check["name"]]
    assert len(closures) == 3
    assert all(check["margin"] < 1e-9 * scale for check in closures)
    code, out = _run(tmp_path, "member", doc)
    assert code == 0
    assert json.loads((out / "member.json").read_text())["verdict"] == "interior"
    code, out = _run(tmp_path, "plan", doc)
    assert code == 0
    assert json.loads((out / "plan.json").read_text())["endpoint_error"] <= 1e-13 * scale
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        # A skewed system whose closure checks failed under a bound of
        # 1e-9 * max(1, scale), which has no term in the coordinates.
        {**BASE, "a": [[-0.7226, 1.6421], [-0.3817, -1.2973]],
         "eta": [0.6274, 0.0216], "omega": [1e9, 1e9 + 2]},
        {**BASE, "omega": [-1e9 - 2.0, -1e9]},
    ],
)
def test_analyze_checks_pass_for_a_range_far_from_zero(tmp_path, doc):
    code, out = _run(tmp_path, "analyze", doc)
    assert code == 0
    checks = json.loads((out / "analyze.json").read_text())["checks"]
    assert all(check["passed"] for check in checks), checks


@pytest.mark.parametrize(
    "eta, omega, move",
    [
        ([1e-12, 0.0], [-1.0, 1.0], 1e-6),  # a tiny scale
        # Far from zero p± lie about 4.6e8 * scale out, where rounding alone
        # leaves residuals near 1e-7 * scale; a move 1e4 times that must show.
        ([1.0, 0.0], [1e9, 1e9 + 2.0], 1e-3),
    ],
    ids=["tiny_scale", "far_range"],
)
def test_closure_checks_catch_a_moved_fixed_point(eta, omega, move):
    region = build_orbit_region(LinearControlSystem(BASE["a"], eta, *omega))
    poly = periodic_orbit(region.work_system, 256).polyline()
    assert all(check["passed"] for check in _analysis_checks(region, poly, 0))
    along = region.work_system.inv_a_eta  # keeps p_plus on the equilibrium line
    shift = move * region.scale * along / np.linalg.norm(along)
    moved = dataclasses.replace(region, p_plus=region.p_plus + shift)
    passed = {check["name"]: check["passed"] for check in _analysis_checks(moved, poly, 0)}
    assert not passed["half_turn_closure_to_p_minus"]
    assert not passed["half_turn_closure_to_p_plus"]


def test_zero_trace_plan_at_a_tiny_length_scale(tmp_path):
    # eta (1e-12, 0) puts the equilibria at (0, ±1e-12); the start lies 5e-12
    # from the goal, two strides and a half away.
    start = [0.0, 5e-12]
    code, out = _run(tmp_path, "plan", {**ZERO_TRACE, "eta": [1e-12, 0.0], "start": start})
    assert code == 0
    doc = json.loads((out / "plan.json").read_text())
    assert doc["endpoint_error"] <= 1e-12 * 5e-12 * (1 + doc["hops"])


def test_malformed_command_line_override_exits_2(tmp_path):
    # The config is the only run input: argparse rejects any tuning flag.
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "plan", BASE, "--samples", "4")
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_svg_with_nothing_to_render_writes_nothing(tmp_path):
    svg = tmp_path / "member.svg"
    code, out = _run(tmp_path, "member", ZERO_TRACE, "--svg", str(svg))
    assert code == 2
    assert not out.exists() and not svg.exists()
    # Without --svg the same command succeeds and writes its artifact.
    code, out = _run(tmp_path, "member", ZERO_TRACE)
    assert code == 0
    assert [p.name for p in out.iterdir()] == ["member.json"]


def test_analyze_rerun_is_byte_identical(tmp_path, capsys):
    runs = []
    for name in ("first", "second"):
        sub = tmp_path / name
        sub.mkdir()
        code, out = _run(sub, "analyze", BASE)
        assert code == 0
        runs.append((capsys.readouterr().out, (out / "analyze.json").read_bytes()))
    assert runs[0] == runs[1]
    report = json.loads(runs[0][1])
    assert report["files"] == ["analyze.json"]
    assert all(check["passed"] for check in report["checks"])


SMALL = {
    **BASE,
    "samples": 16,
    "grid": {"dx": 0.1, "dt": 0.1, "horizon": 3.0},
    "sweep": {"nu": 0.0, "grid": [[-1.0, 1.0], [-1.5, 1.5], [-0.5, 2.0]]},
}


def _csv(path):
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def _floats(values):
    return all(isinstance(v, float) for v in values)


def test_analyze_json_schema(tmp_path):
    code, out = _run(tmp_path, "analyze", SMALL)
    assert code == 0
    doc = json.loads((out / "analyze.json").read_text())
    assert set(doc) == {
        "checks", "classification", "command", "files", "orbit_samples",
        "p_minus", "p_plus",
    }
    assert doc["command"] == "analyze" and doc["classification"] == "closed"
    assert doc["files"] == ["analyze.json"]
    assert doc["orbit_samples"] == 2 * SMALL["samples"] + 1
    assert len(doc["p_plus"]) == len(doc["p_minus"]) == 2
    assert _floats(doc["p_plus"] + doc["p_minus"])
    assert [set(c) for c in doc["checks"]] == [{"name", "passed", "margin"}] * 5
    assert all(c["passed"] is True and isinstance(c["margin"], float) for c in doc["checks"])


def test_member_json_schema(tmp_path):
    code, out = _run(tmp_path, "member", SMALL)
    assert code == 0
    doc = json.loads((out / "member.json").read_text())
    assert doc["point"] == SMALL["point"]
    assert doc["verdict"] == "interior"
    assert set(doc) == {"margin", "point", "verdict"} and isinstance(doc["margin"], float)
    code, out = _run(tmp_path, "member", ZERO_TRACE)
    assert code == 0
    doc = json.loads((out / "member.json").read_text())
    assert doc == {"margin": None, "point": ZERO_TRACE["point"], "verdict": "interior"}


def test_plan_csv_and_json_schema(tmp_path):
    code, out = _run(tmp_path, "plan", SMALL)
    assert code == 0
    header, rows = _csv(out / "plan.csv")
    assert header == "index,u,dt"
    assert [int(r[0]) for r in rows] == list(range(len(rows))) and rows
    assert all(float(r[1]) in SMALL["omega"] and float(r[2]) >= 0.0 for r in rows)
    doc = json.loads((out / "plan.json").read_text())
    assert set(doc) == {
        "endpoint", "endpoint_error", "goal", "hops", "start", "time_reversed",
    }
    assert doc["goal"] == SMALL["target"] and doc["time_reversed"] is False
    assert _floats(doc["start"] + doc["endpoint"] + [doc["endpoint_error"]])
    assert isinstance(doc["hops"], int)


def test_orbit_csv_schema(tmp_path):
    code, out = _run(tmp_path, "orbit", SMALL)
    assert code == 0
    header, rows = _csv(out / "orbit.csv")
    n = SMALL["samples"]
    assert header == "t,x,y,u"
    assert len(rows) == 2 * n + 1 and all(len(r) == 4 for r in rows)
    t = [float(r[0]) for r in rows]
    assert t[0] == 0.0 and t == sorted(t)
    u_min, u_max = SMALL["omega"]
    assert [float(r[3]) for r in rows] == [u_min] * (n + 1) + [u_max] * n


def test_reach_csv_and_json_schema(tmp_path):
    code, out = _run(tmp_path, "reach", SMALL)
    assert code == 0
    header, rows = _csv(out / "reach.csv")
    assert header == "x,y" and rows and all(len(r) == 2 for r in rows)
    doc = json.loads((out / "reach.json").read_text())
    assert set(doc) == {"bounds", "occupied", "spill", "steps"}
    assert doc["occupied"] == len(rows)
    assert len(doc["bounds"]) == 4 and _floats(doc["bounds"])
    assert isinstance(doc["spill"], int) and isinstance(doc["steps"], int)


def test_sweep_csv_schema(tmp_path):
    code, out = _run(tmp_path, "sweep", SMALL)
    assert code == 0
    header, rows = _csv(out / "sweep.csv")
    assert header == "alpha,rho,p_plus_x,p_plus_y,p_minus_x,p_minus_y,hausdorff_prev"
    grid = SMALL["sweep"]["grid"]
    assert [[float(r[0]), float(r[1])] for r in rows] == grid
    assert rows[0][-1] == "nan"
    assert all(float(r[-1]) >= 0.0 for r in rows[1:])


@pytest.mark.parametrize(
    "doc",
    [
        {**BASE, "grid": {"dx": 0.037, "dt": 0.1, "horizon": 5.0}},
        {**BASE, "grid": {"dx": 0.05, "dt": 0.2, "horizon": 3.0,
                          "bounds": [-1.3, 0.9, -0.7, 1.1]}},
        {**ZERO_TRACE, "start": [0.3, -0.2], "grid": {"dx": 0.09, "dt": 0.2, "horizon": 4.0}},
    ],
)
def test_reach_csv_is_repr_of_occupied_points(tmp_path, monkeypatch, doc):
    seen = []

    def spy(*args, **kwargs):
        seen.append(grid_reachable_set(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr("planarcontrol.cli.grid_reachable_set", spy)
    code, out = _run(tmp_path, "reach", doc)
    assert code == 0
    pts = seen[0].occupied_points()
    assert (pts < 0.0).any() and len(pts) > 50
    want = "x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in pts)
    assert (out / "reach.csv").read_text() == want


@pytest.mark.parametrize("doc", [BASE, ZERO_TRACE], ids=["negative", "zero"])
def test_default_reach_grid_does_not_depend_on_the_length_unit(tmp_path, monkeypatch, doc):
    # The default dx follows the orbit (or, at zero trace, the equilibria) and
    # dt and the horizon the half period, so eta -> c eta scales the grid's
    # bounds and steps by c and keeps its shape and its sweep, up to cells
    # that rounding moves across an edge.
    seen = []

    def spy(*args, **kwargs):
        seen.append(grid_reachable_set(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr("planarcontrol.cli.grid_reachable_set", spy)
    specs = []
    for c in (1.0, 1e-12, 1e12):
        scaled = {**doc, "eta": [c * x for x in doc["eta"]]}
        run_dir = tmp_path / str(c)
        run_dir.mkdir()
        code, _ = _run(run_dir, "reach", scaled)
        assert code == 0
        specs.append(seen[-1].spec)
        assert seen[-1].steps_run == seen[0].steps_run
        assert seen[-1].occupied_count() == pytest.approx(seen[0].occupied_count(), rel=1e-3)
    ref = specs[0]
    assert 10_000 <= ref.shape[0] * ref.shape[1] <= 100_000
    for spec, c in zip(specs, (1.0, 1e-12, 1e12)):
        assert spec.shape == ref.shape
        assert spec.dx == pytest.approx(c * ref.dx, rel=1e-12)
        assert (spec.dt, spec.horizon) == (ref.dt, ref.horizon)


def _call(argv):
    """Exit code of one in-process run; argparse errors exit through SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_repeated_calls_in_one_process_are_identical(tmp_path, capsys):
    docs = {
        "neg": SMALL,
        "zero": {**ZERO_TRACE, "start": [0.3, -0.2],
                 "grid": {"dx": 0.1, "dt": 0.2, "horizon": 3.0}},
        "bad_omega": {**BASE, "omega": ["x", 1]},
        "bad_dx": {**BASE, "grid": {"dx": "abc"}},
        "bad_samples": {**BASE, "samples": 4},
    }
    configs = {}
    for tag, doc in docs.items():
        configs[tag] = tmp_path / f"{tag}.json"
        configs[tag].write_text(json.dumps(doc))
    cases = [
        ("analyze", "neg", 0), ("orbit", "neg", 0), ("member", "neg", 0),
        ("plan", "neg", 0), ("plan", "zero", 0), ("reach", "neg", 0),
        ("reach", "zero", 0), ("sweep", "neg", 0), ("analyze", "bad_omega", 2),
        ("reach", "bad_dx", 2), ("plan", "bad_samples", 2), ("bogus", "neg", 2),
    ]
    seen = {}
    # Every case runs twice, the second pass in reverse order, so each call
    # follows a different one than it did the first time.
    for i in [*range(len(cases)), *reversed(range(len(cases)))]:
        command, tag, want = cases[i]
        out = tmp_path / f"{i:02d}-{command}-{tag}"
        out.mkdir(exist_ok=True)
        for stale in out.iterdir():
            stale.unlink()
        svg = out / "plot.svg"
        code = _call([command, str(configs[tag]), "--out", str(out), "--svg", str(svg)])
        assert code == want, (command, tag)
        stdout = capsys.readouterr().out
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert bool(files) == (want == 0), (command, tag)
        assert seen.setdefault(i, (stdout, files)) == (stdout, files), (command, tag)


# SMALL run backward in time: (-A, -eta) has the same region, bounded by an
# open control set.
SMALL_POS = {**SMALL, "a": [[1.0, 1.0], [-1.0, 1.0]], "eta": [-1.0, 0.0]}
SMALL_ZERO = {**SMALL, "a": ZERO_TRACE["a"], "start": [0.3, -0.2]}


def _artifacts(tmp_path, name, command, doc, svg, capsys):
    """Exit code, report and artifact bytes of one run in its own directory."""
    sub = tmp_path / name
    sub.mkdir()
    extra = ("--svg", str(sub / "out" / "plot.svg")) if svg else ()
    code, out = _run(sub, command, doc, *extra)
    stdout = capsys.readouterr().out
    report = json.loads(stdout) if code == 0 else None
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, report, files


@pytest.mark.parametrize(
    "command, doc",
    # The sweep family needs a negative trace.
    [(c, SMALL) for c in _COMMANDS] + [(c, SMALL_POS) for c in _COMMANDS if c != "sweep"],
    ids=[f"{c}-negative" for c in _COMMANDS] + [f"{c}-positive" for c in _COMMANDS if c != "sweep"],
)
def test_orbit_is_sampled_only_when_read(tmp_path, monkeypatch, capsys, command, doc):
    # analyze reads the boundary and orbit writes it; no other command
    # samples it, since --svg draws its exact arcs.  Artifacts never depend
    # on --svg.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return periodic_orbit(*args, **kwargs)

    monkeypatch.setattr("planarcontrol.cli.periodic_orbit", counted)
    runs = {}
    for svg in (False, True):
        calls.clear()
        code, report, files = _artifacts(tmp_path, str(svg), command, doc, svg, capsys)
        assert code == 0
        reads = command in ("analyze", "orbit")
        assert bool(calls) == reads
        assert report["orbit_samples"] == (2 * SMALL["samples"] + 1 if reads else 0)
        runs[svg] = files
    assert runs[True].pop("plot.svg")
    assert runs[False] == runs[True]


# Exit codes at zero trace without and with --svg: analyze and member have
# nothing to draw, orbit has no orbit and sweep no family there.
_ZERO_TRACE_CODES = {
    "analyze": (0, 2), "orbit": (2, 2), "member": (0, 2),
    "plan": (0, 0), "reach": (0, 0), "sweep": (2, 2),
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_zero_trace_never_samples_the_orbit(tmp_path, monkeypatch, capsys, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("periodic_orbit called at zero trace")

    monkeypatch.setattr("planarcontrol.cli.periodic_orbit", forbidden)
    runs = [_artifacts(tmp_path, str(svg), command, SMALL_ZERO, svg, capsys) for svg in (False, True)]
    assert tuple(code for code, _, _ in runs) == _ZERO_TRACE_CODES[command]
    assert all(report["orbit_samples"] == 0 for code, report, _ in runs if code == 0)
    if runs[1][0] == 0:
        assert runs[1][2].pop("plot.svg")
        assert runs[0][2] == runs[1][2]


def test_parser_offers_exactly_the_command_table():
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_COMMANDS)


# Curves each --svg draws above the boundary: plan its trajectory, sweep its
# last three boundaries, zero-trace reach the grid's box.
_SVG_PATHS = {"analyze": 0, "orbit": 0, "member": 0, "plan": 1, "reach": 0, "sweep": 3}


@pytest.mark.parametrize(
    "command, doc",
    [(c, SMALL) for c in _COMMANDS] + [("plan", SMALL_ZERO), ("reach", SMALL_ZERO)],
    ids=[f"{c}-negative" for c in _COMMANDS] + ["plan-zero", "reach-zero"],
)
def test_svg_draws_exact_arcs_and_the_grid_box(tmp_path, monkeypatch, capsys, command, doc):
    seen = []

    def spy(*args, **kwargs):
        seen.append(grid_reachable_set(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr("planarcontrol.cli.grid_reachable_set", spy)
    code, report, files = _artifacts(tmp_path, "run", command, doc, True, capsys)
    assert code == 0
    svg = files["plot.svg"].decode()
    zero = doc is SMALL_ZERO
    assert svg.count("<path d=") == _SVG_PATHS[command] + (0 if zero else 1)
    circles = svg.count("<circle ")
    if command == "reach" and zero:
        # The grid's whole box, and its occupancy markers as before.
        (line,) = [row for row in svg.splitlines() if row.startswith("<polyline")]
        vertices = line.split('points="')[1].split('"')[0].split()
        assert len(vertices) == 5 and vertices[0] == vertices[-1]
        assert len({v.split(",")[0] for v in vertices}) == len({v.split(",")[1] for v in vertices}) == 2
        pts = seen[0].occupied_points()
        assert circles == len(pts[:: max(1, len(pts) // 400)])
    else:
        assert "<polyline" not in svg


def test_plan_too_long_to_draw_exits_2_without_artifacts(tmp_path, capsys):
    # 5,000 hops from (0, 1e4) would draw 80,000 cubic pieces, 16 per half
    # turn, more than the 2^16 a path may take.
    doc = {**ZERO_TRACE, "start": [0.0, 1e4]}
    svg = tmp_path / "plan.svg"
    code, out = _run(tmp_path, "plan", doc, "--svg", str(svg))
    assert code == 2
    assert "drawing needs 80000 cubic pieces, more than 65536" in capsys.readouterr().err
    assert not out.exists() and not svg.exists()
    code, out = _run(tmp_path, "plan", doc)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["plan.csv", "plan.json"]


@pytest.mark.parametrize("bounds", [None, [-1.3, 0.9, -0.7, 1.1]], ids=["default", "given"])
@pytest.mark.parametrize("doc", [SMALL, SMALL_POS, SMALL_ZERO], ids=["negative", "positive", "zero"])
def test_reach_bounds_are_the_default_grid_spec(tmp_path, capsys, doc, bounds):
    grid = {**doc["grid"], **({} if bounds is None else {"bounds": bounds})}
    code, out = _run(tmp_path, "reach", {**doc, "grid": grid})
    assert code == 0
    sys = LinearControlSystem(doc["a"], doc["eta"], *doc["omega"])
    start = doc.get("start", [0.0, 0.0])  # the equilibrium of the midpoint control
    spec = default_grid_spec(sys, start, grid["dx"], grid["dt"], grid["horizon"], bounds)
    assert json.loads((out / "reach.json").read_text())["bounds"] == list(spec.bounds)
    if bounds is not None:
        assert list(spec.bounds) == bounds


@pytest.mark.parametrize(
    "doc",
    [BASE, ZERO_TRACE, {**ZERO_TRACE, "start": [50.0, 50.0]}],
    ids=["negative", "zero", "zero-far-start"],
)
def test_reach_checks_only_the_given_bounds(tmp_path, capsys, doc):
    # A 1000 x 1000 grid in the given box; the default box at this dx would
    # hold far more than the 2^24 cells a grid may have.
    c = doc.get("start", [0.0, 0.0])
    grid = {"dx": 2e-4, "dt": 0.1, "horizon": 0.3,
            "bounds": [c[0] - 0.1, c[0] + 0.1, c[1] - 0.1, c[1] + 0.1]}
    code, out = _run(tmp_path, "reach", {**doc, "grid": grid})
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "reach.json").read_text())["bounds"] == grid["bounds"]
