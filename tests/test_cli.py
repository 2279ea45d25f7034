"""Command-line contract: exit codes for malformed configs, no partial
artifacts on failure, byte-identical reruns, and the artifact schemas."""

import json

import pytest

from planarcontrol.cli import main
from planarcontrol.oracle import grid_reachable_set

BASE = {
    "a": [[-1.0, -1.0], [1.0, -1.0]],
    "eta": [1.0, 0.0],
    "omega": [-1.0, 1.0],
    "point": [0.1, 0.1],
    "target": [0.1, 0.1],
}
ZERO_TRACE = {**BASE, "a": [[0.0, -1.0], [1.0, 0.0]]}


def _run(tmp_path, command, doc, *extra):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    return main([command, str(cfg), "--out", str(out), *extra]), out


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
    ],
)
def test_malformed_field_exits_2_without_artifacts(tmp_path, capsys, command, change):
    code, out = _run(tmp_path, command, {**BASE, **change})
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_removed_tau_grid_is_named(tmp_path, capsys):
    code, _ = _run(tmp_path, "analyze", {**BASE, "tau_grid": 512})
    assert code == 2
    assert "'tau_grid' was removed" in capsys.readouterr().err


def test_plan_simulates_only_for_svg(tmp_path, monkeypatch):
    runs = {}
    for name, extra in (("plain", ()), ("svg", ("--svg", str(tmp_path / "p.svg")))):
        sub = tmp_path / name
        sub.mkdir()
        code, out = _run(sub, "plan", BASE, *extra)
        assert code == 0
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert (tmp_path / "p.svg").exists()
    assert runs["plain"] == runs["svg"]
    # Without --svg the dense trajectory is never computed.
    def no_simulate(*args, **kwargs):
        raise AssertionError("simulate called without --svg")

    monkeypatch.setattr("planarcontrol.cli.simulate", no_simulate)
    sub = tmp_path / "patched"
    sub.mkdir()
    code, out = _run(sub, "plan", BASE)
    assert code == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == runs["plain"]


def test_malformed_command_line_override_exits_2(tmp_path):
    code, out = _run(tmp_path, "plan", BASE, "--samples", "4")
    assert code == 2
    assert not out.exists()


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
