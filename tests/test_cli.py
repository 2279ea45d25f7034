"""Command-line contract: exit codes for malformed configs, no partial
artifacts on failure, byte-identical reruns."""

import json

import pytest

from planarcontrol.cli import main

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
