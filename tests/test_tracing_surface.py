"""perfbench's span tracer against the package: every name it wraps must
exist, so removing or renaming one fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np

import planarcontrol
from planarcontrol.geometry import build_orbit_region
from planarcontrol.system import LinearControlSystem

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    home = importlib.import_module("planarcontrol." + module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(home, cls_name).__dict__[meth]
    return getattr(home, attr)


def _bindings():
    """Every (module, name, object) of the package and its modules."""
    modules = [planarcontrol] + [
        importlib.import_module("planarcontrol." + info.name)
        for info in pkgutil.iter_modules(planarcontrol.__path__)
    ]
    return [(mod, key, value) for mod in modules for key, value in vars(mod).items()]


def test_tracer_wraps_every_name_and_restores_it():
    tracing = _load_tracing()
    originals = [_resolve(mod, attr) for mod, attr, _, _ in tracing.WRAPPED]
    before = _bindings()
    sys = LinearControlSystem([[-1.0, -1.0], [1.0, -1.0]], [1.0, 0.0], -1.0, 1.0)
    region = build_orbit_region(sys)
    tracer = tracing.Tracer(planarcontrol)
    try:
        tracer.install()
        for (mod, attr, _, _), original in zip(tracing.WRAPPED, originals):
            assert _resolve(mod, attr).__wrapped__ is original, f"{mod}.{attr} is not wrapped"
        plan = planarcontrol.reach_plan(sys, [0.1, -0.2], 1e-9)
    finally:
        tracer.uninstall()
    for (mod, attr, _, _), original in zip(tracing.WRAPPED, originals):
        assert _resolve(mod, attr) is original, f"{mod}.{attr} is not restored"
    after = {(mod.__name__, key): value for mod, key, value in _bindings()}
    for mod, key, value in before:
        assert after[mod.__name__, key] is value, f"{mod.__name__}.{key} is not restored"
    name, _, _, _ = tracer.arrays()
    assert "planner.reach_plan" in {tracer.names[i] for i in np.unique(name)}
    assert plan.endpoint_error <= 1e-14 * region.scale
