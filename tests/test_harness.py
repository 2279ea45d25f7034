"""The package's export lists and imports, and the test harness itself."""

import importlib
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import planarcontrol


@pytest.mark.parametrize(
    "name", [info.name for info in pkgutil.iter_modules(planarcontrol.__path__)]
)
def test_every_export_resolves(name):
    module = importlib.import_module("planarcontrol." + name)
    missing = [key for key in getattr(module, "__all__", ()) if not hasattr(module, key)]
    assert not missing, f"planarcontrol.{name}.__all__ names missing objects: {missing}"


def test_hypothesis_failure_report_imports_without_warnings():
    # conftest imports this module once; a failing @given test imports it again.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            importlib.import_module("hypothesis.extra._patching")
        except ImportError:
            pytest.skip("hypothesis's patching module needs libcst")


def test_import_loads_no_scipy():
    # The package and its CLI run on numpy alone; a scipy import would add to
    # the start-up time and memory of every caller.
    code = (
        "import sys, planarcontrol, planarcontrol.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(planarcontrol.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
