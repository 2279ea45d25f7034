"""The package's export lists and the test harness itself."""

import importlib
import pkgutil
import warnings

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
