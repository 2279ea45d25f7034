"""perfbench's workloads against the package: one seed of each, every
operation run once and checked by the workload's own check, so a change
that breaks the benchmark fails here and not only in a benchmark run.  Unlike
the benchmark's check round, an operation that raises fails the test."""

import sys
from pathlib import Path

import pytest

import planarcontrol
import planarcontrol.cli  # noqa: F401  (not imported by the package itself)

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_MODULES = ("workloads", "inputs", "ref")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    import workloads

    yield workloads
    for name in _MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["plan", "query", "cli"])
def test_workload_passes_its_own_checks(workloads, tmp_path, name):
    wl = workloads.WORKLOADS[name](planarcontrol, 1, str(tmp_path))
    ops = wl.build()
    if name == "query":
        # Two regular batches, on regions of either trace sign: the check of
        # every batch costs far more than its call.
        ops = ops[wl.LARGE_BATCHES : wl.LARGE_BATCHES + 2]
    prepare = getattr(wl, "prepare", None)
    for op in ops:
        if prepare is not None:
            prepare(op)
        wl.check(op, wl.call(op))
