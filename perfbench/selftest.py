"""Show that each workload's checks catch a corrupted output.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it takes one real output, confirms that the check accepts
it, corrupts it in one way and confirms that the check now rejects it:

- plan: the reported endpoint moved by 10 * epsilon;
- query: one membership verdict flipped, for a point outside the tolerance band;
- cli: one coordinate of orbit.csv changed, and exit code 1 in place of 2
  for a malformed config.

Exits 0 when every corruption is caught, 1 otherwise.
"""

import dataclasses
import os
import sys

import numpy as np

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import planarcontrol as pc  # noqa: E402
import planarcontrol.cli  # noqa: E402,F401

import ref  # noqa: E402
from workloads import CheckFailed, Cli, Plan, Query  # noqa: E402

SEED = 7
OUT = os.path.join(ROOT, ".bench_out", "selftest")


def caught(wl, op, out):
    try:
        wl.check(op, out)
    except CheckFailed:
        return True
    return False


def plan_case():
    wl = Plan(pc, SEED, OUT)
    op = next(op for op in wl.build() if op.kind == "reach")
    res = wl.call(op)
    wl.check(op, res)
    direction = np.array([0.6, 0.8])
    bad = dataclasses.replace(res, endpoint=res.endpoint + 10.0 * op.epsilon * direction)
    return caught(wl, op, bad)


def query_case():
    wl = Query(pc, SEED, OUT)
    op = wl.build()[0]
    margins, dist = wl.call(op)
    wl.check(op, (margins, dist))
    dense, band = wl._reference(op.region)
    clear = np.flatnonzero(ref.distance_to_polyline(op.points, dense) > band)
    flipped = margins.copy()
    flipped[clear[0]] = -flipped[clear[0]]
    return caught(wl, op, (flipped, dist))


def cli_cases():
    wl = Cli(pc, SEED, OUT)
    ops = wl.build()
    orbit = next(op for op in ops if op.command == "orbit")
    out = wl.call(orbit)
    wl.check(orbit, out)
    path = os.path.join(orbit.out, "orbit.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6) + 1e-9)
    lines[5] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    csv_caught = caught(wl, orbit, out)

    malformed = next(op for op in ops if op.malformed)
    wl.check(malformed, (2, ""))
    exit_caught = caught(wl, malformed, (1, ""))
    return csv_caught, exit_caught


def main():
    os.makedirs(OUT, exist_ok=True)
    csv_caught, exit_caught = cli_cases()
    results = {
        "plan: endpoint moved by 10*epsilon": plan_case(),
        "query: verdict flipped outside the band": query_case(),
        "cli: one orbit.csv coordinate changed": csv_caught,
        "cli: exit code 1 in place of 2": exit_caught,
    }
    for name, ok in results.items():
        print(f"{'caught' if ok else 'MISSED'}  {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
