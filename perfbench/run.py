"""Benchmark of ``planarcontrol``: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 10 --trace 0

The package is imported from ``./src``.  The run builds the workload's
seeded inputs, replays whole rounds of them until ``--seconds`` have passed,
checks every output against the independent computations in ``ref.py`` and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` untraced and traced rounds alternate,
and the metrics are the per-layer ones of the traced rounds plus the
tracing overhead.  The exit code is 0 when every check passed, 1 on
a disagreement and 2 when the package cannot be found.  See README.md.
"""

import os

# One BLAS thread: the client is single-threaded, and on a small shared
# machine BLAS worker threads spinning for cores make timings erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
IMPORT_PROBES = 7  # fresh interpreters timing `import planarcontrol`
BUILD_REPEATS = 3  # in-process builds of the workload's inputs

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import planarcontrol; "
    "d = time.perf_counter() - t; print(d, planarcontrol.__file__)"
)


def _import_seconds():
    """Median wall time of `import planarcontrol` over fresh interpreters.

    One unmeasured probe first, so byte-code compilation of a fresh checkout
    is not counted.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(IMPORT_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        secs, path = done.stdout.split(maxsplit=1)
        if not path.strip().startswith(SRC + os.sep):
            raise RuntimeError(f"probe imported planarcontrol from {path.strip()}")
        if i:
            times.append(float(secs))
    return statistics.median(times)


def _percentile(sorted_ns, pct):
    """Nearest-rank percentile of sorted samples."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_ns)))
    return sorted_ns[rank - 1]


class Failure(Exception):
    """An output disagreed with the reference; the run reports it and exits 1."""


class Stats:
    """Latencies of completed operations (ns), counts, and ns spent inside operations."""

    def __init__(self):
        self.latencies = []
        self.attempted = self.failed = self.busy = 0

    def throughput(self):
        return len(self.latencies) / (self.busy / 1e9)


def check_round(wl, ops):
    """Run one untimed round and check every output against the reference.

    Returns the digest of each checked output, by operation index; a raising
    operation has none.
    """
    prepare = getattr(wl, "prepare", None)
    verified = {}
    for i, op in enumerate(ops):
        if prepare is not None:
            prepare(op)
        try:
            out = wl.call(op)
        except Exception:  # a raising operation counts as failed, not as wrong
            continue
        try:
            wl.check(op, out)
        except Exception as exc:
            raise Failure(f"op {i} ({type(exc).__name__}): {exc}") from exc
        verified[i] = wl.digest(op, out)
    return verified


def timed_round(wl, ops, verified, stats, extra=None):
    """Run one timed round.

    An output identical to the one checked for the same input is verified;
    any other output is checked in full (and, where reruns must be
    byte-identical, is a failure).
    """
    prepare = getattr(wl, "prepare", None)
    must_match = getattr(wl, "rerun_must_match", False)
    for i, op in enumerate(ops):
        if prepare is not None:
            prepare(op)
        t0 = time.perf_counter_ns()
        try:
            out = wl.call(op)
        except Exception:  # a raising operation counts as failed, not as wrong
            out = None
        t1 = time.perf_counter_ns()
        stats.attempted += 1
        stats.busy += t1 - t0
        if out is None:
            stats.failed += 1
            continue
        stats.latencies.append(t1 - t0)
        digest = wl.digest(op, out)
        if digest != verified.get(i):
            if i in verified and must_match:
                raise Failure(f"op {i}: rerun is not byte-identical")
            try:
                wl.check(op, out)
            except Exception as exc:
                raise Failure(f"op {i} ({type(exc).__name__}): {exc}") from exc
        if extra is not None and hasattr(wl, "bytes_written"):
            extra["cli.bytes_written"] += wl.bytes_written(op, out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "planarcontrol", "__init__.py")):
        print(f"error: no planarcontrol package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import_s = _import_seconds()
    import planarcontrol as pc
    import planarcontrol.cli  # noqa: F401  (not imported by the package itself)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    wl = WORKLOADS[args.workload](pc, args.seed, OUT)
    build_s = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        ops = wl.build()
        build_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(build_s)

    try:
        verified = check_round(wl, ops)  # also the warm-up: lazy first-call costs
        began = time.perf_counter()
        if args.trace:
            from tracing import Tracer

            # Untraced and traced rounds alternate, so both see the same
            # machine; the overhead is the ratio of their throughputs.
            tracer = Tracer(pc)
            plain, traced = Stats(), Stats()
            extra = {"cli.bytes_written": 0.0}
            while True:
                timed_round(wl, ops, verified, plain)
                tracer.install()
                try:
                    timed_round(wl, ops, verified, traced, extra)
                finally:
                    tracer.uninstall()
                if time.perf_counter() - began >= args.seconds:
                    break
            os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
            tracer.save(os.path.join(OUT, "trace", f"{args.workload}-{args.seed}.npz"))
            metrics = tracer.metrics(traced.attempted, extra)
            metrics["trace.untraced_throughput_ops"] = {"value": plain.throughput(), "unit": "1/s"}
            metrics["trace.traced_throughput_ops"] = {"value": traced.throughput(), "unit": "1/s"}
            metrics["trace.overhead_pct"] = {
                "value": 100.0 * (plain.throughput() / traced.throughput() - 1.0), "unit": "%"}
            attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
        else:
            stats = Stats()
            while True:
                timed_round(wl, ops, verified, stats)
                if time.perf_counter() - began >= args.seconds:
                    break
            lat = sorted(stats.latencies)
            tail = wl.tail_percentile
            beyond = len(lat) - math.ceil(tail / 100.0 * len(lat))
            print(f"# {args.workload} seed {args.seed}: {stats.attempted} attempted, {stats.failed} failed, "
                  f"{len(lat)} latencies, {beyond} beyond p{tail}; "
                  f"import {import_s:.4f} s, build {statistics.median(build_s):.4f} s", file=sys.stderr)
            metrics = {
                "throughput_ops": {"value": stats.throughput(), "unit": "1/s"},
                "latency_p50_ms": {"value": statistics.median(lat) / 1e6, "unit": "ms"},
                "latency_tail_ms": {"value": _percentile(lat, tail) / 1e6, "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
            attempted, failed = stats.attempted, stats.failed
        correct = True
    except Failure as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        correct, attempted, failed, metrics = False, 1, 0, {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
