"""Benchmark of the ``biquadric`` CLI: verdict latency, cold start, layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload generic-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One operation is one in-process call of ``biquadric.cli.run`` on a
``classify --json`` command line, with stdout captured; operations run one
after another in a single thread (a closed loop with one client).  Inputs
come from the seeded streams in ``workloads.py``.  Every outcome is checked
right after its call, outside the timed region (``checks.py``).  Times are
reported at a reference machine speed (``calibration.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced operations with traced ones, which come from an independent stream
of the same workload and have every layer wrapped (``tracing.py``).  It
reports the per-layer metrics of the traced operations, the tracing
overhead, the untraced operations' wall time and ``-X importtime`` figures.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
import time
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

if not (SRC / "biquadric" / "cli.py").is_file():
    sys.exit(f"no program to benchmark: {SRC / 'biquadric'} is missing")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import biquadric.cli as cli  # noqa: E402

import checks  # noqa: E402
from calibration import calibration_s, scale  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Operations run before timing, from a separate stream, so that lazy
# initialization inside sympy is not timed.
WARMUP_OPS = 3
# At least ten samples lie beyond the 90th percentile.
MIN_OPS = 100
# Fresh interpreters started per run for setup_s, spread evenly through the
# timed phase, and for -X importtime.
SETUP_STARTS = 13
IMPORTTIME_STARTS = 3
# Inputs generated by a fresh start, as the benchmark does before its first
# operation.
SETUP_CASES = 100
# Failed operations described on stderr per phase; the rest are only counted.
REPORTED_FAILURES = 10

E2E_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Outcomes:
    """Operations attempted in a phase: their times and checked outcomes.

    Outcomes are checked one at a time and only counted, so that the
    benchmark's memory does not grow with the number of operations.
    """

    def __init__(self):
        self.wall_s = []
        self.wall_total_s = 0.0
        # Each operation's wall time at the reference speed.
        self.scaled_s = []
        # Each operation's speed scale, from the calibrations around it.
        self.scales = []
        self.failed = 0
        self.wrong = 0

    def op(self, call, case):
        """Run one operation, timing only the call itself; returns its exit
        code (or the exception it raised) and its stdout."""
        out, err = io.StringIO(), io.StringIO()
        before = calibration_s()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = call(list(case.argv))
            except Exception as exc:  # a crash is an outcome to count
                code = exc
            dt = perf_counter() - t0
        after = calibration_s()
        self.wall_s.append(dt)
        self.wall_total_s += dt
        self.scales.append(scale(before, after))
        self.scaled_s.append(dt * self.scales[-1])
        return code, out.getvalue()

    def check(self, case, code, stdout):
        """Check one outcome; the first few failures are listed on stderr."""
        status, detail = checks.outcome(case, code, stdout)
        if status == checks.OK:
            return
        self.failed += 1
        self.wrong += status == checks.WRONG
        if self.failed <= REPORTED_FAILURES:
            sys.stderr.write(f"{status} {case.kind}: {detail}: {case.text}\n")

    def run(self, call, stream, count):
        for _ in range(count):
            case = next(stream)
            self.check(case, *self.op(call, case))

    def p50_ms(self) -> float:
        return 1000 * statistics.median(self.scaled_s)

    def p90_ms(self) -> float:
        return 1000 * statistics.quantiles(self.scaled_s, n=10)[8]


def fresh_start_s(workload: str, seed: int) -> float:
    """Time from starting an interpreter to its first operation being ready,
    at the reference speed.

    The fresh interpreter brackets its set-up with two calibrations; the
    first is left out of the time.  Both processes read CLOCK_MONOTONIC,
    which ``time.monotonic`` is on Linux, so their timestamps compare.
    """
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
        "from calibration import calibration_s\n"
        "c0 = time.monotonic()\n"
        "before = calibration_s()\n"
        "calibrating = time.monotonic() - c0\n"
        "import biquadric.cli\n"
        "import workloads\n"
        f"workloads.first_cases({workload!r}, {seed!r}, {SETUP_CASES})\n"
        "ready = time.monotonic()\n"
        "print(ready, calibrating, before, calibration_s())\n"
    )
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                          timeout=120, check=True)
    ready, calibrating, before, after = map(float, done.stdout.split())
    return (ready - t0 - calibrating) * scale(before, after)


def import_times_ms():
    """(total, sympy) cumulative import time of ``biquadric.cli`` in a fresh
    interpreter, at the reference speed of a calibration right after it."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; import biquadric.cli; "
        "from calibration import calibration_s; print(calibration_s())"
    )
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True, text=True, timeout=120, check=True,
    )
    after = float(done.stdout)
    factor = scale(after, after)
    total_us = sympy_us = 0
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        name = fields[2].strip()
        if name in ("biquadric", "biquadric.cli"):
            total_us += int(fields[1])
        elif name == "sympy":
            sympy_us = int(fields[1])
    return factor * total_us / 1000, factor * sympy_us / 1000


def unsupported_failing() -> int:
    """How many of the pool forms left out of ``special-mix`` still fail, so
    that the known defect they show stays in sight."""
    failing = 0
    for i in workloads.unsupported_forms():
        case = workloads.sparse_case(i)
        failing += checks.outcome(case, *Outcomes().op(cli.run, case))[0] != checks.OK
    return failing


def end_to_end(workload: str, seed: int, seconds: float):
    Outcomes().run(cli.run, workloads.cases(workload, seed, "warmup"), WARMUP_OPS)
    phase = Outcomes()
    stream = workloads.cases(workload, seed)
    starts = []
    while phase.wall_total_s < seconds or len(phase.wall_s) < MIN_OPS:
        # Fresh starts are spread through the phase, between operations, so
        # that they meet the same machine speeds as the operations do.
        if len(starts) < SETUP_STARTS and phase.wall_total_s >= len(starts) * seconds / SETUP_STARTS:
            starts.append(fresh_start_s(workload, seed))
        phase.run(cli.run, stream, 1)
    n = len(phase.wall_s)
    metrics = {
        "op_p50_ms": phase.p50_ms(),
        "op_p90_ms": phase.p90_ms(),
        "ops_per_s": n / sum(phase.scaled_s),
        "setup_s": statistics.median(starts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return phase.wrong == 0, n, phase.failed, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def per_layer(workload: str, seed: int, seconds: float):
    Outcomes().run(cli.run, workloads.cases(workload, seed, "warmup"), WARMUP_OPS)
    tracer = tracing.Tracer()
    root = tracer.wrap(tracing.ROOT, cli.run)
    # Untraced and traced operations alternate, each side on its own stream
    # of the workload, so that drift in machine speed falls on both sides of
    # the overhead alike and each side keeps the workload's mix.
    plain, traced = Outcomes(), Outcomes()
    plain_stream = workloads.cases(workload, seed)
    traced_stream = workloads.cases(workload, seed, "traced")
    while plain.wall_total_s + traced.wall_total_s < seconds or len(traced.wall_s) < MIN_OPS:
        plain.run(cli.run, plain_stream, 1)
        case = next(traced_stream)
        tracer.install()
        try:
            result = traced.op(root, case)
        finally:
            tracer.uninstall()
        traced.check(case, *result)
    n = len(traced.wall_s)
    # Span times are scaled by the traced operations' median speed scale.
    metrics = tracer.layer_metrics(n, traced.wall_total_s, statistics.median(traced.scales))
    metrics["trace.op_p50_ms"] = (traced.p50_ms(), "ms")
    metrics["trace.untraced_op_p50_ms"] = (plain.p50_ms(), "ms")
    metrics["trace.overhead_frac"] = (traced.p50_ms() / plain.p50_ms() - 1, "ratio")
    metrics["wall.op_p50_ms"] = (1000 * statistics.median(plain.wall_s), "ms")
    metrics["sparse_pool.unsupported_failing"] = (unsupported_failing(), "count")
    imports = [import_times_ms() for _ in range(IMPORTTIME_STARTS)]
    metrics["cli.import.total_ms"] = (statistics.median(t for t, _ in imports), "ms")
    metrics["cli.import.sympy_ms"] = (statistics.median(s for _, s in imports), "ms")
    wrong, failed = plain.wrong + traced.wrong, plain.failed + traced.failed
    return wrong == 0, n + len(plain.wall_s), failed, metrics


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; prints a table of the end-to-end metrics."""
    results = {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    for workload, res in results.items():
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:12s} {m['value']:12.4f} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run = per_layer if args.trace else end_to_end
    correct, attempted, failed, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
