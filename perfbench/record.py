"""Record a baseline: repeated benchmark runs summarized into BENCH_<tag>.json.

Run from the root of a checkout:

    python3 perfbench/record.py --tag seed

Each workload of BENCHMARK.json runs RUNS times untraced with seeds 1..RUNS,
then TRACED_RUNS times traced, each for ``run_seconds`` in a fresh process and
one at a time.
The file records, per workload and metric, the median and quartiles over the
runs, and the spread (quartile distance over the median) that the bounds in
BENCHMARK.json are judged against.  It also records the Python version and,
when the checkout is a git repository, the commit.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
TRACED_RUNS = 1


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summarize(results) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return out


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tag", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [run_once(workload, s, seconds, 0) for s in range(1, RUNS + 1)]
        traced = [run_once(workload, s, seconds, 1) for s in range(1, TRACED_RUNS + 1)]
        workloads[workload] = {
            "seeds": list(range(1, RUNS + 1)),
            "correct": all(r["correct"] for r in plain + traced),
            "attempted": [r["attempted"] for r in plain],
            "failed": [r["failed"] for r in plain],
            "end_to_end": summarize(plain),
            "per_layer": summarize(traced) if traced else {},
        }
        for name, m in workloads[workload]["end_to_end"].items():
            print(f"{workload:15s} {name:12s} median {m['median']:12.4f} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}", flush=True)
    doc = {
        "tag": args.tag,
        "commit": commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seconds": seconds,
        "workloads": workloads,
    }
    path = BENCH_DIR / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
