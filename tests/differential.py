"""Differential runner: the CLI's output over a fixed seeded corpus.

Every corpus input runs in-process through ``cli.run`` under seven commands:
``classify --json``, the witness search ``classify --json --trials 4 --seed
1``, ``singular-locus`` at cutoffs 10 and 3, ``fibres``, ``factor`` and
``boundary``.  The runner prints one digest per run (of its exit code,
stdout and stderr) and a total digest over all runs.

With ``--against OTHER_CHECKOUT`` it also runs the same corpus in a
subprocess on OTHER_CHECKOUT's ``src``, lists every run whose stdout, stderr
or exit code differs there, and exits 1 if any does.  A change that claims
"CLI output unchanged" cites this run against its parent.

The corpus is fixed by seed and never filtered by outcome: the golden
inputs, the fixtures under three seeded frames each, seeded dense forms, a
seeded sample of the benchmark's sparse pool, and the zero polynomial as
text and as a coefficient map.

Run from the repository root:

    PYTHONPATH=src:tests python tests/differential.py [--against OTHER_CHECKOUT]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    ("classify", "--json"),
    ("classify", "--json", "--trials", "4", "--seed", "1"),
    ("singular-locus", "--cutoff", "10"),
    ("singular-locus", "--cutoff", "3"),
    ("fibres",),
    ("factor",),
    ("boundary",),
)

FRAMES_PER_FIXTURE = 3
DENSE_FORMS = 150
POOL_FORMS = 300
ZERO_POLYNOMIALS = ("0*x0^2*y0^2", "x0^2*y0^2 - x0^2*y0^2", "{}", '{"2,0;2,0,0": "0"}')


def corpus_inputs():
    """(name, text) for every corpus input, in a fixed order."""
    from biquadric.bipoly import act, parse
    from conftest import FIXTURES, pool_forms, random_poly, random_unimodular
    from make_golden import corpus_inputs as golden_inputs

    out = [(f"golden/{name}", text) for name, text in golden_inputs()]
    rng = random.Random(19)
    for name, text in FIXTURES.items():
        f = parse(text)
        out += [(f"frame/{name}:{k}", repr(act(random_unimodular(rng), f)))
                for k in range(FRAMES_PER_FIXTURE)]
    out += [(f"dense/{k}", repr(random_poly(rng))) for k in range(DENSE_FORMS)]
    out += [(f"pool/{k}", text) for k, text in enumerate(pool_forms(POOL_FORMS, 19))]
    out += [(f"zero/{k}", text) for k, text in enumerate(ZERO_POLYNOMIALS)]
    return out


def corpus_runs():
    """(label, argv) for every run: each corpus input under each command.
    The k-th input's runs start at command k (mod their number), so that every
    seventh run, the Tier-1 slice, still covers every command."""
    runs = []
    for k, (name, text) in enumerate(corpus_inputs()):
        k %= len(COMMANDS)
        runs += [(f"{name} {' '.join(command)}", [*command, "--", text])
                 for command in COMMANDS[k:] + COMMANDS[:k]]
    return runs


def run(argv):
    """(exit code, stdout, stderr) of one in-process ``cli.run`` call."""
    from biquadric import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_records(argvs):
    """(exit code, stdout digest, stderr digest) of each run."""
    records = []
    for argv in argvs:
        code, out, err = run(argv)
        records.append((code, _sha(out), _sha(err)))
    return records


def run_records_in(checkout: Path, argvs):
    """run_records in a subprocess on another checkout's ``src``."""
    src = (checkout / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--records"], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=checkout, env=env, check=True,
                          timeout=1800)
    doc = json.loads(proc.stdout)
    if not Path(doc["module"]).resolve().is_relative_to(src):
        raise RuntimeError(f"the subprocess imported {doc['module']}, not from {src}")
    return [tuple(r) for r in doc["records"]]


def digest(record) -> str:
    return _sha(json.dumps(list(record)))


def differences(labels, ours, theirs):
    """One line for each run whose exit code, stdout or stderr differs."""
    lines = []
    for label, a, b in zip(labels, ours, theirs):
        parts = [name for name, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
        if parts:
            exits = f" (exit {b[0]} there, {a[0]} here)" if a[0] != b[0] else ""
            lines.append(f"differs: {label}: {', '.join(parts)}{exits}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="OTHER_CHECKOUT",
                        help="also run the corpus on this checkout's src and list every difference")
    parser.add_argument("--records", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.records:  # the subprocess side of --against: argv lists in, records out
        from biquadric import cli

        records = run_records(json.load(sys.stdin))
        json.dump({"module": cli.__file__, "records": records}, sys.stdout)
        return 0
    runs = corpus_runs()
    labels, argvs = [label for label, _ in runs], [a for _, a in runs]
    ours = run_records(argvs)
    digests = [digest(r) for r in ours]
    for label, record, d in zip(labels, ours, digests):
        print(f"{d[:16]} exit {record[0]} {label}")
    print(f"total {_sha(''.join(digests))} over {len(runs)} runs")
    if args.against is None:
        return 0
    diff = differences(labels, ours, run_records_in(args.against, argvs))
    print("\n".join(diff + [f"{len(diff)} of {len(runs)} runs differ from {args.against}"]))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
