"""Rebuild ``unsupported.json``: the sparse pool's forms the program rejects.

Run from the root of a checkout:

    python3 perfbench/sparse_pool.py

Form ``i`` of the pool is ``workloads.pool_form(i)``.  Each form is
classified once, and every form whose outcome is not OK is written to
``unsupported.json`` with the program's message.  ``special-mix`` leaves
those forms out, so that no operation of the benchmark fails; the file keeps
them on record.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import biquadric.cli as cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    forms = {}
    for i in range(workloads.SPARSE_POOL):
        case = workloads.sparse_case(i)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(case.argv))
            except Exception as exc:  # a crash is an outcome to record
                code = exc
        status, detail = checks.outcome(case, code, out.getvalue())
        if status != checks.OK:
            forms[str(i)] = {
                "text": case.text,
                "outcome": f"{status}: {detail}",
                "message": err.getvalue().strip(),
            }
            print(i, status, detail, err.getvalue().strip(), flush=True)
    doc = {"pool": workloads.SPARSE_POOL, "forms": forms}
    workloads.UNSUPPORTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(forms)} of {workloads.SPARSE_POOL} forms left out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
