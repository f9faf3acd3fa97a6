"""Build the golden behaviour corpus ``tests/data/golden_classify.json``.

Each entry is one seeded input and what ``classify --json`` printed for it:
the exit code, the sha256 of stdout and, readable, the class, the stratum and
the violated clauses.  ``tests/test_golden.py`` replays the corpus, so a
change to the algebra that alters any verdict, certificate or report shows
up there.  Inputs that fail are recorded with their exit code, not left out.

Run from the repository root to rebuild the corpus:

    PYTHONPATH=src:tests python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from biquadric import cli
from biquadric.bipoly import BiPoly, act, all_monomials, parse
from conftest import FIXTURES, random_poly, random_unimodular

CORPUS_PATH = Path(__file__).with_name("data") / "golden_classify.json"

FRAMES_PER_FIXTURE = 4
SPARSE_FORMS = 100
DENSE_FORMS = 40


def run_classify(text: str):
    """(exit code, stdout) of one in-process ``classify --json`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(["classify", "--json", "--", text])
    return code, out.getvalue()


def summary(code: int, stdout: str) -> dict:
    entry = {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    if code == 0:
        report = json.loads(stdout)
        entry["class"] = report["class"]
        entry["stratum"] = (report.get("stratum") or {}).get("stratum")
        entry["violated"] = [
            r["clause"] for r in report["condition_report"] if r["violated"]
        ]
    return entry


def _factor(rng: random.Random, bidegree) -> BiPoly:
    """A random factor of the given bidegree with coefficients in [-2, 2]."""
    monos = all_monomials(bidegree)
    while True:
        terms = {m: Fraction(rng.randint(-2, 2)) for m in monos}
        f = BiPoly(bidegree, terms)
        if not f.is_zero():
            return f


def _product(*factors: BiPoly) -> BiPoly:
    acc = factors[0]
    for f in factors[1:]:
        acc = acc * f
    return acc


def factor_patterns(rng: random.Random):
    """One form per reducible factor pattern, over Q and over Q(sqrt d)."""
    r = lambda bd: _factor(rng, bd)  # noqa: E731
    x_conj = parse("x0^2 - 2*x1^2")
    y_conj = parse("y0^2 + y1^2")
    l10, l01, q11 = r((1, 0)), r((0, 1)), r((1, 1))
    p11, s11 = r((1, 1)), r((1, 1))
    return {
        "x-lines*conic": _product(r((1, 0)), r((1, 0)), r((0, 2))),
        "double-x-line*conic": _product(l10, l10, r((0, 2))),
        "conjugate-x-lines*conic": _product(x_conj, r((0, 2))),
        "x-lines*y-lines": _product(r((1, 0)), r((1, 0)), r((0, 1)), r((0, 1))),
        "double-x-line*double-y-line": _product(l10, l10, l01, l01),
        "x-lines*double-y-line": _product(r((1, 0)), r((1, 0)), l01, l01),
        "double-x-line*y-lines": _product(l10, l10, r((0, 1)), r((0, 1))),
        "x-lines*conjugate-y-lines": _product(r((1, 0)), r((1, 0)), y_conj),
        "conjugate-x-lines*y-lines": _product(x_conj, r((0, 1)), r((0, 1))),
        "conjugate-x-lines*conjugate-y-lines": _product(x_conj, y_conj),
        "x-line*(1,2)": _product(r((1, 0)), r((1, 2))),
        "x-line*singular-(1,2)": _product(
            r((1, 0)), parse("x0*(y1^2+y1*y2) + x1*(y0^2+y1^2+y2^2)")),
        "y-line*(2,1)": _product(r((0, 1)), r((2, 1))),
        "(1,1)*(1,1)": _product(r((1, 1)), r((1, 1))),
        "(1,1)^2": _product(q11, q11),
        "conjugate-(1,1)-pair": p11 * p11 - s11 * s11 * Fraction(2),
        "(1,1)*x-line*y-line": _product(r((1, 1)), r((1, 0)), r((0, 1))),
        "(1,1)*x-line*y-line-shared": _product(
            parse("x0*y0 + x1*y1"), parse("x0"), parse("y0")),
        "(2,0)*(0,2)": _product(r((2, 0)), r((0, 2))),
        "x-lines*singular-conic": _product(r((1, 0)), r((1, 0)), parse("y0*y1 + y1^2")),
    }


def corpus_inputs():
    """(name, text) for every corpus input, in a fixed order."""
    rng = random.Random(20201010)
    out = []
    for name, text in FIXTURES.items():
        f = parse(text)
        for k in range(FRAMES_PER_FIXTURE):
            out.append((f"fixture:{name}:{k}", repr(act(random_unimodular(rng), f))))
    for k in range(SPARSE_FORMS):
        out.append((f"sparse:{k}", repr(random_poly(rng, lo=-2, hi=2, keep=0.35))))
    for k in range(DENSE_FORMS):
        out.append((f"dense:{k}", repr(random_poly(rng))))
    for name, f in factor_patterns(rng).items():
        out.append((f"pattern:{name}", repr(f)))
    return out


def main() -> None:
    entries = []
    for name, text in corpus_inputs():
        entry = {"name": name, "text": text}
        entry.update(summary(*run_classify(text)))
        entries.append(entry)
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    CORPUS_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    failed = sum(e["exit"] != 0 for e in entries)
    sys.stdout.write(f"{len(entries)} inputs, {failed} recorded failures\n")


if __name__ == "__main__":
    main()
