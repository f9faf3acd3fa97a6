"""Integer forms and their rational multiples get the same verdict.

A rational scalar is an int when it is integral and a Fraction only when it is
not, so an integer form f runs on machine integers and a multiple lambda * f
with a non-integral lambda runs on Fractions.  The surface, and so every
verdict, is the same: the class, the deciding clause and the boundary stratum
must agree, and both certificates must pass ``verify-cert``.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest

from biquadric import cli
from biquadric.bipoly import parse
from conftest import pool_forms, random_poly
from make_golden import CORPUS_PATH

SCALES = (Fraction(1, 7), Fraction(-3, 11), Fraction(5, 13), Fraction(-2, 17))


def _run(*args, stdin=None):
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(args))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def _verdict(text: str):
    """(exit code, class, deciding clause, stratum) of classify --json, after
    checking that its certificate passes verify-cert."""
    code, stdout = _run("classify", "--json", "--", text)
    if code:
        return code, None, None, None
    report = json.loads(stdout)
    if report["certificate"] is not None:
        assert _run("verify-cert", "--stdin", stdin=stdout)[0] == 0, text
    clause = next((r["clause"] for r in report["condition_report"] if r["violated"]), None)
    return code, report["class"], clause, (report.get("stratum") or {}).get("stratum")


def _check(texts, seed):
    rng = random.Random(seed)
    differ = []
    for text in texts:
        f = parse(text)
        scaled = f * rng.choice(SCALES)
        assert {type(c) for c in f.terms.values()} == {int}
        assert Fraction in {type(c) for c in scaled.terms.values()}
        if _verdict(repr(f)) != _verdict(repr(scaled)):
            differ.append(text)
    assert differ == []


@pytest.mark.parametrize("part", range(4))
def test_golden_inputs(part):
    texts = [e["text"] for e in json.loads(CORPUS_PATH.read_text())]
    _check(texts[part::4], f"golden/{part}")


def test_seeded_dense_forms():
    rng = random.Random("scale/dense")
    _check([repr(random_poly(rng)) for _ in range(20)], "dense")


def test_seeded_sparse_pool_forms():
    _check(pool_forms(40, "scale/sparse"), "sparse")
