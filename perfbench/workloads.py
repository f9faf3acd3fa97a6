"""Seeded input streams for the benchmark's workloads.

Inputs are built here with the benchmark's own polynomial code, so the
program under test only ever receives polynomial texts.  The known answers
for the named fixtures are frozen in ``fixtures.json`` (texts, expanded
coefficients and expected classes) and do not depend on the test suite.

A polynomial is a dict mapping an exponent tuple (a0, a1, b0, b1, b2) of
x0, x1, y0, y1, y2 to a nonzero integer coefficient.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

Poly = Dict[Tuple[int, int, int, int, int], int]

VARS = ("x0", "x1", "y0", "y1", "y2")

# The 18 monomials of bidegree (2, 2).
MONOMIALS = [
    (a0, 2 - a0, b0, b1, 2 - b0 - b1)
    for a0 in (2, 1, 0)
    for b0 in (2, 1, 0)
    for b1 in range(2 - b0, -1, -1)
]

# Trials of the randomized witness search per witness-search operation.
SEARCH_TRIALS = 16

# Share of monomials kept in a sparse form.
SPARSE_KEEP = 0.35

# Sparse forms come from a fixed pool: form i is pool_form(i).  The pool's
# forms that the program rejects, found by ``sparse_pool.py`` and kept on
# record in unsupported.json, are left out of ``special-mix``, so that no
# operation of the benchmark fails.
SPARSE_POOL = 3000
UNSUPPORTED_PATH = Path(__file__).with_name("unsupported.json")


def _load_fixtures():
    data = json.loads(Path(__file__).with_name("fixtures.json").read_text())
    out = {}
    for name, rec in data.items():
        poly = {}
        for key, c in rec["terms"].items():
            a_part, b_part = key.split(";")
            exps = tuple(int(t) for t in a_part.split(",") + b_part.split(","))
            poly[exps] = int(c)
        out[name] = (poly, rec["expected_class"])
    return out


FIXTURES = _load_fixtures()


@dataclass(frozen=True)
class Case:
    """One operation's input: the CLI arguments plus what is known about it."""

    kind: str
    argv: Tuple[str, ...]
    # The class the answer must have, for inputs in a fixture's orbit.
    expected: Optional[str] = None

    @property
    def text(self) -> str:
        return self.argv[-1]


def format_poly(poly: Poly) -> str:
    """The CLI text grammar for a polynomial, e.g. ``2*x0^2*y1*y2 - x1^2*y0^2``."""
    parts = []
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        factors = [
            v if n == 1 else f"{v}^{n}" for v, n in zip(VARS, exps) if n
        ]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def dense_poly(rng: random.Random) -> Poly:
    """All 18 monomials with nonzero coefficients in [-3, 3]."""
    return {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in MONOMIALS}


def sparse_poly(rng: random.Random) -> Poly:
    """About 35% of the monomials, coefficients in [-2, 2]; never zero."""
    poly = {}
    for m in MONOMIALS:
        if rng.random() > SPARSE_KEEP:
            continue
        c = rng.randint(-2, 2)
        if c:
            poly[m] = c
    return poly or {MONOMIALS[0]: 1}


def pool_form(i: int) -> Poly:
    return sparse_poly(random.Random(f"sparse/{i}"))


def sparse_case(i: int) -> Case:
    return Case("sparse", _classify(format_poly(pool_form(i))))


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def unimodular(rng: random.Random, n: int, shears: int):
    """A random integer n x n matrix of determinant 1 (shears, maybe a signed swap)."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        a = rng.choice((-2, -1, 1, 2))
        m[i] = [m[i][k] + a * m[j][k] for k in range(n)]
    if rng.random() < 0.3:
        i, j = rng.sample(range(n), 2)
        m[i], m[j] = [-c for c in m[j]], m[i]
    return m


def move(poly: Poly, g2, g3) -> Poly:
    """The substitution x_k -> sum_i x_i g2[i][k], y_k -> sum_i y_i g3[i][k]."""
    def unit(v):
        return tuple(int(u == v) for u in range(5))

    lin = [
        {unit(i): g2[i][k] for i in range(2) if g2[i][k]} for k in range(2)
    ] + [
        {unit(2 + i): g3[i][k] for i in range(3) if g3[i][k]} for k in range(3)
    ]
    acc: Poly = {}
    for exps, c in poly.items():
        term: Poly = {(0,) * 5: c}
        for v, n in enumerate(exps):
            for _ in range(n):
                term = _mul(term, lin[v])
        for e, t in term.items():
            acc[e] = acc.get(e, 0) + t
    return {e: c for e, c in acc.items() if c}


def moved_fixture(rng: random.Random, name: str) -> Poly:
    return move(FIXTURES[name][0], unimodular(rng, 2, 1), unimodular(rng, 3, 3))


def _classify(text: str) -> Tuple[str, ...]:
    return ("classify", "--json", "--", text)


def _generic_dense(rng: random.Random) -> Iterator[Case]:
    while True:
        yield Case("dense", _classify(format_poly(dense_poly(rng))))


def unsupported_forms() -> List[int]:
    """The pool forms left out of ``special-mix``."""
    doc = json.loads(UNSUPPORTED_PATH.read_text())
    assert doc["pool"] == SPARSE_POOL, "unsupported.json is for another pool"
    return sorted(int(i) for i in doc["forms"])


def _sparse_pool(rng: random.Random) -> Iterator[Case]:
    """The supported pool forms in a seeded order, reshuffled when used up."""
    left_out = set(unsupported_forms())
    order = [i for i in range(SPARSE_POOL) if i not in left_out]
    while True:
        rng.shuffle(order)
        for i in order:
            yield sparse_case(i)


def _special_mix(rng: random.Random) -> Iterator[Case]:
    # Each block moves every fixture by a fresh frame and interleaves as many
    # sparse forms, so any prefix of the stream keeps the same mix.
    sparse = _sparse_pool(rng)
    while True:
        for name, (_poly, expected) in FIXTURES.items():
            text = format_poly(moved_fixture(rng, name))
            yield Case(f"fixture:{name}", _classify(text), expected)
            yield next(sparse)


def _witness_search(rng: random.Random) -> Iterator[Case]:
    # Two dense forms, on which the search runs every trial, per fixture, on
    # which it returns early with a certificate.  Fixtures stay in their own
    # frames (the search tries the identity frame first) and are rescaled by
    # a random diagonal frame, so no text repeats.  The 2:1 ratio keeps the
    # median inside the dense forms' latency band rather than between bands.
    def search(text):
        seed = str(rng.randrange(2**31))
        return (
            "classify", "--json", "--trials", str(SEARCH_TRIALS), "--seed", seed, "--", text
        )

    def diagonal(n):
        return [[rng.choice((-2, -1, 1, 2)) * int(i == j) for j in range(n)] for i in range(n)]

    while True:
        for name, (poly, expected) in FIXTURES.items():
            for _ in range(2):
                yield Case("dense", search(format_poly(dense_poly(rng))))
            text = format_poly(move(poly, diagonal(2), diagonal(3)))
            yield Case(f"fixture:{name}", search(text), expected)


WORKLOADS = {
    "generic-dense": _generic_dense,
    "special-mix": _special_mix,
    "witness-search": _witness_search,
}


def cases(workload: str, seed: int, part: str = "timed") -> Iterator[Case]:
    """The endless input stream of a workload; equal arguments give equal streams.

    ``part`` names independent streams of one seed, such as the warm-up.
    """
    return WORKLOADS[workload](random.Random(f"{workload}/{part}/{seed}"))


def first_cases(workload: str, seed: int, n: int):
    return list(itertools.islice(cases(workload, seed), n))
