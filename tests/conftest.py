"""Shared fixtures: named surface instances and random generators."""

import importlib.util
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from biquadric.bipoly import ALL_VARS, AffinePoly, BiPoly, FrameChange, all_monomials, parse

# Named instances exercising each branch of the classification.  The comments
# say which geometric feature each one carries.
FIXTURES = {
    # cone-type tangent cone at an isolated singular point
    "cone_point": "x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+y2^2+y1*y2)"
    " + x1^2*(y1^2+y2^2+y0*y1+y0*y2+y1*y2)",
    # non-reduced fibre inside the branch locus of the second projection
    "ramified_double_fibre": "x0^2*y2^2 + x0*x1*(y2^2+y0*y2+y1*y2)"
    " + x1^2*(y0^2+y1^2+y2^2+y0*y1+y0*y2+y1*y2)",
    # split fibre with a ramified component through a contracted section
    "ramified_component": "x0^2*(y2^2+y1*y2) + x0*x1*(y2^2+y0*y2+y1*y2)"
    " + x1^2*(y1^2+y2^2+y0*y2+y1*y2)",
    # contracted section inside the singular locus (every fibre singular)
    "singular_section": "x0^2*(y1^2+y2^2+y1*y2) + x0*x1*(y1^2+2*y2^2+y1*y2)"
    " + x1^2*(3*y1^2+y2^2+y1*y2)",
    # constant tangent-direction map along a section, A1 points only
    "constant_tangent": "x0^2*(y1^2+y2^2+y1*y2+y0*y2) + x0*x1*(2*y1^2+y2^2+y0*y2+3*y1*y2)"
    " + x1^2*(y1^2+3*y2^2+y0*y2+y1*y2)",
    # worse-than-A1 point on a contracted section
    "non_a1_on_section": "x0^2*(y2^2+y1*y2) + x0*x1*(y1^2+y2^2+y0*y2+y1*y2)"
    " + x1^2*(y1^2+y2^2+y0*y1+y0*y2+y1*y2)",
    # worse-than-A1 point with a non-reduced fibre
    "non_a1_double_fibre": "x0^2*y2^2 + x0*x1*(y1^2+y2^2+y0*y2+y1*y2)"
    " + x1^2*(y0^2+y1^2+y2^2+y0*y1+y0*y2+y1*y2)",
    # irreducible and stable despite a non-A1 singular point
    "stable_higher_sing": "x0^2*(y1^2+y1*y2) + x0*x1*(y1^2+y2^2+y0*y2+y1*y2)"
    " + x1^2*(y0^2+y1^2+y2^2+y0*y2+y1*y2)",
    # two lines times a smooth conic cylinder
    "split_cylinder": "x0*x1*(y0*y2+y1^2)",
    # plane factor paired with a bidegree-(2,1) piece
    "plane_factor": "y2*(x0*x1*y0 + x0^2*y1 + x1^2*y2)",
    # two (1,1) factors sharing a fibre component
    "common_fibre": "(x0*y2+x1*(y1+y2))*(x0*y2+x1*(y0+y2))",
    # two (1,1) factors in general position
    "two_ruled": "(x0*y2+x1*y1)*(x0*y1+x1*y0)",
    # repeated line times an irreducible conic cylinder
    "double_line_cylinder": "x1^2*(y0*y2+y1^2)",
    # line times a smooth bidegree-(1,2) surface
    "line_times_smooth": "x1*(x0*(y1^2+y0*y2) + x1*(y0^2+y1^2+y2^2))",
    # line times a singular bidegree-(1,2) surface
    "line_times_singular": "x1*(x0*(y1^2+y1*y2) + x1*(y0^2+y1^2+y2^2))",
}

EXPECTED_CLASS = {
    "cone_point": "Unstable",
    "ramified_double_fibre": "Unstable",
    "ramified_component": "Unstable",
    "singular_section": "Unstable",
    "constant_tangent": "StrictlySemistable",
    "non_a1_on_section": "StrictlySemistable",
    "non_a1_double_fibre": "StrictlySemistable",
    "stable_higher_sing": "Stable",
    "split_cylinder": "StrictlySemistable",
    "plane_factor": "Unstable",
    "common_fibre": "Unstable",
    "two_ruled": "StrictlySemistable",
    "double_line_cylinder": "Unstable",
    "line_times_smooth": "StrictlySemistable",
    "line_times_singular": "Unstable",
}


@pytest.fixture(scope="session")
def fixtures():
    return {name: parse(text) for name, text in FIXTURES.items()}


MONOMIALS = list(all_monomials())


@lru_cache(maxsize=None)
def benchmark_workloads():
    """The benchmark's seeded input streams (perfbench/workloads.py), loaded
    as a module: its sparse pool is a corpus of supported sparse forms."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def pool_forms(n, seed):
    """n seeded forms of the benchmark's sparse pool, as texts."""
    workloads = benchmark_workloads()
    rng = random.Random(seed)
    return [workloads.format_poly(workloads.pool_form(i))
            for i in rng.sample(range(workloads.SPARSE_POOL), n)]


def random_poly(rng, lo=-3, hi=3, keep=1.0):
    terms = {}
    for m in MONOMIALS:
        if keep < 1.0 and rng.random() > keep:
            continue
        c = rng.randint(lo, hi)
        if c:
            terms[m] = Fraction(c)
    if not terms:
        terms[MONOMIALS[0]] = Fraction(1)
    return BiPoly((2, 2), terms)


def substitution_act(g, f):
    """Reference for ``bipoly.act``: substitute the five linear forms of the
    frame into f, term by term, in the sparse polynomial type."""
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    lx = [AffinePoly(ALL_VARS, {units[i]: g.g2[i][k] for i in range(2)}) for k in range(2)]
    ly = [AffinePoly(ALL_VARS, {units[2 + i]: g.g3[i][k] for i in range(3)}) for k in range(3)]
    return BiPoly(f.bidegree, f.poly.evaluate(lx + ly))


def random_unimodular(rng):
    """A random product of elementary shears and swaps: determinant +-1."""
    def shear2():
        a = Fraction(rng.randint(-2, 2))
        if rng.random() < 0.5:
            return ((1, a), (0, 1))
        return ((1, 0), (a, 1))

    def mat2():
        m = ((0, 1), (-1, 0)) if rng.random() < 0.3 else ((1, 0), (0, 1))
        return _mul2(m, shear2())

    def shear3():
        i, j = rng.sample(range(3), 2)
        a = Fraction(rng.randint(-2, 2))
        m = [[Fraction(int(p == q)) for q in range(3)] for p in range(3)]
        m[i][j] = a
        return tuple(tuple(row) for row in m)

    g3 = shear3()
    for _ in range(2):
        g3 = _mul3(g3, shear3())
    return FrameChange(mat2(), g3)


def _mul2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _mul3(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
